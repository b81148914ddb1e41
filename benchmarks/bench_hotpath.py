"""Hot-path microbenchmarks for the fault-aware training loop.

Times the sparse fused-clamp ``effective_matrix`` fast path against the
retained dense reference implementation (the pre-optimisation
formulation), the recomputation-elimination eval path (version-keyed
effective-weight cache + autograd-free inference), one fault-aware
training epoch, and a runner fan-out, and writes the numbers to
``benchmarks/results/hotpath.json`` — the source of the wall-clock
figures quoted in EXPERIMENTS.md.

Acceptance gates (asserted by ``test_hotpath``):

* at 2% stuck-cell density on 32x32 blocks the sparse clamp must beat
  the dense reference by >= 3x;
* on the reference (256, 512) layer, evaluation with the effective-weight
  cache + ``no_grad`` must beat a graph-building eval that re-clamps both
  crossbar copies on every batch by >= 3x, and on a trained fig5-style
  smoke cell ``Trainer.predict`` must return logits **bit-identical** to
  a graph-building eval over freshly clamped weights;
* a telemetry sink (and live streaming) attached to the engine must cost
  the cache-hit weight read < 3%;
* on multi-core machines, the sharded data-parallel epoch at
  ``min(4, cpus)`` ranks must be no slower than the single-process epoch
  of the same cell timed in the same run (medians of interleaved pairs,
  10% tolerance).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.faults.types import FaultType
from repro.nn.fault_aware import CrossbarEngine
from repro.nn.layers import Linear, Sequential
from repro.nn.tensor import Tensor, no_grad
from repro.reram.chip import Chip
from repro.runner import ExperimentCell, run_experiments
from repro.telemetry import Telemetry
from repro.utils.config import ChipConfig, CrossbarConfig

from _common import SCALE, experiment, save_results
from repro.utils.config import FaultConfig
from repro.utils.tabulate import render_table

MATRIX_SHAPE = (256, 512)
BLOCK = 32
DENSITY = 0.02
REPS = 30


def _median_seconds(fn, reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _faulty_mapping(density: float):
    """A (256, 512) layer copy on 32x32 blocks with random stuck cells."""
    chip = Chip(ChipConfig(crossbar=CrossbarConfig(rows=BLOCK, cols=BLOCK)))
    mapping = chip.allocate_layer_copy("bench", "forward", MATRIX_SHAPE)
    rng = np.random.default_rng(42)
    for _, _, pair_id in mapping.iter_blocks():
        pair = chip.pair(int(pair_id))
        for fmap in (pair.pos.fault_map, pair.neg.fault_map):
            count = int(round(density * fmap.cells))
            if count == 0:
                continue
            cells = rng.choice(fmap.cells, size=count, replace=False)
            is_sa0 = rng.random(count) < 0.5
            fmap.inject(cells[is_sa0], FaultType.SA0)
            fmap.inject(cells[~is_sa0], FaultType.SA1)
    chip.bump_fault_version()
    return chip, mapping, rng


def bench_effective_matrix(density: float) -> dict:
    chip, mapping, rng = _faulty_mapping(density)
    w = rng.normal(0, 0.1, MATRIX_SHAPE)
    # Warm up: calibrates scales and populates the index/overlay caches so
    # the timed region measures the steady-state per-step cost.
    mapping.effective_matrix(w, chip.pair, chip.fault_version)
    mapping.reference_effective_matrix(w, chip.pair, chip.fault_version)
    fast = _median_seconds(
        lambda: mapping.effective_matrix(w, chip.pair, chip.fault_version)
    )
    ref = _median_seconds(
        lambda: mapping.reference_effective_matrix(
            w, chip.pair, chip.fault_version
        )
    )
    return {
        "density": density,
        "fast_us": fast * 1e6,
        "reference_us": ref * 1e6,
        "speedup": ref / fast,
    }


def _bound_eval_layer():
    """A bound Linear with the reference (256, 512) matrix, 2% stuck cells
    in both crossbar copies, and a 64-sample eval batch."""
    chip = Chip(ChipConfig(crossbar=CrossbarConfig(rows=BLOCK, cols=BLOCK)))
    rng = np.random.default_rng(7)
    model = Sequential(Linear(MATRIX_SHAPE[1], MATRIX_SHAPE[0], rng=rng))
    engine = CrossbarEngine(chip).bind(model)
    (key,) = engine.layer_keys()
    for mapping in engine.copies[key]:
        for _, _, pair_id in mapping.iter_blocks():
            pair = chip.pair(int(pair_id))
            for fmap in (pair.pos.fault_map, pair.neg.fault_map):
                count = int(round(DENSITY * fmap.cells))
                cells = rng.choice(fmap.cells, size=count, replace=False)
                is_sa0 = rng.random(count) < 0.5
                fmap.inject(cells[is_sa0], FaultType.SA0)
                fmap.inject(cells[~is_sa0], FaultType.SA1)
    chip.bump_fault_version()
    x = rng.normal(0.0, 1.0, size=(64, MATRIX_SHAPE[1]))
    return model, engine, x


def bench_eval_path() -> dict:
    """Full eval passes: recompute-everything baseline vs cached clamp + no_grad.

    The baseline re-clamps both crossbar copies (a weight version bump
    forces the recompute, as in the miss leg of :func:`bench_cache_hit`)
    and builds the autograd graph on every batch; the fast path serves
    the forward clamp from the version-keyed cache and skips the backward
    copy and the graph entirely.  Same layer, same faults, same batch —
    the outputs are asserted bit-identical before timing.
    """
    model, _, x = _bound_eval_layer()
    (layer,) = model.items

    def baseline() -> np.ndarray:
        layer.weight.bump_version()
        return model(Tensor(x)).data

    def fast() -> np.ndarray:
        with no_grad():
            return model(Tensor(x)).data

    np.testing.assert_array_equal(baseline(), fast())  # also warms both up
    base_s = _median_seconds(baseline)
    fast_s = _median_seconds(fast)
    return {
        "batch": int(x.shape[0]),
        "baseline_us": base_s * 1e6,
        "fast_us": fast_s * 1e6,
        "speedup": base_s / fast_s,
    }


def bench_cache_hit() -> dict:
    """An inference weight read alone: cache hit vs forced miss (version bump)."""
    model, engine, _ = _bound_eval_layer()
    (layer,) = model.items
    w2d = layer.weight.data

    def read() -> None:
        engine.step_weights(layer.layer_key, w2d, need_backward=False)

    read()  # prime the cache
    hit_s = _median_seconds(read)

    def miss() -> None:
        layer.weight.bump_version()
        read()

    miss()
    miss_s = _median_seconds(miss)
    return {
        "hit_us": hit_s * 1e6,
        "miss_us": miss_s * 1e6,
        "speedup": miss_s / hit_s,
    }


def bench_telemetry_overhead() -> dict:
    """Cache-hit MVM cost with a telemetry sink attached vs detached.

    The telemetry refactor must be overhead-neutral on the per-MVM fast
    path: the engine keeps its counters as plain ints and only the cache
    *miss* path consults the sink (behind the disabled-by-default
    ``detail`` flag), so a cache-hit ``step_weights`` read executes the
    identical instruction stream either way.  Samples interleave the two
    configurations to cancel thermal/frequency drift; the CI gate asserts
    < 3% regression.

    A third leg repeats the "on" measurement while a ``DeltaStreamer``
    ships periodic snapshots of the sink to a live in-process
    ``LiveAggregator`` — the live-monitoring transport must stay off the
    hot path (a background thread reading the sink on a coarse interval),
    so it is held to the same < 3% gate.
    """
    from repro.telemetry.live import DeltaStreamer, LiveAggregator

    model, engine, _ = _bound_eval_layer()
    (layer,) = model.items
    w2d = layer.weight.data
    key = layer.layer_key
    engine.step_weights(key, w2d, need_backward=False)  # prime the cache

    def loop() -> None:
        read = engine.step_weights
        for _ in range(200):
            read(key, w2d, False)

    loop()  # warm up
    off_times: list[float] = []
    on_times: list[float] = []
    stream_times: list[float] = []
    tel = Telemetry(echo=False)
    aggregator = LiveAggregator()
    # production flush cadence (REPRO_TELEMETRY_FLUSH / 0.5 s default)
    streamer = DeltaStreamer(tel, aggregator.address, source="bench")
    assert streamer.connected, "bench streamer failed to connect"
    try:
        for _ in range(REPS):
            engine.telemetry = None
            t0 = time.perf_counter()
            loop()
            off_times.append(time.perf_counter() - t0)
            engine.telemetry = tel
            tel.count("bench.reps")  # keep frames non-trivial
            t0 = time.perf_counter()
            loop()
            on_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            loop()
            stream_times.append(time.perf_counter() - t0)
        deadline = time.perf_counter() + 5.0
        while (not aggregator_saw_bench(aggregator)
               and time.perf_counter() < deadline):
            streamer.flush()
            time.sleep(0.02)
    finally:
        streamer.close()
        aggregator.close()
    off = statistics.median(off_times)
    on = statistics.median(on_times)
    streaming = statistics.median(stream_times)
    assert not tel.events, "cache-hit path must not emit telemetry events"
    assert aggregator_saw_bench(aggregator), \
        "streamer never delivered a frame to the aggregator"
    return {
        "calls_per_rep": 200,
        "telemetry_off_us": off * 1e6,
        "telemetry_on_us": on * 1e6,
        "streaming_on_us": streaming * 1e6,
        "overhead_fraction": on / off - 1.0,
        "streaming_overhead_fraction": streaming / off - 1.0,
    }


def aggregator_saw_bench(aggregator) -> bool:
    """True when the bench streamer's frames actually reached the
    aggregator (so the streaming leg measured live transport, not a
    dead socket)."""
    return "bench" in aggregator.rollup().get("sources", {})


def bench_profiling_overhead() -> dict:
    """Full layer forward with per-layer profiling spans ON vs OFF.

    Profiling (``Telemetry.profile``) is opt-in precisely because it does
    add measurable per-forward work (a span per layer call: two
    perf_counter reads, an event append, contextvar push/pop).  This
    bench quantifies that price — it is reported, not gated; the gated
    quantity is the profiling-OFF overhead measured by
    ``bench_telemetry_overhead``.
    """
    model, engine, x = _bound_eval_layer()
    tel = Telemetry(echo=False)
    engine.telemetry = tel
    xb = Tensor(x)

    def loop() -> None:
        with no_grad():
            for _ in range(50):
                model(xb)

    loop()  # warm up (and prime the weight cache)
    off_times: list[float] = []
    on_times: list[float] = []
    for _ in range(REPS):
        tel.profile = False
        t0 = time.perf_counter()
        loop()
        off_times.append(time.perf_counter() - t0)
        tel.profile = True
        t0 = time.perf_counter()
        loop()
        on_times.append(time.perf_counter() - t0)
    tel.profile = False
    off = statistics.median(off_times)
    on = statistics.median(on_times)
    assert tel.spans, "profiling ON must record layer spans"
    return {
        "calls_per_rep": 50,
        "profile_off_us": off * 1e6,
        "profile_on_us": on * 1e6,
        "overhead_fraction": on / off - 1.0,
    }


def bench_cache_equivalence() -> dict:
    """Fig. 5-style smoke cell: ``predict`` vs a graph-building eval.

    The cache and no_grad are pure optimisations: after training, the
    logits ``Trainer.predict`` returns must be bit-identical to those of
    a graph-building forward over freshly clamped weights.
    """
    from repro.core.controller import apply_epoch_end, build_experiment

    cfg = experiment(
        "vgg11", "none",
        FaultConfig(phase_target="forward", phase_density=0.02),
        seed=13,
    )
    cfg.train.epochs = 1
    cfg.train.n_train = 64
    cfg.train.n_test = 32
    ctx = build_experiment(cfg)
    bist_rng = ctx.rng_hub.stream("bist")
    trainer = ctx.trainer
    result = trainer.fit(
        on_epoch_end=lambda epoch, t: apply_epoch_end(ctx, bist_rng, epoch, t)
    )
    x = ctx.dataset.x_test
    fast = trainer.predict(x)
    ctx.engine.invalidate_weight_cache()
    b = trainer.eval_batch_size()
    slow = np.concatenate([
        ctx.model(Tensor(x[i:i + b])).data for i in range(0, len(x), b)
    ])
    return {
        "accuracy_curve": result.accuracy_curve(),
        "identical": bool(np.array_equal(fast, slow)),
    }


#: timed (single-process, data-parallel) epoch pairs behind the dp gate.
TRAIN_EPOCH_PAIRS = 3


def bench_train_epoch() -> dict:
    """Single-process vs data-parallel training epoch (resnet12), same run.

    The same cell on the single-process trainer and, when the machine has
    more than one core, on the sharded data-parallel trainer at
    ``min(4, cpus)`` ranks (``grad_shards`` defaults to 4).  Each leg
    builds the cell, runs one warm-up epoch (it starts the ranks and
    fills the caches) and times the next; ``TRAIN_EPOCH_PAIRS``
    interleaved pairs alternate which leg goes first, and each leg
    reports its median and min-max.  The dp loss is *not* compared
    (per-shard batch-norm is a different, worker-count-invariant recipe).
    """
    import os

    from repro.core.controller import build_experiment

    def run(workers: int) -> float:
        cfg = experiment("resnet12", "none", FaultConfig())
        cfg.train.epochs = 2
        cfg.train.data_parallel = workers
        ctx = build_experiment(cfg)
        try:
            ctx.trainer.train_epoch(0)
            t0 = time.perf_counter()
            ctx.trainer.train_epoch(1)
            return time.perf_counter() - t0
        finally:
            shutdown = getattr(ctx.trainer, "shutdown", None)
            if shutdown is not None:
                shutdown()

    cpus = os.cpu_count() or 1
    workers = min(4, cpus) if cpus >= 2 else 0
    legs = [0, workers] if workers else [0]
    times: dict[int, list[float]] = {w: [] for w in legs}
    for rep in range(TRAIN_EPOCH_PAIRS):
        for w in legs if rep % 2 else legs[::-1]:
            times[w].append(run(w))
    single = times[0]
    payload: dict = {
        "model": "resnet12",
        "cpus": cpus,
        "pairs": TRAIN_EPOCH_PAIRS,
        "seconds": statistics.median(single),
        "seconds_range": [min(single), max(single)],
    }
    if workers:
        dp = times[workers]
        payload["dp_workers"] = workers
        payload["dp_seconds"] = statistics.median(dp)
        payload["dp_seconds_range"] = [min(dp), max(dp)]
        payload["dp_speedup"] = payload["seconds"] / payload["dp_seconds"]
    return payload


def bench_runner_fanout(workers: int = 1) -> dict:
    """Wall-clock of a 2-cell fan-out (tiny fault-aware training runs)."""
    cells = []
    for i, model in enumerate(("vgg11", "resnet12")):
        cfg = experiment(model, "none", FaultConfig(), seed=11 + i)
        cfg.train.epochs = 1
        cfg.train.n_train = 64
        cfg.train.n_test = 32
        cells.append(ExperimentCell(model, cfg))
    t0 = time.perf_counter()
    results = run_experiments(cells, workers=workers)
    wall = time.perf_counter() - t0
    assert all(r.ok for r in results), [r.error for r in results]
    return {
        "workers": workers,
        "cells": len(cells),
        "wall_seconds": wall,
        "cell_seconds": [r.wall_seconds for r in results],
    }


def run_hotpath() -> dict:
    payload: dict = {
        "matrix_shape": list(MATRIX_SHAPE),
        "block": BLOCK,
        "scale": SCALE,
        "effective_matrix": {
            "fault_free": bench_effective_matrix(0.0),
            "faulty_2pct": bench_effective_matrix(DENSITY),
        },
        "eval_path": bench_eval_path(),
        "cache_hit": bench_cache_hit(),
        "telemetry": bench_telemetry_overhead(),
        "profiling": bench_profiling_overhead(),
        "cache_equivalence": bench_cache_equivalence(),
        "train_epoch": bench_train_epoch(),
        "runner": [bench_runner_fanout(workers=1)],
    }
    rows = []
    for name, rec in payload["effective_matrix"].items():
        rows.append([
            name, rec["fast_us"], rec["reference_us"], rec["speedup"],
        ])
    print()
    print(render_table(
        ["case", "fast (us)", "reference (us)", "speedup"],
        rows,
        title=f"effective_matrix on {MATRIX_SHAPE} / {BLOCK}x{BLOCK} blocks "
              f"(median of {REPS})",
        ndigits=1,
    ))
    ev = payload["eval_path"]
    print(f"eval pass (batch {ev['batch']}, cached clamp + no_grad): "
          f"{ev['fast_us']:.0f}us vs baseline {ev['baseline_us']:.0f}us "
          f"({ev['speedup']:.1f}x)")
    ch = payload["cache_hit"]
    print(f"inference weight read: cache hit {ch['hit_us']:.1f}us vs miss "
          f"{ch['miss_us']:.0f}us ({ch['speedup']:.0f}x)")
    tl = payload["telemetry"]
    print(f"telemetry on cache-hit MVM: {tl['telemetry_on_us']:.0f}us vs "
          f"{tl['telemetry_off_us']:.0f}us off "
          f"({100 * tl['overhead_fraction']:+.2f}%); live streaming "
          f"{tl['streaming_on_us']:.0f}us "
          f"({100 * tl['streaming_overhead_fraction']:+.2f}%)")
    pf = payload["profiling"]
    print(f"per-layer profiling spans (opt-in): forward "
          f"{pf['profile_on_us']:.0f}us vs {pf['profile_off_us']:.0f}us off "
          f"({100 * pf['overhead_fraction']:+.1f}%)")
    print("fig5 smoke cell, predict vs graph-building eval: "
          + ("bit-identical" if payload["cache_equivalence"]["identical"]
             else "MISMATCH"))
    te = payload["train_epoch"]
    lo, hi = te["seconds_range"]
    line = (f"train epoch (resnet12, {SCALE} recipe, median of "
            f"{te['pairs']}): {te['seconds']:.2f}s [{lo:.2f}-{hi:.2f}]")
    if "dp_seconds" in te:
        lo, hi = te["dp_seconds_range"]
        line += (f"; dp x{te['dp_workers']} {te['dp_seconds']:.2f}s "
                 f"[{lo:.2f}-{hi:.2f}] ({te['dp_speedup']:.2f}x "
                 f"single-process)")
    print(line)
    print(f"runner fan-out ({payload['runner'][0]['cells']} cells, serial): "
          f"{payload['runner'][0]['wall_seconds']:.1f}s")
    save_results("hotpath", payload)
    return payload


def test_hotpath(benchmark):
    payload = benchmark.pedantic(run_hotpath, rounds=1, iterations=1)
    faulty = payload["effective_matrix"]["faulty_2pct"]
    # Acceptance: >= 3x over the dense reference at 2% density.
    assert faulty["speedup"] >= 3.0, faulty
    # The fault-free path is a cache-hit passthrough; it must not be
    # slower than the faulty path's reference implementation.
    ff = payload["effective_matrix"]["fault_free"]
    assert ff["fast_us"] < faulty["reference_us"]
    # Acceptance: cached clamp + no_grad evaluation >= 3x over the
    # recompute-everything baseline on the reference layer ...
    assert payload["eval_path"]["speedup"] >= 3.0, payload["eval_path"]
    # ... without changing a single bit of the served logits.
    assert payload["cache_equivalence"]["identical"], payload["cache_equivalence"]
    # Telemetry neutrality: a sink attached to the engine must cost the
    # cache-hit MVM fast path < 3% — with live streaming enabled too
    # (the DeltaStreamer reads the sink from a background thread on a
    # coarse interval, so it must be invisible on the hot path).
    assert payload["telemetry"]["overhead_fraction"] < 0.03, payload["telemetry"]
    assert payload["telemetry"]["streaming_overhead_fraction"] < 0.03, \
        payload["telemetry"]
    te = payload["train_epoch"]
    # Data-parallel gate (multi-core only): the sharded epoch must be no
    # slower than the single-process epoch timed in the same run, with a
    # 10% machine-variance tolerance.  Single-core machines skip the
    # gate: there is no parallelism to measure.
    if "dp_speedup" in te:
        assert te["dp_speedup"] >= 0.9, te


if __name__ == "__main__":
    run_hotpath()
