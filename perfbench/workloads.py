"""The four workloads: what each runs, measures and checks.

Every workload builds its inputs (experiment configs, request tensors and
the request schedule) from the workload seed alone and drives the program
through its public Python API.  An untraced run reports the end-to-end
metrics; a traced run alternates untraced and traced repetitions, reports
the per-layer metrics of the traced ones and the tracing overhead.

Operations: an epoch (``train``, ``train-dp``), a request (``serve``), a
cell (``sweep``).  The run's digest covers only simulated statistics, so
a change that only makes the simulator faster leaves it unchanged.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import repro.core.controller as controller
import repro.runner
from repro.analog import ANALOG_PRESETS
from repro.nn.data import clear_dataset_cache
from repro.runner import ExperimentCell
from repro.serve import InferenceServer, ServeConfig
from repro.telemetry import Telemetry
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)

import loadgen
from layers import (
    LAYERS,
    REQUIRED,
    request_spans_join,
    serve_layers,
    training_layers,
)
from tracer import Tracer

#: compute dtype of every workload (the figure benches' default).
DTYPE = "float32"
#: build_experiment calls timed on their own before a training run's
#: repetitions; each repetition's own set-up adds one more sample.  One
#: build varies by a quarter from the next, so the median needs several.
SETUP_REPEATS = 5

# Training recipe shared by ``train`` and ``train-dp``: resnet12 under
# the Fig. 6 fault recipe (pre-deployment faults plus per-epoch endurance
# faults at the paper's worst-case m=1%, n=2% corner) with Remap-D.
TRAIN_MODEL = "resnet12"
#: six short epochs a run, so the warm epochs outnumber the first, colder
#: one and the median epoch is a warm one.
TRAIN_EPOCHS = 6
TRAIN_N_TRAIN = 128
TRAIN_N_TEST = 128

# Serving: vgg11, Remap-D, pre-deployment faults only, 32-slot batches.
SERVE_MODEL = "vgg11"
SERVE_MAX_BATCH = 32

# Sweep: a trimmed Fig. 6 grid of short cells.
SWEEP_MODELS = ("vgg11", "squeezenet")
SWEEP_POLICIES = (("none", 0.0), ("an-code", 0.0), ("remap-t", 0.10),
                  ("remap-d", 0.0))
SWEEP_EPOCHS = 1
SWEEP_N_TRAIN = 64
SWEEP_N_TEST = 32


#: units of the end-to-end metrics every untraced run reports.
E2E_UNITS = {"setup_s": "s", "op_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def nproc() -> int:
    """CPUs this process may run on (the worker, rank and replica count)."""
    return len(os.sched_getaffinity(0))


def experiment_config(
    model: str,
    seed: int,
    *,
    epochs: int,
    n_train: int,
    n_test: int,
    policy: str = "remap-d",
    policy_param: float = 0.0,
    faults: FaultConfig | None = None,
    data_parallel: int = 0,
    eval_batch: int = 0,
    analog=None,
    chips: int = 1,
) -> ExperimentConfig:
    """One experiment at the figure benches' laptop scale (32x32 crossbars)."""
    return ExperimentConfig(
        train=TrainConfig(
            model=model, epochs=epochs, batch_size=32, n_train=n_train,
            n_test=n_test, width_mult=0.125, dtype=DTYPE,
            data_parallel=data_parallel, eval_batch=eval_batch,
        ),
        chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
        faults=faults if faults is not None else FaultConfig(post_m=0.01, post_n=0.02),
        policy=policy,
        policy_param=policy_param,
        remap_threshold=0.001,
        seed=seed,
        analog=analog,
        chips=chips,
    )


# --------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------- #
@dataclass
class Outcome:
    """What one workload run reports."""

    #: end-to-end metric values (untraced) or per-layer values (traced).
    metrics: dict[str, float]
    #: human-readable rows: (name, value, unit, sample description).
    rows: list[tuple[str, float, str, str]]
    attempted: int
    failed: int
    #: correctness checks: name -> (passed, detail).
    checks: dict[str, tuple[bool, str]] = field(default_factory=dict)
    digest: str = ""
    #: the traced repetition's tracer (written out by the caller).
    tracer: Tracer | None = None


def repeat(seconds: float, rep: Callable[[int], Any], min_reps: int) -> list:
    """Run ``rep(i)`` until the next one would overrun the window."""
    t_start = time.perf_counter()
    out, durations = [], []
    while True:
        t0 = time.perf_counter()
        out.append(rep(len(out)))
        durations.append(time.perf_counter() - t0)
        if len(out) < min_reps:
            continue
        if time.perf_counter() - t_start + statistics.median(durations) > seconds:
            return out


def digest(stats: Any) -> str:
    """Short SHA-256 of the canonical JSON of simulated statistics."""
    blob = json.dumps(stats, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _result_stats(result) -> dict[str, Any]:
    """Simulated statistics of one ExperimentResult (the digest input)."""
    tel = result.telemetry
    counters = tel.get("counters", {})
    hops = tel.get("histograms", {}).get("remap.hops", {}).get("sum", 0.0)
    return {
        "loss": [h["loss"] for h in result.train_result.history],
        "acc": result.train_result.accuracy_curve(),
        "remap.count": result.num_remaps,
        "remap.hops": hops,
        "faults.cells": counters.get("faults.pre_cells", 0)
        + counters.get("faults.post_cells", 0),
        "evictions": result.num_evictions,
    }


def _cache_counts(counters: dict) -> tuple[int, int, int]:
    return (counters.get("engine.cache_hits", 0),
            counters.get("engine.cache_misses", 0),
            counters.get("engine.cache_recomputes", 0))


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _overhead(untraced: list[float], traced: list[float]) -> float:
    return _median(traced) / _median(untraced) - 1.0


def _median_layers(layer_runs: list[dict[str, float]]) -> dict[str, float]:
    keys = set().union(*layer_runs) if layer_runs else set()
    return {k: _median([r[k] for r in layer_runs if k in r]) for k in keys}


def _self_check(tracer: Tracer, workload: str) -> tuple[bool, str]:
    """Every wrapped function the workload should reach was called, and
    no trace hook raised."""
    missing = tracer.missing(REQUIRED[workload])
    if missing:
        return False, "never called: " + ", ".join(missing)
    if tracer.errors:
        return False, "trace hook raised: " + "; ".join(tracer.errors[:3])
    return True, f"{len(REQUIRED[workload])} wrapped functions reached"


# --------------------------------------------------------------------- #
# train / train-dp
# --------------------------------------------------------------------- #
def _training_rep(cfg: ExperimentConfig, tracer: Tracer | None) -> dict:
    """One training run through ``run_experiment``, traced if given a tracer."""
    clear_dataset_cache()
    if tracer is not None:
        tracer.reset()
        tracer.install(LAYERS)
    tel = Telemetry(echo=False)  # the sink run_experiment makes by default
    t0 = time.perf_counter()
    result = error = None
    try:
        result = controller.run_experiment(cfg, telemetry=tel)
    except Exception:  # an epoch that raises fails the run's operations
        error = traceback.format_exc()
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    return {"result": result, "error": error, "wall": wall,
            "epochs": _epoch_times(tel)}


def _epoch_times(tel: Telemetry) -> list[tuple[float, float, float]]:
    """(wall, train pass, evaluate) seconds of each epoch, from the spans the
    run records itself; the wall runs from the start of ``train_epoch`` to
    the end of ``evaluate``, epoch end included."""
    spans = [e["payload"] for e in tel.filter("span")]
    evals = {s["epoch"]: s for s in spans if s["name"] == "evaluate"}
    out = []
    for s in spans:
        ev = evals.get(s.get("epoch"))
        if s["name"] == "train_epoch" and ev is not None:
            out.append((ev["start"] + ev["seconds"] - s["start"],
                        s["seconds"], ev["seconds"]))
    return out


def run_training(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    world = min(nproc(), 4) if workload == "train-dp" else 0
    cfg = experiment_config(
        TRAIN_MODEL, seed, epochs=TRAIN_EPOCHS, n_train=TRAIN_N_TRAIN,
        n_test=TRAIN_N_TEST, data_parallel=world,
    )
    epochs = cfg.train.epochs
    t_start = time.perf_counter()
    setups = []
    for _ in range(SETUP_REPEATS):
        clear_dataset_cache()
        t0 = time.perf_counter()
        ctx = controller.build_experiment(cfg)
        setups.append(time.perf_counter() - t0)
        shutdown = getattr(ctx.trainer, "shutdown", None)
        if shutdown is not None:
            shutdown()
    tracer = Tracer()
    layer_runs: list[dict[str, float]] = []
    checks: dict[str, tuple[bool, str]] = {}

    def rep(i: int) -> dict:
        # A traced run alternates untraced and traced repetitions.
        traced = trace and i % 2 == 1
        out = _training_rep(cfg, tracer if traced else None)
        out["traced"] = traced
        if traced:
            checks.setdefault("trace_self_check", _self_check(tracer, workload))
            if out["result"] is not None:
                layers = training_layers(tracer, epochs)
                _add_result_layers(layers, [out["result"]])
                layer_runs.append(layers)
                plans = (tracer.counters.get("remap.count", 0),
                         tracer.counters.get("remap.hops", 0))
                stats = _result_stats(out["result"])
                agree = plans == (stats["remap.count"], stats["remap.hops"])
                checks.setdefault("trace_matches_result", (
                    agree, f"RemapPlans {plans} vs result "
                    f"{(stats['remap.count'], stats['remap.hops'])}"))
        return out

    # At least two runs: the first run grows the parent, and every rank
    # forked after it is as large as the parent then is.
    reps = repeat(seconds - (time.perf_counter() - t_start), rep, min_reps=2)

    attempted = failed = 0
    digests: list[str] = []
    finals: list[float] = []
    walls = {False: [], True: []}
    # Every epoch of the untraced runs: (wall, train pass, evaluate).  The
    # medians over epochs keep out the epoch that now and then stalls
    # several-fold when data-parallel ranks contend for the cores.
    timed: list[tuple[float, float, float]] = []
    for r in reps:
        attempted += epochs
        result = r["result"]
        if result is None:
            failed += epochs
            checks["runs_complete"] = (False, r["error"].strip().splitlines()[-1])
            continue
        losses = [h["loss"] for h in result.train_result.history]
        failed += sum(1 for x in losses if not math.isfinite(x))
        failed += epochs - len(losses)
        finals.append(result.final_accuracy)
        digests.append(digest(_result_stats(result)))
        walls[r["traced"]].append(r["wall"])
        if r["traced"]:
            continue
        setups.append(result.telemetry["spans"]["build_experiment"]["seconds"])
        timed += r["epochs"]
    checks.setdefault("runs_complete", (True, f"{len(reps)} runs"))
    checks["finite_losses"] = (
        failed == 0, f"{failed} of {attempted} epochs failed")
    checks["digest_stable"] = (
        len(set(digests)) == 1,
        f"{len(digests)} runs, {len(set(digests))} distinct digests")

    runs = f"median of {len(timed)} epochs, {len(walls[False])} runs"
    rss = peak_rss_mb()
    epoch_s = _median([wall for wall, _, _ in timed])
    first = [r["epochs"][0][0] for r in reps
             if not r["traced"] and r["epochs"]]
    train_rate = _ratio(cfg.train.n_train, _median([t for _, t, _ in timed]))
    rows = [
        ("setup_s", _median(setups), "s", f"{len(setups)} set-ups"),
        ("epoch_s", epoch_s, "s", runs),
        ("first_epoch_s", _median(first), "s", f"{len(first)} runs"),
        ("train_samples_per_s", train_rate, "samples/s", runs),
        ("eval_images_per_s",
         _ratio(cfg.train.n_test, _median([v for _, _, v in timed])),
         "images/s", runs),
        ("final_acc", _median(finals), "fraction", f"{len(finals)} runs"),
        ("peak_rss_mb", rss, "MB", "parent + largest child"),
    ]
    if trace:
        metrics = _median_layers(layer_runs)
        metrics["trace.overhead_frac"] = _overhead(walls[False], walls[True])
        rows.append(("trace.overhead_frac", metrics["trace.overhead_frac"],
                     "fraction", f"{len(walls[True])} traced vs "
                     f"{len(walls[False])} untraced runs"))
    else:
        metrics = {
            "setup_s": _median(setups),
            "op_s": epoch_s,
            # Over the whole epoch, not the train pass alone: the epoch
            # end and eval run on rank 0 only and dilute the ranks'
            # contention noise.
            "items_per_s": _ratio(cfg.train.n_train, epoch_s),
            "peak_rss_mb": rss,
        }
    return Outcome(metrics, rows, attempted, failed, checks,
                   digests[0] if digests else "", tracer)


def _add_result_layers(layers: dict[str, float], results: list) -> None:
    """Layer numbers the run's ExperimentResults carry (cache, faults)."""
    hits = misses = recomputes = cells = 0
    for result in results:
        h, m, rc = _cache_counts(result.telemetry.get("counters", {}))
        hits, misses, recomputes = hits + h, misses + m, recomputes + rc
        cells += _result_stats(result)["faults.cells"]
    layers["engine.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layers["engine.recomputes"] = recomputes
    layers["faults.cells"] = cells


# --------------------------------------------------------------------- #
# sweep
# --------------------------------------------------------------------- #
def sweep_cells(seed: int) -> list[ExperimentCell]:
    """Trimmed Fig. 6 grid plus an analog ``full`` slice and a 2-chip slice."""
    def cell(key, model, policy, param=0.0, **extra):
        return ExperimentCell(key, experiment_config(
            model, seed, epochs=SWEEP_EPOCHS, n_train=SWEEP_N_TRAIN,
            n_test=SWEEP_N_TEST, policy=policy, policy_param=param, **extra))

    cells = [cell((m, p), m, p, param)
             for m in SWEEP_MODELS for p, param in SWEEP_POLICIES]
    cells.append(cell(("squeezenet", "remap-d", "analog-full"), "squeezenet",
                      "remap-d", analog=ANALOG_PRESETS["full"]))
    cells.append(cell(("vgg11", "remap-d", "chips-2"), "vgg11", "remap-d",
                      chips=2))
    return cells


def _sweep_rep(cells, workers: int, tracer: Tracer, traced: bool) -> dict:
    clear_dataset_cache()
    if traced:
        tracer.reset()
        tracer.install(LAYERS)
    done: list[tuple[float, float]] = []
    t0 = time.perf_counter()
    try:
        results = repro.runner.run_experiments(
            cells, workers=workers,
            on_result=lambda r: done.append((time.perf_counter(), r.wall_seconds)),
        )
    finally:
        t_end = time.perf_counter()
        tracer.uninstall()
    t_first, first_wall = min(done)
    return {
        "results": results,
        "sweep_s": t_end - t0,
        # The runner's own set-up before the first cell: dataset prefill,
        # worker start and the first result's return.
        "setup_s": t_first - t0 - first_wall,
        "tail_s": t_end - max(t for t, _ in done),
    }


def run_sweep(seed: int, seconds: float, trace: bool) -> Outcome:
    cells = sweep_cells(seed)
    workers = nproc()
    tracer = Tracer()
    walls = {False: [], True: []}
    layer_runs: list[dict[str, float]] = []
    checks: dict[str, tuple[bool, str]] = {}

    def rep(i: int) -> dict:
        traced = trace and i % 2 == 1
        out = _sweep_rep(cells, workers, tracer, traced)
        out["traced"] = traced
        walls[traced].append(out["sweep_s"])
        if traced:
            checks.setdefault("trace_self_check", _self_check(tracer, "sweep"))
            layer_runs.append(_sweep_layers(out, workers))
        return out

    reps = repeat(seconds, rep, min_reps=2)
    attempted = failed = 0
    digests: list[str] = []
    for r in reps:
        attempted += len(r["results"])
        failed += sum(1 for c in r["results"] if not c.ok)
        digests.append(digest([
            [repr(c.key), c.ok] + ([_result_stats(c.result)] if c.ok else [])
            for c in r["results"]]))
    errors = [c.error.strip().splitlines()[-1]
              for r in reps for c in r["results"] if not c.ok]
    checks["cells_ok"] = (failed == 0, f"{failed} of {attempted} cells failed"
                          + (f": {errors[0]}" if errors else ""))
    checks["digest_stable"] = (
        len(set(digests)) == 1,
        f"{len(digests)} sweeps, {len(set(digests))} distinct digests")

    plain = [r for r in reps if not r["traced"]]
    sweep_s = [r["sweep_s"] for r in plain]
    setup_s = [r["setup_s"] for r in plain]
    # Each cell's median over the sweeps, so a cell that stalled while the
    # workers contended stays out, then the mean over the grid's cells,
    # whose models differ in length.
    by_cell: dict[str, list[float]] = {}
    for r in plain:
        for c in r["results"]:
            by_cell.setdefault(repr(c.key), []).append(c.wall_seconds)
    cell_s = statistics.fmean(statistics.median(v) for v in by_cell.values())
    cells_per_s = [len(cells) / s for s in sweep_s]
    tput = [_worker_train_rate(r["results"]) for r in plain]
    n = f"{len(plain)} sweeps of {len(cells)} cells"
    rss = peak_rss_mb()
    rows = [
        ("setup_s", _median(setup_s), "s", n + " (runner, first cell)"),
        ("sweep_s", _median(sweep_s), "s", n),
        ("cell_s", cell_s, "s", n + " (cell median over sweeps, mean "
         "over cells; in worker)"),
        ("cells_per_s", _median(cells_per_s), "cells/s", n),
        ("train_samples_per_s", _median(tput), "samples/s",
         n + " (inside workers)"),
        ("peak_rss_mb", rss, "MB", "parent + largest child"),
    ]
    if trace:
        metrics = _median_layers(layer_runs)
        metrics["trace.overhead_frac"] = _overhead(walls[False], walls[True])
        rows.append(("trace.overhead_frac", metrics["trace.overhead_frac"],
                     "fraction", f"{len(walls[True])} traced vs "
                     f"{len(walls[False])} untraced sweeps"))
    else:
        metrics = {
            "setup_s": _median(setup_s),
            "op_s": cell_s,
            "items_per_s": _median(cells_per_s),
            "peak_rss_mb": rss,
        }
    return Outcome(metrics, rows, attempted, failed, checks,
                   digests[0], tracer)


def _worker_train_rate(results) -> float:
    """Training images per second of ``train_epoch`` inside the workers."""
    images = seconds = 0.0
    for c in results:
        if c.ok:
            train = c.result.telemetry["spans"]["train_epoch"]
            images += SWEEP_N_TRAIN * train["count"]
            seconds += train["seconds"]
    return images / seconds if seconds else 0.0


def _sweep_layers(rep: dict, workers: int) -> dict[str, float]:
    results = rep["results"]
    ok = [c.result for c in results if c.ok]
    cell_s = sum(c.wall_seconds for c in results)
    layers = {
        "runner.cell_s": cell_s,
        "runner.utilization": cell_s / (workers * rep["sweep_s"]),
        "runner.tail_s": rep["tail_s"],
        "runner.retries": sum(c.attempts - 1 for c in results),
        "remap.count": sum(r.num_remaps for r in ok),
        "remap.hops": sum(_result_stats(r)["remap.hops"] for r in ok),
        "bist.scans": sum(r.telemetry["counters"].get("bist_scans", 0)
                          for r in ok),
    }
    _add_result_layers(layers, ok)
    return layers


# --------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------- #
def serve_config(seed: int) -> ExperimentConfig:
    return experiment_config(
        SERVE_MODEL, seed, epochs=1, n_train=64, n_test=32,
        faults=FaultConfig(), eval_batch=SERVE_MAX_BATCH,
    )


def _start_server(cfg, replicas: int):
    """Construct a worker-replica server; returns it and the time until
    its first response (a zero probe at the model's input shape)."""
    clear_dataset_cache()
    t0 = time.perf_counter()
    server = InferenceServer(cfg, ServeConfig(
        max_batch=SERVE_MAX_BATCH, replicas=replicas, workers=True))
    probe = np.zeros(server.input_shape, dtype=server.input_dtype)
    server.submit(probe).result(timeout=120.0)
    return server, time.perf_counter() - t0


def run_serve(seed: int, seconds: float, trace: bool) -> Outcome:
    """Fresh servers one after another, each serving the same ladder.

    The latency percentiles pool every untraced server's requests; the
    answered rate at ``high`` is the median over those servers.
    """
    cfg = serve_config(seed)
    replicas = nproc()
    pool_rng = np.random.default_rng([seed, 1])
    ladder = loadgen.build_ladder(np.random.default_rng([seed, 2]))
    reference: dict[int, bytes] = {}
    tracer = Tracer()
    layer_runs: list[dict[str, float]] = []
    checks: dict[str, tuple[bool, str]] = {}
    pool = None

    def rep(i: int) -> dict:
        nonlocal pool
        traced = trace and i % 2 == 1
        if traced:
            # Installed before the server starts, so the dispatcher's
            # first wait for a batch is already a wrapped call.
            tracer.reset()
            tracer.install(LAYERS)
        try:
            server, setup = _start_server(cfg, replicas)
            try:
                if pool is None:
                    pool = loadgen.request_pool(
                        pool_rng, server.input_shape, server.input_dtype)
                ladder_out = loadgen.run_ladder(server, pool, ladder, reference)
            finally:
                server.close()
        finally:
            tracer.uninstall()
        if traced:
            checks.setdefault("trace_self_check", _self_check(tracer, "serve"))
            checks.setdefault("request_spans_join", (
                request_spans_join(tracer),
                "every answered request has queue, batch and infer spans"))
            layers = serve_layers(tracer, ladder_out.t_start, ladder_out.t_end,
                                  replicas, SERVE_MAX_BATCH)
            layers["serve.gen_late_ms.p99"] = ladder_out.gen_late_p99_ms
            hits, misses, recomputes = _cache_counts(server.telemetry.counters)
            layers["engine.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
            layers["engine.recomputes"] = recomputes
            layer_runs.append(layers)
        return {"setup": setup, "ladder": ladder_out, "traced": traced}

    reps = repeat(seconds, rep, min_reps=loadgen.MIN_SERVERS)
    plain = [r["ladder"] for r in reps if not r["traced"]]
    traced = [r["ladder"] for r in reps if r["traced"]]
    setups = [r["setup"] for r in reps]
    attempted = sum(r["ladder"].attempted for r in reps)
    failed = sum(r["ladder"].failed for r in reps)
    mismatched = sum(r["ladder"].mismatched for r in reps)
    # Every response is held to the first response to the same input,
    # across all of the run's servers (the fixed-slot padding contract).
    checks["requests_ok"] = (failed == 0, f"{failed} of {attempted} requests "
                             f"failed ({mismatched} with logits differing from "
                             "another response to the same input)")

    phases = loadgen.pool_phases(plain)
    n = f"{len(plain)} servers"
    rows = [("setup_s", _median(setups), "s", f"{len(setups)} servers")]
    for phase in phases:
        at = f"{phase.count} requests at {phase.rate:g} req/s"
        rows.append((f"serve_p50_ms.{phase.name}", phase.p50_ms, "ms", at))
        rows.append((f"serve_p99_ms.{phase.name}", phase.p99_ms, "ms", at))
    rows.append(("serve_sustained_rps", loadgen.sustained_rps(phases), "req/s",
                 f"ladder {[p.rate for p in phases]}, p99 <= "
                 f"{loadgen.SERVE_P99_SLO_MS:g} ms, no backlog growth"))
    steady_p50 = _steady_p50_s(plain)
    capacity = phases[-1].completed_rps
    rows.append(("steady_p50_s", steady_p50, "s",
                 n + ", each server's low and mid p50, mean over servers"))
    rows.append(("high_completed_rps", capacity, "req/s",
                 n + ", high, median server"))
    rss = peak_rss_mb()
    rows.append(("peak_rss_mb", rss, "MB", "parent + largest child"))
    if trace:
        metrics = _median_layers(layer_runs)
        metrics["trace.overhead_frac"] = (
            _steady_p50_s(traced) / steady_p50 - 1.0)
        rows.append(("trace.overhead_frac", metrics["trace.overhead_frac"],
                     "fraction", f"low and mid p50, {len(traced)} traced vs "
                     f"{len(plain)} untraced servers"))
    else:
        metrics = {
            "setup_s": _median(setups),
            "op_s": steady_p50,
            "items_per_s": float(capacity),
            "peak_rss_mb": rss,
        }
    return Outcome(metrics, rows, attempted, failed, checks,
                   plain[0].logit_digest, tracer)


def _steady_p50_s(ladders: list) -> float:
    """Latency (s) below saturation: each server's p50 over its ``low``
    and ``mid`` requests, averaged over the servers.  A mean, because a
    server's p50 sits at one of two levels; a median over servers or
    requests would jump between them."""
    return statistics.fmean(
        loadgen.percentile([x for phase in lad.phases[:-1]
                            for x in phase.latencies_ms], 50)
        for lad in ladders) / 1e3


WORKLOADS: dict[str, Callable[[int, float, bool], Outcome]] = {
    "train": lambda seed, s, t: run_training("train", seed, s, t),
    "train-dp": lambda seed, s, t: run_training("train-dp", seed, s, t),
    "serve": run_serve,
    "sweep": run_sweep,
}
