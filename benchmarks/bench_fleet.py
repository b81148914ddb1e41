"""Fleet scale-out benchmark: cross-chip eviction vs a stranded chip.

Subjects a training run to a spare-exhausting chaos fault wave (one
chip's crossbars saturated with extra stuck cells after epoch 0) under
two hardware budgets:

* ``chips=1`` — a fleet of one.  Every spare pair is as dirty as the
  senders, so Remap-D has nowhere left to move critical tasks: the chip
  is *stranded* with the wave's faults under live tasks;
* ``chips=2`` — the same model pipeline-partitioned over a two-chip
  fleet.  The wave hits chip 0 only; the extended remap protocol evicts
  the critical tasks over the interconnect to chip 1's clean pairs,
  paying the per-migration transfer cost the interconnect accounts.

Writes ``benchmarks/results/fleet.json`` with both runs' accuracy
curves, remap/eviction counts and the interconnect bill.  Acceptance
(asserted by ``test_fleet``): the fleet run performs >= 1 cross-chip
eviction with a visible non-zero transfer cost, the single-chip run
performs none, and the fleet ends with fewer faulty cells under live
tasks than the stranded chip.
"""

from __future__ import annotations

from repro.core.controller import run_experiment
from repro.telemetry import Telemetry
from repro.telemetry.health import chip_health
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)

from _common import DTYPE, SCALE, save_results
from repro.utils.tabulate import render_table

WAVE_DENSITY = 0.2


def _config(chips: int) -> ExperimentConfig:
    epochs = 3 if SCALE == "quick" else 4
    return ExperimentConfig(
        train=TrainConfig(
            model="vgg11", epochs=epochs, batch_size=16, n_train=96,
            n_test=64, width_mult=0.125, dtype=DTYPE,
        ),
        chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
        faults=FaultConfig(
            wave_epoch=0, wave_chip=0, wave_density=WAVE_DENSITY
        ),
        policy="remap-d",
        remap_threshold=0.001,
        chips=chips,
        seed=11,
    )


def _run(chips: int) -> dict:
    tel = Telemetry(echo=False)
    result = run_experiment(_config(chips), telemetry=tel)
    counters = tel.summary()["counters"]
    # Final ground-truth health: the faulty cells still under live tasks
    # are the wave damage remapping could NOT take out of service.
    ctx_free = {
        "chips": chips,
        "final_accuracy": result.final_accuracy,
        "accuracy_curve": [h["test_acc"] for h in result.train_result.history],
        "num_remaps": result.num_remaps,
        "num_evictions": result.num_evictions,
        "stranded_senders": int(counters.get("fleet.stranded_senders", 0)),
        "interchip_transfers": int(counters.get("fleet.interchip_transfers", 0)),
        "interchip_flits": int(counters.get("fleet.interchip_flits", 0)),
        "interchip_cycles": int(counters.get("fleet.interchip_cycles", 0)),
        "wall_seconds": round(result.wall_seconds, 2),
    }
    samples = tel.filter("health_sample")
    if samples:
        final = samples[-1]["payload"]
        ctx_free["active_faulty"] = int(final["active_faulty"])
        ctx_free["quarantined"] = int(final["quarantined"])
        ctx_free["active_fraction"] = (
            final["active_faulty"] / final["faulty"] if final["faulty"] else 0.0
        )
    return ctx_free


def run_fleet() -> dict:
    print(f"fleet bench: spare-exhausting wave (density {WAVE_DENSITY}), "
          f"single chip vs 2-chip fleet [{SCALE}]")
    single = _run(chips=1)
    fleet = _run(chips=2)
    rows = [
        [r["chips"], round(r["final_accuracy"], 4), r["num_remaps"],
         r["num_evictions"], r["interchip_flits"],
         r.get("active_faulty", "-"), f"{r.get('active_fraction', 0):.2%}"]
        for r in (single, fleet)
    ]
    print(render_table(
        ["chips", "final acc", "remaps", "evictions", "interchip flits",
         "active faulty", "active frac"],
        rows,
        title="stranded single chip vs fleet eviction under the wave",
    ))
    payload = {
        "wave_density": WAVE_DENSITY,
        "scale": SCALE,
        "single_chip": single,
        "fleet": fleet,
    }
    save_results("fleet", payload)
    return payload


def test_fleet(benchmark):
    payload = benchmark.pedantic(run_fleet, rounds=1, iterations=1)
    single, fleet = payload["single_chip"], payload["fleet"]
    # The fleet must actually evict across chips, paying a visible
    # interconnect cost; a single chip has no such escape hatch.
    assert fleet["num_evictions"] >= 1, fleet
    assert fleet["interchip_flits"] > 0 and fleet["interchip_cycles"] > 0
    assert single["num_evictions"] == 0
    # Scale-out benefit: evicting to the clean chip leaves fewer faulty
    # cells under live tasks than the stranded chip keeps.
    assert fleet["active_fraction"] < single["active_fraction"], (
        single, fleet,
    )


if __name__ == "__main__":
    run_fleet()
