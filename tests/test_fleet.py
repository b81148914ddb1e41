"""Fleet tests: placement, interconnect, eviction, and the fleet of one.

Every experiment builds a :class:`~repro.fleet.ChipFleet`.  The contract
has two halves:

* ``chips=1`` is a fleet of one that stays **bit-identical** to the
  recorded single-chip golden run; and
* ``chips>=2`` under a spare-exhausting fault wave performs cross-chip
  evictions deterministically — the same seed and wave produce identical
  placement and eviction decisions whether cells run serially or in
  fork/spawn worker pools.
"""

import gc
import json
import multiprocessing as mp
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.core.controller import build_experiment, run_experiment
from repro.core.overheads import (
    INTERCHIP_LINK_BITS,
    INTERCHIP_LINK_LATENCY,
    WEIGHT_BITS_PER_PAIR,
    interchip_transfer_cycles,
)
from repro.fleet import (
    ChipFleet,
    Interconnect,
    layer_pair_demands,
    plan_placement,
)
from repro.fleet.interconnect import fleet_mesh_shape
from repro.fleet.placement import stage_chip_config
from repro.nn.models import build_model
from repro.reram.chip import Chip, SpareExhaustedError
from repro.telemetry import Telemetry
from repro.telemetry.health import chip_health
from repro.telemetry.report import build_report, render_report
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)

GOLDEN = Path(__file__).parent / "data" / "golden_single_chip.json"

HAVE_FORK = "fork" in mp.get_all_start_methods()


def _model(rng=None):
    rng = rng or np.random.default_rng(3)
    return build_model("vgg11", 10, 0.125, rng)


def _fleet_config(chips: int = 2, wave: bool = True, **kw) -> ExperimentConfig:
    faults = FaultConfig(
        wave_epoch=0 if wave else None, wave_chip=0, wave_density=0.2
    )
    return ExperimentConfig(
        train=TrainConfig(
            model="vgg11", epochs=2, batch_size=16, n_train=48, n_test=32,
            width_mult=0.125,
        ),
        chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
        faults=faults,
        policy="remap-d",
        remap_threshold=0.001,
        chips=chips,
        seed=11,
        **kw,
    )


class TestPlacement:
    def test_demands_match_chip_sizing_accounting(self, chip_config):
        model = _model()
        demands = layer_pair_demands(model, chip_config)
        assert demands and all(d > 0 for _, d in demands)
        # The chip sized for the summed demand (no slack) must fit it.
        total = sum(d for _, d in demands)
        sized = stage_chip_config(chip_config, total, slack=1.0)
        assert sized.num_crossbars // 2 >= total

    def test_deterministic_and_contiguous(self, chip_config):
        model = _model()
        a = plan_placement(model, 3, chip_config)
        b = plan_placement(model, 3, chip_config)
        assert a.stages == b.stages
        # contiguity: concatenated stages == model layer order
        names = [n for n, _ in layer_pair_demands(model, chip_config)]
        flat = [n for stage in a.stages for n in stage]
        assert flat == names
        assert all(a.stages), "every chip must get at least one layer"

    def test_phase_suffix_lookup(self, chip_config):
        placement = plan_placement(_model(), 2, chip_config)
        name = placement.stages[1][0]
        assert placement.chip_of_layer(name) == 1
        assert placement.chip_of_layer(f"{name}:fwd") == 1

    def test_too_many_chips_rejected(self, chip_config):
        model = _model()
        layers = len(layer_pair_demands(model, chip_config))
        with pytest.raises(ValueError):
            plan_placement(model, layers + 1, chip_config)


class TestInterconnect:
    def test_mesh_shape_near_square(self):
        assert fleet_mesh_shape(1) == (1, 1)
        assert fleet_mesh_shape(2) == (1, 2)
        assert fleet_mesh_shape(4) == (2, 2)
        assert fleet_mesh_shape(6) == (2, 3)
        assert fleet_mesh_shape(7) == (1, 7)
        with pytest.raises(ValueError):
            fleet_mesh_shape(0)

    def test_transfer_cost_formula(self):
        cycles, flits = interchip_transfer_cycles(1000, 2)
        assert flits == -(-1000 // INTERCHIP_LINK_BITS)
        assert cycles == 2 * INTERCHIP_LINK_LATENCY + flits
        assert interchip_transfer_cycles(1000, 0) == (0, 0)

    def test_same_chip_transfer_free_and_silent(self):
        icn = Interconnect(4)
        assert icn.record_transfer(2, 2, 10_000) == (0, 0)
        assert icn.transfers == 0 and not icn.link_flits

    def test_link_flit_accounting(self):
        icn = Interconnect(4)  # 2x2 mesh
        cycles, flits = icn.record_transfer(0, 3, 640)
        assert flits == 20 and cycles == 2 * icn.link_latency + 20
        # XY route 0 -> 1 -> 3: each directed link carries the flits once.
        assert icn.link_flits == {(0, 1): flits, (1, 3): flits}
        summary = icn.summary()
        assert summary["transfers"] == 1
        assert summary["total_flits"] == flits
        assert summary["busiest_link_flits"] == flits


class TestSpareExhaustedError:
    def test_fields_and_message(self, chip_config):
        chip = Chip(chip_config, chip_id=3)
        remaining = chip.pairs_remaining()
        with pytest.raises(SpareExhaustedError) as exc_info:
            chip.allocate_pairs(remaining + 5)
        err = exc_info.value
        assert err.chip_id == 3
        assert err.requested == remaining + 5
        assert err.remaining == remaining
        assert "chip 3" in str(err) and str(remaining + 5) in str(err)
        assert isinstance(err, RuntimeError)

    def test_layer_copy_names_the_layer(self, chip_config):
        chip = Chip(chip_config)
        with pytest.raises(SpareExhaustedError) as exc_info:
            chip.allocate_layer_copy("conv9:fwd", "forward", (4096, 4096))
        assert exc_info.value.layer == "conv9:fwd"
        assert "conv9:fwd" in str(exc_info.value)

    def test_find_eviction_pair_raises_when_full(self, chip_config):
        chip = Chip(chip_config)
        occupied = set(chip.allocatable_pair_ids())
        with pytest.raises(SpareExhaustedError):
            chip.find_eviction_pair(occupied)


class TestChipFleet:
    @pytest.fixture
    def fleet(self, chip_config) -> ChipFleet:
        placement = plan_placement(_model(), 2, chip_config)
        return ChipFleet(chip_config, placement)

    def test_global_ids_contiguous(self, fleet):
        assert fleet.chips[1].pair_base == fleet.chips[0].num_pairs
        assert [p.pair_id for p in fleet.pairs] == list(range(fleet.num_pairs))
        for pid in (0, fleet.chips[0].num_pairs, fleet.num_pairs - 1):
            assert fleet.pair(pid).pair_id == pid
        with pytest.raises(IndexError):
            fleet.chip_of_pair(fleet.num_pairs)

    def test_fault_version_monotonic_over_members(self, fleet):
        v0 = fleet.fault_version
        fleet.chips[1].bump_fault_version()
        assert fleet.fault_version == v0 + 1
        fleet.bump_fault_version()
        assert fleet.fault_version == v0 + 1 + fleet.num_chips

    def test_migration_charges_transfer_and_wear(self, fleet):
        tel = Telemetry(echo=False)
        fleet.telemetry = tel
        mapping = fleet.allocate_layer_copy(
            fleet.placement.stages[0][0] + ":fwd", "forward", (16, 16)
        )
        target = fleet.chips[1].allocatable_pair_ids()[0]
        source = int(mapping.pair_ids[0, 0])
        cycles, flits = fleet.migrate_task(mapping, (0, 0), target)
        assert int(mapping.pair_ids[0, 0]) == target
        assert flits == -(-WEIGHT_BITS_PER_PAIR // INTERCHIP_LINK_BITS)
        assert cycles > 0 and fleet.evictions == 1
        (evt,) = tel.filter("task_evicted")
        assert evt["payload"]["source_pair"] == source
        assert evt["payload"]["target_chip"] == 1
        # wear landed on the *destination* chip's devices
        assert fleet.chips[1].wear.writes.sum() > 0

    def test_idle_pairs_respect_foreign_occupancy(self, fleet):
        mapping = fleet.allocate_layer_copy(
            fleet.placement.stages[0][0] + ":fwd", "forward", (16, 16)
        )
        target = fleet.chips[1].allocatable_pair_ids()[0]
        fleet.migrate_task(mapping, (0, 0), target)
        # Chip 1's own mappings never mention the evicted block, but the
        # fleet-global idle set must exclude its pair.
        assert target not in fleet.idle_pair_ids()
        assert target in fleet.occupied_pair_ids()

    def test_record_update_writes(self, fleet):
        mapping = fleet.allocate_layer_copy(
            fleet.placement.stages[0][0] + ":fwd", "forward", (8, 8)
        )
        fleet.record_update_writes(count=5)
        pos, neg = fleet.pair(int(mapping.pair_ids[0, 0])).crossbar_ids()
        writes = fleet.wear.writes
        assert writes[pos] == 5 and writes[neg] == 5
        assert writes.sum() == 10

    def test_evicted_block_wear_lands_on_host_chip(self, fleet):
        mapping = fleet.allocate_layer_copy(
            fleet.placement.stages[0][0] + ":fwd", "forward", (16, 16)
        )
        host = fleet.chips[1]
        target = host.allocatable_pair_ids()[0]
        fleet.migrate_task(mapping, (0, 0), target)
        before = [c.wear.writes.copy() for c in fleet.chips]
        fleet.record_update_writes(count=3)
        # The block's origin chip registers the mapping, but the host's
        # devices take the writes.
        np.testing.assert_array_equal(fleet.chips[0].wear.writes, before[0])
        added = host.wear.writes - before[1]
        pos, neg = host.pair(target).crossbar_ids()
        assert added[pos - host.crossbar_base] == 3
        assert added[neg - host.crossbar_base] == 3
        assert added.sum() == 6

    def test_dropped_context_frees_its_fleet_without_gc(self):
        # The fleet and its wear view must not form a reference cycle:
        # with the collector off, dropping the context must free the
        # fleet (members, fault arrays, mappings) at once.
        gc.collect()
        gc.disable()
        try:
            ctx = build_experiment(_fleet_config(chips=2))
            fleet = weakref.ref(ctx.chip)
            del ctx
            assert fleet() is None
        finally:
            gc.enable()

    def test_health_rollup_reports_members(self, fleet):
        health = chip_health(fleet)
        assert len(health["chips"]) == 2
        assert health["evictions"] == 0
        assert all("chip" in row for row in health["tiles"])
        total_pairs = sum(row["pairs"] for row in health["chips"])
        assert total_pairs == fleet.num_pairs


class TestFleetEviction:
    def test_wave_forces_cross_chip_eviction(self):
        tel = Telemetry(echo=False)
        result = run_experiment(_fleet_config(chips=2), telemetry=tel)
        assert result.num_evictions >= 1
        counters = tel.summary()["counters"]
        assert counters["fleet.evictions"] == result.num_evictions
        assert counters["fleet.interchip_flits"] > 0
        assert counters["fleet.interchip_cycles"] > 0
        evts = tel.filter("task_evicted")
        assert len(evts) == result.num_evictions
        assert all(e["payload"]["transfer_cycles"] > 0 for e in evts)

    def test_report_renders_fleet_section(self):
        tel = Telemetry(echo=False)
        run_experiment(_fleet_config(chips=2), telemetry=tel)
        report = build_report(list(tel.events), tel.summary())
        fleet = report["fleet"]
        assert fleet is not None
        assert fleet["evictions"] >= 1
        assert fleet["interchip_flits"] > 0
        assert fleet["migrations"] and fleet["chips"]
        text = render_report(report)
        assert "cross-chip evictions" in text
        assert "cross-chip migration timeline" in text
        assert "per-chip fleet health" in text

    def test_epoch_history_carries_fleet_metrics(self):
        result = run_experiment(_fleet_config(chips=2))
        last = result.train_result.history[-1]
        assert last["evictions"] == result.num_evictions
        assert last["interchip_flits"] > 0

    def test_one_chip_run_is_a_fleet_of_one(self):
        config = _fleet_config(chips=1, wave=False)
        ctx = build_experiment(config)
        assert isinstance(ctx.chip, ChipFleet)
        assert len(ctx.chip.chips) == 1
        tel = Telemetry(echo=False)
        result = run_experiment(config, telemetry=tel)
        assert result.num_evictions == 0
        assert len(tel.filter("fleet_built")) == 1
        summary = tel.summary()
        report = build_report(list(tel.events), summary)
        fleet = report["fleet"]
        assert fleet["built"]["chips"] == 1
        assert fleet["migrations"] == []
        assert fleet["evictions"] == 0
        # No other chip to evict to: every unmatched sender is stranded.
        stranded = summary["counters"].get("fleet.stranded_senders", 0)
        assert fleet["stranded_senders"] == stranded
        assert sum(len(s["pairs"]) for s in fleet["stranded"]) == stranded
        text = render_report(report)
        assert "per-chip fleet health" in text
        assert "cross-chip migration timeline" not in text


class TestDeterminism:
    """Same seed + fault wave => identical decisions across run modes."""

    def _key_facts(self, result):
        return (
            repr(result.final_accuracy),
            result.num_remaps,
            result.num_evictions,
            {k: v for k, v in result.telemetry.get("counters", {}).items()
             if k.startswith("fleet.")},
        )

    def test_two_serial_runs_identical(self):
        a = run_experiment(_fleet_config(chips=2))
        b = run_experiment(_fleet_config(chips=2))
        assert self._key_facts(a) == self._key_facts(b)
        assert [repr(h["loss"]) for h in a.train_result.history] == \
            [repr(h["loss"]) for h in b.train_result.history]

    @pytest.mark.parametrize(
        "start_method",
        [
            pytest.param(
                "fork",
                marks=pytest.mark.skipif(not HAVE_FORK, reason="no fork"),
            ),
            "spawn",
        ],
    )
    def test_worker_pool_matches_serial(self, start_method):
        from repro.runner import ExperimentCell, run_experiments

        cells = [ExperimentCell("fleet", _fleet_config(chips=2))]
        (serial,) = run_experiments(cells)
        (pooled,) = run_experiments(
            cells, workers=2, start_method=start_method
        )
        assert serial.ok and pooled.ok
        assert self._key_facts(serial.result) == self._key_facts(pooled.result)


class TestSingleChipGolden:
    """chips=1 must stay bit-identical to the pre-refactor golden run."""

    @pytest.fixture(scope="class")
    def run(self):
        golden = json.loads(GOLDEN.read_text())
        gc = golden["config"]
        config = ExperimentConfig(
            train=TrainConfig(
                model=gc["model"], epochs=gc["epochs"],
                batch_size=gc["batch_size"], n_train=gc["n_train"],
                n_test=gc["n_test"], width_mult=gc["width_mult"],
                dtype=gc["dtype"],
            ),
            chip=ChipConfig(
                crossbar=CrossbarConfig(rows=gc["crossbar"],
                                        cols=gc["crossbar"])
            ),
            policy=gc["policy"],
            remap_threshold=gc["remap_threshold"],
            chips=1,
            seed=gc["seed"],
        )
        return golden, run_experiment(config)

    def test_history_bit_identical(self, run):
        golden, result = run
        for expected, got in zip(golden["history"],
                                 result.train_result.history, strict=True):
            assert repr(got["loss"]) == expected["loss"]
            assert repr(got["test_acc"]) == expected["test_acc"]

    def test_summary_bit_identical(self, run):
        golden, result = run
        assert repr(result.final_accuracy) == golden["final_accuracy"]
        assert result.num_remaps == golden["num_remaps"]
        assert repr(result.mean_chip_density) == golden["mean_chip_density"]
        assert repr(result.max_pair_density) == golden["max_pair_density"]
        assert result.num_evictions == 0
