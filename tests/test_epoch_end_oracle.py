"""Oracles for the array-at-a-time epoch end.

The epoch end (BIST scan, pair-density folding, Remap-D planning, health
census) runs over each chip's fault array at once.  The one-crossbar and
one-receiver loops it replaced live here as references, and the batched
code must match them bit for bit: column currents compared as ``uint64``,
densities, whole remap plans, health dicts, and the generator state after
every scan or random-rule plan (the draw order is part of the contract).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bist.analog import BIST_TESTS, column_currents
from repro.bist.analog import column_currents_sa0_test, column_currents_sa1_test
from repro.bist.analog import nominal_sa0_conductance, nominal_sa1_conductance
from repro.bist.density import (
    _estimate_counts,
    pair_density_estimates,
    run_bist,
    scan_chip,
)
from repro.core.remap_protocol import (
    IdleSlot,
    RECEIVER_RULES,
    RemapDecision,
    RemapPlan,
    RemapProtocol,
)
from repro.core.tasks import Task, enumerate_tasks
from repro.faults.distribution import clustered_cells
from repro.faults.types import FaultMap, FaultType
from repro.fleet import ChipFleet
from repro.fleet.placement import FleetPlacement
from repro.reram.cell import sample_sa0_resistances, sample_sa1_resistances
from repro.reram.chip import Chip
from repro.telemetry import Telemetry
from repro.telemetry.health import chip_health
from repro.utils.config import ChipConfig, CrossbarConfig

SETTINGS = settings(max_examples=40, deadline=None)


# --------------------------------------------------------------------- #
# oracle: one crossbar, one test at a time
# --------------------------------------------------------------------- #
def oracle_contributions(fault_map, config, rng, healthy_g):
    """Per-column current delta of the stuck cells, one ``add.at`` each."""
    delta = np.zeros(fault_map.cols, dtype=np.float64)
    _, sa1_cols = np.nonzero(fault_map.sa1_mask)
    if sa1_cols.size:
        r = sample_sa1_resistances(rng, sa1_cols.size, config)
        np.add.at(delta, sa1_cols, 1.0 / r - healthy_g)
    _, sa0_cols = np.nonzero(fault_map.sa0_mask)
    if sa0_cols.size:
        r = sample_sa0_resistances(rng, sa0_cols.size, config)
        np.add.at(delta, sa0_cols, 1.0 / r - healthy_g)
    return delta


def oracle_currents(fault_map, config, rng, test, noise_fraction=0.01):
    healthy_g = config.g_off if test == FaultType.SA1 else config.g_on
    baseline = config.rows * healthy_g
    delta = oracle_contributions(fault_map, config, rng, healthy_g)
    currents = config.read_voltage * (baseline + delta)
    if noise_fraction > 0:
        sigma = noise_fraction * config.read_voltage * config.g_on
        currents = currents + rng.normal(0.0, sigma, size=currents.shape)
    return currents


def oracle_bist(fault_map, config, rng, noise_fraction=0.01):
    """(sa1_count, sa0_count) of one crossbar: the pre-batching run_bist."""
    sa1_curr = oracle_currents(fault_map, config, rng, FaultType.SA1, noise_fraction)
    sa0_curr = oracle_currents(fault_map, config, rng, FaultType.SA0, noise_fraction)
    sa1_counts = _estimate_counts(
        sa1_curr,
        baseline_g=config.g_off,
        per_fault_g_delta=nominal_sa1_conductance(config) - config.g_off,
        read_voltage=config.read_voltage,
        rows=config.rows,
    )
    sa1_excess = (
        config.read_voltage
        * sa1_counts
        * (nominal_sa1_conductance(config) - config.g_on)
    )
    sa0_counts = _estimate_counts(
        sa0_curr - sa1_excess,
        baseline_g=config.g_on,
        per_fault_g_delta=nominal_sa0_conductance(config) - config.g_on,
        read_voltage=config.read_voltage,
        rows=config.rows,
    )
    return int(sa1_counts.sum()), int(sa0_counts.sum())


def oracle_scan(chip, rng, noise_fraction=0.01):
    """Crossbar densities and (sa0, sa1) totals, one crossbar at a time."""
    densities = np.empty(chip.num_crossbars, dtype=np.float64)
    sa0_total = sa1_total = 0
    for xb in chip.crossbars:
        sa1, sa0 = oracle_bist(xb.fault_map, xb.config, rng, noise_fraction)
        densities[xb.xbar_id] = (sa1 + sa0) / xb.fault_map.cells
        sa0_total += sa0
        sa1_total += sa1
    return densities, sa0_total, sa1_total


def oracle_pair_densities(chip, crossbar_densities):
    out = np.empty(chip.num_pairs, dtype=np.float64)
    for pair in chip.pairs:
        pos_id, neg_id = pair.crossbar_ids()
        out[pair.pair_id] = 0.5 * (
            crossbar_densities[pos_id] + crossbar_densities[neg_id]
        )
    return out


def oracle_all_currents(chip, rng, noise_fraction):
    """``(2, crossbars, cols)`` currents in the batched kernel's layout."""
    per_xbar = [
        [oracle_currents(xb.fault_map, xb.config, rng, test, noise_fraction)
         for test in BIST_TESTS]
        for xb in chip.crossbars
    ]
    return np.array(per_xbar).transpose(1, 0, 2)


def batched_currents(chip, rng, noise_fraction):
    members = getattr(chip, "chips", None) or [chip]
    return np.concatenate(
        [
            column_currents(m.fault_codes, m.config.crossbar, rng, BIST_TESTS,
                            noise_fraction)
            for m in members
        ],
        axis=1,
    )


# --------------------------------------------------------------------- #
# fault patterns
# --------------------------------------------------------------------- #
SMALL = ChipConfig(
    mesh_rows=2, mesh_cols=2, tiles_per_router=2, imas_per_tile=1,
    crossbars_per_ima=4, crossbar=CrossbarConfig(rows=16, cols=16),
)


def _sprinkle(chip, seed, density, types, clustered=False):
    """Stuck cells on every crossbar; ``types`` picks SA1/SA0 per cell."""
    rng = np.random.default_rng(seed)
    for xb in chip.crossbars:
        fmap = xb.fault_map
        count = int(rng.integers(0, int(density * fmap.cells) + 1))
        if clustered:
            cells = clustered_cells(rng, fmap.rows, fmap.cols, count)
        else:
            cells = rng.choice(fmap.cells, size=count, replace=False)
        kind = rng.choice(np.asarray(types, dtype=np.int64), size=cells.size)
        fmap.inject(cells[kind == FaultType.SA0], FaultType.SA0)
        fmap.inject(cells[kind == FaultType.SA1], FaultType.SA1)


FAULT_CASES = {
    "clean": lambda chip: None,
    "sa1-only": lambda chip: _sprinkle(chip, 1, 0.2, [FaultType.SA1]),
    "sa0-only": lambda chip: _sprinkle(chip, 2, 0.2, [FaultType.SA0]),
    # High density so many columns hold three or more stuck cells of both
    # kinds: the per-column sums then depend on their order.
    "clustered-mixed": lambda chip: _sprinkle(
        chip, 3, 0.3, [FaultType.SA0, FaultType.SA1], clustered=True
    ),
}


def _fleet(config=SMALL):
    placement = FleetPlacement(
        num_chips=2,
        stages=(("a",), ("b",)),
        layer_chip={"a": 0, "b": 1},
        demands={"a": 6, "b": 10},
    )
    return ChipFleet(config, placement)


def _same_bits(a, b):
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


# --------------------------------------------------------------------- #
# BIST
# --------------------------------------------------------------------- #
class TestBatchedBist:
    @pytest.mark.parametrize("noise", [0.01, 0.0])
    @pytest.mark.parametrize("case", sorted(FAULT_CASES))
    def test_currents_and_state_match_oracle(self, case, noise):
        chip = Chip(SMALL)
        FAULT_CASES[case](chip)
        fast, slow = np.random.default_rng(5), np.random.default_rng(5)
        _same_bits(
            batched_currents(chip, fast, noise),
            oracle_all_currents(chip, slow, noise),
        )
        assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("noise", [0.01, 0.0])
    @pytest.mark.parametrize("case", sorted(FAULT_CASES))
    def test_scan_chip_matches_oracle(self, case, noise):
        chip = Chip(SMALL)
        FAULT_CASES[case](chip)
        fast, slow = np.random.default_rng(9), np.random.default_rng(9)
        tel = Telemetry(echo=False)
        densities = scan_chip(chip, fast, noise, telemetry=tel)
        want, sa0_total, sa1_total = oracle_scan(chip, slow, noise)
        _same_bits(densities, want)
        assert fast.bit_generator.state == slow.bit_generator.state
        (detail,) = [e for e in tel.events if e["kind"] == "bist_scan_detail"]
        assert detail["payload"]["sa0_est"] == sa0_total
        assert detail["payload"]["sa1_est"] == sa1_total
        _same_bits(
            pair_density_estimates(chip, densities),
            oracle_pair_densities(chip, densities),
        )

    def test_fleet_scan_walks_members_in_crossbar_order(self):
        fleet = _fleet()
        FAULT_CASES["clustered-mixed"](fleet)
        fast, slow = np.random.default_rng(4), np.random.default_rng(4)
        densities = scan_chip(fleet, fast)
        want, _, _ = oracle_scan(fleet, slow)
        _same_bits(densities, want)
        assert fast.bit_generator.state == slow.bit_generator.state
        _same_bits(
            pair_density_estimates(fleet, densities),
            oracle_pair_densities(fleet, densities),
        )
        fast, slow = np.random.default_rng(4), np.random.default_rng(4)
        _same_bits(
            batched_currents(fleet, fast, 0.01),
            oracle_all_currents(fleet, slow, 0.01),
        )

    def test_one_crossbar_entry_points_match_oracle(self):
        chip = Chip(SMALL)
        FAULT_CASES["clustered-mixed"](chip)
        fmap, cfg = chip.crossbars[3].fault_map, SMALL.crossbar
        fast, slow = np.random.default_rng(2), np.random.default_rng(2)
        _same_bits(
            column_currents_sa1_test(fmap, cfg, fast),
            oracle_currents(fmap, cfg, slow, FaultType.SA1),
        )
        _same_bits(
            column_currents_sa0_test(fmap, cfg, fast),
            oracle_currents(fmap, cfg, slow, FaultType.SA0),
        )
        res = run_bist(fmap, cfg, fast)
        assert (res.sa1_count, res.sa0_count) == oracle_bist(fmap, cfg, slow)
        assert fast.bit_generator.state == slow.bit_generator.state

    @SETTINGS
    @given(
        crossbars=st.integers(1, 6),
        rows=st.integers(1, 12),
        cols=st.integers(1, 12),
        data=st.data(),
        noise=st.sampled_from([0.0, 0.01, 0.2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_fault_maps_match_oracle(
        self, crossbars, rows, cols, data, noise, seed
    ):
        codes = np.array(
            data.draw(
                st.lists(
                    st.sampled_from([0, 0, 1, 2]),
                    min_size=crossbars * rows * cols,
                    max_size=crossbars * rows * cols,
                )
            ),
            dtype=np.uint8,
        ).reshape(crossbars, rows, cols)
        cfg = CrossbarConfig(rows=rows, cols=cols)
        maps = [FaultMap(rows, cols, codes=codes[x]) for x in range(crossbars)]
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        got = column_currents(codes, cfg, fast, BIST_TESTS, noise)
        want = np.array(
            [[oracle_currents(m, cfg, slow, t, noise) for t in BIST_TESTS]
             for m in maps]
        ).transpose(1, 0, 2)
        _same_bits(got, want)
        assert fast.bit_generator.state == slow.bit_generator.state


# --------------------------------------------------------------------- #
# Remap-D planner
# --------------------------------------------------------------------- #
def oracle_plan(protocol, tasks, pair_density, idle_pairs=None, epoch=-1):
    """The per-receiver planning loop, one sender at a time."""
    chip = protocol.chip
    plan = RemapPlan(epoch=epoch)
    senders = [
        t for t in tasks
        if pair_density[t.pair_id] > protocol.threshold
        and (not protocol.phase_priority or t.tolerance_rank == 0)
    ]
    if not senders:
        return plan
    senders.sort(key=lambda t: (-pair_density[t.pair_id], t.pair_id))
    sender_ids = {id(t) for t in senders}
    receivers = [t for t in tasks if id(t) not in sender_ids]
    receivers.extend(IdleSlot(pid) for pid in (idle_pairs or []))
    used = set()
    for sender in senders:
        s_density = float(pair_density[sender.pair_id])
        s_tile = chip.tile_of_pair(sender.pair_id)
        candidates, settled = [], []
        for r in receivers:
            if id(r) in used:
                continue
            r_density = float(pair_density[r.pair_id])
            if protocol.require_lower_density and r_density >= s_density:
                continue
            if (protocol.phase_priority
                    and r.tolerance_rank <= sender.tolerance_rank):
                continue
            candidates.append((r, r_density))
            if r_density <= protocol.threshold:
                settled.append((r, r_density))
        if settled:
            candidates = settled
        if not candidates:
            continue
        if protocol.receiver_rule == "nearest":
            chosen, r_density = min(
                candidates,
                key=lambda c: (
                    isinstance(c[0], Task),
                    chip.hop_count(s_tile, chip.tile_of_pair(c[0].pair_id)),
                    c[1],
                    c[0].pair_id,
                ),
            )
        elif protocol.receiver_rule == "lowest-density":
            chosen, r_density = min(
                candidates, key=lambda c: (isinstance(c[0], Task), c[1], c[0].pair_id)
            )
        else:
            chosen, r_density = candidates[
                int(protocol.rng.integers(0, len(candidates)))
            ]
        r_tile = chip.tile_of_pair(chosen.pair_id)
        used.add(id(chosen))
        plan.decisions.append(
            RemapDecision(
                sender=sender, receiver=chosen, sender_tile=s_tile,
                receiver_tile=r_tile, hops=chip.hop_count(s_tile, r_tile),
                sender_density=s_density, receiver_density=r_density,
            )
        )
        if s_tile not in plan.sender_tiles:
            plan.sender_tiles.append(s_tile)
        plan.responders.setdefault(
            s_tile, sorted({chip.tile_of_pair(r.pair_id) for r, _ in candidates})
        )
        plan.matches[s_tile] = r_tile
    return plan


def _plan_view(plan):
    """Everything a plan carries, with the exact Python types."""
    def who(x):
        return ("idle", x.pair_id) if isinstance(x, IdleSlot) else ("task", id(x))

    decisions = [
        (who(d.sender), who(d.receiver), d.sender_tile, d.receiver_tile,
         d.hops, d.sender_density, d.receiver_density,
         tuple(type(v) for v in (d.sender_tile, d.receiver_tile, d.hops,
                                 d.sender_density, d.receiver_density)))
        for d in plan.decisions
    ]
    return (plan.epoch, decisions, plan.sender_tiles,
            json.dumps(plan.responders), json.dumps(plan.matches))


PLAN_CHIP = ChipConfig(
    mesh_rows=3, mesh_cols=3, tiles_per_router=2, imas_per_tile=1,
    crossbars_per_ima=4, crossbar=CrossbarConfig(rows=16, cols=16),
)


def _planning_chip(offset: int):
    """A chip with backward and forward copies and idle pairs; ``offset``
    shifts every global id, as on a fleet's second member."""
    chip = Chip(
        PLAN_CHIP, chip_id=int(offset > 0), pair_base=offset,
        tile_base=offset // 2, crossbar_base=2 * offset, router_base=offset // 4,
    )
    mappings = [
        chip.allocate_layer_copy(f"l{i}:{phase}", phase, shape)
        for i, shape in enumerate([(16, 40), (32, 20), (20, 16)])
        for phase in ("backward", "forward")
    ]
    # Move a few tasks so the idle pairs interleave with occupied ones.
    idle = chip.idle_pair_ids()
    for m, target in zip(mappings[:2], idle[-2:]):
        chip.move_task(m, (0, 0), target)
    return chip, enumerate_tasks(mappings)


class TestVectorisedPlanner:
    @SETTINGS
    @given(
        rule=st.sampled_from(RECEIVER_RULES),
        phase_priority=st.booleans(),
        require_lower=st.booleans(),
        offset=st.sampled_from([0, 40]),
        threshold=st.sampled_from([0.0, 0.002, 0.01]),
        data=st.data(),
        seed=st.integers(0, 1000),
    )
    def test_plans_match_oracle(
        self, rule, phase_priority, require_lower, offset, threshold, data, seed
    ):
        chip, tasks = _planning_chip(offset)
        levels = st.sampled_from([0.0, 0.001, 0.002, 0.004, 0.01, 0.05])
        field = np.zeros(offset + chip.num_pairs)
        field[offset:] = data.draw(
            st.lists(levels, min_size=chip.num_pairs, max_size=chip.num_pairs)
        )
        idle = chip.idle_pair_ids()
        protocols = [
            RemapProtocol(
                chip, threshold=threshold, phase_priority=phase_priority,
                require_lower_density=require_lower, receiver_rule=rule,
                rng=np.random.default_rng(seed),
            )
            for _ in range(2)
        ]
        got = protocols[0].plan(tasks, field, idle_pairs=idle, epoch=3)
        want = oracle_plan(protocols[1], tasks, field, idle_pairs=idle, epoch=3)
        assert _plan_view(got) == _plan_view(want)
        assert (protocols[0].rng.bit_generator.state
                == protocols[1].rng.bit_generator.state)

    def test_foreign_receiver_pair_rejected(self):
        chip, tasks = _planning_chip(0)
        field = np.full(chip.num_pairs + 1, 0.05)
        with pytest.raises(IndexError):
            RemapProtocol(chip, threshold=0.01).plan(
                tasks, field, idle_pairs=[chip.num_pairs]
            )


# --------------------------------------------------------------------- #
# health census and true densities
# --------------------------------------------------------------------- #
def oracle_chip_health(chip):
    """The per-crossbar health census."""
    occupied = set()
    for mapping in chip.mappings:
        occupied.update(int(p) for p in mapping.pair_ids.ravel())
    tiles = {}
    for pair in chip.pairs:
        tile = tiles.get(pair.tile_id)
        if tile is None:
            tile = tiles[pair.tile_id] = {
                "tile": pair.tile_id, "cells": 0, "faulty": 0,
                "sa0": 0, "sa1": 0, "quarantined": 0,
            }
        idle = pair.pair_id not in occupied
        for xb in (pair.pos, pair.neg):
            fmap = xb.fault_map
            sa0 = fmap.count(FaultType.SA0)
            sa1 = fmap.count(FaultType.SA1)
            tile["cells"] += fmap.cells
            tile["sa0"] += sa0
            tile["sa1"] += sa1
            tile["faulty"] += sa0 + sa1
            if idle:
                tile["quarantined"] += sa0 + sa1
    tile_rows = [tiles[t] for t in sorted(tiles)]
    for row in tile_rows:
        row["density"] = row["faulty"] / row["cells"] if row["cells"] else 0.0
    cells = sum(t["cells"] for t in tile_rows)
    faulty = sum(t["faulty"] for t in tile_rows)
    quarantined = sum(t["quarantined"] for t in tile_rows)
    health = {
        "cells": cells,
        "faulty": faulty,
        "sa0": sum(t["sa0"] for t in tile_rows),
        "sa1": sum(t["sa1"] for t in tile_rows),
        "mean_density": faulty / cells if cells else 0.0,
        "max_tile_density": max((t["density"] for t in tile_rows), default=0.0),
        "quarantined": quarantined,
        "active_faulty": faulty - quarantined,
        "tiles": tile_rows,
    }
    members = getattr(chip, "chips", None)
    if members is not None:
        for row in tile_rows:
            row["chip"] = chip.chip_of_tile(row["tile"]).chip_id
        chip_rows = []
        for member in members:
            rows = [r for r in tile_rows if r["chip"] == member.chip_id]
            c_cells = sum(r["cells"] for r in rows)
            c_faulty = sum(r["faulty"] for r in rows)
            chip_rows.append({
                "chip": member.chip_id,
                "tiles": len(rows),
                "cells": c_cells,
                "faulty": c_faulty,
                "sa0": sum(r["sa0"] for r in rows),
                "sa1": sum(r["sa1"] for r in rows),
                "density": c_faulty / c_cells if c_cells else 0.0,
                "quarantined": sum(r["quarantined"] for r in rows),
                "pairs": member.num_pairs,
                "free_pairs": len(member.idle_pair_ids(occupied)),
            })
        health["chips"] = chip_rows
        health["evictions"] = chip.evictions
    return health


def _same_health(got, want):
    # json.dumps fails on NumPy scalars, so equal dumps also pins the types.
    assert json.dumps(got) == json.dumps(want)


class TestHealthCensus:
    def test_single_chip_matches_oracle(self):
        chip = Chip(SMALL)
        _same_health(chip_health(chip), oracle_chip_health(chip))
        FAULT_CASES["clustered-mixed"](chip)
        mappings = [chip.allocate_layer_copy("a:backward", "backward", (16, 40)),
                    chip.allocate_layer_copy("a:forward", "forward", (40, 16))]
        chip.move_task(mappings[0], (0, 1), chip.idle_pair_ids()[0])
        _same_health(chip_health(chip), oracle_chip_health(chip))
        _same_bits(chip.true_crossbar_densities(),
                   [xb.fault_map.density for xb in chip.crossbars])
        _same_bits(chip.true_pair_densities(), [p.density for p in chip.pairs])

    def test_fleet_matches_oracle(self):
        fleet = _fleet()
        FAULT_CASES["clustered-mixed"](fleet)
        m0 = fleet.allocate_layer_copy("a:backward", "backward", (16, 40))
        fleet.allocate_layer_copy("b:forward", "forward", (40, 16))
        target = fleet.chips[1].idle_pair_ids()[0]
        fleet.migrate_task(m0, (0, 0), target)  # an evicted foreign task
        _same_health(chip_health(fleet), oracle_chip_health(fleet))
        _same_bits(fleet.true_crossbar_densities(),
                   [xb.fault_map.density for xb in fleet.crossbars])
        _same_bits(fleet.true_pair_densities(), [p.density for p in fleet.pairs])


# --------------------------------------------------------------------- #
# the chip array and its per-crossbar views
# --------------------------------------------------------------------- #
class TestFaultArrayViews:
    def test_crossbar_maps_are_slices_of_the_chip_array(self):
        chip = Chip(SMALL)
        for i, xb in enumerate(chip.crossbars):
            assert np.shares_memory(xb.fault_map.codes, chip.fault_codes)
            assert xb.fault_map.codes.base is chip.fault_codes
        chip.crossbars[5].fault_map.inject(np.array([0, 17, 33]), FaultType.SA1)
        assert np.count_nonzero(chip.fault_codes[5]) == 3
        assert np.count_nonzero(chip.fault_codes) == 3

    def test_injection_reaches_health_and_the_next_scan(self):
        chip = Chip(SMALL)
        before = scan_chip(chip, np.random.default_rng(0), noise_fraction=0.0)
        assert chip_health(chip)["faulty"] == 0
        chip.crossbars[2].fault_map.inject(np.arange(40), FaultType.SA0)
        chip.crossbars[2].fault_map.inject(np.arange(40, 48), FaultType.SA1)
        health = chip_health(chip)
        assert (health["sa0"], health["sa1"], health["faulty"]) == (40, 8, 48)
        fast, slow = np.random.default_rng(1), np.random.default_rng(1)
        after = scan_chip(chip, fast, noise_fraction=0.0)
        want, _, _ = oracle_scan(chip, slow, noise_fraction=0.0)
        _same_bits(after, want)
        assert after[2] > before[2]

    def test_clear_and_merge_write_in_place(self):
        chip = Chip(SMALL)
        fmap = chip.crossbars[1].fault_map
        other = FaultMap(16, 16)
        other.inject(np.arange(5), FaultType.SA1)
        fmap.merge(other)
        assert np.count_nonzero(chip.fault_codes[1]) == 5
        fmap.clear()
        assert not chip.fault_codes.any()

    def test_copy_is_detached(self):
        chip = Chip(SMALL)
        fmap = chip.crossbars[0].fault_map
        fmap.inject(np.array([1]), FaultType.SA0)
        clone = fmap.copy()
        assert not np.shares_memory(clone.codes, chip.fault_codes)
        clone.inject(np.array([2]), FaultType.SA1)
        fmap.inject(np.array([3]), FaultType.SA1)
        assert clone.count() == 2 and fmap.count() == 2
        assert clone.codes.ravel()[3] == FaultType.NONE
        assert chip.fault_codes[0].ravel()[2] == FaultType.NONE

    def test_standalone_maps_own_their_arrays(self):
        a, b = FaultMap(4, 4), FaultMap(4, 4)
        assert not np.shares_memory(a.codes, b.codes)
        with pytest.raises(ValueError):
            FaultMap(4, 4, codes=np.zeros((4, 8), dtype=np.uint8)[:, ::2])
        with pytest.raises(ValueError):
            FaultMap(4, 4, codes=np.zeros((4, 4), dtype=np.int64))
