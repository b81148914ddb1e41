"""Fleet-extended Remap-D: local protocol per chip + cross-chip eviction.

The paper's protocol (``repro.core.remap_protocol``) runs *unchanged* on
every member chip — senders, receivers and idle pairs never cross a chip
boundary in the local pass, exactly as on a standalone chip.  The fleet
extension engages only afterwards, for **unmatched senders**: a critical
task above the trigger threshold that found no viable local receiver.

For such a sender the local chip is out of options by construction (every
local idle pair was already offered as a receiver), which the planner
confirms by probing the local allocator: either
:class:`~repro.reram.chip.SpareExhaustedError` (no free pair at all —
``pairs_remaining()`` hit zero and remaps consumed the rest) or a cleanest
free pair still dirtier than the sender.  That is the cross-chip eviction
trigger.  Candidate chips are then tried in deterministic
(interconnect-distance, chip id) order; the first offering a free pair
cleaner than the sender receives the task, and the migration pays one
programming write on the target pair plus the full weight payload
(:data:`~repro.core.overheads.WEIGHT_BITS_PER_PAIR`) over the
interconnect.  A fleet of one has no candidate chip, so each of its
unmatched senders is stranded without the local probe.

Everything here is RNG-free and derived from the shared BIST estimates,
so serial / fork / spawn runs — and data-parallel replicas replaying the
epoch transition — make identical eviction decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.remap_protocol import RemapPlan, RemapProtocol
from repro.core.tasks import Task, group_tasks_by_chip
from repro.fleet.chipfleet import ChipFleet
from repro.reram.chip import Chip, SpareExhaustedError

__all__ = ["EvictionDecision", "FleetRemapPlan", "FleetRemapProtocol"]


@dataclass(frozen=True)
class EvictionDecision:
    """One planned cross-chip task migration."""

    task: Task
    source_chip: int
    target_chip: int
    source_pair: int
    target_pair: int
    chip_hops: int
    sender_density: float
    receiver_density: float


@dataclass
class FleetRemapPlan:
    """One epoch's fleet remap decisions: per-chip plans plus evictions.

    Presents the :class:`~repro.core.remap_protocol.RemapPlan` surface the
    policy layer consumes (``decisions`` / ``sender_tiles`` /
    ``num_remaps``), aggregated over the member chips.
    """

    epoch: int = -1
    #: ``(chip_id, plan)`` of every member chip's local pass.
    sub_plans: list[tuple[int, RemapPlan]] = field(default_factory=list)
    evictions: list[EvictionDecision] = field(default_factory=list)
    #: pair ids of senders no chip in the fleet could host.
    stranded: list[int] = field(default_factory=list)

    @property
    def decisions(self):
        return [d for _, p in self.sub_plans for d in p.decisions]

    @property
    def sender_tiles(self) -> list[int]:
        return sorted({t for _, p in self.sub_plans for t in p.sender_tiles})

    @property
    def num_remaps(self) -> int:
        return len(self.decisions) + len(self.evictions)

    def total_hops(self) -> int:
        return sum(d.hops for d in self.decisions)


class FleetRemapProtocol:
    """Per-chip Remap-D plus the deterministic cross-chip eviction pass."""

    def __init__(
        self,
        fleet: ChipFleet,
        threshold: float = 0.002,
        phase_priority: bool = True,
        receiver_rule: str = "nearest",
        rng: np.random.Generator | None = None,
    ):
        self.fleet = fleet
        self.threshold = threshold
        self.phase_priority = phase_priority
        #: one unchanged paper protocol per member chip.  They share the
        #: rng; chips are always planned in id order, so the draw sequence
        #: (receiver_rule="random" only) stays deterministic.
        self.protocols = [
            RemapProtocol(
                chip,
                threshold=threshold,
                phase_priority=phase_priority,
                receiver_rule=receiver_rule,
                rng=rng,
            )
            for chip in fleet.chips
        ]

    # ------------------------------------------------------------------ #
    def plan(
        self,
        tasks: list[Task],
        pair_density: np.ndarray,
        idle_pairs: list[int] | None = None,
        epoch: int = -1,
    ) -> FleetRemapPlan:
        """Local pass on every chip, then evictions for unmatched senders."""
        fleet = self.fleet
        plan = FleetRemapPlan(epoch=epoch)
        by_chip = group_tasks_by_chip(tasks, fleet)
        idle_by_chip: dict[int, list[int]] = {}
        for pid in idle_pairs or []:
            idle_by_chip.setdefault(
                fleet.chip_of_pair(pid).chip_id, []
            ).append(pid)
        matched: set[int] = set()
        for chip, protocol in zip(fleet.chips, self.protocols):
            sub = protocol.plan(
                by_chip.get(chip.chip_id, []),
                pair_density,
                idle_pairs=idle_by_chip.get(chip.chip_id, []),
                epoch=epoch,
            )
            plan.sub_plans.append((chip.chip_id, sub))
            matched.update(id(d.sender) for d in sub.decisions)
        # Pairs that will be occupied once the local plans execute: every
        # currently mapped pair plus every local receiver.  (Freed sender
        # pairs of one-way moves are conservatively kept occupied — an
        # eviction target must be clean *now*, not after the dust settles.)
        occupied = fleet.occupied_pair_ids()
        for _, sub in plan.sub_plans:
            occupied.update(d.receiver.pair_id for d in sub.decisions)
        for chip in fleet.chips:
            unmatched = [
                t
                for t in by_chip.get(chip.chip_id, [])
                if pair_density[t.pair_id] > self.threshold
                and (not self.phase_priority or t.tolerance_rank == 0)
                and id(t) not in matched
            ]
            unmatched.sort(
                key=lambda t: (-float(pair_density[t.pair_id]), t.pair_id)
            )
            for task in unmatched:
                decision = self._plan_eviction(chip, task, pair_density, occupied)
                if decision is None:
                    plan.stranded.append(task.pair_id)
                    continue
                occupied.add(decision.target_pair)
                plan.evictions.append(decision)
        return plan

    def _plan_eviction(
        self,
        src: Chip,
        task: Task,
        density: np.ndarray,
        occupied: set[int],
    ) -> EvictionDecision | None:
        """Pick the eviction target for one unmatched sender, or None."""
        icn = self.fleet.interconnect
        candidates = sorted(
            (c for c in self.fleet.chips if c is not src),
            key=lambda c: (icn.chip_distance(src.chip_id, c.chip_id), c.chip_id),
        )
        if not candidates:  # a fleet of one has nowhere to evict to
            return None
        s_density = float(density[task.pair_id])
        # Confirm the local chip is exhausted before going off-chip: the
        # allocator raising SpareExhaustedError — or only offering pairs
        # at least as faulty as the sender — is the eviction trigger.
        try:
            local = src.find_eviction_pair(occupied, density)
            if float(density[local]) < s_density:
                # A viable local pair exists after all (the local pass
                # should have taken it; defensive, not normally reached).
                return None
        except SpareExhaustedError:
            pass
        for dst in candidates:
            try:
                pid = dst.find_eviction_pair(occupied, density)
            except SpareExhaustedError:
                continue
            r_density = float(density[pid])
            if r_density >= s_density:
                continue
            return EvictionDecision(
                task=task,
                source_chip=src.chip_id,
                target_chip=dst.chip_id,
                source_pair=task.pair_id,
                target_pair=pid,
                chip_hops=icn.chip_distance(src.chip_id, dst.chip_id),
                sender_density=s_density,
                receiver_density=r_density,
            )
        return None

    # ------------------------------------------------------------------ #
    def execute(self, plan: FleetRemapPlan) -> int:
        """Apply local plans then evictions; returns the total remap count."""
        for chip_id, sub in plan.sub_plans:
            self.protocols[chip_id].execute(sub)
        for d in plan.evictions:
            self.fleet.migrate_task(
                d.task.mapping,
                d.task.block,
                d.target_pair,
                epoch=plan.epoch,
                sender_density=d.sender_density,
                receiver_density=d.receiver_density,
            )
        if plan.stranded:
            self.fleet.telemetry.event(
                "eviction_stranded",
                epoch=plan.epoch,
                pairs=[int(p) for p in plan.stranded],
            )
            self.fleet.telemetry.count(
                "fleet.stranded_senders", len(plan.stranded)
            )
        return plan.num_remaps
