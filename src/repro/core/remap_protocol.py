"""The dynamic remapping protocol of Fig. 3.

At the end of each epoch, with BIST density estimates in hand:

1. every task whose crossbar-pair density exceeds the trigger threshold
   *and* whose task is fault-critical (backward phase, unless phase
   priority is disabled) becomes a **sender** and broadcasts a remap
   request to all tiles (XY-tree multicast);
2. every non-sender task satisfying the receive conditions — lower fault
   density than the sender and a more fault-tolerant task — **responds**;
3. each sender picks the **nearest** responder (NoC hop count) and the
   two tasks exchange their physical crossbar pairs.

Senders are served most-faulty-first; each receiver task is consumed at
most once per epoch.  The planner is pure (no hardware mutation);
``execute`` applies the swaps to the chip, and the returned plan carries
everything the NoC overhead study needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.tasks import Task
from repro.reram.chip import Chip

__all__ = ["IdleSlot", "RemapDecision", "RemapPlan", "RemapProtocol"]

RECEIVER_RULES = ("nearest", "lowest-density", "random")


@dataclass(frozen=True)
class IdleSlot:
    """A receiver-side crossbar pair that currently hosts no task.

    Idle pairs are ordinary on-chip crossbars (the paper's "already
    available crossbars"); moving a critical task onto one harms nothing,
    so an idle pair is maximally fault-tolerant (rank 2, above forward
    tasks' rank 1).
    """

    pair_id: int

    #: rank above every real task phase.
    tolerance_rank: int = 2

    @property
    def name(self) -> str:
        return f"idle[{self.pair_id}]"


@dataclass(frozen=True)
class RemapDecision:
    """One sender-receiver match."""

    sender: Task
    receiver: "Task | IdleSlot"
    sender_tile: int
    receiver_tile: int
    hops: int
    sender_density: float
    receiver_density: float


@dataclass
class RemapPlan:
    """Everything one epoch's remap phase decided and would transmit."""

    #: the epoch this plan was computed for (-1 = the deployment pass).
    epoch: int = -1
    decisions: list[RemapDecision] = field(default_factory=list)
    #: tiles that broadcast a request (senders with >= 1 triggering task).
    sender_tiles: list[int] = field(default_factory=list)
    #: sender tile -> responding tiles (for the NoC response phase).
    responders: dict[int, list[int]] = field(default_factory=dict)
    #: sender tile -> matched receiver tile (weight-exchange phase).
    matches: dict[int, int] = field(default_factory=dict)

    @property
    def num_remaps(self) -> int:
        return len(self.decisions)

    def total_hops(self) -> int:
        return sum(d.hops for d in self.decisions)


class RemapProtocol:
    """Plans and executes Remap-D's per-epoch task exchanges."""

    def __init__(
        self,
        chip: Chip,
        threshold: float = 0.002,
        phase_priority: bool = True,
        require_lower_density: bool = True,
        receiver_rule: str = "nearest",
        rng: np.random.Generator | None = None,
    ):
        if not (0.0 <= threshold <= 1.0):
            raise ValueError("threshold must lie in [0, 1]")
        if receiver_rule not in RECEIVER_RULES:
            raise ValueError(f"receiver_rule must be one of {RECEIVER_RULES}")
        self.chip = chip
        self.threshold = threshold
        self.phase_priority = phase_priority
        self.require_lower_density = require_lower_density
        self.receiver_rule = receiver_rule
        self.rng = rng or np.random.default_rng(0)

    # ------------------------------------------------------------------ #
    def plan(
        self,
        tasks: list[Task],
        pair_density: np.ndarray,
        idle_pairs: list[int] | None = None,
        epoch: int = -1,
    ) -> RemapPlan:
        """Compute this epoch's sender/receiver matches.

        ``pair_density`` holds the BIST *estimates* per pair id — the
        protocol never sees ground truth.  ``idle_pairs`` are on-chip
        pairs hosting no task; they participate as (preferred) receivers.
        """
        plan = RemapPlan(epoch=epoch)
        chip = self.chip
        pair_density = np.asarray(pair_density, dtype=np.float64)
        pairs = np.fromiter((t.pair_id for t in tasks), np.int64, len(tasks))
        ranks = np.fromiter((t.tolerance_rank for t in tasks), np.int64, len(tasks))
        density = pair_density[pairs]
        is_sender = density > self.threshold
        if self.phase_priority:
            is_sender &= ranks == 0
        if not is_sender.any():
            return plan
        # Most-faulty senders are served first (they have the most to gain
        # and the fewest viable receivers).
        senders = np.flatnonzero(is_sender)
        senders = senders[np.lexsort((pairs[senders], -density[senders]))]

        # The receivers, once: non-sender tasks in task order, then the
        # idle pairs.
        keep = np.flatnonzero(~is_sender)
        idle = np.asarray(idle_pairs or [], dtype=np.int64)
        receivers: list[Task | IdleSlot] = [tasks[i] for i in keep]
        receivers.extend(IdleSlot(int(pid)) for pid in idle)
        r_pair = np.concatenate([pairs[keep], idle])
        r_density = pair_density[r_pair]
        r_rank = np.concatenate(
            [ranks[keep], np.full(idle.size, IdleSlot.tolerance_rank)]
        )
        r_is_task = np.arange(r_pair.size) < keep.size
        local = r_pair - chip.pair_base
        if local.size and (local.min() < 0 or local.max() >= chip.num_pairs):
            raise IndexError(f"a receiver pair is not on chip {chip.chip_id}")
        r_tile = chip.pair_tiles[local]
        r_coords = chip.tile_coords[r_tile - chip.tile_base]
        available = np.ones(r_pair.size, dtype=bool)

        for i in senders:
            s_density = float(density[i])
            s_tile = chip.tile_of_pair(int(pairs[i]))
            ok = available.copy()
            if self.require_lower_density:
                ok &= ~(r_density >= s_density)
            if self.phase_priority:
                ok &= r_rank > ranks[i]
            # Hysteresis: prefer receivers *below the trigger threshold* so
            # a remapped task settles there and never re-triggers ("to
            # prevent frequent remapping" — Section III.B.4).  Hopping to
            # a merely-lower-density pair every epoch would smear fault
            # damage over fresh weight positions at each hop.
            settled = ok & (r_density <= self.threshold)
            candidates = np.flatnonzero(settled if settled.any() else ok)
            if not candidates.size:
                continue
            s_coords = chip.tile_coords[s_tile - chip.tile_base]
            hops = np.abs(r_coords[candidates] - s_coords).sum(axis=1)
            j = candidates[
                self._choose(
                    r_is_task[candidates],
                    hops,
                    r_density[candidates],
                    r_pair[candidates],
                )
            ]
            available[j] = False
            receiver_tile = int(r_tile[j])
            plan.decisions.append(
                RemapDecision(
                    sender=tasks[i],
                    receiver=receivers[j],
                    sender_tile=s_tile,
                    receiver_tile=receiver_tile,
                    hops=chip.hop_count(s_tile, receiver_tile),
                    sender_density=s_density,
                    receiver_density=float(r_density[j]),
                )
            )
            if s_tile not in plan.sender_tiles:
                plan.sender_tiles.append(s_tile)
            # sorted(set()) rather than np.unique: NumPy's first unique
            # call imports numpy.ma (about 10 ms in a fresh worker).
            plan.responders.setdefault(
                s_tile, sorted(set(r_tile[candidates].tolist()))
            )
            plan.matches[s_tile] = receiver_tile
        return plan

    def _choose(
        self,
        is_task: np.ndarray,
        hops: np.ndarray,
        density: np.ndarray,
        pair: np.ndarray,
    ) -> int:
        """Pick the receiver according to the configured rule.

        The arrays describe the candidates in receiver order; the return
        value is the chosen one's position.  Idle crossbar pairs always
        outrank task-hosting receivers: an exchange with a working forward
        task pushes the sender's faults onto that task, while a move to an
        idle pair harms nothing.  Among receivers of the same kind,
        proximity (NoC hop count) decides, as in Fig. 3; remaining ties go
        to the lower density, then the lower pair id, then the earlier
        receiver.
        """
        if self.receiver_rule == "nearest":
            return int(np.lexsort((pair, density, hops, is_task))[0])
        if self.receiver_rule == "lowest-density":
            return int(np.lexsort((pair, density, is_task))[0])
        return int(self.rng.integers(0, len(pair)))

    # ------------------------------------------------------------------ #
    def execute(self, plan: RemapPlan) -> int:
        """Apply all planned remaps to the chip; returns the remap count.

        A task receiver means a weight *exchange* between the two pairs;
        an idle receiver means a one-way move (the sender pair becomes
        idle and available for later epochs).
        """
        for d in plan.decisions:
            if isinstance(d.receiver, IdleSlot):
                self.chip.move_task(
                    d.sender.mapping, d.sender.block, d.receiver.pair_id
                )
            else:
                self.chip.swap_tasks(
                    d.sender.mapping,
                    d.sender.block,
                    d.receiver.mapping,
                    d.receiver.block,
                )
        return plan.num_remaps
