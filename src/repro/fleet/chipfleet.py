""":class:`ChipFleet`: the hardware target of every experiment.

The fleet owns its member :class:`~repro.reram.chip.Chip` instances (each
sized for its pipeline stage, each with globally-offset pair / tile /
crossbar / router ids) plus the :class:`~repro.fleet.interconnect
.Interconnect` between them.  A run with ``ExperimentConfig.chips == 1``
is a fleet of one.  The fleet presents what the controller, the crossbar
engine, the BIST scanner and the health monitor read fleet-wide —
``fault_maps``, ``crossbars``, ``pair()``, ``wear``,
``record_update_writes`` ... — while the remap protocol moves and swaps
tasks on the member chips themselves.

Global ids are contiguous: chip 0 holds pairs ``[0, n0)``, chip 1 holds
``[n0, n0+n1)`` and so on, which keeps every array indexed by pair or
crossbar id (BIST densities, wear weights, fault-map lists) valid
fleet-wide with zero translation.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.core.overheads import WEIGHT_BITS_PER_PAIR
from repro.fleet.interconnect import Interconnect
from repro.fleet.placement import FleetPlacement, stage_chip_config
from repro.reram.chip import Chip
from repro.reram.crossbar import Crossbar, CrossbarPair
from repro.reram.mapping import LayerCopyMapping
from repro.telemetry import null_telemetry
from repro.utils.config import ChipConfig

__all__ = ["ChipFleet", "FleetWear"]


class FleetWear:
    """Fleet-wide view over the member chips' per-chip wear trackers.

    Indexed by *global* crossbar id, like every other fleet array.  The
    fault injector's wear-weighted target selection works on the whole
    fleet through this without knowing chips exist.
    """

    def __init__(self, chips: list[Chip]):
        # The member list, not the fleet: a back-reference would make every
        # fleet a reference cycle that only a full gc pass frees.
        self._chips = chips

    @property
    def writes(self) -> np.ndarray:
        return np.concatenate([c.wear.writes for c in self._chips])

    @property
    def num_crossbars(self) -> int:
        return sum(c.wear.num_crossbars for c in self._chips)

    def record(self, crossbar_ids: np.ndarray | list[int], count: int = 1) -> None:
        """Route global crossbar ids to their chips' trackers."""
        ids = np.asarray(crossbar_ids, dtype=np.int64)
        if ids.size == 0:
            return
        for chip in self._chips:
            lo = chip.crossbar_base
            hi = lo + chip.num_crossbars
            local = ids[(ids >= lo) & (ids < hi)] - lo
            if local.size:
                chip.wear.record(local, count)

    def selection_weights(self, bias: float = 1.0) -> np.ndarray:
        """Fleet-wide wear-weighted selection (WearTracker semantics)."""
        if bias < 0:
            raise ValueError("bias must be non-negative")
        w = (self.writes.astype(np.float64) + 1.0) ** bias
        return w / w.sum()


class ChipFleet:
    """N >= 1 pipeline-stage chips plus their interconnect."""

    def __init__(
        self,
        base_config: ChipConfig,
        placement: FleetPlacement,
        slack: float = 2.0,
    ):
        self.placement = placement
        self.chips: list[Chip] = []
        pair_base = tile_base = crossbar_base = router_base = 0
        for chip_id in range(placement.num_chips):
            cfg = stage_chip_config(
                base_config, placement.stage_demand(chip_id), slack
            )
            chip = Chip(
                cfg,
                chip_id=chip_id,
                pair_base=pair_base,
                tile_base=tile_base,
                crossbar_base=crossbar_base,
                router_base=router_base,
            )
            self.chips.append(chip)
            pair_base += chip.num_pairs
            tile_base += len(chip.tiles)
            crossbar_base += chip.num_crossbars
            router_base += cfg.num_routers
        #: chip geometry consumers (BIST timing, sweep summaries) see the
        #: first member's config; per-layer allocation uses each member's.
        self.config = self.chips[0].config
        self.interconnect = Interconnect(placement.num_chips)
        self.wear = FleetWear(self.chips)
        self.evictions = 0
        self._telemetry = null_telemetry()
        # Static concatenations (chips never grow after construction).
        self.crossbars: list[Crossbar] = [
            xb for c in self.chips for xb in c.crossbars
        ]
        self.pairs: list[CrossbarPair] = [p for c in self.chips for p in c.pairs]
        # The members' static pair layouts, fleet-wide.  Each member keeps
        # its own fault array; crossbar positions shift by the member's
        # base, which equals its offset in ``crossbars``.
        self.pair_ids = np.concatenate([c.pair_ids for c in self.chips])
        self.pair_tiles = np.concatenate([c.pair_tiles for c in self.chips])
        self.pair_crossbars = np.concatenate(
            [c.pair_crossbars + c.crossbar_base for c in self.chips]
        )
        self._pair_bases = [c.pair_base for c in self.chips]
        self._tile_bases = [c.tile_base for c in self.chips]

    # ------------------------------------------------------------------ #
    # telemetry plumbing
    # ------------------------------------------------------------------ #
    @property
    def telemetry(self):
        return self._telemetry

    @telemetry.setter
    def telemetry(self, sink) -> None:
        self._telemetry = sink
        self.interconnect.telemetry = sink
        for chip in self.chips:
            chip.telemetry = sink

    # ------------------------------------------------------------------ #
    # id routing
    # ------------------------------------------------------------------ #
    @property
    def num_chips(self) -> int:
        return len(self.chips)

    def chip_of_pair(self, pair_id: int) -> Chip:
        index = bisect_right(self._pair_bases, pair_id) - 1
        chip = self.chips[index]
        if not chip.owns_pair(pair_id):
            raise IndexError(f"pair {pair_id} outside the fleet")
        return chip

    def chip_indices(self, pair_ids) -> np.ndarray:
        """Index in ``chips`` of the chip hosting each pair id: one
        :meth:`chip_of_pair` for a whole array."""
        pair_ids = np.asarray(pair_ids, dtype=np.int64)
        if pair_ids.size and (
            pair_ids.min() < 0 or pair_ids.max() >= self.num_pairs
        ):
            raise IndexError("a pair id outside the fleet")
        return np.searchsorted(self._pair_bases, pair_ids, side="right") - 1

    def chip_of_tile(self, tile_id: int) -> Chip:
        index = bisect_right(self._tile_bases, tile_id) - 1
        chip = self.chips[index]
        if not 0 <= tile_id - chip.tile_base < len(chip.tiles):
            raise IndexError(f"tile {tile_id} outside the fleet")
        return chip

    def chip_of_layer(self, name: str) -> int:
        """Chip id a layer's stage was placed on (accepts ``layer:phase``)."""
        return self.placement.chip_of_layer(name)

    # ------------------------------------------------------------------ #
    # fleet-wide views
    # ------------------------------------------------------------------ #
    @property
    def num_crossbars(self) -> int:
        return len(self.crossbars)

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)

    @property
    def fault_maps(self):
        return [xb.fault_map for xb in self.crossbars]

    @property
    def mappings(self) -> list[LayerCopyMapping]:
        return [m for c in self.chips for m in c.mappings]

    @property
    def fault_version(self) -> int:
        """Monotonic fleet fault version (sum of the members' versions)."""
        return sum(c.fault_version for c in self.chips)

    def bump_fault_version(self) -> None:
        for chip in self.chips:
            chip.bump_fault_version()

    def pair(self, pair_id: int) -> CrossbarPair:
        return self.chip_of_pair(pair_id).pair(pair_id)

    def idle_pair_ids(self) -> list[int]:
        """Fleet-wide idle pairs, computed against *global* occupancy.

        A chip cannot compute this alone: an evicted task is registered in
        its origin chip's mapping list but physically occupies a pair on
        its host chip.
        """
        occupied = self.occupied_pair_ids()
        return [
            pid for c in self.chips for pid in c.idle_pair_ids(occupied)
        ]

    def occupied_pair_ids(self) -> set[int]:
        """Global ids of every pair currently hosting a task."""
        occupied: set[int] = set()
        for mapping in self.mappings:
            occupied.update(int(p) for p in mapping.pair_ids.ravel())
        return occupied

    def allocate_layer_copy(
        self, name: str, phase: str, matrix_shape: tuple[int, int]
    ) -> LayerCopyMapping:
        """Allocate a layer copy on the chip its stage was placed on."""
        chip = self.chips[self.placement.chip_of_layer(name)]
        return chip.allocate_layer_copy(name, phase, matrix_shape)

    def record_update_writes(self, count: int = 1) -> None:
        """Record weight-update wear on every mapped crossbar, fleet-wide.

        Each block's pair resolves to the crossbars of its *hosting* chip
        (evictions move blocks across chips), so wear lands on the tracker
        of the chip whose devices are actually written.
        """
        mappings = self.mappings
        if mappings:
            pairs = np.concatenate([m.pair_ids.ravel() for m in mappings])
            self.wear.record(self.pair_crossbars[pairs].ravel(), count)

    def migrate_task(
        self,
        mapping: LayerCopyMapping,
        block: tuple[int, int],
        target_pair: int,
        epoch: int = -1,
        sender_density: float = 0.0,
        receiver_density: float = 0.0,
    ) -> tuple[int, int]:
        """Evict one task to a pair on a *different* chip.

        Charges one programming write on the target pair (the weights are
        reprogrammed there) plus the full weight payload over the
        interconnect; bumps both chips' fault versions so every cached
        effective weight that read either pair is invalidated.  Returns
        the interconnect ``(cycles, flits)`` cost.
        """
        source_pair = int(mapping.pair_ids[block])
        src = self.chip_of_pair(source_pair)
        dst = self.chip_of_pair(target_pair)
        mapping.set_pair(block[0], block[1], target_pair)
        touched = np.asarray(
            list(dst.pair(target_pair).crossbar_ids()), dtype=np.int64
        )
        dst.wear.record(touched - dst.crossbar_base, 1)
        src.bump_fault_version()
        dst.bump_fault_version()
        cycles, flits = self.interconnect.record_transfer(
            src.chip_id, dst.chip_id, WEIGHT_BITS_PER_PAIR,
            kind="eviction", task=mapping.name,
        )
        self.evictions += 1
        self._telemetry.event(
            "task_evicted",
            task=mapping.name,
            phase=mapping.phase,
            block=[int(block[0]), int(block[1])],
            epoch=epoch,
            source_pair=source_pair,
            target_pair=int(target_pair),
            source_chip=src.chip_id,
            target_chip=dst.chip_id,
            chip_hops=self.interconnect.chip_distance(src.chip_id, dst.chip_id),
            transfer_cycles=cycles,
            transfer_flits=flits,
            sender_density=float(sender_density),
            receiver_density=float(receiver_density),
        )
        self._telemetry.count("fleet.evictions")
        return cycles, flits

    # ------------------------------------------------------------------ #
    # densities
    # ------------------------------------------------------------------ #
    def crossbar_fault_counts(self, fault_type=None) -> np.ndarray:
        return np.concatenate(
            [c.crossbar_fault_counts(fault_type) for c in self.chips]
        )

    def true_pair_densities(self) -> np.ndarray:
        return np.concatenate([c.true_pair_densities() for c in self.chips])

    def true_crossbar_densities(self) -> np.ndarray:
        return np.concatenate([c.true_crossbar_densities() for c in self.chips])

    def __repr__(self) -> str:
        return (
            f"ChipFleet(chips={self.num_chips}, pairs={self.num_pairs}, "
            f"crossbars={self.num_crossbars}, evictions={self.evictions})"
        )
