"""The RCS chip: tile grid, crossbar inventory, allocation and remapping.

The chip owns the physical hardware tree (tiles -> IMAs -> crossbars), the
differential pair registry, the wear tracker and a monotonically increasing
``fault_version`` used to invalidate cached fault overlays whenever faults
are injected or tasks are remapped.

Experiments run every chip as a member of a :class:`~repro.fleet.ChipFleet`
(a fleet of one by default): every pair, tile, crossbar and router id is
offset by a per-chip base so ids are unique *fleet-wide* and any global id
resolves to exactly one chip.  A fleet's first member, and a bare chip,
use all-zero bases, so their global ids equal their local ones.  The
fleet records weight-update wear; the chip moves and swaps tasks for the
remap protocol.
"""

from __future__ import annotations

import numpy as np

from repro.faults.endurance import WearTracker
from repro.faults.types import FaultMap, FaultType
from repro.reram.crossbar import Crossbar, CrossbarPair
from repro.reram.ima import IMA
from repro.reram.mapping import LayerCopyMapping, blocks_needed
from repro.reram.tile import Tile
from repro.telemetry import null_telemetry
from repro.utils.config import ChipConfig

__all__ = ["Chip", "SpareExhaustedError"]


class SpareExhaustedError(RuntimeError):
    """A chip ran out of allocatable crossbar pairs.

    Carries enough context to act on (which chip, which layer, how short
    the request fell).  Subclasses :class:`RuntimeError` so pre-fleet
    callers that caught the opaque failure keep working.  In a fleet this
    exception is the *cross-chip eviction trigger*: a remap planner that
    cannot place a task locally probes other chips' allocators and skips
    any that raise it.
    """

    def __init__(
        self,
        chip_id: int,
        requested: int,
        remaining: int,
        total: int,
        layer: str | None = None,
    ):
        self.chip_id = chip_id
        self.requested = requested
        self.remaining = remaining
        self.total = total
        self.layer = layer
        where = f"chip {chip_id}"
        if layer is not None:
            where += f" (layer {layer!r})"
        super().__init__(
            f"{where} out of crossbar pairs: requested {requested}, "
            f"only {remaining} of {total} left "
            "(increase ChipConfig sizes, reduce the model, or add chips)"
        )


class Chip:
    """A complete ReRAM crossbar-based computing system instance."""

    def __init__(
        self,
        config: ChipConfig,
        chip_id: int = 0,
        pair_base: int = 0,
        tile_base: int = 0,
        crossbar_base: int = 0,
        router_base: int = 0,
    ):
        self.config = config
        #: fleet membership: position and global-id offsets.  A standalone
        #: chip is chip 0 with zero bases (ids are then purely local).
        self.chip_id = chip_id
        self.pair_base = pair_base
        self.tile_base = tile_base
        self.crossbar_base = crossbar_base
        self.router_base = router_base
        self.crossbars: list[Crossbar] = []
        self.tiles: list[Tile] = []
        self.pairs: list[CrossbarPair] = []
        self._build()
        self.wear = WearTracker(len(self.crossbars))
        #: bumped on every fault injection / remap; caches key off it.
        self.fault_version = 0
        #: instrumentation sink; the controller rebinds this to the run's
        #: sink so remap operations land in the trace.  Defaults to the
        #: shared disabled sink (standalone Chip uses stay silent).
        self.telemetry = null_telemetry()
        self.task_moves = 0
        self.task_swaps = 0
        #: registered layer-copy mappings (the logical task placement).
        self.mappings: list[LayerCopyMapping] = []
        # Spare pairs (reserved, never allocated to tasks).
        n_spare = int(round(config.spare_fraction * len(self.pairs)))
        all_ids = np.arange(len(self.pairs)) + self.pair_base
        self.spare_pair_ids: list[int] = list(map(int, all_ids[len(all_ids) - n_spare:]))
        self._allocatable = [int(i) for i in all_ids[: len(all_ids) - n_spare]]
        # Round-robin allocation order interleaving tiles so consecutive
        # blocks land on different tiles (spreads traffic and wear).
        by_tile: dict[int, list[int]] = {}
        for pid in self._allocatable:
            by_tile.setdefault(self.pair(pid).tile_id, []).append(pid)
        order: list[int] = []
        queues = [list(v) for _, v in sorted(by_tile.items())]
        while any(queues):
            for q in queues:
                if q:
                    order.append(q.pop(0))
        self._alloc_order = order
        self._alloc_cursor = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        cfg = self.config
        #: the chip's whole fault state: one ``(crossbars, rows, cols)``
        #: code array in crossbar order.  Each crossbar's FaultMap wraps its
        #: slice, so injections land here and the epoch-end consumers
        #: (BIST scan, health, true densities) read every crossbar at once.
        self.fault_codes = np.zeros(
            (cfg.num_crossbars, cfg.crossbar.rows, cfg.crossbar.cols),
            dtype=np.uint8,
        )
        xbar_id = self.crossbar_base
        ima_id = 0
        pair_id = self.pair_base
        for local_tile in range(cfg.num_tiles):
            tile_id = self.tile_base + local_tile
            router_id = self.router_base + local_tile // cfg.tiles_per_router
            imas: list[IMA] = []
            for _ in range(cfg.imas_per_tile):
                xbars = [
                    Crossbar(
                        xbar_id + k,
                        cfg.crossbar,
                        codes=self.fault_codes[xbar_id + k - self.crossbar_base],
                    )
                    for k in range(cfg.crossbars_per_ima)
                ]
                xbar_id += len(xbars)
                imas.append(IMA(ima_id, xbars))
                ima_id += 1
                self.crossbars.extend(xbars)
                # Consecutive crossbars in an IMA pair up as (G+, G-).
                for k in range(0, len(xbars), 2):
                    self.pairs.append(
                        CrossbarPair(pair_id, xbars[k], xbars[k + 1], tile_id)
                    )
                    pair_id += 1
            self.tiles.append(Tile(tile_id, imas, router_id))
        # Static pair layout for the array-at-a-time consumers (chips never
        # grow): global pair and tile ids, and each pair's (G+, G-)
        # positions in ``crossbars`` / ``fault_codes``.
        self.pair_ids = np.array([p.pair_id for p in self.pairs], dtype=np.int64)
        self.pair_tiles = np.array([p.tile_id for p in self.pairs], dtype=np.int64)
        self.pair_crossbars = (
            np.array([p.crossbar_ids() for p in self.pairs], dtype=np.int64)
            - self.crossbar_base
        )
        #: mesh (row, col) of every tile's router, in tile order.
        self.tile_coords = np.array(
            [self.router_coords(t.router_id) for t in self.tiles], dtype=np.int64
        )

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def num_crossbars(self) -> int:
        return len(self.crossbars)

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)

    @property
    def fault_maps(self) -> list[FaultMap]:
        return [xb.fault_map for xb in self.crossbars]

    def pair(self, pair_id: int) -> CrossbarPair:
        index = pair_id - self.pair_base
        if not 0 <= index < len(self.pairs):
            raise IndexError(
                f"pair {pair_id} is not on chip {self.chip_id} "
                f"(pairs {self.pair_base}..{self.pair_base + len(self.pairs) - 1})"
            )
        return self.pairs[index]

    def owns_pair(self, pair_id: int) -> bool:
        """True if ``pair_id`` (global id) belongs to this chip."""
        return self.pair_base <= pair_id < self.pair_base + len(self.pairs)

    def tile_of_pair(self, pair_id: int) -> int:
        return self.pair(pair_id).tile_id

    def router_of_tile(self, tile_id: int) -> int:
        return self.tiles[tile_id - self.tile_base].router_id

    def router_coords(self, router_id: int) -> tuple[int, int]:
        """(row, col) of a router in this chip's mesh grid."""
        return divmod(router_id - self.router_base, self.config.mesh_cols)

    def hop_count(self, tile_a: int, tile_b: int) -> int:
        """NoC hop count between two tiles (XY routing on the c-mesh).

        Tiles on the same router are zero hops apart; otherwise the hop
        count is the Manhattan distance between their routers.
        """
        ra = self.router_of_tile(tile_a)
        rb = self.router_of_tile(tile_b)
        (ya, xa), (yb, xb) = self.router_coords(ra), self.router_coords(rb)
        return abs(ya - yb) + abs(xa - xb)

    def bump_fault_version(self) -> None:
        """Invalidate all cached fault overlays (new faults or remap)."""
        self.fault_version += 1

    # ------------------------------------------------------------------ #
    # allocation
    # ------------------------------------------------------------------ #
    def allocate_pairs(self, count: int) -> list[int]:
        """Allocate ``count`` crossbar pairs, round-robin across tiles."""
        if count < 0:
            raise ValueError("count must be non-negative")
        remaining = len(self._alloc_order) - self._alloc_cursor
        if count > remaining:
            raise SpareExhaustedError(
                self.chip_id, count, remaining, len(self._alloc_order)
            )
        ids = self._alloc_order[self._alloc_cursor : self._alloc_cursor + count]
        self._alloc_cursor += count
        return ids

    def allocate_layer_copy(
        self, name: str, phase: str, matrix_shape: tuple[int, int]
    ) -> LayerCopyMapping:
        """Allocate pairs for one layer copy and register its mapping."""
        rows = self.config.crossbar.rows
        cols = self.config.crossbar.cols
        nbr, nbc = blocks_needed(matrix_shape[0], matrix_shape[1], rows, cols)
        try:
            ids = np.asarray(self.allocate_pairs(nbr * nbc), dtype=np.int64)
        except SpareExhaustedError as exc:
            raise SpareExhaustedError(
                exc.chip_id, exc.requested, exc.remaining, exc.total, layer=name
            ) from None
        mapping = LayerCopyMapping(
            name, phase, matrix_shape, ids.reshape(nbr, nbc), rows, cols
        )
        self.mappings.append(mapping)
        return mapping

    def pairs_remaining(self) -> int:
        return len(self._alloc_order) - self._alloc_cursor

    def allocatable_pair_ids(self) -> list[int]:
        """All non-spare pair ids in allocation order (allocated or not)."""
        return list(self._alloc_order)

    def idle_pair_ids(self, occupied: set[int] | None = None) -> list[int]:
        """Allocatable pairs not currently hosting any task.

        These are ordinary chip crossbars (not reserved spares): pairs the
        allocator handed out but whose task has since moved away, plus
        never-allocated headroom.  Remap-D may move tasks onto them — the
        paper's "already available crossbars, which may or may not be
        fault-free".

        ``occupied`` overrides the used-pair set; a fleet passes the
        *global* occupancy here because evicted tasks hosted on this chip
        are registered in a foreign chip's mapping list.
        """
        if occupied is None:
            occupied = set()
            for mapping in self.mappings:
                occupied.update(int(p) for p in mapping.pair_ids.ravel())
        return [pid for pid in self._alloc_order if pid not in occupied]

    def find_eviction_pair(
        self, occupied: set[int], density: np.ndarray | None = None
    ) -> int:
        """Cleanest free pair to receive an evicted task (read-only probe).

        Raises :class:`SpareExhaustedError` when every allocatable pair is
        occupied — the signal a fleet planner uses to move on to the next
        candidate chip.  With ``density`` (BIST estimates indexed by global
        pair id) the least-faulty free pair wins, ties broken by id.
        """
        free = [pid for pid in self._alloc_order if pid not in occupied]
        if not free:
            raise SpareExhaustedError(
                self.chip_id, 1, 0, len(self._alloc_order)
            )
        if density is None:
            return free[0]
        return min(free, key=lambda pid: (float(density[pid]), pid))

    def move_task(
        self,
        mapping: LayerCopyMapping,
        block: tuple[int, int],
        target_pair: int,
    ) -> None:
        """Move one task to an idle pair (the old pair becomes idle).

        Costs one programming write on the target pair's crossbars (the
        weights are copied over; the vacated pair is not rewritten).
        """
        source_pair = int(mapping.pair_ids[block])
        mapping.set_pair(block[0], block[1], target_pair)
        touched = np.asarray(
            list(self.pair(target_pair).crossbar_ids()), dtype=np.int64
        )
        self.wear.record(touched - self.crossbar_base, 1)
        self.bump_fault_version()
        self.task_moves += 1
        self.telemetry.event(
            "task_moved",
            task=mapping.name,
            phase=mapping.phase,
            block=[int(block[0]), int(block[1])],
            source_pair=source_pair,
            target_pair=int(target_pair),
            hops=self.hop_count(
                self.tile_of_pair(source_pair), self.tile_of_pair(target_pair)
            ),
        )
        self.telemetry.count("chip.task_moves")

    def swap_tasks(
        self,
        mapping_a: LayerCopyMapping,
        block_a: tuple[int, int],
        mapping_b: LayerCopyMapping,
        block_b: tuple[int, int],
    ) -> None:
        """Exchange the physical pairs backing two tasks (one remap).

        The weight exchange costs one programming write on each of the
        four crossbars involved (both pairs are rewritten).
        """
        pa = int(mapping_a.pair_ids[block_a])
        pb = int(mapping_b.pair_ids[block_b])
        mapping_a.set_pair(block_a[0], block_a[1], pb)
        mapping_b.set_pair(block_b[0], block_b[1], pa)
        touched = np.asarray(
            list(self.pair(pa).crossbar_ids()) + list(self.pair(pb).crossbar_ids()),
            dtype=np.int64,
        )
        self.wear.record(touched - self.crossbar_base, 1)
        self.bump_fault_version()
        self.task_swaps += 1
        self.telemetry.event(
            "task_swapped",
            task_a=mapping_a.name,
            task_b=mapping_b.name,
            pair_a=pa,
            pair_b=pb,
            hops=self.hop_count(self.tile_of_pair(pa), self.tile_of_pair(pb)),
        )
        self.telemetry.count("chip.task_swaps")

    # ------------------------------------------------------------------ #
    # densities
    # ------------------------------------------------------------------ #
    def crossbar_fault_counts(self, fault_type: FaultType | None = None) -> np.ndarray:
        """Stuck cells per crossbar (optionally of one type), in crossbar order."""
        codes = self.fault_codes.reshape(self.num_crossbars, -1)
        if fault_type is not None:
            codes = codes == fault_type
        return np.count_nonzero(codes, axis=1)

    def true_pair_densities(self) -> np.ndarray:
        """Ground-truth fault density per pair (testing/analysis only)."""
        d = self.true_crossbar_densities()[self.pair_crossbars]
        return 0.5 * (d[:, 0] + d[:, 1])

    def true_crossbar_densities(self) -> np.ndarray:
        return self.crossbar_fault_counts() / self.config.crossbar.cells

    def __repr__(self) -> str:
        return (
            f"Chip(id={self.chip_id}, tiles={len(self.tiles)}, "
            f"crossbars={self.num_crossbars}, "
            f"pairs={self.num_pairs}, spares={len(self.spare_pair_ids)})"
        )
