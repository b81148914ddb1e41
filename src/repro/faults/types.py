"""Fault types and per-crossbar fault maps.

A :class:`FaultMap` records, for every ReRAM device of one crossbar array,
whether it is healthy or permanently stuck (SA0 or SA1).  The map is the
single source of truth consumed by the MVM engine (conductance clamping),
the BIST analog model (column currents) and the remapping policies (fault
densities).
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = ["FaultType", "FaultMap"]


class FaultType(enum.IntEnum):
    """Permanent stuck-at failure modes of a ReRAM cell.

    ``SA0`` — stuck at logic 0: the cell is stuck at a very high resistance
    (0.8-3 MOhm, effectively open); writes cannot raise its conductance.
    ``SA1`` — stuck at logic 1: the cell is stuck at a very low resistance
    (1.5-3 kOhm); writes cannot lower its conductance.
    """

    NONE = 0
    SA0 = 1
    SA1 = 2


class FaultMap:
    """Dense per-cell fault record for one ``rows x cols`` crossbar.

    The underlying storage is a ``uint8`` code array using the
    :class:`FaultType` values.  Once a cell is stuck it stays stuck:
    injecting a new fault on an already-faulty cell is a no-op (the first
    permanent failure wins), which mirrors physical behaviour and keeps
    densities monotone over time.

    ``codes`` wraps an existing ``(rows, cols)`` ``uint8`` array instead of
    allocating one: a :class:`~repro.reram.chip.Chip` hands each crossbar
    its slice of one chip-wide fault array, so every write through the
    map lands in that array.  Mutators write in place and never rebind
    ``codes``.
    """

    def __init__(self, rows: int, cols: int, codes: np.ndarray | None = None):
        if rows <= 0 or cols <= 0:
            raise ValueError("FaultMap dimensions must be positive")
        self.rows = int(rows)
        self.cols = int(cols)
        if codes is None:
            codes = np.zeros((self.rows, self.cols), dtype=np.uint8)
        elif (
            codes.shape != (self.rows, self.cols)
            or codes.dtype != np.uint8
            or not codes.flags.c_contiguous
        ):
            raise ValueError(
                f"codes must be a C-contiguous ({self.rows}, {self.cols}) "
                f"uint8 array, got {codes.shape} {codes.dtype}"
            )
        self.codes = codes

    # ------------------------------------------------------------------ #
    # injection
    # ------------------------------------------------------------------ #
    def inject(self, flat_indices: np.ndarray, fault_type: FaultType) -> int:
        """Mark the given flat cell indices as stuck with ``fault_type``.

        Returns the number of distinct cells that actually became newly
        faulty (already-stuck cells and repeated indices are skipped).
        """
        if fault_type == FaultType.NONE:
            raise ValueError("cannot inject FaultType.NONE")
        flat_indices = np.asarray(flat_indices, dtype=np.int64).ravel()
        if flat_indices.size == 0:
            return 0
        if flat_indices.min() < 0 or flat_indices.max() >= self.codes.size:
            raise IndexError("fault cell index out of range")
        flat = self.codes.ravel()
        before = np.count_nonzero(flat)
        fresh = flat_indices[flat[flat_indices] == FaultType.NONE]
        flat[fresh] = np.uint8(fault_type)
        # Only healthy cells were written, so the growth of the stuck
        # count is the number of distinct newly stuck cells.
        return int(np.count_nonzero(flat) - before)

    def inject_cells(
        self, rows: np.ndarray, cols: np.ndarray, fault_type: FaultType
    ) -> int:
        """Like :meth:`inject` but with (row, col) coordinate arrays."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape:
            raise ValueError("row/col coordinate arrays must match in shape")
        return self.inject(rows * self.cols + cols, fault_type)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def cells(self) -> int:
        return self.rows * self.cols

    @property
    def sa0_mask(self) -> np.ndarray:
        """Boolean mask of SA0 (stuck-open) cells."""
        return self.codes == FaultType.SA0

    @property
    def sa1_mask(self) -> np.ndarray:
        """Boolean mask of SA1 (stuck-on) cells."""
        return self.codes == FaultType.SA1

    @property
    def faulty_mask(self) -> np.ndarray:
        """Boolean mask of all stuck cells."""
        return self.codes != FaultType.NONE

    def count(self, fault_type: FaultType | None = None) -> int:
        """Number of faulty cells, optionally of one type."""
        if fault_type is None:
            return int(np.count_nonzero(self.codes))
        return int(np.count_nonzero(self.codes == fault_type))

    @property
    def density(self) -> float:
        """Fraction of stuck cells in the array (the paper's fault density)."""
        return self.count() / self.cells

    def column_counts(self, fault_type: FaultType) -> np.ndarray:
        """Per-column stuck-cell counts (what BIST observes as currents)."""
        return np.count_nonzero(self.codes == fault_type, axis=0)

    def free_cells(self) -> np.ndarray:
        """Flat indices of still-healthy cells."""
        return np.flatnonzero(self.codes.ravel() == FaultType.NONE)

    # ------------------------------------------------------------------ #
    # manipulation
    # ------------------------------------------------------------------ #
    def copy(self) -> "FaultMap":
        """A detached map: later writes to either map leave the other alone."""
        return FaultMap(self.rows, self.cols, codes=self.codes.copy())

    def clear(self) -> None:
        """Reset to a fault-free array (used by repaired/spare hardware)."""
        self.codes.fill(FaultType.NONE)

    def merge(self, other: "FaultMap") -> None:
        """Union the faults of ``other`` into this map (first fault wins)."""
        if (other.rows, other.cols) != (self.rows, self.cols):
            raise ValueError("cannot merge fault maps of different shapes")
        fresh = self.codes == FaultType.NONE
        self.codes[fresh] = other.codes[fresh]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultMap):
            return NotImplemented
        return bool(
            self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.codes, other.codes)
        )

    def __repr__(self) -> str:
        return (
            f"FaultMap({self.rows}x{self.cols}, "
            f"sa0={self.count(FaultType.SA0)}, sa1={self.count(FaultType.SA1)})"
        )
