"""Crossbar arrays and differential crossbar pairs.

:class:`Crossbar` is one physical ``rows x cols`` ReRAM array.  It stores a
*programmed* fractional conductance matrix (what the write circuitry tried
to store) and exposes the *effective* matrix after stuck-at clamping (what
the analog MVM actually sees).  :class:`CrossbarPair` bundles a G+ and a G-
array into one signed logical weight block.
"""

from __future__ import annotations

import numpy as np

from repro.faults.types import FaultMap
from repro.reram.cell import fraction_to_conductance
from repro.utils.config import CrossbarConfig

__all__ = ["Crossbar", "CrossbarPair"]


class Crossbar:
    """One physical ReRAM crossbar array.

    Parameters
    ----------
    xbar_id:
        Global physical id on the chip.
    config:
        Electrical/geometric parameters.
    codes:
        This crossbar's ``(rows, cols)`` slice of the owning chip's fault
        array; a standalone crossbar allocates its own.
    """

    def __init__(
        self, xbar_id: int, config: CrossbarConfig, codes: np.ndarray | None = None
    ):
        self.xbar_id = int(xbar_id)
        self.config = config
        self.fault_map = FaultMap(config.rows, config.cols, codes=codes)
        #: fractional conductances in [0, 1] the programmer attempted to
        #: store; None until the first :meth:`program` (the array reads
        #: all zero until then).  Training never programs a crossbar, so
        #: a chip's thousands of crossbars allocate none.
        self.programmed: np.ndarray | None = None
        #: number of full-array write (programming) operations performed.
        self.write_count = 0

    # ------------------------------------------------------------------ #
    # programming & readout
    # ------------------------------------------------------------------ #
    def program(self, fractions: np.ndarray) -> None:
        """Attempt to write fractional conductances into the array.

        Healthy cells take the new value; stuck cells ignore the write.
        Counts as one array write for endurance purposes.
        """
        fractions = np.asarray(fractions, dtype=np.float64)
        shape = (self.config.rows, self.config.cols)
        if fractions.shape != shape:
            raise ValueError(
                f"program shape {fractions.shape} does not match "
                f"crossbar {shape}"
            )
        if np.any(fractions < -1e-9) or np.any(fractions > 1 + 1e-9):
            raise ValueError("programmed fractions must lie in [0, 1]")
        self.programmed = np.clip(fractions, 0.0, 1.0)
        self.write_count += 1

    def effective_fractions(self) -> np.ndarray:
        """Programmed fractions after stuck-at clamping.

        SA1 cells read as fully-on (fraction 1, in truth slightly above:
        the analog BIST model in `repro.bist.analog` uses the true stuck
        resistances; for weight arithmetic the logical clamp suffices),
        SA0 cells read as fully-off (fraction 0).
        """
        if self.programmed is None:
            eff = np.zeros((self.config.rows, self.config.cols))
        else:
            eff = self.programmed.copy()
        eff[self.fault_map.sa1_mask] = 1.0
        eff[self.fault_map.sa0_mask] = 0.0
        return eff

    def conductances(self) -> np.ndarray:
        """Effective absolute conductance matrix (Siemens)."""
        return fraction_to_conductance(self.effective_fractions(), self.config)

    # ------------------------------------------------------------------ #
    # analog MVM
    # ------------------------------------------------------------------ #
    def mvm(self, voltages: np.ndarray) -> np.ndarray:
        """Analog matrix-vector product: per-column output currents.

        ``voltages`` has one entry per row; the output is the vector of
        column currents ``I_j = sum_i V_i * G_ij`` — the physical quantity
        the ADCs digitise.
        """
        voltages = np.asarray(voltages, dtype=np.float64)
        if voltages.shape != (self.config.rows,):
            raise ValueError(
                f"expected {self.config.rows} row voltages, got {voltages.shape}"
            )
        return voltages @ self.conductances()

    # ------------------------------------------------------------------ #
    # fault bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def density(self) -> float:
        """Ground-truth fault density (BIST provides only an estimate)."""
        return self.fault_map.density

    def __repr__(self) -> str:
        return (
            f"Crossbar(id={self.xbar_id}, density={self.density:.4f}, "
            f"writes={self.write_count})"
        )


class CrossbarPair:
    """A differential (G+, G-) crossbar pair storing one signed weight block.

    A weight ``w`` in ``[-scale, scale]`` is stored as
    ``w = (frac_pos - frac_neg) * scale`` with
    ``frac_pos = max(w, 0)/scale`` and ``frac_neg = max(-w, 0)/scale``.
    A stuck device on either array therefore pins part of the weight: an
    SA1 on the positive array pushes the weight toward ``+scale``, an SA1
    on the negative array toward ``-scale``, while SA0 devices erase the
    corresponding contribution.
    """

    def __init__(self, pair_id: int, pos: Crossbar, neg: Crossbar, tile_id: int):
        if pos.config is not neg.config and (
            pos.config.rows != neg.config.rows or pos.config.cols != neg.config.cols
        ):
            raise ValueError("pair crossbars must share geometry")
        self.pair_id = int(pair_id)
        self.pos = pos
        self.neg = neg
        self.tile_id = int(tile_id)
        #: scale used at the last programming (max |w| of the block).
        self.scale = 1.0

    @property
    def rows(self) -> int:
        return self.pos.config.rows

    @property
    def cols(self) -> int:
        return self.pos.config.cols

    def program_weights(self, weights: np.ndarray) -> None:
        """Write a signed weight block into the differential pair."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.rows, self.cols):
            raise ValueError(
                f"weight block shape {weights.shape} != ({self.rows}, {self.cols})"
            )
        scale = float(np.max(np.abs(weights)))
        self.scale = scale if scale > 0 else 1.0
        self.pos.program(np.clip(weights, 0.0, None) / self.scale)
        self.neg.program(np.clip(-weights, 0.0, None) / self.scale)

    def effective_weights(self) -> np.ndarray:
        """Signed weight block after stuck-at clamping on both arrays."""
        return (
            self.pos.effective_fractions() - self.neg.effective_fractions()
        ) * self.scale

    @property
    def density(self) -> float:
        """Ground-truth fault density of the pair (mean of both arrays)."""
        return 0.5 * (self.pos.density + self.neg.density)

    @property
    def write_count(self) -> int:
        return self.pos.write_count + self.neg.write_count

    def crossbar_ids(self) -> tuple[int, int]:
        return (self.pos.xbar_id, self.neg.xbar_id)

    def __repr__(self) -> str:
        return (
            f"CrossbarPair(id={self.pair_id}, tile={self.tile_id}, "
            f"density={self.density:.4f})"
        )
