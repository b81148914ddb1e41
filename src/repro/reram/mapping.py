"""Mapping CNN layer weight matrices onto crossbar pairs.

A layer's MVM matrix is tiled into ``rows x cols`` blocks; each block is a
*task* in the paper's sense (the computation of one CNN layer slice on one
crossbar) and is assigned to one differential :class:`CrossbarPair`.
Training accelerators in the PipeLayer style keep **two physical copies**
of each weight matrix:

* the *forward* copy stores ``W^T`` (shape ``in x out``) and computes
  ``y = x W^T`` during inference/forward;
* the *backward* copy stores ``W`` (shape ``out x in``) and computes the
  error back-propagation ``dx = dy W`` during the backward phase.

Because the copies are physically distinct crossbars, faults can strike
the forward and backward phases independently — the property underlying
Fig. 5 of the paper.  :class:`LayerCopyMapping` manages one such copy: the
block grid, the pair assignment (mutable — this is what dynamic remapping
permutes), and the fast computation of stuck-at-clamped effective weights.

Effective-weight hot path
-------------------------
``effective_matrix`` runs three times per MVM layer per batch (forward
weight, backward weight, gradient clamp), so it is the hottest code in
fault-aware training.  Typically well under 2% of devices are stuck, so
instead of materialising four dense boolean masks and full-size fraction
temporaries, the mapping caches

* a flat index array of the (few) stuck positions inside the visible
  matrix, with per-index SA0/SA1 flags for both arrays of the pair
  (invalidated by the chip's ``fault_version``), and
* the per-block calibration scales expanded to a per-weight overlay
  (invalidated whenever a block is recalibrated).

The healthy-cell computation then collapses to a single fused
``clip(w, -scale, +scale)`` into a preallocated output buffer, followed
by pinned-value fixups at the stuck indices only.  In float64 it agrees
bit for bit with the straightforward dense formulation it replaced, which
``tests/mapping_oracle.py`` keeps as the oracle of
``tests/test_mapping_fastpath.py``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.faults.types import FaultType

__all__ = ["blocks_needed", "pad_to_blocks", "LayerCopyMapping"]

FORWARD = "forward"
BACKWARD = "backward"


def blocks_needed(matrix_rows: int, matrix_cols: int, rows: int, cols: int) -> tuple[int, int]:
    """Block-grid shape needed to tile a ``matrix_rows x matrix_cols`` matrix."""
    if matrix_rows <= 0 or matrix_cols <= 0:
        raise ValueError("matrix dimensions must be positive")
    return (math.ceil(matrix_rows / rows), math.ceil(matrix_cols / cols))


def pad_to_blocks(matrix: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Zero-pad a matrix up to whole crossbar blocks."""
    matrix = np.asarray(matrix)
    nbr, nbc = blocks_needed(matrix.shape[0], matrix.shape[1], rows, cols)
    padded = np.zeros((nbr * rows, nbc * cols), dtype=matrix.dtype)
    padded[: matrix.shape[0], : matrix.shape[1]] = matrix
    return padded


class _FaultIndex:
    """Flat stuck-cell index cache for one mapping (one fault_version).

    ``idx`` holds C-order flat indices into the *unpadded* stored matrix;
    the four boolean arrays run parallel to ``idx`` and mark which side of
    the differential pair is stuck and how; ``block`` holds the flat block
    index (``br * nbc + bc``) used to gather per-block scales.  Stuck
    devices in the zero-padded fringe are dropped — they never reach the
    visible matrix.
    """

    __slots__ = ("empty", "idx", "sa1_pos", "sa0_pos", "sa1_neg", "sa0_neg", "block")

    def __init__(self, idx, sa1_pos, sa0_pos, sa1_neg, sa0_neg, block):
        self.idx = idx
        self.sa1_pos = sa1_pos
        self.sa0_pos = sa0_pos
        self.sa1_neg = sa1_neg
        self.sa0_neg = sa0_neg
        self.block = block
        self.empty = idx.size == 0


class LayerCopyMapping:
    """One physical copy (forward or backward) of one layer's weight matrix.

    Parameters
    ----------
    name:
        Layer name (e.g. ``"features.3"``).
    phase:
        ``"forward"`` or ``"backward"`` — determines the matrix orientation
        and the fault-tolerance rank used by the remapping policy.
    matrix_shape:
        Shape of the matrix *as stored on the crossbars* (already oriented
        for the phase: ``(in, out)`` forward, ``(out, in)`` backward).
    pair_ids:
        ``(nbr, nbc)`` integer grid of assigned crossbar-pair ids.
    """

    def __init__(
        self,
        name: str,
        phase: str,
        matrix_shape: tuple[int, int],
        pair_ids: np.ndarray,
        block_rows: int,
        block_cols: int,
    ):
        if phase not in (FORWARD, BACKWARD):
            raise ValueError(f"phase must be 'forward' or 'backward', got {phase!r}")
        self.name = name
        self.phase = phase
        self.matrix_shape = (int(matrix_shape[0]), int(matrix_shape[1]))
        self.block_rows = int(block_rows)
        self.block_cols = int(block_cols)
        expected = blocks_needed(*self.matrix_shape, block_rows, block_cols)
        pair_ids = np.asarray(pair_ids, dtype=np.int64)
        if pair_ids.shape != expected:
            raise ValueError(
                f"pair_ids grid {pair_ids.shape} does not match required {expected}"
            )
        self.pair_ids = pair_ids
        # Stuck-cell index cache, invalidated via the owning chip's
        # fault_version (and locally by set_pair).
        self._fault_version = -1
        self._faults: _FaultIndex | None = None
        #: per-block programming scale (conductance dynamic range), frozen
        #: at calibration time; NaN marks blocks awaiting (re)calibration.
        #: The DAC/programming reference of a crossbar is set when the
        #: block is written wholesale (deployment or a remap exchange) and
        #: is NOT retuned by in-situ incremental updates — so a stuck
        #: device pins its weight at up to +-scale even as the healthy
        #: weights shrink, which is what makes SAFs so damaging.
        self.scales = np.full(self.pair_ids.shape, np.nan)
        #: calibration scales of the gradient read-out path (the backward
        #: phase also computes the weight gradient on these crossbars;
        #: its ADC range is calibrated separately from the weight range).
        self.grad_scales = np.full(self.pair_ids.shape, np.nan)
        #: headroom factor applied at calibration (weights grow during
        #: training; the range must accommodate them without saturating).
        self.scale_headroom = 2.0
        #: gradient-path calibration factor.  The gradient ADC range is
        #: sized for *typical* training gradients, well below the initial
        #: peak (gradients shrink as training converges) — a stuck device
        #: therefore pins its gradient entry at a moderate, persistent
        #: wrong value whose effect accumulates update after update: the
        #: paper's "incorrect gradients get accumulated after each weight
        #: update" mechanism.
        self.grad_scale_headroom = 2.0
        # Scale-derived caches: the expanded per-weight overlays and the
        # preallocated effective-matrix output buffers.  The epoch counter
        # bumps whenever a scale set changes (recalibration or remap), so
        # stale overlays are rebuilt lazily.
        self._scale_epoch = {"weight": 0, "grad": 0}
        self._overlay_cache: dict[tuple, tuple[int, np.ndarray, np.ndarray]] = {}
        self._eff_buffers: dict[tuple, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.pair_ids.shape

    @property
    def num_blocks(self) -> int:
        return int(self.pair_ids.size)

    @property
    def padded_shape(self) -> tuple[int, int]:
        nbr, nbc = self.grid_shape
        return (nbr * self.block_rows, nbc * self.block_cols)

    def block_slices(self, block_row: int, block_col: int) -> tuple[slice, slice]:
        """Padded-matrix slices covered by one block."""
        r0 = block_row * self.block_rows
        c0 = block_col * self.block_cols
        return (slice(r0, r0 + self.block_rows), slice(c0, c0 + self.block_cols))

    def iter_blocks(self):
        """Yield ``(block_row, block_col, pair_id)`` for every block."""
        nbr, nbc = self.grid_shape
        for br in range(nbr):
            for bc in range(nbc):
                yield br, bc, int(self.pair_ids[br, bc])

    # ------------------------------------------------------------------ #
    # remapping
    # ------------------------------------------------------------------ #
    def set_pair(self, block_row: int, block_col: int, pair_id: int) -> None:
        """Reassign one block to a different physical pair (remap).

        The exchange rewrites the block wholesale, so the programming
        scale is recalibrated on the next effective-weight computation.
        """
        self.pair_ids[block_row, block_col] = int(pair_id)
        self.scales[block_row, block_col] = np.nan  # recalibrate on write
        self.grad_scales[block_row, block_col] = np.nan
        self._fault_version = -1  # stuck-cell index is stale
        self._scale_epoch["weight"] += 1
        self._scale_epoch["grad"] += 1

    def adopt_grad_scales(self, scales: np.ndarray) -> None:
        """Overwrite the gradient-path calibration wholesale.

        Used by data-parallel training to replicate the canonical rank's
        lazily-calibrated gradient ADC ranges: the range is frozen at the
        first gradient a (re)written block sees, so replicas that did not
        execute that gradient themselves must adopt the calibrated values
        instead of calibrating from their own (different) shard.
        """
        flat = np.asarray(scales, dtype=np.float64)
        self.grad_scales = flat.reshape(self.grad_scales.shape).copy()
        self._scale_epoch["grad"] += 1

    # ------------------------------------------------------------------ #
    # stuck-cell overlays
    # ------------------------------------------------------------------ #
    def _fault_index(self, pair_lookup, fault_version: int) -> _FaultIndex:
        """Build (and cache) the flat stuck-cell index for this mapping."""
        if self._faults is not None and self._fault_version == fault_version:
            return self._faults
        m, n = self.matrix_shape
        nbr, nbc = self.grid_shape
        idx_parts: list[np.ndarray] = []
        s1p: list[np.ndarray] = []
        s0p: list[np.ndarray] = []
        s1n: list[np.ndarray] = []
        s0n: list[np.ndarray] = []
        blk: list[np.ndarray] = []
        for br, bc, pair_id in self.iter_blocks():
            pair = pair_lookup(pair_id)
            pos_codes = pair.pos.fault_map.codes
            neg_codes = pair.neg.fault_map.codes
            faulty = (pos_codes != FaultType.NONE) | (neg_codes != FaultType.NONE)
            if not faulty.any():
                continue
            r, c = np.nonzero(faulty)
            gr = r + br * self.block_rows
            gc = c + bc * self.block_cols
            keep = (gr < m) & (gc < n)
            if not keep.any():
                continue
            r, c, gr, gc = r[keep], c[keep], gr[keep], gc[keep]
            idx_parts.append(gr * n + gc)
            pc = pos_codes[r, c]
            nc = neg_codes[r, c]
            s1p.append(pc == FaultType.SA1)
            s0p.append(pc == FaultType.SA0)
            s1n.append(nc == FaultType.SA1)
            s0n.append(nc == FaultType.SA0)
            blk.append(np.full(r.size, br * nbc + bc, dtype=np.int64))
        if idx_parts:
            faults = _FaultIndex(
                np.concatenate(idx_parts),
                np.concatenate(s1p),
                np.concatenate(s0p),
                np.concatenate(s1n),
                np.concatenate(s0n),
                np.concatenate(blk),
            )
        else:
            empty_i = np.empty(0, dtype=np.int64)
            empty_b = np.empty(0, dtype=bool)
            faults = _FaultIndex(empty_i, empty_b, empty_b, empty_b, empty_b, empty_i)
        self._faults = faults
        self._fault_version = fault_version
        return faults

    # ------------------------------------------------------------------ #
    # effective (stuck-at-clamped) weights
    # ------------------------------------------------------------------ #
    def effective_matrix(
        self, matrix: np.ndarray, pair_lookup, fault_version: int,
        which: str = "weight",
    ) -> np.ndarray:
        """Stuck-at-clamped version of ``matrix`` under the current mapping.

        Implements the differential-pair clamp of
        :class:`repro.reram.crossbar.CrossbarPair` vectorised over all
        blocks.  ``which`` selects the calibration-scale set: ``"weight"``
        for the stored-weight path, ``"grad"`` for the backward phase's
        gradient computation (same crossbars and faults, separate ADC
        range).  Scales are frozen at calibration (first write / remap)
        — a stuck device therefore pins its value at up to +-scale
        regardless of how the healthy values evolve.

        The computation runs in ``matrix``'s floating dtype (float32
        training stays in float32; float64 inputs keep full precision and
        match the dense oracle in ``tests/mapping_oracle.py`` bit for bit).

        .. warning::
           When faults are present, the returned array is a preallocated
           per-``which`` buffer owned by this mapping: it is valid until
           the next ``effective_matrix`` call with the same ``which`` and
           dtype, and must not be mutated by the caller.
        """
        matrix = np.asarray(matrix)
        if matrix.dtype not in (np.float32, np.float64):
            matrix = matrix.astype(np.float64)
        if matrix.shape != self.matrix_shape:
            raise ValueError(
                f"matrix shape {matrix.shape} != mapping shape {self.matrix_shape}"
            )
        faults = self._fault_index(pair_lookup, fault_version)
        scales = self._refresh_scales(matrix, which)
        if faults.empty:
            return matrix
        matrix = np.ascontiguousarray(matrix)
        dtype = matrix.dtype
        neg_overlay, pos_overlay = self._scale_overlay(which, dtype)
        out = self._eff_buffer(which, dtype)
        # Fused fast path: healthy devices saturate at the calibrated
        # range, which for the differential encoding is exactly a clip.
        np.clip(matrix, neg_overlay, pos_overlay, out=out)
        # Sparse pinned-value fixups at the stuck positions only, using
        # the same fraction arithmetic as the dense reference.
        sv = scales.ravel()[faults.block].astype(dtype, copy=False)
        wv = matrix.ravel()[faults.idx]
        frac_pos = np.clip(np.clip(wv, 0.0, None) / sv, 0.0, 1.0)
        frac_neg = np.clip(np.clip(-wv, 0.0, None) / sv, 0.0, 1.0)
        frac_pos[faults.sa1_pos] = 1.0
        frac_pos[faults.sa0_pos] = 0.0
        frac_neg[faults.sa1_neg] = 1.0
        frac_neg[faults.sa0_neg] = 0.0
        out.ravel()[faults.idx] = (frac_pos - frac_neg) * sv
        return out

    # ------------------------------------------------------------------ #
    # calibration scales and derived overlays
    # ------------------------------------------------------------------ #
    def _refresh_scales(self, matrix: np.ndarray, which: str = "weight") -> np.ndarray:
        """Return the calibration scales for the weight or gradient path.

        Both paths use frozen per-block calibration: programming ranges
        and gradient ADC ranges are set when a block is (re)written
        wholesale; stale entries are marked NaN and recalibrated from the
        next matrix seen.
        """
        scales = self.scales if which == "weight" else self.grad_scales
        stale = np.isnan(scales)
        if stale.any():
            rows, cols = self.block_rows, self.block_cols
            nbr, nbc = self.grid_shape
            padded = pad_to_blocks(np.asarray(matrix, dtype=np.float64), rows, cols)
            # Robust calibration: the programming / ADC range targets the
            # bulk of the block's distribution (99th percentile), so a few
            # fault-drifted outlier values cannot inflate the range when a
            # block is recalibrated after a remap — they saturate instead,
            # exactly as the physical devices would.
            blocks = np.abs(padded.reshape(nbr, rows, nbc, cols))
            block_ref = np.quantile(blocks, 0.99, axis=(1, 3))
            headroom = (
                self.scale_headroom if which == "weight" else self.grad_scale_headroom
            )
            fresh = headroom * np.where(block_ref > 0, block_ref, 1.0)
            scales = np.where(stale, fresh, scales)
            if which == "weight":
                self.scales = scales
            else:
                self.grad_scales = scales
            self._scale_epoch[which] += 1
        return scales

    def _scale_overlay(self, which: str, dtype) -> tuple[np.ndarray, np.ndarray]:
        """Cached (-overlay, +overlay) per-weight scale expansion.

        The overlay is the per-block calibration scale repeated out to the
        stored-matrix shape, cropped to the visible region, in the compute
        dtype.  Rebuilt only when the scale set changes.
        """
        key = (which, np.dtype(dtype).str)
        epoch = self._scale_epoch[which]
        cached = self._overlay_cache.get(key)
        if cached is not None and cached[0] == epoch:
            return cached[1], cached[2]
        scales = self.scales if which == "weight" else self.grad_scales
        m, n = self.matrix_shape
        overlay = np.repeat(
            np.repeat(scales, self.block_rows, axis=0), self.block_cols, axis=1
        )[:m, :n]
        pos = np.ascontiguousarray(overlay, dtype=dtype)
        neg = -pos
        self._overlay_cache[key] = (epoch, neg, pos)
        return neg, pos

    def _eff_buffer(self, which: str, dtype) -> np.ndarray:
        key = (which, np.dtype(dtype).str)
        buf = self._eff_buffers.get(key)
        if buf is None:
            buf = np.empty(self.matrix_shape, dtype=dtype)
            self._eff_buffers[key] = buf
        return buf

    def crossbar_ids(self, pair_lookup) -> list[int]:
        """All physical crossbar ids backing this copy (for wear tracking)."""
        ids: list[int] = []
        for _, _, pair_id in self.iter_blocks():
            ids.extend(pair_lookup(pair_id).crossbar_ids())
        return ids

    def __repr__(self) -> str:
        return (
            f"LayerCopyMapping({self.name!r}, {self.phase}, "
            f"matrix={self.matrix_shape}, blocks={self.grid_shape})"
        )
