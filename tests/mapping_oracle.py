"""Dense oracle for ``LayerCopyMapping.effective_matrix``.

The straightforward dense formulation the sparse fused-clamp fast path
replaced: pad the matrix to whole blocks, build four dense stuck-cell
masks, compute the differential fractions everywhere and pin the stuck
positions.  In float64 it agrees with the fast path bit for bit
(``tests/test_mapping_fastpath.py``), and ``benchmarks/bench_hotpath.py``
times the fast path against it.  The module name does not start with
``test_``, so importing it collects no tests.
"""

from __future__ import annotations

import numpy as np

from repro.reram.mapping import LayerCopyMapping, pad_to_blocks

__all__ = ["assemble_masks", "reference_effective_matrix"]


def assemble_masks(mapping: LayerCopyMapping, pair_lookup) -> dict[str, np.ndarray]:
    """Dense padded-matrix stuck-cell overlays of one mapping.

    ``pair_lookup`` maps a pair id to a ``CrossbarPair``; the four
    returned boolean arrays (``sa1_pos``, ``sa0_pos``, ``sa1_neg``,
    ``sa0_neg``) have the padded matrix shape and mark which weight
    positions are pinned by a stuck device on the positive / negative
    array of the assigned pair.
    """
    shape = mapping.padded_shape
    masks = {
        key: np.zeros(shape, dtype=bool)
        for key in ("sa1_pos", "sa0_pos", "sa1_neg", "sa0_neg")
    }
    any_fault = False
    for br, bc, pair_id in mapping.iter_blocks():
        pair = pair_lookup(pair_id)
        pos_map = pair.pos.fault_map
        neg_map = pair.neg.fault_map
        rs, cs = mapping.block_slices(br, bc)
        if pos_map.count() > 0:
            masks["sa1_pos"][rs, cs] = pos_map.sa1_mask
            masks["sa0_pos"][rs, cs] = pos_map.sa0_mask
            any_fault = True
        if neg_map.count() > 0:
            masks["sa1_neg"][rs, cs] = neg_map.sa1_mask
            masks["sa0_neg"][rs, cs] = neg_map.sa0_mask
            any_fault = True
    masks["any"] = (
        masks["sa1_pos"] | masks["sa0_pos"] | masks["sa1_neg"] | masks["sa0_neg"]
    )
    masks["_empty"] = np.asarray(not any_fault)
    return masks


def reference_effective_matrix(
    mapping: LayerCopyMapping, matrix: np.ndarray, pair_lookup,
    which: str = "weight",
) -> np.ndarray:
    """Dense implementation of ``mapping.effective_matrix``.

    Calibrates stale block scales through the mapping, as the fast path
    does, so either may run first.
    """
    matrix = np.asarray(matrix)
    if matrix.dtype not in (np.float32, np.float64):
        matrix = matrix.astype(np.float64)
    if matrix.shape != mapping.matrix_shape:
        raise ValueError(
            f"matrix shape {matrix.shape} != mapping shape {mapping.matrix_shape}"
        )
    masks = assemble_masks(mapping, pair_lookup)
    scales = mapping._refresh_scales(matrix, which)
    if bool(masks["_empty"]):
        return matrix
    rows, cols = mapping.block_rows, mapping.block_cols
    padded = pad_to_blocks(matrix, rows, cols)
    s_exp = np.repeat(np.repeat(scales, rows, axis=0), cols, axis=1)
    s_exp = s_exp.astype(matrix.dtype, copy=False)

    # Healthy devices saturate at the calibrated range.
    eff = np.clip(padded, -s_exp, s_exp)

    # Stuck devices: recompute the differential fractions densely,
    # pin the faulty ones, and overwrite those positions.
    frac_pos = np.clip(np.clip(padded, 0.0, None) / s_exp, 0.0, 1.0)
    frac_neg = np.clip(np.clip(-padded, 0.0, None) / s_exp, 0.0, 1.0)
    frac_pos[masks["sa1_pos"]] = 1.0
    frac_pos[masks["sa0_pos"]] = 0.0
    frac_neg[masks["sa1_neg"]] = 1.0
    frac_neg[masks["sa0_neg"]] = 0.0
    pinned = masks["any"]
    eff[pinned] = ((frac_pos - frac_neg) * s_exp)[pinned]
    return eff[: matrix.shape[0], : matrix.shape[1]]
