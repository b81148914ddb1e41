"""Spatial fault distributions.

Manufacturing defects in ReRAM crossbars are *not* uniformly spread: Chen et
al. (the March-test defect study cited by the paper) observe that roughly
two-thirds of post-fabrication faulty cells cluster in a contiguous region,
caused by unstable power supply during the forming process.  This module
provides both the uniform and the clustered cell-placement primitives, plus
the chip-level non-uniform density assignment of Section IV.A (20% of
crossbars at 0.4-1% density, the rest at 0-0.4%).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "uniform_cells",
    "clustered_cells",
    "draw_pre_deployment_densities",
]


def _free_mask(rows: int, cols: int, forbidden: np.ndarray | None) -> np.ndarray:
    """A fresh ``(rows, cols)`` mask, True on every cell not in the flat
    indices ``forbidden``."""
    free = np.ones((rows, cols), dtype=bool)
    if forbidden is not None:
        free.reshape(-1)[np.asarray(forbidden, dtype=np.int64)] = False
    return free


def _pick_uniform(rng: np.random.Generator, free: np.ndarray, count: int) -> np.ndarray:
    """Up to ``count`` distinct flat indices drawn uniformly where the
    1-D boolean mask ``free`` is True.

    ``rng.choice(n, ...)`` indexing the ``n`` free cells draws the same
    cells, and leaves the generator in the same state, as ``choice`` over
    the array of those cells.
    """
    pool = free.nonzero()[0]
    return pool[rng.choice(pool.size, size=min(count, pool.size), replace=False)]


def _pick_clustered(
    rng: np.random.Generator,
    free: np.ndarray,
    count: int,
    cluster_fraction: float,
) -> np.ndarray:
    """:func:`clustered_cells` over ``free``, a C-contiguous ``(rows,
    cols)`` mask of the cells that may be picked; clears the cells it
    picks for the cluster in ``free``."""
    rows, cols = free.shape
    count = min(count, rows * cols)
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    n_cluster = min(int(round(count * cluster_fraction)), count)
    picked = np.empty(0, dtype=np.int64)
    if n_cluster > 0:
        # Window side: smallest square that can hold the clustered cells with
        # ~50% slack so the cluster is dense but not a solid block.
        side = max(1, math.ceil(math.sqrt(n_cluster * 1.5)))
        side = min(side, rows, cols)
        r0 = int(rng.integers(0, rows - side + 1))
        c0 = int(rng.integers(0, cols - side + 1))
        # The window's free cells in ascending flat order.
        rs, cs = slice(r0, r0 + side), slice(c0, c0 + side)
        window = np.arange(rows * cols).reshape(rows, cols)[rs, cs][free[rs, cs]]
        if window.size:
            take = min(n_cluster, window.size)
            picked = window[rng.choice(window.size, size=take, replace=False)]
    remainder = count - picked.size
    if remainder <= 0:
        return picked
    flat = free.reshape(-1)
    flat[picked] = False
    spread = _pick_uniform(rng, flat, remainder)
    return np.concatenate([picked, spread]) if picked.size else spread


def uniform_cells(
    rng: np.random.Generator,
    rows: int,
    cols: int,
    count: int,
    forbidden: np.ndarray | None = None,
) -> np.ndarray:
    """Pick ``count`` distinct flat cell indices uniformly at random.

    ``forbidden`` is an optional flat-index array of cells that must not be
    chosen (e.g. cells that are already stuck).  If fewer than ``count``
    candidates remain, all remaining candidates are returned.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return _pick_uniform(rng, _free_mask(rows, cols, forbidden).reshape(-1), count)


def clustered_cells(
    rng: np.random.Generator,
    rows: int,
    cols: int,
    count: int,
    cluster_fraction: float = 2.0 / 3.0,
    forbidden: np.ndarray | None = None,
) -> np.ndarray:
    """Pick ``count`` cells with a clustered spatial distribution.

    A fraction ``cluster_fraction`` of the cells lands inside a randomly
    positioned square window just large enough to host them; the remainder
    is spread uniformly over the rest of the array.  This reproduces the
    "two-thirds of faults are clustered" fabrication statistic.
    """
    if not (0.0 <= cluster_fraction <= 1.0):
        raise ValueError("cluster_fraction must lie in [0, 1]")
    return _pick_clustered(
        rng, _free_mask(rows, cols, forbidden), count, cluster_fraction
    )


def draw_pre_deployment_densities(
    rng: np.random.Generator,
    num_crossbars: int,
    high_fraction: float = 0.20,
    high_density: tuple[float, float] = (0.004, 0.010),
    low_density: tuple[float, float] = (0.000, 0.004),
) -> np.ndarray:
    """Assign a pre-deployment fault density to every crossbar on the chip.

    Returns an array of ``num_crossbars`` densities where a randomly chosen
    ``high_fraction`` of entries is drawn uniformly from ``high_density``
    and the rest from ``low_density`` — the non-uniform chip-level fault
    distribution of Section IV.A.
    """
    if num_crossbars <= 0:
        raise ValueError("num_crossbars must be positive")
    densities = rng.uniform(low_density[0], low_density[1], size=num_crossbars)
    n_high = int(round(num_crossbars * high_fraction))
    if n_high > 0:
        high_idx = rng.choice(num_crossbars, size=n_high, replace=False)
        densities[high_idx] = rng.uniform(
            high_density[0], high_density[1], size=n_high
        )
    return densities
