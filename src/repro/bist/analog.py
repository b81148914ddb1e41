"""Analog column-current model for the BIST read-out (Fig. 4).

This replaces the paper's HSpice simulation.  A crossbar column driven with
read voltage ``V`` on every row sources a current equal to ``V`` times the
sum of the column's cell conductances (ideal virtual-ground sensing, as in
the sneak-path-free 1T1R arrays the target RCS uses).  Stuck cells replace
their programmed conductance with a random stuck resistance drawn from the
Grossi et al. ranges:

* SA1: 1.5-3 kOhm (conducts far *more* than a healthy on-cell),
* SA0: 0.8-3 MOhm (conducts essentially nothing).

During the SA1 test all healthy cells hold logic "0" (conductance
``g_off``), so each SA1 cell adds a large excess current; during the SA0
test all healthy cells hold logic "1" (``g_on``), so each SA0 cell removes
``~g_on`` of current.  The per-column current is therefore a monotone
function of the per-column fault count — Fig. 4 — and remains so under the
full stuck-resistance variation, which is what makes the density estimate
reliable.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.faults.types import FaultMap, FaultType
from repro.utils.config import CrossbarConfig

__all__ = [
    "BIST_TESTS",
    "nominal_sa1_conductance",
    "nominal_sa0_conductance",
    "column_currents",
    "column_currents_sa1_test",
    "column_currents_sa0_test",
]

#: the two tests of one BIST pass, in the order the FSM runs them, named by
#: the stuck-at type each exposes: S1-S3 (all cells at "0") then S4-S6
#: (all cells at "1").
BIST_TESTS = (FaultType.SA1, FaultType.SA0)


def nominal_sa1_conductance(config: CrossbarConfig) -> float:
    """Calibration conductance of an SA1 cell (geometric-mean resistance)."""
    return 1.0 / math.sqrt(config.r_sa1_min * config.r_sa1_max)


def nominal_sa0_conductance(config: CrossbarConfig) -> float:
    """Calibration conductance of an SA0 cell (geometric-mean resistance)."""
    return 1.0 / math.sqrt(config.r_sa0_min * config.r_sa0_max)


def column_currents(
    codes: np.ndarray,
    config: CrossbarConfig,
    rng: np.random.Generator,
    tests: Sequence[FaultType] = BIST_TESTS,
    noise_fraction: float = 0.01,
) -> np.ndarray:
    """Column currents (A) of every crossbar in ``codes`` under each test.

    ``codes`` is a ``(crossbars, rows, cols)`` fault-code array, such as a
    chip's ``fault_codes``.  ``tests`` lists the tests to run by the
    stuck-at type each exposes: during the ``SA1`` test healthy cells hold
    "0" (``g_off``), during the ``SA0`` test they hold "1" (``g_on``).
    Every stuck cell replaces the healthy conductance with ``1/R_stuck``,
    ``R_stuck`` drawn log-uniformly from its type's range (device-to-device
    variation).  ``noise_fraction`` adds sensing/ADC noise as a fraction of
    one healthy on-cell's current (sigma), modelling the CMOS read-out
    imperfections.  Returns a ``(len(tests), crossbars, cols)`` array.

    The generator is drawn exactly as testing one crossbar at a time:
    crossbars in order; for each crossbar, each test in order; for each
    test, the stuck resistances (SA1 cells, then SA0 cells, row-major),
    then ``normal(0, sigma, cols)``.  NumPy's normal sampler consumes a
    variable number of random words per sample, so only the arithmetic is
    batched across crossbars; change the batching, never the draw order.
    """
    n, rows, cols = codes.shape
    flat = codes.reshape(-1)
    # Stuck cells grouped by crossbar, SA1 before SA0, row-major within
    # each: the order one crossbar's draws and column sums visit them.
    stuck = np.flatnonzero(flat)
    xbar = stuck // (rows * cols)
    is_sa1 = flat[stuck] == FaultType.SA1
    order = np.argsort(2 * xbar + ~is_sa1, kind="stable")
    stuck, xbar, is_sa1 = stuck[order], xbar[order], is_sa1[order]
    per_xbar = np.bincount(xbar, minlength=n)
    bounds = np.concatenate(([0], np.cumsum(per_xbar))).tolist()

    u = np.empty((len(tests), stuck.size))
    if noise_fraction > 0:
        sigma = noise_fraction * config.read_voltage * config.g_on
        noise = np.empty((len(tests), n, cols))
    for x in range(n):
        lo, hi = bounds[x], bounds[x + 1]
        for t in range(len(tests)):
            if hi > lo:
                rng.random(out=u[t, lo:hi])
            if noise_fraction > 0:
                noise[t, x] = rng.normal(0.0, sigma, size=cols)

    # ``Generator.uniform(lo, hi)`` is ``lo + (hi - lo) * random()``.
    lo1, hi1 = np.log(config.r_sa1_min), np.log(config.r_sa1_max)
    lo0, hi0 = np.log(config.r_sa0_min), np.log(config.r_sa0_max)
    log_r = np.where(is_sa1, lo1, lo0) + np.where(is_sa1, hi1 - lo1, hi0 - lo0) * u
    stuck_g = 1.0 / np.exp(log_r)
    # bincount adds in array order from 0.0, as np.add.at would per crossbar.
    bins = xbar * cols + stuck % cols
    currents = np.empty((len(tests), n, cols))
    for t, test in enumerate(tests):
        healthy_g = config.g_off if test == FaultType.SA1 else config.g_on
        delta = np.bincount(bins, weights=stuck_g[t] - healthy_g, minlength=n * cols)
        baseline = config.rows * healthy_g
        currents[t] = config.read_voltage * (baseline + delta.reshape(n, cols))
        if noise_fraction > 0:
            currents[t] = currents[t] + noise[t]
    return currents


def column_currents_sa1_test(
    fault_map: FaultMap,
    config: CrossbarConfig,
    rng: np.random.Generator,
    noise_fraction: float = 0.01,
) -> np.ndarray:
    """Column currents (A) observed in BIST states S1-S3 (all cells at "0").

    Each SA1 cell adds a large excess current over the healthy ``g_off``.
    """
    return column_currents(
        fault_map.codes[None], config, rng, (FaultType.SA1,), noise_fraction
    )[0, 0]


def column_currents_sa0_test(
    fault_map: FaultMap,
    config: CrossbarConfig,
    rng: np.random.Generator,
    noise_fraction: float = 0.01,
) -> np.ndarray:
    """Column currents (A) observed in BIST states S4-S6 (all cells at "1").

    Healthy cells conduct ``g_on``; every SA0 cell is missing from the sum,
    every SA1 cell adds extra current (it conducts more than ``g_on``).
    """
    return column_currents(
        fault_map.codes[None], config, rng, (FaultType.SA0,), noise_fraction
    )[0, 0]
