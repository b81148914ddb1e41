"""Fault-density estimation from BIST column currents.

The CMOS peripherals convert the measured column currents into per-column
fault-count estimates using a one-point calibration (the nominal stuck-cell
conductances), then sum them into a per-crossbar density.  The estimate is
deliberately *approximate* — the remapping policy only needs densities,
and the estimator stays reliable under the full stuck-resistance variation
(Fig. 4), which the tests verify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bist.analog import (
    BIST_TESTS,
    column_currents,
    nominal_sa0_conductance,
    nominal_sa1_conductance,
)
from repro.faults.types import FaultMap
from repro.utils.config import CrossbarConfig

__all__ = ["BistResult", "run_bist", "scan_chip", "pair_density_estimates"]


@dataclass(frozen=True)
class BistResult:
    """Outcome of one crossbar's BIST pass."""

    sa1_count: int
    sa0_count: int
    cells: int

    @property
    def total_count(self) -> int:
        return self.sa1_count + self.sa0_count

    @property
    def density(self) -> float:
        return self.total_count / self.cells


def _estimate_counts(
    currents: np.ndarray,
    baseline_g: float,
    per_fault_g_delta: float,
    read_voltage: float,
    rows: int,
) -> np.ndarray:
    """Invert the calibration curve: currents -> per-column fault counts."""
    baseline_current = read_voltage * rows * baseline_g
    delta = currents - baseline_current
    counts = delta / (read_voltage * per_fault_g_delta)
    return np.clip(np.rint(counts), 0, rows).astype(np.int64)


def _bist_counts(
    codes: np.ndarray,
    config: CrossbarConfig,
    rng: np.random.Generator,
    noise_fraction: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimated (SA1, SA0) counts of every crossbar in ``codes``."""
    sa1_curr, sa0_curr = column_currents(
        codes, config, rng, BIST_TESTS, noise_fraction
    )
    sa1_counts = _estimate_counts(
        sa1_curr,
        baseline_g=config.g_off,
        per_fault_g_delta=nominal_sa1_conductance(config) - config.g_off,
        read_voltage=config.read_voltage,
        rows=config.rows,
    )
    # SA0 cells *remove* ~g_on of conductance, so the per-fault delta is
    # negative.  SA1 cells in the same column add excess current during the
    # SA0 test too; since the S3 step already measured the per-column SA1
    # counts, the calc peripherals subtract that known excess before
    # inverting the calibration curve (second-order correction).
    sa1_excess = (
        config.read_voltage
        * sa1_counts
        * (nominal_sa1_conductance(config) - config.g_on)
    )
    sa0_counts = _estimate_counts(
        sa0_curr - sa1_excess,
        baseline_g=config.g_on,
        per_fault_g_delta=nominal_sa0_conductance(config) - config.g_on,
        read_voltage=config.read_voltage,
        rows=config.rows,
    )
    return sa1_counts.sum(axis=1), sa0_counts.sum(axis=1)


def run_bist(
    fault_map: FaultMap,
    config: CrossbarConfig,
    rng: np.random.Generator,
    noise_fraction: float = 0.01,
) -> BistResult:
    """Estimate one crossbar's SA1/SA0 counts from simulated currents.

    This is the behavioural (fast) equivalent of driving the full
    :class:`~repro.bist.fsm.BistController`; both use the same analog model,
    and :func:`scan_chip` is the same computation over a whole chip.
    """
    sa1, sa0 = _bist_counts(fault_map.codes[None], config, rng, noise_fraction)
    return BistResult(
        sa1_count=int(sa1[0]), sa0_count=int(sa0[0]), cells=fault_map.cells
    )


def scan_chip(
    chip,
    rng: np.random.Generator,
    noise_fraction: float = 0.01,
    telemetry=None,
) -> np.ndarray:
    """BIST every crossbar on the chip; returns estimated densities.

    All BIST modules operate in parallel (one per IMA, crossbars within an
    IMA tested back-to-back), so the wall-clock cost stays at a few hundred
    ReRAM cycles per epoch regardless of chip size.  The simulation runs
    over each chip's fault array at once (a fleet's members in crossbar
    order) and draws the generator exactly as :func:`run_bist` on every
    crossbar in turn would.  With a ``telemetry`` sink, one
    ``bist_scan_detail`` event summarises the scan (crossbars tested plus
    the estimated stuck-at totals).
    """
    densities, sa1_total, sa0_total = [], 0, 0
    for member in getattr(chip, "chips", None) or [chip]:
        config = member.config.crossbar
        sa1, sa0 = _bist_counts(member.fault_codes, config, rng, noise_fraction)
        densities.append((sa1 + sa0) / config.cells)
        sa1_total += int(sa1.sum())
        sa0_total += int(sa0.sum())
    if telemetry is not None:
        telemetry.event(
            "bist_scan_detail",
            crossbars=chip.num_crossbars,
            sa0_est=sa0_total,
            sa1_est=sa1_total,
        )
        telemetry.count("bist.crossbars_scanned", chip.num_crossbars)
    return np.concatenate(densities)


def pair_density_estimates(chip, crossbar_densities: np.ndarray) -> np.ndarray:
    """Fold per-crossbar density estimates into per-pair estimates."""
    d = crossbar_densities[chip.pair_crossbars]
    return 0.5 * (d[:, 0] + d[:, 1])
