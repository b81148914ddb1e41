"""Programming error, read noise and retention drift: the variation layer.

PytorX (the paper's training simulator) models, besides SAFs, the *soft*
ReRAM non-idealities: programming inaccuracy (the write circuitry lands
near, not on, the target conductance), read-out noise (thermal/shot noise
on the MVM currents) and conductance drift/relaxation over time.  These
are orthogonal to Remap-D (remapping does not fix them, and they affect
every crossbar equally) but a production simulator must expose them — and
the paper's "near-ideal accuracy" claims implicitly include their
presence.

:class:`VariationModel` is the ``variation`` layer config of
:class:`~repro.analog.AnalogConfig`: a pure-function bundle the
:class:`~repro.analog.AnalogStack` applies to every effective weight
(drift first, programming error and read noise last; see
:mod:`repro.analog.stack`).  All draws come from the caller's RNG
stream, so runs stay reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["VariationModel"]


@dataclass(frozen=True)
class VariationModel:
    """Lognormal programming error + additive read noise + drift.

    Parameters
    ----------
    program_sigma:
        Sigma of the multiplicative lognormal programming error.  A cell
        programmed to conductance ``g`` actually holds
        ``g * exp(N(0, program_sigma))``; typical analog ReRAM write-
        verify loops achieve 1-5%.
    read_sigma:
        Additive Gaussian read noise, as a fraction of the weight scale,
        drawn fresh for every MVM (cycle-to-cycle).
    drift_per_epoch:
        Multiplicative conductance relaxation toward zero per epoch
        (retention loss between refresh writes).
    """

    program_sigma: float = 0.0
    read_sigma: float = 0.0
    drift_per_epoch: float = 0.0

    def __post_init__(self) -> None:
        for name in ("program_sigma", "read_sigma", "drift_per_epoch"):
            value = getattr(self, name)
            # NaN compares False against everything, so an explicit
            # finiteness check must come first or NaN would sail through
            # the range checks below and poison every weight read.
            if not math.isfinite(value):
                raise ValueError(
                    f"{name} must be finite, got {value!r} "
                    "(NaN/inf sigmas would corrupt every effective weight)"
                )
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.drift_per_epoch >= 1.0:
            raise ValueError("drift_per_epoch must be < 1")

    @property
    def active(self) -> bool:
        return (
            self.program_sigma > 0
            or self.read_sigma > 0
            or self.drift_per_epoch > 0
        )

    @property
    def stochastic(self) -> bool:
        """True when any *per-read* random term is enabled.

        Programming error and read noise are redrawn on every weight
        read, so the engine must bypass its effective-weight cache while
        they are active.  Drift is excluded deliberately: it is a pure
        function of the epoch count, which the stack carries in its
        version key — a drift-only model stays fully cached.
        """
        return self.program_sigma > 0 or self.read_sigma > 0

    # ------------------------------------------------------------------ #
    def apply_program_error(
        self, weights: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Multiplicative lognormal error applied at programming time."""
        if self.program_sigma <= 0:
            return weights
        factor = np.exp(
            rng.normal(0.0, self.program_sigma, size=weights.shape)
        )
        return weights * factor

    def apply_read_noise(
        self,
        weights: np.ndarray,
        scale: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Additive read noise for one MVM (fresh every call)."""
        if self.read_sigma <= 0:
            return weights
        noise = rng.normal(0.0, self.read_sigma * scale, size=weights.shape)
        return weights + noise

    def apply_drift(self, weights: np.ndarray, epochs: float = 1.0) -> np.ndarray:
        """Retention drift: conductances relax toward zero between writes."""
        if self.drift_per_epoch <= 0:
            return weights
        return weights * (1.0 - self.drift_per_epoch) ** epochs

    def describe(self) -> str:
        # Explicit ``> 0`` comparisons (not truthiness): a field set to
        # an explicit 0.0 via ``dataclasses.replace`` reports identically
        # to a default zero, whatever exotic float (e.g. -0.0) it holds.
        parts = []
        if self.program_sigma > 0:
            parts.append(f"program sigma={self.program_sigma:.3f}")
        if self.read_sigma > 0:
            parts.append(f"read sigma={self.read_sigma:.3f}")
        if self.drift_per_epoch > 0:
            parts.append(f"drift={self.drift_per_epoch:.3%}/epoch")
        return ", ".join(parts) if parts else "no analog variation"
