"""Composable, versioned analog non-ideality stack.

:class:`AnalogConfig` selects which non-ideality layers a run models;
:class:`AnalogStack` is the runtime the
:class:`~repro.nn.fault_aware.CrossbarEngine` applies to every effective
weight matrix it computes.  The stack is the one place that knows which
non-idealities apply, in what order, and whether their result can be
cached.  The layers run in this order::

    retention drift -> DAC grid -> device conductance states -> IR drop
      -> soft errors -> ADC grid -> programming error -> read noise

Every layer up to the ADC grid is a deterministic function of
``(weights, epoch state)``: drift depends on the epochs since programming,
quantization, conductance snapping and IR drop only on the values and the
frozen per-(layer, path) clip calibration, and the soft-error flip set only
changes at epoch boundaries (:meth:`AnalogStack.advance_epoch`).  These
compose with the engine's version-keyed cache: :meth:`AnalogStack.version_key`
(layer-config hash, soft-error epoch version, drift epochs) extends the cache
key.  Programming error and read noise, the per-read terms of the
``variation`` layer, are redrawn on every read; while either is configured
:attr:`AnalogStack.stochastic` is True, the engine bypasses its cache and
data-parallel training runs on one rank.

``apply`` never mutates its input: the engine's fault-free path hands the
layer's *live weight array* straight through, and cached entries alias
engine-owned buffers.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.analog.conductance import ConductanceConfig, conductance_roundtrip
from repro.analog.irdrop import IRDropConfig, attenuation_map
from repro.analog.quantization import (
    QuantizationConfig,
    clipped_fraction,
    quantize_uniform,
)
from repro.analog.soft_error import SoftErrorConfig, SoftErrorState
from repro.analog.variation import VariationModel
from repro.bist.scrub import scrub_pass_cycles
from repro.utils.config import ChipConfig

__all__ = [
    "AnalogConfig",
    "AnalogStack",
    "ANALOG_PRESETS",
    "make_analog_config",
]


@dataclass(frozen=True)
class AnalogConfig:
    """Which non-ideality layers to model; ``None`` disables a layer."""

    quantization: QuantizationConfig | None = None
    conductance: ConductanceConfig | None = None
    ir_drop: IRDropConfig | None = None
    soft_error: SoftErrorConfig | None = None
    #: programming error, read noise and retention drift.
    variation: VariationModel | None = None

    @property
    def active(self) -> bool:
        return (
            self.quantization is not None
            or self.conductance is not None
            or (self.ir_drop is not None and self.ir_drop.active)
            or self.soft_error is not None
            or (self.variation is not None and self.variation.active)
        )

    def config_key(self) -> int:
        """Stable hash of the layer configuration (cache-key part)."""
        return zlib.crc32(repr(self).encode())

    def describe(self) -> str:
        parts = []
        if self.quantization is not None:
            q = self.quantization
            parts.append(f"dac/adc {q.dac_bits}/{q.adc_bits} bit")
        if self.conductance is not None:
            c = self.conductance
            states = str(c.levels) if c.levels else "continuous"
            parts.append(f"g-map {states} states")
        if self.ir_drop is not None and self.ir_drop.active:
            parts.append(f"ir-drop wire={self.ir_drop.wire_ratio:g}")
        if self.soft_error is not None:
            s = self.soft_error
            scrub = "+scrub" if s.scrub else " (no scrub)"
            parts.append(f"soft errors {s.rate_per_mcell:g}/Mcell{scrub}")
        if self.variation is not None and self.variation.active:
            parts.append(self.variation.describe())
        return ", ".join(parts) if parts else "no analog layers"


#: Named layer combinations for ``--analog`` (and the analog bench grid).
ANALOG_PRESETS: dict[str, AnalogConfig | None] = {
    "off": None,
    "quant": AnalogConfig(quantization=QuantizationConfig()),
    "gmap": AnalogConfig(conductance=ConductanceConfig()),
    "irdrop": AnalogConfig(ir_drop=IRDropConfig()),
    "soft": AnalogConfig(soft_error=SoftErrorConfig()),
    "noscrub": AnalogConfig(soft_error=SoftErrorConfig(scrub=False)),
    "full": AnalogConfig(
        quantization=QuantizationConfig(),
        conductance=ConductanceConfig(),
        ir_drop=IRDropConfig(),
        soft_error=SoftErrorConfig(),
    ),
}


def make_analog_config(preset: str) -> AnalogConfig | None:
    """Resolve an ``--analog`` preset name (``"off"`` -> ``None``)."""
    try:
        return ANALOG_PRESETS[preset]
    except KeyError:
        names = ", ".join(sorted(ANALOG_PRESETS))
        raise ValueError(f"unknown analog preset {preset!r} (choose from {names})")


class AnalogStack:
    """Runtime state of the configured layers for one engine.

    Parameters
    ----------
    config:
        The layer selection.  An all-``None`` config is legal but inert.
    rng:
        RNG stream for soft-error arrivals (required iff ``soft_error``
        is configured).  Use a dedicated named stream — e.g.
        ``hub.stream("soft-error")`` — so other streams are unaffected.
    chip_config:
        Chip geometry: supplies the physical array shape the IR-drop
        pattern tiles with, and prices the scrub pass.
    telemetry:
        Optional run sink for ``analog.*`` counters, the ADC-clip
        histogram and ``scrub_pass`` events.
    noise_rng:
        RNG stream for programming-error and read-noise draws (required
        iff either sigma of ``variation`` is set), e.g.
        ``hub.stream("variation")``.
    """

    def __init__(
        self,
        config: AnalogConfig,
        rng: np.random.Generator | None = None,
        chip_config: ChipConfig | None = None,
        telemetry=None,
        noise_rng: np.random.Generator | None = None,
    ):
        if config.soft_error is not None and rng is None:
            raise ValueError("soft_error layer requires an rng stream")
        variation = config.variation
        #: True while a layer redraws on every read (programming error,
        #: read noise): the engine then bypasses its effective-weight
        #: cache, and data-parallel training runs on one rank.
        self.stochastic = variation is not None and variation.stochastic
        if self.stochastic and noise_rng is None:
            raise ValueError(
                "programming error and read noise require a noise_rng stream"
            )
        self._noise_rng = noise_rng
        #: epoch boundaries since programming; drives retention drift and
        #: is part of :meth:`version_key`.  Advances only when the
        #: ``variation`` layer drifts, so other stacks keep their keys.
        self.drift_age = 0
        self.config = config
        self.telemetry = telemetry
        self._chip_config = chip_config if chip_config is not None else ChipConfig()
        xbar = self._chip_config.crossbar
        self._block_shape = (xbar.rows, xbar.cols)
        self._config_key = config.config_key()
        #: per-(layer key, path) frozen converter clip range.
        self._clips: dict[tuple[str, str], float] = {}
        #: memoised IR-drop factor matrices, (shape, fwd?, dtype) -> array.
        self._ir_cache: dict[tuple, np.ndarray] = {}
        self.soft = (
            SoftErrorState(config.soft_error, rng)
            if config.soft_error is not None
            else None
        )
        #: lifetime scrub accounting (overheads reporting reads these).
        self.scrub_passes = 0
        self.scrub_cycles = 0

    @property
    def active(self) -> bool:
        return self.config.active

    def version_key(self) -> tuple[int, int, int]:
        """Cache-key part: (layer-config hash, soft-error epoch version,
        drift epochs)."""
        return (
            self._config_key,
            self.soft.version if self.soft is not None else 0,
            self.drift_age,
        )

    # ------------------------------------------------------------------ #
    # the per-recompute transform (engine cache-miss path)
    # ------------------------------------------------------------------ #
    def apply(self, key: str, path: str, eff: np.ndarray) -> np.ndarray:
        """Run one effective weight matrix through the configured layers.

        Never mutates ``eff``; returns a fresh array whenever a layer
        changes it.  Unless :attr:`stochastic`, the engine caches the
        result, keyed on :meth:`version_key`, so this only runs on cache
        misses; otherwise it runs on every read.
        """
        cfg = self.config
        out = eff
        owned = False
        if self.drift_age > 0:
            out = cfg.variation.apply_drift(out, self.drift_age)
            owned = True
        site = (key, path)
        clip = self._clips.get(site)
        if clip is None:
            clip = self._calibrate(site, out)
        tel = self.telemetry
        q = cfg.quantization
        if q is not None:
            if tel is not None and tel.enabled:
                tel.observe("analog.adc_clip_fraction", clipped_fraction(out, clip))
            out = quantize_uniform(out, q.dac_bits, clip)
            owned = True
        if cfg.conductance is not None:
            out = conductance_roundtrip(out, clip, cfg.conductance)
            owned = True
        if cfg.ir_drop is not None and cfg.ir_drop.active:
            factor = self._ir_factor(out.shape, path, out.dtype)
            if owned:
                out *= factor
            else:
                out = out * factor
                owned = True
        if self.soft is not None:
            self.soft.register(key, path, out.size)
            flips = self.soft.flips(key, path)
            if not owned:
                out = np.array(out, copy=True)
                owned = True
            if flips is not None:
                idx, sign = flips
                # A flipped cell transiently reads at a range extreme —
                # the transient analogue of a stuck-at cell.
                np.put(out, idx, sign * clip)
        if q is not None:
            out = quantize_uniform(out, q.adc_bits, clip)
        if self.stochastic:
            # The read noise scales with max|w| before the programming
            # error lands.
            v, rng = cfg.variation, self._noise_rng
            scale = float(np.abs(out).max()) or 1.0
            out = v.apply_read_noise(v.apply_program_error(out, rng), scale, rng)
        if tel is not None and tel.enabled:
            tel.count("analog.applies")
        return out

    def _calibrate(self, site: tuple[str, str], eff: np.ndarray) -> float:
        """Freeze the converter clip range from the first matrix seen."""
        q = self.config.quantization
        headroom = q.clip_headroom if q is not None else 1.0
        clip = float(np.abs(eff).max()) * headroom if eff.size else 0.0
        if not np.isfinite(clip) or clip <= 0:
            clip = 1.0
        self._clips[site] = clip
        return clip

    def _ir_factor(self, shape, path: str, dtype) -> np.ndarray:
        """Attenuation factors in the layer's (out, in) orientation.

        The forward copy stores ``W^T``, so its physical tiling — and
        with it the IR-drop skew — is transposed relative to the
        backward copy: the two phase copies of one layer genuinely
        degrade differently, as on the real chip.
        """
        ck = (shape, path == "fwd", dtype.str)
        factor = self._ir_cache.get(ck)
        if factor is None:
            cfg = self.config.ir_drop
            if path == "fwd":
                stored = attenuation_map(
                    (shape[1], shape[0]), self._block_shape, cfg, dtype
                )
                factor = stored.T
            else:
                factor = attenuation_map(shape, self._block_shape, cfg, dtype)
            self._ir_cache[ck] = factor
        return factor

    # ------------------------------------------------------------------ #
    # epoch lifecycle (controller / data-parallel replicas)
    # ------------------------------------------------------------------ #
    def advance_epoch(self, epoch: int) -> None:
        """Epoch boundary: retention drift ages one epoch, then a scrub
        pass (when enabled) + new soft-error arrivals.  Deterministic
        given the RNG stream, so data-parallel worker replicas replaying
        the transition stay bit-identical."""
        variation = self.config.variation
        if variation is not None and variation.drift_per_epoch > 0:
            self.drift_age += 1
        if self.soft is None:
            return
        repaired, injected = self.soft.advance_epoch()
        tel = self.telemetry
        if self.config.soft_error.scrub:
            report = scrub_pass_cycles(self._chip_config, repaired)
            self.scrub_passes += 1
            self.scrub_cycles += report.total_cycles
            if tel is not None and tel.enabled:
                tel.event(
                    "scrub_pass",
                    epoch=epoch,
                    repaired_cells=repaired,
                    injected_cells=injected,
                    cycles=report.total_cycles,
                )
                tel.count("analog.scrub_passes")
                tel.count("analog.scrub_cells", repaired)
                tel.count("analog.scrub_cycles", report.total_cycles)
        if tel is not None and tel.enabled:
            tel.count("analog.soft_errors", injected)
