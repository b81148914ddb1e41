"""Configuration dataclasses shared across the simulator stack.

All experiment knobs live here so that a bench or example can describe an
entire run (hardware geometry, fault regime, CNN training recipe, mitigation
policy) as one serialisable object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotation only)
    from repro.analog import AnalogConfig

__all__ = [
    "CrossbarConfig",
    "ChipConfig",
    "FaultConfig",
    "TrainConfig",
    "ExperimentConfig",
]


def _check_fraction(name: str, value: float, upper: float = 1.0) -> None:
    if not (0.0 <= value <= upper):
        raise ValueError(f"{name} must lie in [0, {upper}], got {value}")


@dataclass
class CrossbarConfig:
    """Electrical and geometric parameters of one ReRAM crossbar array.

    Defaults follow the paper's target RCS: 128x128 arrays, ReRAM cells
    operated at 10 MHz (one "ReRAM cycle" = 100 ns) with 1.2 GHz CMOS
    peripherals, and the SA0/SA1 resistance ranges of Grossi et al. quoted
    in Section IV.B.
    """

    rows: int = 128
    cols: int = 128
    #: on/off conductances of a healthy programmable cell (Siemens).
    g_on: float = 1.0 / 10e3
    g_off: float = 1.0 / 1e6
    #: stuck-at-1 (low resistance) range, ohms: 1.5 kOhm .. 3 kOhm.
    r_sa1_min: float = 1.5e3
    r_sa1_max: float = 3.0e3
    #: stuck-at-0 (high resistance / open) range, ohms: 0.8 MOhm .. 3 MOhm.
    r_sa0_min: float = 0.8e6
    r_sa0_max: float = 3.0e6
    #: read voltage applied on rows during MVM / BIST read (volts).
    read_voltage: float = 0.3
    #: one ReRAM array cycle in nanoseconds (10 MHz arrays).
    reram_cycle_ns: float = 100.0
    #: CMOS peripheral clock in GHz (ADC / S&A / BIST logic).
    cmos_clock_ghz: float = 1.2

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("crossbar dimensions must be positive")
        if self.g_on <= self.g_off:
            raise ValueError("g_on must exceed g_off")
        if self.r_sa1_min > self.r_sa1_max or self.r_sa0_min > self.r_sa0_max:
            raise ValueError("resistance ranges must be ordered (min <= max)")
        if self.r_sa1_max >= self.r_sa0_min:
            raise ValueError("SA1 (low-R) range must sit below SA0 (high-R) range")

    @property
    def cells(self) -> int:
        """Number of ReRAM devices in the array."""
        return self.rows * self.cols


@dataclass
class ChipConfig:
    """Geometry of the ReRAM crossbar-based computing system (RCS).

    The chip is a ``mesh_rows x mesh_cols`` grid of NoC routers; each router
    concentrates ``tiles_per_router`` tiles (c-mesh).  Each tile holds
    ``imas_per_tile`` IMAs and each IMA holds ``crossbars_per_ima`` physical
    crossbar arrays.  Weights are stored differentially, so one *logical*
    weight block consumes a pair of physical crossbars (G+ and G-).
    """

    mesh_rows: int = 4
    mesh_cols: int = 4
    tiles_per_router: int = 4
    imas_per_tile: int = 2
    crossbars_per_ima: int = 8
    crossbar: CrossbarConfig = field(default_factory=CrossbarConfig)
    #: fraction of crossbars reserved as fault-free spares (used only by
    #: spare-hungry baselines such as Remap-WS / Remap-T-n%).
    spare_fraction: float = 0.0

    def __post_init__(self) -> None:
        for name in ("mesh_rows", "mesh_cols", "tiles_per_router",
                     "imas_per_tile", "crossbars_per_ima"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.crossbars_per_ima % 2 != 0:
            raise ValueError(
                "crossbars_per_ima must be even (differential G+/G- pairs)")
        _check_fraction("spare_fraction", self.spare_fraction, upper=0.5)

    @property
    def num_routers(self) -> int:
        return self.mesh_rows * self.mesh_cols

    @property
    def num_tiles(self) -> int:
        return self.num_routers * self.tiles_per_router

    @property
    def num_crossbars(self) -> int:
        return self.num_tiles * self.imas_per_tile * self.crossbars_per_ima

    @property
    def num_pairs(self) -> int:
        """Number of differential crossbar pairs (logical weight blocks)."""
        return self.num_crossbars // 2


@dataclass
class FaultConfig:
    """Pre- and post-deployment stuck-at-fault regime (Section IV.A).

    Pre-deployment: 20% of crossbars draw a high fault density in
    [0.4%, 1%], the rest draw from [0%, 0.4%]; SA0:SA1 = 9:1.
    Post-deployment: every epoch, ``post_n`` of the crossbars acquire
    ``post_m`` new faulty cells, preferentially the most-written crossbars
    (limited write endurance).
    """

    pre_high_fraction: float = 0.20
    pre_high_density: tuple[float, float] = (0.004, 0.010)
    pre_low_density: tuple[float, float] = (0.000, 0.004)
    #: SA0:SA1 count ratio for pre-deployment faults (typically 9:1).
    sa0_sa1_ratio: float = 9.0
    #: per-epoch post-deployment fault injection: fraction of crossbars hit.
    post_n: float = 0.01
    #: per-epoch post-deployment fault injection: new-cell fraction per hit.
    post_m: float = 0.005
    #: if True, crossbars with more accumulated writes are likelier targets.
    wear_weighted: bool = True
    #: if True, faults within a crossbar cluster spatially (two thirds of the
    #: faulty cells land inside a contiguous cluster window).
    clustered: bool = True
    cluster_fraction: float = 2.0 / 3.0
    #: post-deployment SA0:SA1 ratio (endurance failures skew stuck-open).
    post_sa0_sa1_ratio: float = 9.0
    #: master switches for the two fault regimes.
    pre_enabled: bool = True
    post_enabled: bool = True
    #: phase-targeted injection (the Fig. 5 experiment): inject
    #: ``phase_density`` faults into the crossbars of one phase's copies
    #: only ("forward" or "backward"); None disables it.
    phase_target: str | None = None
    phase_density: float = 0.02
    #: chaos fault wave: at the end of epoch ``wave_epoch`` every crossbar
    #: of chip ``wave_chip`` acquires ``wave_density`` extra stuck cells.
    #: This is the spare-exhaustion stress used by the fleet benches and
    #: the CI eviction smoke; ``None`` disables it (the default — existing
    #: runs draw no extra randomness).
    wave_epoch: int | None = None
    wave_chip: int = 0
    wave_density: float = 0.05

    def __post_init__(self) -> None:
        if self.phase_target not in (None, "forward", "backward"):
            raise ValueError("phase_target must be None, 'forward' or 'backward'")
        _check_fraction("phase_density", self.phase_density)
        _check_fraction("wave_density", self.wave_density)
        if self.wave_chip < 0:
            raise ValueError("wave_chip must be non-negative")
        _check_fraction("pre_high_fraction", self.pre_high_fraction)
        _check_fraction("post_n", self.post_n)
        _check_fraction("post_m", self.post_m)
        _check_fraction("cluster_fraction", self.cluster_fraction)
        for name in ("pre_high_density", "pre_low_density"):
            lo, hi = getattr(self, name)
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi <= 1")
        if self.sa0_sa1_ratio <= 0 or self.post_sa0_sa1_ratio <= 0:
            raise ValueError("SA0:SA1 ratios must be positive")

    def sa0_probability(self, post: bool = False) -> float:
        """P(fault is SA0) implied by the configured SA0:SA1 ratio."""
        ratio = self.post_sa0_sa1_ratio if post else self.sa0_sa1_ratio
        return ratio / (1.0 + ratio)


@dataclass
class TrainConfig:
    """CNN training recipe for the fault-injection experiments."""

    model: str = "vgg11"
    dataset: str = "synth-cifar10"
    epochs: int = 8
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    #: channel width multiplier (1.0 = paper-scale models).
    width_mult: float = 0.25
    n_train: int = 1024
    n_test: int = 512
    image_size: int = 32
    seed: int = 0
    #: cosine LR decay toward lr * lr_final_fraction.
    lr_final_fraction: float = 0.1
    #: compute dtype for the whole run ("float32" or "float64").  float32
    #: is ~2x faster; float64 reproduces the bit-exact clamp numerics the
    #: equivalence tests check.  Carried in the config (rather than set
    #: globally by the caller) so parallel runner workers configure their
    #: own process correctly.
    dtype: str = "float32"
    #: evaluation / inference batch size.  0 (the default) resolves to
    #: ``max(batch_size, 64)`` — the historical ``Trainer.evaluate``
    #: behaviour; a positive value pins it (the serving stack sets it to
    #: the micro-batcher's slot count so eval and serving share shapes).
    eval_batch: int = 0
    #: number of data-parallel training worker processes (0 or 1 =
    #: single-process).  Each batch is split into ``grad_shards``
    #: micro-shards distributed round-robin over the workers and the
    #: gradients all-reduced, so results depend on ``grad_shards`` but
    #: NOT on the worker count — any N gives the 1-worker bits.
    data_parallel: int = 0
    #: fixed micro-shard count per batch for data-parallel training.
    #: Part of the numerical recipe (per-shard batch-norm statistics and
    #: loss scaling), independent of how many workers execute the shards.
    grad_shards: int = 4

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not (0.0 < self.width_mult <= 4.0):
            raise ValueError("width_mult must be in (0, 4]")
        if self.n_train <= 0 or self.n_test <= 0:
            raise ValueError("dataset sizes must be positive")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be 'float32' or 'float64'")
        if self.eval_batch < 0:
            raise ValueError("eval_batch must be >= 0 (0 = auto)")
        if self.data_parallel < 0:
            raise ValueError("data_parallel must be >= 0 (0 = single process)")
        if self.grad_shards <= 0:
            raise ValueError("grad_shards must be positive")
        if self.data_parallel > self.grad_shards:
            raise ValueError(
                "data_parallel workers cannot exceed grad_shards "
                f"({self.data_parallel} > {self.grad_shards})"
            )


@dataclass
class ExperimentConfig:
    """One end-to-end fault-tolerant-training experiment."""

    train: TrainConfig = field(default_factory=TrainConfig)
    chip: ChipConfig = field(default_factory=ChipConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    #: mitigation policy name (see repro.core.policies.make_policy).
    policy: str = "remap-d"
    #: Remap-D trigger threshold on estimated fault density.
    remap_threshold: float = 0.002
    #: spare fraction for Remap-T-n% / Remap-WS style policies.
    policy_param: float = 0.0
    #: extra keyword arguments forwarded to the policy constructor (e.g.
    #: Remap-D's receiver_rule / phase_priority ablations).  Carried in
    #: the config so ablation variants survive pickling into runner
    #: worker processes.
    policy_kwargs: dict[str, Any] = field(default_factory=dict)
    #: optional composable analog layer stack (DAC/ADC quantization,
    #: conductance mapping, IR drop, transient soft errors + scrubbing,
    #: programming error, read noise, retention drift) applied on top of
    #: the stuck-at faults; None disables it — see :mod:`repro.analog`
    #: and the ``--analog`` CLI presets.
    analog: "AnalogConfig | None" = None
    seed: int = 0
    #: number of simulated chips the model is pipeline-partitioned across
    #: in a :class:`~repro.fleet.ChipFleet`.  1 (the default) is a fleet of
    #: one, bit-identical to the recorded single-chip golden run; >= 2
    #: adds the remap protocol's cross-chip eviction path.
    chips: int = 1
    #: per-chip capacity headroom factor (the ``slack`` of
    #: :func:`~repro.fleet.placement.stage_chip_config`, applied to each
    #: chip's pipeline stage).
    chip_slack: float = 2.0

    def __post_init__(self) -> None:
        _check_fraction("remap_threshold", self.remap_threshold)
        if self.policy_param < 0:
            raise ValueError("policy_param must be non-negative")
        if self.chips < 1:
            raise ValueError("chips must be >= 1")
        if self.chip_slack < 1.0:
            raise ValueError("chip_slack must be >= 1.0")

    def to_dict(self) -> dict[str, Any]:
        """Serialise the full configuration to plain dicts."""
        return asdict(self)
