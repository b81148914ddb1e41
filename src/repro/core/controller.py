"""End-to-end experiment orchestration.

``run_experiment`` wires the full stack together the way the paper's
methodology does:

1. build the synthetic dataset, the CNN and a fleet of RCS chips (one by
   default) sized to hold both crossbar copies of every layer;
2. inject pre-deployment (manufacturing) faults — non-uniform, clustered;
3. train; after *every* epoch: record weight-update wear, inject
   post-deployment (endurance) faults, run the BIST scan if the policy
   needs it, and let the policy react (remap / refresh overrides);
4. report the trained accuracy and all remap/fault statistics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.analog import AnalogStack
from repro.bist.density import pair_density_estimates, scan_chip
from repro.core.policies import Policy, make_policy
from repro.core.remap_protocol import RemapPlan
from repro.faults.injector import FaultInjector, place_faults
from repro.nn.data import SyntheticDataset, cached_dataset
from repro.nn.fault_aware import CrossbarEngine
from repro.nn.layers import Module
from repro.nn.models import build_model
from repro.nn.parallel import DataParallelTrainer, resolve_train_workers
from repro.fleet import ChipFleet, plan_placement
from repro.nn.tensor import set_default_dtype
from repro.nn.trainer import Trainer, TrainResult
from repro.telemetry import Telemetry
from repro.telemetry.health import sample_health
from repro.utils.config import ExperimentConfig
from repro.utils.rng import RngHub

__all__ = [
    "ExperimentContext",
    "ExperimentResult",
    "apply_epoch_end",
    "build_experiment",
    "run_experiment",
    "inject_fault_wave",
    "inject_phase_faults",
]


@dataclass
class ExperimentContext:
    """Shared state visible to policies during a run."""

    config: ExperimentConfig
    rng_hub: RngHub
    dataset: SyntheticDataset
    model: Module
    #: the hardware target: ``config.chips`` pipeline-stage chips (one by
    #: default) behind the fleet's global pair/tile/crossbar ids.
    chip: ChipFleet
    engine: CrossbarEngine
    injector: FaultInjector
    policy: Policy
    trainer: Trainer
    #: latest BIST per-pair density estimates (refreshed each epoch when
    #: the policy uses BIST; zeros otherwise).
    pair_density_est: np.ndarray = field(default_factory=lambda: np.zeros(0))
    remap_plans: list[tuple[int, RemapPlan]] = field(default_factory=list)
    bist_scans: int = 0
    #: per-run telemetry sink (policies and helpers emit through this).
    telemetry: Telemetry = field(default_factory=lambda: Telemetry(echo=False))


@dataclass
class ExperimentResult:
    """Outcome of one fault-tolerant training experiment."""

    policy: str
    model: str
    dataset: str
    train_result: TrainResult
    final_accuracy: float
    best_accuracy: float
    num_remaps: int
    mean_chip_density: float
    max_pair_density: float
    wall_seconds: float
    #: cross-chip task migrations (0 on a fleet of one).
    num_evictions: int = 0
    #: aggregated telemetry summary (``Telemetry.summary()``): counters,
    #: span totals and per-kind event counts for the whole run.
    telemetry: dict = field(default_factory=dict)

    def summary_row(self) -> list:
        return [
            self.model,
            self.dataset,
            self.policy,
            round(self.final_accuracy, 4),
            self.num_remaps,
            round(self.mean_chip_density, 5),
        ]


def inject_phase_faults(ctx: ExperimentContext, phase: str, density: float) -> int:
    """Inject ``density`` faults into every crossbar of one phase's copies.

    This is the Fig. 5 experiment: stress the forward *or* the backward
    copies in isolation and observe the training accuracy.  Cells are
    placed as the fault config's spatial settings say (``clustered``,
    ``cluster_fraction``).  Returns the number of cells stuck.
    """
    rng = ctx.rng_hub.stream("phase-faults")
    fc = ctx.config.faults
    total = 0
    for mapping in ctx.engine.all_mappings():
        if mapping.phase != phase:
            continue
        for _, _, pair_id in mapping.iter_blocks():
            pair = ctx.chip.pair(pair_id)
            for fmap in (pair.pos.fault_map, pair.neg.fault_map):
                count = int(round(density * fmap.cells))
                total += place_faults(rng, fmap, count, fc, post=False)
    ctx.chip.bump_fault_version()
    ctx.telemetry.event("fault_injected", phase=phase, source="phase", cells=total)
    ctx.telemetry.count("faults.phase_cells", total)
    return total


def inject_fault_wave(ctx: ExperimentContext, epoch: int) -> int:
    """Inject the configured chaos fault wave into one chip.

    Saturates every crossbar of ``faults.wave_chip`` with
    ``faults.wave_density`` extra stuck cells — the spare-exhaustion
    stress that forces cross-chip evictions in a fleet (and strands a
    fleet of one, the comparison ``bench_fleet`` records).  Draws from
    its own ``"fault-wave"`` stream, created only when a wave is
    configured, so unconfigured runs consume no extra randomness.
    """
    fc = ctx.config.faults
    rng = ctx.rng_hub.stream("fault-wave")
    chips = ctx.chip.chips
    target = chips[min(fc.wave_chip, len(chips) - 1)]
    total = 0
    for xb in target.crossbars:
        fmap = xb.fault_map
        count = int(round(fc.wave_density * fmap.cells))
        total += place_faults(rng, fmap, count, fc, post=True)
    ctx.chip.bump_fault_version()
    ctx.telemetry.event(
        "fault_injected", phase="wave", source="wave", epoch=epoch,
        chip=target.chip_id, cells=total,
    )
    ctx.telemetry.count("faults.wave_cells", total)
    return total


def build_experiment(
    config: ExperimentConfig,
    telemetry: Telemetry | None = None,
) -> ExperimentContext:
    """Construct the full experiment stack (no training yet).

    ``telemetry`` is the run's instrumentation sink; when omitted a fresh
    silent sink is created so :class:`ExperimentContext.telemetry` always
    exists (and :class:`ExperimentResult` always carries a summary).
    """
    tel = telemetry if telemetry is not None else Telemetry(echo=False)
    hub = RngHub(config.seed)
    tc = config.train
    # The compute dtype travels with the config so runner workers (which
    # may be freshly spawned processes) configure themselves identically
    # to a serial run.  Must happen before the model is built: parameters
    # adopt the default dtype at construction.
    set_default_dtype(tc.dtype)
    # Memoised per generation recipe: repeated cells of a sweep (and the
    # parallel runner's workers) share one generation of each dataset.
    # The cache draws from the same derived "data" stream this call
    # always used, so hits are bit-identical to regeneration.
    dataset = cached_dataset(
        tc.dataset, tc.n_train, tc.n_test, tc.image_size, config.seed
    )
    model = build_model(
        tc.model, dataset.num_classes, tc.width_mult, hub.stream("init")
    )
    # Pipeline-partition the layers over ``config.chips`` chips (the whole
    # model on one chip by default).  The placement draws no randomness,
    # so the RNG stream consumption below does not depend on the count.
    placement = plan_placement(model, config.chips, config.chip)
    chip = ChipFleet(config.chip, placement, slack=config.chip_slack)
    tel.event(
        "fleet_built",
        chips=config.chips,
        stage_layers=[list(s) for s in placement.stages],
        stage_pairs=[placement.stage_demand(c) for c in range(config.chips)],
        chip_pairs=[c.num_pairs for c in chip.chips],
    )
    chip.telemetry = tel
    engine = CrossbarEngine(chip).bind(model)
    injector = FaultInjector(config.faults, hub.stream("faults"))
    policy = make_policy(
        config.policy, config.policy_param, config.remap_threshold,
        **config.policy_kwargs,
    )
    # ``data_parallel`` (or its REPRO_TRAIN_WORKERS override) routes
    # training through the sharded SPMD trainer; its worker replicas run
    # this very function, with the override neutralised, to reconstruct
    # identical stacks in their own processes.
    workers = resolve_train_workers(tc)
    if workers > 0:
        trainer = DataParallelTrainer(
            model, dataset, tc, hub.stream("train"), telemetry=tel,
            experiment=config, world=workers,
        )
    else:
        trainer = Trainer(model, dataset, tc, hub.stream("train"), telemetry=tel)
    analog = config.analog
    if analog is not None and analog.active:
        # The soft-error and variation streams are derived only when their
        # layer is configured, so configs without them consume no extra
        # randomness (and analog-off runs stay bit-identical to the
        # pre-analog code path).  A scrub pass is priced on the built
        # member with the most crossbars per IMA: members scan in
        # parallel, as the IMAs of one chip do.
        engine.set_analog(
            AnalogStack(
                analog,
                rng=(
                    hub.stream("soft-error")
                    if analog.soft_error is not None
                    else None
                ),
                chip_config=max(
                    (member.config for member in chip.chips),
                    key=lambda c: c.crossbars_per_ima,
                ),
                telemetry=tel,
                noise_rng=(
                    hub.stream("variation")
                    if analog.variation is not None
                    else None
                ),
            )
        )
    engine.telemetry = tel
    # Per-epoch history records carry the fleet's cumulative eviction and
    # interconnect counters — the report's migration timeline reads the
    # deltas between epochs.
    trainer.epoch_metrics = lambda: {
        "evictions": chip.evictions,
        "interchip_flits": chip.interconnect.total_flits,
        "interchip_cycles": chip.interconnect.total_cycles,
    }
    ctx = ExperimentContext(
        config=config,
        rng_hub=hub,
        dataset=dataset,
        model=model,
        chip=chip,
        engine=engine,
        injector=injector,
        policy=policy,
        trainer=trainer,
        pair_density_est=np.zeros(chip.num_pairs),
        telemetry=tel,
    )
    faults_active = not policy.disable_faults
    if faults_active and config.faults.pre_enabled:
        injector.inject_pre_deployment(chip.fault_maps)
        chip.bump_fault_version()
        pre_cells = sum(n for ep, _, n in injector.history if ep == -1)
        tel.event("fault_injected", phase="pre", source="manufacturing",
                  cells=pre_cells)
        tel.count("faults.pre_cells", pre_cells)
    if faults_active and config.faults.phase_target is not None:
        inject_phase_faults(
            ctx, config.faults.phase_target, config.faults.phase_density
        )
    policy.setup(ctx)
    return ctx


def apply_epoch_end(
    ctx: ExperimentContext,
    bist_rng: np.random.Generator,
    epoch: int,
    trainer: Trainer,
) -> None:
    """The per-epoch chip/policy transition (wear, faults, BIST, remap).

    Module-level (rather than a closure in ``run_experiment``) because
    data-parallel worker replicas replay exactly this transition on their
    own chip/engine copies: with the shared RNG streams it is fully
    deterministic, which keeps every rank's effective weights identical
    going into the next epoch.
    """
    tel = ctx.telemetry
    chip = ctx.chip
    policy = ctx.policy
    faults_active = not policy.disable_faults
    # Weight updates this epoch wrote every mapped crossbar once per
    # batch — that wear drives where endurance faults strike next.
    chip.record_update_writes(trainer.num_batches())
    if faults_active and ctx.config.faults.post_enabled:
        hit = ctx.injector.inject_post_epoch(chip.fault_maps, chip.wear, epoch)
        chip.bump_fault_version()
        cells = sum(n for ep, _, n in ctx.injector.history if ep == epoch)
        tel.event("fault_injected", phase="post", source="endurance",
                  epoch=epoch, crossbars=len(hit), cells=cells)
        tel.count("faults.post_cells", cells)
    if (
        faults_active
        and ctx.config.faults.wave_epoch is not None
        and epoch == ctx.config.faults.wave_epoch
    ):
        inject_fault_wave(ctx, epoch)
    # Analog epoch boundary, *before* the BIST scan and the policy react:
    # retention drift ages one epoch and the soft-error layer runs its
    # scrub pass + draws the next epoch's Poisson arrivals.  Both are
    # deterministic, so data-parallel replicas replaying this transition
    # stay bit-identical.
    if ctx.engine.analog is not None:
        ctx.engine.analog.advance_epoch(epoch)
    if policy.uses_bist:
        t_scan = time.perf_counter()
        with tel.span("bist_scan", epoch=epoch):
            densities = scan_chip(chip, bist_rng, telemetry=tel)
            ctx.pair_density_est = pair_density_estimates(chip, densities)
        tel.observe("bist.scan_seconds", time.perf_counter() - t_scan)
        ctx.bist_scans += 1
        tel.event("bist_scan", epoch=epoch,
                  mean_density_est=float(ctx.pair_density_est.mean()),
                  max_density_est=float(ctx.pair_density_est.max()))
        tel.count("bist_scans")
    policy.on_epoch_end(ctx, epoch)
    sample_health(chip, tel, epoch=epoch)


def run_experiment(
    config: ExperimentConfig,
    telemetry: Telemetry | None = None,
) -> ExperimentResult:
    """Build and run one experiment end to end.

    Every run emits structured telemetry (``fault_injected``,
    ``bist_scan``, ``remap_planned``, ``epoch_done`` events plus spans and
    counters) into ``telemetry`` — or an internal sink when omitted — and
    the returned :class:`ExperimentResult` carries its aggregated summary.
    """
    t0 = time.perf_counter()
    tel = telemetry if telemetry is not None else Telemetry(echo=False)
    with tel.span("build_experiment", model=config.train.model,
                  policy=config.policy):
        ctx = build_experiment(config, telemetry=tel)
    policy = ctx.policy
    chip = ctx.chip
    bist_rng = ctx.rng_hub.stream("bist")
    # Baseline health sample: the chip's state after manufacturing faults
    # but before any training epoch (epoch == -1 marks the setup sample).
    sample_health(chip, tel, epoch=-1)

    def on_epoch_end(epoch: int, trainer: Trainer) -> None:
        # Data-parallel training: the worker replicas replay the same
        # transition while rank 0 applies it, and finish it before they
        # accept the next command.
        broadcast = getattr(trainer, "broadcast_epoch_end", None)
        if broadcast is not None:
            broadcast(epoch)
        apply_epoch_end(ctx, bist_rng, epoch, trainer)

    try:
        with tel.span("train", model=config.train.model, policy=config.policy):
            train_result = ctx.trainer.fit(on_epoch_end=on_epoch_end)
    finally:
        shutdown = getattr(ctx.trainer, "shutdown", None)
        if shutdown is not None:
            shutdown()
    pair_densities = chip.true_pair_densities()
    for name, value in ctx.engine.cache_stats().items():
        tel.count(f"engine.cache_{name}", value)
    num_remaps = sum(plan.num_remaps for _, plan in ctx.remap_plans)
    tel.event(
        "experiment_done",
        policy=policy.name,
        model=config.train.model,
        final_accuracy=train_result.final_accuracy,
        num_remaps=num_remaps,
        mean_chip_density=float(pair_densities.mean()),
        wall_seconds=round(time.perf_counter() - t0, 3),
        chips=chip.num_chips,
        evictions=chip.evictions,
        interchip_flits=chip.interconnect.total_flits,
    )
    return ExperimentResult(
        policy=policy.name,
        model=config.train.model,
        dataset=config.train.dataset,
        train_result=train_result,
        final_accuracy=train_result.final_accuracy,
        best_accuracy=train_result.best_accuracy,
        num_remaps=num_remaps,
        mean_chip_density=float(pair_densities.mean()),
        max_pair_density=float(pair_densities.max()),
        wall_seconds=time.perf_counter() - t0,
        num_evictions=chip.evictions,
        telemetry=tel.summary(),
    )
