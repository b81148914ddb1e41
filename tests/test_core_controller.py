"""Controller integration tests: full (tiny) experiments end to end."""

import numpy as np
import pytest

from repro.core.controller import (
    build_experiment,
    inject_fault_wave,
    inject_phase_faults,
    run_experiment,
)
from repro.faults.distribution import uniform_cells
from repro.faults.types import FaultType
from repro.fleet import layer_pair_demands, plan_placement
from repro.fleet.placement import stage_chip_config
from repro.nn.models import build_model
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)


def _tiny(policy: str = "none", **fault_kw) -> ExperimentConfig:
    return ExperimentConfig(
        train=TrainConfig(
            model="vgg11", epochs=2, batch_size=16, n_train=48, n_test=32,
            width_mult=0.125,
        ),
        chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
        faults=FaultConfig(**fault_kw),
        policy=policy,
        seed=11,
    )


class TestChipSizing:
    def test_chip_fits_both_copies_with_slack(self, rng):
        model = build_model("vgg16", 10, 0.125, rng)
        base = ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32))
        placement = plan_placement(model, 1, base)
        demand = placement.stage_demand(0)
        sized = stage_chip_config(base, demand)
        assert sized.num_pairs >= 2 * demand  # both copies, 2x slack
        assert sized.crossbars_per_ima % 2 == 0
        # A default experiment is a fleet of one whose chip is sized by
        # the same formula for the whole model.
        config = _tiny()
        ctx = build_experiment(config)
        (member,) = ctx.chip.chips
        total = sum(d for _, d in layer_pair_demands(ctx.model, config.chip))
        assert member.config == stage_chip_config(
            config.chip, total, config.chip_slack
        )

    def test_rejects_model_without_mvm_layers(self):
        from repro.nn.layers import Sequential, Flatten

        with pytest.raises(ValueError):
            plan_placement(Sequential(Flatten()), 1, ChipConfig())


class TestBuildExperiment:
    def test_pre_faults_injected_when_enabled(self):
        ctx = build_experiment(_tiny("none"))
        assert ctx.chip.true_crossbar_densities().mean() > 0

    def test_pre_faults_skipped_when_disabled(self):
        ctx = build_experiment(_tiny("none", pre_enabled=False))
        assert ctx.chip.true_crossbar_densities().sum() == 0

    def test_phase_fault_targeting(self):
        ctx = build_experiment(
            _tiny("none", pre_enabled=False, post_enabled=False,
                  phase_target="backward", phase_density=0.02)
        )
        fwd_faults = bwd_faults = 0
        for m in ctx.engine.all_mappings():
            for _, _, pid in m.iter_blocks():
                pair = ctx.chip.pair(pid)
                count = pair.pos.fault_map.count() + pair.neg.fault_map.count()
                if m.phase == "forward":
                    fwd_faults += count
                else:
                    bwd_faults += count
        assert fwd_faults == 0
        assert bwd_faults > 0

    def test_inject_phase_faults_density(self):
        ctx = build_experiment(_tiny("none", pre_enabled=False, post_enabled=False))
        injected = inject_phase_faults(ctx, "forward", 0.01)
        assert injected > 0


def _phase_maps(ctx, phase: str) -> list:
    """The fault maps of every crossbar holding one phase's copies."""
    maps = []
    for mapping in ctx.engine.all_mappings():
        if mapping.phase == phase:
            for _, _, pair_id in mapping.iter_blocks():
                pair = ctx.chip.pair(pair_id)
                maps += [pair.pos.fault_map, pair.neg.fault_map]
    return maps


def _replay_uniform(ctx, stream: str, maps: list, before: list, density: float,
                    post: bool) -> None:
    """Replay ``stream`` as uniform placement onto ``before`` (copies of
    ``maps`` from before the injection) and require identical cells."""
    rng = ctx.rng_hub.fresh(stream)
    sa0_p = ctx.config.faults.sa0_probability(post=post)
    for want, got in zip(before, maps):
        forbidden = np.flatnonzero(want.faulty_mask.ravel())
        count = int(round(density * want.cells))
        cells = uniform_cells(rng, want.rows, want.cols, count, forbidden=forbidden)
        is_sa0 = rng.random(cells.size) < sa0_p
        want.inject(cells[is_sa0], FaultType.SA0)
        want.inject(cells[~is_sa0], FaultType.SA1)
        np.testing.assert_array_equal(got.codes, want.codes)


class TestFaultPlacementSettings:
    """Phase faults and the chaos wave place cells as the fault config's
    spatial settings say, as the pre- and post-deployment injector does."""

    def test_unclustered_phase_faults_are_uniform_draws(self):
        ctx = build_experiment(_tiny("none", pre_enabled=False, post_enabled=False,
                                     clustered=False))
        maps = _phase_maps(ctx, "backward")
        before = [fmap.copy() for fmap in maps]
        assert inject_phase_faults(ctx, "backward", 0.02) > 0
        _replay_uniform(ctx, "phase-faults", maps, before, 0.02, post=False)

    def test_phase_faults_follow_cluster_fraction(self):
        placed = []
        for fraction in (0.0, 1.0):
            ctx = build_experiment(_tiny("none", pre_enabled=False,
                                         post_enabled=False,
                                         cluster_fraction=fraction))
            inject_phase_faults(ctx, "forward", 0.02)
            placed.append([f.codes.copy() for f in _phase_maps(ctx, "forward")])
        assert any(not np.array_equal(a, b) for a, b in zip(*placed))

    def test_wave_follows_cluster_fraction(self):
        # No cell in the cluster window: the wave draws a uniform placement.
        ctx = build_experiment(_tiny("none", post_enabled=False,
                                     cluster_fraction=0.0, wave_density=0.03))
        maps = [xb.fault_map for xb in ctx.chip.crossbars]
        before = [fmap.copy() for fmap in maps]
        assert inject_fault_wave(ctx, 0) > 0
        _replay_uniform(ctx, "fault-wave", maps, before, 0.03, post=True)


class TestRunExperiment:
    def test_result_fields_populated(self):
        result = run_experiment(_tiny("none"))
        assert result.policy == "none"
        assert 0.0 <= result.final_accuracy <= 1.0
        assert len(result.train_result.history) == 2
        assert result.wall_seconds > 0

    def test_post_faults_accumulate_over_epochs(self):
        result = run_experiment(_tiny("none", post_n=0.5, post_m=0.01))
        # chip density must exceed the pre-deployment mean after 2 epochs
        # of heavy post-deployment injection.
        assert result.mean_chip_density > 0.004

    def test_remap_d_performs_remaps(self):
        result = run_experiment(_tiny("remap-d"))
        assert result.num_remaps > 0

    def test_ideal_run_reports_zero_density(self):
        result = run_experiment(_tiny("ideal"))
        assert result.mean_chip_density == 0.0
        assert result.num_remaps == 0

    def test_determinism_same_seed(self):
        a = run_experiment(_tiny("none"))
        b = run_experiment(_tiny("none"))
        assert a.final_accuracy == b.final_accuracy
        assert a.mean_chip_density == b.mean_chip_density

    def test_summary_row_shape(self):
        result = run_experiment(_tiny("ideal"))
        row = result.summary_row()
        assert row[0] == "vgg11" and row[2] == "ideal"
