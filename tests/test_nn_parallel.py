"""Data-parallel training: worker-count-invariant numerics.

The sharded SPMD recipe is defined over ``TrainConfig.grad_shards``
micro-shards, never over the worker count — so 1 rank (in-process) and N
ranks (worker processes, fork or spawn) must produce bit-identical
losses, weights and batch-norm statistics, including across the
controller's epoch-end transitions (post-deployment faults, BIST,
Remap-D remaps) which worker replicas replay from the shared RNG
streams, and the same test accuracy, which live ranks score eval batch
by eval batch.
"""

import multiprocessing as mp
from dataclasses import replace

import numpy as np
import pytest

from repro.analog import AnalogConfig, VariationModel
from repro.core.controller import apply_epoch_end, build_experiment, run_experiment
from repro.nn.parallel import DataParallelTrainer, _shard_bounds
from repro.nn.trainer import Trainer
from repro.telemetry import Telemetry
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)

HAVE_FORK = "fork" in mp.get_all_start_methods()


def _config(workers: int, policy: str = "remap-d", **train_kw) -> ExperimentConfig:
    # Eval batches of 12, 12 and 8: with ranks live the shared
    # evaluation splits unevenly and ends on a short batch.
    train = dict(
        model="vgg11", epochs=2, batch_size=16, n_train=48, n_test=32,
        eval_batch=12, width_mult=0.125, data_parallel=workers,
        grad_shards=4,
    )
    train.update(train_kw)
    return ExperimentConfig(
        train=TrainConfig(**train),
        chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
        faults=FaultConfig(post_n=0.5, post_m=0.01),
        policy=policy,
        seed=11,
    )


def _train(config: ExperimentConfig, start_method: str | None = None):
    """Full dp run with the controller's epoch-end replay protocol: the
    ranks replay the transition while rank 0 applies it, and the final
    evaluation is scored by every live rank."""
    ctx = build_experiment(config)
    trainer = ctx.trainer
    if start_method is not None:
        assert isinstance(trainer, DataParallelTrainer)
        trainer.start_method = start_method
    bist_rng = ctx.rng_hub.stream("bist")
    losses = []
    try:
        for epoch in range(config.train.epochs):
            losses.append(trainer.train_epoch(epoch))
            broadcast = getattr(trainer, "broadcast_epoch_end", None)
            if broadcast is not None:
                broadcast(epoch)
            apply_epoch_end(ctx, bist_rng, epoch, trainer)
        acc = trainer.evaluate()
        params = [p.data.copy() for p in trainer.optimizer.parameters]
        from repro.nn.layers import BatchNorm2d

        bn_stats = [
            (m.running_mean.copy(), m.running_var.copy())
            for _, m in ctx.model.named_modules()
            if isinstance(m, BatchNorm2d)
        ]
    finally:
        shutdown = getattr(trainer, "shutdown", None)
        if shutdown is not None:
            shutdown()
    return losses, acc, params, bn_stats


def _assert_identical(a, b):
    assert a[0] == b[0], "per-epoch losses diverged"
    assert a[1] == b[1], "test accuracy diverged"
    for pa, pb in zip(a[2], b[2]):
        np.testing.assert_array_equal(pa, pb)
    for (ma, va), (mb, vb) in zip(a[3], b[3]):
        np.testing.assert_array_equal(ma, mb)
        np.testing.assert_array_equal(va, vb)


class TestWorkerCountInvariance:
    @pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
    def test_one_vs_two_ranks_fork(self):
        base = _train(_config(1))
        dp2 = _train(_config(2), start_method="fork")
        _assert_identical(base, dp2)

    def test_one_vs_two_ranks_spawn(self):
        base = _train(_config(1))
        dp2 = _train(_config(2), start_method="spawn")
        _assert_identical(base, dp2)

    @pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
    def test_faultfree_three_ranks(self):
        base = _train(_config(1, policy="ideal", epochs=1))
        dp3 = _train(_config(3, policy="ideal", epochs=1), start_method="fork")
        _assert_identical(base, dp3)

    def test_run_experiment_end_to_end(self):
        """The controller path: dp trainer + fit + hooks + shutdown."""
        result = run_experiment(_config(2, epochs=1))
        assert len(result.train_result.history) == 1
        assert np.isfinite(result.train_result.history[0]["loss"])


class TestWorldResolution:
    def test_config_rejects_more_workers_than_shards(self):
        with pytest.raises(ValueError):
            TrainConfig(data_parallel=8, grad_shards=4)

    def test_controller_reads_data_parallel(self, monkeypatch):
        # The rank count comes from TrainConfig.data_parallel alone: 0
        # builds the plain in-process trainer, N a sharded trainer that
        # asks for N ranks, and the environment overrides neither (the
        # former REPRO_TRAIN_WORKERS knob is gone).
        monkeypatch.setenv("REPRO_TRAIN_WORKERS", "2")
        ctx = build_experiment(_config(0, epochs=1))
        assert type(ctx.trainer) is Trainer
        ctx = build_experiment(_config(3, epochs=1))
        try:
            assert isinstance(ctx.trainer, DataParallelTrainer)
            assert ctx.trainer.requested_world == 3
        finally:
            ctx.trainer.shutdown()
        with pytest.raises(ValueError):
            TrainConfig(data_parallel=-1)

    def test_only_read_noise_falls_back_to_one_rank(self):
        # Read noise is redrawn per read, so ranks could not stay in
        # lockstep: two requested ranks train on one.  Drift is
        # deterministic per epoch and keeps both.
        for variation, world in (
            (VariationModel(read_sigma=0.02), 1),
            (VariationModel(drift_per_epoch=0.1), 2),
        ):
            tel = Telemetry(echo=False)
            config = replace(
                _config(2, epochs=1), analog=AnalogConfig(variation=variation)
            )
            ctx = build_experiment(config, telemetry=tel)
            try:
                assert np.isfinite(ctx.trainer.train_epoch(0))
            finally:
                ctx.trainer.shutdown()
            assert ctx.trainer.world == world, variation
            reasons = [e["payload"]["reason"] for e in tel.filter("dp_fallback")]
            if world == 1:
                assert any("variation" in r for r in reasons), reasons
            else:
                assert reasons == [], reasons

    def test_restart_after_shutdown_raises(self):
        ctx = build_experiment(_config(1, epochs=1))
        trainer = ctx.trainer
        assert isinstance(trainer, DataParallelTrainer)
        trainer.train_epoch(0)
        trainer.shutdown()
        with pytest.raises(RuntimeError):
            trainer.train_epoch(1)
        # The one eval rule, which every rank and a lone trainer score
        # by: over any world the shares of the eval batches (12, 12 and
        # 8 images) add up to the whole test split's count.
        whole = trainer.count_correct(ctx.dataset.x_test, ctx.dataset.y_test)
        for world in range(1, 5):
            shares = [trainer.correct_share(r, world) for r in range(world)]
            assert sum(shares) == whole, (world, shares)

    def test_shutdown_idempotent(self):
        ctx = build_experiment(_config(1, epochs=1))
        ctx.trainer.shutdown()
        ctx.trainer.shutdown()


class TestShardBounds:
    @pytest.mark.parametrize("n,shards", [(16, 4), (13, 4), (3, 4), (1, 4), (48, 5)])
    def test_matches_array_split(self, n, shards):
        bounds = _shard_bounds(n, shards)
        splits = np.array_split(np.arange(n), shards)
        assert len(bounds) == shards
        for (lo, hi), part in zip(bounds, splits):
            assert (lo, hi) == ((part[0], part[-1] + 1) if len(part) else (lo, lo))
        assert bounds[0][0] == 0 and bounds[-1][1] == n
