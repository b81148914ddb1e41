"""Recomputation-elimination tests: effective-weight cache + no_grad path.

The cache and the autograd-free inference mode are pure optimisations —
every test here pins down that they change *nothing* numerically (bit
identity), that every mutation channel (weights, faults, overrides)
invalidates the cache rather than serving a stale clamp, and that the
cache does exactly the work it is counted to do.
"""

import numpy as np
import pytest

from repro.core.controller import apply_epoch_end, build_experiment
from repro.faults.types import FaultType
from repro.faults.variation import VariationModel
from repro.nn.data import cached_dataset, clear_dataset_cache, make_dataset
from repro.nn.fault_aware import CrossbarEngine
from repro.nn.layers import Conv2d, Flatten, Linear, Sequential
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor, is_grad_enabled, no_grad
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)
from repro.utils.rng import derive_rng
from repro.reram.chip import Chip


@pytest.fixture
def chip() -> Chip:
    return Chip(ChipConfig(
        mesh_rows=2, mesh_cols=2, tiles_per_router=2, imas_per_tile=2,
        crossbars_per_ima=8, crossbar=CrossbarConfig(rows=16, cols=16),
    ))


def _inject_some_faults(chip: Chip, mapping, count: int = 10) -> None:
    pair = chip.pair(int(mapping.pair_ids[0, 0]))
    pair.pos.fault_map.inject(np.arange(count), FaultType.SA1)
    pair.neg.fault_map.inject(np.arange(count, 2 * count), FaultType.SA0)
    chip.bump_fault_version()


def _fwd(engine: CrossbarEngine, layer, w2d: np.ndarray) -> np.ndarray:
    """The forward-copy effective weight, as an inference read sees it."""
    return engine.step_weights(layer.layer_key, w2d, need_backward=False)[0]


@pytest.fixture
def faulty_bound(chip, rng):
    model = Sequential(
        Conv2d(3, 4, 3, padding=1, rng=rng),
        Flatten(),
        Linear(4 * 8 * 8, 5, rng=rng),
    )
    engine = CrossbarEngine(chip).bind(model)
    for key in engine.layer_keys():
        fwd, bwd = engine.copies[key]
        _inject_some_faults(chip, fwd)
        _inject_some_faults(chip, bwd)
    return model, engine


class TestNoGrad:
    def test_logits_bit_identical(self, faulty_bound, rng):
        model, engine = faulty_bound
        x = rng.normal(size=(4, 3, 8, 8))
        with_graph = model(Tensor(x)).data.copy()
        with no_grad():
            without_graph = model(Tensor(x)).data.copy()
        np.testing.assert_array_equal(with_graph, without_graph)

    def test_no_graph_is_captured(self, faulty_bound, rng):
        model, _ = faulty_bound
        with no_grad():
            out = model(Tensor(rng.normal(size=(2, 3, 8, 8)), requires_grad=True))
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        with pytest.raises(RuntimeError):
            out.backward(np.ones_like(out.data))

    def test_flag_restores_on_exit(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with pytest.raises(ZeroDivisionError):
                with no_grad():
                    _ = 1 / 0
        assert is_grad_enabled()


class TestEffectiveWeightCache:
    def test_eval_batches_hit_the_cache(self, faulty_bound, rng):
        model, engine = faulty_bound
        engine.cache_hits = engine.cache_misses = 0
        with no_grad():
            for _ in range(5):
                model(Tensor(rng.normal(size=(2, 3, 8, 8))))
        # 2 MVM layers: one fwd-clamp miss each, then pure hits.
        assert engine.cache_misses == 2
        assert engine.cache_hits == 2 * 4

    def test_cached_values_bit_identical(self, faulty_bound):
        model, engine = faulty_bound
        conv = model.items[0]
        w2d = conv.weight.data.reshape(conv.matrix_shape)
        first = _fwd(engine, conv, w2d).copy()
        engine.invalidate_weight_cache()
        recomputed = _fwd(engine, conv, w2d)
        assert engine.cache_misses == 2
        np.testing.assert_array_equal(first, recomputed)

    def test_weight_write_invalidates(self, faulty_bound):
        model, engine = faulty_bound
        conv = model.items[0]
        w2d = conv.weight.data.reshape(conv.matrix_shape)
        stale = _fwd(engine, conv, w2d).copy()
        conv.weight.data *= 2.0
        conv.weight.bump_version()
        fresh = _fwd(engine, conv, w2d).copy()
        assert not np.array_equal(stale, fresh)
        engine.invalidate_weight_cache()
        np.testing.assert_array_equal(fresh, _fwd(engine, conv, w2d))

    def test_sgd_step_invalidates(self, faulty_bound):
        model, engine = faulty_bound
        conv = model.items[0]
        w2d = conv.weight.data.reshape(conv.matrix_shape)
        stale = _fwd(engine, conv, w2d).copy()
        opt = SGD(model.parameters(), lr=0.5, momentum=0.0)
        conv.weight.grad[...] = 1.0
        opt.step()
        fresh = _fwd(engine, conv, w2d)
        assert not np.array_equal(stale, fresh)

    def test_fault_injection_invalidates(self, faulty_bound, chip):
        model, engine = faulty_bound
        conv = model.items[0]
        fwd, _ = engine.copies[conv.layer_key]
        w2d = conv.weight.data.reshape(conv.matrix_shape)
        stale = _fwd(engine, conv, w2d).copy()
        pair = chip.pair(int(fwd.pair_ids[0, 0]))
        pair.pos.fault_map.codes[:] = FaultType.SA1
        chip.bump_fault_version()
        fresh = _fwd(engine, conv, w2d).copy()
        assert not np.array_equal(stale, fresh)
        engine.invalidate_weight_cache()
        np.testing.assert_array_equal(fresh, _fwd(engine, conv, w2d))

    def test_override_invalidates(self, faulty_bound):
        model, engine = faulty_bound
        conv = model.items[0]
        w2d = conv.weight.data.reshape(conv.matrix_shape)
        corrupted = _fwd(engine, conv, w2d).copy()
        assert not np.array_equal(corrupted, w2d)
        engine.set_override(conv.layer_key, np.ones(conv.matrix_shape, bool), None)
        np.testing.assert_array_equal(_fwd(engine, conv, w2d), w2d)
        engine.clear_overrides()
        np.testing.assert_array_equal(_fwd(engine, conv, w2d), corrupted)

    def test_variation_bypasses_cache(self, faulty_bound, rng):
        model, engine = faulty_bound
        conv = model.items[0]
        engine.set_variation(
            VariationModel(program_sigma=0.1, read_sigma=0.05),
            derive_rng(3, "variation"),
        )
        w2d = conv.weight.data.reshape(conv.matrix_shape)
        a = _fwd(engine, conv, w2d).copy()
        b = _fwd(engine, conv, w2d).copy()
        assert not np.array_equal(a, b)  # noise redrawn per read, no reuse

    def test_invalidate_weight_cache_forces_recompute(self, faulty_bound):
        model, engine = faulty_bound
        conv = model.items[0]
        w2d = conv.weight.data.reshape(conv.matrix_shape)
        _fwd(engine, conv, w2d)
        engine.cache_hits = engine.cache_misses = 0
        engine.invalidate_weight_cache()
        _fwd(engine, conv, w2d)
        assert engine.cache_misses == 1 and engine.cache_hits == 0


class TestCacheCounting:
    def test_train_eval_train_counts(self):
        """Cache work for train step -> fault bump + eval -> train step.

        A train step reads both copies of every layer; eval after a fault
        bump reads only the forward copy (one miss per layer on the first
        batch, hits after); the next train step finds the forward copy
        cached at the same key and computes just the backward one.
        """
        cfg = ExperimentConfig(
            train=TrainConfig(
                model="vgg11", epochs=2, batch_size=16, n_train=16, n_test=32,
                width_mult=0.125, eval_batch=8,
            ),
            chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
            faults=FaultConfig(post_n=0.5, post_m=0.01),
            policy="remap-d",
            seed=11,
        )
        ctx = build_experiment(cfg)
        engine, trainer = ctx.engine, ctx.trainer
        assert len(engine.layer_keys()) == 9
        engine.reset_cache_stats()
        trainer.train_epoch(0)  # one step
        assert engine.cache_stats() == {"hits": 0, "misses": 18, "recomputes": 18}
        ctx.chip.bump_fault_version()
        trainer.predict(ctx.dataset.x_test)  # four batches
        assert engine.cache_stats() == {"hits": 27, "misses": 27, "recomputes": 27}
        trainer.train_epoch(1)
        assert engine.cache_stats() == {"hits": 36, "misses": 36, "recomputes": 36}


def _tiny_experiment() -> ExperimentConfig:
    return ExperimentConfig(
        train=TrainConfig(
            model="vgg11", epochs=2, batch_size=16, n_train=48, n_test=32,
            width_mult=0.125,
        ),
        chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
        faults=FaultConfig(phase_target="backward", phase_density=0.01),
        policy="none",
        seed=7,
    )


class TestEndToEndEquivalence:
    def test_predict_matches_graph_building_forward(self):
        ctx = build_experiment(_tiny_experiment())
        trainer = ctx.trainer
        bist_rng = ctx.rng_hub.stream("bist")
        for epoch in range(ctx.config.train.epochs):
            trainer.train_epoch(epoch)
            apply_epoch_end(ctx, bist_rng, epoch, trainer)
        x = ctx.dataset.x_test
        fast = trainer.predict(x)
        # The graph-building forward reads both copies afresh, builds the
        # autograd graph and takes fresh buffers for every temporary.
        ctx.engine.invalidate_weight_cache()
        ctx.model.eval()
        b = trainer.eval_batch_size()
        slow = np.concatenate([
            ctx.model(Tensor(x[i:i + b])).data for i in range(0, len(x), b)
        ])
        np.testing.assert_array_equal(fast, slow)


class TestDatasetCache:
    def test_hit_returns_same_object(self):
        clear_dataset_cache()
        a = cached_dataset("synth-cifar10", 32, 16, 32, seed=5)
        b = cached_dataset("synth-cifar10", 32, 16, 32, seed=5)
        assert a is b

    def test_matches_direct_generation(self):
        clear_dataset_cache()
        cached = cached_dataset("synth-svhn", 32, 16, 32, seed=9)
        direct = make_dataset("synth-svhn", 32, 16, 32, derive_rng(9, "data"))
        np.testing.assert_array_equal(cached.x_train, direct.x_train)
        np.testing.assert_array_equal(cached.y_test, direct.y_test)

    def test_distinct_recipes_distinct_entries(self):
        clear_dataset_cache()
        a = cached_dataset("synth-cifar10", 32, 16, 32, seed=5)
        b = cached_dataset("synth-cifar10", 32, 16, 32, seed=6)
        assert not np.array_equal(a.x_train, b.x_train)

    def test_cached_arrays_are_read_only(self):
        clear_dataset_cache()
        ds = cached_dataset("synth-cifar10", 32, 16, 32, seed=5)
        with pytest.raises(ValueError):
            ds.x_train[0, 0, 0, 0] = 1.0
