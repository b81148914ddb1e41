"""CrossbarEngine tests: binding, clamped weight paths, overrides."""

import numpy as np
import pytest

from repro.faults.types import FaultType
from repro.nn.fault_aware import CrossbarEngine
from repro.nn.layers import Conv2d, Linear, Sequential, Flatten
from repro.nn.models import build_model
from repro.nn.tensor import Tensor
from repro.reram.chip import Chip
from repro.utils.config import ChipConfig, CrossbarConfig


@pytest.fixture
def chip() -> Chip:
    return Chip(ChipConfig(
        mesh_rows=2, mesh_cols=2, tiles_per_router=2, imas_per_tile=2,
        crossbars_per_ima=8, crossbar=CrossbarConfig(rows=16, cols=16),
    ))


@pytest.fixture
def bound(chip, rng):
    model = Sequential(
        Conv2d(3, 4, 3, padding=1, rng=rng),
        Flatten(),
    )
    # wrap in a module exposing named_modules correctly
    engine = CrossbarEngine(chip)
    engine.bind(model)
    return model, engine


class TestBinding:
    def test_two_copies_per_layer(self, chip, rng):
        model = Sequential(
            Conv2d(3, 8, 3, padding=1, rng=rng),
            Conv2d(8, 8, 3, padding=1, rng=rng),
            Flatten(),
            Linear(8, 4, rng=rng),
        )
        engine = CrossbarEngine(chip).bind(model)
        n_layers = sum(
            1 for _, m in model.named_modules() if isinstance(m, (Conv2d, Linear))
        )
        assert len(engine.copies) == n_layers
        for fwd, bwd in engine.copies.values():
            assert fwd.phase == "forward" and bwd.phase == "backward"
            # orientations are transposes of each other
            assert fwd.matrix_shape == bwd.matrix_shape[::-1]

    def test_bind_requires_mvm_layers(self, chip):
        with pytest.raises(ValueError):
            CrossbarEngine(chip).bind(Sequential(Flatten()))

    def test_unbind_restores_ideal_execution(self, chip, rng):
        model = Sequential(Conv2d(1, 2, 3, rng=rng))
        engine = CrossbarEngine(chip).bind(model)
        engine.unbind(model)
        assert model.items[0].engine is None


class TestWeightPaths:
    def test_fault_free_paths_are_identity(self, bound, rng):
        model, engine = bound
        conv = model.items[0]
        w2d = conv.weight.data.reshape(conv.matrix_shape)
        w_fwd, w_bwd = engine.step_weights(conv.layer_key, w2d)
        np.testing.assert_array_equal(w_fwd, w2d)
        np.testing.assert_array_equal(w_bwd, w2d)
        np.testing.assert_array_equal(engine.gradient_weight(conv.layer_key, w2d), w2d)

    def test_phase_isolation(self, bound, chip, rng):
        """Faults on the backward copy leave the forward path untouched."""
        model, engine = bound
        conv = model.items[0]
        _, bwd = engine.copies[conv.layer_key]
        pair = chip.pair(int(bwd.pair_ids[0, 0]))
        pair.pos.fault_map.inject(np.arange(12), FaultType.SA1)
        chip.bump_fault_version()
        w2d = conv.weight.data.reshape(conv.matrix_shape)
        w_fwd, w_bwd = engine.step_weights(conv.layer_key, w2d)
        np.testing.assert_array_equal(w_fwd, w2d)
        assert (w_bwd != w2d).any()

    def test_faults_disabled_bypasses_everything(self, bound, chip):
        model, engine = bound
        conv = model.items[0]
        _, bwd = engine.copies[conv.layer_key]
        chip.pair(int(bwd.pair_ids[0, 0])).pos.fault_map.inject(
            np.arange(5), FaultType.SA0
        )
        chip.bump_fault_version()
        engine.faults_enabled = False
        w2d = conv.weight.data.reshape(conv.matrix_shape)
        np.testing.assert_array_equal(engine.step_weights(conv.layer_key, w2d)[1], w2d)

    def test_override_neutralises_faults(self, bound, chip):
        model, engine = bound
        conv = model.items[0]
        fwd, _ = engine.copies[conv.layer_key]
        pair = chip.pair(int(fwd.pair_ids[0, 0]))
        pair.pos.fault_map.inject(np.arange(8), FaultType.SA1)
        chip.bump_fault_version()
        w2d = conv.weight.data.reshape(conv.matrix_shape)
        corrupted, _ = engine.step_weights(conv.layer_key, w2d)
        assert (corrupted != w2d).any()
        override = np.ones(conv.matrix_shape, dtype=bool)
        engine.set_override(conv.layer_key, override, None)
        np.testing.assert_array_equal(engine.step_weights(conv.layer_key, w2d)[0], w2d)

    def test_override_requires_bool(self, bound):
        model, engine = bound
        conv = model.items[0]
        with pytest.raises(TypeError):
            engine.set_override(conv.layer_key, np.ones(conv.matrix_shape), None)

    def test_override_unknown_key(self, bound):
        _, engine = bound
        with pytest.raises(KeyError):
            engine.set_override("nope", None, None)


class TestEndToEndLayerExecution:
    def test_forward_uses_clamped_weights(self, chip, rng):
        conv = Conv2d(1, 2, 3, padding=1, bias=False, rng=rng)
        model = Sequential(conv)
        engine = CrossbarEngine(chip).bind(model)
        fwd, _ = engine.copies[conv.layer_key]
        pair = chip.pair(int(fwd.pair_ids[0, 0]))
        pair.pos.fault_map.codes[:] = FaultType.SA1  # everything stuck on
        chip.bump_fault_version()
        x = Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True)
        out_faulty = model(x).data
        engine.faults_enabled = False
        out_clean = model(Tensor(x.data)).data
        assert not np.allclose(out_faulty, out_clean)

    def test_gradient_corruption_flows_into_weight_grad(self, chip, rng):
        conv = Conv2d(1, 2, 3, padding=1, bias=False, rng=rng)
        model = Sequential(conv)
        engine = CrossbarEngine(chip).bind(model)
        _, bwd = engine.copies[conv.layer_key]
        pair = chip.pair(int(bwd.pair_ids[0, 0]))
        pair.pos.fault_map.inject(np.array([0]), FaultType.SA1)
        chip.bump_fault_version()

        x = Tensor(rng.normal(size=(2, 1, 4, 4)), requires_grad=True)
        (model(x) * model(x)).sum().backward()
        corrupted = conv.weight.grad.copy()

        conv.zero_grad()
        engine.faults_enabled = False
        x2 = Tensor(x.data, requires_grad=True)
        (model(x2) * model(x2)).sum().backward()
        clean = conv.weight.grad.copy()
        assert not np.allclose(corrupted, clean)
