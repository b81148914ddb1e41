"""Layer hot paths against a plain-NumPy oracle, plus engine cache and
gradient-scale checks.

Every layer computes through one implementation: step-arena buffers
(pooled inside the trainer's step scope, fresh outside it), in-place
``out=`` GEMM/ufunc kernels and one ``step_weights`` probe per (forward,
layer).  The oracle functions below are the plain formulation of the
same math — fresh arrays and no ``out=`` — and every float a layer
produces, forward and backward, must equal the oracle's bit for bit.
"""

import contextlib

import numpy as np
import pytest

from repro.core.controller import build_experiment
from repro.faults.types import FaultType
from repro.nn.fault_aware import CrossbarEngine
from repro.nn.layers import BatchNorm2d, Conv2d, Linear, ReLU, Sequential
from repro.nn.tensor import Tensor, default_dtype, step_arena, step_scope
from repro.reram.chip import Chip
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)

_AXES = (0, 2, 3)


def _c4(v: np.ndarray) -> np.ndarray:
    """A per-channel vector broadcast over (N, C, H, W)."""
    return v[None, :, None, None]


# --------------------------------------------------------------------- #
# oracle: each returns (output, input grad, weight grad, bias grad)
# --------------------------------------------------------------------- #
def _im2col(x, k, stride, pad):
    n, c, h, w = x.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c, k, k, oh, ow), x.dtype)
    for i in range(k):
        i_end = i + stride * oh
        for j in range(k):
            j_end = j + stride * ow
            cols[:, :, i, j] = xp[:, :, i:i_end:stride, j:j_end:stride]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, c * k * k), oh, ow


def _col2im(dcols, x_shape, k, stride, pad):
    n, c, h, w = x_shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    d = dcols.reshape(n, oh, ow, c, k, k).transpose(0, 3, 4, 5, 1, 2)
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dcols.dtype)
    for i in range(k):
        i_end = i + stride * oh
        for j in range(k):
            j_end = j + stride * ow
            xp[:, :, i:i_end:stride, j:j_end:stride] += d[:, :, i, j]
    return xp[:, :, pad:pad + h, pad:pad + w]


def conv2d_oracle(x, grad, w_fwd, w_bwd, bias, clamp_grad, k, stride, pad):
    co = w_fwd.shape[0]
    cols, oh, ow = _im2col(x, k, stride, pad)
    y = cols @ w_fwd.T
    if bias is not None:
        y = y + bias
    out = y.reshape(x.shape[0], oh, ow, co).transpose(0, 3, 1, 2)
    gy = grad.transpose(0, 2, 3, 1).reshape(-1, co)
    dw = clamp_grad(gy.T @ cols)
    db = gy.sum(axis=0) if bias is not None else None
    dx = _col2im(gy @ w_bwd, x.shape, k, stride, pad)
    return out, dx, dw, db


def linear_oracle(x, grad, w_fwd, w_bwd, bias, clamp_grad):
    out = x @ w_fwd.T
    if bias is not None:
        out = out + bias
    db = grad.sum(axis=0) if bias is not None else None
    return out, grad @ w_bwd, clamp_grad(grad.T @ x), db


def batchnorm_train_oracle(x, grad, gamma, beta, eps):
    """Over batch statistics, which it also returns (``mean``, ``var``)."""
    mean = x.mean(axis=_AXES)
    var = x.var(axis=_AXES)
    std = np.sqrt(var + eps)
    xhat = (x - _c4(mean)) / _c4(std)
    out = _c4(gamma) * xhat + _c4(beta)
    mean_g = grad.mean(axis=_AXES, keepdims=True)
    mean_gx = (grad * xhat).mean(axis=_AXES, keepdims=True)
    dx = (_c4(gamma) / _c4(std)) * (grad - mean_g - xhat * mean_gx)
    return (out, dx, (grad * xhat).sum(axis=_AXES), grad.sum(axis=_AXES)), mean, var


def batchnorm_eval_oracle(x, grad, gamma, beta, eps, running_mean, running_var):
    std = np.sqrt(running_var + eps)
    xhat = (x - _c4(running_mean)) / _c4(std)
    out = _c4(gamma) * xhat + _c4(beta)
    dx = (_c4(gamma) / _c4(std)) * grad
    return out, dx, (grad * xhat).sum(axis=_AXES), grad.sum(axis=_AXES)


def relu_oracle(x, grad):
    return np.maximum(x, 0.0), grad * (x > 0), None, None


# --------------------------------------------------------------------- #
# driving the layers
# --------------------------------------------------------------------- #
def _faulty_engine(layer) -> CrossbarEngine:
    """Bind ``layer`` to a chip with ~5% stuck cells in both copies."""
    chip = Chip(ChipConfig(
        mesh_rows=2, mesh_cols=2, tiles_per_router=2, imas_per_tile=2,
        crossbars_per_ima=8, crossbar=CrossbarConfig(rows=16, cols=16),
    ))
    engine = CrossbarEngine(chip).bind(Sequential(layer))
    rng = np.random.default_rng(3)
    for mapping in engine.copies[layer.layer_key]:
        for _, _, pair_id in mapping.iter_blocks():
            pair = chip.pair(int(pair_id))
            for fmap in (pair.pos.fault_map, pair.neg.fault_map):
                cells = rng.choice(fmap.cells, size=fmap.cells // 20, replace=False)
                half = len(cells) // 2
                fmap.inject(cells[:half], FaultType.SA0)
                fmap.inject(cells[half:], FaultType.SA1)
    chip.bump_fault_version()
    return engine


#: case -> (layer factory, input shape as (N, H, W, C) or (N, F)).
_CASES = {
    "conv": (lambda rng: Conv2d(3, 4, 3, padding=1, rng=rng), (2, 6, 6, 3)),
    "conv_stride2": (
        lambda rng: Conv2d(4, 6, 3, stride=2, padding=1, bias=False, rng=rng),
        (2, 6, 6, 4),
    ),
    "conv_1x1_stride2": (
        lambda rng: Conv2d(4, 6, 1, stride=2, bias=False, rng=rng), (2, 6, 6, 4),
    ),
    "linear": (lambda rng: Linear(24, 5, rng=rng), (3, 24)),
    "batchnorm_train": (lambda rng: BatchNorm2d(5), (3, 4, 4, 5)),
    "batchnorm_eval": (lambda rng: BatchNorm2d(5).eval(), (3, 4, 4, 5)),
    "relu": (lambda rng: ReLU(), (2, 4, 4, 5)),
}


def _input(rng, shape, dtype) -> np.ndarray:
    """4-D inputs arrive as the transposed (N, H, W, C) views the conv
    layers produce, so layout-keeping temporaries are exercised."""
    x = rng.normal(size=shape).astype(dtype)
    return x.transpose(0, 3, 1, 2) if x.ndim == 4 else x


def _oracle(layer, x, grad, stats):
    """The oracle's 4-tuple for ``layer``, plus the batch-norm running
    statistics expected after the forward (``stats`` holds them from
    before it; None for other layers)."""
    if isinstance(layer, (Conv2d, Linear)):
        key = layer.layer_key
        w2d = layer.weight.data.reshape(layer.matrix_shape)
        w_fwd, w_bwd = layer.engine.step_weights(key, w2d)
        assert not np.array_equal(w_fwd, w2d) and not np.array_equal(w_bwd, w2d)
        bias = layer.bias.data if layer.bias is not None else None

        def clamp_grad(dw):
            return layer.engine.gradient_weight(key, dw).copy()

        if isinstance(layer, Linear):
            return linear_oracle(x, grad, w_fwd, w_bwd, bias, clamp_grad), None
        k = layer.kernel_size
        return conv2d_oracle(
            x, grad, w_fwd, w_bwd, bias, clamp_grad, k, layer.stride, layer.padding
        ), None
    if isinstance(layer, BatchNorm2d):
        g, b = layer.gamma.data, layer.beta.data
        if not layer.training:
            return batchnorm_eval_oracle(x, grad, g, b, layer.eps, *stats), stats
        want, mean, var = batchnorm_train_oracle(x, grad, g, b, layer.eps)
        rm, rv = stats
        m = layer.momentum
        return want, (rm + m * (mean - rm), rv + m * (var - rv))
    return relu_oracle(x, grad), None


def _accumulated(param, value: np.ndarray) -> np.ndarray:
    """What ``param.grad += value`` leaves in a zeroed gradient."""
    out = np.zeros_like(param.grad)
    out += value.reshape(param.shape)
    return out


def _check_step(layer, rng, shape, dtype) -> None:
    """One forward/backward of ``layer`` against the oracle, bit for bit."""
    if isinstance(layer, BatchNorm2d):
        params = [layer.gamma, layer.beta]
        stats = (layer.running_mean.copy(), layer.running_var.copy())
    else:
        params = [getattr(layer, "weight", None), getattr(layer, "bias", None)]
        stats = None
    for p in params:
        if p is not None:
            p.zero_grad()
    x = _input(rng, shape, dtype)
    xt = Tensor(x, requires_grad=True)
    out = layer(xt)
    grad = rng.normal(size=out.shape).astype(dtype)
    (want_out, want_dx, *want_grads), want_stats = _oracle(layer, x, grad, stats)
    out.backward(grad)
    np.testing.assert_array_equal(out.data, np.asarray(want_out, dtype=dtype))
    np.testing.assert_array_equal(xt.grad, want_dx)
    for p, want in zip(params, want_grads):
        if p is not None:
            np.testing.assert_array_equal(p.grad, _accumulated(p, want))
    if want_stats is not None:
        np.testing.assert_array_equal(layer.running_mean, want_stats[0])
        np.testing.assert_array_equal(layer.running_var, want_stats[1])


class TestLayerOracle:
    @pytest.mark.parametrize("in_step", [False, True], ids=["fresh", "step_arena"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_layer_matches_oracle_bit_for_bit(self, case, dtype, in_step):
        factory, shape = _CASES[case]
        rng = np.random.default_rng(9)
        with default_dtype(dtype):
            layer = factory(rng)
            if isinstance(layer, (Conv2d, Linear)):
                _faulty_engine(layer)
            if isinstance(layer, BatchNorm2d):
                layer.gamma.data[:] = rng.normal(1.0, 0.3, layer.channels)
                layer.beta.data[:] = rng.normal(0.0, 0.3, layer.channels)
                layer.running_mean[:] = rng.normal(0.0, 0.3, layer.channels)
                layer.running_var[:] = rng.uniform(0.5, 2.0, layer.channels)
            with step_scope() if in_step else contextlib.nullcontext():
                # Two steps: inside the step scope the second one runs on
                # the first one's recycled (dirty) arena buffers.
                for _ in range(2):
                    _check_step(layer, rng, shape, dtype)
                    step_arena().reset()


# --------------------------------------------------------------------- #
# engine caches and gradient-scale replication
# --------------------------------------------------------------------- #
def _config(policy: str = "remap-d", **train_kw) -> ExperimentConfig:
    train = dict(
        model="vgg11", epochs=2, batch_size=16, n_train=48, n_test=32,
        width_mult=0.125,
    )
    train.update(train_kw)
    return ExperimentConfig(
        train=TrainConfig(**train),
        chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
        faults=FaultConfig(post_n=0.5, post_m=0.01),
        policy=policy,
        seed=11,
    )


class TestEngineCaches:
    def test_reset_cache_stats_zeroes_counters(self):
        ctx = build_experiment(_config(epochs=1))
        ctx.trainer.train_epoch(0)
        stats = ctx.engine.cache_stats()
        assert sum(stats.values()) > 0
        ctx.engine.reset_cache_stats()
        assert ctx.engine.cache_stats() == {
            "hits": 0, "misses": 0, "recomputes": 0,
        }

    def test_invalidate_drops_step_cache_and_buffers(self):
        ctx = build_experiment(_config(epochs=1))
        ctx.trainer.train_epoch(0)
        engine = ctx.engine
        assert engine._eff_cache and engine._eff_buffers
        engine.invalidate_weight_cache()
        assert not engine._eff_cache
        assert not engine._eff_buffers
        # Training still works (and re-populates) after invalidation.
        ctx.trainer.train_epoch(0)
        assert engine._eff_cache


class TestGradScaleReplication:
    def test_stale_until_first_backward_then_exportable(self):
        ctx = build_experiment(_config(epochs=1))
        engine = ctx.engine
        count = engine.grad_scale_count()
        assert count > 0
        assert engine.grad_scales_stale()
        out = np.empty(count)
        engine.export_grad_scales(out)
        assert np.isnan(out).any()
        ctx.trainer.train_epoch(0)
        assert not engine.grad_scales_stale()
        engine.export_grad_scales(out)
        assert np.isfinite(out).all()

    def test_import_adopts_calibrated_scales(self):
        cfg = _config(epochs=1)
        src = build_experiment(cfg)
        src.trainer.train_epoch(0)
        scales = np.empty(src.engine.grad_scale_count())
        src.engine.export_grad_scales(scales)
        dst = build_experiment(cfg)
        assert dst.engine.grad_scales_stale()
        dst.engine.import_grad_scales(scales)
        assert not dst.engine.grad_scales_stale()
        back = np.empty_like(scales)
        dst.engine.export_grad_scales(back)
        np.testing.assert_array_equal(scales, back)

    def test_never_stale_without_faults(self):
        ctx = build_experiment(_config(policy="ideal", epochs=1))
        assert not ctx.engine.grad_scales_stale()
