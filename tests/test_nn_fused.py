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
import threading

import numpy as np
import pytest

from repro.core.controller import build_experiment
from repro.faults.types import FaultType
from repro.nn import functional as F
from repro.nn.fault_aware import CrossbarEngine
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
)
from repro.nn.tensor import Tensor, default_dtype, no_grad, step_arena, step_scope
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


def conv2d_forward_oracle(x, w_fwd, bias, k, stride, pad):
    """The conv output and the patch matrix behind it."""
    cols, oh, ow = _im2col(x, k, stride, pad)
    y = cols @ w_fwd.T
    if bias is not None:
        y = y + bias
    return y.reshape(x.shape[0], oh, ow, w_fwd.shape[0]).transpose(0, 3, 1, 2), cols


def conv2d_oracle(x, grad, w_fwd, w_bwd, bias, clamp_grad, k, stride, pad):
    co = w_fwd.shape[0]
    out, cols = conv2d_forward_oracle(x, w_fwd, bias, k, stride, pad)
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
    """In float64 over the float64 running statistics; the output and the
    input gradient are each rounded once to the input's dtype."""
    std = np.sqrt(running_var + eps)
    xhat = (x - _c4(running_mean)) / _c4(std)
    out = (_c4(gamma) * xhat + _c4(beta)).astype(x.dtype)
    dx = ((_c4(gamma) / _c4(std)) * grad).astype(x.dtype)
    return out, dx, (grad * xhat).sum(axis=_AXES), grad.sum(axis=_AXES)


def relu_oracle(x, grad):
    # The input gradient feeds batch-norm reductions: C-contiguous.
    return np.maximum(x, 0.0), np.ascontiguousarray(grad * (x > 0)), None, None


def maxpool_oracle(x, grad, k):
    n, c, h, w = x.shape
    flat = (
        x.reshape(n, c, h // k, k, w // k, k)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h // k, w // k, k * k)
    )
    arg = flat.argmax(axis=-1)[..., None]
    gflat = np.zeros_like(flat)
    np.put_along_axis(gflat, arg, grad[..., None], axis=-1)
    dx = (
        gflat.reshape(n, c, h // k, w // k, k, k)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h, w)
    )
    return np.take_along_axis(flat, arg, axis=-1)[..., 0], dx, None, None


def global_avgpool_oracle(x, grad):
    h, w = x.shape[2:]
    dx = np.broadcast_to(grad[:, :, None, None] * (1.0 / (h * w)), x.shape).copy()
    return x.mean(axis=(2, 3)), dx, None, None


def concat_self_oracle(x, grad):
    c = x.shape[1]
    return np.concatenate([x, x], axis=1), grad[:, :c] + grad[:, c:], None, None


class _ConcatSelf(Module):
    """``concat_channels`` of one input with itself: its gradient is the
    sum of the two channel slices."""

    def forward(self, x: Tensor) -> Tensor:
        return F.concat_channels([x, x])


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


#: case -> (layer factory, input shape as (N, C, H, W) or (N, F)).  A 4-D
#: input arrives as the transposed (N, H, W, C)-memory view the conv
#: layers produce, or, for the ``_nchw`` cases, C-contiguous: the batch
#: input of the stem and the max-pool output every later conv of vgg and
#: squeezenet reads.  Batch norm and max pooling walk the two layouts
#: along different rows, so each runs in both; ``maxpool_1x1`` is vgg's
#: last pool (a 1x1 output) over an odd channel count.
_CASES = {
    "conv": (lambda rng: Conv2d(3, 4, 3, padding=1, rng=rng), (2, 3, 6, 6)),
    "conv_nchw": (lambda rng: Conv2d(3, 4, 3, padding=1, rng=rng), (2, 3, 6, 6)),
    "conv_stride2": (
        lambda rng: Conv2d(4, 6, 3, stride=2, padding=1, bias=False, rng=rng),
        (2, 4, 6, 6),
    ),
    "conv_stride2_nchw": (
        lambda rng: Conv2d(4, 6, 3, stride=2, padding=1, bias=False, rng=rng),
        (2, 4, 6, 6),
    ),
    "conv_1x1_stride2": (
        lambda rng: Conv2d(4, 6, 1, stride=2, bias=False, rng=rng), (2, 4, 6, 6),
    ),
    "conv_1x1": (lambda rng: Conv2d(4, 6, 1, bias=False, rng=rng), (2, 4, 5, 5)),
    "conv_1x1_nchw": (lambda rng: Conv2d(4, 6, 1, rng=rng), (2, 4, 5, 5)),
    "linear": (lambda rng: Linear(24, 5, rng=rng), (3, 24)),
    "batchnorm_train": (lambda rng: BatchNorm2d(5), (3, 5, 4, 4)),
    "batchnorm_train_nchw": (lambda rng: BatchNorm2d(5), (3, 5, 4, 4)),
    "batchnorm_eval": (lambda rng: BatchNorm2d(5).eval(), (3, 5, 4, 4)),
    "batchnorm_eval_nchw": (lambda rng: BatchNorm2d(5).eval(), (3, 5, 4, 4)),
    "relu": (lambda rng: ReLU(), (2, 5, 4, 4)),
    "maxpool": (lambda rng: MaxPool2d(2), (2, 5, 4, 6)),
    "maxpool_nchw": (lambda rng: MaxPool2d(2), (2, 5, 4, 6)),
    "maxpool_1x1": (lambda rng: MaxPool2d(2), (3, 7, 2, 2)),
    "maxpool_1x1_nchw": (lambda rng: MaxPool2d(2), (3, 7, 2, 2)),
    "maxpool_k3": (lambda rng: MaxPool2d(3), (2, 3, 6, 9)),
    "global_avgpool": (lambda rng: GlobalAvgPool2d(), (2, 5, 3, 4)),
    "concat": (lambda rng: _ConcatSelf(), (2, 3, 4, 4)),
}


def _input(rng, shape, dtype, nchw=False) -> np.ndarray:
    """A random input of logical shape ``shape`` in the case's layout."""
    if len(shape) != 4 or nchw:
        return rng.normal(size=shape).astype(dtype)
    n, c, h, w = shape
    return rng.normal(size=(n, h, w, c)).astype(dtype).transpose(0, 3, 1, 2)


def _mvm_weights(layer):
    """A faulty-engine layer's clamped (forward, backward) matrices, bias
    and weight-gradient clamp."""
    key = layer.layer_key
    w2d = layer.weight.data.reshape(layer.matrix_shape)
    w_fwd, w_bwd = layer.engine.step_weights(key, w2d)
    assert not np.array_equal(w_fwd, w2d) and not np.array_equal(w_bwd, w2d)
    bias = layer.bias.data if layer.bias is not None else None

    def clamp_grad(dw):
        return layer.engine.gradient_weight(key, dw).copy()

    return w_fwd, w_bwd, bias, clamp_grad


def _conv_oracle(layer, x, grad):
    k, st, pd = layer.kernel_size, layer.stride, layer.padding
    return conv2d_oracle(x, grad, *_mvm_weights(layer), k, st, pd)


def _oracle(layer, x, grad, stats):
    """The oracle's 4-tuple for ``layer``, plus the batch-norm running
    statistics expected after the forward (``stats`` holds them from
    before it; None for other layers)."""
    if isinstance(layer, Linear):
        return linear_oracle(x, grad, *_mvm_weights(layer)), None
    if isinstance(layer, Conv2d):
        return _conv_oracle(layer, x, grad), None
    if isinstance(layer, BatchNorm2d):
        g, b = layer.gamma.data, layer.beta.data
        if not layer.training:
            return batchnorm_eval_oracle(x, grad, g, b, layer.eps, *stats), stats
        want, mean, var = batchnorm_train_oracle(x, grad, g, b, layer.eps)
        rm, rv = stats
        m = layer.momentum
        return want, (rm + m * (mean - rm), rv + m * (var - rv))
    if isinstance(layer, MaxPool2d):
        return maxpool_oracle(x, grad, layer.kernel), None
    if isinstance(layer, GlobalAvgPool2d):
        return global_avgpool_oracle(x, grad), None
    if isinstance(layer, _ConcatSelf):
        return concat_self_oracle(x, grad), None
    return relu_oracle(x, grad), None


def _accumulated(param, value: np.ndarray) -> np.ndarray:
    """What ``param.grad += value`` leaves in a zeroed gradient."""
    out = np.zeros_like(param.grad)
    out += value.reshape(param.shape)
    return out


def _check_step(layer, rng, shape, dtype, nchw=False) -> None:
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
    x = _input(rng, shape, dtype, nchw)
    xt = Tensor(x, requires_grad=True)
    out = layer(xt)
    grad = rng.normal(size=out.shape).astype(dtype)
    (want_out, want_dx, *want_grads), want_stats = _oracle(layer, x, grad, stats)
    out.backward(grad)
    np.testing.assert_array_equal(out.data, np.asarray(want_out, dtype=dtype))
    np.testing.assert_array_equal(xt.grad, want_dx)
    assert xt.grad.dtype == x.dtype
    for p, want in zip(params, want_grads):
        if p is not None:
            np.testing.assert_array_equal(p.grad, _accumulated(p, want))
    if want_stats is not None:
        np.testing.assert_array_equal(layer.running_mean, want_stats[0])
        np.testing.assert_array_equal(layer.running_var, want_stats[1])


_DTYPES = pytest.mark.parametrize("dtype", ["float32", "float64"])
_IN_STEP = pytest.mark.parametrize(
    "in_step", [False, True], ids=["fresh", "step_arena"]
)


def _prepared(layer, rng):
    """``layer`` bound to a faulty engine (MVM layers) or with random
    affine parameters and running statistics (batch norm)."""
    if isinstance(layer, (Conv2d, Linear)):
        _faulty_engine(layer)
    if isinstance(layer, BatchNorm2d):
        layer.gamma.data[:] = rng.normal(1.0, 0.3, layer.channels)
        layer.beta.data[:] = rng.normal(0.0, 0.3, layer.channels)
        layer.running_mean[:] = rng.normal(0.0, 0.3, layer.channels)
        layer.running_var[:] = rng.uniform(0.5, 2.0, layer.channels)
    return layer


class TestLayerOracle:
    @_IN_STEP
    @_DTYPES
    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_layer_matches_oracle_bit_for_bit(self, case, dtype, in_step):
        factory, shape = _CASES[case]
        rng = np.random.default_rng(9)
        with default_dtype(dtype):
            layer = _prepared(factory(rng), rng)
            with step_scope() if in_step else contextlib.nullcontext():
                # Two steps: inside the step scope the second one runs on
                # the first one's recycled (dirty) arena buffers.
                for _ in range(2):
                    _check_step(layer, rng, shape, dtype, case.endswith("_nchw"))
                    step_arena().reset()


def _forward_oracle(layer, x):
    """The oracle's forward output for ``layer`` on ``x``."""
    if isinstance(layer, Conv2d):
        w_fwd, _, bias, _ = _mvm_weights(layer)
        k, st, pd = layer.kernel_size, layer.stride, layer.padding
        return conv2d_forward_oracle(x, w_fwd, bias, k, st, pd)[0]
    if isinstance(layer, BatchNorm2d):
        return batchnorm_eval_oracle(
            x, np.zeros_like(x), layer.gamma.data, layer.beta.data, layer.eps,
            layer.running_mean, layer.running_var,
        )[0]
    k = layer.kernel
    return maxpool_oracle(x, np.zeros_like(x[:, :, ::k, ::k]), k)[0]


class TestNoGradForward:
    """The eval and serve path: patch matrix, pad block and batch norm's
    float64 working buffer from the scratch pool, which holds one
    grow-only buffer per tag."""

    @_DTYPES
    @pytest.mark.parametrize("case", sorted(
        c for c in _CASES if c.startswith(("conv", "batchnorm_eval", "maxpool"))
    ))
    def test_forward_matches_oracle_large_then_small(self, case, dtype):
        factory, (_, c, _, _) = _CASES[case]
        rng = np.random.default_rng(5)
        nchw = case.endswith("_nchw")
        # Odd sizes for the convs; sizes both pooling kernels divide.
        large = 9 if case.startswith("conv") else 12
        with default_dtype(dtype):
            layer = _prepared(factory(rng), rng)
            # The large batch grows the scratch buffers; the small one
            # runs on a view of their (dirty) leading elements.
            for n, hw in [(5, large), (2, 6), (5, large)]:
                x = _input(rng, (n, c, hw, hw), dtype, nchw)
                with no_grad():
                    out = layer(Tensor(x))
                np.testing.assert_array_equal(out.data, _forward_oracle(layer, x))
                # The layouts downstream reductions see: batch norm keeps
                # its input's, max pooling hands on C-contiguous memory.
                if isinstance(layer, BatchNorm2d):
                    assert out.data.strides == x.strides
                if isinstance(layer, MaxPool2d):
                    assert out.data.flags.c_contiguous
        pool = F._SCRATCH_TLS.pool
        assert sum(tag == "im2col_out" for tag, _ in pool) <= 2  # one per dtype

    def test_bn_working_buffer_is_one_per_thread(self):
        """Both activation dtypes and both layouts share one grow-only
        float64 buffer per thread, as large as the largest request."""
        rng = np.random.default_rng(6)
        found = []

        def forwards():
            for dtype in ("float32", "float64"):
                with default_dtype(dtype):
                    bn = _prepared(BatchNorm2d(5).eval(), rng)
                    for n, hw, nchw in [(4, 8, False), (2, 4, True), (3, 6, False)]:
                        x = _input(rng, (n, 5, hw, hw), dtype, nchw)
                        with no_grad():
                            bn(Tensor(x))
            pool = F._SCRATCH_TLS.pool
            found.append({key: buf for key, buf in pool.items() if key[0] == "bn_eval"})

        for _ in range(2):
            thread = threading.Thread(target=forwards)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(found) == 2
        for bufs in found:
            assert list(bufs) == [("bn_eval", np.dtype(np.float64).str)]
            assert next(iter(bufs.values())).size == 4 * 5 * 8 * 8
        first, second = (next(iter(bufs.values())) for bufs in found)
        assert first is not second


class TestMaxPoolTies:
    """A window's gradient goes to its first maximal element in row-major
    offset order, as ``argmax`` picks it: post-ReLU zeros and repeated
    maxima tie in most windows here."""

    @_IN_STEP
    @_DTYPES
    @pytest.mark.parametrize("kernel", [2, 3])
    @pytest.mark.parametrize("nchw", [False, True], ids=["nhwc", "nchw"])
    def test_gradient_goes_to_first_maximal_offset(self, nchw, kernel, dtype, in_step):
        rng = np.random.default_rng(23)
        n, c, h, w = 2, 3, 2 * kernel, 3 * kernel
        with default_dtype(dtype):
            pool = MaxPool2d(kernel)
            with step_scope() if in_step else contextlib.nullcontext():
                for _ in range(2):
                    levels = _input(rng, (n, c, h, w), dtype, nchw)
                    x = np.maximum(np.round(levels), 0.0).astype(dtype)
                    xt = Tensor(x, requires_grad=True)
                    out = pool(xt)
                    grad = rng.normal(size=out.shape).astype(dtype)
                    out.backward(grad)
                    want = np.zeros_like(x)
                    for b, ch, i, j in np.ndindex(*out.shape):
                        win = x[b, ch, i * kernel:(i + 1) * kernel,
                                j * kernel:(j + 1) * kernel]
                        di, dj = divmod(int(np.flatnonzero(win == win.max())[0]), kernel)
                        want[b, ch, i * kernel + di, j * kernel + dj] = grad[b, ch, i, j]
                    np.testing.assert_array_equal(xt.grad, want)
                    np.testing.assert_array_equal(xt.grad, maxpool_oracle(x, grad, kernel)[1])
                    step_arena().reset()


class TestLayerChains:
    """Gradients handed between layers in the activations' own memory
    order: batch norm's input gradient, donated NHWC ``col2im`` views,
    max pooling's scatter, and ``+=`` onto a donated view."""

    @_IN_STEP
    @_DTYPES
    def test_conv_bn_relu_pool_conv(self, dtype, in_step):
        rng = np.random.default_rng(13)
        with default_dtype(dtype):
            conv1 = Conv2d(3, 4, 3, padding=1, bias=False, rng=rng)
            bn, pool = BatchNorm2d(4), MaxPool2d(2)
            conv2 = Conv2d(4, 6, 3, padding=1, rng=rng)
            bn.gamma.data[:] = rng.normal(1.0, 0.3, 4)
            bn.beta.data[:] = rng.normal(0.0, 0.3, 4)
            model = Sequential(conv1, bn, ReLU(), pool, conv2)
            for conv in (conv1, conv2):
                _faulty_engine(conv)
            with step_scope() if in_step else contextlib.nullcontext():
                for _ in range(2):
                    for p in model.parameters():
                        p.zero_grad()
                    x = _input(rng, (2, 3, 8, 8), dtype, nchw=True)
                    xt = Tensor(x, requires_grad=True)
                    out = model(xt)
                    grad = rng.normal(size=out.shape).astype(dtype)
                    w1f, _, _, _ = _mvm_weights(conv1)
                    a1, _ = conv2d_forward_oracle(x, w1f, None, 3, 1, 1)
                    zero = np.zeros_like(a1)
                    (a2, *_), _, _ = batchnorm_train_oracle(
                        a1, zero, bn.gamma.data, bn.beta.data, bn.eps
                    )
                    a3 = np.maximum(a2, 0.0)
                    a4 = maxpool_oracle(a3, np.zeros_like(a3[:, :, ::2, ::2]), 2)[0]
                    want_out, g4, dw2, db2 = _conv_oracle(conv2, a4, grad)
                    g3 = maxpool_oracle(a3, g4, 2)[1]
                    g2 = relu_oracle(a2, g3)[1]
                    (_, g1, dgamma, dbeta), _, _ = batchnorm_train_oracle(
                        a1, g2, bn.gamma.data, bn.beta.data, bn.eps
                    )
                    _, dx, dw1, _ = _conv_oracle(conv1, x, g1)
                    out.backward(grad)
                    np.testing.assert_array_equal(out.data, want_out)
                    np.testing.assert_array_equal(xt.grad, dx)
                    for p, want in [(conv1.weight, dw1), (conv2.weight, dw2),
                                    (conv2.bias, db2), (bn.gamma, dgamma),
                                    (bn.beta, dbeta)]:
                        np.testing.assert_array_equal(p.grad, _accumulated(p, want))
                    step_arena().reset()

    @_IN_STEP
    @_DTYPES
    def test_one_input_feeds_conv_and_shortcut(self, dtype, in_step):
        """A ResNet downsampling block's input: its gradient is one conv's
        donated ``col2im`` view plus the other's, added in place."""
        rng = np.random.default_rng(17)
        with default_dtype(dtype):
            conv1 = Conv2d(4, 6, 3, stride=2, padding=1, bias=False, rng=rng)
            short = Conv2d(4, 6, 1, stride=2, bias=False, rng=rng)
            for conv in (conv1, short):
                _faulty_engine(conv)
            with step_scope() if in_step else contextlib.nullcontext():
                for _ in range(2):
                    for conv in (conv1, short):
                        conv.weight.zero_grad()
                    x = _input(rng, (2, 4, 6, 6), dtype)
                    xt = Tensor(x, requires_grad=True)
                    out = conv1(xt) + short(xt)
                    grad = rng.normal(size=out.shape).astype(dtype)
                    out1, dx1, dw1, _ = _conv_oracle(conv1, x, grad)
                    out2, dx2, dw2, _ = _conv_oracle(short, x, grad)
                    out.backward(grad)
                    np.testing.assert_array_equal(out.data, out1 + out2)
                    np.testing.assert_array_equal(xt.grad, dx1 + dx2)
                    np.testing.assert_array_equal(
                        conv1.weight.grad, _accumulated(conv1.weight, dw1)
                    )
                    np.testing.assert_array_equal(
                        short.weight.grad, _accumulated(short.weight, dw2)
                    )
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
