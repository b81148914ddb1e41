"""CNN layers with explicit backward passes.

Layers own :class:`Parameter` objects (plain arrays with a ``grad`` slot —
the optimiser consumes these directly) and build autograd
:class:`~repro.nn.tensor.Tensor` nodes in ``forward``.

The two MVM layers (:class:`Conv2d`, :class:`Linear`) accept an optional
crossbar ``engine`` (see :mod:`repro.nn.fault_aware`).  When bound, the
weight matrix used in the *forward* product and the one used in the
*backward* (input-gradient) product are read through the chip's forward /
backward crossbar copies respectively, with stuck-at clamping applied —
faults in the two training phases are therefore physically independent,
as in the target RCS.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor, is_grad_enabled, step_arena

__all__ = [
    "Parameter",
    "Module",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Sequential",
]


class Parameter:
    """A trainable array with an accumulated gradient.

    ``version`` counts in-place writes to ``data``.  The framework's one
    write, ``SGD.step``, calls :meth:`bump_version`; caches of values
    derived from the weights (the crossbar engine's effective-weight
    cache) key on it.  Code outside the framework that mutates ``data``
    directly must bump it too.
    """

    def __init__(self, data: np.ndarray):
        from repro.nn.tensor import get_default_dtype

        self.data = np.asarray(data, dtype=get_default_dtype())
        self.grad = np.zeros_like(self.data)
        self.version = 0

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def bump_version(self) -> None:
        """Mark the weight data as modified (invalidates derived caches)."""
        self.version += 1

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.data.shape})"


class Module:
    """Base class: parameter/submodule discovery, train/eval mode."""

    def __init__(self) -> None:
        self.training = True

    # -- traversal ------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full = f"{prefix}.{name}" if prefix else name
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(full)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, value in vars(self).items():
            full = f"{prefix}.{name}" if prefix else name
            if isinstance(value, Module):
                yield from value.named_modules(full)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_modules(f"{full}.{i}")

    # -- mode ------------------------------------------------------------ #
    def train(self) -> "Module":
        for _, m in self.named_modules():
            m.training = True
        return self

    def eval(self) -> "Module":
        for _, m in self.named_modules():
            m.training = False
        return self

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)


def _profile_sink(engine):
    """The engine's telemetry sink when per-layer profiling is active.

    Per-layer spans and MVM counters are opt-in (``Telemetry.profile``):
    the default path must add *zero* work per forward call beyond this
    one attribute check, so the bench_hotpath overhead gate keeps holding.
    Ideal digital execution (``engine is None``) has no sink to profile
    into and stays uninstrumented.
    """
    if engine is None:
        return None
    tel = getattr(engine, "telemetry", None)
    if tel is not None and tel.enabled and tel.profile:
        return tel
    return None


class Conv2d(Module):
    """2-D convolution executed as an im2col matrix product (crossbar MVM)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kernel_size * kernel_size
        bound = np.sqrt(2.0 / fan_in)  # He initialisation
        self.weight = Parameter(
            rng.normal(0.0, bound, size=(out_channels, in_channels, kernel_size, kernel_size))
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        #: set by CrossbarEngine.bind(); None means ideal digital execution.
        self.engine = None
        self.layer_key: str | None = None

    @property
    def matrix_shape(self) -> tuple[int, int]:
        """(out, in) shape of the flattened MVM weight matrix."""
        k = self.kernel_size
        return (self.out_channels, self.in_channels * k * k)

    def forward(self, x: Tensor) -> Tensor:
        tel = _profile_sink(self.engine)
        if tel is None:
            return self._forward(x, None)
        with tel.span(f"layer_fwd:{self.layer_key}"):
            tel.count("mvm.forward")
            return self._forward(x, tel)

    def _forward(self, x: Tensor, tel) -> Tensor:
        grad_on = is_grad_enabled()
        cols, oh, ow = F.im2col(
            x.data, self.kernel_size, self.kernel_size, self.stride, self.padding
        )
        self.last_output_hw = (oh, ow)  # consumed by the traffic model
        w2d = self.weight.data.reshape(self.out_channels, -1)
        if self.engine is not None:
            # One version probe covers both phase copies; the backward
            # copy only feeds the input-gradient MVM, which inference
            # mode never runs.
            w_fwd, w_bwd = self.engine.step_weights(
                self.layer_key, w2d, need_backward=grad_on
            )
        else:
            w_fwd = w_bwd = w2d
        n = x.shape[0]
        arena = step_arena()
        y = arena.take((cols.shape[0], self.out_channels), cols.dtype)
        np.matmul(cols, w_fwd.T, out=y)
        if self.bias is not None:
            y += self.bias.data
        out_data = y.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)
        if not grad_on:
            return Tensor(out_data)
        weight, bias = self.weight, self.bias
        x_shape = x.data.shape
        ks, st, pd = self.kernel_size, self.stride, self.padding

        def bwd(grad: np.ndarray) -> None:
            co = self.out_channels
            # A gradient in the output's NHWC memory order (batch norm
            # writes one) is the GEMM operand as it stands.
            gy = grad.transpose(0, 2, 3, 1)
            gy_copy = None
            if not gy.flags.c_contiguous:
                gy = gy_copy = arena.copy_of(gy)
            gy = gy.reshape(n * oh * ow, co)
            dw2d = arena.take((co, cols.shape[1]), cols.dtype)
            np.matmul(gy.T, cols, out=dw2d)
            # The dW GEMM was the patch matrix's last reader: the dcols
            # buffer below, of the same shape, reuses it.
            arena.release(cols)
            dw_eff = dw2d
            if self.engine is not None:
                dw_eff = self.engine.gradient_weight(self.layer_key, dw2d)
            weight.grad += dw_eff.reshape(weight.data.shape)
            arena.release(dw2d)
            if bias is not None:
                bias.grad += gy.sum(axis=0)
            if x.requires_grad and not x.skip_grad:
                dcols = arena.take(cols.shape, cols.dtype)
                np.matmul(gy, w_bwd, out=dcols)
                dx = F.col2im(dcols, x_shape, ks, ks, st, pd)
                arena.release(dcols)
                x.accumulate_grad(dx, donate=True)
            if gy_copy is not None:
                arena.release(gy_copy)

        if tel is not None:
            key = self.layer_key
            inner_bwd = bwd

            def bwd(grad: np.ndarray) -> None:
                with tel.span(f"layer_bwd:{key}"):
                    tel.count("mvm.backward")
                    inner_bwd(grad)

        return Tensor(out_data, parents=(x,), backward=bwd)


class Linear(Module):
    """Fully-connected layer executed as a crossbar MVM."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        rng = rng or np.random.default_rng(0)
        bound = np.sqrt(2.0 / in_features)
        self.weight = Parameter(rng.normal(0.0, bound, size=(out_features, in_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self.engine = None
        self.layer_key: str | None = None

    @property
    def matrix_shape(self) -> tuple[int, int]:
        return (self.out_features, self.in_features)

    def forward(self, x: Tensor) -> Tensor:
        tel = _profile_sink(self.engine)
        if tel is None:
            return self._forward(x, None)
        with tel.span(f"layer_fwd:{self.layer_key}"):
            tel.count("mvm.forward")
            return self._forward(x, tel)

    def _forward(self, x: Tensor, tel) -> Tensor:
        if x.ndim != 2:
            raise ValueError("Linear expects (N, features) input; Flatten first")
        grad_on = is_grad_enabled()
        w2d = self.weight.data
        if self.engine is not None:
            w_fwd, w_bwd = self.engine.step_weights(
                self.layer_key, w2d, need_backward=grad_on
            )
        else:
            w_fwd = w_bwd = w2d
        out_data = step_arena().take(
            (x.data.shape[0], self.out_features), x.data.dtype
        )
        np.matmul(x.data, w_fwd.T, out=out_data)
        if self.bias is not None:
            out_data += self.bias.data
        if not grad_on:
            return Tensor(out_data)
        weight, bias = self.weight, self.bias
        x_data = x.data

        def bwd(grad: np.ndarray) -> None:
            dw2d = grad.T @ x_data
            if self.engine is not None:
                dw2d = self.engine.gradient_weight(self.layer_key, dw2d)
            weight.grad += dw2d
            if bias is not None:
                bias.grad += grad.sum(axis=0)
            if x.requires_grad:
                x.accumulate_grad(grad @ w_bwd)

        if tel is not None:
            key = self.layer_key
            inner_bwd = bwd

            def bwd(grad: np.ndarray) -> None:
                with tel.span(f"layer_bwd:{key}"):
                    tel.count("mvm.backward")
                    inner_bwd(grad)

        return Tensor(out_data, parents=(x,), backward=bwd)


class BatchNorm2d(Module):
    """Batch normalisation over (N, H, W) per channel.

    Executed by the tile's digital functional units, which the paper (and
    this simulator) treat as fault-free CMOS.  That is why it is not
    folded into the preceding conv's weights for inference: folded
    weights would pass through the crossbar's stuck-at clamp, which a
    CMOS op never sees.

    The running statistics are float64.  In eval mode the normalisation
    runs in float64 too, over float64 promotions of the activations, and
    its result is rounded once to the activation dtype; the input
    gradient of a graph-building eval is likewise computed in float64
    and rounded once.  The perfbench digests, serve's logit digest among
    them, pin those bits.
    """

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        #: data-parallel hook: when set, training forwards report the
        #: batch statistics here instead of folding them into the running
        #: averages directly (the parallel trainer replays all shards'
        #: stats in canonical order on every rank).
        self.stats_sink = None

    def _update_stats(self, mean: np.ndarray, var: np.ndarray) -> None:
        if self.stats_sink is None:
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
        else:
            self.stats_sink(self, mean, var)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ValueError(
                f"BatchNorm2d({self.channels}) got input of shape {x.shape}"
            )
        if self.training:
            return self._forward_train(x)
        return self._forward_eval(x)

    def _forward_eval(self, x: Tensor) -> Tensor:
        """Eval forward over the running statistics, in float64.

        ``((x - mean) / sqrt(var + eps)) * gamma + beta`` runs in place in
        one float64 working buffer from the scratch pool, over the long
        rows of :func:`~repro.nn.functional.channel_rows`, and is rounded
        once into an output in the input's layout and dtype.  A
        graph-building forward keeps its float64 ``xhat`` in a step-arena
        buffer for the backward.
        """
        axes = (0, 2, 3)
        arena = step_arena()
        xd = x.data
        rows, tile = F.channel_rows(xd)
        xr = rows(xd)
        std = np.sqrt(self.running_var + self.eps)
        work = F._scratch("bn_eval", xr.shape, np.float64)
        grad_on = is_grad_enabled()
        xhat4 = arena.take_like(xd, np.float64) if grad_on else None
        xhat = rows(xhat4) if grad_on else work
        np.subtract(xr, tile(self.running_mean), out=xhat)
        np.divide(xhat, tile(std), out=xhat)
        np.multiply(xhat, tile(self.gamma.data.astype(np.float64)), out=work)
        np.add(work, tile(self.beta.data.astype(np.float64)), out=work)
        out_data = arena.take_like(xd)
        np.copyto(rows(out_data), work, casting="same_kind")
        if not grad_on:
            return Tensor(out_data)
        gamma, beta = self.gamma, self.beta

        def bwd(grad: np.ndarray) -> None:
            gamma.grad += (grad * xhat4).sum(axis=axes)
            beta.grad += grad.sum(axis=axes)
            if x.requires_grad:
                # float64 product, rounded once to the input's dtype.
                dx = arena.take_like(xd)
                np.multiply((gamma.data / std)[None, :, None, None], grad, out=dx)
                x.accumulate_grad(dx, donate=True)

        return Tensor(out_data, parents=(x,), backward=bwd)

    def _forward_train(self, x: Tensor) -> Tensor:
        """Training forward/backward over batch statistics, through arena
        buffers.

        The normalisation temporaries use ``take_like`` buffers that
        mirror the activation view's memory layout (reductions are
        iteration-order sensitive), as does the elementwise input gradient;
        the backward reduces over C-contiguous buffers like its input.
        """
        axes = (0, 2, 3)
        arena = step_arena()
        xd = x.data
        mean = xd.mean(axis=axes)
        mean4 = mean[None, :, None, None]
        d = arena.take_like(xd)
        np.subtract(xd, mean4, out=d)
        sq = arena.take_like(xd)
        np.multiply(d, d, out=sq)
        var = sq.mean(axis=axes)
        arena.release(sq)
        self._update_stats(mean, var)
        std = np.sqrt(var + self.eps)
        std4 = std[None, :, None, None]
        np.divide(d, std4, out=d)
        xhat = d
        out_data = arena.take_like(xd)
        np.multiply(self.gamma.data[None, :, None, None], xhat, out=out_data)
        out_data += self.beta.data[None, :, None, None]
        if not is_grad_enabled():
            return Tensor(out_data)
        gamma, beta = self.gamma, self.beta

        def bwd(grad: np.ndarray) -> None:
            t = arena.take(grad.shape, grad.dtype)
            np.multiply(grad, xhat, out=t)
            gamma.grad += t.sum(axis=axes)
            beta.grad += grad.sum(axis=axes)
            if not x.requires_grad:
                return
            mean_g = grad.mean(axis=axes, keepdims=True)
            mean_gx = t.mean(axis=axes, keepdims=True)
            # (grad - mean_g) - xhat * mean_gx: each term in its operands'
            # layout, so only the last subtraction mixes the two orders.
            v = arena.take_like(xd)
            np.multiply(xhat, mean_gx, out=v)
            np.subtract(grad, mean_g, out=t)
            np.subtract(t, v, out=v)
            arena.release(t)
            arena.release(xhat)
            np.multiply(gamma.data[None, :, None, None] / std4, v, out=v)
            x.accumulate_grad(v, donate=True)

        return Tensor(out_data, parents=(x,), backward=bwd)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class MaxPool2d(Module):
    def __init__(self, kernel: int = 2):
        super().__init__()
        self.kernel = kernel

    def forward(self, x: Tensor) -> Tensor:
        return F.maxpool2d(x, self.kernel)


class AvgPool2d(Module):
    def __init__(self, kernel: int = 2):
        super().__init__()
        self.kernel = kernel

    def forward(self, x: Tensor) -> Tensor:
        return F.avgpool2d(x, self.kernel)


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avgpool2d(x)


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class Sequential(Module):
    """A chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.items = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.items:
            x = module(x)
        return x

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)
