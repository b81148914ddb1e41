"""Array-level primitives and tensor ops for the CNN layers.

The convolution path uses im2col/col2im so that every convolution *is* a
matrix product — exactly how the crossbar hardware executes it, and the
hook through which the fault-aware layers substitute stuck-at-clamped
weight matrices (different ones for the forward and the backward MVM).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.nn.tensor import Tensor, is_grad_enabled, step_arena

__all__ = [
    "im2col",
    "col2im",
    "conv_output_size",
    "relu",
    "maxpool2d",
    "avgpool2d",
    "global_avgpool2d",
    "concat_channels",
    "softmax_cross_entropy",
    "softmax",
    "accuracy",
]


# --------------------------------------------------------------------- #
# im2col / col2im
# --------------------------------------------------------------------- #
#: reusable scratch arrays for temporaries that die inside one op (the
#: im2col gather, inference-mode patch matrices, the max-pool backward
#: window), keyed by (tag, shape, dtype).  Conv layers hit the same
#: handful of shapes every batch, so the pool stays small while
#: eliminating the largest per-batch allocations.  The pool is *per
#: thread*: the serving plane runs one forward per replica thread
#: concurrently, and identical shapes on two threads must never share a
#: buffer (the parallel benchmark runner forks whole processes, each
#: with its own pools).
_SCRATCH_TLS = threading.local()


def _scratch(tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    pool = getattr(_SCRATCH_TLS, "pool", None)
    if pool is None:
        pool = _SCRATCH_TLS.pool = {}
    key = (tag, shape, np.dtype(dtype).str)
    buf = pool.get(key)
    if buf is None:
        buf = np.empty(shape, dtype=dtype)
        pool[key] = buf
    return buf


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output collapsed: size={size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> tuple[np.ndarray, int, int]:
    """Unfold ``(N, C, H, W)`` into ``(N*OH*OW, C*KH*KW)`` patch rows.

    Returns ``(cols, OH, OW)``.  Row ordering is (n, oh, ow), column
    ordering is (c, kh, kw) — matching ``weight.reshape(out, -1)``.
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    if pad > 0:
        # Arena-backed padded buffer: edge strips are zero-filled and the
        # interior overwritten, producing exactly what np.pad would —
        # without a fresh allocation per call inside a training step.
        hp, wp = h + 2 * pad, w + 2 * pad
        padded = step_arena().take((n, c, hp, wp), x.dtype)
        padded[:, :, :pad, :].fill(0.0)
        padded[:, :, hp - pad:, :].fill(0.0)
        padded[:, :, pad:hp - pad, :pad].fill(0.0)
        padded[:, :, pad:hp - pad, wp - pad:].fill(0.0)
        padded[:, :, pad:hp - pad, pad:wp - pad] = x
        x = padded
    # The 6-D gather buffer never escapes this function, so it comes from
    # the scratch pool.  The returned patch matrix is captured by autograd
    # closures while a graph is being built, so it comes from the step
    # arena: distinct within a step, recycled across steps (backward
    # always completes before the next forward).  In inference mode
    # (no_grad) nothing outlives the layer's matmul, so it comes from the
    # scratch pool too.
    cols = _scratch("im2col", (n, c, kh, kw, oh, ow), x.dtype)
    for i in range(kh):
        i_end = i + stride * oh
        for j in range(kw):
            j_end = j + stride * ow
            cols[:, :, i, j, :, :] = x[:, :, i:i_end:stride, j:j_end:stride]
    out_shape = (n * oh * ow, c * kh * kw)
    if is_grad_enabled():
        out = step_arena().take(out_shape, x.dtype)
    else:
        out = _scratch("im2col_out", out_shape, x.dtype)
    np.copyto(
        out.reshape(n, oh, ow, c, kh, kw), cols.transpose(0, 4, 5, 1, 2, 3)
    )
    return out, oh, ow


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold patch-row gradients back onto the input (adjoint of im2col).

    The result is (a view of) a step-arena buffer: inside a training step
    it is recycled at the next ``reset()``, so callers consume it
    immediately (``Tensor.accumulate_grad`` copies or adds on the spot).
    """
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    cols = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    x_padded = step_arena().take((n, c, h + 2 * pad, w + 2 * pad), cols.dtype)
    x_padded.fill(0.0)
    for i in range(kh):
        i_end = i + stride * oh
        for j in range(kw):
            j_end = j + stride * ow
            x_padded[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j, :, :]
    if pad > 0:
        return x_padded[:, :, pad:-pad, pad:-pad]
    return x_padded


# --------------------------------------------------------------------- #
# activations and pooling (tensor ops)
# --------------------------------------------------------------------- #
def relu(x: Tensor) -> Tensor:
    # np.maximum needs no materialised boolean mask; the backward mask is
    # only built if/when the tape actually runs.  take_like keeps the
    # input's memory layout (conv activations are transposed views), as
    # a plain ufunc would, so downstream reductions see the same
    # iteration order.
    arena = step_arena()
    out_data = arena.take_like(x.data)
    np.maximum(x.data, 0.0, out=out_data)

    def bwd(grad: np.ndarray) -> None:
        if x.requires_grad:
            mask = arena.take(x.data.shape, np.bool_)
            np.greater(x.data, 0, out=mask)
            g = arena.take(x.data.shape, x.data.dtype)
            np.multiply(grad, mask, out=g)
            x.accumulate_grad(g, donate=True)

    return Tensor(out_data, parents=(x,), backward=bwd)


def maxpool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping max pooling (kernel == stride).

    The input spatial size must be divisible by ``kernel`` — the models in
    this repository are built so that it always is.
    """
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"maxpool2d: spatial dims ({h},{w}) not divisible by {kernel}")
    oh, ow = h // kernel, w // kernel
    windows = x.data.reshape(n, c, oh, kernel, ow, kernel)
    flat = windows.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, kernel * kernel)
    arg = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def bwd(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        # Scratch-pool window buffer: consumed immediately by the reshape
        # copy below, so reuse across batches is safe.
        gflat = _scratch("maxpool_bwd", flat.shape, flat.dtype)
        gflat.fill(0.0)
        np.put_along_axis(gflat, arg[..., None], grad[..., None], axis=-1)
        gx = (
            gflat.reshape(n, c, oh, ow, kernel, kernel)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h, w)
        )
        x.accumulate_grad(gx)

    return Tensor(out_data, parents=(x,), backward=bwd)


def avgpool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping average pooling (kernel == stride)."""
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"avgpool2d: spatial dims ({h},{w}) not divisible by {kernel}")
    oh, ow = h // kernel, w // kernel
    windows = x.data.reshape(n, c, oh, kernel, ow, kernel)
    out_data = windows.mean(axis=(3, 5))
    scale = 1.0 / (kernel * kernel)

    def bwd(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gx = np.repeat(np.repeat(grad, kernel, axis=2), kernel, axis=3) * scale
        x.accumulate_grad(gx)

    return Tensor(out_data, parents=(x,), backward=bwd)


def global_avgpool2d(x: Tensor) -> Tensor:
    """Average over all spatial positions -> (N, C)."""
    n, c, h, w = x.shape
    out_data = x.data.mean(axis=(2, 3))
    scale = 1.0 / (h * w)

    def bwd(grad: np.ndarray) -> None:
        if x.requires_grad:
            # Scale the small (N, C) gradient first, then broadcast the
            # view — accumulate_grad copies/adds immediately, so no full
            # (N, C, H, W) temporary is ever materialised here.
            gx = np.broadcast_to(grad[:, :, None, None] * scale, x.data.shape)
            x.accumulate_grad(gx)

    return Tensor(out_data, parents=(x,), backward=bwd)


def concat_channels(tensors: list[Tensor]) -> Tensor:
    """Concatenate 4-D tensors along the channel axis (SqueezeNet fire)."""
    if not tensors:
        raise ValueError("concat_channels needs at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=1)
    sizes = [t.shape[1] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(grad: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t.accumulate_grad(grad[:, lo:hi])

    return Tensor(out_data, parents=tuple(tensors), backward=bwd)


# --------------------------------------------------------------------- #
# classification head
# --------------------------------------------------------------------- #
def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy over a batch of integer labels."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValueError("labels must be a 1-D batch of class indices")
    probs = softmax(logits.data)
    n = labels.shape[0]
    eps = 1e-12
    loss = -np.log(probs[np.arange(n), labels] + eps).mean()

    def bwd(grad: np.ndarray) -> None:
        if logits.requires_grad:
            g = probs.copy()
            g[np.arange(n), labels] -= 1.0
            logits.accumulate_grad(g * (float(grad) / n))

    return Tensor(np.asarray(loss), parents=(logits,), backward=bwd)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 classification accuracy."""
    return float((logits.argmax(axis=1) == np.asarray(labels)).mean())
