"""Array-level primitives and tensor ops for the CNN layers.

The convolution path uses im2col/col2im so that every convolution *is* a
matrix product — exactly how the crossbar hardware executes it, and the
hook through which the fault-aware layers substitute stuck-at-clamped
weight matrices (different ones for the forward and the backward MVM).
"""

from __future__ import annotations

import math
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
#: reusable scratch memory for temporaries that die inside one op (the
#: im2col pad block, inference-mode patch matrices, batch norm's float64
#: eval working buffer, max pooling's comparison masks): one grow-only
#: flat buffer per (tag, dtype), handed out as views, so each tag holds
#: only its largest request.  The pool is *per thread*: serving replica
#: threads run forwards concurrently and must never share a buffer.
_SCRATCH_TLS = threading.local()
#: patch-matrix bytes built or folded per block of images: each of the
#: kh*kw slab copies touches every cache line of the block, so a block
#: that stays in cache goes to memory once, not kh*kw times.
_BLOCK_BYTES = 1 << 20


def _scratch(tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    pool = getattr(_SCRATCH_TLS, "pool", None)
    if pool is None:
        pool = _SCRATCH_TLS.pool = {}
    key = (tag, np.dtype(dtype).str)
    size = math.prod(shape)
    buf = pool.get(key)
    if buf is None or buf.size < size:
        buf = pool[key] = np.empty(size, dtype=dtype)
    return buf[:size].reshape(shape)


def channel_rows(x: np.ndarray):
    """How to walk a 4-D activation for per-channel elementwise work.

    Returns ``(rows, tile)``: ``rows(a)`` views an array of ``x``'s shape
    and memory order as long rows, and ``tile(v)`` lays a per-channel
    vector out to broadcast against them.  NHWC memory (conv outputs)
    walks ``(N*H, W*C)`` rows with the vector tiled W times, C-contiguous
    memory ``(N*C, H*W)`` rows of one channel each; any other layout
    keeps the plain 4-D broadcast.  A 4-D broadcast over NHWC memory runs
    NumPy's inner loops only C elements long.
    """
    n, c, h, w = x.shape
    if x.flags.c_contiguous:
        return (
            (lambda a: a.reshape(n * c, h * w)),
            (lambda v: v[None].repeat(n, axis=0).reshape(n * c, 1)),
        )
    if x.transpose(0, 2, 3, 1).flags.c_contiguous:
        return (
            (lambda a: a.transpose(0, 2, 3, 1).reshape(n * h, w * c)),
            (lambda v: v[None].repeat(w, axis=0).reshape(w * c)),
        )
    return (lambda a: a), (lambda v: v[None, :, None, None])


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
    ordering is (c, kh, kw) — matching ``weight.reshape(out, -1)``.  Runs
    in NHWC, the memory order of conv outputs and the activations that
    keep it: per block of images, a zero-padded NHWC copy, then one slab
    copy per kernel offset (i, j).
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    # Autograd closures capture the patch matrix, so it comes from the
    # step arena (recycled once backward is done).  In inference mode
    # (no_grad) it dies with the layer's matmul, so it comes from the
    # scratch pool, as the pad block, which dies inside this call, does.
    out_shape = (n * oh * ow, c * kh * kw)
    if is_grad_enabled():
        out = step_arena().take(out_shape, x.dtype)
    else:
        out = _scratch("im2col_out", out_shape, x.dtype)
    o6 = out.reshape(n, oh, ow, c, kh, kw)
    sh, sw = stride * oh, stride * ow
    step = max(1, _BLOCK_BYTES // out[:oh * ow].nbytes)
    for lo in range(0, n, step):
        xb = x[lo:lo + step].transpose(0, 2, 3, 1)
        if pad > 0:
            xp = _scratch("im2col_pad", (len(xb), h + 2 * pad, w + 2 * pad, c), x.dtype)
            xp.fill(0.0)
            xp[:, pad:pad + h, pad:pad + w] = xb
            xb = xp
        for i in range(kh):
            for j in range(kw):
                o6[lo:lo + step, ..., i, j] = xb[:, i:i + sh:stride, j:j + sw:stride]
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

    Adds into an NHWC step-arena buffer, kernel offsets in (i, j) order,
    and returns an ``(N, C, H, W)`` view of its interior.  Nothing else
    holds the buffer, so callers may donate the view to
    ``Tensor.accumulate_grad``; it is recycled at the next ``reset()``.
    """
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    d6 = cols.reshape(n, oh, ow, c, kh, kw)
    xp = step_arena().take((n, h + 2 * pad, w + 2 * pad, c), cols.dtype)
    sh, sw = stride * oh, stride * ow
    step = max(1, _BLOCK_BYTES // cols[:oh * ow].nbytes)
    for lo in range(0, n, step):
        xb = xp[lo:lo + step]
        xb.fill(0.0)
        for i in range(kh):
            for j in range(kw):
                xb[:, i:i + sh:stride, j:j + sw:stride] += d6[lo:lo + step, ..., i, j]
    return xp[:, pad:pad + h, pad:pad + w].transpose(0, 3, 1, 2)


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
    this repository are built so that it always is.  The output is the
    running maximum over the kernel**2 strided window views, in a
    C-contiguous ``(N, C, OH, OW)`` buffer.  With grad on, each window's
    first maximal offset in row-major order (the one ``argmax`` picks)
    is recorded for the backward: an offset replaces the one before only
    when its value is strictly greater.
    """
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"maxpool2d: spatial dims ({h},{w}) not divisible by {kernel}")
    oh, ow = h // kernel, w // kernel
    shape = (n, c, oh, ow)
    xd = x.data
    arena = step_arena()
    out_data = arena.take(shape, xd.dtype)
    np.copyto(out_data, xd[:, :, ::kernel, ::kernel])
    grad_on = is_grad_enabled()
    if grad_on:
        arg = arena.take(shape, np.uint8)
        arg.fill(0)
        hit = _scratch("maxpool_hit", shape, np.bool_)
        hit_at = _scratch("maxpool_hit_at", shape, np.uint8)
    for p in range(1, kernel * kernel):
        i, j = divmod(p, kernel)
        win = xd[:, :, i::kernel, j::kernel]
        if grad_on:
            # Offsets only grow, so a hit's offset is arg's new maximum.
            np.greater(win, out_data, out=hit)
            np.multiply(hit, np.uint8(p), out=hit_at)
            np.maximum(arg, hit_at, out=arg)
        # NumPy's maximum returns its second operand when +0 meets -0:
        # the earlier value stays, as the element argmax picks would.
        np.maximum(win, out_data, out=out_data)
    if not grad_on:
        return Tensor(out_data)

    def bwd(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        # Scatter each window's gradient to its recorded offset, one
        # offset at a time, straight into an arena buffer that is then
        # donated.
        gx = arena.take((n, c, h, w), grad.dtype)
        gx.fill(0.0)
        g6 = gx.reshape(n, c, oh, kernel, ow, kernel)
        for p in range(kernel * kernel):
            i, j = divmod(p, kernel)
            np.copyto(g6[:, :, :, i, :, j], grad, where=arg == p)
        x.accumulate_grad(gx, donate=True)

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
