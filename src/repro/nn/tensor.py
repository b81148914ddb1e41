"""Minimal reverse-mode automatic differentiation over NumPy arrays.

Only what CNN training needs: a :class:`Tensor` wrapping an ``ndarray``
with a ``grad`` slot and a closure-based backward tape.  Layers construct
tensors through the primitives here and in :mod:`repro.nn.functional`;
``Tensor.backward()`` runs the tape in reverse topological order.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Tensor",
    "BufferArena",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
    "no_grad",
    "is_grad_enabled",
    "step_scope",
    "step_arena",
]

#: float32 keeps NumPy training ~2x faster; tests that need numeric
#: gradient checks switch to float64 via set_default_dtype.
_DEFAULT_DTYPE = np.float32


def get_default_dtype() -> np.dtype:
    return np.dtype(_DEFAULT_DTYPE)


def set_default_dtype(dtype) -> None:
    """Set the dtype used by all new tensors.

    Accepts ``np.float32``/``np.float64`` or their string names (the form
    carried by ``TrainConfig.dtype``).  float32 is the default — roughly
    2x faster NumPy training; float64 is used by numeric gradient checks
    and by the bit-exactness tests of the crossbar clamp fast path.
    """
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError("default dtype must be float32 or float64")
    _DEFAULT_DTYPE = dtype.type


@contextlib.contextmanager
def default_dtype(dtype):
    """Temporarily switch the default tensor dtype (restores on exit)."""
    old = get_default_dtype()
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(old)


#: when False, new tensors record no parents/backward closures — forward
#: passes build no graph (inference mode).  Toggled by :func:`no_grad`.
#: Per-thread state: serving replicas run concurrent no-grad forwards on
#: worker threads, and one thread leaving the context must not re-enable
#: graph capture under another mid-forward.
_MODE_TLS = threading.local()


def is_grad_enabled() -> bool:
    """Whether new tensors currently capture the autograd graph."""
    return getattr(_MODE_TLS, "grad", True)


@contextlib.contextmanager
def no_grad():
    """Disable autograd-graph construction inside the block.

    Tensors created under ``no_grad()`` are leaves: they store no parent
    links and no backward closures, and ``requires_grad`` is forced off.
    Layers additionally use :func:`is_grad_enabled` to skip backward-only
    work (the backward-copy weight clamp, fresh im2col patch buffers), so
    inference inside the block is both faster and allocation-free on the
    hot shapes.
    """
    old = getattr(_MODE_TLS, "grad", True)
    _MODE_TLS.grad = False
    try:
        yield
    finally:
        _MODE_TLS.grad = old


#: when True, :class:`BufferArena` grants come from its per-step pools;
#: otherwise every grant is a fresh array.  Toggled by :func:`step_scope`
#: around the training loop.  Per-thread, like the grad flag: a training
#: loop on one thread must not hand pooled buffers to a serving forward
#: on another.


@contextlib.contextmanager
def step_scope():
    """Pool the step arena's buffers inside the block.

    The trainer wraps each epoch's batch loop in this context and calls
    ``step_arena().reset()`` after every optimiser step, so each step
    replays the same deterministic sequence of buffer grants and every
    large temporary is reused across steps instead of reallocated.
    """
    old = getattr(_MODE_TLS, "step", False)
    _MODE_TLS.step = True
    try:
        yield
    finally:
        _MODE_TLS.step = old


class BufferArena:
    """Deterministic per-step scratch allocator for the layer hot paths.

    Inside :func:`step_scope`, ``take(shape, dtype)`` hands out a buffer
    from a per-(shape, dtype) free list and advances a cursor; ``reset()``
    rewinds all cursors.  Within one training step every ``take`` returns
    a *distinct* buffer (so aliasing between live temporaries is
    impossible); across steps the same call sequence receives the same
    warm buffers, eliminating the allocation and page-fault traffic of
    fresh temporaries.  Buffers granted during a step stay valid until
    the next ``reset()`` — the trainer resets only after the optimiser
    step, so autograd closures may freely capture arena buffers.

    Outside the scope every grant is a fresh array, so evaluation,
    serving and ad hoc autograd run the same layer code and allocate
    exactly what plain NumPy expressions would.
    """

    __slots__ = ("_pools", "_cursors")

    def __init__(self) -> None:
        self._pools: dict[tuple, list[np.ndarray]] = {}
        self._cursors: dict[tuple, int] = {}

    def take(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        if not getattr(_MODE_TLS, "step", False):
            return np.empty(shape, dtype=dtype)
        key = (shape, None, np.dtype(dtype).str)
        return self._grant(key, shape, dtype, None)

    def take_like(self, a: np.ndarray, dtype=None) -> np.ndarray:
        """A buffer matching ``a``'s shape, memory layout and dtype (or
        ``dtype`` when given).

        Layer outputs must keep the memory order a plain ufunc would give
        them: pairwise-summation reductions depend on iteration order,
        and ufuncs keep their input's layout — so keep-order outputs (the
        batch-norm temporaries over the conv layers' transposed
        activation views) need buffers with matching strides, not
        C-contiguous ones.
        """
        dtype = a.dtype if dtype is None else np.dtype(dtype)
        if a.flags.c_contiguous:
            return self.take(a.shape, dtype)
        if not getattr(_MODE_TLS, "step", False):
            return np.empty_like(a, dtype=dtype)
        key = (a.shape, a.strides, dtype.str)
        return self._grant(key, a.shape, dtype, a)

    def copy_of(self, a: np.ndarray) -> np.ndarray:
        """A C-contiguous buffer holding ``a``'s values."""
        buf = self.take(a.shape, a.dtype)
        np.copyto(buf, a)
        return buf

    def _grant(self, key, shape, dtype, like) -> np.ndarray:
        pool = self._pools.get(key)
        if pool is None:
            pool = []
            self._pools[key] = pool
            self._cursors[key] = 0
        i = self._cursors[key]
        self._cursors[key] = i + 1
        if i < len(pool):
            return pool[i]
        # order="K" replicates a permuted-dense layout (same strides).
        buf = np.empty(shape, dtype) if like is None else np.empty_like(like, dtype)
        pool.append(buf)
        return buf

    def reset(self) -> None:
        """Rewind all cursors (start of a new training step)."""
        for key in self._cursors:
            self._cursors[key] = 0


_STEP_ARENA = BufferArena()


def step_arena() -> BufferArena:
    """The process-wide arena behind every layer temporary."""
    return _STEP_ARENA


class Tensor:
    """An autograd node: value + gradient + backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "skip_grad", "_backward",
                 "_parents", "name")

    def __init__(
        self,
        data: np.ndarray,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[np.ndarray], None] | None = None,
        name: str = "",
    ):
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None
        #: when True, backward passes skip *producing* this leaf's input
        #: gradient (the value itself is unchanged — it is simply never
        #: materialised).  Set by the trainer on the batch-input tensor,
        #: whose gradient nothing consumes; layer backwards honour it.
        self.skip_grad = False
        if getattr(_MODE_TLS, "grad", True):
            self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
            self._parents = parents
            self._backward = backward
        else:
            self.requires_grad = False
            self._parents = ()
            self._backward = None
        self.name = name

    # ------------------------------------------------------------------ #
    # shape helpers
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def numel(self) -> int:
        return self.data.size

    # ------------------------------------------------------------------ #
    # autograd machinery
    # ------------------------------------------------------------------ #
    def accumulate_grad(self, grad: np.ndarray, donate: bool = False) -> None:
        """Add an incoming gradient contribution (creating storage lazily).

        ``donate=True`` transfers ownership of ``grad`` to this tensor
        when it is the first contribution, skipping the C-contiguous copy.
        A donated gradient may keep the activation's memory order (as
        ``col2im``'s NHWC view) when all its consumers are elementwise
        (ReLU, max pooling, ``+=``); one that reaches a reduction (batch
        norm's ``sum``/``mean``, ``_unbroadcast``) stays C-contiguous.
        """
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor {self.data.shape}"
            )
        if self.grad is None:
            self.grad = grad if donate else _STEP_ARENA.copy_of(grad)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor through the recorded tape."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that requires no grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        self.accumulate_grad(np.asarray(grad, dtype=self.data.dtype))

        order = _topological_order(self)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def detach(self) -> "Tensor":
        """A new leaf tensor sharing the same data, cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------ #
    # basic arithmetic (enough for losses/tests; layers use functional.py)
    # ------------------------------------------------------------------ #
    def __add__(self, other: "Tensor") -> "Tensor":
        other = _as_tensor(other)
        out_data = self.data + other.data
        parents = (self, other)

        def bwd(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other.accumulate_grad(_unbroadcast(grad, other.data.shape))

        return Tensor(out_data, parents=parents, backward=bwd)

    def __mul__(self, other: "Tensor") -> "Tensor":
        other = _as_tensor(other)
        out_data = self.data * other.data
        parents = (self, other)

        def bwd(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(_unbroadcast(grad * other.data, self.data.shape))
            if other.requires_grad:
                other.accumulate_grad(_unbroadcast(grad * self.data, other.data.shape))

        return Tensor(out_data, parents=parents, backward=bwd)

    def __neg__(self) -> "Tensor":
        def bwd(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(-grad)

        return Tensor(-self.data, parents=(self,), backward=bwd)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return self + (-_as_tensor(other))

    def sum(self) -> "Tensor":
        def bwd(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(np.broadcast_to(grad, self.data.shape).copy())

        return Tensor(self.data.sum(keepdims=False), parents=(self,), backward=bwd)

    def mean(self) -> "Tensor":
        n = self.data.size

        def bwd(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(np.broadcast_to(grad / n, self.data.shape).copy())

        return Tensor(self.data.mean(), parents=(self,), backward=bwd)

    def reshape(self, *shape: int) -> "Tensor":
        original = self.data.shape

        def bwd(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad.reshape(original))

        return Tensor(self.data.reshape(*shape), parents=(self,), backward=bwd)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad}{tag})"


def _as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=_DEFAULT_DTYPE))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _topological_order(root: Tensor) -> list[Tensor]:
    """Iterative DFS topological sort (deep CNN graphs blow the recursion
    limit with a recursive version)."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order
