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
    Inside the block, :meth:`Tensor.backward` also consumes the graph it
    runs: it recycles each non-leaf gradient once its node's backward has
    run.
    """
    old = getattr(_MODE_TLS, "step", False)
    _MODE_TLS.step = True
    try:
        yield
    finally:
        _MODE_TLS.step = old


class BufferArena:
    """Deterministic per-step scratch allocator for the layer hot paths.

    Inside :func:`step_scope`, ``take(shape, dtype)`` pops a buffer from
    the free list of its (shape, strides, dtype) key, allocating one only
    when the list is empty, and ``release(a)`` pushes a buffer (or a view
    of one) back once its last reader has run.  A granted buffer is never
    granted again before it is released, so two live temporaries never
    alias; an op releases a buffer only at a last use it can prove, and
    everything it does not release stays valid until the next
    ``reset()``.  ``reset()`` returns every buffer to its list in
    allocation order, so each step replays the same sequence of grants
    on the same warm buffers, and the arena holds about a step's largest
    live set rather than every grant of the step.

    Outside the scope every grant is a fresh array and ``release`` does
    nothing, so evaluation, serving and ad hoc autograd run the same
    layer code and allocate exactly what plain NumPy expressions would.
    """

    __slots__ = ("_buffers", "_free", "_keys", "_granted")

    def __init__(self) -> None:
        #: key -> every buffer of that key, in allocation order.
        self._buffers: dict[tuple, list[np.ndarray]] = {}
        #: key -> the free buffers; the next grant pops the last one.
        self._free: dict[tuple, list[np.ndarray]] = {}
        #: id of every buffer the arena owns -> its key.
        self._keys: dict[int, tuple] = {}
        #: ids of the buffers granted and not yet released.
        self._granted: set[int] = set()

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

    def release(self, a: np.ndarray) -> None:
        """Return ``a``'s buffer to its free list: nothing reads it again
        this step.

        ``a`` may be a view of an arena buffer.  Releasing a buffer that
        is already free raises; releasing an array the arena does not
        own, or anything outside the step scope, does nothing.
        """
        if not getattr(_MODE_TLS, "step", False):
            return
        buf = a if a.base is None else a.base
        # The arena keeps every buffer it owns alive, so a live id in
        # ``_keys`` can only be that buffer.
        key = self._keys.get(id(buf))
        if key is None:
            return
        if id(buf) not in self._granted:
            raise RuntimeError("step arena buffer released twice")
        self._granted.remove(id(buf))
        self._free[key].append(buf)

    def _grant(self, key, shape, dtype, like) -> np.ndarray:
        free = self._free.get(key)
        if free:
            buf = free.pop()
        else:
            # order="K" replicates a permuted-dense layout (same strides).
            buf = np.empty(shape, dtype) if like is None else np.empty_like(like, dtype)
            self._buffers.setdefault(key, []).append(buf)
            self._free.setdefault(key, [])
            self._keys[id(buf)] = key
        self._granted.add(id(buf))
        return buf

    def reset(self) -> None:
        """Free every buffer (start of a new training step), each list in
        allocation order so that the next grant pops the oldest."""
        for key, pool in self._buffers.items():
            self._free[key] = pool[::-1]
        self._granted.clear()

    def clear(self) -> None:
        """Drop every buffer, so that a process which trains model after
        model holds one model's buffers, not all of them."""
        self._buffers.clear()
        self._free.clear()
        self._keys.clear()
        self._granted.clear()


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

        ``donate=True`` transfers ownership of ``grad`` to this tensor:
        the first contribution is kept as it stands, skipping the
        C-contiguous copy, and a later one is released to the step arena
        once it has been added.  Either way the caller must not touch
        ``grad`` again.  A donated gradient may keep the activation's
        memory order (as ``col2im``'s NHWC view) when all its consumers
        are elementwise (ReLU, max pooling, ``+=``); one that reaches a
        reduction (batch norm's ``sum``/``mean``, ``_unbroadcast``) stays
        C-contiguous.

        Inside the step scope the stored gradient is an arena buffer,
        valid until it is released or the arena is reset: ``backward``
        releases a non-leaf's gradient once the node's own backward has
        run, and a leaf keeps its gradient until the next ``reset()``.
        """
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor {self.data.shape}"
            )
        if self.grad is None:
            self.grad = grad if donate else _STEP_ARENA.copy_of(grad)
        else:
            self.grad += grad
            if donate:
                _STEP_ARENA.release(grad)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor through the recorded tape.

        Inside the step scope the run consumes the graph: once a non-leaf
        node's backward has run, its gradient goes back to the step arena,
        ``node.grad`` is None and its closure is dropped, so a second
        backward through the same graph raises instead of reading
        recycled memory.  Leaves keep their gradients.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that requires no grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        self.accumulate_grad(np.asarray(grad, dtype=self.data.dtype))

        consume = getattr(_MODE_TLS, "step", False)
        order = _topological_order(self)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if consume and node._parents:
                if node.grad is not None:
                    _STEP_ARENA.release(node.grad)
                    node.grad = None
                node._backward = _consumed

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


def _consumed(grad: np.ndarray) -> None:
    """The closure of a node whose backward already ran in the step scope."""
    raise RuntimeError(
        "backward() through a graph that a step-scope backward already "
        "consumed: its buffers went back to the step arena"
    )


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
