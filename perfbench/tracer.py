"""Outside-in span tracer: wraps the program's public callables in place.

A :class:`Tracer` replaces each target attribute (a module-level function
or a method on a class) with a thin wrapper that records one span per
call, then puts the originals back on :meth:`Tracer.uninstall`.  Targets
are patched where their callers look them up: a function imported by
name into another module is a separate target in that module.

Spans stay in memory as small lists
``[span_id, name, target, start, end, parent_id, thread, rid]`` with a
parent stack per thread, so a span's self time is its duration minus
the time its direct children cover.  ``rid`` carries a request id (or a
list of them for batch spans) so one serving request's spans join up.

Forked child processes inherit the wrappers; an at-fork hook turns them
into plain pass-throughs there, so work inside workers is never traced.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Target", "Tracer", "self_times"]

# Span record field indices.
SID, NAME, TARGET, T0, T1, PARENT, THREAD, RID = range(8)


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    ``owner`` is a module or class and ``attr`` the attribute holding the
    callable; the attribute must be defined on ``owner`` itself, so a
    rename in the program fails loudly here.  ``name`` is the span name,
    or a callable mapping the call's arguments to one (per-class names).
    ``rid(tracer, args)`` runs before the call and gives the span's
    request id; ``on_result(tracer, record, args, result)`` runs after a
    successful call.  Both run on the calling thread.
    """

    owner: Any
    attr: str
    name: str | Callable[[tuple], str]
    on_result: Callable | None = None
    rid: Callable | None = None

    @property
    def label(self) -> str:
        owner = getattr(self.owner, "__qualname__", None) or self.owner.__name__
        module = getattr(self.owner, "__module__", None)
        if module and module != owner:
            owner = f"{module}.{owner}"
        return f"{owner}.{self.attr}"


def _disable(ref: "weakref.ref[Tracer]") -> None:
    tracer = ref()
    if tracer is not None:
        tracer.active = False


class Tracer:
    """Records spans from wrapped callables until uninstalled."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: counts gathered by ``on_result`` hooks (guarded by ``lock``).
        self.counters: dict[str, float] = {}
        #: request ids of requests in flight, by ``id()`` of a key object.
        self.rid_of: dict[int, int] = {}
        self._rids = itertools.count()
        #: exceptions raised by ``on_result`` hooks (reported, not raised).
        self.errors: list[str] = []
        self.lock = threading.Lock()
        self.active = False
        self._ids = itertools.count(1)
        #: per-thread state: the open-span stack, and whatever hooks keep.
        self.local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        ref = weakref.ref(self)
        os.register_at_fork(after_in_child=lambda: _disable(ref))

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    # ------------------------------------------------------------------ #
    def install(self, targets: list[Target]) -> "Tracer":
        """Wrap every target (raises naming the first one that is missing)."""
        for target in targets:
            if target.attr not in vars(target.owner):
                self.uninstall()
                raise AttributeError(
                    f"trace target {target.label} no longer exists"
                )
            original = vars(target.owner)[target.attr]
            setattr(target.owner, target.attr, self._wrap(original, target))
            self._patches.append((target.owner, target.attr, original))
        self.active = True
        return self

    def uninstall(self) -> None:
        """Restore every original callable (newest patch first)."""
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, original: Callable, target: Target) -> Callable:
        tracer = self
        label = target.label
        name = target.name
        fixed = isinstance(name, str)
        hook = target.on_result
        rid_of = target.rid
        perf = time.perf_counter
        ident = threading.get_ident

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            rid = rid_of(tracer, args) if rid_of is not None else None
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                record = [sid, name if fixed else name(args), label, t0, t1,
                          parent, ident(), rid]
                tracer.spans.append(record)
            if hook is not None:
                try:
                    hook(tracer, record, args, result)
                except Exception as exc:  # a benchmark bug, not the program's
                    tracer.errors.append(f"{label}: {exc!r}")
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", target.attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        return wrapper

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Drop every recorded span and count (between traced runs)."""
        self.spans = []
        self.counters = {}
        self.rid_of = {}
        self._rids = itertools.count()
        self.errors = []

    def add_span(self, name: str, t0: float, t1: float, rid: Any = None) -> None:
        """Record a span whose interval the caller measured itself."""
        self.spans.append(
            [next(self._ids), name, name, t0, t1, None, threading.get_ident(), rid]
        )

    def new_rid(self, key: Any) -> int:
        """Give the request ``key`` stands for the next request id."""
        with self.lock:
            rid = self.rid_of[id(key)] = next(self._rids)
        return rid

    def retire_rid(self, key: Any) -> int | None:
        """The request's id, forgotten so ``id(key)`` may be reused."""
        with self.lock:
            return self.rid_of.pop(id(key), None)

    def count(self, name: str, value: float = 1) -> None:
        with self.lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def called(self) -> set[str]:
        """Labels of the wrapped targets that recorded at least one span."""
        return {s[TARGET] for s in self.spans}

    def missing(self, required: list[str]) -> list[str]:
        """Required target labels that were never called."""
        seen = self.called()
        return [label for label in required if label not in seen]

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[SID], "name": s[NAME], "target": s[TARGET],
                    "start": s[T0], "end": s[T1], "parent": s[PARENT],
                    "thread": s[THREAD], "rid": s[RID],
                }) + "\n")


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children share their parent's thread and nest inside it, so their
    intervals are disjoint and the covered time is their summed duration.
    """
    covered: dict[int, float] = {}
    for s in spans:
        parent = s[PARENT]
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (s[T1] - s[T0])
    return {s[SID]: (s[T1] - s[T0]) - covered.get(s[SID], 0.0) for s in spans}
