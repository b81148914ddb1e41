"""Unified telemetry: events, counters, histograms and hierarchical spans.

Every reporting surface of the simulator — the experiment controller, the
trainer's epoch loop, the crossbar engine's effective-weight cache, the
NoC link accounting, the overhead study, the parallel runner and the CLI —
emits into one :class:`Telemetry` sink instead of hand-rolled dicts and
``print`` calls.  The sink is deliberately tiny and zero-dependency:

* **events** — append-only records ``{"ts": <monotonic s>, "kind": str,
  "payload": dict}``; serialise to JSONL with :meth:`Telemetry.dump_jsonl`;
* **counters** — named integers bumped with :meth:`Telemetry.count`
  (plain ``dict`` adds, cheap enough for per-epoch accounting);
* **histograms** — named log-bucket distributions fed with
  :meth:`Telemetry.observe` (remap latency, BIST scan time, epoch step
  time, NoC link load); ``summary()`` reports ``p50/p90/p99/max``
  (:mod:`repro.telemetry.metrics`);
* **spans** — ``with telemetry.span("train_epoch", epoch=3):`` times a
  region, aggregates per-name ``{count, seconds, min, max}`` and appends
  a ``span`` event on exit.

Hierarchical tracing
--------------------
Spans nest: every span gets a per-sink ``span_id`` and the ``parent_id``
of the innermost enclosing span (tracked through a ``contextvars`` stack,
so generators and callbacks inherit the right parent).  The span event
also carries its ``start`` offset, which makes the event list a complete
trace: :func:`repro.telemetry.trace.build_span_tree` reconstructs the
``train_epoch > layer_fwd:conv1 > mvm_recompute`` tree with self/total
times, and :func:`repro.telemetry.trace.export_chrome_trace` converts it
to Chrome trace-event JSON loadable in Perfetto / ``chrome://tracing``.

Hot-path discipline
-------------------
The per-MVM fast path (``CrossbarEngine.step_weights`` cache hits) emits
*nothing*: the engine keeps its hit/miss/recompute statistics as plain
``int`` attributes and publishes them into the sink once per run.  One
opt-in flag unlocks deeper instrumentation: :attr:`Telemetry.profile` —
per-layer forward/backward spans, MVM counters, per-step timing through
:mod:`repro.nn` and a span per cache-miss recompute; off by default
because a span per layer per batch is real work.

The ``bench_hotpath`` telemetry gate asserts the cache-hit MVM cost moves
< 3% with a sink attached and the flag off (it also reports the measured
cost with ``profile`` *on*).

Cross-process merge
-------------------
Worker processes (``repro.runner``) cannot share a sink; each builds its
own, serialises it with :meth:`Telemetry.snapshot` (plain dicts — pickles
under ``fork`` *and* ``spawn``) and the parent folds the snapshots back in
with :meth:`Telemetry.merge`.  Counters, span aggregates and histograms
add; events concatenate, optionally tagged with the originating cell.
Span ids are unique per sink, so merged events stay internally consistent
*per tag* — consumers key span instances on ``(cell_tag, span_id)``.

Runner resilience events
------------------------
The parallel runner additionally emits parent-side records as its
recovery machinery acts (a dead worker's own sink is lost with the
process, so these cannot ride on worker snapshots):

* events — ``cell_crashed`` (worker died without reporting),
  ``cell_timeout`` (worker exceeded the per-cell deadline and was
  killed), ``cell_retried`` (the cell was re-queued with backoff) and
  ``cell_restored`` (the result was served from a checkpoint file);
* counters — ``runner.cell_crashes``, ``runner.cell_timeouts``,
  ``runner.cell_retries``, ``runner.cells_restored`` and
  ``runner.cells_failed`` (retries exhausted).
"""

from __future__ import annotations

import contextvars
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, IO, Iterator

from repro.telemetry.metrics import Histogram

__all__ = ["Telemetry", "Histogram", "null_telemetry", "NULL_TELEMETRY"]

#: kind of the trailing aggregate record a JSONL trace ends with.
SUMMARY_KIND = "telemetry_summary"

#: ambient stack of open spans: ``(sink_marker, span_id)`` frames.  A
#: contextvar (not a sink attribute) so nested generators, callbacks and
#: ``asyncio`` tasks each see the parent chain of *their* call context.
_SPAN_STACK: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "repro_telemetry_span_stack", default=()
)


class Telemetry:
    """Per-run sink for events, counters, histograms and timing spans.

    >>> tel = Telemetry(echo=False)
    >>> tel.count("remaps", 3)
    >>> tel.event("bist_scan", epoch=0)
    >>> tel.events[0]["kind"], tel.events[0]["payload"]
    ('bist_scan', {'epoch': 0})
    >>> with tel.span("train_epoch", epoch=0):
    ...     with tel.span("evaluate"):
    ...         pass
    >>> tel.spans["train_epoch"]["count"]
    1
    >>> inner = tel.filter("span")[0]["payload"]
    >>> inner["name"], inner["parent_id"] is not None
    ('evaluate', True)
    """

    def __init__(
        self,
        enabled: bool = True,
        echo: bool = False,
        stream: IO[str] | None = None,
    ):
        self.enabled = enabled
        self.echo = echo
        self.stream = stream if stream is not None else sys.stderr
        #: opt-in profiling: per-layer fwd/bwd spans, MVM counters and
        #: per-step timing in repro.nn.  Off by default (hot path).
        self.profile = False
        self.events: list[dict[str, Any]] = []
        self.counters: dict[str, int] = {}
        #: span name -> {"count": int, "seconds", "min", "max": float}.
        self.spans: dict[str, dict[str, float]] = {}
        #: histogram name -> :class:`Histogram` (fed via :meth:`observe`).
        self.histograms: dict[str, Histogram] = {}
        #: wall-clock time of the ``perf_counter`` origin.  Event ``ts``
        #: offsets are per-process monotonic deltas; ``epoch + ts`` is the
        #: absolute wall time of an event, which is what lets merged
        #: multi-process traces and streamed deltas share one timeline.
        self.epoch = time.time()
        self._t0 = time.perf_counter()
        #: merge tag -> source sink's wall-clock epoch (populated by
        #: :meth:`merge` from snapshots that carry one); the Chrome-trace
        #: export uses it to align per-process tracks.
        self.source_epochs: dict[str, float] = {}
        #: read-only observers called with each event record as it is
        #: emitted (the flight recorder's feed); they must never mutate.
        self._taps: list[Any] = []
        self._next_span_id = 0

    # ------------------------------------------------------------------ #
    # emission
    # ------------------------------------------------------------------ #
    def event(self, kind: str, **payload: Any) -> None:
        """Append one timestamped record; echo a readable line if enabled."""
        if not self.enabled:
            return
        record = {
            "ts": round(time.perf_counter() - self._t0, 6),
            "kind": kind,
            "payload": payload,
        }
        self.events.append(record)
        if self._taps:
            for tap in self._taps:
                try:
                    tap(record)
                except Exception:  # a broken observer must not break the run
                    pass
        if self.echo:
            body = " ".join(f"{k}={_fmt(v)}" for k, v in payload.items())
            print(f"[{record['ts']:9.3f}s] {kind:<14} {body}", file=self.stream)

    def count(self, name: str, n: int = 1) -> None:
        """Bump a named counter (a plain dict add)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the named histogram (created on first use)."""
        if not self.enabled:
            return
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    @contextmanager
    def span(self, name: str, **payload: Any) -> Iterator[int | None]:
        """Time a region; aggregates per-name and appends a ``span`` event.

        Spans nest: the emitted event carries this span's ``span_id``, the
        ``parent_id`` of the innermost enclosing span *of this sink* (or
        ``None`` at the root) and the ``start`` offset — enough to rebuild
        the full tree from the event list alone.  Yields the span id.
        """
        if not self.enabled:
            yield None
            return
        span_id = self._next_span_id
        self._next_span_id += 1
        stack = _SPAN_STACK.get()
        parent_id = None
        marker = id(self)
        for frame_marker, frame_id in reversed(stack):
            # Skip frames opened by other sinks (e.g. a per-cell child
            # sink nested inside a CLI invocation sink): a foreign parent
            # id would corrupt this sink's tree.
            if frame_marker == marker:
                parent_id = frame_id
                break
        token = _SPAN_STACK.set(stack + ((marker, span_id),))
        t0 = time.perf_counter()
        try:
            yield span_id
        finally:
            _SPAN_STACK.reset(token)
            seconds = time.perf_counter() - t0
            agg = self.spans.get(name)
            if agg is None:
                agg = self.spans[name] = {
                    "count": 0, "seconds": 0.0,
                    "min": float("inf"), "max": 0.0,
                }
            agg["count"] += 1
            agg["seconds"] += seconds
            if seconds < agg["min"]:
                agg["min"] = seconds
            if seconds > agg["max"]:
                agg["max"] = seconds
            self.event(
                "span",
                name=name,
                seconds=round(seconds, 6),
                start=round(t0 - self._t0, 6),
                span_id=span_id,
                parent_id=parent_id,
                **payload,
            )

    def add_tap(self, tap: Any) -> None:
        """Register a read-only per-event observer (``tap(record)``).

        Taps fire on the emitting sink even when echo is off and no trace
        file will be written — the flight recorder rides on this to keep
        its bounded ring of recent events.  A tap that raises is silently
        ignored; a tap must never mutate the record.
        """
        self._taps.append(tap)

    def remove_tap(self, tap: Any) -> None:
        """Unregister a previously added tap (no-op if absent)."""
        try:
            self._taps.remove(tap)
        except ValueError:
            pass

    # ------------------------------------------------------------------ #
    # inspection and serialisation
    # ------------------------------------------------------------------ #
    def filter(self, kind: str) -> list[dict[str, Any]]:
        """All events of one kind, in emission order."""
        return [e for e in self.events if e["kind"] == kind]

    def summary(self) -> dict[str, Any]:
        """Aggregate view: counters, spans, histograms, per-kind counts."""
        by_kind: dict[str, int] = {}
        for e in self.events:
            by_kind[e["kind"]] = by_kind.get(e["kind"], 0) + 1
        return {
            "counters": dict(self.counters),
            "spans": {k: dict(v) for k, v in self.spans.items()},
            "histograms": {k: h.summary() for k, h in self.histograms.items()},
            "events_by_kind": by_kind,
            "num_events": len(self.events),
        }

    def write_jsonl(self, fh: IO[str], summary: bool = True) -> None:
        """Write the trace as JSONL; ends with one aggregate record.

        The trailing record (``kind = "telemetry_summary"``) carries the
        counters, span aggregates and histogram snapshots that pure event
        replay cannot reconstruct — ``repro report`` reads percentiles
        from it.  Pass ``summary=False`` for an events-only stream.
        """
        for record in self.events:
            fh.write(json.dumps(record, default=_json_default) + "\n")
        if summary:
            tail = {
                "ts": round(time.perf_counter() - self._t0, 6),
                "kind": SUMMARY_KIND,
                "payload": {
                    **self.summary(),
                    "histogram_snapshots": {
                        k: h.snapshot() for k, h in self.histograms.items()
                    },
                    "epoch": self.epoch,
                    "source_epochs": {
                        str(tag): ep for tag, ep in self.source_epochs.items()
                    },
                },
            }
            fh.write(json.dumps(tail, default=_json_default) + "\n")

    def dump_jsonl(self, path: str, summary: bool = True) -> None:
        """Write every event as one JSON object per line (plus summary).

        Crash-safe: the trace is written to a temp file in the target
        directory and atomically renamed into place, so a crash mid-dump
        can never leave a half-written file shadowing a good earlier one.
        """
        import os

        path = os.fspath(path)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                self.write_jsonl(fh, summary=summary)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------ #
    # cross-process merge
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, Any]:
        """Picklable copy of the full sink state (plain dicts/lists)."""
        return {
            "events": [dict(e) for e in self.events],
            "counters": dict(self.counters),
            "spans": {k: dict(v) for k, v in self.spans.items()},
            "histograms": {k: h.snapshot() for k, h in self.histograms.items()},
            "epoch": self.epoch,
        }

    def merge(
        self, other: "Telemetry | dict[str, Any] | None", tag: Any = None
    ) -> None:
        """Fold another sink (or its snapshot) into this one.

        Counters, span aggregates and histograms add; events append in
        the other sink's order, each stamped with ``"cell": tag`` when a
        tag is given (the runner tags by cell key).  A disabled sink —
        notably the shared :data:`NULL_TELEMETRY` — ignores merges, like
        every other mutator.
        """
        if not self.enabled or other is None:
            return
        snap = other.snapshot() if isinstance(other, Telemetry) else other
        if tag is not None and snap.get("epoch") is not None:
            # Remember the source sink's wall-clock origin so the Chrome
            # export can align this tag's track against the parent's.
            self.source_epochs[str(tag)] = float(snap["epoch"])
        for record in snap.get("events", ()):
            if tag is not None:
                record = {**record, "cell": tag}
            self.events.append(record)
        for name, n in snap.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + int(n)
        for name, agg in snap.get("spans", {}).items():
            mine = self.spans.get(name)
            if mine is None:
                mine = self.spans[name] = {
                    "count": 0, "seconds": 0.0,
                    "min": float("inf"), "max": 0.0,
                }
            mine["count"] += agg["count"]
            mine["seconds"] += agg["seconds"]
            # Pre-min/max snapshots (old checkpoints) fall back to the
            # mean so a resumed sweep never reports an infinite minimum.
            fallback = agg["seconds"] / max(agg["count"], 1)
            lo = agg.get("min", fallback)
            hi = agg.get("max", fallback)
            if lo < mine["min"]:
                mine["min"] = lo
            if hi > mine["max"]:
                mine["max"] = hi
        for name, snap_h in snap.get("histograms", {}).items():
            mine_h = self.histograms.get(name)
            if mine_h is None:
                self.histograms[name] = Histogram.from_snapshot(snap_h)
            else:
                mine_h.merge(snap_h)


#: shared disabled sink: every emission is a cheap no-op.  Hand this to
#: components whose caller did not provide a sink.
NULL_TELEMETRY = Telemetry(enabled=False)


def null_telemetry() -> Telemetry:
    """The shared disabled sink (safe to share: it never mutates)."""
    return NULL_TELEMETRY


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _json_default(value: Any) -> Any:
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return value.tolist()
    if hasattr(value, "item"):
        return value.item()
    return str(value)
