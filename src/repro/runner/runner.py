"""Process-parallel experiment runner with crash/timeout resilience.

The figure benchmarks sweep a grid of independent ``(model, policy,
dataset, seed)`` cells; each cell is one full fault-tolerant training run
with its own chip, dataset and RNG hub, so cells share no state and
parallelise perfectly.  ``run_experiments`` fans a list of cells across
worker processes:

* **Determinism** — every cell derives all randomness from its config's
  seed through :class:`repro.utils.rng.RngHub`, and the compute dtype
  rides in ``TrainConfig.dtype``, so a cell's result is identical at
  ``workers=1`` and ``workers=N`` (and across start methods, and across
  retries of a crashed attempt).
* **Failure isolation** — a cell that *raises* produces a
  :class:`CellResult` carrying the traceback instead of killing the whole
  sweep.
* **Crash and hang resilience** — dispatch is asynchronous: at most
  ``workers`` worker processes live at once, each running one cell
  attempt at a time and then waiting for the next, so a process is
  forked once per worker slot rather than once per attempt and its
  imports, heap and page tables stay warm from cell to cell.  Every busy
  worker has a known pid, a result pipe and an optional wall-clock
  deadline.  A worker that dies (SIGKILL under memory pressure,
  segfault) or exceeds the timeout is *noticed* — the old
  ``pool.imap_unordered`` would block forever on the lost task — killed,
  reaped and replaced, and its cell is retried with exponential backoff
  under a bounded :class:`RetryPolicy`.  Exhausted retries yield a failed
  ``CellResult`` (NaN downstream), never a hang.  ``cell_crashed`` /
  ``cell_timeout`` / ``cell_retried`` telemetry events and ``runner.*``
  counters record every recovery.
* **Checkpoint/resume** — ``run_experiments(checkpoint=path)`` appends
  each finished cell to a JSONL checkpoint
  (:mod:`repro.runner.checkpoint`) and skips cells the file already
  holds, so an interrupted sweep resumes bit-identically.
* **One worker substrate** — the workers start, attach the datasets,
  pin one BLAS thread and report their death through :mod:`repro.workers`,
  which also runs serve replicas and data-parallel ranks; this module
  keeps only its policy: one process per worker slot, replaced on death
  or timeout, deadlines, retry/backoff and ``REPRO_RUNNER_CHAOS``.
  What a cell gets stays per cell in any process: the global NumPy
  seed from its config, its own telemetry sink streamed live under
  ``cell-{index}``, and an empty step arena when it ends.

Environment knobs: ``REPRO_BENCH_WORKERS`` (worker count, ``"auto"`` =
one per CPU, default serial), ``REPRO_BENCH_TIMEOUT`` (per-cell seconds,
default none), ``REPRO_BENCH_RETRIES`` (retries per crashed/timed-out
cell, default 2).  ``REPRO_RUNNER_CHAOS`` injects worker faults for
validating this machinery — see :func:`_maybe_chaos`.

Shared dataset cache
--------------------
Cells of one sweep usually train on a handful of distinct datasets (the
generation recipe ``(name, n_train, n_test, image_size, seed)`` repeats
across policies/models), so ``run_experiments`` materialises every unique
dataset **once in the parent** before any worker starts
(:meth:`repro.workers.WorkerGroup.share_datasets`): ``fork`` workers
inherit the cache copy-on-write, ``spawn`` workers attach to
shared-memory exports the parent owns and unlinks.  Serial runs share
the same per-process cache (:mod:`repro.nn.data`).
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.nn.data import cached_dataset
from repro.nn.tensor import step_arena
from repro.runner.checkpoint import CheckpointStore, cell_fingerprint
from repro.telemetry import Telemetry, null_telemetry
from repro.telemetry.live import FLIGHT_ENV, attach_worker_live, flight_path
from repro.utils.config import ExperimentConfig
from repro.workers import (
    Worker,
    WorkerDied,
    WorkerGroup,
    _dataset_recipes,
    wait,
)

__all__ = [
    "ExperimentCell",
    "CellResult",
    "RetryPolicy",
    "default_workers",
    "default_timeout",
    "default_retries",
    "results_by_key",
    "run_experiments",
]

WORKERS_ENV = "REPRO_BENCH_WORKERS"
TIMEOUT_ENV = "REPRO_BENCH_TIMEOUT"
RETRIES_ENV = "REPRO_BENCH_RETRIES"
CHAOS_ENV = "REPRO_RUNNER_CHAOS"

#: dispatcher poll granularity (s): upper bound on how late a deadline or
#: backoff release is noticed.  Coarse on purpose — cells run for seconds.
_POLL_SECONDS = 0.2


@dataclass(frozen=True)
class ExperimentCell:
    """One unit of work: a hashable key plus the full experiment config."""

    key: Any
    config: ExperimentConfig
    #: free-form labels carried through to the result (figure row/column
    #: names, sweep coordinates, ...).
    tags: dict[str, Any] = field(default_factory=dict)


@dataclass
class CellResult:
    """Outcome of one cell: either an ExperimentResult or an error record."""

    key: Any
    ok: bool
    #: :class:`repro.core.controller.ExperimentResult` on success.
    result: Any
    #: formatted traceback on failure, None on success.
    error: str | None
    wall_seconds: float
    worker_pid: int
    tags: dict[str, Any] = field(default_factory=dict)
    #: telemetry snapshot of the cell's run (``Telemetry.snapshot()``):
    #: plain dicts, so it pickles across fork *and* spawn workers.  The
    #: parent merges these into its own sink (see ``run_experiments``).
    telemetry: dict[str, Any] | None = None
    #: how many attempts this cell consumed (> 1 after crash/timeout
    #: retries; retried attempts are bit-identical re-runs).
    attempts: int = 1
    #: True when the result was restored from a checkpoint file instead
    #: of being computed in this invocation.
    restored: bool = False

    @property
    def final_accuracy(self) -> float:
        """Final accuracy, NaN for failed cells (poisons downstream means
        loudly instead of silently dropping the cell)."""
        return self.result.final_accuracy if self.ok else float("nan")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for crashed/timed-out cells.

    Attempt ``k`` (1-based) that crashes or times out is re-queued after
    ``backoff_seconds * backoff_factor ** (k - 1)`` — until
    ``max_attempts`` is exhausted, at which point the cell yields a
    failed :class:`CellResult` instead of aborting the sweep.  Cells that
    merely *raise* are not retried: a Python exception is deterministic,
    so a re-run would fail identically.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.5
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def delay_after(self, failed_attempt: int) -> float:
        """Backoff delay (s) after the given 1-based failed attempt."""
        return self.backoff_seconds * self.backoff_factor ** max(
            0, failed_attempt - 1
        )


def default_workers() -> int:
    """Worker count from ``REPRO_BENCH_WORKERS`` (default: serial)."""
    raw = os.environ.get(WORKERS_ENV, "").strip().lower()
    if not raw:
        return 1
    if raw == "auto":
        return max(1, os.cpu_count() or 1)
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{WORKERS_ENV} must be an integer or 'auto', got {raw!r}"
        ) from exc
    return max(1, value)


def default_timeout() -> float | None:
    """Per-cell timeout from ``REPRO_BENCH_TIMEOUT`` (seconds, default off)."""
    raw = os.environ.get(TIMEOUT_ENV, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(
            f"{TIMEOUT_ENV} must be a number of seconds, got {raw!r}"
        ) from exc
    return value if value > 0 else None


def default_retries() -> int:
    """Retries per crashed/timed-out cell from ``REPRO_BENCH_RETRIES``."""
    raw = os.environ.get(RETRIES_ENV, "").strip()
    if not raw:
        return 2
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{RETRIES_ENV} must be an integer, got {raw!r}"
        ) from exc
    return max(0, value)


def _normalise_retry(retry: "RetryPolicy | int | None") -> RetryPolicy:
    if retry is None:
        return RetryPolicy(max_attempts=1 + default_retries())
    if isinstance(retry, RetryPolicy):
        return retry
    return RetryPolicy(max_attempts=1 + max(0, int(retry)))


def _prefill_dataset_cache(cells: Sequence[ExperimentCell]) -> None:
    """Generate every unique dataset once, in the parent, before any
    worker exists (forked workers inherit the cache copy-on-write)."""
    for key in _dataset_recipes(cells):
        cached_dataset(*key)


# --------------------------------------------------------------------- #
# chaos injection (validation of the resilience machinery)
# --------------------------------------------------------------------- #
def _chaos_spec() -> tuple[str, str, int] | None:
    """Parse ``REPRO_RUNNER_CHAOS`` = ``mode[:key_substring[:attempts]]``.

    ``mode`` is ``crash`` (SIGKILL the worker), ``hang`` (sleep past any
    timeout) or ``raise`` (throw inside the worker).  The fault fires only
    for cells whose ``repr(key)`` contains ``key_substring`` (empty = all)
    and only while the attempt number is <= ``attempts`` (default 1, so a
    single retry recovers).  Used by the resilience tests and the CI
    chaos-smoke step; never set it on a real sweep.
    """
    raw = os.environ.get(CHAOS_ENV, "").strip()
    if not raw:
        return None
    parts = raw.split(":")
    mode = parts[0].strip().lower()
    if mode not in ("crash", "hang", "raise"):
        raise ValueError(
            f"{CHAOS_ENV} mode must be crash, hang or raise; got {mode!r}"
        )
    match = parts[1] if len(parts) > 1 else ""
    upto = int(parts[2]) if len(parts) > 2 else 1
    return mode, match, upto


def _flight_dump_of(pid: int | None) -> str | None:
    """Path of a dead worker's flight-recorder dump, if one exists.

    Folded into the ``cell_crashed`` event so a post-mortem is one
    ``repro report <flight file>`` away from the crash record.
    """
    directory = os.environ.get(FLIGHT_ENV, "").strip()
    if not directory or not pid:
        return None
    path = flight_path(directory, pid=pid)
    return path if os.path.exists(path) else None


def _maybe_chaos(cell: ExperimentCell, attempt: int) -> None:
    """Inject a worker fault when ``REPRO_RUNNER_CHAOS`` asks for one.

    Runs in worker processes only (never inline in the parent), so a
    ``crash`` kills just the worker the dispatcher is watching.
    """
    spec = _chaos_spec()
    if spec is None:
        return
    mode, match, upto = spec
    if match and match not in repr(cell.key):
        return
    if attempt > upto:
        return
    if mode == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    elif mode == "hang":
        time.sleep(3600.0)
    else:
        raise RuntimeError(
            f"chaos: injected failure for cell {cell.key!r} "
            f"(attempt {attempt})"
        )


# --------------------------------------------------------------------- #
# worker body
# --------------------------------------------------------------------- #
def _run_cell(index: int, cell: ExperimentCell, attempt: int = 1,
              chaos: bool = False) -> CellResult:
    """Run one experiment in this process, never raise.

    Serial runs call this inline, workers once per attempt they are
    handed (``chaos`` arms ``REPRO_RUNNER_CHAOS``, inside the cell's live
    attachments so a SIGKILLed attempt still leaves a flight dump).
    """
    t0 = time.perf_counter()
    # Belt-and-braces per-cell seeding of the *global* NumPy RNG: the
    # simulator draws everything from the config-seeded RngHub, but any
    # stray np.random user is made deterministic per cell rather than
    # inheriting whatever state the process accumulated.  The attempt
    # number is deliberately absent — a retried cell must be bit-identical
    # to a first-try success.
    np.random.seed((int(cell.config.seed) * 2654435761 + index) % (2**32))
    tel = Telemetry(echo=False)
    live = attach_worker_live(tel, f"cell-{index}")
    try:
        if chaos:
            _maybe_chaos(cell, attempt)
        from repro.core.controller import run_experiment

        result = run_experiment(cell.config, telemetry=tel)
        ok, error = True, None
    except Exception:
        result, ok, error = None, False, traceback.format_exc()
    finally:
        live.close()
        # The next cell may train another model: keep none of this one's
        # step buffers.
        step_arena().clear()
    return CellResult(
        key=cell.key,
        ok=ok,
        result=result,
        error=error,
        wall_seconds=time.perf_counter() - t0,
        worker_pid=os.getpid(),
        tags=dict(cell.tags),
        telemetry=tel.snapshot(),
        attempts=attempt,
    )


def _cell_main(conn, tel: Telemetry, index: int, cell: ExperimentCell,
               attempt: int) -> None:
    """Worker loop: run the attempt it was started with, reply
    ``(index, CellResult)``, then run each ``(index, cell, attempt)`` it
    is sent until ``("stop",)``.

    Each cell attaches its own sink (``tel``, the worker's, stays
    unused); a worker that dies without a reply is a crash of the
    attempt it was running.
    """
    while True:
        result = _run_cell(index, cell, attempt, chaos=True)
        try:
            conn.send((index, result))
        except OSError:  # the parent is gone
            return None
        message = conn.recv()
        if message == ("stop",):
            return None
        index, cell, attempt = message


# --------------------------------------------------------------------- #
# asynchronous dispatch
# --------------------------------------------------------------------- #
@dataclass
class _InFlight:
    """A cell attempt and the worker running it."""

    index: int
    cell: ExperimentCell
    attempt: int
    worker: Worker
    started: float
    deadline: float | None


@dataclass
class _Pending:
    """A cell attempt waiting for a worker (``not_before`` = backoff)."""

    index: int
    attempt: int
    not_before: float


def _dispatch(
    cell_list: Sequence[ExperimentCell],
    todo: Sequence[int],
    workers: int,
    group: WorkerGroup,
    timeout: float | None,
    retry: RetryPolicy,
    tel: Telemetry,
    record: Callable[[int, CellResult], None],
) -> None:
    """Run ``todo`` cells on at most ``workers`` live worker processes.

    Each pending cell goes to an idle worker; a new worker starts only
    when no idle one is alive and a slot is free.  Unlike
    ``Pool.imap_unordered`` — which loses a task forever when its worker
    dies and then blocks on the result that will never come — every busy
    worker runs exactly one known attempt, so the dispatcher can
    attribute a death or a blown deadline to the exact cell, kill and
    reap that worker, and re-queue the cell under the retry policy.  An
    idle worker that dies is dropped.  When the queue drains the idle
    workers are stopped and joined; ``group`` kills those still running
    when the sweep is interrupted.
    """
    pending: list[_Pending] = [_Pending(i, 1, 0.0) for i in todo]
    inflight: dict[Worker, _InFlight] = {}
    idle: list[Worker] = []

    def _hand_out(item: _Pending) -> bool:
        """Give ``item`` to an idle worker, else to a new one while a
        slot is free; False when every slot is busy."""
        cell = cell_list[item.index]
        worker = None
        while idle and worker is None:
            worker = idle.pop()
            try:
                worker.send((item.index, cell, item.attempt))
            except WorkerDied:  # it died while idle: the cell never ran
                worker.close()
                worker = None
        if worker is None:
            if len(inflight) >= workers:
                return False
            worker = group.start(_cell_main, item.index, cell, item.attempt,
                                 source=None)
        now = time.monotonic()
        inflight[worker] = _InFlight(
            index=item.index,
            cell=cell,
            attempt=item.attempt,
            worker=worker,
            started=now,
            deadline=now + timeout if timeout else None,
        )
        return True

    def _fail(flight: _InFlight, reason: str, detail: str) -> None:
        key = flight.cell.key
        verb = "timed out" if reason == "timeout" else reason
        if reason == "timeout":
            tel.event("cell_timeout", cell=key, attempt=flight.attempt,
                      pid=flight.worker.pid, timeout_seconds=timeout)
            tel.count("runner.cell_timeouts")
        else:
            tel.event("cell_crashed", cell=key, attempt=flight.attempt,
                      pid=flight.worker.pid,
                      exitcode=flight.worker.proc.exitcode,
                      flight=_flight_dump_of(flight.worker.pid))
            tel.count("runner.cell_crashes")
        if flight.attempt < retry.max_attempts:
            delay = retry.delay_after(flight.attempt)
            tel.event("cell_retried", cell=key, attempt=flight.attempt + 1,
                      reason=reason, delay_seconds=round(delay, 3))
            tel.count("runner.cell_retries")
            pending.append(_Pending(flight.index, flight.attempt + 1,
                                    time.monotonic() + delay))
        else:
            tel.count("runner.cells_failed")
            record(flight.index, CellResult(
                key=key,
                ok=False,
                result=None,
                error=(
                    f"cell {key!r} {verb} ({detail}) on attempt "
                    f"{flight.attempt}/{retry.max_attempts}; retries exhausted"
                ),
                wall_seconds=time.monotonic() - flight.started,
                worker_pid=flight.worker.pid or 0,
                tags=dict(flight.cell.tags),
                attempts=flight.attempt,
            ))

    while pending or inflight:
        now = time.monotonic()
        # Hand released (non-backing-off) cells out in queue order.
        for item in [p for p in pending if p.not_before <= now]:
            if not _hand_out(item):
                break
            pending.remove(item)
        # Block until a worker replies or dies, bounded by the nearest
        # deadline / backoff release / poll tick.
        wait_until = now + _POLL_SECONDS
        for flight in inflight.values():
            if flight.deadline is not None:
                wait_until = min(wait_until, flight.deadline)
        for item in pending:
            wait_until = min(wait_until, max(item.not_before, now))
        ready = wait(list(inflight) + idle,
                     timeout=max(wait_until - time.monotonic(), 0.01))
        now = time.monotonic()
        for worker in ready:
            flight = inflight.pop(worker, None)
            if flight is None:  # an idle worker exited
                idle.remove(worker)
                worker.close()
                continue
            try:
                _, res = worker.recv(0)
            except WorkerDied as exc:
                worker.close()
                _fail(flight, "crashed", str(exc))
            else:
                idle.append(worker)
                record(flight.index, res)
        for worker, flight in list(inflight.items()):
            if flight.deadline is not None and now >= flight.deadline:
                del inflight[worker]
                worker.kill()
                worker.close()
                _fail(flight, "timeout",
                      f"exceeded the {timeout:.1f}s per-cell timeout")
    group.stop()


def _normalise(cells: Iterable) -> list[ExperimentCell]:
    out: list[ExperimentCell] = []
    for i, cell in enumerate(cells):
        if isinstance(cell, ExperimentCell):
            out.append(cell)
        elif isinstance(cell, ExperimentConfig):
            out.append(ExperimentCell(key=i, config=cell))
        elif isinstance(cell, tuple) and len(cell) == 2:
            key, config = cell
            out.append(ExperimentCell(key=key, config=config))
        else:
            raise TypeError(
                "cells must be ExperimentCell, ExperimentConfig or "
                f"(key, config) tuples; got {type(cell).__name__}"
            )
    return out


def _ensure_complete(
    results: Sequence[CellResult | None], cell_list: Sequence[ExperimentCell]
) -> None:
    """Raise (never ``assert``) when any cell finished without a result.

    The sweep's completeness is an interface guarantee that callers index
    on, so it must survive ``python -O`` and must name the culprits — this
    is also the surface the retry machinery reports through if it ever
    loses track of a cell.
    """
    missing = [cell_list[i].key for i, r in enumerate(results) if r is None]
    if missing:
        shown = ", ".join(repr(k) for k in missing[:8])
        suffix = "" if len(missing) <= 8 else f" (+{len(missing) - 8} more)"
        raise RuntimeError(
            f"run_experiments finished with {len(missing)}/{len(cell_list)} "
            f"cells unaccounted for: {shown}{suffix}"
        )


def run_experiments(
    cells: Iterable,
    workers: int | None = None,
    *,
    start_method: str | None = None,
    on_result: Callable[[CellResult], None] | None = None,
    telemetry: Telemetry | None = None,
    timeout: float | None = None,
    retry: "RetryPolicy | int | None" = None,
    checkpoint: str | os.PathLike | None = None,
) -> list[CellResult]:
    """Run independent experiment cells, optionally across processes.

    Parameters
    ----------
    cells:
        ``ExperimentCell`` objects, bare ``ExperimentConfig`` objects, or
        ``(key, config)`` tuples.
    workers:
        Process count; ``None`` resolves ``REPRO_BENCH_WORKERS`` (serial
        by default, ``auto`` = CPU count).  ``workers <= 1`` runs inline
        with no worker processes — bit-identical to the parallel path.
    start_method:
        ``multiprocessing`` start method; default prefers ``fork`` (cheap
        on Linux) and falls back to ``spawn``.
    on_result:
        Optional progress callback, invoked in the parent as each cell
        finishes (completion order, not submission order); also invoked
        for checkpoint-restored cells (``CellResult.restored`` is True).
    telemetry:
        Optional parent sink.  Every cell runs against its own sink (in
        the worker process for pooled runs); the snapshots ride back on
        :attr:`CellResult.telemetry` and are merged here in *submission*
        order, tagged with the cell key — so the aggregate is identical
        for serial, fork and spawn execution.  Resilience events
        (``cell_crashed`` / ``cell_timeout`` / ``cell_retried`` /
        ``cell_restored``) and ``runner.*`` counters are emitted directly
        into this sink as they happen.
    timeout:
        Per-cell wall-clock limit in seconds; a worker past its deadline
        is killed and the cell retried.  ``None`` resolves
        ``REPRO_BENCH_TIMEOUT`` (default: no timeout); ``0`` disables.
        Enforced only for pooled runs (``workers >= 2``) — the inline
        path has no process to kill.
    retry:
        :class:`RetryPolicy`, an int (number of retries on top of the
        first attempt), or ``None`` to resolve ``REPRO_BENCH_RETRIES``
        (default: 2 retries).  Applies to crashed and timed-out cells;
        cells that raise a Python exception fail immediately (their
        failure is deterministic).
    checkpoint:
        Path to a JSONL checkpoint file (:mod:`repro.runner.checkpoint`).
        Cells whose fingerprint (key + full config) already has a
        successful record are restored instead of re-run — bit-identical,
        including telemetry — and every newly finished successful cell is
        appended as it completes, so an interrupted sweep loses at most
        the in-flight cells.

    Returns
    -------
    list[CellResult] in the submission order of ``cells``.
    """
    cell_list = _normalise(cells)
    if not cell_list:
        return []
    if workers is None:
        workers = default_workers()
    workers = max(1, min(int(workers), len(cell_list)))
    if timeout is None:
        timeout = default_timeout()
    elif timeout <= 0:
        timeout = None
    retry_policy = _normalise_retry(retry)
    tel = telemetry if telemetry is not None else null_telemetry()

    results: list[CellResult | None] = [None] * len(cell_list)
    todo = list(range(len(cell_list)))

    store: CheckpointStore | None = None
    fingerprints: list[str] | None = None
    if checkpoint is not None:
        store = CheckpointStore(checkpoint)
        fingerprints = [cell_fingerprint(c.key, c.config) for c in cell_list]
        restored = store.load()
        todo = []
        for index, cell in enumerate(cell_list):
            res = restored.get(fingerprints[index])
            if res is not None and res.ok:
                res = replace(res, restored=True)
                results[index] = res
                tel.event("cell_restored", cell=cell.key)
                tel.count("runner.cells_restored")
                if on_result is not None:
                    on_result(res)
            else:
                todo.append(index)

    def record(index: int, res: CellResult) -> None:
        results[index] = res
        if store is not None and fingerprints is not None and res.ok:
            store.append(fingerprints[index], res)
        if on_result is not None:
            on_result(res)

    if todo:
        if min(workers, len(todo)) == 1:
            # Inline: cells share the per-process dataset cache directly.
            for index in todo:
                record(index, _run_cell(index, cell_list[index]))
        else:
            # The group kills the workers still running and releases the
            # shared memory on every exit path.
            todo_cells = [cell_list[i] for i in todo]
            _prefill_dataset_cache(todo_cells)
            group = WorkerGroup(start_method)
            try:
                group.share_datasets(todo_cells)
                _dispatch(
                    cell_list, todo, min(workers, len(todo)), group,
                    timeout, retry_policy, tel, record,
                )
            finally:
                group.close()
    _ensure_complete(results, cell_list)
    if telemetry is not None:
        # Merge in submission order (not completion order) so the parent
        # aggregate is deterministic across worker counts/start methods.
        for res in results:
            telemetry.merge(res.telemetry, tag=res.key)
    return results  # type: ignore[return-value]


def results_by_key(results: Sequence[CellResult]) -> dict[Any, CellResult]:
    """Index results by cell key (keys must be unique and hashable)."""
    out: dict[Any, CellResult] = {}
    for res in results:
        if res.key in out:
            raise ValueError(f"duplicate cell key {res.key!r}")
        out[res.key] = res
    return out
