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
* **Crash and hang resilience** — dispatch is asynchronous: every
  in-flight cell runs in its own worker process with a known pid, a
  result pipe and an optional wall-clock deadline.  A worker that dies
  (SIGKILL under memory pressure, segfault) or exceeds the timeout is
  *noticed* — the old ``pool.imap_unordered`` would block forever on the
  lost task — and the cell is retried with exponential backoff under a
  bounded :class:`RetryPolicy`; a fresh worker process replaces the
  poisoned one.  Exhausted retries yield a failed ``CellResult`` (NaN
  downstream), never a hang.  ``cell_crashed`` / ``cell_timeout`` /
  ``cell_retried`` telemetry events and ``runner.*`` counters record
  every recovery.
* **Checkpoint/resume** — ``run_experiments(checkpoint=path)`` appends
  each finished cell to a JSONL checkpoint
  (:mod:`repro.runner.checkpoint`) and skips cells the file already
  holds, so an interrupted sweep resumes bit-identically.
* **Oversubscription control** — every worker process (sweep cell, serve
  replica, data-parallel rank) starts in :func:`_init_worker`, which sets
  NumPy's OpenBLAS to one thread (:mod:`repro.utils.blas`); the matrices
  here are small enough that process-level parallelism dominates.  The
  calling process keeps its own count.

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
dataset **once in the parent** before any worker starts.  With the
default ``fork`` start method the workers inherit the cache copy-on-write
(zero copies, zero extra memory); with ``spawn``/``forkserver`` the
arrays are exported through ``multiprocessing.shared_memory`` segments
that each worker attaches to on startup.  Serial runs share the same
per-process cache (:mod:`repro.nn.data`).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
import traceback
from dataclasses import dataclass, field, replace
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.nn.data import (
    SyntheticDataset,
    cached_dataset,
    dataset_cache_key,
    insert_cached_dataset,
)
from repro.runner.checkpoint import CheckpointStore, cell_fingerprint
from repro.telemetry import Telemetry, null_telemetry
from repro.telemetry.live import FLIGHT_ENV, attach_worker_live, flight_path
from repro.utils.blas import set_blas_threads
from repro.utils.config import ExperimentConfig

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


# --------------------------------------------------------------------- #
# shared dataset cache plumbing
# --------------------------------------------------------------------- #
def _dataset_recipes(cells: Sequence[ExperimentCell]) -> list[tuple]:
    """Unique dataset generation recipes across the cells, in cell order."""
    seen: dict[tuple, None] = {}
    for cell in cells:
        tc = cell.config.train
        seen.setdefault(
            dataset_cache_key(
                tc.dataset, tc.n_train, tc.n_test, tc.image_size, cell.config.seed
            )
        )
    return list(seen)


def _prefill_dataset_cache(cells: Sequence[ExperimentCell]) -> None:
    """Materialise every unique dataset once (parent process / serial)."""
    for name, n_train, n_test, image_size, seed in _dataset_recipes(cells):
        cached_dataset(name, n_train, n_test, image_size, seed)


def _release_segments(segments: list) -> None:
    """Close and unlink shared-memory segments (idempotent, best effort)."""
    for shm in segments:
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        except Exception:
            pass


def _export_datasets_shm(cells: Sequence[ExperimentCell]):
    """Copy every unique dataset into shared-memory segments (spawn path).

    Returns ``(specs, segments)``: picklable per-dataset specs for the
    worker startup path, and the live segments the parent must close and
    unlink once the sweep is done.  If any allocation fails partway, the
    segments created so far are closed *and unlinked* before the error
    propagates — a half-built export must not leak ``/dev/shm`` space.
    """
    from multiprocessing import shared_memory

    specs: list[dict] = []
    segments = []
    try:
        for key in _dataset_recipes(cells):
            ds = cached_dataset(*key)
            arrays = {}
            for field_name in ("x_train", "y_train", "x_test", "y_test"):
                arr = getattr(ds, field_name)
                shm = shared_memory.SharedMemory(create=True, size=arr.nbytes)
                segments.append(shm)
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
                view[...] = arr
                arrays[field_name] = {
                    "shm": shm.name,
                    "shape": arr.shape,
                    "dtype": arr.dtype.str,
                }
            specs.append(
                {"key": key, "name": ds.name, "num_classes": ds.num_classes,
                 "arrays": arrays}
            )
    except BaseException:
        _release_segments(segments)
        raise
    return specs, segments


#: segments attached by a worker — referenced so their buffers stay mapped
#: for the lifetime of the worker process.
_WORKER_SHM: list = []


def _attach_datasets_shm(specs: list[dict]) -> None:
    """Worker startup body: adopt parent datasets from shared memory."""
    from multiprocessing import shared_memory

    for spec in specs:
        fields = {}
        for field_name, meta in spec["arrays"].items():
            shm = shared_memory.SharedMemory(name=meta["shm"])
            _WORKER_SHM.append(shm)
            # The parent owns the segment lifecycle (close + unlink after
            # the sweep is done); stop this process's resource tracker
            # from reporting it as leaked when the worker exits.
            try:  # pragma: no cover - CPython implementation detail
                from multiprocessing import resource_tracker

                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
            fields[field_name] = np.ndarray(
                meta["shape"], dtype=np.dtype(meta["dtype"]), buffer=shm.buf
            )
        insert_cached_dataset(
            spec["key"],
            SyntheticDataset(name=spec["name"], num_classes=spec["num_classes"],
                             **fields),
        )


def _init_worker(shm_specs: list[dict] | None = None) -> None:
    """First call of every worker process: one BLAS thread, shared datasets."""
    set_blas_threads(1)
    if shm_specs:
        _attach_datasets_shm(shm_specs)


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
def _run_cell(
    indexed: tuple[int, ExperimentCell], attempt: int = 1,
    tel: Telemetry | None = None,
) -> tuple[int, CellResult]:
    """Run one experiment, never raise."""
    index, cell = indexed
    t0 = time.perf_counter()
    # Belt-and-braces per-cell seeding of the *global* NumPy RNG: the
    # simulator draws everything from the config-seeded RngHub, but any
    # stray np.random user is made deterministic per cell rather than
    # inheriting whatever state the worker accumulated.  The attempt
    # number is deliberately absent — a retried cell must be bit-identical
    # to a first-try success.
    np.random.seed((int(cell.config.seed) * 2654435761 + index) % (2**32))
    live = None
    if tel is None:
        # Inline (serial) path: pooled workers pass their pre-attached
        # sink in so the streamer/flight recorder cover the whole worker
        # lifetime, chaos window included.
        tel = Telemetry(echo=False)
        live = attach_worker_live(tel, f"cell-{index}")
    try:
        from repro.core.controller import run_experiment

        result = run_experiment(cell.config, telemetry=tel)
        ok, error = True, None
    except Exception:
        result, ok, error = None, False, traceback.format_exc()
    if live is not None:
        live.close()
    return index, CellResult(
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


def _worker_main(conn, index: int, cell: ExperimentCell, attempt: int,
                 shm_specs: list[dict] | None) -> None:
    """Entry point of one worker process: run the cell, pipe the result.

    Any failure *around* the cell (dataset attach, pickling, chaos
    ``raise``) still produces a CellResult; a worker that dies without
    sending one (SIGKILL, segfault, chaos ``crash``) is detected by the
    dispatcher through its exit sentinel.
    """
    result: CellResult
    # The sink and its live attachments exist *before* the chaos hook so
    # a SIGKILL'd worker has already written an initial flight dump.
    tel = Telemetry(echo=False)
    live = attach_worker_live(tel, f"cell-{index}")
    try:
        _init_worker(shm_specs)
        _maybe_chaos(cell, attempt)
        _, result = _run_cell((index, cell), attempt=attempt, tel=tel)
    except BaseException:
        result = CellResult(
            key=cell.key,
            ok=False,
            result=None,
            error=traceback.format_exc(),
            wall_seconds=0.0,
            worker_pid=os.getpid(),
            tags=dict(cell.tags),
            telemetry=tel.snapshot(),
            attempts=attempt,
        )
    live.close()
    try:
        conn.send((index, result))
        conn.close()
    except Exception:  # pragma: no cover - parent already gone
        os._exit(1)


# --------------------------------------------------------------------- #
# asynchronous dispatch
# --------------------------------------------------------------------- #
@dataclass
class _InFlight:
    """One live worker process and the cell attempt it is running."""

    index: int
    cell: ExperimentCell
    attempt: int
    proc: Any
    conn: Any
    started: float
    deadline: float | None


@dataclass
class _Pending:
    """A cell attempt waiting for a worker slot (``not_before`` = backoff)."""

    index: int
    attempt: int
    not_before: float


def _dispatch(
    cell_list: Sequence[ExperimentCell],
    todo: Sequence[int],
    workers: int,
    ctx,
    shm_specs: list[dict] | None,
    timeout: float | None,
    retry: RetryPolicy,
    tel: Telemetry,
    record: Callable[[int, CellResult], None],
) -> None:
    """Fan ``todo`` cells across at most ``workers`` live processes.

    Unlike ``Pool.imap_unordered`` — which loses a task forever when its
    worker dies and then blocks on the result that will never come — every
    in-flight cell here owns its process, so the dispatcher can attribute
    a death or a blown deadline to the exact cell, kill/reap the process,
    and re-queue the cell under the retry policy.
    """
    pending: list[_Pending] = [_Pending(i, 1, 0.0) for i in todo]
    inflight: dict[int, _InFlight] = {}

    def _launch(item: _Pending) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, item.index, cell_list[item.index], item.attempt,
                  shm_specs),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        now = time.monotonic()
        inflight[item.index] = _InFlight(
            index=item.index,
            cell=cell_list[item.index],
            attempt=item.attempt,
            proc=proc,
            conn=parent_conn,
            started=now,
            deadline=now + timeout if timeout else None,
        )

    def _reap(flight: _InFlight) -> None:
        try:
            flight.conn.close()
        except Exception:
            pass
        flight.proc.join(timeout=5.0)

    def _fail(flight: _InFlight, reason: str, detail: str) -> None:
        key = flight.cell.key
        verb = "timed out" if reason == "timeout" else reason
        if reason == "timeout":
            tel.event("cell_timeout", cell=key, attempt=flight.attempt,
                      timeout_seconds=timeout)
            tel.count("runner.cell_timeouts")
        else:
            tel.event("cell_crashed", cell=key, attempt=flight.attempt,
                      exitcode=flight.proc.exitcode,
                      flight=_flight_dump_of(flight.proc.pid))
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
                worker_pid=flight.proc.pid or 0,
                tags=dict(flight.cell.tags),
                attempts=flight.attempt,
            ))

    try:
        while pending or inflight:
            now = time.monotonic()
            # Fill free worker slots with released (non-backing-off) cells,
            # in queue order.
            free = workers - len(inflight)
            if free > 0 and pending:
                launchable = [p for p in pending if p.not_before <= now][:free]
                for item in launchable:
                    pending.remove(item)
                    _launch(item)
            if not inflight:
                # Everything is backing off; sleep until the next release.
                next_release = min(p.not_before for p in pending)
                time.sleep(min(max(next_release - now, 0.0), 1.0))
                continue
            # Block until a worker sends a result or dies, bounded by the
            # nearest deadline / backoff release / poll tick.
            wait_until = now + _POLL_SECONDS
            for flight in inflight.values():
                if flight.deadline is not None:
                    wait_until = min(wait_until, flight.deadline)
            for item in pending:
                wait_until = min(wait_until, max(item.not_before, now))
            handles: list = []
            for flight in inflight.values():
                handles.append(flight.conn)
                handles.append(flight.proc.sentinel)
            mp_connection.wait(handles, timeout=max(wait_until - now, 0.01))
            now = time.monotonic()
            for flight in list(inflight.values()):
                if flight.conn.poll():
                    try:
                        _, res = flight.conn.recv()
                    except (EOFError, OSError):
                        pass  # died mid-send; handled as a crash below
                    else:
                        del inflight[flight.index]
                        _reap(flight)
                        record(flight.index, res)
                        continue
                if not flight.proc.is_alive():
                    del inflight[flight.index]
                    _reap(flight)
                    _fail(flight, "crashed",
                          f"worker pid {flight.proc.pid} exited with code "
                          f"{flight.proc.exitcode}")
                elif flight.deadline is not None and now >= flight.deadline:
                    del inflight[flight.index]
                    flight.proc.kill()
                    _reap(flight)
                    _fail(flight, "timeout",
                          f"exceeded the {timeout:.1f}s per-cell timeout")
    finally:
        # Interrupt / error path: never leave orphan workers behind.
        for flight in inflight.values():
            try:
                flight.proc.kill()
            except Exception:
                pass
        for flight in inflight.values():
            _reap(flight)


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
                _, res = _run_cell((index, cell_list[index]))
                record(index, res)
        else:
            if start_method is None:
                available = mp.get_all_start_methods()
                start_method = "fork" if "fork" in available else "spawn"
            ctx = mp.get_context(start_method)
            todo_cells = [cell_list[i] for i in todo]
            # Generate each unique dataset once, before any worker exists.
            # Fork workers inherit the cache copy-on-write; spawn/forkserver
            # workers attach to shared-memory exports on startup.
            _prefill_dataset_cache(todo_cells)
            shm_specs: list[dict] | None = None
            shm_segments: list = []
            try:
                if start_method != "fork":
                    shm_specs, shm_segments = _export_datasets_shm(todo_cells)
                _dispatch(
                    cell_list, todo, min(workers, len(todo)), ctx, shm_specs,
                    timeout, retry_policy, tel, record,
                )
            finally:
                _release_segments(shm_segments)
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
