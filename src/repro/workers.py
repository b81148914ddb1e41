"""One worker-process substrate: start, shared memory and death detection.

Sweep cells (:mod:`repro.runner`), serve replicas (:mod:`repro.serve`)
and data-parallel ranks (:mod:`repro.nn.parallel`) run in workers of
this module; each user keeps only its policy (retries, requeue, barrier
abort).  A :class:`WorkerGroup` picks the start method (``fork`` where
available, else ``spawn``) and owns every shared-memory segment its
workers map, released on every exit path, a failed start included.  A
:class:`Worker`'s receive waits on the pipe and the process sentinel
under a deadline and raises one :class:`WorkerDied`.  The child first
attaches the live stream and the flight recorder (so a worker SIGKILLed
at once still leaves a flight dump), then pins one BLAS thread and
adopts the parent's datasets, then runs its target, whose return value
is the final reply.  Workers never unregister a segment: every start
method shares the parent's resource tracker (spawn hands the child its
fd), so a child's unregister would drop the parent's registration and a
SIGKILLed parent would leak the segment for good.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
from multiprocessing import connection as mp_connection
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence

import numpy as np

from repro.nn.data import (
    SyntheticDataset,
    cached_dataset,
    dataset_cache_key,
    insert_cached_dataset,
)
from repro.telemetry import Telemetry
from repro.telemetry.live import attach_worker_live
from repro.utils.blas import set_blas_threads

__all__ = ["Worker", "WorkerDied", "WorkerGroup", "attach", "wait", "watch"]


class WorkerDied(RuntimeError):
    """A worker exited, broke its pipe, or sent no reply in time."""


# --------------------------------------------------------------------- #
# shared memory
# --------------------------------------------------------------------- #
def _dataset_recipes(configs: Sequence) -> list[tuple]:
    """Unique dataset recipes of ``ExperimentConfig``s, or of cells
    carrying one as ``.config``, in order."""
    seen: dict[tuple, None] = {}
    for item in configs:
        config = getattr(item, "config", item)
        tc = config.train
        seen.setdefault(dataset_cache_key(
            tc.dataset, tc.n_train, tc.n_test, tc.image_size, config.seed
        ))
    return list(seen)


def _release_segments(segments: list) -> None:
    """Close and unlink shared-memory segments (idempotent, best effort)."""
    for shm in segments:
        for release in (shm.close, shm.unlink):
            try:  # a live view blocks close, not unlink; gone is fine
                release()
            except Exception:
                pass


def _export_datasets_shm(configs: Sequence):
    """Copy every unique dataset into shared-memory segments; returns
    ``(specs, segments)``.  A failure partway releases what it made."""
    specs: list[dict] = []
    segments = []
    try:
        for key in _dataset_recipes(configs):
            ds = cached_dataset(*key)
            arrays = {}
            for field_name in ("x_train", "y_train", "x_test", "y_test"):
                arr = getattr(ds, field_name)
                shm = shared_memory.SharedMemory(create=True, size=arr.nbytes)
                segments.append(shm)
                np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)[...] = arr
                arrays[field_name] = {
                    "shm": shm.name, "shape": arr.shape, "dtype": arr.dtype.str,
                }
            specs.append({"key": key, "name": ds.name,
                          "num_classes": ds.num_classes, "arrays": arrays})
    except BaseException:
        _release_segments(segments)
        raise
    return specs, segments


#: the dataset segments this worker mapped, kept for its whole life.
_ATTACHED: list = []


def attach(name: str) -> shared_memory.SharedMemory:
    """Map a parent-owned segment (the attach's own tracker registration
    duplicates the parent's, so the tracker ignores it)."""
    return shared_memory.SharedMemory(name=name)


def _attach_datasets_shm(specs: list[dict]) -> None:
    """Adopt the parent's exported datasets into this process's cache."""
    for spec in specs:
        fields = {}
        for field_name, meta in spec["arrays"].items():
            shm = attach(meta["shm"])
            _ATTACHED.append(shm)
            fields[field_name] = np.ndarray(
                meta["shape"], dtype=np.dtype(meta["dtype"]), buffer=shm.buf
            )
        insert_cached_dataset(spec["key"], SyntheticDataset(
            name=spec["name"], num_classes=spec["num_classes"], **fields
        ))


def _init_worker(shm_specs: list[dict] | None = None) -> None:
    """A worker's set-up: one BLAS thread, then the shared datasets."""
    set_blas_threads(1)
    if shm_specs:
        _attach_datasets_shm(shm_specs)


# --------------------------------------------------------------------- #
# the worker process
# --------------------------------------------------------------------- #
def _bootstrap(conn, target, args, source: str, datasets) -> None:
    """Child entry point: live attachments, :func:`_init_worker`, target."""
    tel = Telemetry(echo=False)
    live = attach_worker_live(tel, source)
    try:
        _init_worker(datasets)
        reply = target(conn, tel, *args)
    except (EOFError, KeyboardInterrupt):  # parent gone / interrupted
        return
    finally:
        live.close()
    try:
        conn.send(reply)
    except Exception:  # parent already gone, or an unpicklable reply
        os._exit(1)


class Worker:
    """One worker process, running ``target(conn, telemetry, *args)``
    after the bootstrap, and the parent's end of its duplex pipe."""

    def __init__(self, ctx, target: Callable, args: tuple, source: str,
                 datasets, name: str | None = None):
        #: set once a stop was requested: :func:`watch` ignores the exit.
        self.stopping = False
        self.closed = False
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=_bootstrap, args=(child, target, args, source, datasets),
            name=name, daemon=True,
        )
        try:
            self.proc.start()
        finally:
            child.close()

    def __repr__(self) -> str:
        return f"worker {self.proc.name} (pid {self.proc.pid})"

    @property
    def pid(self) -> int | None:
        return self.proc.pid

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()

    def send(self, message: Any) -> None:
        """Send a command; :class:`WorkerDied` if the pipe is broken."""
        try:
            self.conn.send(message)
        except OSError as exc:
            raise WorkerDied(f"{self}: pipe broken ({exc})") from exc

    def recv(self, timeout: float | None = None) -> Any:
        """The next reply; :class:`WorkerDied` as soon as the worker exits
        without one, or once ``timeout`` seconds pass."""
        ready = mp_connection.wait([self.conn, self.proc.sentinel], timeout)
        if not ready:
            raise WorkerDied(f"{self} sent no reply within {timeout:g} s")
        if self.conn in ready:
            try:
                return self.conn.recv()
            except (EOFError, OSError):
                pass  # it exited, perhaps mid-send
        self.proc.join(1.0)
        raise WorkerDied(f"{self} exited with code {self.proc.exitcode}")

    def kill(self) -> None:
        """SIGKILL the worker and reap it."""
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join()

    def stop(self, message: Any = ("stop",), timeout: float = 30.0) -> Any:
        """Send ``message``, collect the final reply, join; the reply, or
        None when the worker died or sent none within ``timeout`` s."""
        if self.closed:
            return None
        self._request_stop(message)
        return self._collect(timeout)

    def _request_stop(self, message: Any) -> None:
        self.stopping = True  # before the send: the worker may exit at once
        if self.proc.is_alive():
            try:
                self.send(message)
            except WorkerDied:
                pass

    def _collect(self, timeout: float) -> Any:
        try:
            reply = self.recv(timeout)
        except WorkerDied:
            self.close(0.0)
            return None
        self.close(timeout)
        return reply

    def close(self, timeout: float = 5.0) -> None:
        """Join the worker, terminating (then killing) one that does not
        exit within ``timeout`` s, and close the pipe.  Idempotent."""
        if self.closed:
            return
        self.proc.join(timeout)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(5.0)
            if self.proc.is_alive():
                self.kill()
        self.conn.close()
        self.closed = True


def wait(workers: Sequence[Worker], timeout: float | None = None) -> list[Worker]:
    """Block until workers have a reply or have exited, or ``timeout``
    passes; returns those workers (empty on timeout)."""
    handles = [h for w in workers for h in (w.conn, w.proc.sentinel)]
    ready = set(mp_connection.wait(handles, timeout))
    return [w for w in workers if w.conn in ready or w.proc.sentinel in ready]


def watch(workers: Sequence[Worker],
          on_death: Callable[[Worker], None]) -> threading.Thread:
    """Call ``on_death(worker)`` from a daemon thread when a worker exits
    before it was stopped; the thread ends once every worker has exited."""
    pending = {w.proc.sentinel: w for w in workers}

    def run() -> None:
        while pending:
            for sentinel in mp_connection.wait(list(pending)):
                worker = pending.pop(sentinel)
                if not worker.stopping:
                    on_death(worker)
                    return

    thread = threading.Thread(target=run, daemon=True, name="repro-worker-watch")
    thread.start()
    return thread


# --------------------------------------------------------------------- #
# the parent's side
# --------------------------------------------------------------------- #
class WorkerGroup:
    """The workers and shared-memory segments one parent owns; call
    :meth:`close` on every exit path, a failed start included."""

    def __init__(self, start_method: str | None = None):
        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self.method = start_method
        self.ctx = mp.get_context(start_method)
        #: workers started and not yet closed, in start order.
        self.workers: list[Worker] = []
        self._segments: list = []
        self._datasets: list[dict] | None = None

    def share_datasets(self, configs: Sequence) -> None:
        """Give workers started from now on the configs' datasets: forked
        ones inherit the parent's cache, spawned ones attach to exports."""
        if self.method == "fork":
            return
        specs, segments = _export_datasets_shm(configs)
        self._segments.extend(segments)
        self._datasets = (self._datasets or []) + specs

    def segment(self, nbytes: int) -> shared_memory.SharedMemory:
        """A new shared-memory segment this group owns."""
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        self._segments.append(shm)
        return shm

    def start(self, target: Callable, *args: Any, source: str,
              name: str | None = None) -> Worker:
        """Start a worker running ``target(conn, telemetry, *args)``;
        ``source`` names it in live telemetry and flight dumps."""
        self.workers = [w for w in self.workers if not w.closed]
        worker = Worker(self.ctx, target, args, source, self._datasets, name)
        self.workers.append(worker)
        return worker

    def stop(self, message: Any = ("stop",), timeout: float = 30.0) -> list:
        """Stop every worker, the message sent to all first; returns the
        final replies in start order (None for a worker that sent none)."""
        workers = [w for w in self.workers if not w.closed]
        for worker in workers:
            worker._request_stop(message)
        return [worker._collect(timeout) for worker in workers]

    def close(self) -> None:
        """Kill the workers still running, reap them, release every
        segment.  Idempotent."""
        for worker in self.workers:
            if not worker.closed:
                worker.kill()
                worker.close()
        self.workers = []
        _release_segments(self._segments)
        self._segments = []
