"""The inference server: micro-batched, health-routed, drain-on-shutdown.

Threading model (all threads are daemonic, owned by the server):

* callers (any number) → :meth:`InferenceServer.submit` appends a
  :class:`~repro.serve.batcher.Request` to the micro-batcher;
* one **dispatcher** thread pulls coalesced batches from the batcher and
  hands each to an *idle*, *routable* replica picked by the
  health-weighted router;
* one **replica runner** thread per replica executes its assigned batch
  (one padded fixed-shape forward), fulfils the futures, and — because it
  is the only thread that ever talks to its replica — also runs that
  replica's maintenance inline: chaos fault injection, post-fault health
  sampling and the online drain → remap → restore sequence.

Failure policy: a replica that dies mid-batch (process killed, pipe
broken) has its in-flight requests re-queued at the *front* of the
batcher and retried on another replica; a request only fails if it
exhausts ``max_retries`` or no replicas remain.  Shutdown with
``drain=True`` (the default, also wired to SIGTERM/SIGINT by the CLI)
completes every queued and in-flight request before stopping the workers.

Chaos hook: ``REPRO_SERVE_CHAOS=faults:<after_batches>[:<post_m>:<post_n>]``
(or :attr:`ServeConfig.chaos`) injects one endurance fault wave into the
replica that completes batch number ``<after_batches>`` — the mid-traffic
degradation scenario the CI smoke gate replays.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from queue import Queue
from typing import Any

import numpy as np

from repro.serve.batcher import MicroBatcher, Request, RequestFuture
from repro.serve.replica import LocalReplica, ProcessReplica, ReplicaDied
from repro.serve.router import HealthRouter
from repro.telemetry import Telemetry
from repro.utils.config import ExperimentConfig

__all__ = ["InferenceServer", "ServeConfig"]


@dataclass
class ServeConfig:
    """Knobs of the serving plane (the model itself comes from
    :class:`~repro.utils.config.ExperimentConfig`)."""

    #: slot count of every forward — also the micro-batch ceiling.
    max_batch: int = 32
    #: how long the batcher keeps coalescing after the first dequeue (µs).
    max_wait_us: float = 2000.0
    #: number of serving replicas.
    replicas: int = 1
    #: run replicas as persistent worker processes (shared-memory
    #: transport) instead of in-process.
    workers: bool = False
    #: multiprocessing start method for worker replicas (None = auto).
    start_method: str | None = None
    #: chaos spec, e.g. ``"faults:20"`` — overrides ``REPRO_SERVE_CHAOS``.
    chaos: str | None = None
    #: a request that loses this many replicas mid-flight fails.
    max_retries: int = 3
    #: router shaping (see :class:`~repro.serve.router.HealthRouter`).
    weight_scale: float = 50.0
    min_weight: float = 0.05
    remap_threshold: float = 0.0

    def __post_init__(self):
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if self.replicas <= 0:
            raise ValueError("replicas must be positive")
        if self.max_wait_us < 0:
            raise ValueError("max_wait_us must be non-negative")


@dataclass
class _ChaosSpec:
    after_batches: int
    post_m: float | None = None
    post_n: float | None = None


def _parse_chaos(spec: str | None) -> _ChaosSpec | None:
    """Parse ``faults:<after_batches>[:<post_m>:<post_n>]`` (None = off)."""
    if not spec:
        return None
    parts = spec.split(":")
    if parts[0] != "faults" or len(parts) not in (2, 4):
        raise ValueError(
            f"bad chaos spec {spec!r}: want faults:<after_batches>"
            "[:<post_m>:<post_n>]"
        )
    after = int(parts[1])
    if len(parts) == 4:
        return _ChaosSpec(after, float(parts[2]), float(parts[3]))
    return _ChaosSpec(after)


class InferenceServer:
    """Serve one experiment's model across health-routed replicas."""

    def __init__(
        self,
        config: ExperimentConfig,
        serve: ServeConfig | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.config = config
        self.serve = serve if serve is not None else ServeConfig()
        self.telemetry = telemetry if telemetry is not None else Telemetry(echo=False)
        self._tel_lock = threading.Lock()
        self._chaos = _parse_chaos(
            self.serve.chaos or os.environ.get("REPRO_SERVE_CHAOS")
        )
        self._chaos_fired = False
        self._batches_done = 0
        self._rng = np.random.default_rng(config.seed ^ 0x5E12)
        self.router = HealthRouter(
            telemetry=self.telemetry,
            weight_scale=self.serve.weight_scale,
            min_weight=self.serve.min_weight,
            remap_threshold=self.serve.remap_threshold,
        )
        self.batcher = MicroBatcher(self.serve.max_batch, self.serve.max_wait_us)

        if self.serve.workers:
            # Every worker starts before any is awaited: the builds overlap.
            replicas = ProcessReplica.start_all(
                config, self.serve.max_batch, self.serve.replicas,
                start_method=self.serve.start_method,
            )
        else:
            replicas = [LocalReplica(config, self.serve.max_batch, replica_id=rid)
                        for rid in range(self.serve.replicas)]
        self.replicas: dict[int, Any] = dict(enumerate(replicas))
        self._locks = {rid: threading.Lock() for rid in self.replicas}
        self._queues = {rid: Queue(maxsize=1) for rid in self.replicas}
        try:
            for rid, replica in self.replicas.items():
                self.router.register(rid, replica.health())
        except BaseException:
            for replica in replicas:
                replica.close()
            raise
        first = self.replicas[0]
        self.input_shape = first.input_shape
        self.input_dtype = first.input_dtype
        self.num_classes = first.num_classes

        self._stopping = False
        self._closed = False
        self._inflight = 0
        self._idle: set[int] = set()
        self._idle_cv = threading.Condition()
        self._threads = [
            threading.Thread(
                target=self._replica_loop, args=(rid,), daemon=True,
                name=f"serve-runner-{rid}",
            )
            for rid in self.replicas
        ]
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, daemon=True, name="serve-dispatcher"
        )
        for t in self._threads:
            t.start()
        self._dispatcher.start()
        self.telemetry.event(
            "server_started",
            replicas=self.serve.replicas,
            max_batch=self.serve.max_batch,
            max_wait_us=self.serve.max_wait_us,
            workers=self.serve.workers,
            chaos=bool(self._chaos),
        )

    # ------------------------------------------------------------------ #
    # request surface
    # ------------------------------------------------------------------ #
    def submit(self, x: np.ndarray) -> RequestFuture:
        """Queue one sample for inference; resolves to its logits row."""
        x = np.asarray(x)
        if tuple(x.shape) != tuple(self.input_shape):
            raise ValueError(
                f"sample shape {x.shape} != model input {self.input_shape}"
            )
        request = Request(np.array(x, copy=True))
        self.batcher.submit(request)
        with self._tel_lock:
            self.telemetry.count("serve.requests")
        return request.future

    def predict(self, xs: np.ndarray, timeout: float = 120.0) -> np.ndarray:
        """Submit a batch of samples and block for all logits."""
        futures = [self.submit(row) for row in np.asarray(xs)]
        return np.stack([f.result(timeout=timeout) for f in futures])

    # ------------------------------------------------------------------ #
    # dispatcher
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        while True:
            batch = self.batcher.next_batch(timeout=0.2)
            if batch is None:
                with self._idle_cv:
                    if (self._stopping and len(self.batcher) == 0
                            and self._inflight == 0):
                        return
                continue
            with self._idle_cv:
                self._inflight += len(batch)
            self._assign(batch)

    def _assign(self, batch: list[Request]) -> None:
        """Hand a batch to an idle routable replica (or fail it)."""
        while True:
            with self._idle_cv:
                if self.router.alive_count() == 0:
                    break
                candidates = [
                    rid for rid in self._idle if self.router.routable(rid)
                ]
                rid = self.router.choose(candidates, self._rng)
                if rid is not None:
                    self._idle.discard(rid)
                else:
                    self._idle_cv.wait(0.1)
                    continue
            self._queues[rid].put(batch)
            return
        self._fail_batch(batch, ReplicaDied("no serving replicas left"))

    def _fail_batch(self, batch: list[Request], exc: Exception) -> None:
        """Fail a batch the dispatcher counted in flight."""
        self._fail_requests(batch, exc)
        with self._idle_cv:
            self._inflight -= len(batch)
            self._idle_cv.notify_all()

    def _fail_requests(self, requests: list[Request], exc: Exception) -> None:
        for request in requests:
            request.future.set_error(exc)
        with self._tel_lock:
            self.telemetry.count("serve.failed", len(requests))

    # ------------------------------------------------------------------ #
    # replica runners
    # ------------------------------------------------------------------ #
    def _replica_loop(self, rid: int) -> None:
        replica = self.replicas[rid]
        queue = self._queues[rid]
        while True:
            with self._idle_cv:
                self._idle.add(rid)
                self._idle_cv.notify_all()
            batch = queue.get()
            if batch is None:
                return
            xs = np.stack([request.x for request in batch])
            try:
                with self._locks[rid]:
                    logits, fault_version = replica.infer(xs)
            except ReplicaDied:
                self._on_replica_died(rid, batch)
                return
            except Exception as exc:  # defensive: surface, don't wedge
                self._fail_batch(batch, exc)
                continue
            done = time.perf_counter()
            for i, request in enumerate(batch):
                request.future.set_result(np.array(logits[i], copy=True))
            with self._tel_lock:
                tel = self.telemetry
                tel.count("serve.batches")
                tel.count("serve.completed", len(batch))
                tel.observe("serve.batch_size", float(len(batch)))
                for request in batch:
                    tel.observe("serve.latency_seconds", done - request.t_submit)
                self._batches_done += 1
                batches_done = self._batches_done
            with self._idle_cv:
                self._inflight -= len(batch)
                self._idle_cv.notify_all()
            self._maybe_chaos(rid, batches_done)
            if self.router.observe_fault_version(rid, fault_version):
                self._pull_health_and_react(rid)

    def _on_replica_died(self, rid: int, batch: list[Request]) -> None:
        """Requeue a dead replica's in-flight work and retire the replica."""
        self.router.mark_dead(rid)
        with self._tel_lock:
            self.telemetry.count("serve.replica_deaths")
        survivors: list[Request] = []
        failed: list[Request] = []
        for request in batch:
            request.attempts += 1
            (failed if request.attempts > self.serve.max_retries
             else survivors).append(request)
        if survivors:
            self.batcher.requeue(survivors)
            with self._tel_lock:
                self.telemetry.count("serve.retries", len(survivors))
        if failed:
            self._fail_batch(failed, ReplicaDied(
                f"request failed after {self.serve.max_retries} replica deaths"
            ))
        with self._idle_cv:
            self._idle.discard(rid)
            # requeued requests are back in the batcher's count, not in flight
            self._inflight -= len(survivors)
            self._idle_cv.notify_all()

    # ------------------------------------------------------------------ #
    # degradation handling
    # ------------------------------------------------------------------ #
    def _pull_health_and_react(self, rid: int) -> None:
        """Fresh health sample for a replica whose fault version moved."""
        replica = self.replicas[rid]
        try:
            with self._locks[rid]:
                health = replica.health()
        except ReplicaDied:
            self.router.mark_dead(rid)
            return
        self._react_to_faults(rid, health)

    def _react_to_faults(self, rid: int, health: dict[str, Any]) -> None:
        """Degrade the weight; drain + remap online when over threshold."""
        if not self.router.maybe_degrade(rid, health):
            return
        replica = self.replicas[rid]
        self.router.begin_remap(rid)
        try:
            with self._locks[rid]:
                post = replica.remap()
        except ReplicaDied:
            self.router.mark_dead(rid)
            return
        self.router.restore(rid, post)
        with self._idle_cv:
            self._idle_cv.notify_all()

    def inject_faults(
        self,
        replica_id: int = 0,
        post_m: float | None = None,
        post_n: float | None = None,
    ) -> int:
        """Inject a fault wave into one replica and react to it.

        The public chaos trigger (also used by the env-hook path): the
        router degrades the replica's weight, and — if the damage crosses
        the remap threshold — the replica is drained and remapped online
        before re-entering rotation.  Returns the number of crossbars hit.
        """
        replica = self.replicas[replica_id]
        with self._locks[replica_id]:
            hit = replica.inject_faults(post_m, post_n)
            health = replica.health()
        if self.router.observe_fault_version(
            replica_id, int(health.get("fault_version", 0))
        ):
            self._react_to_faults(replica_id, health)
        return hit

    def _maybe_chaos(self, rid: int, batches_done: int) -> None:
        spec = self._chaos
        if spec is None or self._chaos_fired:
            return
        if batches_done < spec.after_batches:
            return
        with self._idle_cv:
            if self._chaos_fired:
                return
            self._chaos_fired = True
        with self._tel_lock:
            self.telemetry.event(
                "chaos_trigger", replica=rid, after_batches=spec.after_batches
            )
        self.inject_faults(rid, spec.post_m, spec.post_n)

    def kill_replica(self, replica_id: int) -> None:
        """SIGKILL one worker replica (shutdown-regression testing)."""
        self.replicas[replica_id].kill()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self, drain: bool = True, timeout: float = 120.0) -> None:
        """Stop serving.  ``drain=True`` completes all queued requests
        first; ``drain=False`` fails whatever is still queued."""
        if self._closed:
            return
        self._closed = True
        self._stopping = True
        if not drain:
            # Never dispatched, so never counted in flight.
            pending = self.batcher.drain_pending()
            if pending:
                self._fail_requests(pending, RuntimeError("server shut down"))
        self.batcher.close()
        self._dispatcher.join(timeout=timeout)
        for rid in self.replicas:
            try:
                self._queues[rid].put_nowait(None)
            except Exception:
                pass
        for t in self._threads:
            t.join(timeout=timeout)
        for rid, replica in self.replicas.items():
            snap = replica.close()
            if snap is not None:
                self.telemetry.merge(snap, tag=f"replica{rid}")
        self.telemetry.event(
            "server_stopped",
            completed=self.telemetry.counters.get("serve.completed", 0),
            failed=self.telemetry.counters.get("serve.failed", 0),
            retries=self.telemetry.counters.get("serve.retries", 0),
        )

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close(drain=True)

    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """Point-in-time counters and histogram summaries."""
        with self._tel_lock:
            tel = self.telemetry
            return {
                "counters": dict(tel.counters),
                "histograms": {k: h.summary() for k, h in tel.histograms.items()},
                "weights": self.router.weights(),
            }
