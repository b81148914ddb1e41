"""Serving replicas: one experiment stack each, local or out-of-process.

A replica owns a complete, independent copy of the serving target — chip,
fault maps, policy, bound model — built from the same
:class:`~repro.utils.config.ExperimentConfig` the training stack uses, so
faults degrade (and remaps repair) each replica independently, exactly
like chips in a fleet.

:class:`ReplicaCore` is the substrate: fixed-shape batched inference plus
the maintenance verbs the router needs (``health``, ``inject_faults``,
``remap``).  :class:`LocalReplica` runs a core on the caller's thread;
:class:`ProcessReplica` runs it in a persistent worker of
:mod:`repro.workers` (a death raises :class:`ReplicaDied`, which the
server answers with a requeue) and moves request/response tensors
through one preallocated shared-memory segment per replica — the pipe
carries only tiny command tuples, never activations.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Any

import numpy as np

from repro.telemetry import Telemetry
from repro.telemetry.health import chip_health, sample_health
from repro.utils.config import ExperimentConfig
from repro.workers import WorkerDied, WorkerGroup, attach

__all__ = ["LocalReplica", "ProcessReplica", "ReplicaCore", "ReplicaDied"]

#: how long (s) the parent waits on a replica pipe before declaring the
#: worker dead.  Serving batches complete in milliseconds; a remap pass
#: in tens of milliseconds — a minute means the process is gone or hung.
_REPLY_TIMEOUT = 60.0


class ReplicaDied(WorkerDied):
    """A process replica exited, broke its pipe, or stopped replying."""


def _serving_config(config: ExperimentConfig) -> ExperimentConfig:
    """The per-replica experiment config: plain single-process trainer."""
    return replace(config, train=replace(config.train, data_parallel=0))


class ReplicaCore:
    """One serving replica: experiment stack + fixed-shape inference.

    ``max_batch`` is the slot count of every forward: short batches are
    zero-padded to it (see the package docstring for why).  The first
    forward is run at construction so the effective-weight cache and the
    im2col scratch are hot before the replica enters rotation.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        max_batch: int,
        replica_id: int = 0,
        telemetry: Telemetry | None = None,
        warm: bool = True,
    ):
        from repro.core.controller import build_experiment

        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self.replica_id = replica_id
        self.max_batch = max_batch
        self.telemetry = telemetry if telemetry is not None else Telemetry(echo=False)
        self.ctx = build_experiment(_serving_config(config), telemetry=self.telemetry)
        self.trainer = self.ctx.trainer
        self._bist_rng = self.ctx.rng_hub.stream("serve-bist")
        self._chaos_rng = self.ctx.rng_hub.stream("serve-chaos")
        self._remap_passes = 0
        ds = self.ctx.dataset
        #: per-sample input shape / dtype and the logit width, in one
        #: place so transports can size their buffers without a forward.
        self.input_shape = tuple(ds.x_train.shape[1:])
        self.input_dtype = ds.x_train.dtype
        self.num_classes = ds.num_classes
        if warm:
            self.infer(np.zeros((1,) + self.input_shape, dtype=self.input_dtype))

    # ------------------------------------------------------------------ #
    def infer(self, x: np.ndarray) -> np.ndarray:
        """Logits for ``x`` (one padded fixed-shape no-grad forward)."""
        if len(x) > self.max_batch:
            raise ValueError(
                f"batch of {len(x)} exceeds the replica's {self.max_batch} slots"
            )
        return self.trainer.predict(x, batch=self.max_batch, pad_to=self.max_batch)

    @property
    def fault_version(self) -> int:
        """Monotonic chip fault-state version (bumped by every injection)."""
        return self.ctx.chip.fault_version

    # ------------------------------------------------------------------ #
    # maintenance verbs (driven by the router)
    # ------------------------------------------------------------------ #
    def health(self) -> dict[str, Any]:
        """Ground-truth chip health plus the serving identity fields."""
        h = chip_health(self.ctx.chip)
        h["replica"] = self.replica_id
        h["fault_version"] = self.fault_version
        return h

    def inject_faults(self, post_m: float | None = None,
                      post_n: float | None = None) -> int:
        """Inject one endurance-style fault wave (the chaos hook).

        ``post_m`` / ``post_n`` default to the experiment's configured
        post-deployment regime.  Returns the number of crossbars hit.
        """
        injector = self.ctx.injector
        cfg = injector.config
        if post_m is not None or post_n is not None:
            injector = type(injector)(
                replace(cfg,
                        post_m=cfg.post_m if post_m is None else post_m,
                        post_n=cfg.post_n if post_n is None else post_n),
                self._chaos_rng,
            )
        chip = self.ctx.chip
        hit = injector.inject_post_epoch(chip.fault_maps, None,
                                         epoch=self._remap_passes)
        chip.bump_fault_version()
        self.telemetry.event(
            "fault_injected", phase="serve", source="chaos",
            replica=self.replica_id, crossbars=len(hit),
        )
        self.telemetry.count("serve.chaos_faults", len(hit))
        return len(hit)

    def remap(self) -> dict[str, Any]:
        """One online remap pass: BIST scan, policy reaction, health sample.

        This is the paper's end-of-epoch transition run *between request
        waves* instead: scan the chip, let the policy move tasks off the
        newly degraded pairs, and emit a fresh ``health_sample`` so the
        trace shows the repair.  Returns the post-remap health dict.
        """
        from repro.bist.density import pair_density_estimates, scan_chip

        ctx = self.ctx
        tel = self.telemetry
        pass_index = self._remap_passes
        self._remap_passes += 1
        if ctx.policy.uses_bist:
            densities = scan_chip(ctx.chip, self._bist_rng, telemetry=tel)
            ctx.pair_density_est = pair_density_estimates(ctx.chip, densities)
            ctx.bist_scans += 1
            tel.count("bist_scans")
        remaps_before = tel.counters.get("remaps", 0)
        ctx.policy.on_epoch_end(ctx, pass_index)
        health = sample_health(ctx.chip, tel, epoch=pass_index,
                               replica=self.replica_id)
        tel.event(
            "online_remap",
            replica=self.replica_id,
            pass_index=pass_index,
            num_remaps=tel.counters.get("remaps", 0) - remaps_before,
            fault_version=self.fault_version,
        )
        tel.count("serve.remaps_online")
        health["replica"] = self.replica_id
        health["fault_version"] = self.fault_version
        return health

    def snapshot(self) -> dict[str, Any]:
        """Final telemetry snapshot (publishes the engine cache counters)."""
        for name, value in self.ctx.engine.cache_stats().items():
            self.telemetry.count(f"engine.cache_{name}", value)
        self.ctx.engine.reset_cache_stats()
        return self.telemetry.snapshot()


class LocalReplica:
    """A :class:`ReplicaCore` driven directly on the caller's thread."""

    def __init__(self, config: ExperimentConfig, max_batch: int,
                 replica_id: int = 0):
        self.replica_id = replica_id
        self.core = ReplicaCore(config, max_batch, replica_id=replica_id)
        self.input_shape = self.core.input_shape
        self.input_dtype = self.core.input_dtype
        self.num_classes = self.core.num_classes
        self.pid = os.getpid()

    @property
    def alive(self) -> bool:
        return True

    def infer(self, x: np.ndarray) -> tuple[np.ndarray, int]:
        return self.core.infer(x), self.core.fault_version

    def health(self) -> dict[str, Any]:
        return self.core.health()

    def inject_faults(self, post_m=None, post_n=None) -> int:
        return self.core.inject_faults(post_m, post_n)

    def remap(self) -> dict[str, Any]:
        return self.core.remap()

    def close(self) -> dict[str, Any] | None:
        return self.core.snapshot()

    def kill(self) -> None:  # pragma: no cover - parity stub
        raise RuntimeError("cannot kill an in-process replica")


# --------------------------------------------------------------------- #
# out-of-process replicas
# --------------------------------------------------------------------- #
def _replica_main(conn, tel, replica_id, config, max_batch, shm_name):
    """Persistent replica worker: build the core, loop on pipe commands.

    Tensor transport rides the named shared-memory segment: the parent
    writes the request batch into the input region before sending
    ``("infer", n)``; the worker writes logits into the output region and
    replies with the chip's fault version.  Everything else is tiny
    dicts; ``("stop",)`` returns the final telemetry snapshot.
    """
    shm = in_view = out_view = None
    try:
        core = ReplicaCore(
            config, max_batch, replica_id=replica_id, telemetry=tel
        )
        shm = attach(shm_name)
        in_view, out_view = _carve_transport(
            shm.buf, max_batch, core.input_shape, core.input_dtype,
            core.num_classes,
        )
        conn.send("ready")
        while True:
            cmd = conn.recv()
            op = cmd[0]
            if op == "infer":
                n = cmd[1]
                out_view[:n] = core.infer(in_view[:n])
                conn.send(core.fault_version)
            elif op == "health":
                conn.send(core.health())
            elif op == "inject":
                conn.send(core.inject_faults(cmd[1], cmd[2]))
            elif op == "remap":
                conn.send(core.remap())
            elif op == "stop":
                return core.snapshot()
            else:  # pragma: no cover - protocol error
                raise RuntimeError(f"unknown serve command {cmd!r}")
    finally:
        in_view = out_view = None  # noqa: F841 - drop shm views before close
        if shm is not None:
            try:
                shm.close()
            except Exception:  # a view outlived the loop; exit unmaps it
                pass


def _carve_transport(buf, max_batch, input_shape, input_dtype, num_classes):
    """Input and output array views over one replica's transport segment."""
    in_dtype = np.dtype(input_dtype)
    out_dtype = np.dtype(np.float64)
    in_count = max_batch * int(np.prod(input_shape))
    in_view = np.frombuffer(buf, dtype=in_dtype, count=in_count).reshape(
        (max_batch,) + tuple(input_shape)
    )
    out_view = np.frombuffer(
        buf, dtype=out_dtype, count=max_batch * num_classes,
        offset=in_count * in_dtype.itemsize,
    ).reshape(max_batch, num_classes)
    return in_view, out_view


def _transport_nbytes(max_batch, input_shape, input_dtype, num_classes):
    in_dtype = np.dtype(input_dtype)
    n = max_batch * int(np.prod(input_shape)) * in_dtype.itemsize
    return n + max_batch * num_classes * np.dtype(np.float64).itemsize


class ProcessReplica:
    """A replica in a persistent worker process, shared-memory transport.

    The worker stays cache-hot across requests: the experiment stack
    (and with it the effective-weight cache) lives for the process's
    whole life, and the only per-request cost in the parent is one
    ``np.copyto`` into the segment plus a pipe round-trip.  Replicas are
    started with :meth:`start_all`.
    """

    def __init__(self, config: ExperimentConfig, max_batch: int,
                 replica_id: int, group: WorkerGroup):
        """Size the transport segment in ``group`` and start the worker
        there (:meth:`start_all` awaits its "ready"); a failure kills the
        worker and, once no worker of the group is left, releases the
        group's segments."""
        from repro.nn.data import cached_dataset

        self.replica_id = replica_id
        self.max_batch = max_batch
        self._in = self._out = None
        self._group = group
        self._worker = None
        try:
            # The dataset is generated in the parent, once: the worker
            # inherits or attaches it, and its shapes size the transport.
            tc = config.train
            dataset = cached_dataset(
                tc.dataset, tc.n_train, tc.n_test, tc.image_size, config.seed
            )
            self.input_shape = tuple(dataset.x_train.shape[1:])
            self.input_dtype = dataset.x_train.dtype
            self.num_classes = dataset.num_classes
            shm = group.segment(_transport_nbytes(
                max_batch, self.input_shape, self.input_dtype, self.num_classes
            ))
            self._in, self._out = _carve_transport(
                shm.buf, max_batch, self.input_shape, self.input_dtype,
                self.num_classes,
            )
            self._worker = group.start(
                _replica_main, replica_id, config, max_batch, shm.name,
                source=f"replica{replica_id}", name=f"repro-serve-{replica_id}",
            )
        except BaseException:
            self._discard()
            raise

    @classmethod
    def start_all(cls, config: ExperimentConfig, max_batch: int, count: int,
                  start_method: str | None = None) -> list["ProcessReplica"]:
        """Replicas ``0 .. count - 1``, every worker started before any
        "ready" is awaited, so their builds run side by side, in one
        group that exports the dataset once for all of them.  When one
        fails to start, every replica already started is killed and the
        group's segments released before the error propagates."""
        group = WorkerGroup(start_method)
        group.share_datasets([config])
        replicas: list[ProcessReplica] = []
        try:
            for rid in range(count):
                replicas.append(cls(config, max_batch, rid, group))
            for replica in replicas:
                replica._call()  # the worker's "ready"
        except BaseException:
            for replica in replicas:
                replica._discard()
            raise
        return replicas

    def _discard(self) -> None:
        """Kill the worker; the last replica of the group to go releases
        the group's segments (the shared dataset, every transport).
        Idempotent."""
        self._in = self._out = None
        if self._worker is not None:
            self._worker.kill()
            self._worker.close()
        if all(worker.closed for worker in self._group.workers):
            self._group.close()

    @property
    def pid(self) -> int | None:
        return self._worker.pid

    @property
    def alive(self) -> bool:
        return self._worker.alive

    def _call(self, *cmd):
        """Send ``cmd`` (if any) and return the worker's reply."""
        try:
            if cmd:
                self._worker.send(cmd)
            return self._worker.recv(_REPLY_TIMEOUT)
        except WorkerDied as exc:
            raise ReplicaDied(f"replica {self.replica_id}: {exc}") from exc

    def infer(self, x: np.ndarray) -> tuple[np.ndarray, int]:
        n = len(x)
        if n > self.max_batch:
            raise ValueError(
                f"batch of {n} exceeds the replica's {self.max_batch} slots"
            )
        np.copyto(self._in[:n], x)
        fault_version = self._call("infer", n)
        return np.array(self._out[:n], copy=True), fault_version

    def health(self) -> dict[str, Any]:
        return self._call("health")

    def inject_faults(self, post_m=None, post_n=None) -> int:
        return self._call("inject", post_m, post_n)

    def remap(self) -> dict[str, Any]:
        return self._call("remap")

    def kill(self) -> None:
        """SIGKILL the worker (chaos / shutdown-regression testing)."""
        self._worker.kill()

    def close(self) -> dict[str, Any] | None:
        """Stop the worker; returns its telemetry snapshot (None if dead)."""
        snapshot = self._worker.stop()
        self._discard()
        return snapshot
