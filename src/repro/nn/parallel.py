"""Data-parallel CNN training with worker-count-invariant numerics.

Each batch is split into ``TrainConfig.grad_shards`` contiguous
micro-shards of the shuffled index order.  Shard ``s`` is executed by
rank ``s % world`` (forward, loss, backward on that slice only); the
per-shard weight gradients, batch-norm batch statistics and losses are
published into a shared-memory block, and after an exchange *every* rank
reduces them in ascending shard order, replays the batch-norm
running-stat updates in that same order, and applies an identical SGD
step.  All ranks therefore hold bit-identical replicas at every step,
and — because the recipe is defined entirely over the fixed shard count,
never the worker count — any world size from 1 to ``grad_shards``
produces the same bits (asserted by ``tests/test_nn_parallel.py``).

Sharded numerics intentionally differ from the single-process full-batch
path: batch-norm statistics are per-shard, and the batch loss is the
shard-size-weighted mean of the per-shard losses.  The contract is
*worker-count invariance*, not equivalence with single-process
full-batch training.

Every rank runs the one batch loop of :class:`~repro.nn.trainer.Trainer`;
:class:`DataParallelTrainer` supplies only the batch gradient (its
:meth:`~DataParallelTrainer.batch_gradients`: the rank's own shards,
then the all-reduce).  Workers are persistent SPMD processes of
:mod:`repro.workers`, each building the same :class:`DataParallelTrainer`
from the same experiment config and joining the exchange with its pipe
end, driven over that pipe by four commands:

- ``("epoch", e)`` runs ``train_epoch(e)``, the epoch rank 0 runs;
- ``("hook", e)`` replays the controller's end-of-epoch transition
  (fault injection, BIST, policy remap) on the worker's replica.  The
  controller sends it *before* rank 0 applies the same transition, so
  the ranks replay it while rank 0 applies it; the pipe still delivers
  it ahead of the next command;
- ``("eval",)`` replies with the worker's
  :meth:`~repro.nn.trainer.Trainer.correct_share` of the test split:
  eval batch ``k`` (at
  :meth:`~repro.nn.trainer.Trainer.eval_batch_size`) runs on rank
  ``k % world``; rank 0 scores its own share, adds the workers' counts
  and divides by the split's size.  Each batch's logits come from the
  same one-BLAS-thread forward on a bit-identical replica, so the
  accuracy equals a single process's;
- ``("stop",)`` returns the worker's telemetry snapshot and exits.

Within an epoch the ranks meet on the same pipes (:meth:`_ShardComm.exchange`):
rank 0 takes one arrival from each worker, then sends each the release,
which on a calibration batch carries the gradient ADC scales.  So a rank
that dies anywhere, mid-shard, inside an exchange or while rank 0 waits
for its eval share, raises :class:`~repro.workers.WorkerDied` in rank 0
at once, and a failure on either side kills the ranks rather than leave
them waiting.  Each worker builds its replica from the experiment
config with :func:`~repro.core.controller.build_experiment`, rank 0's
own build, so determinism rests on the named RNG streams of
:class:`repro.utils.rng.RngHub` — every rank derives the same
``train``/``faults``/``bist`` streams and consumes them identically.
"""

from __future__ import annotations

import contextlib
import time
import traceback

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import BatchNorm2d, Module
from repro.nn.tensor import Tensor, step_arena
from repro.nn.data import SyntheticDataset
from repro.nn.trainer import Trainer
from repro.telemetry import Telemetry
from repro.utils.blas import set_blas_threads
from repro.utils.config import TrainConfig

__all__ = ["DataParallelTrainer"]

#: generous deadline for a rank's arrival at an exchange or its eval
#: share: a rank that dies raises at once, so this only fires on a
#: silently-hung worker.
_EXCHANGE_TIMEOUT = 600.0


# --------------------------------------------------------------------- #
# shared-memory slot layout
# --------------------------------------------------------------------- #
class _Slot:
    """Views over one shard's region of the exchange buffer."""

    __slots__ = ("grads", "stats", "loss")

    def __init__(self, grads, stats, loss):
        self.grads = grads  # one view per optimiser parameter
        self.stats = stats  # one (mean, var) view pair per BN module
        self.loss = loss    # shape-(1,) float64 view


def _bn_modules(model: Module) -> list[BatchNorm2d]:
    """Batch-norm modules in deterministic ``named_modules`` order."""
    return [m for _, m in model.named_modules() if isinstance(m, BatchNorm2d)]


def _find_engine(model: Module):
    """The crossbar engine bound to the model's MVM layers (or None)."""
    for _, m in model.named_modules():
        engine = getattr(m, "engine", None)
        if engine is not None:
            return engine
    return None


def _shard_nbytes(params, bn_mods) -> int:
    n = sum(p.data.nbytes for p in params)
    n += sum(2 * m.channels * m.gamma.data.itemsize for m in bn_mods)
    # Round up so the trailing float64 loss slot stays naturally aligned
    # and every shard block starts on an 8-byte boundary.
    return ((n + 7) // 8) * 8 + 8


def _carve_slots(buf, params, bn_mods, shards: int) -> list[_Slot]:
    """Deterministic carve of the exchange buffer into per-shard views.

    Executed identically in every rank (the layout depends only on the
    model architecture, which is replicated), so corresponding views in
    different processes alias the same shared-memory bytes.
    """
    offset = 0
    slots: list[_Slot] = []
    for _ in range(shards):
        grads = []
        for p in params:
            view = np.frombuffer(
                buf, dtype=p.data.dtype, count=p.data.size, offset=offset
            ).reshape(p.data.shape)
            grads.append(view)
            offset += p.data.nbytes
        stats = []
        for m in bn_mods:
            dt = m.gamma.data.dtype
            mv = np.frombuffer(buf, dtype=dt, count=m.channels, offset=offset)
            offset += mv.nbytes
            vv = np.frombuffer(buf, dtype=dt, count=m.channels, offset=offset)
            offset += vv.nbytes
            stats.append((mv, vv))
        offset = ((offset + 7) // 8) * 8
        loss = np.frombuffer(buf, dtype=np.float64, count=1, offset=offset)
        offset += 8
        slots.append(_Slot(grads, stats, loss))
    return slots


def _shard_bounds(n: int, shards: int) -> list[tuple[int, int]]:
    """``np.array_split`` bounds: contiguous, sizes differing by <= 1."""
    base, rem = divmod(n, shards)
    bounds = []
    lo = 0
    for s in range(shards):
        hi = lo + base + (1 if s < rem else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


class _ShardComm:
    """Everything a rank needs to exchange one batch's shard results.

    Rank 0 holds ``workers``, the other ranks' :class:`~repro.workers.Worker`
    handles; a worker rank holds ``conn``, its end of the pipe to rank 0.
    """

    __slots__ = ("rank", "world", "slots", "bn_mods", "engine", "conn",
                 "workers")

    def __init__(self, rank, world, slots, bn_mods, engine, conn=None,
                 workers=()):
        self.rank = rank
        self.world = world
        self.slots = slots
        self.bn_mods = bn_mods
        self.engine = engine
        self.conn = conn
        self.workers = workers

    def exchange(self, payload=None):
        """Meet every rank; returns rank 0's ``payload`` on each.

        Rank 0 takes one arrival from each worker, then sends each the
        release carrying ``payload``; a worker that dies first raises
        :class:`~repro.workers.WorkerDied` at once.  A worker sends its
        arrival and returns the release (rank 0's death reaches it as
        EOF).  Without worker ranks this returns ``payload``.
        """
        if self.conn is not None:
            self.conn.send(None)
            return self.conn.recv()
        for worker in self.workers:
            worker.recv(_EXCHANGE_TIMEOUT)
        for worker in self.workers:
            worker.send(payload)
        return payload


# --------------------------------------------------------------------- #
# worker process main
# --------------------------------------------------------------------- #
def _rank_main(conn, sink, rank, world, experiment, shm_name, profile):
    """Persistent SPMD worker: replica build + command loop.

    The replica is built from the experiment config as rank 0's was
    (datasets arrive via fork copy-on-write or the parent's shared-memory
    export), so its trainer is a :class:`DataParallelTrainer` too; it
    joins the exchange as rank ``rank`` instead of starting ranks.
    ``sink`` becomes the trainer's telemetry and carries the worker-side
    dp metrics back (the replica's own sink is off: rank 0 already
    records its fault/BIST/policy events).  A failure ends the process,
    which rank 0 sees at its next receive.
    """
    from repro.core.controller import apply_epoch_end, build_experiment
    from repro.workers import attach

    sink.profile = bool(profile)
    shm = trainer = None
    try:
        ctx = build_experiment(experiment, telemetry=Telemetry(enabled=False))
        trainer = ctx.trainer
        trainer.telemetry = sink
        bist_rng = ctx.rng_hub.stream("bist")
        shm = attach(shm_name)
        trainer._join(rank, world, shm.buf, conn=conn)
        while True:
            cmd = conn.recv()
            if cmd[0] == "epoch":
                trainer.train_epoch(cmd[1])
                sink.count("dp.worker_epochs")
            elif cmd[0] == "hook":
                apply_epoch_end(ctx, bist_rng, cmd[1], trainer)
            elif cmd[0] == "eval":
                conn.send(trainer.correct_share(rank, world))
                sink.count("dp.worker_evals")
            elif cmd[0] == "stop":
                return sink.snapshot()
            else:  # pragma: no cover - protocol error
                raise RuntimeError(f"unknown dp command {cmd!r}")
    finally:
        # Slot views alias shm.buf; drop them before closing the segment
        # (exported pointers keep the mapping pinned otherwise).
        if trainer is not None:
            trainer.shutdown()
        if shm is not None:
            try:
                shm.close()
            except Exception:
                pass


# --------------------------------------------------------------------- #
# the trainer every rank runs
# --------------------------------------------------------------------- #
class DataParallelTrainer(Trainer):
    """Drop-in trainer executing each batch as sharded SPMD ranks.

    Rank 0 is the process that builds it from the experiment; ranks
    1..world-1 are persistent worker processes started lazily on its
    first ``train_epoch`` call, each running this same trainer, joined
    to the exchange by :meth:`_join`.  ``TrainConfig.data_parallel`` is
    the *requested* rank count; it degrades to 1 (in-process sharded
    execution, same numerics) when the engine's analog stack is
    *stochastic* — its per-read RNG draws cannot be kept in lockstep
    across processes (drift and the other deterministic ``repro.analog``
    layers parallelise fine) — or when this process is itself a daemon
    worker (the benchmark runner's pool) and may not spawn children.

    ``experiment`` is the full :class:`ExperimentConfig` the workers
    build their replicas from.
    """

    def __init__(self, model, dataset: SyntheticDataset, config: TrainConfig,
                 rng=None, telemetry=None, *, experiment):
        super().__init__(model, dataset, config, rng, telemetry)
        self.experiment = experiment
        self.requested_world = max(1, config.data_parallel)
        #: multiprocessing start method for the workers; None picks
        #: ``fork`` when available (cheap replica construction on Linux)
        #: with a ``spawn`` fallback.  Settable before the first epoch —
        #: the equivalence tests exercise both paths explicitly.
        self.start_method: str | None = None
        self.world = 0  # resolved on start
        self._started = False
        self._finished = False
        #: the worker ranks and the exchange segment (repro.workers)
        self._group = None
        self._local_buf = None
        self._comm: _ShardComm | None = None
        #: the caller's BLAS thread count while rank 0 runs on one
        self._thread_limit = None
        #: the current shard's batch-norm statistics by module identity:
        #: the epoch's stats sink collects them in execution order, the
        #: shard publish walks ``named_modules`` order.
        self._batch_stats: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    def _resolve_world(self) -> int:
        import multiprocessing as mp

        world = max(1, min(self.requested_world, self.config.grad_shards))
        if world == 1:
            return 1
        reason = None
        engine = _find_engine(self.model)
        analog = engine.analog if engine is not None else None
        if analog is not None and analog.stochastic:
            # Only the per-read terms force the fallback: the other layers
            # are deterministic per epoch and are replayed identically by
            # every replica's epoch transition.
            reason = "stochastic analog layer active (variation)"
        elif mp.current_process().daemon:
            reason = "daemon process"
        if reason is not None:
            self.telemetry.event("dp_fallback", reason=reason,
                                 requested=world, world=1)
            return 1
        return world

    def _ensure_started(self) -> None:
        if self._finished:
            raise RuntimeError(
                "DataParallelTrainer was shut down or lost its ranks; worker "
                "replicas can no longer be reconstructed mid-run"
            )
        if self._started:
            return
        world = self._resolve_world()
        total = self.config.grad_shards * _shard_nbytes(
            self.optimizer.parameters, _bn_modules(self.model)
        )
        if world == 1:
            self._local_buf = bytearray(total)
            self._join(0, 1, memoryview(self._local_buf))
            return
        from repro.workers import WorkerGroup

        group = WorkerGroup(self.start_method)
        try:
            shm = group.segment(total)
            group.share_datasets([self.experiment])
            profile = bool(self.telemetry.enabled and self.telemetry.profile)
            for rank in range(1, world):
                group.start(
                    _rank_main, rank, world, self.experiment, shm.name,
                    profile, source=f"dp-rank{rank}", name=f"repro-dp-{rank}",
                )
        except BaseException:
            group.close()
            raise
        self._group = group
        # Rank 0 runs one BLAS thread while the ranks live, like every
        # worker rank: the parallelism comes from the ranks, and a BLAS
        # pool in each would oversubscribe the cores.  ``shutdown`` gives
        # the caller its count back.
        self._thread_limit = set_blas_threads(1)
        self._join(0, world, shm.buf, workers=tuple(group.workers))

    def _join(self, rank, world, buf, conn=None, workers=()) -> None:
        """Take rank ``rank`` of ``world`` over the exchange buffer
        ``buf``: rank 0 holds the other ranks' ``workers``, a worker rank
        ``conn``, its end of the pipe to rank 0."""
        params = self.optimizer.parameters
        bn_mods = _bn_modules(self.model)
        slots = _carve_slots(buf, params, bn_mods, self.config.grad_shards)
        self._comm = _ShardComm(rank, world, slots, bn_mods,
                                _find_engine(self.model), conn, workers)
        self.world = world
        self._started = True

    @contextlib.contextmanager
    def _kill_ranks_on_failure(self):
        """Kill the ranks if the block fails while they are live.

        A rank's :class:`~repro.workers.WorkerDied` or rank 0's own error
        would otherwise leave the other ranks waiting at an exchange, or
        holding an unread reply, until ``shutdown`` timed out on them.
        The segment stays for ``shutdown`` to release.  The failed
        epoch's frames, kept alive by the propagating traceback, hold
        views into the slots; their locals are cleared so that a
        ``shutdown`` in a ``finally`` (``run_experiment``'s) releases the
        segment cleanly instead of leaving a ``BufferError`` in a
        finaliser.
        """
        try:
            yield
        except BaseException as exc:
            if self._group is not None:
                self._group.kill()
                self._finished = True
                traceback.clear_frames(exc.__traceback__)
            raise

    # ------------------------------------------------------------------ #
    def train_epoch(self, epoch: int) -> float:
        """One epoch of the shared batch loop: starts the ranks on the
        first call and sends them the epoch, and routes every shard's
        batch-norm statistics to :meth:`_run_shard` meanwhile.  It runs
        the loop itself rather than through ``super().train_epoch``, so
        one epoch is one ``train_epoch`` call (perfbench times both
        methods under one span name)."""
        self._ensure_started()
        with self._kill_ranks_on_failure():
            self._send(("epoch", epoch))
            stats = self._batch_stats

            def stats_sink(module, mean, var):
                stats[id(module)] = (mean, var)

            bn_mods = self._comm.bn_mods
            for m in bn_mods:
                m.stats_sink = stats_sink
            try:
                return self._run_epoch(epoch)
            finally:
                for m in bn_mods:
                    m.stats_sink = None

    def batch_gradients(self, idx: np.ndarray) -> float:
        """The batch gradient as the all-reduce of every shard's: this
        rank computes only the shards it owns, and every rank then folds
        all shards' published gradients in ascending shard order and
        replays their batch-norm statistics, so every rank holds the same
        gradient, running statistics and returned loss, the
        shard-size-weighted mean of the shard losses."""
        comm = self._comm
        params = self.optimizer.parameters
        tel = self.telemetry
        profiling = tel.enabled and tel.profile
        nb = len(idx)
        bounds = _shard_bounds(nb, self.config.grad_shards)
        first = 0
        if (
            comm.world > 1
            and comm.engine is not None
            and comm.engine.grad_scales_stale()
        ):
            # The gradient ADC ranges calibrate lazily from the first
            # gradient each (re)written block sees; the canonical first
            # gradient is shard 0's.  Rank 0 runs shard 0 alone and
            # releases the calibrated scales; peers adopt them before
            # clamping their own shards.  Staleness is replica-identical
            # (remaps replay on every rank), so all ranks take this
            # branch together.
            if comm.rank == 0:
                lo, hi = bounds[0]
                self._run_shard(comm.slots[0], lo, hi, idx, nb)
                first = 1
                comm.exchange(comm.engine.export_grad_scales())
            else:
                comm.engine.import_grad_scales(comm.exchange())
        for s in range(first, len(bounds)):
            lo, hi = bounds[s]
            if hi <= lo or s % comm.world != comm.rank:
                continue
            self._run_shard(comm.slots[s], lo, hi, idx, nb)
        comm.exchange()
        # All-reduce: every rank folds every shard's published results in
        # ascending shard order — identical float operations, hence
        # identical replicas, on all ranks.
        t_red = time.perf_counter() if profiling else 0.0
        live = [s for s, (lo, hi) in enumerate(bounds) if hi > lo]
        for p, view in zip(params, comm.slots[live[0]].grads):
            np.copyto(p.grad, view)
        for s in live[1:]:
            for p, view in zip(params, comm.slots[s].grads):
                p.grad += view
        for s in live:
            for m, (mv, vv) in zip(comm.bn_mods, comm.slots[s].stats):
                m.running_mean += m.momentum * (mv - m.running_mean)
                m.running_var += m.momentum * (vv - m.running_var)
        batch_loss = 0.0
        for s, (lo, hi) in enumerate(bounds):
            if hi > lo:
                batch_loss += float(comm.slots[s].loss[0]) * (hi - lo)
        batch_loss /= nb
        if profiling:
            tel.observe("train.allreduce_seconds", time.perf_counter() - t_red)
        # The optimiser step touches only rank-local state, so it runs
        # after this exchange releases the shard slots.
        comm.exchange()
        return batch_loss

    def _run_shard(self, slot: _Slot, lo: int, hi: int, idx: np.ndarray,
                   nb: int) -> None:
        """Forward, loss and backward of rows ``lo:hi`` of the batch
        ``idx``, published into ``slot``.

        It takes its slot as an argument and reaches the exchange only
        through ``self``, never a closure: a failed shard's frame, kept by
        the traceback, then holds no view into the slots once
        :meth:`_kill_ranks_on_failure` clears its locals (a closure cell
        would outlive that).
        """
        rows = idx[lo:hi]
        xb = Tensor(self.dataset.x_train[rows], requires_grad=True)
        xb.skip_grad = True
        self._batch_stats.clear()
        logits = self.model(xb)
        loss = F.softmax_cross_entropy(logits, self.dataset.y_train[rows])
        self.optimizer.zero_grad()
        # Seeding with the shard's batch fraction makes the reduced
        # gradient the exact gradient of the shard-size-weighted batch
        # loss.
        loss.backward(float(hi - lo) / nb)
        for p, view in zip(self.optimizer.parameters, slot.grads):
            np.copyto(view, p.grad)
        for m, (mv, vv) in zip(self._comm.bn_mods, slot.stats):
            mean, var = self._batch_stats[id(m)]
            np.copyto(mv, mean)
            np.copyto(vv, var)
        slot.loss[0] = float(loss.data)
        step_arena().reset()

    def broadcast_epoch_end(self, epoch: int) -> None:
        """Replay the controller's epoch-end transition on every worker.

        Called by ``run_experiment`` *before* rank 0 applies the real
        transition, so the ranks replay it meanwhile: the replay reads
        only the rank's own replica and RNG streams, and command
        ordering on the pipe makes workers finish it before their next
        command.
        """
        self._send(("hook", epoch))

    def test_correct(self) -> int:
        """The test split's correct count, scored by every live rank.

        Without live ranks (world 1, before the first epoch, after a
        failure or :meth:`shutdown`) rank 0 scores it alone.  Rank 0
        collects the shares under the exchange deadline, and a rank that
        dies raises :class:`~repro.workers.WorkerDied` at once.
        """
        if self._group is None or self._finished:
            return super().test_correct()
        world = self.world
        batches = -(-len(self.dataset.y_test) // self.eval_batch_size())
        # Ranks 1 .. min(world, batches) - 1 own at least one batch.
        peers = self._group.workers[: min(world, batches) - 1]
        with self._kill_ranks_on_failure():
            for worker in peers:
                worker.send(("eval",))
            correct = self.correct_share(0, world)
            for worker in peers:
                correct += worker.recv(_EXCHANGE_TIMEOUT)
        return correct

    def _send(self, command) -> None:
        if self._group is not None:
            for worker in self._group.workers:
                worker.send(command)

    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Stop the workers, fold their telemetry in, release memory."""
        # Drop every view into the exchange buffer before releasing it.
        self._comm = None
        self._local_buf = None
        if self._group is not None:
            snapshots = self._group.stop()
            for rank, snapshot in enumerate(snapshots, start=1):
                if snapshot is not None:
                    self.telemetry.merge(snapshot, tag=f"dp-rank{rank}")
            self._group.close()
            self._group = None
        if self._thread_limit is not None:
            set_blas_threads(self._thread_limit)
            self._thread_limit = None
        self._started = False
        self._finished = True

    def __del__(self):  # pragma: no cover - interpreter-shutdown guard
        try:
            if self._started:
                self.shutdown()
        except Exception:
            pass
