"""The worker-process substrate: one chaos matrix, and no leak on any path.

``repro.workers`` starts every sweep cell, serve replica and
data-parallel rank.  The matrix drives toy targets through each protocol
step under fork and spawn and kills them at each one: before the first
reply, while a reply is due, after the stop was sent, hung past the
receive deadline, and raising.  Every case must end promptly, either in
``WorkerDied`` or with ``stop`` returning no reply, and leave no child
process and no shared-memory segment behind.  Below it, the same
guarantees on the three users: a sweep whose parent is SIGKILLed, a
replica, a two-replica server or a data-parallel start that fails
partway, a rank killed mid-epoch, inside an exchange or while rank 0
waits for its eval share (each raises ``WorkerDied``), and rank 0 failing
mid-epoch.

One test runs every case in turn and checks after each that no child
remains, that every segment the case created is gone (the parent
creates every segment its workers map; other processes' segments do not
count) and that nothing raised in a finaliser (a segment released under
a live view does); a failure names its case.
"""

import contextlib
import json
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import textwrap
import time
from functools import partial
from multiprocessing import shared_memory

import pytest

from repro.core.controller import build_experiment
from repro.nn.parallel import DataParallelTrainer
from repro.nn.trainer import Trainer
from repro.serve import InferenceServer, ServeConfig
from repro.serve import replica as serve_replica
from repro.serve.replica import ProcessReplica, ReplicaDied
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)
from repro.workers import WorkerDied, WorkerGroup, attach, wait

START_METHODS = [m for m in ("fork", "spawn") if m in mp.get_all_start_methods()]
HAVE_FORK = "fork" in mp.get_all_start_methods()
SHM_DIR = "/dev/shm"

#: receive deadline of the cases that must not need it.
DEADLINE = 30.0
#: the hang case's receive deadline.
HANG_DEADLINE = 1.0
#: what every case may take beyond its deadline.
SLACK = 5.0

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason="no /dev/shm to inspect"
)


def _segments() -> set[str]:
    return {n for n in os.listdir(SHM_DIR) if n.startswith("psm_")}


@contextlib.contextmanager
def _recording_unraisable():
    """Yield the list of exceptions raised meanwhile where Python cannot
    raise them (finalisers), as ``"Type: message"`` strings."""
    seen: list[str] = []

    def record(args):
        seen.append(f"{args.exc_type.__name__}: {args.exc_value}")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "unraisablehook", record)
        yield seen


@contextlib.contextmanager
def _recording_segments():
    """Yield the list of names of the segments this process creates
    meanwhile (the parent creates every segment its workers map)."""
    created: list[str] = []
    real = shared_memory.SharedMemory

    def record(*args, **kwargs):
        shm = real(*args, **kwargs)
        if kwargs.get("create"):
            created.append(shm.name)
        return shm

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shared_memory, "SharedMemory", record)
        yield created


def _config(seed: int = 11, **kw) -> ExperimentConfig:
    train = dict(model="vgg11", epochs=1, batch_size=16, n_train=32,
                 n_test=16, width_mult=0.125)
    train.update(kw.pop("train", {}))
    return ExperimentConfig(
        train=TrainConfig(**train),
        chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
        faults=FaultConfig(),
        policy=kw.pop("policy", "none"),
        seed=seed,
        **kw,
    )


# --------------------------------------------------------------------- #
# the chaos matrix, on toy targets
# --------------------------------------------------------------------- #
def _toy(conn, tel, fault, shm_name):
    """Reply "ready", then echo commands until "stop"; ``fault`` picks the
    protocol step at which the worker dies, hangs or raises."""
    shm = attach(shm_name)
    if fault == "kill-before-ready":
        os.kill(os.getpid(), signal.SIGKILL)
    if fault == "raise":
        raise RuntimeError("toy worker failure")
    conn.send(("ready", bytes(shm.buf[:4])))
    while True:
        cmd = conn.recv()
        if cmd == ("stop",):
            if fault == "kill-after-stop":
                os.kill(os.getpid(), signal.SIGKILL)
            shm.close()
            return "stopped"
        if fault == "kill-mid-reply":
            os.kill(os.getpid(), signal.SIGKILL)
        if fault == "hang":
            time.sleep(3600)
        conn.send(("echo", cmd))


def _start_toy(method, fault):
    group = WorkerGroup(method)
    shm = group.segment(16)
    shm.buf[:4] = b"toy!"
    group.share_datasets([_config(seed=5, train=dict(n_train=8, n_test=8))])
    worker = group.start(_toy, fault, shm.name, source="toy", name="repro-toy")
    return group, shm.name, worker


def _run_toy(method, fault, drive, deadline=DEADLINE):
    group, name, worker = _start_toy(method, fault)
    t0 = time.monotonic()
    try:
        outcome = drive(worker)
    finally:
        group.close()
    assert time.monotonic() - t0 < deadline + SLACK
    with pytest.raises(FileNotFoundError):
        attach(name)
    return outcome


def _clean_round_trip(method):
    def drive(worker):
        assert worker.recv(DEADLINE) == ("ready", b"toy!")
        worker.send("ping")
        assert worker.recv(DEADLINE) == ("echo", "ping")
        return worker.stop(timeout=DEADLINE)

    assert _run_toy(method, None, drive) == "stopped"


def _sigkill_before_ready(method):
    def drive(worker):
        with pytest.raises(WorkerDied, match="exited with code -9"):
            worker.recv(DEADLINE)

    _run_toy(method, "kill-before-ready", drive)


def _sigkill_while_a_reply_is_due(method):
    def drive(worker):
        worker.recv(DEADLINE)
        worker.send("ping")
        with pytest.raises(WorkerDied, match="exited with code -9"):
            worker.recv(DEADLINE)

    _run_toy(method, "kill-mid-reply", drive)


def _sigkill_after_stop_is_sent(method):
    def drive(worker):
        worker.recv(DEADLINE)
        return worker.stop(timeout=DEADLINE)

    assert _run_toy(method, "kill-after-stop", drive) is None


def _hang_past_the_receive_deadline(method):
    def drive(worker):
        worker.recv(DEADLINE)
        worker.send("ping")
        with pytest.raises(WorkerDied, match="no reply within"):
            worker.recv(HANG_DEADLINE)

    _run_toy(method, "hang", drive, deadline=HANG_DEADLINE)


def _raise_in_the_child(method):
    def drive(worker):
        with pytest.raises(WorkerDied, match="exited with code 1"):
            worker.recv(DEADLINE)

    _run_toy(method, "raise", drive)


def _wait_sees_only_the_death(method):
    group, name, worker = _start_toy(method, "kill-mid-reply")
    peer = group.start(_toy, None, name, source="peer", name="repro-peer")
    try:
        for w in (worker, peer):
            w.recv(DEADLINE)
        assert wait([worker, peer], timeout=0.2) == []
        worker.send("ping")
        assert wait([worker, peer], timeout=DEADLINE) == [worker]
        assert peer.stop(timeout=DEADLINE) == "stopped"
    finally:
        group.close()


# --------------------------------------------------------------------- #
# the users: a killed sweep, failed starts, a killed rank
# --------------------------------------------------------------------- #
_SWEEP = textwrap.dedent("""
    import json, multiprocessing as mp, os, signal, sys
    from multiprocessing import shared_memory
    from repro.runner import ExperimentCell, run_experiments
    from repro.utils.config import (
        ChipConfig, CrossbarConfig, ExperimentConfig, FaultConfig, TrainConfig)

    created = []
    real = shared_memory.SharedMemory

    def record(*args, **kwargs):
        shm = real(*args, **kwargs)
        if kwargs.get("create"):
            created.append(shm.name)
        return shm

    shared_memory.SharedMemory = record

    def config(seed):
        return ExperimentConfig(
            train=TrainConfig(model="vgg11", epochs=1, batch_size=16,
                              n_train=32, n_test=16, width_mult=0.125),
            chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
            faults=FaultConfig(), policy="none", seed=seed)

    def die(_result):
        print(json.dumps([created, [p.pid for p in mp.active_children()]]),
              flush=True)
        os.kill(os.getpid(), signal.SIGKILL)

    run_experiments([ExperimentCell("a", config(41)),
                     ExperimentCell("b", config(42))],
                    workers=2, start_method=sys.argv[1], on_result=die)
""")


def _running(pid: int) -> bool:
    """Whether ``pid`` runs (an orphan's zombie may wait for its reaper)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _killed_sweep_leaves_nothing_behind(method):
    """SIGKILL a sweep's parent once a cell has come back, so at least
    one worker waits for its next command and, under spawn, both have
    attached the dataset exports.  Both workers must exit, and the
    shared resource tracker must still unlink every segment."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    proc = subprocess.Popen([sys.executable, "-c", _SWEEP, method], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True)
    names: list[str] = []
    pids: list[int] = []
    try:
        names, pids = json.loads(proc.stdout.readline() or "[[], []]")
        assert proc.wait(timeout=120) == -signal.SIGKILL
        # 2 datasets x 4 arrays under spawn; forked workers inherit them.
        assert len(names) == (8 if method == "spawn" else 0), names
        assert len(pids) == 2, pids
        deadline = time.monotonic() + 60.0
        while ((set(names) & _segments() or any(map(_running, pids)))
               and time.monotonic() < deadline):
            time.sleep(0.2)
        assert not set(names) & _segments()
        assert not any(map(_running, pids)), pids
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
        for name in names:
            try:
                os.unlink(os.path.join(SHM_DIR, name))
            except FileNotFoundError:
                pass


def _replica_build_failure_releases_everything(method):
    with pytest.raises(ReplicaDied):
        ProcessReplica.start_all(_config(policy="no-such-policy"), max_batch=4,
                                 count=1, start_method=method)
    # The check after every case runs right away: no child, no segment.


#: the replica worker's entry point, as imported (a forked child sees
#: the parent's patched module attribute, a spawned child does not).
_REPLICA_MAIN = serve_replica._replica_main


def _replica_main_dying_as_1(conn, tel, replica_id, *args):
    if replica_id == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return _REPLICA_MAIN(conn, tel, replica_id, *args)


def _two_replica_server(method):
    return InferenceServer(_config(), ServeConfig(
        max_batch=4, replicas=2, workers=True, start_method=method))


def _second_replica_start_raises(method):
    """Replica 1 cannot start: replica 0, already started, goes too."""
    real = WorkerGroup.start
    calls: list[int] = []

    def start(group, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise OSError("cannot start replica 1")
        return real(group, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WorkerGroup, "start", start)
        with pytest.raises(OSError, match="replica 1"):
            _two_replica_server(method)
    assert len(calls) == 2


def _second_replica_dies_before_ready(method):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serve_replica, "_replica_main", _replica_main_dying_as_1)
        with pytest.raises(ReplicaDied, match="replica 1"):
            _two_replica_server(method)


def _replica_lost_before_registration(method):
    """Replica 1 dies after its "ready", before the server registers it.

    Both replicas are up by then: a spawn server maps one dataset export
    (4 arrays) for both, plus a transport segment each."""
    real = ProcessReplica.health
    mapped: list[int] = []

    def health(replica):
        if replica.replica_id == 1:
            mapped.append(len(set(created) & _segments()))
            replica.kill()
        return real(replica)

    with _recording_segments() as created, pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProcessReplica, "health", health)
        with pytest.raises(ReplicaDied, match="replica 1"):
            _two_replica_server(method)
    assert mapped == [4 + 2 if method == "spawn" else 2]


def _dp_export_failure_releases_the_exchange_segment():
    created: list[str] = []
    real = shared_memory.SharedMemory

    def flaky(*args, **kwargs):
        if kwargs.get("create") and len(created) == 2:
            raise OSError("no space left on /dev/shm")
        shm = real(*args, **kwargs)
        if kwargs.get("create"):
            created.append(shm.name)
        return shm

    trainer = build_experiment(
        _config(train=dict(data_parallel=2, grad_shards=2))
    ).trainer
    assert isinstance(trainer, DataParallelTrainer)
    trainer.start_method = "spawn"
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shared_memory, "SharedMemory", flaky)
            with pytest.raises(OSError, match="no space left"):
                trainer.train_epoch(0)
    finally:
        trainer.shutdown()
    assert len(created) == 2
    for name in created:
        with pytest.raises(FileNotFoundError):
            attach(name)


def _two_rank_trainer() -> DataParallelTrainer:
    """Two ranks, four shards, three batches; the first batch calibrates
    the gradient ADC scales, so rank 0 runs shard 0 while rank 1 waits
    for its release."""
    trainer = build_experiment(
        _config(train=dict(n_train=48, data_parallel=2, grad_shards=4))
    ).trainer
    assert isinstance(trainer, DataParallelTrainer)
    return trainer


def _killed_rank_breaks_the_epoch():
    """SIGKILL rank 1 mid-epoch while rank 0 heads for an exchange: the
    epoch raises at once, not after the 600 s exchange deadline."""
    trainer = _two_rank_trainer()
    real_step = trainer.optimizer.step
    steps = []

    def step():
        steps.append(1)
        if len(steps) == 2:
            (rank1,) = [p for p in mp.active_children() if p.name == "repro-dp-1"]
            os.kill(rank1.pid, signal.SIGKILL)
        real_step()

    trainer.optimizer.step = step
    t0 = time.monotonic()
    try:
        with pytest.raises(WorkerDied):
            trainer.train_epoch(0)
        assert time.monotonic() - t0 < 10.0
    finally:
        trainer.shutdown()
    assert len(steps) == 2
    assert not [p for p in mp.active_children() if p.name.startswith("repro-dp-")]


def _killed_rank_inside_the_exchange():
    """SIGKILL rank 1 while it waits inside an exchange: rank 0 holds its
    first shard until rank 1's arrival is in the pipe, then kills it.
    Rank 0's next exchange raises at once; a rank killed inside a shared
    ``multiprocessing.Barrier`` used to hang rank 0 for good."""
    trainer = _two_rank_trainer()
    real_zero_grad = trainer.optimizer.zero_grad
    kills = []

    def zero_grad():
        if not kills:
            (rank1,) = trainer._group.workers
            assert rank1.conn.poll(DEADLINE), "rank 1 never arrived"
            rank1.kill()
            kills.append(rank1.proc.exitcode)
        real_zero_grad()

    trainer.optimizer.zero_grad = zero_grad
    t0 = time.monotonic()
    with pytest.raises(WorkerDied):
        try:
            trainer.train_epoch(0)
        finally:
            # As in ``run_experiment``: shut down while the error propagates.
            raised_s = time.monotonic() - t0
            trainer.shutdown()
    assert raised_s < 10.0
    assert kills == [-signal.SIGKILL]


def _rank0_failure_kills_the_ranks():
    """Rank 0 raises in its second shard while rank 1 waits for the
    release: the epoch re-raises rank 0's error, and ``shutdown``, run
    while it propagates, neither waits out the stop deadline on a rank
    still inside the exchange nor releases the segment under a live view
    of the failed shard."""
    trainer = _two_rank_trainer()
    real_zero_grad = trainer.optimizer.zero_grad
    calls = []

    def zero_grad():
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("rank 0 failed")
        real_zero_grad()

    trainer.optimizer.zero_grad = zero_grad
    with pytest.raises(RuntimeError, match="rank 0 failed"):
        try:
            trainer.train_epoch(0)
        finally:
            t0 = time.monotonic()
            trainer.shutdown()
            shutdown_s = time.monotonic() - t0
    assert shutdown_s < 5.0
    assert len(calls) == 2


def _killed_rank_breaks_the_evaluation():
    """SIGKILL rank 1 while rank 0 waits for its eval share: ``evaluate``
    raises at once, not after the 600 s timeout.  The ranks fork with the
    patched share, so rank 1 never replies before the kill, and rank 2's
    reply is left unread in its pipe (four eval batches of 4 on 3 ranks)."""
    trainer = build_experiment(_config(train=dict(
        eval_batch=4, data_parallel=3, grad_shards=3,
    ))).trainer
    assert isinstance(trainer, DataParallelTrainer)
    real_share = Trainer.correct_share

    def share(replica, rank, world):
        if rank == 1:
            time.sleep(60)
        correct = real_share(replica, rank, world)
        if rank == 0:
            (rank1,) = [p for p in mp.active_children()
                        if p.name == "repro-dp-1"]
            os.kill(rank1.pid, signal.SIGKILL)
        return correct

    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Trainer, "correct_share", share)
            trainer.train_epoch(0)
            t0 = time.monotonic()
            with pytest.raises(WorkerDied, match="exited with code -9"):
                trainer.evaluate()
            assert time.monotonic() - t0 < 10.0
    finally:
        trainer.shutdown()
    assert not [p for p in mp.active_children() if p.name.startswith("repro-dp-")]


def _cases():
    """``(label, case)`` pairs: the matrix per start method, then the users."""
    matrix = [
        ("clean round trip", _clean_round_trip),
        ("SIGKILL before ready", _sigkill_before_ready),
        ("SIGKILL while a reply is due", _sigkill_while_a_reply_is_due),
        ("SIGKILL after stop is sent", _sigkill_after_stop_is_sent),
        ("hang past the receive deadline", _hang_past_the_receive_deadline),
        ("raise in the child", _raise_in_the_child),
        ("wait sees only the death", _wait_sees_only_the_death),
        ("killed sweep", _killed_sweep_leaves_nothing_behind),
        ("replica build failure", _replica_build_failure_releases_everything),
        ("second replica start raises", _second_replica_start_raises),
        ("second replica dies before ready", _second_replica_dies_before_ready),
        ("replica lost before registration", _replica_lost_before_registration),
    ]
    cases = [(f"{method}: {label}", partial(case, method))
             for method in START_METHODS for label, case in matrix]
    cases.append(("dp spawn export failure",
                  _dp_export_failure_releases_the_exchange_segment))
    if HAVE_FORK:
        cases.append(("dp rank killed mid-epoch", _killed_rank_breaks_the_epoch))
        cases.append(("dp rank killed inside the exchange",
                      _killed_rank_inside_the_exchange))
        cases.append(("rank 0 fails mid-epoch", _rank0_failure_kills_the_ranks))
        cases.append(("dp rank killed mid-eval",
                      _killed_rank_breaks_the_evaluation))
    return cases


def test_every_exit_path_leaves_nothing_behind():
    for label, case in _cases():
        try:
            with _recording_unraisable() as unraisable, \
                    _recording_segments() as created:
                case()
            assert mp.active_children() == []
            left = set(created) & _segments()
            assert not left, left
            assert not unraisable, unraisable
        except (Exception, pytest.fail.Exception) as exc:
            raise AssertionError(f"case {label!r} failed") from exc
