"""The worker-process substrate: one chaos matrix, and no leak on any path.

``repro.workers`` starts every sweep cell, serve replica and
data-parallel rank.  The matrix drives toy targets through each protocol
step under fork and spawn and kills them at each one: before the first
reply, while a reply is due, after the stop was sent, hung past the
receive deadline, and raising.  Every case must end promptly, either in
``WorkerDied`` or with ``stop`` returning no reply, and leave no child
process and no shared-memory segment behind.  Below it, the same
guarantees on the three users: a SIGKILLed spawn sweep, a replica or a
data-parallel start that fails partway, and a rank killed mid-epoch.

One test runs every case in turn and checks after each that no child and
no new segment remain; a failure names its case.
"""

import json
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from functools import partial

import pytest

from repro.core.controller import build_experiment
from repro.nn.parallel import WORKERS_ENV, DataParallelTrainer
from repro.serve.replica import ProcessReplica, ReplicaDied
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)
from repro.workers import WorkerDied, WorkerGroup, attach, wait, watch

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


def _wait_and_watch_see_only_the_death(method):
    group, name, worker = _start_toy(method, "kill-mid-reply")
    peer = group.start(_toy, None, name, source="peer", name="repro-peer")
    deaths: list = []
    stops: list = []
    try:
        for w in (worker, peer):
            w.recv(DEADLINE)
        on_death = watch([worker], deaths.append)
        on_stop = watch([peer], stops.append)
        assert wait([worker, peer], timeout=0.2) == []
        worker.send("ping")
        assert wait([worker, peer], timeout=DEADLINE) == [worker]
        on_death.join(DEADLINE)
        assert peer.stop(timeout=DEADLINE) == "stopped"
        on_stop.join(DEADLINE)
    finally:
        group.close()
    assert deaths == [worker]
    assert stops == []  # a stopped worker's exit is not a death
    assert not on_death.is_alive() and not on_stop.is_alive()


# --------------------------------------------------------------------- #
# the users: a killed sweep, failed starts, a killed rank
# --------------------------------------------------------------------- #
_SWEEP = textwrap.dedent("""
    import json, os, signal
    from repro.runner import ExperimentCell, run_experiments
    from repro.utils.config import (
        ChipConfig, CrossbarConfig, ExperimentConfig, FaultConfig, TrainConfig)

    def segments():
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}

    def config(seed):
        return ExperimentConfig(
            train=TrainConfig(model="vgg11", epochs=1, batch_size=16,
                              n_train=32, n_test=16, width_mult=0.125),
            chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
            faults=FaultConfig(), policy="none", seed=seed)

    before = segments()

    def die(_result):
        print(json.dumps(sorted(segments() - before)), flush=True)
        os.kill(os.getpid(), signal.SIGKILL)

    run_experiments([ExperimentCell("a", config(41)),
                     ExperimentCell("b", config(42))],
                    workers=2, start_method="spawn", on_result=die)
""")


def _killed_spawn_sweep_leaves_no_segments():
    """SIGKILL a spawn sweep's parent once a cell has come back, so both
    workers have attached the dataset exports: the shared resource
    tracker must still unlink every segment once the workers exit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    proc = subprocess.Popen([sys.executable, "-c", _SWEEP], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True)
    names: list[str] = []
    try:
        names = json.loads(proc.stdout.readline() or "[]")
        assert proc.wait(timeout=120) == -signal.SIGKILL
        assert len(names) == 8, names  # 2 datasets x 4 arrays
        deadline = time.monotonic() + 60.0
        while set(names) & _segments() and time.monotonic() < deadline:
            time.sleep(0.2)
        assert not set(names) & _segments()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        for name in names:
            try:
                os.unlink(os.path.join(SHM_DIR, name))
            except FileNotFoundError:
                pass


def _replica_build_failure_releases_everything(method):
    with pytest.raises(ReplicaDied):
        ProcessReplica(_config(policy="no-such-policy"), max_batch=4,
                       start_method=method)
    # The check after every case runs right away: no child, no segment.


def _dp_export_failure_releases_the_exchange_segment():
    from multiprocessing import shared_memory

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


def _killed_rank_breaks_the_epoch():
    """SIGKILL rank 1 mid-epoch while rank 0 heads for a barrier: the
    epoch raises at once, not after the 600 s barrier timeout."""
    trainer = build_experiment(
        _config(train=dict(n_train=48, data_parallel=2, grad_shards=4))
    ).trainer
    assert isinstance(trainer, DataParallelTrainer)
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
        with pytest.raises(threading.BrokenBarrierError):
            trainer.train_epoch(0)
        assert time.monotonic() - t0 < 10.0
    finally:
        trainer.shutdown()
    assert len(steps) == 2
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
        ("wait and watch see only the death", _wait_and_watch_see_only_the_death),
        ("replica build failure", _replica_build_failure_releases_everything),
    ]
    cases = [(f"{method}: {label}", partial(case, method))
             for method in START_METHODS for label, case in matrix]
    cases.append(("killed spawn sweep", _killed_spawn_sweep_leaves_no_segments))
    cases.append(("dp spawn export failure",
                  _dp_export_failure_releases_the_exchange_segment))
    if HAVE_FORK:
        cases.append(("dp rank killed mid-epoch", _killed_rank_breaks_the_epoch))
    return cases


def test_every_exit_path_leaves_nothing_behind(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    for label, case in _cases():
        before = _segments()
        try:
            case()
            assert mp.active_children() == []
            assert _segments() <= before
        except (Exception, pytest.fail.Exception) as exc:
            raise AssertionError(f"case {label!r} failed") from exc
