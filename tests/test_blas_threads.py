"""One OpenBLAS thread per worker process, and none forced on the caller.

Sweep cells, serve replicas and data-parallel ranks all start in
``repro.runner.runner._init_worker``, which must leave the worker's
OpenBLAS on one thread however the worker was started.  Rank 0 of a
data-parallel run is the calling process: it runs on one thread while
the ranks live and gets its own count back at ``shutdown()``.  Nothing
may leak into the caller's environment, which every subprocess it starts
later would inherit.
"""

import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.core.controller import build_experiment
from repro.nn.parallel import DataParallelTrainer
from repro.workers import _init_worker
from repro.serve.replica import ProcessReplica
from repro.utils import blas
from repro.utils.blas import blas_threads, set_blas_threads
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)

HAVE_FORK = "fork" in mp.get_all_start_methods()
START_METHODS = [m for m in ("fork", "spawn") if m in mp.get_all_start_methods()]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_name() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown BLAS"
    return f"{info.get('name')} {info.get('version')}"


needs_openblas = pytest.mark.skipif(
    blas_threads() is None,
    reason=f"no OpenBLAS thread control found in NumPy's BLAS ({_blas_name()})",
)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    # Start from the variables unset, so a value an earlier test leaked
    # cannot hide a leak from the run under test.
    for name in THREAD_VARS:
        monkeypatch.delenv(name, raising=False)


def _config(data_parallel: int = 0) -> ExperimentConfig:
    return ExperimentConfig(
        train=TrainConfig(
            model="vgg11", epochs=1, batch_size=16, n_train=32, n_test=16,
            width_mult=0.125, data_parallel=data_parallel, grad_shards=2,
        ),
        chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
        faults=FaultConfig(),
        policy="remap-d",
        seed=11,
    )


def _dp_epoch(on_step=None) -> float:
    """One epoch of a fork-started 2-rank run, shut down before returning."""
    trainer = build_experiment(_config(data_parallel=2)).trainer
    assert isinstance(trainer, DataParallelTrainer)
    trainer.start_method = "fork"
    trainer.post_step = on_step
    try:
        loss = trainer.train_epoch(0)
        assert trainer.world == 2
    finally:
        trainer.shutdown()
    return loss


def _report_blas_threads(conn) -> None:
    _init_worker()
    conn.send(blas_threads())
    conn.close()


class TestBlasModule:
    @needs_openblas
    def test_set_returns_previous_and_takes_effect(self):
        before = blas_threads()
        previous = set_blas_threads(1)
        pinned = blas_threads()
        set_blas_threads(before)
        assert previous == before
        assert pinned == 1
        assert blas_threads() == before

    def test_rejects_counts_below_one(self):
        with pytest.raises(ValueError):
            set_blas_threads(0)

    @pytest.mark.parametrize("mapped", [[], ["/gone/libopenblas.so (deleted)"]])
    def test_noop_without_openblas(self, monkeypatch, mapped):
        monkeypatch.setattr(blas, "_mapped_openblas", lambda: mapped)
        assert blas_threads() is None
        assert set_blas_threads(1) is None


@needs_openblas
class TestWorkersRunOneThread:
    @pytest.mark.parametrize("method", START_METHODS)
    def test_init_worker_pins_the_child(self, method):
        ctx = mp.get_context(method)
        reader, writer = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_report_blas_threads, args=(writer,))
        proc.start()
        writer.close()
        try:
            assert reader.poll(120), "worker never reported"
            assert reader.recv() == 1
        finally:
            proc.join(timeout=30)
        assert not proc.is_alive()
        assert proc.exitcode == 0

    @pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
    def test_rank0_runs_one_thread_while_the_ranks_live(self):
        before = blas_threads()
        seen = []
        loss = _dp_epoch(on_step=lambda: seen.append(blas_threads()))
        assert np.isfinite(loss)
        assert seen and set(seen) == {1}
        assert blas_threads() == before


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
def test_replica_and_dp_run_leave_the_caller_untouched():
    env_before = dict(os.environ)
    threads_before = blas_threads()
    replica = ProcessReplica(_config(), max_batch=4, start_method="fork")
    replica.close()
    _dp_epoch()
    assert dict(os.environ) == env_before
    assert blas_threads() == threads_before
