"""Resilience tests: crashed/hung/raising workers, retry policy, env knobs.

Worker faults are injected through the runner's own chaos hook
(``REPRO_RUNNER_CHAOS`` = ``mode:key_substring:attempts``): ``crash``
SIGKILLs the worker process from inside — exactly the signature of an
OOM kill — ``hang`` sleeps past any deadline and ``raise`` throws inside
the worker.  The dispatcher must notice all three, retry the bounded
ones and never hang or abort the sweep.
"""

import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

from repro.runner import (
    ExperimentCell,
    RetryPolicy,
    default_retries,
    default_timeout,
    run_experiments,
)
from repro.runner.runner import (
    CHAOS_ENV,
    RETRIES_ENV,
    TIMEOUT_ENV,
    _ensure_complete,
    _normalise,
)
from repro.telemetry import Telemetry
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)
from repro.workers import WorkerGroup

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_seconds=0.05)


def _tiny(model: str = "vgg11", seed: int = 11, **train_kw) -> ExperimentConfig:
    train_kw.setdefault("epochs", 1)
    return ExperimentConfig(
        train=TrainConfig(
            model=model, batch_size=16, n_train=32, n_test=32,
            width_mult=0.125, **train_kw,
        ),
        chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
        faults=FaultConfig(),
        policy="none",
        seed=seed,
    )


def _cells() -> list[ExperimentCell]:
    return [
        ExperimentCell("victim", _tiny(seed=11)),
        ExperimentCell("bystander", _tiny(seed=12, model="resnet12")),
    ]


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(max_attempts=4, backoff_seconds=0.5,
                             backoff_factor=2.0)
        assert policy.delay_after(1) == 0.5
        assert policy.delay_after(2) == 1.0
        assert policy.delay_after(3) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_seconds=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestEnvKnobs:
    def test_timeout_default_off(self, monkeypatch):
        monkeypatch.delenv(TIMEOUT_ENV, raising=False)
        assert default_timeout() is None

    def test_timeout_parsed(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "90.5")
        assert default_timeout() == 90.5

    def test_timeout_zero_disables(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "0")
        assert default_timeout() is None

    def test_timeout_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "soon")
        with pytest.raises(ValueError):
            default_timeout()

    def test_retries_default(self, monkeypatch):
        monkeypatch.delenv(RETRIES_ENV, raising=False)
        assert default_retries() == 2

    def test_retries_parsed_and_clamped(self, monkeypatch):
        monkeypatch.setenv(RETRIES_ENV, "5")
        assert default_retries() == 5
        monkeypatch.setenv(RETRIES_ENV, "-3")
        assert default_retries() == 0

    def test_retries_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv(RETRIES_ENV, "lots")
        with pytest.raises(ValueError):
            default_retries()


def _event(tel: Telemetry, kind: str) -> dict:
    (payload,) = [e["payload"] for e in tel.events if e["kind"] == kind]
    return payload


class TestWorkerCrash:
    """A worker killed with SIGKILL mid-cell neither hangs nor aborts."""

    def test_sigkill_is_retried_and_recovers(self, monkeypatch):
        starts: list[int] = []
        real_start = WorkerGroup.start

        def counting_start(group, *args, **kwargs):
            starts.append(1)
            return real_start(group, *args, **kwargs)

        monkeypatch.setattr(WorkerGroup, "start", counting_start)
        monkeypatch.setenv(CHAOS_ENV, "crash:victim:1")
        tel = Telemetry(echo=False)
        results = run_experiments(_cells(), workers=2, telemetry=tel,
                                  retry=FAST_RETRY)
        by_key = {r.key: r for r in results}
        assert all(r.ok for r in results), [r.error for r in results]
        assert by_key["victim"].attempts == 2
        assert by_key["bystander"].attempts == 1
        assert tel.counters["runner.cell_crashes"] == 1
        assert tel.counters["runner.cell_retries"] == 1
        retried = [e for e in tel.events if e["kind"] == "cell_retried"]
        assert retried and retried[0]["payload"]["reason"] == "crashed"
        # Only the killed worker is replaced (or its cell goes to the
        # bystander's worker once that is idle), and none is left.
        assert len(starts) <= 3
        assert _event(tel, "cell_crashed")["pid"] not in {
            r.worker_pid for r in results}
        assert mp.active_children() == []

        # A worker that dies while idle is dropped, and the next cell
        # runs as a first attempt elsewhere, not as a crash.
        monkeypatch.delenv(CHAOS_ENV)
        killed: list[int] = []

        def kill_idle_worker(res):
            if not killed:
                killed.append(res.worker_pid)
                os.kill(res.worker_pid, signal.SIGKILL)
                deadline = time.monotonic() + 10.0
                while any(p.pid == res.worker_pid
                          for p in mp.active_children()):
                    assert time.monotonic() < deadline
                    time.sleep(0.01)

        tel = Telemetry(echo=False)
        cells = _cells() + [ExperimentCell("third", _tiny(seed=13))]
        results = run_experiments(cells, workers=2, telemetry=tel,
                                  on_result=kill_idle_worker)
        assert all(r.ok and r.attempts == 1 for r in results)
        assert "runner.cell_crashes" not in tel.counters
        assert {"victim", "bystander"} & {
            r.key for r in results if r.worker_pid == killed[0]}
        assert results[2].worker_pid != killed[0]
        assert mp.active_children() == []

    def test_retried_result_is_bit_identical(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        # Two filler cells first: victim and bystander then run on warm
        # workers, each of which already trained a model.
        fillers = [ExperimentCell(f"filler{i}", _tiny(seed=13 + i))
                   for i in range(2)]
        warm = run_experiments(fillers + _cells(), workers=2)
        assert {r.worker_pid for r in warm[2:]} <= {
            r.worker_pid for r in warm[:2]}
        monkeypatch.setenv(CHAOS_ENV, "crash:victim:1")
        # Here the bystander runs on a fresh worker, and the victim's
        # retry on a fresh one or on the bystander's.
        chaotic = run_experiments(_cells(), workers=2, retry=FAST_RETRY)
        for c, x in zip(warm[2:], chaotic):
            assert c.key == x.key
            assert c.final_accuracy == x.final_accuracy
            assert (
                c.result.train_result.accuracy_curve()
                == x.result.train_result.accuracy_curve()
            )
            # Telemetry is deterministic modulo wall-clock fields.
            assert c.telemetry["counters"] == x.telemetry["counters"]
            assert (
                [e["kind"] for e in c.telemetry["events"]]
                == [e["kind"] for e in x.telemetry["events"]]
            )

    def test_persistent_crash_exhausts_retries(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "crash:victim:99")
        tel = Telemetry(echo=False)
        results = run_experiments(
            _cells(), workers=2, telemetry=tel,
            retry=RetryPolicy(max_attempts=2, backoff_seconds=0.05),
        )
        by_key = {r.key: r for r in results}
        victim = by_key["victim"]
        assert not victim.ok
        assert victim.attempts == 2
        assert "crashed" in victim.error and "retries exhausted" in victim.error
        assert np.isnan(victim.final_accuracy)
        assert by_key["bystander"].ok
        assert tel.counters["runner.cells_failed"] == 1


class TestWorkerTimeout:
    def test_hung_worker_is_killed_and_retried(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "hang:victim:1")
        tel = Telemetry(echo=False)
        results = run_experiments(_cells(), workers=2, telemetry=tel,
                                  timeout=2.0, retry=FAST_RETRY)
        by_key = {r.key: r for r in results}
        assert all(r.ok for r in results), [r.error for r in results]
        assert by_key["victim"].attempts == 2
        assert tel.counters["runner.cell_timeouts"] == 1
        kinds = [e["kind"] for e in tel.events]
        assert "cell_timeout" in kinds and "cell_retried" in kinds
        # The hung worker was killed; the retry ran on another.
        assert _event(tel, "cell_timeout")["pid"] != by_key["victim"].worker_pid
        assert mp.active_children() == []

    def test_persistent_hang_exhausts_retries(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "hang:victim:99")
        results = run_experiments(
            _cells(), workers=2, timeout=1.5,
            retry=RetryPolicy(max_attempts=2, backoff_seconds=0.05),
        )
        victim = {r.key: r for r in results}["victim"]
        assert not victim.ok
        assert "timed out" in victim.error


class TestWorkerRaise:
    def test_raise_fails_immediately_without_retry(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "raise:victim:99")
        tel = Telemetry(echo=False)
        results = run_experiments(_cells(), workers=2, telemetry=tel,
                                  retry=FAST_RETRY)
        by_key = {r.key: r for r in results}
        victim = by_key["victim"]
        assert not victim.ok
        assert victim.attempts == 1
        assert "chaos: injected failure" in victim.error
        assert by_key["bystander"].ok
        assert "runner.cell_retries" not in tel.counters


class TestCompletenessGuard:
    """The bare ``assert`` is gone: a hole in the results raises a
    RuntimeError naming the unfinished cells even under ``python -O``."""

    def test_missing_cells_named(self):
        cells = _normalise([("a", _tiny()), ("b", _tiny(seed=12))])
        with pytest.raises(RuntimeError, match=r"1/2 cells.*'b'"):
            _ensure_complete([object(), None], cells)

    def test_long_tail_is_elided(self):
        cells = _normalise([(f"cell{i}", _tiny()) for i in range(12)])
        with pytest.raises(RuntimeError, match=r"\(\+4 more\)"):
            _ensure_complete([None] * 12, cells)

    def test_complete_results_pass(self):
        cells = _normalise([("a", _tiny())])
        _ensure_complete([object()], cells)


class TestShmExportCleanup:
    """A partway failure in the shared-memory export must not leak the
    segments created before the failure (regression: they stayed mapped
    in /dev/shm forever)."""

    def test_partial_failure_unlinks_created_segments(self, monkeypatch):
        from multiprocessing import shared_memory

        from repro.workers import _export_datasets_shm

        created: list[str] = []
        real = shared_memory.SharedMemory

        def flaky(*args, **kwargs):
            if len(created) == 2:
                raise OSError("no space left on /dev/shm")
            shm = real(*args, **kwargs)
            created.append(shm.name)
            return shm

        monkeypatch.setattr(shared_memory, "SharedMemory", flaky)
        cells = _normalise([_tiny(seed=31)])
        with pytest.raises(OSError, match="no space left"):
            _export_datasets_shm(cells)
        assert len(created) == 2
        monkeypatch.undo()
        for name in created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_success_leaves_segments_attachable(self):
        from multiprocessing import shared_memory

        from repro.workers import (
            _export_datasets_shm,
            _release_segments,
        )

        cells = _normalise([_tiny(seed=32)])
        specs, segments = _export_datasets_shm(cells)
        try:
            name = specs[0]["arrays"]["x_train"]["shm"]
            probe = shared_memory.SharedMemory(name=name)
            probe.close()
        finally:
            _release_segments(segments)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
