"""Runner tests: serial/parallel parity, failure isolation, env parsing."""

import multiprocessing as mp

import numpy as np
import pytest

from repro.nn.tensor import step_arena
from repro.runner import (
    CellResult,
    ExperimentCell,
    default_workers,
    results_by_key,
    run_experiments,
)
from repro.runner.runner import WORKERS_ENV, _normalise
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)


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


class TestDefaultWorkers:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert default_workers() == 1

    def test_explicit_count(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert default_workers() == 4

    def test_auto_uses_cpu_count(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "auto")
        assert default_workers() >= 1

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError):
            default_workers()

    def test_nonpositive_clamped_to_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert default_workers() == 1


class TestNormalise:
    def test_accepts_all_cell_spellings(self):
        cfg = _tiny()
        cells = _normalise([
            ExperimentCell("a", cfg), cfg, ("c", cfg),
        ])
        assert [c.key for c in cells] == ["a", 1, "c"]

    def test_rejects_unknown(self):
        with pytest.raises(TypeError):
            _normalise(["not a cell"])


class TestRunExperiments:
    def test_empty_input(self):
        assert run_experiments([]) == []

    def test_serial_vs_pool_identical(self):
        cells = [
            ExperimentCell("a", _tiny(seed=11)),
            ExperimentCell("b", _tiny(seed=12, model="resnet12")),
            ExperimentCell("c", _tiny(seed=13)),
        ]
        serial = run_experiments(cells, workers=1)
        # Each cell leaves the step arena empty, so the process does not
        # keep vgg11's buffers beside resnet12's.
        assert step_arena()._buffers == {}
        # Reversed on two persistent workers: some cells run on a worker
        # that already ran another model, and every result still matches.
        pooled = run_experiments(cells[::-1], workers=2)
        assert mp.active_children() == []
        assert len({r.worker_pid for r in pooled}) <= 2
        assert [r.key for r in serial] == ["a", "b", "c"]  # submission order
        assert [r.key for r in pooled] == ["c", "b", "a"]
        pooled_by_key = results_by_key(pooled)
        for s in serial:
            p = pooled_by_key[s.key]
            assert s.ok and p.ok
            assert s.final_accuracy == p.final_accuracy
            assert (
                s.result.train_result.accuracy_curve()
                == p.result.train_result.accuracy_curve()
            )
            assert s.telemetry["counters"] == p.telemetry["counters"]

    def test_failure_isolation(self):
        cells = [
            ExperimentCell("good", _tiny(seed=11)),
            ExperimentCell("bad", _tiny(model="no-such-model")),
        ]
        results = run_experiments(cells, workers=1)
        good, bad = results
        assert good.ok and not bad.ok
        assert "no-such-model" in bad.error
        assert np.isnan(bad.final_accuracy)
        assert good.final_accuracy == good.result.final_accuracy

    def test_on_result_callback_sees_every_cell(self):
        seen = []
        cells = [ExperimentCell(i, _tiny(seed=20 + i)) for i in range(2)]
        run_experiments(cells, workers=1, on_result=seen.append)
        assert sorted(r.key for r in seen) == [0, 1]

        # A callback that raises ends a pooled sweep with no child left,
        # the idle worker and the busy one alike.
        def boom(res):
            raise KeyError(res.key)

        with pytest.raises(KeyError):
            run_experiments(cells, workers=2, on_result=boom)
        assert mp.active_children() == []

    def test_tags_carried_through(self):
        cell = ExperimentCell("t", _tiny(), tags={"row": "vgg11"})
        (res,) = run_experiments([cell], workers=1)
        assert res.tags == {"row": "vgg11"}


class TestSharedDatasetCache:
    def test_prefill_generates_each_recipe_once(self):
        from repro.nn.data import clear_dataset_cache, cached_dataset
        from repro.runner.runner import _dataset_recipes, _prefill_dataset_cache

        clear_dataset_cache()
        cells = _normalise([
            ExperimentCell("a", _tiny(seed=11)),
            ExperimentCell("b", _tiny(seed=11)),   # same recipe as "a"
            ExperimentCell("c", _tiny(seed=12)),
        ])
        assert len(_dataset_recipes(cells)) == 2
        _prefill_dataset_cache(cells)
        tc = cells[0].config.train
        ds_a = cached_dataset(tc.dataset, tc.n_train, tc.n_test, tc.image_size, 11)
        assert ds_a is cached_dataset(
            tc.dataset, tc.n_train, tc.n_test, tc.image_size, 11
        )

    def test_spawn_shared_memory_matches_serial(self):
        """The spawn path ships datasets via shared memory, same results."""
        cells = [
            ExperimentCell("a", _tiny(seed=11)),
            ExperimentCell("b", _tiny(seed=12)),
        ]
        serial = run_experiments(cells, workers=1)
        spawned = run_experiments(cells, workers=2, start_method="spawn")
        for s, p in zip(serial, spawned):
            assert s.ok and p.ok, (s.error, p.error)
            assert s.final_accuracy == p.final_accuracy
            assert (
                s.result.train_result.accuracy_curve()
                == p.result.train_result.accuracy_curve()
            )


class TestTelemetryMerge:
    """Worker telemetry folds back into the parent sink identically for
    serial, fork-pool and spawn-pool execution."""

    def _cells(self):
        return [
            ExperimentCell("a", _tiny(seed=11)),
            ExperimentCell("b", _tiny(seed=12, model="resnet12")),
        ]

    def _aggregate(self, **kwargs):
        from repro.telemetry import Telemetry

        tel = Telemetry(echo=False)
        results = run_experiments(self._cells(), telemetry=tel, **kwargs)
        assert all(r.ok for r in results), [r.error for r in results]
        return tel, results

    def test_every_cell_carries_a_snapshot(self):
        _, results = self._aggregate(workers=1)
        for res in results:
            assert res.telemetry is not None
            assert res.telemetry["counters"]["engine.cache_misses"] > 0
            assert res.telemetry["events"]

    def test_serial_fork_spawn_aggregate_identically(self):
        serial, _ = self._aggregate(workers=1)
        fork, _ = self._aggregate(workers=2, start_method="fork")
        spawn, _ = self._aggregate(workers=2, start_method="spawn")
        assert serial.counters == fork.counters == spawn.counters
        # span *counts* are deterministic (durations are wall clock)
        span_counts = lambda t: {k: v["count"] for k, v in t.spans.items()}
        assert span_counts(serial) == span_counts(fork) == span_counts(spawn)
        # merged events arrive in submission order, tagged by cell key
        order = lambda t: [(e["cell"], e["kind"]) for e in t.events]
        assert order(serial) == order(fork) == order(spawn)

    def test_parent_counters_equal_snapshot_sums(self):
        tel, results = self._aggregate(workers=1)
        summed: dict[str, int] = {}
        for res in results:
            for name, n in res.telemetry["counters"].items():
                summed[name] = summed.get(name, 0) + n
        assert tel.counters == summed

    def test_failed_cell_still_returns_telemetry(self):
        from repro.telemetry import Telemetry

        tel = Telemetry(echo=False)
        cells = [ExperimentCell("bad", _tiny(model="no-such-model"))]
        (res,) = run_experiments(cells, workers=1, telemetry=tel)
        assert not res.ok
        assert res.telemetry is not None  # partial trace, still merged


class TestResultsByKey:
    def _res(self, key) -> CellResult:
        return CellResult(
            key=key, ok=False, result=None, error="x",
            wall_seconds=0.0, worker_pid=0,
        )

    def test_indexing(self):
        by_key = results_by_key([self._res("a"), self._res("b")])
        assert set(by_key) == {"a", "b"}

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            results_by_key([self._res("a"), self._res("a")])
