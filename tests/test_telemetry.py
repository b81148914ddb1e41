"""Telemetry subsystem tests: events, counters, spans, merge, trace I/O,
and the end-to-end guarantees of the acceptance criteria (valid JSONL
trace from a full run; summary counters reproduce ExperimentResult)."""

import io
import json

import pytest

from repro.telemetry import (
    NULL_TELEMETRY,
    SUMMARY_KIND,
    Telemetry,
    null_telemetry,
)
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)


def _tiny(policy: str = "remap-d", **fault_kw) -> ExperimentConfig:
    return ExperimentConfig(
        train=TrainConfig(
            model="vgg11", epochs=2, batch_size=16, n_train=48, n_test=32,
            width_mult=0.125,
        ),
        chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
        faults=FaultConfig(**fault_kw),
        policy=policy,
        remap_threshold=0.001,
        seed=11,
    )


class TestEvents:
    def test_record_shape(self):
        tel = Telemetry(echo=False)
        tel.event("bist_scan", epoch=3, mean_density_est=0.01)
        (record,) = tel.events
        assert set(record) == {"ts", "kind", "payload"}
        assert record["kind"] == "bist_scan"
        assert record["payload"] == {"epoch": 3, "mean_density_est": 0.01}
        assert record["ts"] >= 0.0

    def test_filter_by_kind(self):
        tel = Telemetry(echo=False)
        tel.event("a", i=0)
        tel.event("b", i=1)
        tel.event("a", i=2)
        assert [e["payload"]["i"] for e in tel.filter("a")] == [0, 2]

    def test_echo_writes_stream_not_stdout(self, capsys):
        stream = io.StringIO()
        tel = Telemetry(echo=True, stream=stream)
        tel.event("epoch_done", epoch=1, test_acc=0.5)
        assert "epoch_done" in stream.getvalue()
        assert capsys.readouterr().out == ""


class TestCounters:
    def test_counts_accumulate(self):
        tel = Telemetry(echo=False)
        tel.count("remaps")
        tel.count("remaps", 4)
        assert tel.counters == {"remaps": 5}

    def test_summary_contains_counters_and_event_kinds(self):
        tel = Telemetry(echo=False)
        tel.count("x", 2)
        tel.event("k", a=1)
        tel.event("k", a=2)
        summary = tel.summary()
        assert summary["counters"] == {"x": 2}
        assert summary["events_by_kind"] == {"k": 2}
        assert summary["num_events"] == 2


class TestSpans:
    def test_span_aggregates_and_emits_event(self):
        tel = Telemetry(echo=False)
        with tel.span("train_epoch", epoch=0):
            pass
        with tel.span("train_epoch", epoch=1):
            pass
        assert tel.spans["train_epoch"]["count"] == 2
        assert tel.spans["train_epoch"]["seconds"] >= 0.0
        events = tel.filter("span")
        assert len(events) == 2
        assert events[0]["payload"]["name"] == "train_epoch"
        assert "seconds" in events[0]["payload"]

    def test_span_records_even_on_exception(self):
        tel = Telemetry(echo=False)
        with pytest.raises(RuntimeError):
            with tel.span("work"):
                raise RuntimeError("boom")
        assert tel.spans["work"]["count"] == 1

    def test_span_min_max_aggregates(self):
        tel = Telemetry(echo=False)
        for _ in range(3):
            with tel.span("w"):
                pass
        agg = tel.spans["w"]
        assert 0.0 <= agg["min"] <= agg["max"] <= agg["seconds"]

    def test_nested_spans_carry_parent_ids(self):
        tel = Telemetry(echo=False)
        with tel.span("outer"):
            with tel.span("inner"):
                pass
        inner, outer = sorted(
            (e["payload"] for e in tel.filter("span")),
            key=lambda p: p["name"],
        )
        assert outer["parent_id"] is None
        assert inner["parent_id"] == outer["span_id"]
        assert inner["span_id"] != outer["span_id"]

    def test_sibling_spans_share_parent(self):
        tel = Telemetry(echo=False)
        with tel.span("root"):
            with tel.span("a"):
                pass
            with tel.span("b"):
                pass
        payloads = {e["payload"]["name"]: e["payload"]
                    for e in tel.filter("span")}
        assert payloads["a"]["parent_id"] == payloads["root"]["span_id"]
        assert payloads["b"]["parent_id"] == payloads["root"]["span_id"]

    def test_nested_sinks_do_not_cross_link(self):
        # A child sink's span opened inside an outer sink's span must not
        # adopt the outer sink's span as its parent (distinct traces).
        outer = Telemetry(echo=False)
        inner = Telemetry(echo=False)
        with outer.span("cli"):
            with inner.span("cell_work"):
                pass
        (cell_event,) = inner.filter("span")
        assert cell_event["payload"]["parent_id"] is None


class TestDisabled:
    def test_disabled_sink_is_inert(self):
        tel = Telemetry(enabled=False)
        tel.event("k", a=1)
        tel.count("c")
        with tel.span("s"):
            pass
        assert tel.events == [] and tel.counters == {} and tel.spans == {}

    def test_null_telemetry_shared_and_disabled(self):
        assert null_telemetry() is NULL_TELEMETRY
        assert not NULL_TELEMETRY.enabled

    def test_merge_into_null_telemetry_is_noop(self):
        # Regression: merge() used to mutate the shared NULL_TELEMETRY,
        # leaking one run's counters/events into every later consumer.
        child = Telemetry(echo=False)
        child.count("remaps", 3)
        child.event("epoch_done", epoch=0)
        with child.span("train_epoch"):
            pass
        child.observe("train.epoch_seconds", 0.5)
        sink = null_telemetry()
        sink.merge(child, tag="cell")
        sink.merge(child.snapshot())
        assert sink.events == []
        assert sink.counters == {}
        assert sink.spans == {}
        assert sink.histograms == {}

    def test_disabled_sink_ignores_observe(self):
        tel = Telemetry(enabled=False)
        tel.observe("h", 1.0)
        assert tel.histograms == {}


class TestTraceIO:
    def test_jsonl_round_trip(self, tmp_path):
        tel = Telemetry(echo=False)
        tel.event("fault_injected", phase="pre", cells=12)
        with tel.span("evaluate", epoch=0):
            pass
        path = tmp_path / "trace.jsonl"
        tel.dump_jsonl(str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        # events plus the trailing summary record (counters/histograms
        # survive the file round trip for `repro report`).
        assert len(records) == 3
        for record in records:
            assert {"ts", "kind", "payload"} <= set(record)
        assert records[-1]["kind"] == SUMMARY_KIND
        assert records[-1]["payload"]["events_by_kind"] == {
            "fault_injected": 1, "span": 1,
        }

    def test_summary_record_is_optional(self, tmp_path):
        tel = Telemetry(echo=False)
        tel.event("k", a=1)
        path = tmp_path / "bare.jsonl"
        tel.dump_jsonl(str(path), summary=False)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["kind"] for r in records] == ["k"]

    def test_numpy_payloads_serialise(self, tmp_path):
        import numpy as np

        tel = Telemetry(echo=False)
        tel.event("k", scalar=np.float64(0.5), arr=np.arange(3))
        path = tmp_path / "np.jsonl"
        tel.dump_jsonl(str(path), summary=False)
        (record,) = [json.loads(l) for l in path.read_text().splitlines()]
        assert record["payload"] == {"scalar": 0.5, "arr": [0, 1, 2]}


class TestHistograms:
    def test_observe_builds_summary_percentiles(self):
        tel = Telemetry(echo=False)
        for ms in range(1, 101):
            tel.observe("remap.pass_seconds", ms / 1000.0)
        s = tel.summary()["histograms"]["remap.pass_seconds"]
        assert s["count"] == 100
        assert s["min"] == pytest.approx(0.001)
        assert s["max"] == pytest.approx(0.100)
        # log-bucketed percentiles: right order of magnitude, ordered.
        assert 0.02 <= s["p50"] <= 0.08
        assert s["p50"] <= s["p90"] <= s["p99"] <= s["max"]

    def test_merge_folds_histograms(self):
        parent = Telemetry(echo=False)
        parent.observe("h", 1.0)
        child = Telemetry(echo=False)
        child.observe("h", 3.0)
        child.observe("other", 2.0)
        parent.merge(child)
        assert parent.histograms["h"].count == 2
        assert parent.histograms["h"].max == 3.0
        assert parent.histograms["other"].count == 1

    def test_histograms_survive_snapshot_pickle(self):
        import pickle

        child = Telemetry(echo=False)
        child.observe("h", 0.25)
        snap = pickle.loads(pickle.dumps(child.snapshot()))
        parent = Telemetry(echo=False)
        parent.merge(snap)
        assert parent.histograms["h"].count == 1
        assert parent.histograms["h"].summary()["max"] == pytest.approx(0.25)


class TestMerge:
    def test_counters_spans_and_events_fold_in(self):
        parent = Telemetry(echo=False)
        parent.count("remaps", 1)
        child = Telemetry(echo=False)
        child.count("remaps", 2)
        child.event("epoch_done", epoch=0)
        with child.span("train_epoch"):
            pass
        parent.merge(child, tag="cell-a")
        assert parent.counters["remaps"] == 3
        assert parent.spans["train_epoch"]["count"] == 1
        merged = parent.filter("epoch_done")[0]
        assert merged["cell"] == "cell-a"

    def test_merge_accepts_snapshot_dict_and_none(self):
        parent = Telemetry(echo=False)
        child = Telemetry(echo=False)
        child.count("x", 7)
        parent.merge(child.snapshot())
        parent.merge(None)
        assert parent.counters == {"x": 7}

    def test_snapshot_is_plain_data(self):
        import pickle

        tel = Telemetry(echo=False)
        tel.event("k", a=1)
        tel.count("c", 2)
        snap = pickle.loads(pickle.dumps(tel.snapshot()))
        assert snap["counters"] == {"c": 2}
        assert snap["events"][0]["kind"] == "k"


class TestWallClockEpoch:
    """Every sink carries a wall-clock epoch so merged multi-process
    traces share one timeline (satellite of the live-monitoring plane)."""

    def test_sink_is_epoch_stamped(self):
        import time

        before = time.time()
        tel = Telemetry(echo=False)
        assert before <= tel.epoch <= time.time()
        assert tel.snapshot()["epoch"] == tel.epoch

    def test_merge_records_source_epochs(self):
        parent = Telemetry(echo=False)
        child = Telemetry(echo=False)
        parent.merge(child, tag=("vgg11", "none", 1))
        assert parent.source_epochs == {
            str(("vgg11", "none", 1)): child.epoch
        }

    def test_summary_record_carries_epochs(self, tmp_path):
        parent = Telemetry(echo=False)
        child = Telemetry(echo=False)
        child.event("k")
        parent.merge(child, tag="w")
        path = tmp_path / "t.jsonl"
        parent.dump_jsonl(str(path))
        summary = json.loads(path.read_text().splitlines()[-1])["payload"]
        assert summary["epoch"] == parent.epoch
        assert summary["source_epochs"] == {"w": child.epoch}


class TestAtomicDump:
    """dump_jsonl writes through a same-directory temp file + rename, so
    a crash mid-dump can't shadow a good earlier trace with half a file."""

    def test_no_temp_residue(self, tmp_path):
        tel = Telemetry(echo=False)
        tel.event("k", a=1)
        path = tmp_path / "trace.jsonl"
        tel.dump_jsonl(str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]

    def test_failed_dump_preserves_previous_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = Telemetry(echo=False)
        good.event("good")
        good.dump_jsonl(str(path))
        before = path.read_text()

        bad = Telemetry(echo=False)
        bad.events.append(None)  # unrenderable record: dump blows up
        with pytest.raises(TypeError):
            bad.dump_jsonl(str(path))
        assert path.read_text() == before  # old trace untouched
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]


class TestExperimentIntegration:
    """Acceptance criteria: a full run emits a valid trace and the
    aggregated counters reproduce the ExperimentResult statistics."""

    @pytest.fixture(scope="class")
    def run(self):
        from repro.core.controller import run_experiment

        tel = Telemetry(echo=False)
        result = run_experiment(_tiny("remap-d"), telemetry=tel)
        return tel, result

    def test_trace_is_valid_jsonl(self, run, tmp_path):
        tel, _ = run
        path = tmp_path / "run.jsonl"
        tel.dump_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert {"ts", "kind", "payload"} <= set(record)
            assert isinstance(record["payload"], dict)

    def test_counters_reproduce_result_statistics(self, run):
        tel, result = run
        assert tel.counters["remaps"] == result.num_remaps
        # one scan at setup is policy-internal; the per-epoch counter
        # matches the controller's bist_scans bookkeeping (= epochs).
        assert tel.counters["bist_scans"] == 2
        assert result.telemetry["counters"] == tel.counters

    def test_deployment_scan_is_attributed(self, run):
        """Remap-D's deployment scan is a ``bist_scan`` span (epoch -1)
        inside ``build_experiment`` and reports its detail like an epoch-end
        scan; the ``bist_scans`` counter and event stay epoch-end only."""
        tel, _ = run
        spans = {e["payload"]["span_id"]: e["payload"] for e in tel.filter("span")}
        scans = [s for s in spans.values() if s["name"] == "bist_scan"]
        assert [s["epoch"] for s in scans] == [-1, 0, 1]
        assert spans[scans[0]["parent_id"]]["name"] == "build_experiment"
        details = tel.filter("bist_scan_detail")
        assert len(details) == 3
        assert tel.counters["bist.crossbars_scanned"] == sum(
            d["payload"]["crossbars"] for d in details
        )
        assert tel.counters["bist_scans"] == 2
        assert [e["payload"]["epoch"] for e in tel.filter("bist_scan")] == [0, 1]

    def test_expected_event_kinds_present(self, run):
        tel, _ = run
        kinds = {e["kind"] for e in tel.events}
        assert {"fault_injected", "bist_scan", "remap_planned",
                "epoch_done", "experiment_done", "span"} <= kinds
        assert len(tel.filter("epoch_done")) == 2

    def test_engine_cache_counters_published(self, run):
        tel, _ = run
        assert tel.counters["engine.cache_hits"] > 0
        assert tel.counters["engine.cache_misses"] > 0
        assert tel.counters["engine.cache_recomputes"] >= \
            tel.counters["engine.cache_misses"]

    def test_spans_cover_epoch_loop(self, run):
        tel, _ = run
        assert tel.spans["train_epoch"]["count"] == 2
        assert tel.spans["evaluate"]["count"] == 2
        assert tel.spans["build_experiment"]["count"] == 1

    def test_telemetry_does_not_perturb_results(self):
        from repro.core.controller import run_experiment

        with_tel = run_experiment(_tiny("remap-d"), telemetry=Telemetry(echo=False))
        without = run_experiment(_tiny("remap-d"))
        assert with_tel.final_accuracy == without.final_accuracy
        assert with_tel.num_remaps == without.num_remaps
        # the internal sink produced the same aggregate
        assert with_tel.telemetry["counters"] == without.telemetry["counters"]


class TestSweepQuietOutput:
    def test_run_sweep_never_writes_stdout(self, capsys):
        from repro.core.analysis import run_sweep

        cfg = _tiny("none")
        cfg.train.epochs = 1
        run_sweep([("cell", cfg)], progress=False)
        assert capsys.readouterr().out == ""

    def test_run_sweep_progress_goes_to_stderr(self, capsys):
        from repro.core.analysis import run_sweep

        cfg = _tiny("none")
        cfg.train.epochs = 1
        run_sweep([("cell", cfg)], progress=True)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sweep_cell_done" in captured.err

    def test_run_sweep_emits_into_supplied_sink(self):
        from repro.core.analysis import run_sweep

        cfg = _tiny("none")
        cfg.train.epochs = 1
        tel = Telemetry(echo=False)
        sweep = run_sweep([("cell", cfg)], telemetry=tel)
        (done,) = tel.filter("sweep_cell_done")
        assert done["payload"]["label"] == "cell"
        assert done["payload"]["final_accuracy"] == sweep.accuracy("cell")
        # the run's own events were merged in, tagged by label
        assert any(e.get("cell") == "cell" for e in tel.filter("epoch_done"))
