"""Tests for the extension modules: pipeline, analysis, charts, CLI."""

import numpy as np
import pytest

from repro.core.analysis import SweepResult, accuracy_loss_table, run_sweep, seed_average
from repro.core.controller import build_experiment
from repro.nn.tensor import Tensor
from repro.reram.pipeline import PipelineModel
from repro.utils.charts import render_bars, render_grouped_bars
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)


def _tiny_config(policy: str = "none", **kw) -> ExperimentConfig:
    return ExperimentConfig(
        train=TrainConfig(
            model="vgg11", epochs=1, batch_size=16, n_train=32, n_test=32,
            width_mult=0.125,
        ),
        chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
        faults=FaultConfig(pre_enabled=False, post_enabled=False),
        policy=policy,
        seed=9,
        **kw,
    )


class TestPipelineModel:
    @pytest.fixture
    def built(self):
        ctx = build_experiment(_tiny_config())
        ctx.model.eval()
        ctx.model(Tensor(ctx.dataset.x_train[:2]))
        return ctx

    def test_bottleneck_and_interval(self, built):
        pm = PipelineModel(built.model, built.engine)
        assert pm.stage_interval_cycles == pm.bottleneck.cycles_per_sample
        assert pm.stage_interval_cycles > 0

    def test_epoch_cycles_scale_with_samples(self, built):
        pm = PipelineModel(built.model, built.engine)
        small = pm.epoch_cycles(samples=100, batches=5)
        big = pm.epoch_cycles(samples=10_000, batches=500)
        assert big > 50 * small

    def test_requires_forward_pass(self):
        ctx = build_experiment(_tiny_config())
        with pytest.raises(RuntimeError):
            PipelineModel(ctx.model, ctx.engine)

    def test_summary_rows(self, built):
        pm = PipelineModel(built.model, built.engine)
        rows = pm.summary_rows()
        assert len(rows) == len(pm.layers)


class TestAnalysis:
    def test_run_sweep_and_losses(self):
        sweep = run_sweep([
            ("ideal", _tiny_config("ideal")),
            ("none", _tiny_config("none")),
        ])
        losses = sweep.losses_vs("ideal")
        assert set(losses) == {"none"}

    def test_duplicate_label_rejected(self):
        sweep = SweepResult()
        from repro.core.controller import run_experiment

        result = run_experiment(_tiny_config("ideal"))
        sweep.add("a", result)
        with pytest.raises(KeyError):
            sweep.add("a", result)

    def test_seed_average(self):
        mean, spread, results = seed_average(_tiny_config("ideal"), [1, 2])
        assert len(results) == 2
        assert 0 <= mean <= 1 and spread >= 0

    def test_seed_average_validates_before_running(self, monkeypatch):
        # Regression: the empty-seeds check used to sit *after* the sweep.
        import repro.core.analysis as analysis

        def boom(*args, **kwargs):
            raise AssertionError("ran an experiment despite empty seeds")

        monkeypatch.setattr(analysis, "run_experiment", boom)
        with pytest.raises(ValueError, match="at least one seed"):
            seed_average(_tiny_config("ideal"), [])
        # A generator of seeds must also survive the validation pass.
        monkeypatch.undo()
        mean, _, results = seed_average(_tiny_config("ideal"), iter([1]))
        assert len(results) == 1 and 0 <= mean <= 1

    def test_loss_table_shape(self):
        sweep = run_sweep([
            ("ideal", _tiny_config("ideal")),
            ("none", _tiny_config("none")),
        ])
        rows = accuracy_loss_table(sweep, "ideal")
        assert rows[0][0] == "ideal" and rows[0][2] == 0.0
        assert len(rows) == 2


class TestCharts:
    def test_render_bars_basic(self):
        out = render_bars(["a", "bb"], [0.5, 1.0], width=10)
        lines = out.splitlines()
        assert lines[0].startswith("a ")
        assert "##########" in lines[1]
        assert "0.500" in lines[0]

    def test_render_bars_clamps_overflow(self):
        out = render_bars(["x"], [2.0], width=10, vmax=1.0)
        assert out.count("#") == 10

    def test_render_bars_validation(self):
        with pytest.raises(ValueError):
            render_bars(["a"], [1.0, 2.0])

    def test_grouped_bars(self):
        out = render_grouped_bars(
            ["vgg11", "resnet12"],
            {"ideal": [0.9, 0.95], "none": [0.6, 0.7]},
        )
        assert "vgg11:" in out and "resnet12:" in out
        assert out.count("ideal") == 2

    def test_grouped_bars_length_check(self):
        with pytest.raises(ValueError):
            render_grouped_bars(["a"], {"s": [1.0, 2.0]})


class TestCli:
    def test_parser_builds_all_commands(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (
            ["run", "--model", "vgg11"],
            ["compare", "--policies", "ideal", "none"],
            ["overheads"],
            ["bist", "--sa0", "10", "--sa1", "2"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_overheads_command_runs(self, capsys):
        from repro.cli import main

        assert main(["overheads"]) == 0
        out = capsys.readouterr().out
        assert "BIST" in out and "260" in out

    def test_bist_command_runs(self, capsys):
        from repro.cli import main

        assert main(["bist", "--sa0", "30", "--sa1", "5",
                     "--crossbar-size", "32"]) == 0
        out = capsys.readouterr().out
        assert "BIST estimate" in out

    def test_run_command_tiny(self, capsys):
        from repro.cli import main

        rc = main([
            "run", "--model", "vgg11", "--epochs", "1",
            "--n-train", "32", "--n-test", "32", "--batch-size", "16",
            "--policy", "ideal", "--no-pre-faults", "--no-post-faults",
        ])
        assert rc == 0
        assert "experiment result" in capsys.readouterr().out
