"""Analog non-ideality stack: layer properties, engine integration, the
variation layer (programming error, read noise, retention drift) and its
regressions (dead drift path, non-finite sigma validation, cache-bypass
audit), and the golden run of the whole folded stack."""

import json
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from repro.analog import (
    ANALOG_PRESETS,
    AnalogConfig,
    AnalogStack,
    ConductanceConfig,
    IRDropConfig,
    QuantizationConfig,
    SoftErrorConfig,
    SoftErrorState,
    VariationModel,
    attenuation_block,
    attenuation_map,
    clipped_fraction,
    conductance_roundtrip,
    make_analog_config,
    quantization_levels,
    quantize_uniform,
    weight_lsb,
    weight_to_conductances,
)
from repro.bist.scrub import scrub_pass_cycles
from repro.faults.types import FaultType
from repro.nn.fault_aware import CrossbarEngine
from repro.nn.layers import Conv2d, Flatten, Linear, Sequential
from repro.reram.chip import Chip
from repro.telemetry import Telemetry
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)
from repro.utils.rng import derive_rng

SETTINGS = settings(max_examples=40, deadline=None)

GOLDEN = Path(__file__).parent / "data" / "golden_variation.json"

finite_arrays = st.lists(
    st.floats(-100.0, 100.0, allow_nan=False), min_size=1, max_size=64
).map(lambda xs: np.asarray(xs, dtype=np.float64))


# --------------------------------------------------------------------- #
# quantization layer properties (satellite: property tests)
# --------------------------------------------------------------------- #
class TestQuantizationProperties:
    @SETTINGS
    @given(x=finite_arrays, bits=st.integers(2, 16), clip=st.floats(0.1, 50.0))
    def test_adc_of_dac_idempotent_at_matching_widths(self, x, bits, clip):
        dac = quantize_uniform(x, bits, clip)
        adc = quantize_uniform(dac, bits, clip)
        np.testing.assert_array_equal(dac, adc)

    @SETTINGS
    @given(x=finite_arrays, bits=st.integers(2, 16), clip=st.floats(0.1, 50.0))
    def test_monotone_in_input(self, x, bits, clip):
        order = np.argsort(x)
        q = quantize_uniform(x, bits, clip)
        assert np.all(np.diff(q[order]) >= 0)

    @SETTINGS
    @given(
        bits=st.integers(2, 16),
        clip=st.floats(0.1, 50.0),
        seed=st.integers(0, 500),
    )
    def test_exact_at_representable_levels(self, bits, clip, seed):
        steps = quantization_levels(bits)
        rng = derive_rng(seed, "qlevels")
        k = rng.integers(-steps, steps + 1, size=32)
        levels = k * (clip / steps)
        np.testing.assert_array_equal(quantize_uniform(levels, bits, clip), levels)

    @SETTINGS
    @given(x=finite_arrays, bits=st.integers(2, 16), clip=st.floats(0.1, 50.0))
    def test_error_bounded_by_half_lsb_inside_range(self, x, bits, clip):
        inside = np.clip(x, -clip, clip)
        q = quantize_uniform(inside, bits, clip)
        lsb = clip / quantization_levels(bits)
        assert np.all(np.abs(q - inside) <= lsb / 2 + 1e-12)

    def test_saturates_at_clip(self):
        q = quantize_uniform(np.array([123.0, -123.0]), 8, 1.0)
        np.testing.assert_allclose(q, [1.0, -1.0])

    def test_clipped_fraction(self):
        x = np.array([0.5, -2.0, 3.0, 0.0])
        assert clipped_fraction(x, 1.0) == 0.5
        assert clipped_fraction(np.zeros(0), 1.0) == 0.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            quantize_uniform(np.zeros(3), 8, 0.0)
        with pytest.raises(ValueError):
            quantize_uniform(np.zeros(3), 8, float("nan"))
        with pytest.raises(ValueError):
            QuantizationConfig(dac_bits=1)
        with pytest.raises(ValueError):
            QuantizationConfig(clip_headroom=float("inf"))


# --------------------------------------------------------------------- #
# conductance mapping properties (satellite: property tests)
# --------------------------------------------------------------------- #
class TestConductanceProperties:
    @SETTINGS
    @given(
        x=finite_arrays,
        clip=st.floats(0.1, 50.0),
        levels=st.integers(2, 1024),
    )
    def test_roundtrip_within_one_lsb(self, x, clip, levels):
        cfg = ConductanceConfig(levels=levels)
        w = np.clip(x, -clip, clip)
        back = conductance_roundtrip(w, clip, cfg)
        assert np.all(np.abs(back - w) <= weight_lsb(clip, cfg) * (1 + 1e-9))

    @SETTINGS
    @given(x=finite_arrays, clip=st.floats(0.1, 50.0))
    def test_continuous_roundtrip_exact(self, x, clip):
        cfg = ConductanceConfig(levels=0)
        w = np.clip(x, -clip, clip)
        np.testing.assert_allclose(
            conductance_roundtrip(w, clip, cfg), w, rtol=1e-12, atol=1e-12
        )

    @SETTINGS
    @given(x=finite_arrays, clip=st.floats(0.1, 50.0))
    def test_conductances_stay_in_window(self, x, clip):
        cfg = ConductanceConfig()
        g_pos, g_neg = weight_to_conductances(x, clip, cfg)
        for g in (g_pos, g_neg):
            assert np.all(g >= cfg.g_min - 1e-18)
            assert np.all(g <= cfg.g_max * (1 + 1e-12))

    def test_differential_pair_one_side_idle(self):
        cfg = ConductanceConfig()
        g_pos, g_neg = weight_to_conductances(np.array([0.5, -0.5]), 1.0, cfg)
        assert g_neg[0] == cfg.g_min and g_pos[1] == cfg.g_min
        assert g_pos[0] > cfg.g_min and g_neg[1] > cfg.g_min

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ConductanceConfig(g_min=2.0, g_max=1.0)
        with pytest.raises(ValueError):
            ConductanceConfig(g_min=float("nan"))
        with pytest.raises(ValueError):
            ConductanceConfig(levels=1)


# --------------------------------------------------------------------- #
# IR drop
# --------------------------------------------------------------------- #
class TestIRDrop:
    def test_block_bounds_and_monotonicity(self):
        cfg = IRDropConfig(wire_ratio=0.01, load_ratio=0.05)
        attn = attenuation_block(16, 16, cfg)
        assert np.all(attn > 0) and np.all(attn <= 1.0)
        # Further from the row driver (higher j) and further from the
        # column ADC at the bottom edge (lower i) both read weaker.
        assert np.all(np.diff(attn, axis=1) < 0)
        assert np.all(np.diff(attn, axis=0) > 0)
        # The bottom-left cell sits next to both driver and ADC.
        assert attn.max() == attn[-1, 0]

    def test_inactive_config_is_identity(self):
        attn = attenuation_block(8, 8, IRDropConfig(wire_ratio=0.0, load_ratio=0.0))
        np.testing.assert_array_equal(attn, np.ones((8, 8)))
        assert not IRDropConfig(wire_ratio=0.0).active

    def test_map_tiles_with_block_geometry(self):
        cfg = IRDropConfig(wire_ratio=0.01)
        block = attenuation_block(4, 4, cfg)
        tiled = attenuation_map((10, 7), (4, 4), cfg)
        assert tiled.shape == (10, 7)
        np.testing.assert_array_equal(tiled[:4, :4], block)
        np.testing.assert_array_equal(tiled[4:8, 4:7], block[:, :3])
        np.testing.assert_array_equal(tiled[8:10, :4], block[:2])

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            IRDropConfig(wire_ratio=-1.0)
        with pytest.raises(ValueError):
            IRDropConfig(load_ratio=float("inf"))


# --------------------------------------------------------------------- #
# soft errors + scrub accounting
# --------------------------------------------------------------------- #
class TestSoftErrors:
    def _state(self, seed=0, rate=2e5, scrub=True):
        state = SoftErrorState(
            SoftErrorConfig(rate_per_mcell=rate, scrub=scrub),
            derive_rng(seed, "soft-error"),
        )
        state.register("conv1", "fwd", 400)
        state.register("conv1", "bwd", 400)
        return state

    def test_poisson_arrivals_and_replay_deterministic(self):
        a, b = self._state(seed=3), self._state(seed=3)
        for state in (a, b):
            state.advance_epoch()
        assert a.flipped_cells > 0  # rate 0.2/cell on 800 cells
        for site in (("conv1", "fwd"), ("conv1", "bwd")):
            fa, fb = a.flips(*site), b.flips(*site)
            assert (fa is None) == (fb is None)
            if fa is not None:
                np.testing.assert_array_equal(fa[0], fb[0])
                np.testing.assert_array_equal(fa[1], fb[1])

    def test_scrub_repairs_everything(self):
        state = self._state()
        _, injected = state.advance_epoch()
        assert injected > 0 and state.flipped_cells == injected
        repaired, _ = state.advance_epoch()
        assert repaired == injected
        assert state.total_repaired == repaired

    def test_no_scrub_accumulates(self):
        state = self._state(scrub=False)
        counts = []
        for _ in range(4):
            repaired, _ = state.advance_epoch()
            assert repaired == 0
            counts.append(state.flipped_cells)
        assert counts == sorted(counts) and counts[-1] > counts[0]
        # Flip indices stay unique even as arrivals collide.
        idx, _ = state.flips("conv1", "fwd")
        assert len(np.unique(idx)) == len(idx)

    def test_version_bumps_every_epoch(self):
        state = self._state(rate=0.0)
        assert state.version == 0
        state.advance_epoch()
        state.advance_epoch()
        assert state.version == 2

    def test_scrub_pass_cycles(self):
        chip = ChipConfig(crossbars_per_ima=4,
                          crossbar=CrossbarConfig(rows=16, cols=16))
        report = scrub_pass_cycles(chip, repaired_cells=10)
        assert report.detect_cycles == 4 * 2 * (16 + 2)
        assert report.repair_cycles == 20
        assert report.total_cycles == report.detect_cycles + 20
        with pytest.raises(ValueError):
            scrub_pass_cycles(chip, repaired_cells=-1)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            SoftErrorConfig(rate_per_mcell=-1.0)
        with pytest.raises(ValueError):
            SoftErrorConfig(rate_per_mcell=float("nan"))


# --------------------------------------------------------------------- #
# the stack
# --------------------------------------------------------------------- #
class TestAnalogStack:
    def test_presets(self):
        assert make_analog_config("off") is None
        full = make_analog_config("full")
        assert full.active and full.quantization is not None
        assert full.soft_error is not None
        with pytest.raises(ValueError):
            make_analog_config("nope")
        for name, cfg in ANALOG_PRESETS.items():
            if cfg is not None:
                assert cfg.describe() != "no analog layers", name

    def test_config_key_stable_and_distinct(self):
        a = AnalogConfig(quantization=QuantizationConfig())
        b = AnalogConfig(quantization=QuantizationConfig())
        c = AnalogConfig(quantization=QuantizationConfig(dac_bits=6))
        assert a.config_key() == b.config_key()
        assert a.config_key() != c.config_key()

    def test_apply_never_mutates_input(self):
        stack = AnalogStack(ANALOG_PRESETS["full"], rng=derive_rng(0, "s"))
        w = derive_rng(1, "w").normal(size=(8, 12))
        before = w.copy()
        out = stack.apply("fc", "bwd", w)
        np.testing.assert_array_equal(w, before)
        assert out is not w

    def test_quantized_output_lands_on_adc_grid(self):
        cfg = AnalogConfig(quantization=QuantizationConfig(dac_bits=6, adc_bits=6))
        stack = AnalogStack(cfg)
        w = derive_rng(2, "w").normal(size=(16, 16))
        out = stack.apply("fc", "bwd", w)
        clip = stack._clips[("fc", "bwd")]
        steps = quantization_levels(6)
        k = out / (clip / steps)
        np.testing.assert_allclose(k, np.round(k), atol=1e-9)

    def test_soft_error_requires_rng(self):
        with pytest.raises(ValueError):
            AnalogStack(ANALOG_PRESETS["soft"])

    def test_fwd_and_bwd_ir_skew_are_transposes(self):
        cfg = AnalogConfig(ir_drop=IRDropConfig(wire_ratio=0.01))
        chip = ChipConfig(crossbar=CrossbarConfig(rows=16, cols=16))
        stack = AnalogStack(cfg, chip_config=chip)
        w = np.ones((8, 12))
        fwd = stack.apply("fc", "fwd", w)
        bwd = stack.apply("fc", "bwd", w.T)
        np.testing.assert_array_equal(fwd, bwd.T)

    def test_version_key_tracks_epochs_and_config(self):
        stack = AnalogStack(ANALOG_PRESETS["soft"], rng=derive_rng(0, "s"))
        k0 = stack.version_key()
        stack.advance_epoch(0)
        k1 = stack.version_key()
        assert k0 != k1 and k0[0] == k1[0]

    def test_scrub_telemetry_and_cycle_accounting(self):
        tel = Telemetry(echo=False)
        stack = AnalogStack(
            AnalogConfig(soft_error=SoftErrorConfig(rate_per_mcell=2e5)),
            rng=derive_rng(0, "s"),
            telemetry=tel,
        )
        stack.apply("fc", "fwd", derive_rng(1, "w").normal(size=(20, 20)))
        stack.advance_epoch(0)
        stack.advance_epoch(1)
        assert stack.scrub_passes == 2 and stack.scrub_cycles > 0
        counters = tel.summary()["counters"]
        assert counters["analog.scrub_passes"] == 2
        assert counters["analog.soft_errors"] > 0
        assert counters["analog.scrub_cells"] > 0
        assert counters["analog.scrub_cycles"] == stack.scrub_cycles
        assert tel.filter("scrub_pass")


# --------------------------------------------------------------------- #
# the variation layer: validation, describe, layer math
# --------------------------------------------------------------------- #
class TestVariationModel:
    @pytest.mark.parametrize("field", ["program_sigma", "read_sigma",
                                       "drift_per_epoch"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_rejects_non_finite(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            VariationModel(**{field: bad})

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            VariationModel(program_sigma=-1)
        with pytest.raises(ValueError):
            VariationModel(drift_per_epoch=1.0)

    def test_describe(self):
        assert "no analog variation" in VariationModel().describe()
        assert "read sigma" in VariationModel(read_sigma=0.01).describe()
        # Consistent for an explicit zero.
        base = VariationModel(program_sigma=0.1, read_sigma=0.05)
        zeroed = replace(base, read_sigma=0.0)
        assert zeroed.describe() == VariationModel(program_sigma=0.1).describe()
        assert "read" not in zeroed.describe()
        all_zero = replace(base, program_sigma=0.0, read_sigma=0.0)
        assert all_zero.describe() == "no analog variation"

    def test_stochastic_vs_active(self):
        drift_only = VariationModel(drift_per_epoch=0.1)
        assert drift_only.active and not drift_only.stochastic
        noisy = VariationModel(read_sigma=0.01)
        assert noisy.active and noisy.stochastic
        assert not VariationModel().active

    def test_program_error_multiplicative(self, rng):
        vm = VariationModel(program_sigma=0.05)
        w = np.ones((8, 8))
        out = vm.apply_program_error(w, rng)
        assert not np.allclose(out, w)
        assert (out > 0).all()  # multiplicative: sign preserved
        assert abs(out.mean() - 1.0) < 0.1

    def test_read_noise_additive(self, rng):
        vm = VariationModel(read_sigma=0.01)
        w = np.zeros((16, 16))
        out = vm.apply_read_noise(w, scale=1.0, rng=rng)
        assert out.std() == pytest.approx(0.01, rel=0.5)

    def test_drift_shrinks_magnitude(self):
        vm = VariationModel(drift_per_epoch=0.1)
        w = np.full(4, 2.0)
        np.testing.assert_allclose(vm.apply_drift(w, epochs=2), 2.0 * 0.81)

    def test_engine_applies_variation(self):
        from repro.core.controller import build_experiment

        cfg = ExperimentConfig(
            train=TrainConfig(
                model="vgg11", epochs=1, batch_size=16, n_train=32,
                n_test=32, width_mult=0.125,
            ),
            chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
            faults=FaultConfig(pre_enabled=False, post_enabled=False),
            policy="none",
            seed=9,
            analog=AnalogConfig(
                variation=VariationModel(program_sigma=0.05, read_sigma=0.01)
            ),
        )
        ctx = build_experiment(cfg)
        key = next(iter(ctx.engine.copies))
        for _, mod in ctx.model.named_modules():
            if getattr(mod, "layer_key", None) == key:
                w2d = mod.weight.data.reshape(mod.matrix_shape)
                out, _ = ctx.engine.step_weights(key, w2d, need_backward=False)
                assert not np.allclose(out, w2d)
                break


# --------------------------------------------------------------------- #
# engine integration
# --------------------------------------------------------------------- #
@pytest.fixture
def small_chip() -> Chip:
    return Chip(ChipConfig(
        mesh_rows=2, mesh_cols=2, tiles_per_router=2, imas_per_tile=2,
        crossbars_per_ima=8, crossbar=CrossbarConfig(rows=16, cols=16),
    ))


@pytest.fixture
def bound(small_chip, rng):
    model = Sequential(
        Conv2d(3, 4, 3, padding=1, rng=rng),
        Flatten(),
        Linear(4 * 8 * 8, 5, rng=rng),
    )
    engine = CrossbarEngine(small_chip).bind(model)
    return model, engine


def _inject_some_faults(chip: Chip, mapping, count: int = 10) -> None:
    pair = chip.pair(int(mapping.pair_ids[0, 0]))
    pair.pos.fault_map.inject(np.arange(count), FaultType.SA1)
    pair.neg.fault_map.inject(np.arange(count, 2 * count), FaultType.SA0)
    chip.bump_fault_version()


def _fwd(engine: CrossbarEngine, layer, w2d: np.ndarray) -> np.ndarray:
    """The forward-copy effective weight, as an inference read sees it."""
    return engine.step_weights(layer.layer_key, w2d, need_backward=False)[0]


def _variation_stack(rng=None, **sigmas) -> AnalogStack:
    """A stack holding only the variation layer."""
    return AnalogStack(
        AnalogConfig(variation=VariationModel(**sigmas)), noise_rng=rng
    )


class TestEngineDriftPath:
    """Regression for the dead ``apply_drift`` path (bugfix satellite)."""

    def test_drift_scales_effective_weights(self, bound):
        model, engine = bound
        conv = model.items[0]
        w2d = conv.weight.data.reshape(conv.matrix_shape)
        stack = _variation_stack(drift_per_epoch=0.1)
        engine.set_analog(stack)
        fresh = _fwd(engine, conv, w2d).copy()
        stack.advance_epoch(0)
        stack.advance_epoch(1)
        drifted = _fwd(engine, conv, w2d).copy()
        np.testing.assert_allclose(drifted, fresh * 0.9**2, rtol=1e-6)

    def test_drift_only_model_stays_cached(self, bound):
        model, engine = bound
        conv = model.items[0]
        w2d = conv.weight.data.reshape(conv.matrix_shape)
        stack = _variation_stack(drift_per_epoch=0.1)
        engine.set_analog(stack)
        engine.reset_cache_stats()
        _fwd(engine, conv, w2d)
        _fwd(engine, conv, w2d)
        assert engine.cache_misses == 1 and engine.cache_hits == 1
        # ... but an epoch boundary is a *different* key, never stale.
        stack.advance_epoch(0)
        _fwd(engine, conv, w2d)
        assert engine.cache_misses == 2

    def test_epoch_without_drift_keeps_version_key(self):
        stack = AnalogStack(ANALOG_PRESETS["quant"])
        key = stack.version_key()
        stack.advance_epoch(0)
        assert stack.drift_age == 0  # keys (and goldens) unchanged
        assert stack.version_key() == key

    def test_drift_changes_end_to_end_results(self):
        from repro.core.controller import run_experiment

        def config(drift):
            return ExperimentConfig(
                train=TrainConfig(
                    model="vgg11", epochs=2, batch_size=16, n_train=48,
                    n_test=32, width_mult=0.125,
                ),
                chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
                faults=FaultConfig(post_enabled=False),
                policy="none",
                analog=(
                    AnalogConfig(variation=VariationModel(drift_per_epoch=drift))
                    if drift else None
                ),
                seed=7,
            )

        baseline = run_experiment(config(0.0))
        drifted = run_experiment(config(0.25))
        base_losses = [h["loss"] for h in baseline.train_result.history]
        drift_losses = [h["loss"] for h in drifted.train_result.history]
        # Epoch 0 trains identically (no boundary crossed yet); from the
        # first epoch boundary on, the drifted conductances change every
        # read — the knob is no longer a silent no-op.
        assert base_losses[0] == drift_losses[0]
        assert base_losses[1] != drift_losses[1]


class TestCacheBypassAudit:
    """Satellite: no stale effective weights under variation/analog."""

    def test_read_noise_draws_fresh_per_mvm(self, bound, small_chip):
        model, engine = bound
        conv = model.items[0]
        for m in engine.copies[conv.layer_key]:
            _inject_some_faults(small_chip, m)
        engine.set_analog(
            _variation_stack(derive_rng(3, "variation"), read_sigma=0.05)
        )
        w2d = conv.weight.data.reshape(conv.matrix_shape)
        a = _fwd(engine, conv, w2d).copy()
        b = _fwd(engine, conv, w2d).copy()
        assert not np.array_equal(a, b)
        # Nothing was cached while stochastic — no entry to go stale.
        assert not engine._eff_cache
        assert engine.cache_hits == 0

    def test_same_rng_stream_replays_reproducibly(self, bound):
        model, engine = bound
        conv = model.items[0]
        w2d = conv.weight.data.reshape(conv.matrix_shape)
        runs = []
        for _ in range(2):
            engine.set_analog(_variation_stack(
                derive_rng(11, "variation"), program_sigma=0.1, read_sigma=0.05
            ))
            runs.append([
                _fwd(engine, conv, w2d).copy()
                for _ in range(3)
            ])
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a, b)

    def test_step_weights_bypasses_under_read_noise(self, bound):
        model, engine = bound
        conv = model.items[0]
        engine.set_analog(
            _variation_stack(derive_rng(5, "variation"), read_sigma=0.05)
        )
        w2d = conv.weight.data.reshape(conv.matrix_shape)
        a_f, a_b = engine.step_weights(conv.layer_key, w2d)
        b_f, b_b = engine.step_weights(conv.layer_key, w2d)
        assert not np.array_equal(a_f, b_f)
        assert not np.array_equal(a_b, b_b)
        assert not engine._eff_cache

    def test_set_analog_invalidates_cached_entries(self, bound):
        model, engine = bound
        conv = model.items[0]
        w2d = conv.weight.data.reshape(conv.matrix_shape)
        engine.set_analog(_variation_stack(drift_per_epoch=0.2))
        _fwd(engine, conv, w2d)
        engine.reset_cache_stats()
        # A second stack of the same config has the same version key, so
        # only the invalidation on attach can force the miss.
        engine.set_analog(_variation_stack(drift_per_epoch=0.2))
        _fwd(engine, conv, w2d)
        assert engine.cache_misses == 1 and engine.cache_hits == 0

    def test_analog_epoch_version_never_serves_stale_flips(self, bound):
        model, engine = bound
        conv = model.items[0]
        stack = AnalogStack(
            AnalogConfig(soft_error=SoftErrorConfig(rate_per_mcell=2e5)),
            rng=derive_rng(0, "soft-error"),
        )
        engine.set_analog(stack)
        w2d = conv.weight.data.reshape(conv.matrix_shape)
        clean = _fwd(engine, conv, w2d).copy()
        engine.reset_cache_stats()
        _fwd(engine, conv, w2d)
        assert engine.cache_hits == 1  # deterministic layer: cache stays on
        stack.advance_epoch(0)
        flipped = _fwd(engine, conv, w2d).copy()
        assert engine.cache_misses == 1
        assert not np.array_equal(clean, flipped)
        site = stack.soft.flips(conv.layer_key, "fwd")
        assert site is not None and site[0].size > 0


class TestEngineAnalogIntegration:
    def test_fault_free_passthrough_not_mutated(self, bound):
        model, engine = bound
        conv = model.items[0]
        engine.set_analog(AnalogStack(ANALOG_PRESETS["quant"]))
        w2d = conv.weight.data.reshape(conv.matrix_shape)
        before = w2d.copy()
        out = _fwd(engine, conv, w2d)
        assert out is not w2d
        np.testing.assert_array_equal(w2d, before)
        assert not np.array_equal(out, w2d)  # quantization did act

    def test_applies_on_top_of_stuck_at_clamp(self, bound, small_chip):
        model, engine = bound
        conv = model.items[0]
        for m in engine.copies[conv.layer_key]:
            _inject_some_faults(small_chip, m)
        w2d = conv.weight.data.reshape(conv.matrix_shape)
        clamped = _fwd(engine, conv, w2d).copy()
        engine.set_analog(AnalogStack(ANALOG_PRESETS["quant"]))
        quantized = _fwd(engine, conv, w2d)
        assert not np.array_equal(clamped, quantized)
        # The analog transform is applied to the *clamped* weights.
        assert np.abs(quantized - clamped).max() < np.abs(quantized - w2d).max()


def _analog_experiment(preset: str, **kw) -> ExperimentConfig:
    return ExperimentConfig(
        train=TrainConfig(
            model="vgg11", epochs=2, batch_size=16, n_train=48, n_test=32,
            width_mult=0.125,
        ),
        chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
        faults=FaultConfig(),
        policy="none",
        analog=make_analog_config(preset),
        seed=7,
        **kw,
    )


class TestEndToEndAnalog:
    def test_full_preset_trains_and_emits_telemetry(self):
        from repro.core.controller import run_experiment

        tel = Telemetry(echo=False)
        result = run_experiment(_analog_experiment("full"), telemetry=tel)
        assert np.isfinite(result.final_accuracy)
        counters = tel.summary()["counters"]
        assert counters["analog.applies"] > 0
        assert counters["analog.scrub_passes"] == 2
        assert "analog.adc_clip_fraction" in tel.summary()["histograms"]
        # The deterministic stack keeps the cache: eval batches hit it.
        assert counters["engine.cache_hits"] > 0

    def test_off_preset_bit_identical_to_no_analog(self):
        from repro.core.controller import run_experiment

        off = run_experiment(_analog_experiment("off"))
        none = run_experiment(
            ExperimentConfig(
                train=TrainConfig(
                    model="vgg11", epochs=2, batch_size=16, n_train=48,
                    n_test=32, width_mult=0.125,
                ),
                chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
                faults=FaultConfig(),
                policy="none",
                seed=7,
            )
        )
        assert (
            off.train_result.accuracy_curve() == none.train_result.accuracy_curve()
        )
        assert [h["loss"] for h in off.train_result.history] == [
            h["loss"] for h in none.train_result.history
        ]

    def test_scrub_is_priced_on_the_built_chip(self):
        """The stack holds the built member's geometry, not the unsized
        base chip's (vgg11 here builds 10 crossbars per IMA on one chip
        and 6 on each of two, against the base chip's 8)."""
        from repro.core.controller import build_experiment

        for chips in (1, 2):
            config = _analog_experiment("full", chips=chips)
            ctx = build_experiment(config)
            members = [member.config for member in ctx.chip.chips]
            slowest = max(members, key=lambda c: c.crossbars_per_ima)
            assert ctx.engine.analog._chip_config == slowest, chips
            assert slowest.crossbars_per_ima != config.chip.crossbars_per_ima, chips

    def test_analog_under_fleet_sharding(self):
        from repro.core.controller import run_experiment

        result = run_experiment(
            _analog_experiment("quant", chips=2, chip_slack=2.0)
        )
        assert np.isfinite(result.final_accuracy)


class TestVariationGolden:
    """The whole folded stack (drift, the ``full`` preset's layers,
    programming error, read noise) must stay bit-identical to the run
    recorded before the variation layer joined the stack."""

    @pytest.fixture(scope="class")
    def run(self):
        from repro.core.controller import run_experiment

        golden = json.loads(GOLDEN.read_text())
        gc = golden["config"]
        config = ExperimentConfig(
            train=TrainConfig(
                model=gc["model"], epochs=gc["epochs"],
                batch_size=gc["batch_size"], n_train=gc["n_train"],
                n_test=gc["n_test"], width_mult=gc["width_mult"],
                dtype=gc["dtype"],
            ),
            chip=ChipConfig(
                crossbar=CrossbarConfig(rows=gc["crossbar"],
                                        cols=gc["crossbar"])
            ),
            policy=gc["policy"],
            remap_threshold=gc["remap_threshold"],
            chips=1,
            seed=gc["seed"],
            analog=replace(
                ANALOG_PRESETS[gc["analog"]],
                variation=VariationModel(**gc["variation"]),
            ),
        )
        return golden, run_experiment(config)

    def test_history_bit_identical(self, run):
        golden, result = run
        for expected, got in zip(golden["history"],
                                 result.train_result.history, strict=True):
            assert repr(got["loss"]) == expected["loss"]
            assert repr(got["test_acc"]) == expected["test_acc"]

    def test_summary_bit_identical(self, run):
        golden, result = run
        assert repr(result.final_accuracy) == golden["final_accuracy"]
        assert result.num_remaps == golden["num_remaps"]
        assert repr(result.mean_chip_density) == golden["mean_chip_density"]
        assert repr(result.max_pair_density) == golden["max_pair_density"]


class TestCliAnalogPreset:
    def test_parser_threads_preset_into_config(self):
        from repro.cli import build_parser, _build_config

        args = build_parser().parse_args(
            ["run", "--model", "vgg11", "--analog", "full"]
        )
        config = _build_config(args, args.model, "remap-d", args.seed)
        assert config.analog == ANALOG_PRESETS["full"]
        args = build_parser().parse_args(["run", "--model", "vgg11"])
        config = _build_config(args, args.model, "remap-d", args.seed)
        assert config.analog is None
