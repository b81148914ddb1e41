"""Equivalence of the sparse fast-path ``effective_matrix`` vs the oracle.

The fast path (cached flat stuck-cell indices + clip against expanded
scale overlays + sparse fixups) must agree with the dense oracle in
``tests/mapping_oracle.py`` bit for bit in float64 — across fault
densities, remaps, scale recalibrations and both scale sets.
"""

import numpy as np
import pytest

from repro.faults.types import FaultType
from repro.reram.chip import Chip
from tests.mapping_oracle import reference_effective_matrix


@pytest.fixture
def chip(chip_config) -> Chip:
    return Chip(chip_config)


def _inject_random(chip: Chip, mapping, rng, density: float) -> None:
    """Stick ``density`` of each assigned crossbar's cells, half SA0/SA1."""
    for _, _, pair_id in mapping.iter_blocks():
        pair = chip.pair(int(pair_id))
        for fmap in (pair.pos.fault_map, pair.neg.fault_map):
            count = int(round(density * fmap.cells))
            if count == 0:
                continue
            cells = rng.choice(fmap.cells, size=count, replace=False)
            is_sa0 = rng.random(count) < 0.5
            fmap.inject(cells[is_sa0], FaultType.SA0)
            fmap.inject(cells[~is_sa0], FaultType.SA1)
    chip.bump_fault_version()


def _both(mapping, w, chip, which="weight"):
    fast = mapping.effective_matrix(w, chip.pair, chip.fault_version, which=which)
    ref = reference_effective_matrix(mapping, w, chip.pair, which=which)
    return fast, ref


class TestBitForBitEquivalence:
    @pytest.mark.parametrize("density", [0.0, 0.005, 0.02, 0.10])
    @pytest.mark.parametrize("shape", [(16, 16), (20, 28)])
    def test_fast_matches_reference_f64(self, chip, rng, density, shape):
        # (20, 28) exercises the padded fringe: faults landing on padding
        # rows/cols must be dropped by the index builder, not wrapped.
        mapping = chip.allocate_layer_copy("l", "forward", shape)
        _inject_random(chip, mapping, rng, density)
        w = rng.normal(0, 0.1, shape)
        fast, ref = _both(mapping, w, chip)
        assert fast.dtype == np.float64
        np.testing.assert_array_equal(fast, ref)

    def test_grad_scale_set(self, chip, rng):
        mapping = chip.allocate_layer_copy("l", "backward", (16, 16))
        _inject_random(chip, mapping, rng, 0.05)
        g = rng.normal(0, 1e-3, (16, 16))
        fast, ref = _both(mapping, g, chip, which="grad")
        np.testing.assert_array_equal(fast, ref)
        assert np.isnan(mapping.scales).all()  # weight path untouched

    def test_after_remap(self, chip, rng):
        mapping = chip.allocate_layer_copy("l", "forward", (20, 28))
        _inject_random(chip, mapping, rng, 0.03)
        w = rng.normal(0, 0.1, (20, 28))
        _both(mapping, w, chip)  # calibrate the original assignment
        idle = chip.idle_pair_ids()
        assert idle, "test chip must have spare pairs"
        mapping.set_pair(0, 0, int(idle[0]))
        chip.bump_fault_version()
        fast, ref = _both(mapping, w * 3, chip)
        np.testing.assert_array_equal(fast, ref)

    def test_across_recalibration_and_new_faults(self, chip, rng):
        mapping = chip.allocate_layer_copy("l", "forward", (16, 16))
        w = rng.normal(0, 0.1, (16, 16))
        fast, ref = _both(mapping, w, chip)
        np.testing.assert_array_equal(fast, ref)
        # New faults appear mid-training: the cached index must refresh
        # while the frozen (stale) scales keep applying.
        _inject_random(chip, mapping, rng, 0.05)
        fast, ref = _both(mapping, w * 10, chip)
        np.testing.assert_array_equal(fast, ref)

    def test_float32_input(self, chip, rng):
        mapping = chip.allocate_layer_copy("l", "forward", (16, 16))
        _inject_random(chip, mapping, rng, 0.05)
        w = rng.normal(0, 0.1, (16, 16)).astype(np.float32)
        fast, ref = _both(mapping, w, chip)
        assert fast.dtype == np.float32
        np.testing.assert_allclose(fast, ref, rtol=1e-6, atol=1e-7)


class TestFastPathMechanics:
    def test_fault_free_returns_input_unchanged(self, chip, rng):
        mapping = chip.allocate_layer_copy("l", "forward", (16, 16))
        w = rng.normal(0, 0.1, (16, 16))
        out = mapping.effective_matrix(w, chip.pair, chip.fault_version)
        np.testing.assert_array_equal(out, w)

    def test_output_buffer_reused_per_scale_set(self, chip, rng):
        mapping = chip.allocate_layer_copy("l", "forward", (16, 16))
        _inject_random(chip, mapping, rng, 0.02)
        w = rng.normal(0, 0.1, (16, 16))
        out1 = mapping.effective_matrix(w, chip.pair, chip.fault_version)
        out2 = mapping.effective_matrix(w * 2, chip.pair, chip.fault_version)
        assert out1 is out2  # same preallocated buffer
        g = rng.normal(0, 1e-3, (16, 16))
        out3 = mapping.effective_matrix(
            g, chip.pair, chip.fault_version, which="grad"
        )
        assert out3 is not out2  # grad path owns a separate buffer

    def test_index_cache_hit_and_invalidation(self, chip, rng):
        mapping = chip.allocate_layer_copy("l", "forward", (16, 16))
        _inject_random(chip, mapping, rng, 0.02)
        w = rng.normal(0, 0.1, (16, 16))
        mapping.effective_matrix(w, chip.pair, chip.fault_version)
        idx1 = mapping._fault_index(chip.pair, chip.fault_version)
        idx2 = mapping._fault_index(chip.pair, chip.fault_version)
        assert idx1 is idx2  # cached while fault_version is unchanged
        pair = chip.pair(int(mapping.pair_ids[0, 0]))
        pair.pos.fault_map.inject(np.array([3]), FaultType.SA1)
        chip.bump_fault_version()
        idx3 = mapping._fault_index(chip.pair, chip.fault_version)
        assert idx3 is not idx1
