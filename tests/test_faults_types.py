"""FaultMap unit tests."""

import numpy as np
import pytest

from repro.faults.types import FaultMap, FaultType


class TestInjection:
    def test_inject_marks_cells(self):
        fm = FaultMap(8, 8)
        n = fm.inject(np.array([0, 9, 18]), FaultType.SA0)
        assert n == 3
        assert fm.count(FaultType.SA0) == 3
        assert fm.density == pytest.approx(3 / 64)

    def test_first_fault_wins(self):
        fm = FaultMap(4, 4)
        fm.inject(np.array([5]), FaultType.SA0)
        injected = fm.inject(np.array([5]), FaultType.SA1)
        assert injected == 0
        assert fm.codes.ravel()[5] == FaultType.SA0

    def test_inject_cells_by_coordinates(self):
        fm = FaultMap(4, 6)
        fm.inject_cells(np.array([1, 2]), np.array([3, 5]), FaultType.SA1)
        assert fm.codes[1, 3] == FaultType.SA1
        assert fm.codes[2, 5] == FaultType.SA1

    def test_out_of_range_rejected(self):
        fm = FaultMap(4, 4)
        with pytest.raises(IndexError):
            fm.inject(np.array([16]), FaultType.SA0)

    def test_cannot_inject_none(self):
        fm = FaultMap(4, 4)
        with pytest.raises(ValueError):
            fm.inject(np.array([0]), FaultType.NONE)

    def test_empty_injection_is_noop(self):
        fm = FaultMap(4, 4)
        assert fm.inject(np.array([], dtype=np.int64), FaultType.SA0) == 0

    def test_repeated_indices_count_once(self):
        fm = FaultMap(4, 4)
        assert fm.inject(np.array([5, 5]), FaultType.SA0) == 1
        assert fm.count() == 1
        assert fm.inject_cells(
            np.array([2, 2, 3]), np.array([1, 1, 0]), FaultType.SA1
        ) == 2
        assert fm.count() == 3


class TestQueries:
    def test_column_counts(self):
        fm = FaultMap(4, 4)
        fm.inject_cells(np.array([0, 1, 2]), np.array([1, 1, 3]), FaultType.SA1)
        counts = fm.column_counts(FaultType.SA1)
        np.testing.assert_array_equal(counts, [0, 2, 0, 1])

    def test_masks_partition(self):
        fm = FaultMap(6, 6)
        fm.inject(np.arange(4), FaultType.SA0)
        fm.inject(np.arange(10, 13), FaultType.SA1)
        assert not (fm.sa0_mask & fm.sa1_mask).any()
        assert (fm.sa0_mask | fm.sa1_mask).sum() == fm.count()

    def test_free_cells_complement(self):
        fm = FaultMap(4, 4)
        fm.inject(np.array([3, 7]), FaultType.SA0)
        free = fm.free_cells()
        assert len(free) == 14
        assert 3 not in free and 7 not in free


class TestManipulation:
    def test_copy_is_independent(self):
        fm = FaultMap(4, 4)
        clone = fm.copy()
        fm.inject(np.array([0]), FaultType.SA0)
        assert clone.count() == 0

    def test_clear(self):
        fm = FaultMap(4, 4)
        fm.inject(np.array([0, 1]), FaultType.SA1)
        fm.clear()
        assert fm.count() == 0

    def test_merge_unions_faults(self):
        a = FaultMap(4, 4)
        b = FaultMap(4, 4)
        a.inject(np.array([0]), FaultType.SA0)
        b.inject(np.array([0]), FaultType.SA1)  # conflict: a wins
        b.inject(np.array([5]), FaultType.SA1)
        a.merge(b)
        assert a.codes.ravel()[0] == FaultType.SA0
        assert a.codes.ravel()[5] == FaultType.SA1

    def test_merge_shape_mismatch(self):
        with pytest.raises(ValueError):
            FaultMap(4, 4).merge(FaultMap(4, 5))

    def test_equality(self):
        a, b = FaultMap(4, 4), FaultMap(4, 4)
        assert a == b
        a.inject(np.array([1]), FaultType.SA0)
        assert a != b
