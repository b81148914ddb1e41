"""Spatial fault-distribution tests."""

import numpy as np
import pytest

from repro.faults.distribution import (
    clustered_cells,
    draw_pre_deployment_densities,
    uniform_cells,
)


class TestUniformCells:
    def test_distinct_indices(self, rng):
        cells = uniform_cells(rng, 16, 16, 50)
        assert len(np.unique(cells)) == 50

    def test_respects_forbidden(self, rng):
        forbidden = np.arange(200)
        cells = uniform_cells(rng, 16, 16, 56, forbidden=forbidden)
        assert not np.intersect1d(cells, forbidden).size
        assert len(cells) == 56

    def test_exhausted_pool_returns_remainder(self, rng):
        forbidden = np.arange(250)
        cells = uniform_cells(rng, 16, 16, 100, forbidden=forbidden)
        assert len(cells) == 6  # only 6 cells left

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError):
            uniform_cells(rng, 4, 4, -1)


class TestClusteredCells:
    def test_count_and_uniqueness(self, rng):
        cells = clustered_cells(rng, 32, 32, 60)
        assert len(cells) == 60
        assert len(np.unique(cells)) == 60
        assert clustered_cells(rng, 8, 8, 0).size == 0

    def test_cluster_concentration(self, rng):
        """Two-thirds of cells should land in a small window: the spatial
        spread of the clustered fraction must be far below uniform."""
        n = 90
        cells = clustered_cells(rng, 64, 64, n, cluster_fraction=2 / 3)
        rows, cols = np.divmod(cells, 64)
        # Uniform placement has std ~ 64/sqrt(12) ~ 18.5 per axis; with a
        # cluster the median absolute deviation collapses.
        med_r, med_c = np.median(rows), np.median(cols)
        mad = np.median(np.abs(rows - med_r) + np.abs(cols - med_c))
        assert mad < 15

    def test_zero_cluster_fraction_is_uniform(self, rng):
        cells = clustered_cells(rng, 16, 16, 30, cluster_fraction=0.0)
        assert len(cells) == 30

    def test_respects_forbidden(self, rng):
        forbidden = np.arange(100)
        cells = clustered_cells(rng, 16, 16, 50, forbidden=forbidden)
        assert not np.intersect1d(cells, forbidden).size

    def test_invalid_fraction(self, rng):
        with pytest.raises(ValueError):
            clustered_cells(rng, 8, 8, 4, cluster_fraction=1.5)


class TestPreDeploymentDensities:
    def test_shape_and_ranges(self, rng):
        d = draw_pre_deployment_densities(rng, 1000)
        assert d.shape == (1000,)
        assert d.min() >= 0.0 and d.max() <= 0.010 + 1e-12

    def test_high_fraction_share(self, rng):
        d = draw_pre_deployment_densities(rng, 2000, high_fraction=0.2)
        high = (d >= 0.004).sum()
        # exactly 20% are drawn from the high range (a handful of low-range
        # draws can also exceed 0.004 only if ranges overlapped; they don't).
        assert high == pytest.approx(400, abs=1)

    def test_rejects_empty_chip(self, rng):
        with pytest.raises(ValueError):
            draw_pre_deployment_densities(rng, 0)
