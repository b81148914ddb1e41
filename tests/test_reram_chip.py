"""Chip construction, allocation, remapping and wear tests."""

import numpy as np
import pytest

from repro.reram.chip import Chip


@pytest.fixture
def chip(chip_config) -> Chip:
    return Chip(chip_config)


class TestConstruction:
    def test_counts(self, chip, chip_config):
        assert chip.num_crossbars == chip_config.num_crossbars
        assert chip.num_pairs == chip_config.num_pairs
        assert len(chip.tiles) == chip_config.num_tiles

    def test_crossbar_ids_unique_and_dense(self, chip):
        ids = [xb.xbar_id for xb in chip.crossbars]
        assert ids == list(range(chip.num_crossbars))

    def test_pairs_use_disjoint_crossbars(self, chip):
        used: set[int] = set()
        for pair in chip.pairs:
            pos, neg = pair.crossbar_ids()
            assert pos not in used and neg not in used
            used.update((pos, neg))

    def test_tile_router_assignment(self, chip, chip_config):
        for tile in chip.tiles:
            assert tile.router_id == tile.tile_id // chip_config.tiles_per_router


class TestHops:
    def test_same_router_zero_hops(self, chip):
        assert chip.hop_count(0, 1) == 0  # tiles 0,1 share router 0

    def test_cross_mesh_distance(self, chip, chip_config):
        last_tile = chip_config.num_tiles - 1
        # router grid is 2x2; corner-to-corner = 2 hops
        assert chip.hop_count(0, last_tile) == 2


class TestAllocation:
    def test_allocation_round_robins_tiles(self, chip):
        ids = chip.allocate_pairs(4)
        tiles = [chip.tile_of_pair(p) for p in ids]
        assert len(set(tiles)) == 4  # spread across different tiles

    def test_exhaustion_raises(self, chip):
        with pytest.raises(RuntimeError):
            chip.allocate_pairs(chip.num_pairs + 1)

    def test_layer_copy_allocation(self, chip, chip_config):
        rows = chip_config.crossbar.rows
        mapping = chip.allocate_layer_copy("conv", "forward", (rows + 1, 5))
        assert mapping.grid_shape == (2, 1)
        assert mapping in chip.mappings

    def test_idle_pairs_shrink_with_allocation(self, chip):
        before = len(chip.idle_pair_ids())
        chip.allocate_layer_copy("l", "forward", (8, 8))
        assert len(chip.idle_pair_ids()) == before - 1


class TestRemapPrimitives:
    def test_swap_exchanges_pairs(self, chip):
        a = chip.allocate_layer_copy("a", "backward", (8, 8))
        b = chip.allocate_layer_copy("b", "forward", (8, 8))
        pa, pb = int(a.pair_ids[0, 0]), int(b.pair_ids[0, 0])
        chip.swap_tasks(a, (0, 0), b, (0, 0))
        assert int(a.pair_ids[0, 0]) == pb
        assert int(b.pair_ids[0, 0]) == pa

    def test_swap_records_wear_and_bumps_version(self, chip):
        a = chip.allocate_layer_copy("a", "backward", (8, 8))
        b = chip.allocate_layer_copy("b", "forward", (8, 8))
        v0 = chip.fault_version
        chip.swap_tasks(a, (0, 0), b, (0, 0))
        assert chip.fault_version == v0 + 1
        assert chip.wear.writes.sum() == 4  # both pairs rewritten

    def test_move_task_frees_old_pair(self, chip):
        a = chip.allocate_layer_copy("a", "backward", (8, 8))
        old = int(a.pair_ids[0, 0])
        target = chip.idle_pair_ids()[0]
        chip.move_task(a, (0, 0), target)
        assert int(a.pair_ids[0, 0]) == target
        assert old in chip.idle_pair_ids()

    def test_true_density_views(self, chip):
        assert chip.true_pair_densities().shape == (chip.num_pairs,)
        assert chip.true_crossbar_densities().sum() == 0
