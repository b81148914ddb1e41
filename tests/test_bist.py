"""BIST tests: analog model, FSM cycle accounting, density estimation."""

import numpy as np
import pytest

from repro.bist.analog import (
    column_currents_sa0_test,
    column_currents_sa1_test,
    nominal_sa0_conductance,
    nominal_sa1_conductance,
)
from repro.bist.density import BistResult, pair_density_estimates, run_bist, scan_chip
from repro.bist.fsm import BistController, BistState
from repro.bist.timing import BistTiming
from repro.faults.types import FaultMap, FaultType
from repro.reram.chip import Chip
from repro.reram.crossbar import Crossbar
from repro.utils.config import CrossbarConfig


class TestAnalogModel:
    def test_sa1_current_monotone_in_fault_count(self, rng, xbar_config):
        """Fig. 4(b): more SA1 faults in a column -> more test current."""
        currents = []
        for k in range(0, 8):
            fm = FaultMap(16, 16)
            if k:
                fm.inject_cells(np.arange(k), np.zeros(k, dtype=int), FaultType.SA1)
            i = column_currents_sa1_test(fm, xbar_config, rng, noise_fraction=0.0)
            currents.append(i[0])
        assert all(b > a for a, b in zip(currents, currents[1:]))

    def test_sa0_current_monotone_decreasing(self, rng, xbar_config):
        """Fig. 4(a): more SA0 faults -> less current in the all-on test."""
        currents = []
        for k in range(0, 8):
            fm = FaultMap(16, 16)
            if k:
                fm.inject_cells(np.arange(k), np.zeros(k, dtype=int), FaultType.SA0)
            i = column_currents_sa0_test(fm, xbar_config, rng, noise_fraction=0.0)
            currents.append(i[0])
        assert all(b < a for a, b in zip(currents, currents[1:]))

    def test_monotone_despite_resistance_variation(self, rng, xbar_config):
        """The count-current relation survives the full stuck-R spread."""
        means = []
        for k in (0, 3, 6, 9):
            fm = FaultMap(16, 16)
            if k:
                fm.inject_cells(np.arange(k), np.zeros(k, dtype=int), FaultType.SA1)
            samples = [
                column_currents_sa1_test(fm, xbar_config, rng, 0.0)[0]
                for _ in range(20)
            ]
            means.append((min(samples), max(samples)))
        # Bands for successive counts must not overlap.
        for (lo_a, hi_a), (lo_b, hi_b) in zip(means, means[1:]):
            assert hi_a < lo_b

    def test_nominal_conductances_ordering(self, xbar_config):
        assert nominal_sa1_conductance(xbar_config) > xbar_config.g_on
        assert nominal_sa0_conductance(xbar_config) < xbar_config.g_off * 10


class TestDensityEstimation:
    def test_estimates_close_to_truth(self, rng, xbar_config):
        fm = FaultMap(16, 16)
        fm.inject(np.arange(0, 20), FaultType.SA0)
        fm.inject(np.arange(30, 35), FaultType.SA1)
        res = run_bist(fm, xbar_config, rng)
        assert isinstance(res, BistResult)
        assert res.sa1_count == pytest.approx(5, abs=2)
        assert res.sa0_count == pytest.approx(20, abs=4)
        assert res.density == pytest.approx(fm.density, abs=6 / 256)

    def test_clean_crossbar_reads_near_zero(self, rng, xbar_config):
        res = run_bist(FaultMap(16, 16), xbar_config, rng)
        assert res.total_count <= 2

    def test_scan_chip_and_pair_folding(self, rng, chip_config):
        chip = Chip(chip_config)
        chip.crossbars[0].fault_map.inject(np.arange(30), FaultType.SA0)
        densities = scan_chip(chip, rng)
        assert densities.shape == (chip.num_crossbars,)
        assert densities[0] > densities[1:].max()
        pair_est = pair_density_estimates(chip, densities)
        assert pair_est.shape == (chip.num_pairs,)
        assert pair_est[0] == pytest.approx(
            0.5 * (densities[0] + densities[1])
        )


class TestFsm:
    def test_full_pass_takes_2_rows_plus_4_cycles(self, rng, xbar_config):
        xb = Crossbar(0, xbar_config)
        ctl = BistController(xb, rng)
        cycles = ctl.run()
        assert cycles == 2 * (xbar_config.rows + 2)
        assert ctl.finish_flag
        assert ctl.state is BistState.S0_IDLE

    def test_128_crossbar_takes_260_cycles(self, rng):
        cfg = CrossbarConfig()  # 128x128 as in the paper
        ctl = BistController(Crossbar(0, cfg), rng)
        assert ctl.run() == 260

    def test_measurements_produced(self, rng, xbar_config):
        xb = Crossbar(0, xbar_config)
        xb.fault_map.inject(np.arange(5), FaultType.SA1)
        ctl = BistController(xb, rng)
        ctl.run()
        assert ctl.sa1_currents is not None
        assert ctl.sa0_currents is not None

    def test_cannot_start_twice(self, rng, xbar_config):
        ctl = BistController(Crossbar(0, xbar_config), rng)
        ctl.start()
        with pytest.raises(RuntimeError):
            ctl.start()

    def test_bist_consumes_two_writes(self, rng, xbar_config):
        xb = Crossbar(0, xbar_config)
        BistController(xb, rng).run()
        assert xb.write_count == 2  # all-"0" then all-"1"


class TestTiming:
    def test_paper_numbers(self):
        timing = BistTiming(CrossbarConfig())
        assert timing.total_cycles == 260
        assert timing.pass_time_ns == pytest.approx(26_000)
        assert timing.extra_writes_per_pass == 2

    def test_overhead_fraction(self):
        timing = BistTiming(CrossbarConfig())
        # 260 cycles against a 200k-cycle epoch -> 0.13%
        assert timing.overhead_fraction(200_000) == pytest.approx(0.0013)

    def test_overhead_requires_positive_epoch(self):
        with pytest.raises(ValueError):
            BistTiming(CrossbarConfig()).overhead_fraction(0)

    def test_calc_fits_in_one_reram_cycle(self):
        timing = BistTiming(CrossbarConfig())
        assert timing.cmos_cycles_per_calc() >= 100
