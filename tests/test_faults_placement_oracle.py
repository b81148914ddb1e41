"""Fault placement against the per-crossbar oracle, draw for draw.

``place_faults``, ``clustered_cells`` and ``uniform_cells`` take the free
cells from a boolean mask over a crossbar's codes and index
``rng.choice(n, ...)`` draws with them.  The ``oracle_*`` bodies below are
the ``meshgrid``/``setdiff1d``/``concatenate`` versions they replaced.
Every injection path (pre-deployment, wear-weighted post-epoch, endurance,
Fig. 5 phase faults and the chaos wave) must leave the same codes, the
same ``FaultInjector.history`` and the same generator states with either
placement.  A change that reorders the draws (the two corner draws, the
window pick, the spread pick, the SA0/SA1 split), draws over another
population or writes a cell with the wrong type fails here.

One test runs every case in turn and names the one that fails.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.controller as controller
import repro.faults.injector as injector_module
from repro.core.controller import (
    build_experiment,
    inject_fault_wave,
    inject_phase_faults,
)
from repro.faults.distribution import clustered_cells, uniform_cells
from repro.faults.endurance import EnduranceModel, WearTracker
from repro.faults.injector import FaultInjector, place_faults
from repro.faults.types import FaultMap, FaultType
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)


# --------------------------------------------------------------------- #
# the oracle: the placement bodies the mask-based ones replaced
# --------------------------------------------------------------------- #
def oracle_uniform_cells(rng, rows, cols, count, forbidden=None):
    total = rows * cols
    if count < 0:
        raise ValueError("count must be non-negative")
    if forbidden is None or len(forbidden) == 0:
        picked = rng.choice(total, size=min(count, total), replace=False)
        return np.asarray(picked, dtype=np.int64)
    allowed = np.ones(total, dtype=bool)
    allowed[np.asarray(forbidden, dtype=np.int64)] = False
    pool = np.flatnonzero(allowed)
    take = min(count, pool.size)
    return np.asarray(rng.choice(pool, size=take, replace=False), dtype=np.int64)


def oracle_clustered_cells(rng, rows, cols, count, cluster_fraction=2.0 / 3.0,
                           forbidden=None):
    if not (0.0 <= cluster_fraction <= 1.0):
        raise ValueError("cluster_fraction must lie in [0, 1]")
    count = min(count, rows * cols)
    if count <= 0:
        return np.empty(0, dtype=np.int64)

    n_cluster = int(round(count * cluster_fraction))
    n_cluster = min(n_cluster, count)

    chosen: list[np.ndarray] = []
    taken = (
        np.asarray(forbidden, dtype=np.int64)
        if forbidden is not None
        else np.empty(0, dtype=np.int64)
    )

    if n_cluster > 0:
        side = max(1, math.ceil(math.sqrt(n_cluster * 1.5)))
        side = min(side, rows, cols)
        r0 = int(rng.integers(0, rows - side + 1))
        c0 = int(rng.integers(0, cols - side + 1))
        rr, cc = np.meshgrid(
            np.arange(r0, r0 + side), np.arange(c0, c0 + side), indexing="ij"
        )
        window = (rr * cols + cc).ravel()
        window = np.setdiff1d(window, taken, assume_unique=False)
        take = min(n_cluster, window.size)
        if take > 0:
            picked = rng.choice(window, size=take, replace=False)
            chosen.append(np.asarray(picked, dtype=np.int64))
            taken = np.concatenate([taken, picked])

    placed = sum(a.size for a in chosen)
    remainder = count - placed
    if remainder > 0:
        spread = oracle_uniform_cells(rng, rows, cols, remainder, forbidden=taken)
        chosen.append(spread)

    if not chosen:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chosen)


def oracle_place_faults(rng, fmap, count, config, post):
    if count <= 0:
        return 0
    forbidden = np.flatnonzero(fmap.faulty_mask.ravel())
    if config.clustered:
        cells = oracle_clustered_cells(
            rng, fmap.rows, fmap.cols, count,
            cluster_fraction=config.cluster_fraction, forbidden=forbidden,
        )
    else:
        cells = oracle_uniform_cells(rng, fmap.rows, fmap.cols, count,
                                     forbidden=forbidden)
    if cells.size == 0:
        return 0
    is_sa0 = rng.random(cells.size) < config.sa0_probability(post=post)
    injected = fmap.inject(cells[is_sa0], FaultType.SA0)
    injected += fmap.inject(cells[~is_sa0], FaultType.SA1)
    return injected


# --------------------------------------------------------------------- #
# running a scenario under either placement
# --------------------------------------------------------------------- #
def _under(place, scenario):
    """``scenario()`` with ``place`` as every injection path's placement."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(injector_module, "place_faults", place)
        patch.setattr(controller, "place_faults", place)
        return scenario()


def _assert_same(scenario):
    got = _under(place_faults, scenario)
    want = _under(oracle_place_faults, scenario)
    assert got["history"] == want["history"]
    assert got["states"] == want["states"]
    assert len(got["codes"]) == len(want["codes"])
    for mine, theirs in zip(got["codes"], want["codes"]):
        assert np.array_equal(mine, theirs)
    # The cases must place faults, or they compare nothing.
    assert got["history"] and any(c.any() for c in got["codes"])


def _recipe(model, faults, chips, seed=3):
    """A perfbench recipe's chip and fault regime (32x32 crossbars, width
    0.125); the dataset is shrunk, as it draws from its own stream."""
    return ExperimentConfig(
        train=TrainConfig(model=model, epochs=1, batch_size=32, n_train=32,
                          n_test=32, width_mult=0.125),
        chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
        faults=faults, policy="remap-d", remap_threshold=0.001, seed=seed,
        chips=chips,
    )


def _experiment(config):
    """Build (pre-deployment), then every later injection path in turn."""
    def scenario():
        ctx = build_experiment(config)
        chip, injector = ctx.chip, ctx.injector
        chip.record_update_writes(3)
        chip.wear.record(np.arange(0, chip.num_crossbars, 7), count=50)
        injector.inject_post_epoch(chip.fault_maps, chip.wear, epoch=0)
        n = chip.num_crossbars
        injector.inject_post_epoch_endurance(
            chip.fault_maps, np.zeros(n), np.linspace(0.0, 3e4, n),
            EnduranceModel(mean_cycles=5e4, sigma=0.5), epoch=1,
        )
        inject_phase_faults(ctx, "backward", 0.01)
        inject_fault_wave(ctx, epoch=2)
        hub = ctx.rng_hub
        return {
            "codes": [member.fault_codes.copy() for member in chip.chips],
            "history": list(injector.history),
            "states": [g.bit_generator.state for g in (
                injector.rng, hub.stream("phase-faults"),
                hub.stream("fault-wave"))],
        }
    return scenario


def _maps(shape, count, faults, seed=5, stuck=0.0):
    """Bare maps, ``stuck`` of each one's cells stuck beforehand, through
    pre-deployment, wear-weighted post-epoch and endurance injection."""
    def scenario():
        rng = np.random.default_rng(seed)
        maps = [FaultMap(*shape) for _ in range(count)]
        for fmap in maps:
            fmap.inject(rng.choice(fmap.cells, size=int(stuck * fmap.cells),
                                   replace=False), FaultType.SA1)
        injector = FaultInjector(faults, rng)
        injector.inject_pre_deployment(maps)
        wear = WearTracker(count)
        wear.record(np.arange(0, count, 2), count=100)
        injector.inject_post_epoch(maps, wear, epoch=0)
        injector.inject_post_epoch_endurance(
            maps, np.zeros(count), np.full(count, 3e4),
            EnduranceModel(mean_cycles=5e4, sigma=0.5), epoch=1,
        )
        return {"codes": [fmap.codes.copy() for fmap in maps],
                "history": list(injector.history),
                "states": [rng.bit_generator.state]}
    return scenario


# --------------------------------------------------------------------- #
# the hypothesis property: single placements on partly stuck maps
# --------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    stuck=st.floats(0.0, 1.0),
    want=st.floats(0.0, 1.2),
    fraction=st.floats(0.0, 1.0),
    clustered=st.booleans(),
    post=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def _one_placement_matches(rows, cols, stuck, want, fraction, clustered, post,
                           seed):
    cells = rows * cols
    forbidden = np.random.default_rng(seed).choice(
        cells, size=int(stuck * cells), replace=False)
    count = int(want * cells)
    config = FaultConfig(clustered=clustered, cluster_fraction=fraction)
    mine, theirs = FaultMap(rows, cols), FaultMap(rows, cols)
    for fmap in (mine, theirs):
        fmap.inject(forbidden, FaultType.SA1)
    a, b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    assert place_faults(a, mine, count, config, post) == oracle_place_faults(
        b, theirs, count, config, post)
    assert mine == theirs
    for got, want_cells in (
        (clustered_cells(a, rows, cols, count, fraction, forbidden),
         oracle_clustered_cells(b, rows, cols, count, fraction, forbidden)),
        (uniform_cells(a, rows, cols, count, forbidden),
         oracle_uniform_cells(b, rows, cols, count, forbidden)),
    ):
        assert got.dtype == want_cells.dtype
        assert np.array_equal(got, want_cells)
    assert a.bit_generator.state == b.bit_generator.state


# --------------------------------------------------------------------- #
# the cases
# --------------------------------------------------------------------- #
def _same(scenario):
    return lambda: _assert_same(scenario)


TRAIN_FAULTS = FaultConfig(post_m=0.01, post_n=0.02)


def _cases():
    """``(label, check)`` pairs."""
    cases = []
    for chips in (1, 2):
        for label, model, faults in (
            ("train", "resnet12", TRAIN_FAULTS),
            ("serve", "vgg11", FaultConfig()),
            ("sweep", "squeezenet", TRAIN_FAULTS),
        ):
            cases.append((f"{label} recipe, {chips} chip(s)", _same(
                _experiment(_recipe(model, faults, chips)))))
    busy = dict(pre_high_density=(0.2, 0.5), pre_low_density=(0.05, 0.2),
                post_n=0.5, post_m=0.3, post_sa0_sa1_ratio=2.0)
    cases += [
        # 1311 cells a hit crossbar: NumPy draws them by tail shuffle
        # (more than 10 000 free cells, more than 1/50 of them wanted).
        ("128x128 crossbars", _same(_maps(
            (128, 128), 6, FaultConfig(post_n=0.5, post_m=0.08)))),
        ("128x128 uniform", _same(_maps(
            (128, 128), 6, FaultConfig(post_n=0.5, post_m=0.05,
                                       clustered=False)))),
        ("window clamped to a 3x8 array", _same(_maps(
            (3, 8), 24, FaultConfig(**busy)))),
        ("partly stuck maps", _same(_maps(
            (16, 16), 24, FaultConfig(**busy), stuck=0.3))),
        ("more faults than free cells", _same(_maps(
            (4, 4), 24, FaultConfig(pre_high_density=(0.5, 1.0),
                                    pre_low_density=(0.4, 0.5),
                                    post_n=1.0, post_m=1.0), stuck=0.75))),
        ("uniform placement", _same(_maps(
            (32, 32), 40, FaultConfig(clustered=False, **busy)))),
        ("cluster_fraction 0", _same(_maps(
            (32, 32), 40, FaultConfig(cluster_fraction=0.0, **busy)))),
        ("cluster_fraction 1", _same(_maps(
            (32, 32), 40, FaultConfig(cluster_fraction=1.0, **busy)))),
        ("hypothesis: single placements", _one_placement_matches),
    ]
    return cases


def test_every_injection_path_matches_the_oracle():
    for label, check in _cases():
        try:
            check()
        except (Exception, pytest.fail.Exception) as exc:
            raise AssertionError(f"case {label!r} failed") from exc
