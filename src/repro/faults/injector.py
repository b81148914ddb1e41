"""Pre- and post-deployment fault injection (Section IV.A regime).

The injector operates on the chip's list of per-crossbar
:class:`~repro.faults.types.FaultMap` objects plus the
:class:`~repro.faults.endurance.WearTracker`:

* **Pre-deployment** — one-shot, before training: every crossbar draws a
  fault density from the non-uniform chip distribution (20% of crossbars
  at 0.4-1%, the rest at 0-0.4%), faults split SA0:SA1 = 9:1 and placed
  with the clustered spatial distribution.

* **Post-deployment** — once per training epoch: ``n%`` of the crossbars
  acquire ``m%`` new faulty cells.  Target crossbars are chosen
  wear-weighted (most-written crossbars fail first) unless configured
  uniform.  An endurance-driven alternative mode derives the per-crossbar
  expected fault counts from the lognormal endurance model instead of the
  fixed ``(m, n)`` worst-case regime.
"""

from __future__ import annotations

import numpy as np

from repro.faults.distribution import (
    _pick_clustered,
    _pick_uniform,
    draw_pre_deployment_densities,
)
from repro.faults.endurance import EnduranceModel, WearTracker
from repro.faults.types import FaultMap, FaultType
from repro.utils.config import FaultConfig

__all__ = ["FaultInjector", "place_faults"]

# Codes as NumPy scalars: an enum member lookup costs microseconds, a
# sizeable share of placing a crossbar's few faults.
_HEALTHY, _SA0, _SA1 = (
    np.uint8(t) for t in (FaultType.NONE, FaultType.SA0, FaultType.SA1)
)


def place_faults(
    rng: np.random.Generator,
    fmap: FaultMap,
    count: int,
    config: FaultConfig,
    post: bool,
) -> int:
    """Stick ``count`` new cells of ``fmap``; returns how many stuck.

    The one placement rule of every injection path: cells are drawn
    clustered (``config.cluster_fraction`` of them in one window) or
    uniformly as ``config.clustered`` says, never on a cell that is
    already stuck, then split SA0/SA1 at the pre- or post-deployment
    ratio (``post``).  Nothing is drawn when no cell is to be placed.
    """
    if count <= 0:
        return 0
    free = fmap.codes == _HEALTHY
    if config.clustered:
        cells = _pick_clustered(rng, free, count, config.cluster_fraction)
    else:
        cells = _pick_uniform(rng, free.reshape(-1), count)
    if cells.size == 0:
        return 0
    # The cells are distinct and were healthy: write each once.
    is_sa0 = rng.random(cells.size) < config.sa0_probability(post=post)
    fmap.codes.reshape(-1)[cells] = np.where(is_sa0, _SA0, _SA1)
    return int(cells.size)


class FaultInjector:
    """Applies the configured fault regime to a set of crossbar fault maps."""

    def __init__(self, config: FaultConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        #: history of (epoch, crossbar_id, new_fault_count) records.
        self.history: list[tuple[int, int, int]] = []

    # ------------------------------------------------------------------ #
    # pre-deployment
    # ------------------------------------------------------------------ #
    def inject_pre_deployment(self, fault_maps: list[FaultMap]) -> np.ndarray:
        """Inject manufacturing faults into every crossbar.

        Returns the array of target densities drawn for each crossbar (the
        realised densities can be marginally lower due to cell collisions).
        """
        cfg = self.config
        densities = draw_pre_deployment_densities(
            self.rng,
            num_crossbars=len(fault_maps),
            high_fraction=cfg.pre_high_fraction,
            high_density=cfg.pre_high_density,
            low_density=cfg.pre_low_density,
        )
        for xbar_id, (fmap, density) in enumerate(zip(fault_maps, densities)):
            count = int(round(density * fmap.cells))
            injected = place_faults(self.rng, fmap, count, cfg, post=False)
            if injected:
                self.history.append((-1, xbar_id, injected))
        return densities

    # ------------------------------------------------------------------ #
    # post-deployment
    # ------------------------------------------------------------------ #
    def inject_post_epoch(
        self,
        fault_maps: list[FaultMap],
        wear: WearTracker | None = None,
        epoch: int = 0,
    ) -> list[int]:
        """Inject one epoch's worth of endurance faults (fixed m/n regime).

        ``post_n`` of the crossbars receive ``post_m`` new faulty cells.
        Returns the ids of the crossbars that were hit.
        """
        cfg = self.config
        num = len(fault_maps)
        n_targets = int(round(cfg.post_n * num))
        if n_targets <= 0 or cfg.post_m <= 0:
            return []
        if cfg.wear_weighted and wear is not None:
            weights = wear.selection_weights()
            targets = self.rng.choice(num, size=n_targets, replace=False, p=weights)
        else:
            targets = self.rng.choice(num, size=n_targets, replace=False)
        hit: list[int] = []
        for xbar_id in np.sort(targets):
            fmap = fault_maps[xbar_id]
            count = int(round(cfg.post_m * fmap.cells))
            injected = place_faults(self.rng, fmap, count, cfg, post=True)
            if injected:
                self.history.append((epoch, int(xbar_id), injected))
                hit.append(int(xbar_id))
        return hit

    def inject_post_epoch_endurance(
        self,
        fault_maps: list[FaultMap],
        wear_before: np.ndarray,
        wear_after: np.ndarray,
        model: EnduranceModel,
        epoch: int = 0,
    ) -> list[int]:
        """Endurance-model-driven injection (alternative to fixed m/n).

        For each crossbar the expected number of new stuck cells over the
        epoch is ``cells * incremental_failure_prob`` and the realised
        count is Poisson-sampled around it.
        """
        probs = model.incremental_failure_prob(wear_before, wear_after)
        hit: list[int] = []
        for xbar_id, (fmap, p) in enumerate(zip(fault_maps, probs)):
            expected = p * fmap.cells
            count = int(self.rng.poisson(expected)) if expected > 0 else 0
            if count <= 0:
                continue
            injected = place_faults(self.rng, fmap, count, self.config, post=True)
            if injected:
                self.history.append((epoch, xbar_id, injected))
                hit.append(xbar_id)
        return hit

