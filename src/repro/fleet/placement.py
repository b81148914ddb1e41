"""Pipeline placement: partition a model's layers across fleet chips.

The placement pass is deterministic given the model architecture and chip
count (it draws no randomness at all): layers are walked in module order
and packed greedily by crossbar-pair demand into ``num_chips`` contiguous
stages, closing a stage once it reaches the balanced share of the total
demand.  Contiguity matters — consecutive layers exchange activations, so
a contiguous stage keeps the high-bandwidth activation traffic on-chip and
only stage boundaries cross the (narrow) inter-chip links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.nn.layers import Conv2d, Linear, Module
from repro.reram.mapping import blocks_needed
from repro.utils.config import ChipConfig

__all__ = [
    "FleetPlacement",
    "layer_pair_demands",
    "plan_placement",
    "stage_chip_config",
]


def layer_pair_demands(
    model: Module, chip_config: ChipConfig
) -> list[tuple[str, int]]:
    """``(layer name, crossbar pairs needed)`` per MVM layer, model order.

    Demand counts both copies the engine will allocate (forward stores
    ``W^T``, backward stores ``W``); this is the only demand count, and
    :func:`stage_chip_config` sizes every chip from it.
    """
    rows = chip_config.crossbar.rows
    cols = chip_config.crossbar.cols
    demands: list[tuple[str, int]] = []
    for name, module in model.named_modules():
        if isinstance(module, (Conv2d, Linear)):
            out_dim, in_dim = module.matrix_shape
            fr, fc = blocks_needed(in_dim, out_dim, rows, cols)
            br, bc = blocks_needed(out_dim, in_dim, rows, cols)
            demands.append((name, fr * fc + br * bc))
    return demands


@dataclass(frozen=True)
class FleetPlacement:
    """The layer -> chip assignment of one pipeline-partitioned model."""

    num_chips: int
    #: per-chip tuple of layer names (contiguous pipeline stages).
    stages: tuple[tuple[str, ...], ...]
    #: layer name -> chip id (derived from ``stages``; kept for O(1) lookup).
    layer_chip: dict[str, int] = field(repr=False)
    #: layer name -> crossbar-pair demand (both copies).
    demands: dict[str, int] = field(repr=False)

    def chip_of_layer(self, name: str) -> int:
        """Chip id hosting ``name`` (accepts ``layer`` or ``layer:phase``)."""
        key = name if name in self.layer_chip else name.rsplit(":", 1)[0]
        return self.layer_chip[key]

    def stage_demand(self, chip_id: int) -> int:
        """Total crossbar-pair demand of one chip's stage."""
        return sum(self.demands[layer] for layer in self.stages[chip_id])

    def __repr__(self) -> str:
        loads = [self.stage_demand(c) for c in range(self.num_chips)]
        return f"FleetPlacement(chips={self.num_chips}, stage_pairs={loads})"


def plan_placement(
    model: Module, num_chips: int, chip_config: ChipConfig
) -> FleetPlacement:
    """Greedily pack the model's layers into ``num_chips`` pipeline stages.

    Walks layers in module order, closing the current stage once adding
    the next layer would push it past the balanced share — unless the
    remaining stages would then outnumber the remaining layers, in which
    case the stage is forced closed (every chip gets at least one layer).
    Fully deterministic: same model + chip count => same placement.
    """
    if num_chips < 1:
        raise ValueError("num_chips must be >= 1")
    demands = layer_pair_demands(model, chip_config)
    if not demands:
        raise ValueError("model has no MVM layers to place")
    if num_chips > len(demands):
        raise ValueError(
            f"cannot pipeline {len(demands)} layers over {num_chips} chips "
            "(at most one chip per MVM layer)"
        )
    target = sum(d for _, d in demands) / num_chips
    stages: list[list[str]] = []
    current: list[str] = []
    load = 0
    for i, (name, demand) in enumerate(demands):
        remaining = len(demands) - i  # layers not yet placed, incl. this one
        open_needed = num_chips - len(stages)  # stages to fill, incl. current
        if current and remaining == open_needed - 1:
            # exactly one layer left per remaining stage: force a close.
            stages.append(current)
            current, load = [], 0
        elif (
            current
            and len(stages) < num_chips - 1
            and load + demand > target
            and remaining > open_needed - 1
        ):
            stages.append(current)
            current, load = [], 0
        current.append(name)
        load += demand
    stages.append(current)
    assert len(stages) == num_chips and all(stages)
    layer_chip = {
        name: cid for cid, stage in enumerate(stages) for name in stage
    }
    return FleetPlacement(
        num_chips=num_chips,
        stages=tuple(tuple(s) for s in stages),
        layer_chip=layer_chip,
        demands=dict(demands),
    )


def stage_chip_config(
    base: ChipConfig, stage_pairs: int, slack: float = 2.0
) -> ChipConfig:
    """Size one fleet chip for its stage's pair demand.

    The only chip-sizing formula (a fleet of one sizes its chip for the
    whole model): the tile/mesh geometry of ``base`` is preserved and
    only ``crossbars_per_ima`` grows, with ``slack`` headroom so the
    local remap protocol has receiver pairs.
    """
    if stage_pairs <= 0:
        raise ValueError("stage_pairs must be positive")
    target_pairs = int(math.ceil(stage_pairs * slack))
    pairs_per_unit = base.num_tiles * base.imas_per_tile  # pairs per cpi=2
    cpi = 2 * max(1, math.ceil(target_pairs / pairs_per_unit))
    return replace(base, crossbars_per_ima=cpi)
