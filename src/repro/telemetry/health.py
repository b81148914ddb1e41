"""Crossbar health monitoring: periodic chip-degradation samples.

The paper's story is a chip that *degrades while it trains*: endurance
faults accumulate, BIST notices, Remap-D moves tasks away, and quarantined
(unoccupied) faulty crossbars pile up.  A single end-of-run density number
cannot replay that; this module emits periodic ``health_sample`` events so
a trace carries the whole timeline.

One sample captures, chip-wide and per tile:

* ``cells`` / ``faulty`` / ``sa0`` / ``sa1`` — device inventory and the
  stuck-at breakdown (:class:`~repro.faults.types.FaultMap` codes);
* ``density`` — faulty fraction (the quantity BIST estimates);
* ``quarantined`` — faulty cells on pairs that currently host **no**
  task: faults that remapping (or allocation headroom) has taken out of
  service, the visible benefit of Remap-D;
* ``active_faulty`` — faulty cells still under live tasks (the residual
  damage actually perturbing training).

``health_sample`` event schema::

    {"epoch": int, "cells": int, "faulty": int, "sa0": int, "sa1": int,
     "mean_density": float, "max_tile_density": float,
     "quarantined": int, "active_faulty": int, "remaps_to_date": int,
     "tiles": [{"tile": int, "cells": int, "faulty": int, "sa0": int,
                "sa1": int, "density": float, "quarantined": int}, ...]}

The remap timeline itself rides on the chip's own ``task_moved`` /
``task_swapped`` events (:meth:`repro.reram.chip.Chip.move_task` /
``swap_tasks``); ``repro report`` combines both into the degradation
dashboard.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.faults.types import FaultType
from repro.telemetry import Telemetry

__all__ = ["chip_health", "sample_health"]


def chip_health(chip) -> dict[str, Any]:
    """Measure the chip's current fault state (no telemetry emission).

    Ground-truth accounting for analysis and the ``health_sample`` event —
    the *policies* still only ever see BIST estimates.
    """
    mappings = chip.mappings
    occupied = (
        np.concatenate([m.pair_ids.ravel() for m in mappings])
        if mappings
        else np.empty(0, dtype=np.int64)
    )
    idle = ~np.isin(chip.pair_ids, occupied)
    sa0 = chip.crossbar_fault_counts(FaultType.SA0)[chip.pair_crossbars].sum(axis=1)
    sa1 = chip.crossbar_fault_counts(FaultType.SA1)[chip.pair_crossbars].sum(axis=1)
    tile_ids, tile_of_pair = np.unique(chip.pair_tiles, return_inverse=True)

    def per_tile(per_pair: np.ndarray) -> list[int]:
        out = np.zeros(tile_ids.size, dtype=np.int64)
        np.add.at(out, tile_of_pair, per_pair)
        return out.tolist()

    pair_cells = np.full(chip.num_pairs, 2 * chip.config.crossbar.cells)
    tile_rows = [
        {"tile": t, "cells": c, "faulty": a + b, "sa0": a, "sa1": b,
         "quarantined": q}
        for t, c, a, b, q in zip(
            tile_ids.tolist(),
            per_tile(pair_cells),
            per_tile(sa0),
            per_tile(sa1),
            per_tile(np.where(idle, sa0 + sa1, 0)),
        )
    ]
    for row in tile_rows:
        row["density"] = row["faulty"] / row["cells"] if row["cells"] else 0.0
    cells = sum(t["cells"] for t in tile_rows)
    faulty = sum(t["faulty"] for t in tile_rows)
    quarantined = sum(t["quarantined"] for t in tile_rows)
    health = {
        "cells": cells,
        "faulty": faulty,
        "sa0": sum(t["sa0"] for t in tile_rows),
        "sa1": sum(t["sa1"] for t in tile_rows),
        "mean_density": faulty / cells if cells else 0.0,
        "max_tile_density": max((t["density"] for t in tile_rows), default=0.0),
        "quarantined": quarantined,
        "active_faulty": faulty - quarantined,
        "tiles": tile_rows,
    }
    members = getattr(chip, "chips", None)
    if members is not None:
        # Fleet rollup: tag every tile with its hosting chip and add one
        # summary row per member.  ``free_pairs`` uses the *global*
        # occupancy — a pair hosting an evicted foreign task is busy even
        # though its own chip's mappings never mention it.
        busy = set(occupied.tolist())
        for row in tile_rows:
            row["chip"] = chip.chip_of_tile(row["tile"]).chip_id
        chip_rows = []
        for member in members:
            rows = [r for r in tile_rows if r["chip"] == member.chip_id]
            c_cells = sum(r["cells"] for r in rows)
            c_faulty = sum(r["faulty"] for r in rows)
            chip_rows.append({
                "chip": member.chip_id,
                "tiles": len(rows),
                "cells": c_cells,
                "faulty": c_faulty,
                "sa0": sum(r["sa0"] for r in rows),
                "sa1": sum(r["sa1"] for r in rows),
                "density": c_faulty / c_cells if c_cells else 0.0,
                "quarantined": sum(r["quarantined"] for r in rows),
                "pairs": member.num_pairs,
                "free_pairs": len(member.idle_pair_ids(busy)),
            })
        health["chips"] = chip_rows
        health["evictions"] = chip.evictions
    return health


def sample_health(
    chip, telemetry: Telemetry, epoch: int, **extra: Any
) -> dict[str, Any]:
    """Emit one ``health_sample`` event for the chip's current state.

    ``remaps_to_date`` is read from the sink's ``remaps`` counter so the
    sample correlates degradation with the policy's reaction.  Returns
    the measured health dict (also useful without a live sink).
    """
    health = chip_health(chip)
    telemetry.event(
        "health_sample",
        epoch=epoch,
        remaps_to_date=telemetry.counters.get("remaps", 0),
        **health,
        **extra,
    )
    telemetry.observe("health.tile_density",
                      health["max_tile_density"])
    return health
