"""Chip fleets: shard one model across N >= 1 simulated RCS chips.

The paper's remap protocol is strictly chip-local; once a chip's spare
pairs run out it is stranded.  This package lifts the one-chip assumption:

* :mod:`repro.fleet.placement` — deterministic pipeline partitioning of a
  model's layers over N chips, greedy by crossbar-pair demand;
* :mod:`repro.fleet.interconnect` — the chip-to-chip network (narrow
  off-chip links on a mesh, per-link flit/latency accounting kept separate
  from intra-chip NoC hops);
* :mod:`repro.fleet.chipfleet` — :class:`ChipFleet`, which owns the member
  chips and presents their fleet-wide views (global pair/tile/crossbar
  ids, fault maps, wear, health) to the controller/engine/BIST stack;
* :mod:`repro.fleet.remap` — :class:`FleetRemapProtocol`, the paper's
  protocol per chip plus a cross-chip eviction path triggered by
  :class:`~repro.reram.chip.SpareExhaustedError` (or by every local pair
  being dirtier than the sender).

Every experiment builds a :class:`ChipFleet`.  ``ExperimentConfig.chips
== 1`` (the default) is a fleet of one: the whole model on one chip, the
paper's protocol on that chip, and an eviction pass that finds no other
chip and reports the chip's unmatched senders as stranded.  Its runs are
bit-identical to the recorded single-chip golden run.
"""

from repro.fleet.chipfleet import ChipFleet
from repro.fleet.interconnect import Interconnect
from repro.fleet.placement import FleetPlacement, layer_pair_demands, plan_placement
from repro.fleet.remap import EvictionDecision, FleetRemapPlan, FleetRemapProtocol

__all__ = [
    "ChipFleet",
    "EvictionDecision",
    "FleetPlacement",
    "FleetRemapPlan",
    "FleetRemapProtocol",
    "Interconnect",
    "layer_pair_demands",
    "plan_placement",
]
