"""Stuck-at-fault modelling: fault maps, spatial distributions, injection.

This package is the fault substrate shared by the crossbar simulator
(`repro.reram`), the BIST model (`repro.bist`) and the mitigation policies
(`repro.core`).  Faults are permanent stuck-at-0 (SA0, stuck high-resistance
/ open) and stuck-at-1 (SA1, stuck low-resistance) cell failures, arising
either from manufacturing defects (pre-deployment) or from limited write
endurance during training (post-deployment).
"""

from repro.faults.types import FaultType, FaultMap
from repro.faults.distribution import (
    uniform_cells,
    clustered_cells,
    draw_pre_deployment_densities,
)
from repro.faults.injector import FaultInjector
from repro.faults.endurance import WearTracker, EnduranceModel

__all__ = [
    "FaultType",
    "FaultMap",
    "uniform_cells",
    "clustered_cells",
    "draw_pre_deployment_densities",
    "FaultInjector",
    "WearTracker",
    "EnduranceModel",
]
