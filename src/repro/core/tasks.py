"""Tasks and their fault-tolerance ranking.

The paper defines a *task* as the computations of a CNN layer executed on
one ReRAM crossbar.  In this simulator a task is one block of one layer
copy — a (layer, phase, block) triple bound to a crossbar pair.

Section III.B.2 / Fig. 5: the backward phase is consistently *less*
fault-tolerant than the forward phase (faults there corrupt gradients,
which accumulate across updates), and no consistent ranking exists by
layer type or position.  Remap-D therefore ranks tasks by phase only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.reram.mapping import BACKWARD, FORWARD, LayerCopyMapping

__all__ = [
    "Task",
    "enumerate_tasks",
    "group_tasks_by_chip",
    "phase_tolerance_rank",
]


def phase_tolerance_rank(phase: str) -> int:
    """Fault-tolerance rank of a phase: lower = less tolerant.

    Backward tasks (rank 0) are the critical ones — they are remapped
    away from faulty crossbars first; forward tasks (rank 1) can absorb
    faults and act as receivers.
    """
    if phase == BACKWARD:
        return 0
    if phase == FORWARD:
        return 1
    raise ValueError(f"unknown phase {phase!r}")


@dataclass(frozen=True)
class Task:
    """One layer-slice computation bound to a crossbar pair."""

    mapping: LayerCopyMapping
    block_row: int
    block_col: int

    @property
    def pair_id(self) -> int:
        return int(self.mapping.pair_ids[self.block_row, self.block_col])

    @property
    def phase(self) -> str:
        return self.mapping.phase

    @property
    def tolerance_rank(self) -> int:
        return phase_tolerance_rank(self.phase)

    @property
    def block(self) -> tuple[int, int]:
        return (self.block_row, self.block_col)

    @property
    def name(self) -> str:
        return f"{self.mapping.name}[{self.block_row},{self.block_col}]"

    def __repr__(self) -> str:
        return f"Task({self.name}, phase={self.phase}, pair={self.pair_id})"


def enumerate_tasks(mappings: list[LayerCopyMapping]) -> list[Task]:
    """All tasks across the given layer-copy mappings, in a stable order."""
    tasks: list[Task] = []
    for mapping in mappings:
        nbr, nbc = mapping.grid_shape
        for br in range(nbr):
            for bc in range(nbc):
                tasks.append(Task(mapping, br, bc))
    return tasks


def group_tasks_by_chip(tasks: list[Task], fleet) -> dict[int, list[Task]]:
    """Bucket tasks by the chip *currently hosting* their pair.

    An evicted task groups with its new home chip, not with the chip its
    layer was originally placed on — remapping is physical, not logical.
    Order within each bucket preserves the input order (determinism).
    """
    pairs = np.fromiter((t.pair_id for t in tasks), np.int64, len(tasks))
    grouped: dict[int, list[Task]] = {}
    for task, index in zip(tasks, fleet.chip_indices(pairs).tolist()):
        grouped.setdefault(fleet.chips[index].chip_id, []).append(task)
    return grouped
