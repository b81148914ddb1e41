"""Fault-mitigation policies: Remap-D and the baselines of Fig. 6.

Every policy sees the same two hooks:

* ``setup(ctx)`` — once, after chip construction and pre-deployment fault
  injection, before training starts;
* ``on_epoch_end(ctx, epoch)`` — after each epoch's post-deployment fault
  injection and BIST scan.

``ctx`` is the :class:`~repro.core.controller.ExperimentContext`.

Policies that "move weights to spare fault-free hardware" (AN-corrected
columns, Remap-WS, Remap-T-n%) act through the engine's override masks:
an overridden weight position behaves fault-free, at the policy's area
cost.  Remap-D is the only policy that needs *no* spare hardware — it
permutes the task->pair assignment of the existing crossbars.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.tasks import enumerate_tasks, group_tasks_by_chip
from repro.ecc.an_code import AN_CODE_AREA_OVERHEAD, column_correctable_mask
from repro.nn.layers import Conv2d, Linear
from repro.reram.mapping import LayerCopyMapping

__all__ = [
    "Policy",
    "IdealPolicy",
    "NoProtectionPolicy",
    "ANCodePolicy",
    "StaticMappingPolicy",
    "RemapWSPolicy",
    "RemapTNPolicy",
    "RemapDPolicy",
    "make_policy",
    "POLICY_NAMES",
]

POLICY_NAMES = (
    "ideal",
    "none",
    "an-code",
    "static",
    "remap-ws",
    "remap-t",
    "remap-d",
)


class Policy:
    """Base mitigation policy (does nothing)."""

    name = "base"
    #: additional area as a fraction of RCS area (spares, ECC datapath...).
    area_overhead = 0.0
    #: True if the controller should run a BIST scan before on_epoch_end.
    uses_bist = False
    #: True disables all fault injection (the fault-free reference run).
    disable_faults = False

    def setup(self, ctx) -> None:  # noqa: D401 - hook
        """One-time initialisation before training."""

    def on_epoch_end(self, ctx, epoch: int) -> None:
        """Per-epoch reaction to the current fault state."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class IdealPolicy(Policy):
    """Fault-free hardware: the accuracy ceiling every figure references."""

    name = "ideal"
    disable_faults = True

    def setup(self, ctx) -> None:
        ctx.engine.faults_enabled = False


class NoProtectionPolicy(Policy):
    """Faulty hardware with no mitigation (the accuracy floor)."""

    name = "none"


class ANCodePolicy(Policy):
    """AN-code output correction (Feinberg et al.).

    Columns whose stuck-cell count is within the code's correction
    capability produce correctable output errors; their faults are
    neutralised through engine overrides.  Columns beyond the capability
    keep all their faults — which is why the method collapses on the
    high-density crossbars of a non-uniform fault distribution.
    """

    name = "an-code"
    area_overhead = AN_CODE_AREA_OVERHEAD

    def __init__(self, per_column_capacity: int = 1):
        if per_column_capacity < 0:
            raise ValueError("per_column_capacity must be non-negative")
        self.per_column_capacity = per_column_capacity

    def _stored_override(self, ctx, mapping: LayerCopyMapping) -> np.ndarray:
        """Override mask in the copy's stored-matrix orientation."""
        rows, cols = mapping.block_rows, mapping.block_cols
        nbr, nbc = mapping.grid_shape
        uncorrectable = np.zeros((nbr * rows, nbc * cols), dtype=bool)
        for br, bc, pair_id in mapping.iter_blocks():
            pair = ctx.chip.pair(pair_id)
            rs, cs = mapping.block_slices(br, bc)
            for fmap in (pair.pos.fault_map, pair.neg.fault_map):
                if fmap.count() == 0:
                    continue
                corr = column_correctable_mask(fmap, self.per_column_capacity)
                uncorrectable[rs, cs] |= fmap.faulty_mask & ~corr
        override = ~uncorrectable
        return override[: mapping.matrix_shape[0], : mapping.matrix_shape[1]]

    def _rebuild(self, ctx) -> None:
        for key, (fwd, bwd) in ctx.engine.copies.items():
            fwd_mask = self._stored_override(ctx, fwd).T  # (in,out) -> (out,in)
            bwd_mask = self._stored_override(ctx, bwd)
            ctx.engine.set_override(key, fwd_mask, bwd_mask)

    def setup(self, ctx) -> None:
        self._rebuild(ctx)

    def on_epoch_end(self, ctx, epoch: int) -> None:
        # The correction table must track newly appeared faults (the paper
        # notes this periodic update as an overhead of the AN baseline).
        self._rebuild(ctx)


class StaticMappingPolicy(Policy):
    """Fault-aware mapping done once at t = 0 and never revisited.

    Uses the offline manufacturing-test densities (ground truth — a
    luxury only available pre-deployment) to put the critical backward
    tasks on the least-faulty pairs.  Post-deployment faults are invisible
    to it, which is the failure the paper demonstrates.
    """

    name = "static"

    def setup(self, ctx) -> None:
        mappings = ctx.engine.all_mappings()
        tasks = enumerate_tasks(mappings)
        densities = ctx.chip.true_pair_densities()
        # The shuffle stays chip-local: static mapping models a per-chip
        # manufacturing-time pass, and silently teleporting a task's
        # weights to another chip would dodge the transfer cost the fleet
        # charges for real migrations.
        by_chip = group_tasks_by_chip(tasks, ctx.chip)
        for chip in ctx.chip.chips:
            group = by_chip.get(chip.chip_id, [])
            if not group:
                continue
            pair_ids = [t.pair_id for t in group]
            order = sorted(pair_ids, key=lambda pid: (densities[pid], pid))
            # Backward (critical) tasks take the cleanest pairs.
            tasks_sorted = sorted(
                enumerate(group), key=lambda it: (it[1].tolerance_rank, it[0])
            )
            for (_, task), pid in zip(tasks_sorted, order):
                task.mapping.set_pair(task.block_row, task.block_col, pid)
        ctx.chip.bump_fault_version()


class RemapWSPolicy(Policy):
    """Remap-WS (Liu et al.): protect the top-n% most significant weights.

    Designed for inference with pre-trained weights; training from scratch
    only has the initial weights to rank, and the protection is applied
    once (re-running the significance classifier every epoch is the
    overhead the paper calls out).  Protected positions live on spare
    fault-free columns, hence the area overhead.
    """

    name = "remap-ws"

    def __init__(self, protect_fraction: float = 0.05):
        if not (0.0 < protect_fraction < 1.0):
            raise ValueError("protect_fraction must lie in (0, 1)")
        self.protect_fraction = protect_fraction
        self.area_overhead = protect_fraction

    def setup(self, ctx) -> None:
        for name, module in ctx.model.named_modules():
            if isinstance(module, (Conv2d, Linear)) and module.layer_key:
                w = module.weight.data.reshape(module.matrix_shape)
                k = max(1, int(round(self.protect_fraction * w.size)))
                threshold = np.partition(np.abs(w).ravel(), -k)[-k]
                mask = np.abs(w) >= threshold
                # Remap-WS is an *inference-time* scheme: it relocates the
                # stored weights that matter for the forward function.  The
                # backward phase's gradient computation is untouched, which
                # is why it cannot protect training (Section IV.C).
                ctx.engine.set_override(module.layer_key, mask, None)


class RemapTNPolicy(Policy):
    """Remap-T-n%: every epoch, move the top-n% most *important* weights
    (largest gradient magnitude) onto spare fault-free crossbars.

    Near-ideal accuracy at n = 10%, but it permanently reserves n% spare
    hardware — the accuracy/area trade-off Remap-D avoids.
    """

    name = "remap-t"

    def __init__(self, fraction: float = 0.10):
        if not (0.0 < fraction < 1.0):
            raise ValueError("fraction must lie in (0, 1)")
        self.fraction = fraction
        self.area_overhead = fraction

    def _apply(self, ctx, rank_source: str) -> None:
        for name, module in ctx.model.named_modules():
            if not isinstance(module, (Conv2d, Linear)) or not module.layer_key:
                continue
            if rank_source == "grad":
                scores = np.abs(module.weight.grad).reshape(module.matrix_shape)
                if not scores.any():  # before the first update: fall back
                    scores = np.abs(module.weight.data).reshape(module.matrix_shape)
            else:
                scores = np.abs(module.weight.data).reshape(module.matrix_shape)
            k = max(1, int(round(self.fraction * scores.size)))
            threshold = np.partition(scores.ravel(), -k)[-k]
            mask = scores >= threshold
            ctx.engine.set_override(module.layer_key, mask, mask)

    def setup(self, ctx) -> None:
        self._apply(ctx, rank_source="weight")

    def on_epoch_end(self, ctx, epoch: int) -> None:
        self._apply(ctx, rank_source="grad")


class RemapDPolicy(Policy):
    """Remap-D: BIST-guided dynamic task remapping (the paper's method).

    No spare hardware, no weight analysis: each epoch, tasks on pairs
    whose *estimated* density exceeds the trigger threshold are exchanged
    with more fault-tolerant tasks on cleaner pairs, nearest receiver
    first.  The only hardware cost is the BIST module (~0.61% area).
    """

    name = "remap-d"
    uses_bist = True

    def __init__(
        self,
        threshold: float = 0.002,
        phase_priority: bool = True,
        receiver_rule: str = "nearest",
    ):
        self.threshold = threshold
        self.phase_priority = phase_priority
        self.receiver_rule = receiver_rule
        self.protocol = None

    def setup(self, ctx) -> None:
        # Deferred import: repro.fleet builds on the core protocol, so a
        # module-level import here would be circular.  The paper's
        # protocol runs unchanged on every member chip inside it.
        from repro.fleet import FleetRemapProtocol

        self.protocol = FleetRemapProtocol(
            ctx.chip,
            threshold=self.threshold,
            phase_priority=self.phase_priority,
            receiver_rule=self.receiver_rule,
            rng=ctx.rng_hub.stream("remap-protocol"),
        )
        # Deployment-time pass: pre-deployment faults are visible to BIST
        # before the first epoch, and epoch-0 gradients are the largest of
        # the whole run — mapping the critical tasks around the known
        # manufacturing faults at t=0 costs nothing extra (the same BIST
        # pass the training loop runs each epoch) and subsumes the static
        # baseline.  The scan is timed and attributed like an epoch-end
        # scan, but the ``bist_scans`` counter stays epoch-end only.
        from repro.bist.density import pair_density_estimates, scan_chip

        with ctx.telemetry.span("bist_scan", epoch=-1):
            densities = scan_chip(
                ctx.chip, ctx.rng_hub.stream("bist-setup"), telemetry=ctx.telemetry
            )
            ctx.pair_density_est = pair_density_estimates(ctx.chip, densities)
        self._remap_pass(ctx, epoch=-1)

    def _remap_pass(self, ctx, epoch: int) -> None:
        assert self.protocol is not None, "setup() not called"
        tel = ctx.telemetry
        t_pass = time.perf_counter()
        with tel.span("remap_pass", epoch=epoch):
            tasks = enumerate_tasks(ctx.engine.all_mappings())
            plan = self.protocol.plan(
                tasks,
                ctx.pair_density_est,
                idle_pairs=ctx.chip.idle_pair_ids(),
                epoch=epoch,
            )
            self.protocol.execute(plan)
        tel.observe("remap.pass_seconds", time.perf_counter() - t_pass)
        for decision in plan.decisions:
            tel.observe("remap.hops", decision.hops)
        ctx.remap_plans.append((epoch, plan))
        tel.event(
            "remap_planned",
            epoch=epoch,
            num_remaps=plan.num_remaps,
            senders=len(plan.sender_tiles),
            evictions=len(plan.evictions),
            stranded=len(plan.stranded),
        )
        tel.count("remaps", plan.num_remaps)
        tel.count("remap_passes")

    def on_epoch_end(self, ctx, epoch: int) -> None:
        self._remap_pass(ctx, epoch)


def make_policy(
    name: str, param: float | None = None, threshold: float = 0.002, **kwargs
) -> Policy:
    """Build a policy by name.

    ``param`` parameterises remap-ws / remap-t fractions (defaults 0.05
    and 0.10 as in the paper); ``threshold`` is Remap-D's trigger.  Extra
    keyword arguments are forwarded to the policy constructor (the
    ablation benches use this for Remap-D's receiver_rule /
    phase_priority variants via ``ExperimentConfig.policy_kwargs``).
    """
    name = name.lower()
    if name == "ideal":
        return IdealPolicy(**kwargs)
    if name == "none":
        return NoProtectionPolicy(**kwargs)
    if name == "an-code":
        return ANCodePolicy(**kwargs)
    if name == "static":
        return StaticMappingPolicy(**kwargs)
    if name == "remap-ws":
        return RemapWSPolicy(param if param else 0.05, **kwargs)
    if name == "remap-t":
        return RemapTNPolicy(param if param else 0.10, **kwargs)
    if name == "remap-d":
        return RemapDPolicy(threshold=threshold, **kwargs)
    raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
