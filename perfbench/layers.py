"""Which program callables the benchmark wraps, and the per-layer metrics.

Every callable is wrapped where its callers look it up (a function the
controller imported by name is wrapped in ``repro.core.controller`` as
well as in its home module).  Only a traced run installs ``LAYERS``; an
untraced run reads its set-up, ``train_epoch`` and ``evaluate`` times from
the spans the program records itself.

ReLU and pooling are timed at the functionals every model reaches
(``F.relu``, ``F.maxpool2d``, ...): ResNet blocks and SqueezeNet's fire
modules call ``F.relu`` directly, without a ``ReLU`` module.
"""

from __future__ import annotations

import statistics

import repro.bist.density as density
import repro.core.controller as controller
import repro.nn.functional as F
import repro.runner
import repro.telemetry.health as health
from repro.core.remap_protocol import RemapProtocol
from repro.faults.injector import FaultInjector
from repro.nn.fault_aware import CrossbarEngine
from repro.nn.layers import BatchNorm2d, Conv2d, Linear, Module
from repro.nn.optim import SGD
from repro.nn.parallel import DataParallelTrainer
from repro.nn.tensor import Tensor
from repro.nn.trainer import Trainer
from repro.reram.mapping import LayerCopyMapping
from repro.serve.batcher import MicroBatcher, RequestFuture
from repro.serve.replica import ProcessReplica

from loadgen import percentile
from tracer import NAME, RID, SID, T0, T1, Target, Tracer, self_times

# --------------------------------------------------------------------- #
# hooks run after a wrapped call returns
# --------------------------------------------------------------------- #
_MODULE_KIND = {Conv2d: "conv", Linear: "linear", BatchNorm2d: "bn"}


def _module_span(args) -> str:
    """Span name of ``Module.__call__``: by layer class, containers as other."""
    return "nn.fwd." + _MODULE_KIND.get(type(args[0]), "other")


def _im2col_bytes(tracer, record, args, result):
    tracer.count("nn.im2col_bytes", args[0].nbytes + result[0].nbytes)


def _col2im_bytes(tracer, record, args, result):
    tracer.count("nn.col2im_bytes", args[0].nbytes + result.nbytes)


def _remap_plan(tracer, record, args, result):
    tracer.count("remap.count", result.num_remaps)
    tracer.count("remap.hops", result.total_hops())


def _serve_submit(tracer, args):
    """Number each request before it enters the batcher's queue."""
    return tracer.new_rid(args[1].future)


def _serve_batch(tracer, record, args, result):
    """Batch span lists its requests; each request gets a queue span."""
    if not result:
        return
    rids = [tracer.rid_of.get(id(r.future)) for r in result]
    record[RID] = rids
    for request, rid in zip(result, rids):
        tracer.add_span("serve.queue", request.t_submit, record[T1], rid)


def _serve_infer(tracer, record, args, result):
    record[RID] = []
    tracer.local.last_infer = record


def _serve_respond(tracer, args):
    """Join the response to the infer span that produced it (same thread)
    and retire the request's id."""
    rid = tracer.retire_rid(args[0])
    infer = getattr(tracer.local, "last_infer", None)
    if infer is not None:
        infer[RID].append(rid)
    return rid


# --------------------------------------------------------------------- #
# wrap points
# --------------------------------------------------------------------- #
LAYERS = [
    Target(controller, "build_experiment", "setup"),
    Target(Trainer, "train_epoch", "train_epoch"),
    Target(DataParallelTrainer, "train_epoch", "train_epoch"),
    Target(Trainer, "evaluate", "evaluate"),
    Target(F, "im2col", "nn.im2col", _im2col_bytes),
    Target(F, "col2im", "nn.col2im", _col2im_bytes),
    Target(Module, "__call__", _module_span),
    Target(F, "relu", "nn.fwd.relu"),
    Target(F, "maxpool2d", "nn.fwd.pool"),
    Target(F, "avgpool2d", "nn.fwd.pool"),
    Target(F, "global_avgpool2d", "nn.fwd.pool"),
    Target(Tensor, "backward", "nn.backward"),
    Target(SGD, "step", "nn.optim"),
    Target(SGD, "zero_grad", "nn.optim"),
    Target(F, "softmax_cross_entropy", "nn.loss"),
    Target(CrossbarEngine, "step_weights", "engine.step_weights"),
    Target(CrossbarEngine, "gradient_weight", "engine.gradient_weight"),
    Target(LayerCopyMapping, "effective_matrix", "mapping.clamp"),
    Target(controller, "apply_epoch_end", "epoch_end"),
    Target(FaultInjector, "inject_post_epoch", "faults.inject"),
    Target(controller, "scan_chip", "bist.scan"),
    Target(density, "scan_chip", "bist.scan"),
    Target(RemapProtocol, "plan", "remap.plan", _remap_plan),
    Target(RemapProtocol, "execute", "remap.execute"),
    Target(controller, "sample_health", "health.sample"),
    Target(health, "sample_health", "health.sample"),
    Target(DataParallelTrainer, "__init__", "dp.start"),
    Target(DataParallelTrainer, "broadcast_epoch_end", "dp.epoch_end_bcast"),
    Target(DataParallelTrainer, "shutdown", "dp.shutdown"),
    Target(MicroBatcher, "submit", "serve.submit", rid=_serve_submit),
    Target(MicroBatcher, "next_batch", "serve.batch", _serve_batch),
    Target(ProcessReplica, "infer", "serve.infer", _serve_infer),
    Target(RequestFuture, "set_result", "serve.respond", rid=_serve_respond),
    Target(repro.runner, "run_experiments", "runner.run"),
]

_TRAIN_REQUIRED = [
    "repro.nn.functional.im2col",
    "repro.nn.functional.col2im",
    "repro.nn.layers.Module.__call__",
    "repro.nn.functional.relu",
    "repro.nn.functional.global_avgpool2d",
    "repro.nn.tensor.Tensor.backward",
    "repro.nn.optim.SGD.step",
    "repro.nn.functional.softmax_cross_entropy",
    "repro.nn.trainer.Trainer.evaluate",
    "repro.nn.fault_aware.CrossbarEngine.step_weights",
    "repro.nn.fault_aware.CrossbarEngine.gradient_weight",
    "repro.reram.mapping.LayerCopyMapping.effective_matrix",
    "repro.core.controller.build_experiment",
    "repro.core.controller.apply_epoch_end",
    "repro.faults.injector.FaultInjector.inject_post_epoch",
    "repro.core.controller.scan_chip",
    "repro.bist.density.scan_chip",
    "repro.core.remap_protocol.RemapProtocol.plan",
    "repro.core.remap_protocol.RemapProtocol.execute",
    "repro.core.controller.sample_health",
]

#: wrapped targets each traced workload must reach (the self-check).
REQUIRED = {
    "train": _TRAIN_REQUIRED + ["repro.nn.trainer.Trainer.train_epoch"],
    "train-dp": _TRAIN_REQUIRED + [
        "repro.nn.parallel.DataParallelTrainer.train_epoch",
        "repro.nn.parallel.DataParallelTrainer.__init__",
        "repro.nn.parallel.DataParallelTrainer.broadcast_epoch_end",
        "repro.nn.parallel.DataParallelTrainer.shutdown",
    ],
    "serve": [
        "repro.serve.batcher.MicroBatcher.submit",
        "repro.serve.batcher.MicroBatcher.next_batch",
        "repro.serve.replica.ProcessReplica.infer",
        "repro.serve.batcher.RequestFuture.set_result",
    ],
    "sweep": ["repro.runner.run_experiments"],
}

# --------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------- #
#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str]] = [
    ("nn.im2col_s", "s"), ("nn.im2col_calls", "count"), ("nn.im2col_mb", "MB"),
    ("nn.col2im_s", "s"), ("nn.col2im_calls", "count"), ("nn.col2im_mb", "MB"),
] + [
    (f"nn.{kind}.{layer}", unit)
    for layer in ("conv", "linear", "bn", "relu", "pool")
    for kind, unit in (("fwd_s", "s"), ("fwd_calls", "count"))
] + [
    ("nn.backward_s", "s"), ("nn.optim_s", "s"), ("nn.loss_s", "s"),
    ("nn.unattributed_frac", "fraction"),
    ("engine.step_weights_s", "s"), ("engine.step_weights_calls", "count"),
    ("engine.gradient_weight_s", "s"), ("engine.gradient_weight_calls", "count"),
    ("engine.cache_hit_ratio", "fraction"), ("engine.recomputes", "count"),
    ("mapping.clamp_s", "s"), ("mapping.clamp_calls", "count"),
    ("epoch_end_s", "s"),
    ("faults.inject_s", "s"), ("faults.cells", "count"),
    ("bist.scan_s", "s"), ("bist.scans", "count"),
    ("remap.plan_s", "s"), ("remap.execute_s", "s"),
    ("remap.count", "count"), ("remap.hops", "count"),
    ("health.sample_s", "s"),
    ("dp.start_s", "s"), ("dp.wait_s", "s"), ("dp.epoch_end_bcast_s", "s"),
    ("dp.shutdown_s", "s"),
    ("serve.queue_ms.p50", "ms"), ("serve.queue_ms.p99", "ms"),
    ("serve.batch_fill", "fraction"),
    ("serve.infer_ms.p50", "ms"), ("serve.infer_ms.p99", "ms"),
    ("serve.replica_busy_frac", "fraction"), ("serve.gen_late_ms.p99", "ms"),
    ("runner.cell_s", "s"), ("runner.utilization", "fraction"),
    ("runner.tail_s", "s"), ("runner.retries", "count"),
    ("trace.overhead_frac", "fraction"),
]

def training_layers(tracer: Tracer, epochs: int) -> dict[str, float]:
    """Per-layer metrics of one traced training run (totals over the run).

    ``epoch_end_s`` is per epoch; every other time and count is the total
    over the run, set-up included.  ``dp.wait_s`` is rank 0's
    ``train_epoch`` self time: its barrier and all-reduce waits, and the
    lazy start of the rank processes inside the first epoch.
    """
    spans = tracer.spans
    self_of = self_times(spans)
    self_s: dict[str, float] = {}
    wall_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        name = s[NAME]
        self_s[name] = self_s.get(name, 0.0) + self_of[s[SID]]
        wall_s[name] = wall_s.get(name, 0.0) + (s[T1] - s[T0])
        calls[name] = calls.get(name, 0) + 1
    c = tracer.counters
    out = {
        "nn.im2col_s": self_s.get("nn.im2col", 0.0),
        "nn.im2col_calls": calls.get("nn.im2col", 0),
        "nn.im2col_mb": c.get("nn.im2col_bytes", 0) / 1e6,
        "nn.col2im_s": self_s.get("nn.col2im", 0.0),
        "nn.col2im_calls": calls.get("nn.col2im", 0),
        "nn.col2im_mb": c.get("nn.col2im_bytes", 0) / 1e6,
        "nn.backward_s": self_s.get("nn.backward", 0.0),
        "nn.optim_s": self_s.get("nn.optim", 0.0),
        "nn.loss_s": self_s.get("nn.loss", 0.0),
        "engine.step_weights_s": self_s.get("engine.step_weights", 0.0),
        "engine.step_weights_calls": calls.get("engine.step_weights", 0),
        "engine.gradient_weight_s": self_s.get("engine.gradient_weight", 0.0),
        "engine.gradient_weight_calls": calls.get("engine.gradient_weight", 0),
        "mapping.clamp_s": self_s.get("mapping.clamp", 0.0),
        "mapping.clamp_calls": calls.get("mapping.clamp", 0),
        "epoch_end_s": wall_s.get("epoch_end", 0.0) / epochs,
        "faults.inject_s": wall_s.get("faults.inject", 0.0),
        "bist.scan_s": wall_s.get("bist.scan", 0.0),
        "bist.scans": calls.get("bist.scan", 0),
        "remap.plan_s": wall_s.get("remap.plan", 0.0),
        "remap.execute_s": wall_s.get("remap.execute", 0.0),
        "remap.count": c.get("remap.count", 0),
        "remap.hops": c.get("remap.hops", 0),
        "health.sample_s": wall_s.get("health.sample", 0.0),
        "dp.start_s": wall_s.get("dp.start", 0.0),
        "dp.epoch_end_bcast_s": wall_s.get("dp.epoch_end_bcast", 0.0),
        "dp.shutdown_s": wall_s.get("dp.shutdown", 0.0),
    }
    for layer in ("conv", "linear", "bn", "relu", "pool"):
        out[f"nn.fwd_s.{layer}"] = self_s.get(f"nn.fwd.{layer}", 0.0)
        out[f"nn.fwd_calls.{layer}"] = calls.get(f"nn.fwd.{layer}", 0)
    epoch_wall = wall_s.get("train_epoch", 0.0)
    if epoch_wall > 0:
        out["nn.unattributed_frac"] = self_s["train_epoch"] / epoch_wall
    if calls.get("dp.start"):
        out["dp.wait_s"] = self_s.get("train_epoch", 0.0)
    return out


def serve_layers(tracer: Tracer, t_start: float, t_end: float,
                 replicas: int, max_batch: int) -> dict[str, float]:
    """Per-layer serving metrics over the spans inside ``[t_start, t_end]``."""
    queue, infer, fills = [], [], []
    busy = 0.0
    for s in tracer.spans:
        if not (t_start <= s[T0] <= t_end):
            continue
        name = s[NAME]
        if name == "serve.queue":
            queue.append((s[T1] - s[T0]) * 1e3)
        elif name == "serve.infer":
            infer.append((s[T1] - s[T0]) * 1e3)
            busy += s[T1] - s[T0]
        elif name == "serve.batch" and s[RID]:
            fills.append(len(s[RID]) / max_batch)
    return {
        "serve.queue_ms.p50": percentile(queue, 50),
        "serve.queue_ms.p99": percentile(queue, 99),
        "serve.batch_fill": statistics.fmean(fills) if fills else 0.0,
        "serve.infer_ms.p50": percentile(infer, 50),
        "serve.infer_ms.p99": percentile(infer, 99),
        "serve.replica_busy_frac": busy / (replicas * (t_end - t_start)),
    }


def request_spans_join(tracer: Tracer) -> bool:
    """True when every answered request's queue, batch and infer spans
    carry its id (the serve trace's join contract)."""
    queued = {s[RID] for s in tracer.spans if s[NAME] == "serve.queue"}
    batched = {r for s in tracer.spans if s[NAME] == "serve.batch" and s[RID]
               for r in s[RID]}
    inferred = {r for s in tracer.spans if s[NAME] == "serve.infer"
                for r in (s[RID] or [])}
    answered = {s[RID] for s in tracer.spans if s[NAME] == "serve.respond"}
    return bool(answered) and answered <= queued & batched & inferred
