"""Epoch-based training loop with per-epoch hooks.

The hook is where the fault-tolerant-training controller plugs in: after
every epoch it injects post-deployment faults, runs BIST and performs the
policy's remapping — mirroring the paper's "remap at the end of each
epoch, before the weights are updated for the next" schedule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Module
from repro.nn.optim import SGD, cosine_lr
from repro.nn.tensor import Tensor, no_grad, step_arena, step_scope
from repro.nn.data import SyntheticDataset
from repro.telemetry import Telemetry, null_telemetry
from repro.utils.config import TrainConfig

__all__ = ["Trainer", "TrainResult"]


@dataclass
class TrainResult:
    """Outcome of one training run."""

    history: list[dict] = field(default_factory=list)
    final_accuracy: float = 0.0
    best_accuracy: float = 0.0

    def accuracy_curve(self) -> list[float]:
        return [h["test_acc"] for h in self.history]


class Trainer:
    """SGD training of a model on a synthetic dataset."""

    def __init__(
        self,
        model: Module,
        dataset: SyntheticDataset,
        config: TrainConfig,
        rng: np.random.Generator | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.model = model
        self.dataset = dataset
        self.config = config
        self.rng = rng or np.random.default_rng(config.seed)
        self.telemetry = telemetry if telemetry is not None else null_telemetry()
        #: called after every optimiser step (the crossbar engine hooks
        #: its in-situ range clipping here).
        self.post_step = None
        #: optional ``() -> dict`` of extra per-epoch metrics, merged into
        #: each history record and ``epoch_done`` event after the epoch's
        #: controller hook ran (the fleet controller reports cumulative
        #: eviction / interconnect counters here).  None adds nothing.
        self.epoch_metrics: Callable[[], dict] | None = None
        self.optimizer = SGD(
            model.parameters(),
            lr=config.lr,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )

    # ------------------------------------------------------------------ #
    def train_epoch(self, epoch: int) -> float:
        """One pass over the training set; returns the mean loss."""
        cfg = self.config
        self.model.train()
        self.optimizer.lr = cosine_lr(
            cfg.lr, epoch, cfg.epochs, cfg.lr_final_fraction
        )
        x, y = self.dataset.x_train, self.dataset.y_train
        order = self.rng.permutation(len(y))
        tel = self.telemetry
        # Per-step timing is profiling-only: one perf_counter pair plus a
        # histogram observe per *batch* is cheap, but the hot-loop
        # discipline says the default path adds nothing at all.
        profiling = tel.enabled and tel.profile
        # The epoch loss weights every per-batch loss by its batch size,
        # so the trailing partial batch does not bias the mean.
        total_loss = 0.0
        total_n = 0
        arena = step_arena()
        with step_scope():
            for start in range(0, len(y), cfg.batch_size):
                t_step = time.perf_counter() if profiling else 0.0
                idx = order[start : start + cfg.batch_size]
                xb = Tensor(x[idx], requires_grad=True)
                # Nothing consumes the batch input's gradient; skip the
                # first conv's col2im fold entirely.
                xb.skip_grad = True
                logits = self.model(xb)
                loss = F.softmax_cross_entropy(logits, y[idx])
                self.optimizer.zero_grad()
                loss.backward()
                self.optimizer.step()
                if self.post_step is not None:
                    self.post_step()
                # Backward is complete and the weights are stepped: every
                # arena temporary is dead; rewind for reuse.
                arena.reset()
                nb = len(idx)
                total_loss += float(loss.data) * nb
                total_n += nb
                if profiling:
                    tel.observe("train.step_seconds", time.perf_counter() - t_step)
        return total_loss / total_n

    def eval_batch_size(self) -> int:
        """Resolved inference batch: ``TrainConfig.eval_batch`` or auto."""
        if self.config.eval_batch > 0:
            return self.config.eval_batch
        return max(self.config.batch_size, 64)

    def predict(
        self,
        x: np.ndarray,
        batch: int | None = None,
        pad_to: int | None = None,
    ) -> np.ndarray:
        """Logits for a batch of inputs (inference mode, cache-hot).

        Runs under :func:`~repro.nn.tensor.no_grad`: no autograd graph, no
        backward-copy weight clamp, and the crossbar engine serves its
        cached forward-copy weights for every batch after the first.  The
        produced logits are identical to a graph-building forward's —
        asserted by ``tests/test_nn_eval_cache.py``.

        ``batch`` overrides the resolved :meth:`eval_batch_size`.
        ``pad_to`` zero-pads every micro-batch to a fixed row count before
        the forward and slices the padding back off.  BLAS kernels are not
        bit-stable across GEMM shapes, so a fixed padded shape is what
        makes logits *bit-identical* regardless of how a set of inputs is
        split into batches — the property the serving micro-batcher relies
        on (``tests/test_serve.py``).
        """
        b = batch if batch is not None else self.eval_batch_size()
        self.model.eval()
        outputs: list[np.ndarray] = []
        with no_grad():
            for start in range(0, len(x), b):
                xb = x[start : start + b]
                n = len(xb)
                if pad_to is not None and n < pad_to:
                    padded = np.zeros((pad_to,) + xb.shape[1:], dtype=xb.dtype)
                    padded[:n] = xb
                    xb = padded
                logits = self.model(Tensor(xb)).data
                outputs.append(np.array(logits[:n], copy=True))
        if not outputs:
            raise ValueError("predict() needs at least one input sample")
        return outputs[0] if len(outputs) == 1 else np.concatenate(outputs, axis=0)

    def evaluate(self, x: np.ndarray | None = None, y: np.ndarray | None = None) -> float:
        """Top-1 accuracy on the test split (or a supplied set).

        A thin argmax wrapper over :meth:`predict` — serving and
        evaluation share one inference surface.
        """
        if x is None:
            x, y = self.dataset.x_test, self.dataset.y_test
        assert y is not None
        logits = self.predict(x)
        return int((logits.argmax(axis=1) == y).sum()) / len(y)

    def num_batches(self) -> int:
        n = len(self.dataset.y_train)
        return (n + self.config.batch_size - 1) // self.config.batch_size

    def fit(
        self,
        on_epoch_end: Callable[[int, "Trainer"], None] | None = None,
    ) -> TrainResult:
        """Full training run with the per-epoch controller hook.

        Each epoch's training pass and evaluation run inside telemetry
        spans, and an ``epoch_done`` event carries the per-epoch record;
        per-batch work stays uninstrumented (hot path).
        """
        result = TrainResult()
        tel = self.telemetry
        for epoch in range(self.config.epochs):
            t_epoch = time.perf_counter()
            with tel.span("train_epoch", epoch=epoch):
                loss = self.train_epoch(epoch)
            tel.observe("train.epoch_seconds", time.perf_counter() - t_epoch)
            if on_epoch_end is not None:
                on_epoch_end(epoch, self)
            with tel.span("evaluate", epoch=epoch):
                acc = self.evaluate()
            extra = self.epoch_metrics() if self.epoch_metrics is not None else {}
            result.history.append(
                {"epoch": epoch, "loss": loss, "test_acc": acc,
                 "lr": self.optimizer.lr, **extra}
            )
            tel.event("epoch_done", epoch=epoch, loss=loss, test_acc=acc,
                      lr=self.optimizer.lr, **extra)
        if result.history:
            # Smooth over the last two epochs: small-model training on a
            # hard task is twitchy, and a single-epoch snapshot is noisy.
            tail = [h["test_acc"] for h in result.history[-2:]]
            result.final_accuracy = float(np.mean(tail))
        result.best_accuracy = max((h["test_acc"] for h in result.history), default=0.0)
        return result
