"""Binding CNN layers to simulated crossbar hardware.

:class:`CrossbarEngine` is the bridge between the NumPy training framework
and the RCS chip model.  ``bind(model)`` allocates, for every Conv2d and
Linear layer, two crossbar copies on the chip:

* a **forward copy** storing ``W^T`` — read by the forward-pass MVM;
* a **backward copy** storing ``W`` — read by the backward-pass MVM that
  computes the input gradient ``dx = dy @ W``.

Every MVM then sees the *stuck-at-clamped* weights of its copy, so faults
on forward-phase crossbars perturb activations while faults on
backward-phase crossbars corrupt gradients — physically independent
failure modes, as on the real accelerator.

Policies interact with the engine through **override masks**: a boolean
mask (in the layer's ``(out, in)`` weight orientation) marking weight
positions whose faults are neutralised — e.g. AN-code-corrected columns,
or weights remapped to spare fault-free crossbars by Remap-WS/Remap-T.

Effective-weight cache
----------------------
Layers read their weights through one call,
:meth:`CrossbarEngine.step_weights`, once per forward.  The clamped
forward/backward weight of a layer is a pure function of (weight data,
fault state, overrides), so the engine keeps one cache entry per layer,
holding both copies' effective matrices, keyed on the triple of
monotonic versions

* ``Parameter.version`` — bumped by every in-place weight write
  (``SGD.step``);
* ``Chip.fault_version`` — bumped on every fault injection / remap;
* ``CrossbarEngine.override_version`` — bumped by ``set_override`` /
  ``clear_overrides``.

plus, when an analog stack is attached (:meth:`CrossbarEngine.set_analog`,
the engine's one non-ideality hook), the stack's version key
(layer-config hash, soft-error epoch version, drift epochs).

During training every step changes the weights, so each step clamps
both copies once; during evaluation and BIST/remap passes nothing
changes between batches, so the clamp runs **once per fault state**
instead of once per batch.  Inference reads only the forward copy, and
a training step that follows at the same key computes just the missing
backward copy.  Only a *stochastic* stack (programming error / read
noise, redrawn per read; :attr:`repro.analog.AnalogStack.stochastic`)
bypasses the cache; a stack without them is deterministic per key, so
it stays cached.  Returned arrays are owned by the engine: valid until
the layer's next recompute, and must not be mutated by callers.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Conv2d, Linear, Module
from repro.reram.chip import Chip
from repro.reram.mapping import LayerCopyMapping

__all__ = ["CrossbarEngine"]


class CrossbarEngine:
    """Routes layer MVMs through the chip's (possibly faulty) crossbars."""

    def __init__(self, chip: Chip):
        #: the bound hardware — an experiment's ChipFleet, or a bare Chip;
        #: both offer fault_maps / pair() / fault_version /
        #: allocate_layer_copy ...
        self.chip = chip
        #: layer key -> (forward copy, backward copy) mappings.
        self.copies: dict[str, tuple[LayerCopyMapping, LayerCopyMapping]] = {}
        #: layer key -> (fwd override, bwd override) boolean masks in the
        #: stored-matrix orientation of each copy; None = no override.
        self._overrides: dict[str, tuple[np.ndarray | None, np.ndarray | None]] = {}
        #: if False, the engine passes weights through unclamped (ideal HW).
        self.faults_enabled = True
        #: optional composable analog non-ideality stack (repro.analog):
        #: drift, DAC/ADC quantization, conductance mapping, IR drop, soft
        #: errors, programming error, read noise — see :meth:`set_analog`.
        self.analog = None
        #: bumped by set_override / clear_overrides; part of the cache key.
        self.override_version = 0
        #: layer key -> weight Parameter (for the params_version key part).
        self._weights: dict[str, "object"] = {}
        #: layer key -> id of the chip hosting its copies (0 standalone).
        #: Part of the cache key so fleet replicas that rebind a layer to
        #: a different chip never share stale effective weights.
        self._home_chip: dict[str, int] = {}
        #: key -> (version tuple, fwd, bwd): both copies' effective
        #: weights; bwd stays None until a read needs it.
        self._eff_cache: dict[str, tuple[tuple, np.ndarray, np.ndarray | None]] = {}
        #: engine-owned result buffers, (key, path, dtype) -> array.
        self._eff_buffers: dict[tuple[str, str, str], np.ndarray] = {}
        #: cache statistics (tests and the hotpath bench read these).
        #: Kept as plain ints — the per-MVM fast path must stay free of
        #: telemetry calls; ``cache_stats()`` publishes them into the
        #: run's sink once, at reporting time.
        self.cache_hits = 0
        self.cache_misses = 0
        self.recomputes = 0
        #: optional run telemetry.  Only the (already expensive) cache
        #: miss path consults it, and only for ``profile`` spans.
        self.telemetry = None

    # ------------------------------------------------------------------ #
    # binding
    # ------------------------------------------------------------------ #
    def bind(self, model: Module) -> "CrossbarEngine":
        """Allocate crossbar copies for every MVM layer of ``model``."""
        for name, module in model.named_modules():
            if isinstance(module, (Conv2d, Linear)):
                out_dim, in_dim = module.matrix_shape
                fwd = self.chip.allocate_layer_copy(
                    f"{name}:fwd", "forward", (in_dim, out_dim)
                )
                bwd = self.chip.allocate_layer_copy(
                    f"{name}:bwd", "backward", (out_dim, in_dim)
                )
                self.copies[name] = (fwd, bwd)
                self._weights[name] = module.weight
                chip_of = getattr(self.chip, "chip_of_layer", None)
                self._home_chip[name] = (
                    int(chip_of(name)) if chip_of is not None else 0
                )
                module.engine = self
                module.layer_key = name
        if not self.copies:
            raise ValueError("model contains no Conv2d/Linear layers to bind")
        return self

    def unbind(self, model: Module) -> None:
        """Detach the engine (layers fall back to ideal execution)."""
        for _, module in model.named_modules():
            if isinstance(module, (Conv2d, Linear)):
                module.engine = None

    # ------------------------------------------------------------------ #
    # weight paths (called from the layers on every batch)
    # ------------------------------------------------------------------ #
    def step_weights(
        self, key: str, w2d: np.ndarray, need_backward: bool = True
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Effective ``(out, in)`` weights as read by the forward and the
        backward MVM.

        The layers call this once per forward.  ``need_backward=False``
        (inference) reads only the forward copy and may return ``None``
        for the backward one.  Cached: see the module docstring.  The
        counters count per copy: one hit for each copy served from the
        cache, one miss for each copy computed.  Returned arrays are
        engine-owned: do not mutate.
        """
        if not self.faults_enabled:
            return w2d, (w2d if need_backward else None)
        analog = self.analog
        if analog is not None and analog.stochastic:
            # Programming error / read noise is redrawn per read — the
            # effective weight is not a pure function of the versions,
            # so the cache is bypassed entirely.
            w_fwd = self._noisy_weight(key, w2d, "fwd")
            w_bwd = self._noisy_weight(key, w2d, "bwd") if need_backward else None
            return w_fwd, w_bwd
        ck = self._version_key(key, w2d)
        cached = self._eff_cache.get(key)
        if cached is None or cached[0] != ck:
            w_fwd = self._recompute(key, w2d, "fwd")
            w_bwd = self._recompute(key, w2d, "bwd") if need_backward else None
            self._eff_cache[key] = (ck, w_fwd, w_bwd)
            return w_fwd, w_bwd
        _, w_fwd, w_bwd = cached
        self.cache_hits += 1
        if need_backward:
            if w_bwd is None:
                # An inference read filled only the forward copy.
                w_bwd = self._recompute(key, w2d, "bwd")
                self._eff_cache[key] = (ck, w_fwd, w_bwd)
            else:
                self.cache_hits += 1
        return w_fwd, w_bwd

    def _version_key(self, key: str, w2d: np.ndarray) -> tuple:
        """The full cache key: monotonic versions + analog layer state.

        Every piece of state that can change an effective weight is
        visible here; anything *not* representable as a key part (a
        stochastic analog stack) bypasses the cache instead.  The audit
        test (tests/test_analog.py) locks this invariant down.
        """
        weight = self._weights.get(key)
        analog = self.analog
        return (
            weight.version if weight is not None else -1,
            self.chip.fault_version,
            self.override_version,
            w2d.dtype.str,
            self._home_chip.get(key, 0),
            analog.version_key() if analog is not None else None,
        )

    def _noisy_weight(self, key: str, w2d: np.ndarray, path: str) -> np.ndarray:
        """One copy's effective weight with fresh per-read noise (uncached)."""
        eff, _ = self._compute_weight(key, w2d, path)
        return self.analog.apply(key, path, eff)

    def _recompute(self, key: str, w2d: np.ndarray, path: str) -> np.ndarray:
        """A cache miss: one copy's effective weight, engine-owned."""
        self.cache_misses += 1
        eff, shared = self._compute_weight(key, w2d, path)
        analog = self.analog
        if analog is not None and analog.active:
            out = analog.apply(key, path, eff)
            if out is not eff:
                # The analog layers allocated a fresh array the engine
                # owns outright — no buffer copy needed.
                eff, shared = out, False
        if shared:
            # The mapping's buffer is overwritten by its next clamp; keep
            # an engine-owned copy so the cache survives foreign calls.
            buf_key = (key, path, w2d.dtype.str)
            buf = self._eff_buffers.get(buf_key)
            if buf is None or buf.shape != eff.shape:
                buf = np.empty(eff.shape, dtype=w2d.dtype)
                self._eff_buffers[buf_key] = buf
            np.copyto(buf, eff)
            eff = buf
        return eff

    def _compute_weight(
        self, key: str, w2d: np.ndarray, path: str
    ) -> tuple[np.ndarray, bool]:
        """Clamp one weight path; returns ``(effective, shared_buffer)``.

        ``shared_buffer`` is True when the result aliases the mapping's
        reusable clamp buffer (and must be copied before long-term use).
        This is the cache-*miss* path only, so the opt-in ``profile``
        span here never taxes the per-batch hit path.
        """
        tel = self.telemetry
        if tel is not None and tel.enabled and tel.profile:
            with tel.span("mvm_recompute", key=key, path=path):
                return self._compute_weight_impl(key, w2d, path)
        return self._compute_weight_impl(key, w2d, path)

    def _compute_weight_impl(
        self, key: str, w2d: np.ndarray, path: str
    ) -> tuple[np.ndarray, bool]:
        self.recomputes += 1
        fwd, bwd = self.copies[key]
        if path == "fwd":
            mapping, stored = fwd, w2d.T
        else:
            mapping, stored = bwd, w2d
        raw = mapping.effective_matrix(stored, self.chip.pair, self.chip.fault_version)
        if raw is stored:  # fault-free passthrough
            eff, shared = w2d, False
        elif path == "fwd":
            eff, shared = raw.T, True
        else:
            eff, shared = raw, True
        override = self._overrides.get(key, (None, None))[0 if path == "fwd" else 1]
        if override is not None:
            eff = np.where(override, w2d, eff)  # fresh allocation
            shared = False
        return eff, shared

    def gradient_weight(self, key: str, grad2d: np.ndarray) -> np.ndarray:
        """Effective ``(out, in)`` weight gradient after the backward MVM.

        The backward phase computes the weight gradient on the same
        backward-copy crossbars that hold ``W``; a stuck device therefore
        pins the corresponding gradient entry at up to +-(gradient ADC
        range).  This is the paper's accumulation mechanism: the pinned,
        wrong gradient entries are applied at *every* weight update, so
        the affected weights drift monotonically — which is why backward
        faults are so much more damaging than forward faults (Fig. 5).
        """
        if not self.faults_enabled:
            return grad2d
        _, bwd = self.copies[key]
        eff = bwd.effective_matrix(
            grad2d, self.chip.pair, self.chip.fault_version, which="grad"
        )
        _, override = self._overrides.get(key, (None, None))
        if override is not None:
            eff = np.where(override, grad2d, eff)
        return eff

    def set_analog(self, stack) -> None:
        """Attach a :class:`repro.analog.AnalogStack` (or ``None``).

        Unless the stack is stochastic, its layers are deterministic per
        cache key — its :meth:`~repro.analog.AnalogStack.version_key`
        joins the key, so analog runs keep the cache instead of bypassing
        it.  Drops every cached effective weight: entries computed under
        the previous stack must never be served under the new one.
        """
        self.analog = stack
        self.invalidate_weight_cache()

    # ------------------------------------------------------------------ #
    # policy hooks
    # ------------------------------------------------------------------ #
    def set_override(
        self,
        key: str,
        fwd_mask: np.ndarray | None,
        bwd_mask: np.ndarray | None,
    ) -> None:
        """Mark weight positions whose faults are neutralised.

        Masks use the layer's ``(out, in)`` orientation; ``None`` clears
        the override for that phase.
        """
        if key not in self.copies:
            raise KeyError(f"unknown layer key {key!r}")
        fwd, bwd = self.copies[key]
        # Both masks are (out, in): the backward copy stores the matrix in
        # that orientation directly, the forward copy stores its transpose.
        out_in = (fwd.matrix_shape[1], fwd.matrix_shape[0])
        assert bwd.matrix_shape == out_in
        for phase, mask in (("fwd", fwd_mask), ("bwd", bwd_mask)):
            if mask is None:
                continue
            if mask.dtype != bool:
                raise TypeError("override masks must be boolean")
            if mask.shape != out_in:
                raise ValueError(
                    f"{phase} override mask shape {mask.shape} does not match "
                    f"layer {key!r} (out, in) shape {out_in}"
                )
        self._overrides[key] = (fwd_mask, bwd_mask)
        self.override_version += 1

    def clear_overrides(self) -> None:
        self._overrides.clear()
        self.override_version += 1

    def invalidate_weight_cache(self) -> None:
        """Drop all cached effective weights (forces a re-clamp).

        Only needed after mutating state the version keys cannot see —
        e.g. poking ``Parameter.data`` without :meth:`Parameter.bump_version`
        or editing fault maps without ``Chip.bump_fault_version``.
        Drops the engine-owned result buffers too, so no stale copy of
        the silently-mutated state can be served through them.
        """
        self._eff_cache.clear()
        self._eff_buffers.clear()

    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/recompute counters of the effective-weight cache."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "recomputes": self.recomputes,
        }

    def reset_cache_stats(self) -> None:
        """Zero the hit/miss/recompute counters (bench section boundaries)."""
        self.cache_hits = 0
        self.cache_misses = 0
        self.recomputes = 0

    # ------------------------------------------------------------------ #
    # gradient-scale replication (data-parallel training)
    # ------------------------------------------------------------------ #
    # The gradient ADC range of a backward copy is calibrated lazily from
    # the first gradient a (re)written block sees and then frozen.  Under
    # sharded data-parallel execution that first gradient must be the
    # canonical one (shard 0, owned by rank 0) on *every* replica, or the
    # frozen ranges — and with them every subsequent gradient clamp —
    # would depend on which rank happened to calibrate.  Rank 0 exports
    # its calibrated scales after running shard 0; peers import them
    # before clamping their own shards (repro.nn.parallel).

    def grad_scale_count(self) -> int:
        """Total per-block gradient-scale entries across backward copies."""
        return sum(bwd.grad_scales.size for _, bwd in self.copies.values())

    def grad_scales_stale(self) -> bool:
        """True when any backward copy awaits gradient-scale calibration."""
        if not self.faults_enabled:
            return False
        return any(
            bool(np.isnan(bwd.grad_scales).any())
            for _, bwd in self.copies.values()
        )

    def export_grad_scales(self, out: np.ndarray) -> None:
        """Pack every backward copy's gradient scales into ``out`` (flat)."""
        i = 0
        for _, bwd in self.copies.values():
            n = bwd.grad_scales.size
            out[i : i + n] = bwd.grad_scales.ravel()
            i += n

    def import_grad_scales(self, flat: np.ndarray) -> None:
        """Adopt gradient scales previously packed by :meth:`export_grad_scales`."""
        i = 0
        for _, bwd in self.copies.values():
            n = bwd.grad_scales.size
            bwd.adopt_grad_scales(flat[i : i + n])
            i += n

    # ------------------------------------------------------------------ #
    # introspection for the controller / policies
    # ------------------------------------------------------------------ #
    def layer_keys(self) -> list[str]:
        return list(self.copies)

    def all_mappings(self) -> list[LayerCopyMapping]:
        out: list[LayerCopyMapping] = []
        for fwd, bwd in self.copies.values():
            out.extend((fwd, bwd))
        return out

    def pairs_in_use(self) -> int:
        return sum(m.num_blocks for m in self.all_mappings())
