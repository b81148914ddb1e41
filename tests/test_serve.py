"""Serving-plane tests: bit-exact batching, routing, drain and retry.

The load-bearing contract is **batch invariance**: logits must be
bit-identical whether N requests are served one-by-one, as one batch, or
as ragged micro-batches.  Every serving forward runs at a fixed
``max_batch``-slot shape (zero-padded), because BLAS kernels are not
bit-stable across GEMM shapes — these tests assert the contract both at
the replica level (deterministic splits) and through the full threaded
server (whatever batching the timing produced).
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.serve import InferenceServer, MicroBatcher, Request, ServeConfig
from repro.serve.replica import LocalReplica, ReplicaCore
from repro.serve.router import HealthRouter
from repro.serve.server import _parse_chaos
from repro.telemetry import Telemetry
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)

MAX_BATCH = 8


def _tiny(policy: str = "remap-d", **train_kw) -> ExperimentConfig:
    return ExperimentConfig(
        train=TrainConfig(
            model="vgg11", epochs=1, batch_size=16, n_train=32, n_test=32,
            width_mult=0.125, **train_kw,
        ),
        chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
        faults=FaultConfig(),
        policy=policy,
        seed=11,
    )


@pytest.fixture(scope="module")
def core() -> ReplicaCore:
    return ReplicaCore(_tiny(), MAX_BATCH)


@pytest.fixture(scope="module")
def samples(core) -> np.ndarray:
    rng = np.random.default_rng(7)
    xs = rng.standard_normal((2 * MAX_BATCH + 3,) + core.input_shape)
    return xs.astype(core.input_dtype)


# --------------------------------------------------------------------- #
# batch invariance (the bit-determinism contract)
# --------------------------------------------------------------------- #
class TestBatchInvariance:
    def test_one_by_one_equals_full_batch(self, core, samples):
        xs = samples[:MAX_BATCH]
        full = core.infer(xs)
        singles = np.concatenate([core.infer(xs[i:i + 1]) for i in range(len(xs))])
        assert np.array_equal(full, singles)

    def test_ragged_micro_batches_are_bit_identical(self, core, samples):
        singles = np.concatenate(
            [core.infer(samples[i:i + 1]) for i in range(len(samples))]
        )
        ragged = []
        splits = [3, 1, MAX_BATCH, 5, 2]  # sums to len(samples)
        start = 0
        for width in splits:
            ragged.append(core.infer(samples[start:start + width]))
            start += width
        assert start == len(samples)
        assert np.array_equal(singles, np.concatenate(ragged))

    def test_oversized_batch_is_rejected(self, core, samples):
        with pytest.raises(ValueError, match="slots"):
            core.infer(np.concatenate([samples, samples]))

    def test_predict_pads_trailing_batch(self):
        # predict(pad_to=) must produce the same logits for a lone sample
        # as that sample's row inside a full batch.
        core = ReplicaCore(_tiny(), 4)
        rng = np.random.default_rng(3)
        xs = rng.standard_normal((4,) + core.input_shape).astype(core.input_dtype)
        batch = core.trainer.predict(xs, batch=4, pad_to=4)
        alone = core.trainer.predict(xs[2:3], batch=4, pad_to=4)
        assert np.array_equal(batch[2], alone[0])


# --------------------------------------------------------------------- #
# Trainer.predict / evaluate / eval_batch (satellite surface)
# --------------------------------------------------------------------- #
class TestPredictSurface:
    def test_evaluate_is_argmax_over_predict(self, core):
        trainer = core.trainer
        ds = core.ctx.dataset
        logits = trainer.predict(ds.x_test)
        acc = (logits.argmax(axis=1) == ds.y_test).mean()
        assert trainer.evaluate() == pytest.approx(acc)

    def test_eval_batch_knob(self):
        cfg = _tiny(eval_batch=8)
        core = ReplicaCore(cfg, MAX_BATCH)
        assert core.trainer.eval_batch_size() == 8
        auto = ReplicaCore(_tiny(), MAX_BATCH)
        assert auto.trainer.eval_batch_size() == max(16, 64)

    def test_eval_batch_must_be_non_negative(self):
        with pytest.raises(ValueError, match="eval_batch"):
            TrainConfig(eval_batch=-1)

    def test_predict_rejects_empty_input(self, core):
        with pytest.raises(ValueError, match="at least one"):
            core.trainer.predict(np.zeros((0,) + core.input_shape))


# --------------------------------------------------------------------- #
# micro-batcher
# --------------------------------------------------------------------- #
def _req() -> Request:
    return Request(np.zeros(1))


class TestMicroBatcher:
    def test_full_batch_ships_without_waiting(self):
        mb = MicroBatcher(max_batch=4, max_wait_us=10_000_000)
        for _ in range(6):
            mb.submit(_req())
        t0 = time.perf_counter()
        batch = mb.next_batch(timeout=1.0)
        assert len(batch) == 4
        assert time.perf_counter() - t0 < 1.0  # did not sit out the wait

    def test_coalesces_up_to_wait_budget(self):
        mb = MicroBatcher(max_batch=8, max_wait_us=200_000)
        mb.submit(_req())

        def late_arrival():
            time.sleep(0.05)
            mb.submit(_req())

        t = threading.Thread(target=late_arrival)
        t.start()
        batch = mb.next_batch(timeout=1.0)
        t.join()
        assert len(batch) == 2  # the late request made the same batch

    def test_lone_request_ships_after_wait(self):
        mb = MicroBatcher(max_batch=8, max_wait_us=20_000)
        mb.submit(_req())
        t0 = time.perf_counter()
        batch = mb.next_batch(timeout=1.0)
        elapsed = time.perf_counter() - t0
        assert len(batch) == 1
        assert elapsed < 0.5

    def test_requeue_goes_to_front(self):
        mb = MicroBatcher(max_batch=2, max_wait_us=0)
        first, second = _req(), _req()
        mb.submit(first)
        mb.submit(second)
        retry = [_req(), _req()]
        mb.requeue(retry)
        batch = mb.next_batch(timeout=1.0)
        assert batch == retry  # retries precede fresh work

    def test_close_drains_then_returns_none(self):
        mb = MicroBatcher(max_batch=4, max_wait_us=0)
        mb.submit(_req())
        mb.close()
        assert len(mb.next_batch(timeout=1.0)) == 1
        assert mb.next_batch(timeout=0.1) is None
        with pytest.raises(RuntimeError):
            mb.submit(_req())

    def test_idle_timeout_returns_none(self):
        mb = MicroBatcher(max_batch=4, max_wait_us=0)
        assert mb.next_batch(timeout=0.05) is None


# --------------------------------------------------------------------- #
# health router
# --------------------------------------------------------------------- #
def _health(active_faulty: int, cells: int = 1000, fault_version: int = 0):
    return {"cells": cells, "active_faulty": active_faulty,
            "mean_density": active_faulty / cells,
            "fault_version": fault_version}


class TestHealthRouter:
    def test_degrade_drops_weight_and_emits_event(self):
        tel = Telemetry(echo=False)
        router = HealthRouter(telemetry=tel, weight_scale=50.0)
        router.register(0, _health(0))
        before = router.weights()[0]
        assert router.observe_fault_version(0, 1)
        assert router.maybe_degrade(0, _health(4, fault_version=1))
        after = router.weights()[0]
        assert after < before
        reasons = [e["payload"]["reason"] for e in tel.filter("route_weight")]
        assert reasons == ["register", "degraded"]
        assert tel.filter("replica_degraded")

    def test_fault_version_observed_once(self):
        router = HealthRouter()
        router.register(0, _health(0))
        assert router.observe_fault_version(0, 3)
        assert not router.observe_fault_version(0, 3)
        assert not router.observe_fault_version(0, 2)

    def test_restore_reweights_and_reenters_rotation(self):
        router = HealthRouter()
        router.register(0, _health(0))
        router.maybe_degrade(0, _health(5))
        assert not router.routable(0)
        router.begin_remap(0)
        router.restore(0, _health(1))
        assert router.routable(0)
        assert router.weights()[0] > router.weight_from_health(_health(5))

    def test_choose_skips_unroutable_and_dead(self):
        router = HealthRouter()
        rng = np.random.default_rng(0)
        for rid in range(3):
            router.register(rid, _health(0))
        router.mark_dead(0)
        router.maybe_degrade(1, _health(10))  # moved to draining
        picks = {router.choose([0, 1, 2], rng) for _ in range(10)}
        assert picks == {2}
        router.mark_dead(2)
        assert router.choose([0, 1, 2], rng) is None
        assert router.alive_count() == 1  # only the draining replica

    def test_weight_floor(self):
        router = HealthRouter(min_weight=0.05, weight_scale=50.0)
        assert router.weight_from_health(_health(999)) == 0.05


# --------------------------------------------------------------------- #
# chaos spec parsing
# --------------------------------------------------------------------- #
class TestChaosSpec:
    def test_parses_minimal_and_full(self):
        spec = _parse_chaos("faults:20")
        assert (spec.after_batches, spec.post_m, spec.post_n) == (20, None, None)
        spec = _parse_chaos("faults:5:0.02:0.3")
        assert (spec.after_batches, spec.post_m, spec.post_n) == (5, 0.02, 0.3)
        assert _parse_chaos(None) is None
        assert _parse_chaos("") is None

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            _parse_chaos("faults")
        with pytest.raises(ValueError):
            _parse_chaos("explode:3")


# --------------------------------------------------------------------- #
# the threaded server (in-process replicas)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def server():
    srv = InferenceServer(
        _tiny(), ServeConfig(max_batch=MAX_BATCH, max_wait_us=500, replicas=2)
    )
    yield srv
    srv.close()


class TestInferenceServer:
    def test_server_batching_is_bit_invariant(self, server, samples):
        batched = server.predict(samples)
        singles = np.stack(
            [server.submit(x).result(timeout=60) for x in samples]
        )
        assert np.array_equal(batched, singles)

    def test_submit_validates_shape(self, server):
        with pytest.raises(ValueError, match="input"):
            server.submit(np.zeros((2, 2)))

    def test_fault_wave_triggers_exactly_one_online_remap(self, samples):
        srv = InferenceServer(
            _tiny(), ServeConfig(max_batch=MAX_BATCH, max_wait_us=500)
        )
        tel = srv.telemetry
        try:
            srv.predict(samples[:4])
            srv.inject_faults(0, post_m=0.02, post_n=0.3)
            # the router's reaction is server-side and visible immediately:
            # degraded strictly below the registration weight, then restored
            weights = [e["payload"] for e in tel.filter("route_weight")
                       if e["payload"]["replica"] == 0]
            reg = next(w["weight"] for w in weights if w["reason"] == "register")
            deg = next(w["weight"] for w in weights if w["reason"] == "degraded")
            assert deg < reg
            assert [w for w in weights if w["reason"] == "restored"]
            # and serving still works after the online remap
            out = srv.predict(samples[:4])
            assert out.shape == (4, srv.num_classes)
        finally:
            srv.close()
        # replica-side telemetry merges at close: exactly one online remap,
        # with the remap-planning trace behind it, and nothing dropped
        assert tel.counters.get("serve.remaps_online", 0) == 1
        assert len(tel.filter("online_remap")) == 1
        assert tel.filter("remap_planned")
        assert tel.counters.get("serve.failed", 0) == 0

    def test_graceful_close_drains_queued_requests(self, samples):
        srv = InferenceServer(
            _tiny(), ServeConfig(max_batch=4, max_wait_us=50_000, replicas=1)
        )
        futures = [srv.submit(x) for x in samples]
        srv.close(drain=True)
        results = [f.result(timeout=10) for f in futures]
        assert len(results) == len(samples)
        assert srv.telemetry.counters.get("serve.failed", 0) == 0
        assert srv.telemetry.filter("server_stopped")

    def test_non_drain_close_fails_pending(self, samples):
        srv = InferenceServer(
            _tiny(), ServeConfig(max_batch=4, max_wait_us=200_000, replicas=1)
        )
        futures = [srv.submit(x) for x in samples]
        t0 = time.monotonic()
        srv.close(drain=False)
        # The failed requests were never in flight: the dispatcher sees
        # nothing outstanding and exits, so close does not wait out its
        # join timeout.
        assert time.monotonic() - t0 < 10.0
        assert not srv._dispatcher.is_alive()
        outcomes = []
        for f in futures:
            try:
                f.result(timeout=10)
                outcomes.append("ok")
            except RuntimeError:
                outcomes.append("failed")
        # everything resolved one way or the other; nothing hangs
        assert len(outcomes) == len(samples)


# --------------------------------------------------------------------- #
# process replicas: kill mid-batch, retry elsewhere, zero drops
# --------------------------------------------------------------------- #
class TestProcessReplicaResilience:
    def test_killed_worker_requests_retry_on_surviving_replica(self, samples):
        srv = InferenceServer(
            _tiny(),
            ServeConfig(max_batch=4, max_wait_us=500, replicas=2, workers=True),
        )
        # Replica 1 holds its first batch until replica 0 is dead, so the
        # dispatcher must hand replica 0 a batch: the kill lands the
        # moment replica 0 holds one, whichever replica the router picked.
        killed = threading.Event()
        infer0, infer1 = srv.replicas[0].infer, srv.replicas[1].infer

        def kill_holding_a_batch(xs):
            srv.kill_replica(0)
            killed.set()
            return infer0(xs)

        def wait_for_the_kill(xs):
            assert killed.wait(60)
            return infer1(xs)

        srv.replicas[0].infer = kill_holding_a_batch
        srv.replicas[1].infer = wait_for_the_kill
        try:
            xs = np.concatenate([samples] * 3)
            futures = [srv.submit(x) for x in xs]
            results = [f.result(timeout=120) for f in futures]
        finally:
            srv.close()
        tel = srv.telemetry
        assert len(results) == len(xs)
        assert tel.counters.get("serve.failed", 0) == 0
        assert tel.filter("replica_dead")
        assert tel.counters.get("serve.replica_deaths", 0) == 1
        # the in-flight batch of the killed replica was re-queued
        assert tel.counters.get("serve.retries", 0) >= 1
        # results are the same logits the surviving replica computes
        direct = ReplicaCore(_tiny(), 4).infer(xs[:4])
        assert np.array_equal(np.stack(results[:4]), direct)


# --------------------------------------------------------------------- #
# SIGTERM: drain, flush trace, exit 0 (full CLI subprocess)
# --------------------------------------------------------------------- #
class TestGracefulSignals:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        trace = tmp_path / "serve.jsonl"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--bench",
             "--mode", "closed", "--concurrency", "2", "--duration", "120",
             "--replicas", "1", "--max-batch", "4", "--model", "vgg11",
             "--n-train", "32", "--n-test", "32", "--quiet",
             "--trace", str(trace)],
            env=env,
        )
        try:
            time.sleep(10)  # replica build + some traffic
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert rc == 0
        records = [json.loads(l) for l in trace.read_text().splitlines()]
        kinds = {r["kind"] for r in records}
        assert "server_started" in kinds
        assert "server_stopped" in kinds
        assert records[-1]["kind"] == "telemetry_summary"
        summary = records[-1]["payload"]
        assert summary["counters"].get("serve.failed", 0) == 0
