"""Open-loop Poisson load from one generator thread, timed from due times.

The schedule and the request pool come from the workload seed.  Each
request is timed from the moment it was *due*, not from when the
generator got round to submitting it, so a generator stall shows up as
latency of the requests behind it; the generator's own lateness is
reported separately.  ``repro.serve.loadgen`` stamps at actual
submission instead, which is why the benchmark does not use it.

Three phases run back to back after an unmeasured warm-up burst, each
drained before the next starts.
Every server of a run serves the same ladder; pooled over a run's untraced
servers, each phase has at least ten samples beyond its p99.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: p99 latency limit (ms) of a sustained rate; the serving bench's SLO.
SERVE_P99_SLO_MS = 250.0
#: the measured phases: offered rate (req/s) and requests per server
#: (about 1.25, 0.65 and 0.65 s); ``high`` is near two replicas'
#: saturation.  Short, so that a run starts many servers: a server's
#: latency settles at one of two levels for most of its life (its
#: replicas' BLAS threads contend or not), and only many servers average
#: them.  Pooled over ``MIN_SERVERS`` servers, each phase has at least
#: 1000 requests, so at least ten samples beyond its p99.
RATES = (("low", 200.0, 250), ("mid", 400.0, 260), ("high", 800.0, 520))
MIN_SERVERS = 4
#: an unmeasured burst first, so each server's start-up transient (both
#: replicas' first batches) stays out of the low phase.
WARMUP = ("warmup", 400.0, 100)
#: distinct request tensors (repeats exercise the same-input logit check).
POOL_SIZE = 64
#: a request unanswered this long after its phase ends has failed.
RESPONSE_TIMEOUT_S = 60.0


def request_pool(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    """Standard-normal request tensors at the model's input shape."""
    return rng.standard_normal((POOL_SIZE,) + tuple(shape)).astype(dtype)


@dataclass
class PhaseSchedule:
    name: str
    rate: float
    #: due offsets (s) from the phase start, and pool indices.
    due: np.ndarray
    index: np.ndarray


def build_ladder(rng: np.random.Generator) -> list[PhaseSchedule]:
    """The warm-up, low, mid and high Poisson schedules over the pool."""
    plan = [WARMUP, *RATES]
    return [
        PhaseSchedule(
            name, rate,
            np.cumsum(rng.exponential(1.0 / rate, n)),
            rng.integers(0, POOL_SIZE, n),
        )
        for name, rate, n in plan
    ]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)])


@dataclass
class PhaseResult:
    name: str
    rate: float
    count: int
    failed: int
    latencies_ms: list[float]
    lateness_ms: list[float]
    p50_ms: float
    p99_ms: float
    #: answered requests per second, first due time to last response.
    completed_rps: float
    #: requests still unanswered when the last one was submitted.
    backlog: int

    @property
    def sustained(self) -> bool:
        """Meets the p99 limit with no failure and no growing backlog."""
        return (self.failed == 0 and self.p99_ms <= SERVE_P99_SLO_MS
                and self.backlog <= self.rate * SERVE_P99_SLO_MS / 1e3)


@dataclass
class LadderResult:
    #: the measured phases (low, mid, high); ``warmup`` is not one of them.
    phases: list[PhaseResult] = field(default_factory=list)
    warmup: PhaseResult | None = None
    mismatched: int = 0
    logit_digest: str = ""
    t_start: float = 0.0
    t_end: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(p.count for p in self.phases) + self.warmup.count

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.phases) + self.warmup.failed

    @property
    def gen_late_p99_ms(self) -> float:
        return percentile([x for p in self.phases for x in p.lateness_ms], 99)


def pool_phases(ladders: list[LadderResult]) -> list[PhaseResult]:
    """Each phase over several servers: percentiles over all requests,
    the median answered rate and the largest backlog."""
    pooled = []
    for k, first in enumerate(ladders[0].phases):
        phases = [lad.phases[k] for lad in ladders]
        latencies = [x for p in phases for x in p.latencies_ms]
        pooled.append(PhaseResult(
            name=first.name,
            rate=first.rate,
            count=sum(p.count for p in phases),
            failed=sum(p.failed for p in phases),
            latencies_ms=latencies,
            lateness_ms=[x for p in phases for x in p.lateness_ms],
            p50_ms=percentile(latencies, 50),
            p99_ms=percentile(latencies, 99),
            completed_rps=statistics.median(p.completed_rps for p in phases),
            backlog=max(p.backlog for p in phases),
        ))
    return pooled


def sustained_rps(phases: list[PhaseResult]) -> float:
    """Answered rate of the highest phase that meets the limit (0 if none)."""
    ok = [p.completed_rps for p in phases if p.sustained]
    return ok[-1] if ok else 0.0


def run_ladder(server, pool: np.ndarray, ladder: list[PhaseSchedule],
               reference: dict[int, bytes] | None = None) -> LadderResult:
    """Drive every phase; check each response against earlier responses
    to the same pool tensor (the fixed-slot padding contract)."""
    reference = {} if reference is None else reference
    out = LadderResult()
    out.warmup = _run_phase(server, pool, ladder[0], reference, out)
    out.t_start = time.perf_counter()
    for phase in ladder[1:]:
        out.phases.append(_run_phase(server, pool, phase, reference, out))
    out.t_end = time.perf_counter()
    digest = hashlib.sha256()
    for index in sorted(reference):
        digest.update(reference[index])
    out.logit_digest = digest.hexdigest()[:16]
    return out


def _run_phase(server, pool, phase: PhaseSchedule, reference, out) -> PhaseResult:
    n = len(phase.due)
    futures: list = [None] * n
    lateness = np.empty(n)
    base = time.perf_counter() + 0.02
    due_at = base + phase.due
    for i in range(n):
        delay = due_at[i] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lateness[i] = time.perf_counter() - due_at[i]
        try:
            futures[i] = server.submit(pool[phase.index[i]])
        except Exception as exc:  # a refused request fails, never aborts
            futures[i] = exc
    backlog = sum(1 for f in futures if not isinstance(f, Exception) and not f.done())
    deadline = time.perf_counter() + RESPONSE_TIMEOUT_S
    latencies, failed, last_done = [], 0, base
    for i, fut in enumerate(futures):
        try:
            if isinstance(fut, Exception):
                raise fut
            logits = fut.result(timeout=max(0.0, deadline - time.perf_counter()))
        except Exception:
            failed += 1
            latencies.append(RESPONSE_TIMEOUT_S * 1e3)
            continue
        key = int(phase.index[i])
        blob = np.ascontiguousarray(logits).tobytes()
        if reference.setdefault(key, blob) != blob:
            failed += 1
            out.mismatched += 1
            latencies.append(RESPONSE_TIMEOUT_S * 1e3)
            continue
        latencies.append((fut.t_done - due_at[i]) * 1e3)
        last_done = max(last_done, fut.t_done)
    answered = n - failed
    return PhaseResult(
        name=phase.name,
        rate=phase.rate,
        count=n,
        failed=failed,
        latencies_ms=latencies,
        lateness_ms=(lateness * 1e3).tolist(),
        p50_ms=percentile(latencies, 50),
        p99_ms=percentile(latencies, 99),
        completed_rps=answered / (last_done - due_at[0]) if answered else 0.0,
        backlog=backlog,
    )
