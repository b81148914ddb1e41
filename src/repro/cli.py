"""Command-line interface: run experiments without writing Python.

Examples::

    python -m repro run --model resnet12 --policy remap-d --epochs 8
    python -m repro run --model vgg11 --train-workers 2 --grad-shards 4
    python -m repro compare --model vgg11 --policies ideal none remap-d
    python -m repro sweep --models vgg11 resnet12 --seeds 1 2 \\
        --workers 4 --timeout 900 --resume sweep.jsonl
    python -m repro overheads
    python -m repro bist --sa0 150 --sa1 20
    python -m repro report run.jsonl --chrome-trace run.chrome.json
    python -m repro serve --bench --mode open --rate 300 --duration 5 \\
        --replicas 2 --out serve.json

Every command prints plain-text tables (and, where helpful, ASCII bars)
so the tool is usable over ssh on the machine actually running the sims.

Experiment commands run against a :class:`repro.telemetry.Telemetry`
sink: live events echo to stderr (suppressed by ``--quiet``), the final
tables render from the aggregated summary, and ``--trace out.jsonl``
writes the full structured event trace.

``sweep`` fans a model x policy x seed grid across worker processes via
:func:`repro.runner.run_experiments` and exposes the runner's resilience
surface: ``--timeout`` (per-cell wall clock), ``--retries`` (crash/
timeout retry budget) and ``--resume PATH`` (JSONL checkpoint; finished
cells are skipped when the command is re-run after an interrupt).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.controller import run_experiment
from repro.core.policies import POLICY_NAMES
from repro.nn.data import DATASET_NAMES
from repro.nn.models import MODEL_NAMES
from repro.analog import ANALOG_PRESETS, make_analog_config
from repro.telemetry import Telemetry
from repro.utils.charts import render_bars
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)
from repro.utils.tabulate import render_table

__all__ = ["main", "build_parser"]


def _training_args(parser: argparse.ArgumentParser) -> None:
    """Knobs shared by every experiment-running command."""
    parser.add_argument("--dataset", choices=DATASET_NAMES,
                        default="synth-cifar10")
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--n-train", type=int, default=512)
    parser.add_argument("--n-test", type=int, default=192)
    parser.add_argument("--width-mult", type=float, default=0.125)
    parser.add_argument("--crossbar-size", type=int, default=32,
                        help="crossbar rows=cols (paper: 128)")
    parser.add_argument("--no-pre-faults", action="store_true")
    parser.add_argument("--no-post-faults", action="store_true")
    parser.add_argument("--post-m", type=float, default=0.005,
                        help="new-cell fraction per hit crossbar per epoch")
    parser.add_argument("--post-n", type=float, default=0.01,
                        help="fraction of crossbars hit per epoch")
    parser.add_argument("--remap-threshold", type=float, default=0.001)
    parser.add_argument("--wave-epoch", type=int, default=None,
                        help="inject a spare-exhausting chaos fault wave "
                             "after this epoch (default: no wave)")
    parser.add_argument("--wave-chip", type=int, default=0,
                        help="fleet chip the wave saturates (clamped to "
                             "the last chip)")
    parser.add_argument("--wave-density", type=float, default=0.05,
                        help="extra stuck-cell fraction per crossbar the "
                             "wave injects")
    parser.add_argument("--analog", choices=sorted(ANALOG_PRESETS),
                        default="off",
                        help="analog non-ideality preset: DAC/ADC "
                             "quantization, conductance mapping, IR drop, "
                             "soft errors + scrubbing (see repro.analog; "
                             "'off' = the ideal-converter baseline)")
    parser.add_argument("--train-workers", type=int, default=0,
                        help="data-parallel training ranks (0 = single "
                             "process; at most --grad-shards)")
    parser.add_argument("--grad-shards", type=int, default=4,
                        help="micro-shards per batch for data-parallel "
                             "training; part of the numerical recipe, so "
                             "results depend on it but not on the worker "
                             "count")


def _output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quiet", action="store_true",
                        help="suppress live telemetry echo and ASCII bars")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write the structured event trace as JSONL")
    parser.add_argument("--profile", action="store_true",
                        help="per-layer forward/backward spans, MVM "
                             "counters and per-step timing (adds per-batch "
                             "overhead; off by default)")
    parser.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="serve live metrics over HTTP: /metrics is "
                             "Prometheus text exposition, /snapshot.json "
                             "feeds `repro top` (0 = pick a free port)")
    parser.add_argument("--alert", action="append", default=None,
                        metavar="RULE", dest="alerts",
                        help="SLO rule like 'serve.p99_ms < 250' or "
                             "'faults.active_density < 0.05'; repeatable. "
                             "A breach prints to stderr, lands in the "
                             "trace as alert_fired and turns the exit "
                             "code to 3")
    parser.add_argument("--flight-dir", metavar="DIR", default=None,
                        help="keep per-process flight recorders dumping "
                             "recent events to DIR/flight_<pid>.jsonl for "
                             "crash post-mortems")


def _make_monitor(tel: Telemetry, args: argparse.Namespace):
    """The live monitoring plane for one command (None when not asked for).

    Any of ``--metrics-port``, ``--alert`` or ``--flight-dir`` switches it
    on; the streaming aggregator itself rides along for free (workers see
    its address in the environment and attach).
    """
    from repro.telemetry.live import LiveMonitor
    from repro.telemetry.rules import parse_rules

    alerts = getattr(args, "alerts", None)
    if (args.metrics_port is None and not alerts
            and not getattr(args, "flight_dir", None)):
        return None
    try:
        rules = parse_rules(alerts)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    monitor = LiveMonitor(
        tel,
        metrics_port=args.metrics_port,
        rules=rules,
        flight_dir=getattr(args, "flight_dir", None),
        stream=None if args.quiet else sys.stderr,
    )
    if monitor.http is not None and not args.quiet:
        print(f"metrics: {monitor.http.url}/metrics "
              f"(repro top --url {monitor.http.url})", file=sys.stderr)
    return monitor


def _monitor_exit(monitor, base: int = 0) -> int:
    """Close the monitor and fold the SLO verdict into the exit code."""
    if monitor is None:
        return base
    monitor.close()
    return monitor.exit_code(base)


def _experiment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=MODEL_NAMES, default="resnet12")
    _training_args(parser)
    parser.add_argument("--chips", type=int, default=1,
                        help="shard the model across a fleet of N "
                             "simulated chips (pipeline placement + "
                             "cross-chip eviction; 1 = a fleet of one, the "
                             "paper's single chip)")
    parser.add_argument("--seed", type=int, default=1)
    _output_args(parser)


def _build_config(args: argparse.Namespace, model: str, policy: str,
                  seed: int, policy_param: float = 0.0,
                  chips: int | None = None) -> ExperimentConfig:
    if chips is None:
        chips = getattr(args, "chips", 1)
    return ExperimentConfig(
        train=TrainConfig(
            model=model,
            dataset=args.dataset,
            epochs=args.epochs,
            batch_size=args.batch_size,
            n_train=args.n_train,
            n_test=args.n_test,
            width_mult=args.width_mult,
            data_parallel=args.train_workers,
            grad_shards=args.grad_shards,
        ),
        chip=ChipConfig(
            crossbar=CrossbarConfig(rows=args.crossbar_size,
                                    cols=args.crossbar_size)
        ),
        faults=FaultConfig(
            pre_enabled=not args.no_pre_faults,
            post_enabled=not args.no_post_faults,
            post_m=args.post_m,
            post_n=args.post_n,
            wave_epoch=args.wave_epoch,
            wave_chip=args.wave_chip,
            wave_density=args.wave_density,
        ),
        policy=policy,
        policy_param=policy_param,
        remap_threshold=args.remap_threshold,
        analog=make_analog_config(getattr(args, "analog", "off")),
        chips=chips,
        seed=seed,
    )


def _config_from(args: argparse.Namespace, policy: str,
                 policy_param: float = 0.0) -> ExperimentConfig:
    return _build_config(args, args.model, policy, args.seed, policy_param)


def _make_telemetry(args: argparse.Namespace) -> Telemetry:
    """One sink per CLI invocation: echo unless quiet, stderr only."""
    tel = Telemetry(echo=not args.quiet, stream=sys.stderr)
    tel.profile = bool(getattr(args, "profile", False))
    return tel


def _finish_trace(tel: Telemetry, args: argparse.Namespace) -> None:
    if args.trace:
        tel.dump_jsonl(args.trace)
        if not args.quiet:
            print(f"trace: {len(tel.events)} events -> {args.trace}",
                  file=sys.stderr)


def _telemetry_rows(summary: dict) -> list[list]:
    """Counter, span and histogram rows from an aggregated summary."""
    rows: list[list] = []
    for name, value in sorted(summary.get("counters", {}).items()):
        rows.append([name, value, ""])
    for name, agg in sorted(summary.get("spans", {}).items()):
        rows.append(
            [f"span:{name}", agg["count"], f"{agg['seconds']:.2f}s total"]
        )
    for name, h in sorted(summary.get("histograms", {}).items()):
        rows.append([
            f"hist:{name}", h["count"],
            f"p50={h['p50']:.4g} p90={h['p90']:.4g} "
            f"p99={h['p99']:.4g} max={h['max']:.4g}",
        ])
    return rows


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from(args, args.policy, args.policy_param)
    tel = _make_telemetry(args)
    monitor = _make_monitor(tel, args)
    try:
        result = run_experiment(config, telemetry=tel)
    except BaseException:
        _monitor_exit(monitor)
        raise
    print(render_table(
        ["model", "dataset", "policy", "final acc", "remaps", "chip density"],
        [result.summary_row()],
        title="experiment result",
        ndigits=4,
    ))
    print()
    print(render_table(
        ["counter / span", "value", "detail"],
        _telemetry_rows(result.telemetry),
        title="run telemetry",
    ))
    if not args.quiet:
        curve = result.train_result.accuracy_curve()
        print()
        print(render_bars(
            [f"epoch {i}" for i in range(len(curve))], curve,
            title="test accuracy per epoch", vmax=1.0,
        ))
    code = _monitor_exit(monitor)
    _finish_trace(tel, args)
    return code


def _cmd_compare(args: argparse.Namespace) -> int:
    tel = _make_telemetry(args)
    rows = []
    accs = []
    for policy in args.policies:
        # Per-policy child sink (its result summary covers that run
        # alone), merged into the invocation sink tagged by policy.
        run_tel = Telemetry(echo=False)
        run_tel.profile = tel.profile
        result = run_experiment(_config_from(args, policy), telemetry=run_tel)
        tel.merge(run_tel, tag=policy)
        tel.event("policy_done", policy=policy,
                  final_accuracy=result.final_accuracy,
                  num_remaps=result.num_remaps)
        rows.append([policy, result.final_accuracy, result.num_remaps])
        accs.append(result.final_accuracy)
    print(render_table(
        ["policy", "final accuracy", "remaps"], rows,
        title=f"policy comparison ({args.model}, {args.dataset})",
        ndigits=3,
    ))
    if not args.quiet:
        print()
        print(render_bars(args.policies, accs, vmax=1.0))
    _finish_trace(tel, args)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import time as _time

    from repro.runner import ExperimentCell, results_by_key, run_experiments

    tel = _make_telemetry(args)
    monitor = _make_monitor(tel, args)
    cells = [
        ExperimentCell(
            (model, policy, seed, chips),
            _build_config(args, model, policy, seed, chips=chips),
        )
        for model in args.models
        for policy in args.policies
        for seed in args.seeds
        for chips in args.chips
    ]
    total = len(cells)
    done = 0
    t_start = _time.perf_counter()
    if monitor is not None:
        monitor.set_gauge("sweep.total", total)
        monitor.set_gauge("sweep.done", 0)

    def _progress(res) -> None:
        nonlocal done
        done += 1
        status = "ok" if res.ok else "FAILED"
        if res.restored:
            status += " (cached)"
        elif res.attempts > 1:
            status += f" (retried x{res.attempts - 1})"
        # Throughput from completed-cell wall clock; the ETA assumes the
        # remaining cells sustain the observed completion rate.
        elapsed = max(_time.perf_counter() - t_start, 1e-9)
        rate = done / elapsed
        eta = (total - done) / rate
        if monitor is not None:
            monitor.set_gauge("sweep.done", done)
            monitor.set_gauge("sweep.rate_cells_per_s", round(rate, 4))
            monitor.set_gauge("sweep.eta_seconds", round(eta, 1))
        if not args.quiet:
            print(
                f"  [{done:>{len(str(total))}}/{total}] {res.key}: {status} "
                f"({res.wall_seconds:.1f}s) | {rate:.2f} cells/s, "
                f"~{eta:.0f}s left",
                file=sys.stderr,
            )

    try:
        results = run_experiments(
            cells,
            workers=args.workers,
            on_result=_progress,
            telemetry=tel,
            timeout=args.timeout,
            retry=args.retries,
            checkpoint=args.resume,
        )
    except BaseException:
        _monitor_exit(monitor)
        raise
    by_key = results_by_key(results)
    rows = []
    for model in args.models:
        for policy in args.policies:
            for seed in args.seeds:
                for chips in args.chips:
                    res = by_key[(model, policy, seed, chips)]
                    remaps = res.result.num_remaps if res.ok else "-"
                    evictions = res.result.num_evictions if res.ok else "-"
                    status = "cached" if res.restored else (
                        "ok" if res.ok else "FAILED"
                    )
                    rows.append([model, policy, seed, chips,
                                 res.final_accuracy, remaps, evictions,
                                 status])
    print(render_table(
        ["model", "policy", "seed", "chips", "final acc", "remaps",
         "evictions", "status"],
        rows,
        title=f"sweep ({total} cells, dataset {args.dataset})",
        ndigits=4,
    ))
    print()
    print(render_table(
        ["counter / span", "value", "detail"],
        _telemetry_rows(tel.summary()),
        title="sweep telemetry",
    ))
    failures = [r for r in results if not r.ok]
    for res in failures:
        print(f"\ncell {res.key!r} failed:\n{res.error}", file=sys.stderr)
    code = _monitor_exit(monitor, 1 if failures else 0)
    _finish_trace(tel, args)
    return code


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry.report import build_report, load_trace, render_report
    from repro.telemetry.trace import export_chrome_trace

    try:
        events, summary = load_trace(args.trace_file)
    except OSError as exc:
        print(f"error: cannot read trace {args.trace_file!r}: {exc}",
              file=sys.stderr)
        return 2
    if not events and not summary:
        print(f"error: {args.trace_file!r} contains no telemetry records",
              file=sys.stderr)
        return 2
    report = build_report(events, summary)
    print(render_report(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, default=str)
        print(f"report: -> {args.json}", file=sys.stderr)
    if args.chrome_trace:
        export_chrome_trace(
            events, args.chrome_trace,
            base_epoch=(summary or {}).get("epoch"),
            epochs=(summary or {}).get("source_epochs"),
        )
        print(f"chrome trace: -> {args.chrome_trace} "
              "(load in Perfetto / chrome://tracing)", file=sys.stderr)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live terminal dashboard over a running command's metrics endpoint.

    Polls ``<url>/snapshot.json`` (the JSON twin of ``/metrics``) and
    redraws in place.  A connection failure renders as "waiting" rather
    than exiting — `repro top` is typically started before (or racing)
    the command it watches.
    """
    import json
    import time
    import urllib.error
    import urllib.request

    from repro.telemetry.live import render_top

    url = args.url.rstrip("/")
    if "://" not in url:
        url = f"http://{url}"
    endpoint = f"{url}/snapshot.json"
    interval = max(0.2, args.interval)
    misses = 0
    try:
        while True:
            try:
                with urllib.request.urlopen(endpoint, timeout=5.0) as resp:
                    snapshot = json.loads(resp.read().decode("utf-8"))
                frame = render_top(snapshot)
                misses = 0
            except (urllib.error.URLError, OSError, ValueError) as exc:
                misses += 1
                if args.once or misses > args.max_misses:
                    print(f"error: cannot reach {endpoint}: {exc}",
                          file=sys.stderr)
                    return 2
                frame = f"waiting for {endpoint} ({exc})"
            if args.once:
                print(frame)
                return 0
            # Clear + home, not alt-screen: the last frame stays in the
            # scrollback after ^C, which is what you want from a monitor.
            sys.stdout.write("\x1b[2J\x1b[H")
            sys.stdout.write(
                f"repro top — {endpoint} — "
                f"{time.strftime('%H:%M:%S')}\n\n{frame}\n"
            )
            sys.stdout.flush()
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0


class _GracefulExit(Exception):
    """Raised by the serve signal handlers to unwind into the drain path."""


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the inference service (optionally driving benchmark load).

    SIGTERM and SIGINT both take the graceful path: stop accepting new
    requests, finish every queued and in-flight batch, flush the
    telemetry trace, exit 0.
    """
    import json
    import signal
    import time
    from dataclasses import replace

    from repro.serve import InferenceServer, ServeConfig, run_loadgen

    config = _config_from(args, args.policy)
    # Pin the inference batch to the serving slot count so evaluate() and
    # the serving plane share the exact same GEMM shapes.
    config = replace(
        config, train=replace(config.train, eval_batch=args.max_batch)
    )
    serve_cfg = ServeConfig(
        max_batch=args.max_batch,
        max_wait_us=args.max_wait_us,
        replicas=args.replicas,
        workers=args.replica_workers,
        chaos=args.chaos,
    )
    tel = _make_telemetry(args)
    monitor = _make_monitor(tel, args)
    server = InferenceServer(config, serve_cfg, telemetry=tel)
    if not args.quiet:
        print(
            f"serving {args.model} on {args.replicas} replica(s) "
            f"({'process' if args.replica_workers else 'in-process'}), "
            f"max_batch={args.max_batch} max_wait={args.max_wait_us:.0f}us",
            file=sys.stderr,
        )

    def _on_signal(signum, frame):
        raise _GracefulExit()

    old_term = signal.signal(signal.SIGTERM, _on_signal)
    old_int = signal.signal(signal.SIGINT, _on_signal)
    result = None
    interrupted = False
    try:
        if args.bench:
            result = run_loadgen(
                server,
                mode=args.mode,
                rate=args.rate,
                concurrency=args.concurrency,
                duration_s=args.duration,
                seed=args.seed,
            )
        else:
            # Idle service mode: hold the replicas hot until a signal
            # (or --duration elapses); callers drive via the API.
            t_end = (time.perf_counter() + args.duration
                     if args.duration > 0 else None)
            while t_end is None or time.perf_counter() < t_end:
                time.sleep(0.2)
    except _GracefulExit:
        interrupted = True
        if not args.quiet:
            print("signal received: draining in-flight requests...",
                  file=sys.stderr)
    finally:
        server.close(drain=True)
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)

    counters = tel.counters
    rows = [
        ["completed requests", counters.get("serve.completed", 0), ""],
        ["failed requests", counters.get("serve.failed", 0), ""],
        ["batches", counters.get("serve.batches", 0), ""],
        ["retries (replica deaths)", counters.get("serve.retries", 0), ""],
        ["online remaps", counters.get("serve.remaps_online", 0), ""],
        ["drained on shutdown", "yes" if interrupted else "n/a", ""],
    ]
    hits = counters.get("engine.cache_hits", 0)
    misses = counters.get("engine.cache_misses", 0)
    if hits + misses:
        rows.append(["engine cache hit-rate",
                     f"{100 * hits / (hits + misses):.1f}%",
                     f"{hits} hits / {misses} misses"])
    if result is not None:
        lat = result.latency_ms
        rows.extend([
            ["mode", result.mode,
             (f"rate={result.offered_rate}/s" if result.mode == "open"
              else f"concurrency={result.concurrency}")],
            ["throughput", f"{result.throughput_rps:.1f} req/s",
             f"{result.completed} in {result.duration_s:.2f}s"],
            ["latency p50/p90/p99 (ms)",
             f"{lat.get('p50', 0):.2f} / {lat.get('p90', 0):.2f} / "
             f"{lat.get('p99', 0):.2f}",
             f"max={lat.get('max', 0):.2f}"],
        ])
    print(render_table(["quantity", "value", "detail"], rows,
                       title="serving summary"))
    if result is not None and args.out:
        payload = {
            "model": args.model,
            "policy": args.policy,
            "serve": {
                "max_batch": args.max_batch,
                "max_wait_us": args.max_wait_us,
                "replicas": args.replicas,
                "workers": args.replica_workers,
            },
            "load": result.to_dict(),
            "counters": {k: v for k, v in sorted(counters.items())},
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        if not args.quiet:
            print(f"results: -> {args.out}", file=sys.stderr)
    code = _monitor_exit(monitor)
    _finish_trace(tel, args)
    return code


def _cmd_overheads(args: argparse.Namespace) -> int:
    from repro.area.models import bist_area_overhead, policy_area_overhead
    from repro.bist.march import march_cost_cycles
    from repro.bist.timing import BistTiming

    chip = ChipConfig()
    timing = BistTiming(chip.crossbar)
    rows = [
        ["BIST pass (ReRAM cycles)", timing.total_cycles, "260"],
        ["March C- pass (ReRAM cycles)", march_cost_cycles(chip.crossbar),
         "(rejected: ~5x BIST)"],
        ["BIST pass (us)", timing.pass_time_ns / 1000, "26"],
        ["BIST area", f"{100 * bist_area_overhead(chip):.2f}%", "0.61%"],
        ["AN-code area", f"{100 * policy_area_overhead('an-code', chip):.1f}%",
         "6.3%"],
        ["Remap-T-10% area",
         f"{100 * policy_area_overhead('remap-t', chip):.1f}%", "~10%"],
    ]
    print(render_table(["quantity", "model", "paper"], rows,
                       title="hardware overheads (128x128 RCS)"))
    return 0


def _cmd_bist(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.bist.density import run_bist
    from repro.faults.types import FaultMap, FaultType
    from repro.utils.rng import derive_rng

    cfg = CrossbarConfig(rows=args.crossbar_size, cols=args.crossbar_size)
    # Validate the fault budget up front: rng.choice would otherwise die
    # with an opaque "Cannot take a larger sample than population" error.
    if args.sa0 < 0 or args.sa1 < 0:
        print("error: --sa0 and --sa1 must be non-negative", file=sys.stderr)
        return 2
    total = args.sa0 + args.sa1
    if total > cfg.cells:
        print(
            f"error: --sa0 {args.sa0} + --sa1 {args.sa1} = {total} faults "
            f"exceed the {cfg.rows}x{cfg.cols} crossbar's {cfg.cells} cells; "
            f"lower the counts or raise --crossbar-size",
            file=sys.stderr,
        )
        return 2
    rng = derive_rng(args.seed, "cli-bist")
    fm = FaultMap(cfg.rows, cfg.cols)
    cells = rng.choice(cfg.cells, size=args.sa0 + args.sa1, replace=False)
    fm.inject(cells[: args.sa0], FaultType.SA0)
    fm.inject(cells[args.sa0:], FaultType.SA1)
    res = run_bist(fm, cfg, rng)
    print(render_table(
        ["", "SA0", "SA1", "density"],
        [
            ["injected", args.sa0, args.sa1, f"{fm.density:.4%}"],
            ["BIST estimate", res.sa0_count, res.sa1_count,
             f"{res.density:.4%}"],
        ],
        title=f"BIST on a {cfg.rows}x{cfg.cols} crossbar",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Remap-D reproduction: fault-tolerant CNN training "
                    "on simulated ReRAM crossbars",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _experiment_args(p_run)
    p_run.add_argument("--policy", choices=POLICY_NAMES, default="remap-d")
    p_run.add_argument("--policy-param", type=float, default=0.0)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare mitigation policies")
    _experiment_args(p_cmp)
    p_cmp.add_argument("--policies", nargs="+", choices=POLICY_NAMES,
                       default=["ideal", "none", "remap-d"])
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser(
        "sweep",
        help="fan a model x policy x seed grid across worker processes "
             "(resumable: --resume / --timeout / --retries)",
    )
    p_sweep.add_argument("--models", nargs="+", choices=MODEL_NAMES,
                         default=["resnet12"])
    p_sweep.add_argument("--policies", nargs="+", choices=POLICY_NAMES,
                         default=["ideal", "none", "remap-d"])
    p_sweep.add_argument("--seeds", nargs="+", type=int, default=[1])
    p_sweep.add_argument("--chips", nargs="+", type=int, default=[1],
                         help="chip counts to grid over (fleet sweeps: "
                              "chip count x fault rate x policy)")
    _training_args(p_sweep)
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: "
                              "REPRO_BENCH_WORKERS, serial)")
    p_sweep.add_argument("--timeout", type=float, default=None,
                         help="per-cell wall-clock timeout in seconds; a "
                              "worker past its deadline is killed and the "
                              "cell retried (default: REPRO_BENCH_TIMEOUT)")
    p_sweep.add_argument("--retries", type=int, default=None,
                         help="retries per crashed/timed-out cell "
                              "(default: REPRO_BENCH_RETRIES, 2)")
    p_sweep.add_argument("--resume", metavar="PATH", default=None,
                         help="JSONL checkpoint file: finished cells are "
                              "appended as they complete and skipped when "
                              "the sweep is re-run")
    _output_args(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_rep = sub.add_parser(
        "report",
        help="render a --trace JSONL file as a terminal dashboard "
             "(span tree, latency percentiles, chip-health timeline)",
    )
    p_rep.add_argument("trace_file", metavar="TRACE",
                       help="JSONL trace written by --trace")
    p_rep.add_argument("--json", metavar="PATH", default="report.json",
                       help="write the machine-readable report here "
                            "(default: report.json; '' to skip)")
    p_rep.add_argument("--chrome-trace", metavar="PATH", default=None,
                       help="also export Chrome trace-event JSON for "
                            "Perfetto / chrome://tracing")
    p_rep.set_defaults(func=_cmd_report)

    p_srv = sub.add_parser(
        "serve",
        help="run the micro-batched, degradation-aware inference service "
             "(--bench drives open/closed-loop load and reports p50/p90/p99)",
    )
    _experiment_args(p_srv)
    p_srv.add_argument("--policy", choices=POLICY_NAMES, default="remap-d")
    p_srv.add_argument("--max-batch", type=int, default=32,
                       help="serving slot count: every forward runs at "
                            "this fixed batch shape (bit-determinism)")
    p_srv.add_argument("--max-wait-us", type=float, default=2000.0,
                       help="micro-batcher coalescing budget after the "
                            "first request of a batch")
    p_srv.add_argument("--replicas", type=int, default=1)
    p_srv.add_argument("--replica-workers", action="store_true",
                       help="run replicas as persistent worker processes "
                            "with shared-memory tensor transport")
    p_srv.add_argument("--chaos", metavar="SPEC", default=None,
                       help="inject a mid-traffic fault wave, e.g. "
                            "'faults:20' after 20 batches (also via the "
                            "REPRO_SERVE_CHAOS env var)")
    p_srv.add_argument("--bench", action="store_true",
                       help="drive load and report latency percentiles")
    p_srv.add_argument("--mode", choices=["open", "closed"], default="open",
                       help="open: Poisson arrivals at --rate; closed: "
                            "--concurrency blocked clients")
    p_srv.add_argument("--rate", type=float, default=200.0,
                       help="open-loop offered rate (req/s)")
    p_srv.add_argument("--concurrency", type=int, default=8,
                       help="closed-loop client count")
    p_srv.add_argument("--duration", type=float, default=5.0,
                       help="bench duration / service lifetime in seconds "
                            "(0 = until SIGTERM, service mode only)")
    p_srv.add_argument("--out", metavar="PATH", default=None,
                       help="write bench results JSON here")
    p_srv.set_defaults(func=_cmd_serve)

    p_top = sub.add_parser(
        "top",
        help="live dashboard over a --metrics-port endpoint: sweep "
             "progress + ETA, SLO alerts, latency percentiles, fleet "
             "health, refreshing in place",
    )
    p_top.add_argument("--url", default="http://127.0.0.1:9090",
                       help="metrics endpoint base URL (or host:port) of "
                            "the run/sweep/serve being watched")
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="refresh period in seconds")
    p_top.add_argument("--once", action="store_true",
                       help="print a single frame and exit (no ANSI "
                            "clearing; for scripts and tests)")
    p_top.add_argument("--max-misses", type=int, default=30,
                       help="consecutive failed polls tolerated before "
                            "giving up (the watched process may still be "
                            "starting)")
    p_top.set_defaults(func=_cmd_top)

    p_ovh = sub.add_parser("overheads", help="print hardware overheads")
    p_ovh.set_defaults(func=_cmd_overheads)

    p_bist = sub.add_parser("bist", help="BIST a synthetic faulty crossbar")
    p_bist.add_argument("--sa0", type=int, default=150)
    p_bist.add_argument("--sa1", type=int, default=20)
    p_bist.add_argument("--crossbar-size", type=int, default=128)
    p_bist.add_argument("--seed", type=int, default=0)
    p_bist.set_defaults(func=_cmd_bist)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
