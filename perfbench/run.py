"""Run one benchmark workload (or all of them) against the repo's program.

Usage, from the repository root::

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all                 # every workload

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that reports the per-layer metrics.  The run prints a
machine fingerprint, one row per metric with its unit and sample count,
the operations attempted and failed, each correctness check, and as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (and, traced, every span) is written to
``.perfbench_out/`` at the repository root.  The run's digest of
simulated statistics is held to the one ``digests.json`` recorded for the
workload and seed on the same platform.

The BLAS thread variables are recorded as found and never set: pinning
them would hide the worker oversubscription the parallel workloads pay.
"""

from __future__ import annotations

import os

# Recorded before NumPy loads and before the program touches them.
_BLAS_ENV = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
#: recorded digests of simulated statistics, by workload and seed.
REFERENCE = pathlib.Path(__file__).resolve().parent / "digests.json"
#: fingerprint fields the digests depend on: kernels, rank and replica
#: counts, and the compute dtype.
PLATFORM_KEYS = ("nproc", "numpy", "blas", "blas_core", "OPENBLAS_NUM_THREADS",
                 "OMP_NUM_THREADS", "dtype")
#: the workloads BENCHMARK.json lists (what ``--workload all`` runs).
WORKLOAD_NAMES = ("train", "train-dp", "serve", "sweep")
OPERATION = {"train": "epoch", "train-dp": "epoch", "serve": "request",
             "sweep": "cell"}


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and import it there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def _blas_core() -> str:
    """The kernel set NumPy's bundled OpenBLAS picked for this CPU."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_",
                       "scipy_openblas_get_corename", "openblas_get_corename"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return "unknown"


def fingerprint(dtype: str) -> dict:
    """The machine and runtime every result is recorded with."""
    import multiprocessing as mp

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_core": _blas_core(),
        "OPENBLAS_NUM_THREADS": _BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": _BLAS_ENV["OMP_NUM_THREADS"],
        "dtype": dtype,
        # The start method the runner, dp ranks and serve replicas pick.
        "start_method": "fork" if "fork" in mp.get_all_start_methods() else "spawn",
    }


def reference_check(workload: str, seed: int, fp: dict,
                    digest: str) -> tuple[bool, str]:
    """The run's digest against the one recorded for its workload and seed.

    Digests depend on the BLAS kernels and the rank and replica counts,
    so a reference recorded on another platform is not compared.
    """
    ref = json.loads(REFERENCE.read_text())
    platform = {k: fp[k] for k in PLATFORM_KEYS}
    if platform != ref["platform"]:
        return True, f"not compared: recorded on {ref['platform']}"
    recorded = ref["digests"].get(workload, {})
    if str(seed) not in recorded:
        return True, (f"not compared: no reference for seed {seed} "
                      f"(recorded: seeds {', '.join(sorted(recorded, key=int))})")
    expected = recorded[str(seed)]
    return digest == expected, f"{digest}, recorded {expected}"


def _print_report(workload, args, fp, outcome, dropped) -> None:
    mode = "traced" if args.trace else "tracing off"
    print(f"== perfbench {workload}: seed {args.seed}, "
          f"{args.seconds} s window, {mode} ==")
    print("machine: " + " | ".join(f"{k} {v}" for k, v in fp.items()))
    if dropped:
        print("ignored program variables: " + ", ".join(dropped))
    print(f"{'metric':<28}{'value':>14}  {'unit':<10} samples")
    for name, value, unit, samples in outcome.rows:
        print(f"{name:<28}{value:>14.6g}  {unit:<10} {samples}")
    if args.trace:
        print("per-layer:")
        for name, value in outcome.metrics.items():
            print(f"  {name:<32}{value:>14.6g}")
    else:
        print("gated (BENCHMARK.json): " + ", ".join(
            f"{name} {value:.6g}" for name, value in outcome.metrics.items()))
    print(f"operations: {outcome.attempted} attempted, {outcome.failed} failed "
          f"(one operation = one {OPERATION[workload]})")
    for name, (ok, detail) in outcome.checks.items():
        print(f"check {name:<24} {'ok' if ok else 'FAILED'}  {detail}")
    print(f"digest of simulated statistics: {outcome.digest}")


def run_one(args) -> int:
    _import_program()
    import workloads
    from layers import PER_LAYER

    fp = fingerprint(workloads.DTYPE)
    outcome = workloads.WORKLOADS[args.workload](
        args.seed, float(args.seconds), bool(args.trace))
    outcome.checks["digest_matches_reference"] = reference_check(
        args.workload, args.seed, fp, outcome.digest)
    if args.trace:
        # Every per-layer metric is reported; a layer the workload does
        # not reach in this process reads 0.
        outcome.metrics = {name: float(outcome.metrics.get(name, 0.0))
                           for name, _ in PER_LAYER}
    correct = all(ok for ok, _ in outcome.checks.values()) and outcome.failed == 0
    _print_report(args.workload, args, fp, outcome, args.dropped)
    units = dict(PER_LAYER) if args.trace else workloads.E2E_UNITS
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "fingerprint": fp, "digest": outcome.digest,
        "rows": outcome.rows, "checks": outcome.checks,
        "metrics": outcome.metrics,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str))
    if args.trace and outcome.tracer is not None:
        outcome.tracer.write_jsonl(str(stem.with_suffix(".spans.jsonl")))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome.metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    status = 0
    summary = []
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        try:
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            summary.append(f"{workload}: correct={last['correct']} "
                           f"attempted={last['attempted']} failed={last['failed']}")
        except (IndexError, ValueError, KeyError):
            summary.append(f"{workload}: no result (exit {proc.returncode})")
        print()
    print("\n".join(summary))
    return status


def _child_pids() -> list[int]:
    """Every live or unreaped process whose parent is this one."""
    me, out = os.getpid(), []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat, encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:  # ended while listed
            continue
        if int(fields[1]) == me:
            out.append(int(stat.split("/")[2]))
    return out


def _reap(pid: int, timeout: float) -> None:
    """Wait for child ``pid`` to end; kill it if it outlives ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:  # already reaped
            return
        if done:
            return
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)


def stop_processes(timeout: float = 30.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The program ends its own workers, ranks and replicas, but not the
    multiprocessing resource tracker its shared memory starts: that one
    would outlive this process until it noticed its pipe had closed.
    """
    import gc
    import multiprocessing as mp
    from multiprocessing import resource_tracker

    gc.collect()  # finalizers that release shared memory run now
    for proc in mp.active_children():
        proc.terminate()
        proc.join(timeout)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)  # the tracker exits once its pipe closes
        tracker._fd = None
    if getattr(tracker, "_pid", None) is not None:
        _reap(tracker._pid, timeout)
        tracker._pid = None
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        _reap(pid, timeout)


def _on_sigterm(signum, frame) -> None:
    """Unwind a terminated run, so the program and ``stop_processes`` clean
    up; its child processes are stopped first, so that no clean-up waits on
    a rank or replica that is still working."""
    import multiprocessing as mp

    for proc in mp.active_children():
        proc.terminate()
    sys.exit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The program's own knobs (worker counts, chaos hooks, live streaming)
    # would change what a workload runs; the benchmark runs without them.
    args.dropped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in args.dropped:
        del os.environ[key]
    if args.workload == "all":
        return run_all(args)
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        return run_one(args)
    finally:
        stop_processes()


if __name__ == "__main__":
    sys.exit(main())
