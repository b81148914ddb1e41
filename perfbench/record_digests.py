"""Rebuild ``digests.json`` from the records of untraced runs.

Usage, from the repository root, after untraced runs of every workload
on the seeds to record (each run leaves its record in ``.perfbench_out/``)::

    python3 perfbench/record_digests.py

Only records whose checks all passed count (the reference check aside,
since re-recording follows a change meant to alter the simulated
statistics).  All records must come from one platform, and the records of
one workload and seed must agree.
"""

from __future__ import annotations

import json
import sys

from run import OUT_DIR, PLATFORM_KEYS, REFERENCE


def main() -> int:
    platform = None
    digests: dict[str, dict[int, str]] = {}
    for path in sorted(OUT_DIR.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        if not all(ok for name, (ok, _) in record["checks"].items()
                   if name != "digest_matches_reference"):
            print(f"skipped {path.name}: a check failed")
            continue
        fp = {k: record["fingerprint"][k] for k in PLATFORM_KEYS}
        platform = platform or fp
        if fp != platform:
            raise SystemExit(f"{path.name}: recorded on {fp}, not {platform}")
        seen = digests.setdefault(record["workload"], {})
        prior = seen.setdefault(record["seed"], record["digest"])
        if prior != record["digest"]:
            raise SystemExit(f"{path.name}: digest {record['digest']} "
                             f"differs from {prior}")
    if platform is None:
        raise SystemExit(f"no untraced run records in {OUT_DIR}")
    table = {w: {str(k): v for k, v in sorted(d.items())}
             for w, d in sorted(digests.items())}
    REFERENCE.write_text(json.dumps({"platform": platform, "digests": table},
                                    indent=1) + "\n")
    for workload, seeds in table.items():
        print(f"{workload}: seeds {', '.join(seeds)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
