"""Golden per-check digests: what a correct pass must reproduce byte for byte.

A check fails when it errored, when its outcome is not ``ok``, or when the
canonical JSON of ``checks.<name>`` in ``report.json`` differs from the
recorded digest.  The whole-report digest covers every key but
``provenance``, which holds wall times and timestamps.

Regenerate with ``python3 perfbench/golden.py`` from the repository root; it
runs one pass of every workload and records the commit it ran at.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
GENERATOR = "python3 perfbench/golden.py"


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def without_provenance(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "provenance"}


def report_digests(report: dict) -> dict:
    """Digest of the report without ``provenance``, and one per check."""
    return {
        "report": digest(without_provenance(report)),
        "checks": {name: digest(c) for name, c in report["checks"].items()},
    }


def failed_checks(configured, got: dict, want: dict) -> list:
    """Names of configured checks that errored, are not ok, or whose digest
    differs from the golden one (a missing digest differs)."""
    bad = set(got["not_ok"])
    return [name for name in configured
            if name in bad or got["checks"].get(name) is None
            or got["checks"].get(name) != want.get("checks", {}).get(name)]


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    import worker
    from workloads import workloads

    reports = {}
    for name in workloads():
        res = worker.spawn(name, traced=False, timeout=600)
        if res is None:
            print(f"pass of {name} failed", file=sys.stderr)
            return 1
        for key, got in res["configs"].items():
            if got["not_ok"]:
                print(f"{key}: checks not ok: {got['not_ok']}", file=sys.stderr)
                return 1
            reports[key] = {"report": got["report"], "checks": got["checks"]}
    GOLDEN.write_text(json.dumps({
        "commit": _commit(),
        "generator": GENERATOR,
        "blas_threads": worker.BLAS_THREADS,
        "env": res["env"],
        "reports": reports,
    }, sort_keys=True, indent=1) + "\n")
    print(f"wrote {GOLDEN} ({len(reports)} configs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
