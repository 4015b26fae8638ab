"""formlab benchmark: end-to-end and per-layer metrics of one workload.

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 30 --trace 0

Runs passes of the workload, each in a fresh process, until the next pass
would end after ``--seconds`` (at least ``MIN_PASSES``).  Every pass is
checked against the golden digests.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the ``end_to_end`` metrics of ``BENCHMARK.json``.
  ``suite_s`` and ``setup_s`` are host-normalised seconds: over the segments
  of every config (set-up boundaries, checks, rendering, the rest) they sum
  the median, over passes, of the segment's time divided by the time of the
  reference probe gauged around it, times ``probe.P_REF_S``.  The host's
  speed drifts by 10-40% over seconds to minutes, so a raw pass total says
  as much about the host as about formlab (see ``NOTES.md``).
  ``peak_rss_mib`` is the median over passes;
* ``--trace 1``: traced and untraced passes alternate; the ``per_layer``
  metrics are low medians (an observed value, so counts stay whole) over the
  traced passes, and ``trace.overhead_s`` is the traced minus the untraced
  median ``suite_s``.

The lines before it print the environment, every metric by name and unit
(in a traced run also the span times that some workload never enters, which
``per_layer`` leaves out because they read 0 s on every run there), and
``check_fail_frac``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import golden  # noqa: E402
import worker  # noqa: E402
from probe import P_REF_S  # noqa: E402
from spans import SETUP_SPANS, unit_of  # noqa: E402
from workloads import SRC, checks_of, workloads  # noqa: E402

MANIFEST = HERE.parent / "BENCHMARK.json"
MIN_PASSES = 2
RUN_LIMIT_S = 170.0


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def normalised(passes, names=None) -> float:
    """Host-normalised seconds: the sum over configs and segments (those in
    ``names``, if given) of the median, over ``passes``, of the segment's
    time in probe lengths, times ``P_REF_S``."""
    total = 0.0
    for key in passes[0]["configs"]:
        segs = [p["configs"][key]["segments"] for p in passes]
        for name in set().union(*segs):
            if names is None or name in names:
                total += statistics.median(s[name][0] / s[name][1]
                                           for s in segs if name in s)
    return total * P_REF_S


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="formlab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "formlab" / "cli.py").is_file():
        print(f"formlab sources not found under {SRC}", file=sys.stderr)
        return 2
    all_workloads = workloads()
    if args.workload not in all_workloads:
        print(f"unknown workload {args.workload!r}; known: "
              f"{sorted(all_workloads)}", file=sys.stderr)
        return 2
    configs = all_workloads[args.workload]
    manifest = json.loads(MANIFEST.read_text())
    want = golden.load()["reports"]
    configured = sum(len(checks_of(v)) for v in configs.values())

    start = time.perf_counter()
    passes, attempted, failed = [], 0, 0
    correct = True
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 0
        elapsed = time.perf_counter() - start
        t0 = time.perf_counter()
        res = worker.spawn(args.workload, traced, timeout=max(RUN_LIMIT_S - elapsed, 1.0))
        attempted += configured
        if res is None:
            failed += configured
            correct = False
            break
        for key, got in res["configs"].items():
            bad = golden.failed_checks(got["configured"], got, want.get(key, {}))
            failed += len(bad)
            if bad:
                print(f"{key}: failed checks {bad}", file=sys.stderr)
            if got["report"] != want.get(key, {}).get("report"):
                print(f"{key}: report differs from golden", file=sys.stderr)
                correct = False
        res["traced"] = traced
        res["wall_s"] = time.perf_counter() - t0
        passes.append(res)
        elapsed = time.perf_counter() - start
        per_pass = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + per_pass > args.seconds:
            break
    correct = correct and failed == 0

    values = {}
    if passes:
        print("env " + json.dumps(passes[0]["env"], sort_keys=True))
        plain = [p for p in passes if not p["traced"]]
        if args.trace:
            traced_passes = [p for p in passes if p["traced"]]
            for name in traced_passes[0]["layers"]:
                values[name] = statistics.median_low(p["layers"][name]
                                                     for p in traced_passes)
            if plain:
                values["trace.overhead_s"] = (_median(traced_passes, "suite_s")
                                              - _median(plain, "suite_s"))
        else:
            values = {"suite_s": normalised(plain),
                      "setup_s": normalised(plain, SETUP_SPANS),
                      "peak_rss_mib": _median(plain, "peak_rss_mib")}
        print(f"workload {args.workload} seed {args.seed}: "
              f"{len(passes)} passes")
        for name, value in sorted(values.items()):
            line = f"  {name} = {value:.6g} {unit_of(name)}"
            if not args.trace:
                samples = ", ".join(f"{p[name]:.4g}" for p in plain)
                how = ("median" if name == "peak_rss_mib"
                       else "host-normalised; wall times")
                line += f" ({how} of {len(plain)} passes: {samples})"
            print(line)
        print(f"  check_fail_frac = {failed / max(attempted, 1):.6g} "
              f"({failed}/{attempted} checks)")
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in manifest[kind] if m["name"] in values}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
