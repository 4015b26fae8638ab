"""One benchmark pass over a workload's configs, in a fresh process.

``spawn`` starts ``python3 perfbench/worker.py`` with the BLAS thread count
fixed and returns the JSON object the child prints last.  A fresh process
per pass makes the peak RSS belong to that pass alone.

Per config the pass times ``load_config`` through ``render_report`` (the
``suite`` time), and the ``SuiteContext`` construction plus its first
``table`` (the ``setup`` time).  An untraced pass also cuts the suite time
into segments, the self time of each span (set-up boundaries, checks,
``run_suite``, ``render_report``) and the rest, each beside the time of the
reference probe gauged around it (``probe.py``).  The pass then reads
``report.json`` back and digests it; the parent compares the digests with
the golden ones.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

from probe import gauge, warm_up
from workloads import ROOT, SRC, workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

# Single-threaded BLAS: within every machine's core count, and the setting
# the golden digests were recorded with.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def spawn(workload: str, traced: bool, timeout: float):
    """Run one pass in a child process; None if it failed or timed out."""
    env = dict(os.environ, **{k: str(BLAS_THREADS) for k in BLAS_ENV})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--trace", str(int(traced))]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"pass of {workload} exceeded {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"pass of {workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _openblas() -> dict:
    """Version string and runtime thread count of each loaded OpenBLAS."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line and line.rstrip().endswith(".so")})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if get_config is None or get_threads is None:
                    continue
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                found[Path(path).name] = {"config": get_config().decode(),
                                          "threads": get_threads()}
    return found


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": _openblas(),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}


def run_pass(configs: dict, out_root: Path, tracer,
             probing: bool = False) -> dict:
    """Run every config in order; returns times, digests and outcomes.

    With ``probing`` (an untraced pass) the probe is also gauged at the
    config's start, before rendering and at its end, and each config gets
    ``segments``: span name -> [self time, probe time gauged around it],
    where ``load`` is the rest of the config's time, ``load_config`` above
    all.  Probe time is not counted in ``suite_s``."""
    from formlab import cli
    from golden import report_digests, without_provenance
    from spans import PROBE, SETUP_SPANS

    def probe():
        if probing:
            tracer.probe(gauge)

    suite_s = 0.0
    results = {}
    for key, source in configs.items():
        out_dir = out_root / key
        first = len(tracer.spans)
        t0 = time.perf_counter()
        probe()
        cfg = cli.load_config(source)
        suite = tracer.call("cli.run_suite", cli.run_suite, cfg, threads=1)
        probe()
        tracer.call("cli.render", cli.render_report, suite, out_dir)
        probe()
        config_s = time.perf_counter() - t0 - tracer.total((PROBE,), first)
        suite_s += config_s
        report = json.loads((out_dir / "report.json").read_text())
        # bytes outside provenance, whose wall time varies in length
        tracer.counts["cli.report_bytes"] += len(json.dumps(
            without_provenance(report), sort_keys=True, indent=2))
        not_ok = [o["check"] for o in report["outcome"]
                  if not o["ok"] or o["verdict"] == "errored"]
        results[key] = {**report_digests(report), "not_ok": not_ok,
                        "configured": list(cfg.checks)}
        if probing:
            segments = tracer.segments(first)
            load_s = config_s - sum(self_s for self_s, _ in segments.values())
            segments["load"] = [load_s, segments["cli.run_suite"][1]]
            results[key]["segments"] = segments
    return {"suite_s": suite_s, "setup_s": tracer.total(SETUP_SPANS),
            "configs": results}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import formlab
    if not Path(formlab.__file__).resolve().is_relative_to(SRC):
        print(f"formlab imported from {formlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from spans import Instrumentation, Tracer, layer_metrics

    configs = workloads()[args.workload]
    tracer = Tracer()
    if not args.trace:
        warm_up()
    with Instrumentation(tracer, traced=bool(args.trace)):
        res = run_pass(configs, OUT / args.workload, tracer,
                       probing=not args.trace)
    res["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        res["layers"] = layer_metrics(tracer)
    res["env"] = environment()
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
