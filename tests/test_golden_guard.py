"""Bit-identity guard: the per-check report digests of a few fast configs
equal the benchmark's golden digests (``perfbench/golden.json``).

The configs run in one child process with single-threaded BLAS, the setting
the digests were recorded with: ``z1_mini``, ``phi_counterexample``,
``gasket_walk``, ``z1_alpha1`` and ``gasket_subordination`` as shipped
(between them every check but ``pc_equivalence``, on lattices and the
gasket), the benchmark's ``z1_all_512`` config restricted to
``pc_equivalence``, the envelope and quadrature sweeps (``hk``,
``hk_minus``, ``uhk_weak``, ``dominance`` and ``subordination``), the
Meyer decomposition (``meyer``), the jump fits (``jpsi_alt`` and
``tail_ujs``) and the cut-off Sobolev sweep (``cs``), ``z2_alpha1``
restricted to ``chain``, ``tail_ujs``, ``gcap``, ``fk``, ``pi``, ``exit``
and ``kernel``, and ``halfspace`` restricted to ``tail_ujs``.  The two
n = 1024 lattices hold most of the chain sweep's time, and ``tail_ujs``
reads their ``stable_like`` jump kernels, directly and through
``fit_jpsi``; the ball-family checks run on the n = 1024 stable-like
lattice as well, and ``kernel`` there reads symmetry in more than one
tile; only ``halfspace`` has a random c field.  The
test skips when numpy, scipy or the OpenBLAS build differ from the recorded
environment, whose bits may differ.  The benchmark's files are read, never
written.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
BUNDLED = ("z1_mini", "phi_counterexample", "gasket_walk", "z1_alpha1",
           "gasket_subordination")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CHILD = r"""
import json, sys, tempfile
from pathlib import Path

from formlab import cli
from golden import report_digests
from worker import environment
from workloads import z1_all

sources = {name: name for name in sys.argv[1:]}
sources["z1_all_512"] = {**z1_all(512), "checks": [
    "pc_equivalence", "hk", "hk_minus", "uhk_weak", "dominance",
    "subordination", "meyer", "jpsi_alt", "tail_ujs", "cs"]}
sources["z2_alpha1"] = {**cli.load_config("z2_alpha1").raw,
                        "checks": ["chain", "tail_ujs", "gcap", "fk", "pi",
                                   "exit", "kernel"]}
sources["halfspace"] = {**cli.load_config("halfspace").raw,
                        "checks": ["tail_ujs"]}
digests = {}
with tempfile.TemporaryDirectory() as tmp:
    for key, source in sources.items():
        suite = cli.run_suite(cli.load_config(source), threads=1)
        cli.render_report(suite, Path(tmp) / key)
        report = json.loads((Path(tmp) / key / "report.json").read_text())
        digests[key] = report_digests(report)["checks"]
print(json.dumps({"env": environment(), "digests": digests}))
"""


def _build(env: dict) -> dict:
    """The parts of a recorded environment that fix the report bits."""
    return {"numpy": env["numpy"], "scipy": env["scipy"],
            "openblas": {lib: v["config"] for lib, v in env["openblas"].items()}}


def test_fast_configs_reproduce_golden_digests():
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    env = dict(os.environ, **{k: "1" for k in BLAS_ENV})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)])
    proc = subprocess.run([sys.executable, "-c", CHILD, *BUNDLED], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    if _build(got["env"]) != _build(golden["env"]):
        pytest.skip("numpy, scipy or OpenBLAS differ from the recorded build")
    for key, checks in got["digests"].items():
        want = golden["reports"][key]["checks"]
        moved = sorted(name for name, d in checks.items() if d != want[name])
        assert not moved, f"{key}: digests moved for {moved}"
    assert set(got["digests"]["z1_all_512"]) == {
        "pc_equivalence", "hk", "hk_minus", "uhk_weak", "dominance",
        "subordination", "meyer", "jpsi_alt", "tail_ujs", "cs"}
    assert set(got["digests"]["z2_alpha1"]) == {"chain", "tail_ujs", "gcap",
                                                "fk", "pi", "exit", "kernel"}
    assert set(got["digests"]["halfspace"]) == {"tail_ujs"}
