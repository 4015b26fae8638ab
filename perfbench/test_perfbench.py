"""Tests of the benchmark's own logic: span arithmetic, digests, workload
configs and the instrumentation's effect on formlab."""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import golden  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from formlab import cli, envelopes, form, harnack  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 7]
    tr = spans.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0]))
    tr.enter("x.a")
    tr.enter("x.b")
    tr.enter("y.c")
    tr.exit()
    tr.exit()
    tr.enter("x.d")
    tr.exit()
    tr.exit()
    assert tr.self_times() == {"x.a": 5.0, "x.b": 2.0, "y.c": 1.0, "x.d": 2.0}
    assert tr.total(("x.a",)) == 10.0
    assert sum(tr.self_times().values()) == 10.0


def test_self_time_sums_repeated_spans_and_counts_errors():
    tr = spans.Tracer(clock=FakeClock([0.0, 1.0, 3.0, 6.0]))
    tr.call("x.f", lambda: None)
    with pytest.raises(ZeroDivisionError):
        tr.call("x.f", lambda: 1 / 0)
    assert tr.self_times() == {"x.f": 4.0}
    assert tr.counts["x.errors"] == 1


def test_segments_pair_self_time_with_the_probes_around():
    # probe [0, 1] gauges 0.5; a [1, 5] holds b [2, 3];
    # probe [5, 7] gauges 0.25; c [7, 8]
    tr = spans.Tracer(clock=FakeClock([0.0, 1.0, 1.0, 2.0, 3.0, 5.0,
                                       5.0, 7.0, 7.0, 8.0]))
    tr.probe(lambda: 0.5)
    tr.enter("a")
    tr.call("b", lambda: None)
    tr.exit()
    tr.probe(lambda: 0.25)
    tr.call("c", lambda: None)
    assert tr.segments() == {"a": [3.0, 0.375], "b": [1.0, 0.375],
                             "c": [1.0, 0.25]}
    assert tr.segments(first=3) == {"c": [1.0, 0.25]}
    assert tr.total((spans.PROBE,), first=1) == 2.0


def test_normalised_sums_each_segments_median_probe_ratio():
    import run
    from probe import P_REF_S

    def pass_(segs):
        return {"configs": {"k": {"segments": segs}}}
    passes = [pass_({"x": [2.0, 1.0], "cli.table": [4.0, 2.0]}),
              pass_({"x": [3.0, 2.0], "cli.table": [3.0, 1.0]}),
              pass_({"x": [1.0, 1.0], "cli.table": [5.0, 1.0]})]
    # x: median(2, 1.5, 1); cli.table: median(2, 3, 5)
    assert run.normalised(passes) == pytest.approx(4.5 * P_REF_S)
    assert run.normalised(passes, spans.SETUP_SPANS) == pytest.approx(3 * P_REF_S)


def _report():
    return {"name": "r", "checks": {"a": {"verdict": "certified",
                                          "constants": {"C": 1.5}}},
            "cross_matrix": {"deviations": []}, "outcome": [], "all_ok": True,
            "provenance": {"wall_time_s": 1.0, "timestamp": "t0"}}


def test_digest_ignores_only_provenance():
    base = golden.report_digests(_report())
    moved = _report()
    moved["provenance"] = {"wall_time_s": 9.0, "timestamp": "t1"}
    assert golden.report_digests(moved) == base
    for path in (("name",), ("all_ok",), ("checks", "a", "constants", "C")):
        changed = _report()
        node = changed
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = 2.5
        assert golden.report_digests(changed)["report"] != base["report"]
    changed = _report()
    changed["checks"]["a"]["constants"]["C"] = 1.5000000000000002
    assert golden.report_digests(changed)["checks"]["a"] != base["checks"]["a"]


def test_failed_checks():
    got = {"checks": {"a": "1", "b": "2", "c": "3"}, "not_ok": ["c"]}
    want = {"checks": {"a": "1", "b": "x", "c": "3"}}
    assert golden.failed_checks(["a", "b", "c", "d"], got, want) == ["b", "c", "d"]


def test_derived_configs_validate():
    for name, configs in workloads.workloads().items():
        for key, source in configs.items():
            cfg = cli.load_config(copy.deepcopy(source))
            assert cfg.checks, key
            assert key in golden.load()["reports"], key
    z1 = workloads.workloads()["z1_all_512"]["z1_all_512"]
    assert sorted(z1["checks"]) == sorted(cli.CHECKS)


def test_bundled_configs_not_mutated_between_passes(tmp_path):
    import worker
    configs = {"z1_mini": "z1_mini", "mini_dict": json.loads(
        (workloads.CONFIG_DIR / "z1_mini.json").read_text())}
    before = copy.deepcopy(configs)
    shipped = cli.load_config("z1_mini").raw
    results = []
    for traced in (False, True):
        tr = spans.Tracer()
        with spans.Instrumentation(tr, traced=traced):
            results.append(worker.run_pass(configs, tmp_path, tr,
                                           probing=not traced))
    assert configs == before
    assert cli.load_config("z1_mini").raw == shipped
    digests = [{k: (c["report"], c["checks"]) for k, c in r["configs"].items()}
               for r in results]
    assert digests[0] == digests[1]
    assert results[0]["configs"]["z1_mini"]["not_ok"] == []
    assert results[0]["setup_s"] > 0.0
    # the untraced pass's segments cover its suite time, each with a probe
    segs = [seg for c in results[0]["configs"].values()
            for seg in c["segments"].values()]
    assert sum(t for t, _ in segs) == pytest.approx(results[0]["suite_s"])
    assert all(p > 0.0 for _, p in segs)
    assert "check.kernel" in results[0]["configs"]["z1_mini"]["segments"]


def test_instrumentation_restores_namespaces():
    originals = (cli.SuiteContext, cli.heat_kernel, envelopes.heat_kernel,
                 harnack.heat_kernel, form.heat_kernel, form.eigh,
                 vars(form.JumpKernel)["power_law"],
                 vars(form.DirichletForm)["spectral"])
    tr = spans.Tracer()
    with spans.Instrumentation(tr, traced=True):
        assert envelopes.heat_kernel is not originals[2]
        assert envelopes.heat_kernel.__wrapped__ is originals[2]
    assert (cli.SuiteContext, cli.heat_kernel, envelopes.heat_kernel,
            harnack.heat_kernel, form.heat_kernel, form.eigh,
            vars(form.JumpKernel)["power_law"],
            vars(form.DirichletForm)["spectral"]) == originals
    checks = cli.CHECKS
    with spans.Instrumentation(tr, traced=False):
        assert cli.CHECKS is not checks and cli.CHECKS.keys() == checks.keys()
        assert cli.CHECKS["kernel"].__wrapped__ is checks["kernel"]
    assert cli.CHECKS is checks


def test_traced_counts_on_small_config(tmp_path):
    import worker
    tr = spans.Tracer()
    with spans.Instrumentation(tr, traced=True):
        worker.run_pass({"z1_mini": "z1_mini"}, tmp_path, tr)
    m = spans.layer_metrics(tr)
    n = 128
    assert m["space.metric_mib"] == n * n * 8 / spans.MIB
    assert m["form.eigh_calls"] >= 1 and m["form.eigh_n3"] >= n ** 3
    assert m["form.heat_kernel_calls.global"] >= 1
    assert m["form.kernel_mib"] >= 5 * n * n * 8 / spans.MIB
    written = json.loads((tmp_path / "z1_mini" / "report.json").read_text())
    written["provenance"]["wall_time_s"] = 12345.678
    assert m["cli.report_bytes"] == len(json.dumps(
        golden.without_provenance(written), sort_keys=True, indent=2))
    assert all(m[f"{layer}.errors"] == 0 for layer in ("space", "form", "cli"))
    selfs = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert selfs == pytest.approx(sum(tr.self_times().values()))
