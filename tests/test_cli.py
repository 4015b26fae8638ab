import csv
import functools
import json
import sys

import numpy as np
import pytest

import formlab.cli as cli
import formlab.envelopes as envelopes
import formlab.form as form_mod
from formlab.cli import (ConfigError, load_config, main, render_report,
                         run_suite, validate_config)
from formlab.functionals import ConditionReport, check_fk, check_pi
from formlab.space import build_space, chain_check
from conftest import whole


def mini_cfg(**overrides):
    data = json.loads(
        __import__("importlib.resources", fromlist=["files"])
        .files("formlab.configs").joinpath("z1_mini.json").read_text()
    )
    data.update(overrides)
    return data


class TestConfig:
    def test_bundled_names_load(self):
        for name in ("z1_mini", "z1_alpha1", "phi_counterexample",
                     "gasket_subordination"):
            cfg = load_config(name)
            assert cfg.name == name

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            validate_config(mini_cfg(bogus=1))

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError, match="unknown checks"):
            validate_config(mini_cfg(checks=["nope"]))

    def test_resource_guard_at_validation(self):
        with pytest.raises(ConfigError, match="cap"):
            validate_config(mini_cfg(
                space={"kind": "lattice_box", "dim": 2, "side": 128}
            ))

    def test_scale_invariants_checked_at_load(self):
        bad = mini_cfg(scales={
            "phi_c": [{"break": 0, "coeff": 1, "exp": 1.0}],   # beta1 <= 1
            "phi_j": [{"break": 0, "coeff": 1, "exp": 1.0}],
        })
        with pytest.raises(Exception):
            validate_config(bad)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("no_such_bundle")


@pytest.fixture(scope="module")
def suite():
    cfg = validate_config(mini_cfg())
    return run_suite(cfg)


class TestSuite:
    def test_every_check_reported_once(self, suite):
        cfg = validate_config(mini_cfg())
        assert sorted(suite.report["checks"]) == sorted(cfg.checks)
        assert len(suite.report["outcome"]) == len(cfg.checks)
        assert list(suite.reports) == cfg.checks
        assert all(isinstance(rep, ConditionReport)
                   for rep in suite.reports.values())

    def test_all_ok(self, suite):
        assert suite.report["all_ok"]
        assert suite.report["cross_matrix"]["evaluated"]
        assert suite.report["cross_matrix"]["deviations"] == []

    def test_empty_checks(self):
        cfg = validate_config(mini_cfg(checks=[]))
        suite = run_suite(cfg)
        assert suite.report["all_ok"]
        assert suite.report["checks"] == {}
        assert suite.report["outcome"] == []

    def test_errored_check_keeps_suite_alive(self, monkeypatch):
        def broken(ctx, **kw):
            raise RuntimeError("deliberate failure")

        data = mini_cfg(checks=["kernel", "jpsi_alt"])
        data["check_params"] = {"jpsi_alt": {"phi_j": data["scales"]["phi_j"]}}
        cfg = validate_config(data)
        monkeypatch.setitem(cli.CHECKS, "jpsi_alt", broken)
        suite = run_suite(cfg)
        assert suite.report["checks"]["jpsi_alt"]["verdict"] == "errored"
        assert "deliberate failure" in suite.report["checks"]["jpsi_alt"]["notes"]
        assert suite.report["checks"]["kernel"]["verdict"] == "certified"
        assert not suite.report["all_ok"]

    def test_rendered_csvs_parse_back(self, suite, tmp_path, monkeypatch):
        # an errored check's traceback holds commas, quotes and newlines
        def broken(ctx, phi_j: list[dict]):
            raise RuntimeError('deliberate, "quoted" failure')

        data = mini_cfg(checks=["jpsi_alt"])
        data["check_params"] = {"jpsi_alt": {"phi_j": data["scales"]["phi_j"]}}
        monkeypatch.setitem(cli.CHECKS, "jpsi_alt", broken)
        errored = run_suite(validate_config(data))
        for name, run in (("mini", suite), ("errored", errored)):
            render_report(run, tmp_path / name)
            files = sorted((tmp_path / name).glob("ratios_*.csv"))
            assert files
            for path in files:
                rows = [r for r in run.reports[path.stem[7:]].rows
                        if not any(isinstance(v, (list, dict))
                                   for v in r.values())]
                with open(path, newline="") as fh:
                    reader = csv.DictReader(fh)
                    back = list(reader)
                assert len(back) == len(rows)
                for got, row in zip(back, rows):
                    assert None not in got and None not in got.values()
                    assert set(got) == set(reader.fieldnames)
                    assert {k: v for k, v in got.items() if v} == {
                        k: str(v) for k, v in row.items() if v is not None}
        (tb,) = errored.reports["jpsi_alt"].rows
        assert '"quoted" failure' in tb["traceback"]

    def test_render_roundtrip(self, suite, tmp_path):
        files = render_report(suite, tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        rendered = json.dumps(
            json.loads((tmp_path / "report.json").read_text()),
            sort_keys=True, indent=2,
        ) + "\n"
        assert rendered == (tmp_path / "report.json").read_text()
        assert data["name"] == "z1_mini"

    def test_csv_row_counts(self, suite, tmp_path):
        render_report(suite, tmp_path)
        fk_rows = suite.reports["fk"].rows
        lines = (tmp_path / "ratios_fk.csv").read_text().strip().splitlines()
        assert len(lines) == len(fk_rows) + 1

    def test_hk_rows_follow_the_fit_grid(self, monkeypatch):
        # the rows come from the fit's own sweep: its centers, the space's
        # interior at the space's margin, and its usable times
        monkeypatch.setattr(envelopes, "RATIO_ROWS", 10 ** 9)
        data = mini_cfg(checks=["hk"])
        data["space"]["margin"] = 40
        cfg = validate_config(data)
        rep = run_suite(cfg).reports["hk"]
        xs = build_space(**cfg.space).interior()
        times = rep.ranges["times_used"]
        assert times
        assert [r["t"] for r in rep.rows[::len(xs) ** 2]] == times
        assert [(r["x"], r["y"]) for r in rep.rows] == [
            (x, y) for _ in times for x in xs.tolist() for y in xs.tolist()]

    def test_hk_cannot_sweep_past_the_truncation_guard(self, monkeypatch):
        # a margin of hk's own, 0, would sweep all 128 points at times
        # judged on the space's interior, where the boundary mass of its
        # centres reaches 15% at t = 1: it is refused
        data = mini_cfg(checks=["hk"], check_params={"hk": {"margin": 0}})
        with pytest.raises(ConfigError,
                           match=r"unknown check_params.hk keys: \['margin'\]"):
            validate_config(data)
        monkeypatch.setattr(envelopes, "RATIO_ROWS", 10 ** 9)
        ctx = cli.SuiteContext(validate_config(mini_cfg(checks=["hk"])))
        rep = cli.CHECKS["hk"](ctx)
        xs = ctx.space.interior()
        assert sorted({r["x"] for r in rep.rows}) == xs.tolist()
        bnd = np.nonzero(ctx.space.boundary)[0]
        times = list(ctx.table.times)
        assert rep.ranges["times_used"]
        for t in rep.ranges["times_used"]:
            K = whole(ctx.table)[times.index(t)]
            mass = (K[np.ix_(xs, bnd)] * ctx.space.mu[bnd]).sum(axis=1)
            assert mass.max() < 0.01

    def test_dominance_svg_three_classes(self, suite, tmp_path):
        render_report(suite, tmp_path)
        svg = (tmp_path / "dominance.svg").read_text()
        for cls in ("region-diagonal", "region-gaussian", "region-jump"):
            assert cls in svg

    def test_determinism(self, tmp_path):
        cfg1 = validate_config(mini_cfg())
        cfg2 = validate_config(mini_cfg())
        s1 = run_suite(cfg1)
        s2 = run_suite(cfg2)
        for rep in (s1, s2):
            rep.report["provenance"].pop("timestamp")
            rep.report["provenance"].pop("wall_time_s")
        b1 = json.dumps(s1.report, sort_keys=True)
        b2 = json.dumps(s2.report, sort_keys=True)
        assert b1 == b2

    def test_threads_match_serial(self, monkeypatch):
        # kernel, meyer, subordination, hk and hk_minus all read the global
        # spectrum, and hk and hk_minus the shared table; under threads each
        # must still be computed once (subordination's one-time kernel is
        # no table build), and so must the product of each table time,
        # which kernel, meyer, subordination and the table all read
        checks = ["kernel", "meyer", "subordination", "hk", "hk_minus",
                  "volume", "fk"]
        cfg = validate_config(mini_cfg(checks=checks))
        ref = cli.SuiteContext(cfg)
        S_ref = ref.form.sym_generator()
        lam_ref = ref.form.spectral()[0]
        real_product = form_mod._semigroup_product
        products = []

        def counting_product(B, rates, t):
            if rates.shape == lam_ref.shape and np.array_equal(rates,
                                                               lam_ref):
                products.append(t)
            return real_product(B, rates, t)

        monkeypatch.setattr(form_mod, "_semigroup_product", counting_product)
        s1 = run_suite(cfg)
        serial = list(products)
        assert all(serial.count(t) == 1 for t in ref.times)
        real_kernel, real_eigh = cli.heat_kernel, form_mod.eigh
        tables, spectra = [], []
        products.clear()

        def counting_kernel(form, times, *args, **kwargs):
            tables.append(times)
            return real_kernel(form, times, *args, **kwargs)

        def counting_eigh(S, *args, **kwargs):
            if S.shape == S_ref.shape and np.array_equal(S, S_ref):
                spectra.append(S.shape)
            return real_eigh(S, *args, **kwargs)

        monkeypatch.setattr(cli, "heat_kernel", counting_kernel)
        monkeypatch.setattr(form_mod, "eigh", counting_eigh)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # interleave the threads' bytecode
        try:
            s2 = run_suite(cfg, threads=3)
        finally:
            sys.setswitchinterval(switch)
        assert [list(times) for times in tables].count(ref.times) == 1
        assert len(spectra) == 1
        assert sorted(products) == sorted(serial)
        for rep in (s1, s2):
            rep.report["provenance"].pop("timestamp")
            rep.report["provenance"].pop("wall_time_s")
        assert json.dumps(s1.report, sort_keys=True) == json.dumps(
            s2.report, sort_keys=True
        )

    def test_kernel_and_subordination_build_no_table(self, monkeypatch):
        # kernel and subordination compute the kernel one time at a time,
        # meyer and regularity read blocks of it: the shared table of
        # len(times) kernels is built only for checks that read it
        table = cli.SuiteContext.table
        reads = []

        def counting_table(ctx):
            reads.append(ctx)
            return table.fget(ctx)

        monkeypatch.setattr(cli.SuiteContext, "table",
                            property(counting_table))
        real_keep = form_mod.DirichletForm.keep
        keeps = []

        def counting_keep(form, times):
            keeps.append(times)
            return real_keep(form, times)

        # and without a table reader the form keeps no kernel
        monkeypatch.setattr(form_mod.DirichletForm, "keep", counting_keep)
        checks = ["kernel", "subordination", "meyer", "regularity", "volume"]
        suite = run_suite(validate_config(mini_cfg(checks=checks)))
        assert reads == [] and keeps == []
        assert [rep.verdict for rep in suite.reports.values()] == [
            "certified"] * len(checks)

    def test_no_table_suite_computes_each_product_once(self, monkeypatch):
        # with no table reader the form keeps no kernel, so a check that
        # reads a global kernel at several places computes it itself: each
        # check must still compute each global product once (meyer holds
        # its p blocks across every rho rather than recomputing them)
        checks = ["kernel", "subordination", "meyer", "regularity", "volume"]
        cfg = validate_config(mini_cfg(checks=checks))
        lam_ref = cli.SuiteContext(cfg).form.spectral()[0]
        real_product = form_mod._semigroup_product
        running, products = [None], []

        def counting_product(B, rates, t):
            if rates.shape == lam_ref.shape and np.array_equal(rates,
                                                               lam_ref):
                products.append((running[0], t))
            return real_product(B, rates, t)

        def tagged(name, check):
            def run(ctx, **kw):
                running[0] = name
                return check(ctx, **kw)
            return run

        monkeypatch.setattr(form_mod, "_semigroup_product", counting_product)
        monkeypatch.setattr(cli, "CHECKS", {name: tagged(name, check)
                                            for name, check in
                                            cli.CHECKS.items()})
        suite = run_suite(cfg)
        assert all(rep.verdict == "certified"
                   for rep in suite.reports.values())
        assert {name for name, _ in products} == {
            "kernel", "subordination", "meyer", "regularity"}
        assert len(set(products)) == len(products)

    def test_table_readers_are_read_from_the_code(self, monkeypatch):
        assert cli.TABLE_READERS == {"hk", "hk_minus", "uhk_weak", "diag",
                                     "tail_probability", "chain_lower"}
        ctx = cli.SuiteContext(load_config("z1_mini"))
        assert ctx.form._keep == set(ctx.times)
        # a check registered through a wrapper is read through it
        monkeypatch.setattr(cli, "CHECKS", dict(cli.CHECKS))
        monkeypatch.setattr(cli, "TABLE_READERS", set(cli.TABLE_READERS))

        def reader(ctx):
            return ctx.table

        @functools.wraps(reader)
        def wrapper(ctx):
            return reader(ctx)

        cli.check("wrapped_reader")(wrapper)
        assert "wrapped_reader" in cli.TABLE_READERS

    def test_dominance_alone_needs_no_spectrum(self, monkeypatch):
        # the dominance map reads the envelopes only: no kernel, no eigh
        real_kernel, real_eigh = cli.heat_kernel, form_mod.eigh
        calls = []

        def counting_kernel(*args, **kwargs):
            calls.append("heat_kernel")
            return real_kernel(*args, **kwargs)

        def counting_eigh(*args, **kwargs):
            calls.append("eigh")
            return real_eigh(*args, **kwargs)

        monkeypatch.setattr(cli, "heat_kernel", counting_kernel)
        monkeypatch.setattr(form_mod, "eigh", counting_eigh)
        suite = run_suite(validate_config(mini_cfg(checks=["dominance"])))
        assert suite.report["checks"]["dominance"]["verdict"] == "certified"
        assert calls == []

    def test_threads_build_the_test_family_once(self, monkeypatch):
        checks = ["gcap", "cs", "gap"]
        s1 = run_suite(validate_config(mini_cfg(checks=checks)))
        real_family = cli.function_family
        builds = []

        def counting_family(*args, **kwargs):
            builds.append(args)
            return real_family(*args, **kwargs)

        monkeypatch.setattr(cli, "function_family", counting_family)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # interleave the threads' bytecode
        try:
            s2 = run_suite(validate_config(mini_cfg(checks=checks)), threads=3)
        finally:
            sys.setswitchinterval(switch)
        assert len(builds) == 1
        for rep in (s1, s2):
            rep.report["provenance"].pop("timestamp")
            rep.report["provenance"].pop("wall_time_s")
        assert json.dumps(s1.report, sort_keys=True) == json.dumps(
            s2.report, sort_keys=True
        )


class TestGeometrySuites:
    @pytest.mark.parametrize("name", ["gasket_walk", "z2_alpha1", "halfspace"])
    def test_bundled_geometry_certifies(self, name):
        suite = run_suite(load_config(name))
        assert suite.report["all_ok"], suite.report["outcome"]

    def test_gasket_walk_subgaussian_constants(self):
        # walk dimension above two: the local sandwich still certifies and
        # the chaining base stays strictly inside (0, 1)
        suite = run_suite(load_config("gasket_walk"))
        hk = suite.report["checks"]["hk"]["constants"]
        cl = suite.report["checks"]["chain_lower"]["constants"]
        assert hk["c1"] > 0.0 and np.isfinite(hk["c3"])
        assert 0.0 < cl["c6"] < 1.0


class TestFK:
    @staticmethod
    def fk_report(**change):
        cfg = load_config({**mini_cfg(**change), "checks": ["fk"]})
        return run_suite(cfg).reports["fk"]

    def test_fk_follows_the_config_seed(self):
        def random_rows(rep):
            return [r for r in rep.rows if r["subset"] == "random"]

        seven, usual = self.fk_report(seed=7), self.fk_report(seed=24301)
        assert random_rows(seven) and random_rows(seven) != random_rows(usual)
        others = [[r for r in rep.rows if r["subset"] != "random"]
                  for rep in (seven, usual)]
        assert others[0] == others[1]
        # 24301 is check_fk's own default, which fk drew from before it
        # read the config seed
        ctx = cli.SuiteContext(load_config("z1_mini"))
        want = check_fk(ctx.form, ctx.scales, ctx.radii,
                        max_centers=ctx.max_centers)
        assert (usual.to_dict(), usual.rows) == (want.to_dict(), want.rows)

    def test_fk_reports_the_headline_nu_off_its_grid(self):
        rep = self.fk_report(check_params={"fk": {"nu_grid": [0.25]}})
        assert rep.verdict == "certified"
        assert sorted(rep.constants) == ["C", "C(nu=0.25)", "C(nu=0.5)",
                                         "nu"]
        assert rep.constants["C"] == rep.constants["C(nu=0.5)"] > 0.0


class TestSettingsRunAsStated:
    # the value a config states is the value that runs: no grid floor, and
    # no wrapper default other than the one check_parameters shows
    @staticmethod
    def report(name, **change):
        cfg = load_config({**mini_cfg(**change), "checks": [name]})
        return run_suite(cfg).reports[name]

    def test_n_times_is_the_table_length(self):
        grids = {**mini_cfg()["grids"], "n_times": 2}
        rep = self.report("kernel", grids=grids)
        assert len(rep.ranges["times"]) == 2

    def test_max_centers_is_the_centres_per_radius(self):
        grids = {**mini_cfg()["grids"], "max_centers": 1}
        rep = self.report("fk", grids=grids)
        centres = {}
        for row in rep.rows:
            centres.setdefault(row["r"], set()).add(row["x0"])
        assert sorted(centres) == grids["radii"]
        assert all(len(xs) == 1 for xs in centres.values())

    def test_null_rho_grid_reads_as_the_default(self):
        usual = self.report("cs")
        null = self.report("cs", check_params={"cs": {"rho_grid": None}})
        assert "C2(rho=16)" in usual.constants
        assert null.constants == usual.constants

    def test_chain_draws_the_configured_samples(self):
        space, seed = build_space(**mini_cfg()["space"]), mini_cfg()["seed"]
        printed = cli.check_parameters(cli.CHECKS["chain"])["samples"].default
        for samples, change in ((5, {"samples": 5}), (printed, {})):
            rep = self.report("chain", check_params={"chain": change})
            want = chain_check(space, samples=samples, seed=seed)
            assert (rep.constants["C"], rep.ranges["samples"]) == \
                (want.constant, want.samples)
        # one draw more adds triples: the count tells the draws apart
        assert chain_check(space, samples=5, seed=seed).samples < \
            chain_check(space, samples=6, seed=seed).samples


def test_envelope_curve_runs_along_the_distance(tmp_path):
    # off a line the index difference |y - x| is not the distance: the
    # curve is drawn in order of d(x, y), so here its ratios fall steadily
    rows = [{"t": 1.0, "x": 5, "y": y, "d": d, "kernel_over_upper": k,
             "kernel_over_lower": k}
            for y, d, k in [(3, 4.0, 0.1), (5, 0.0, 1.0), (6, 9.0, 0.01),
                            (9, 2.0, 0.5)]]
    hk = ConditionReport("HK(phi_c,phi_j)", "certified", rows=rows)
    render_report(cli.SuiteReport({}, {"hk": hk}), tmp_path)
    svg = (tmp_path / "envelope_ratio.svg").read_text()
    points = svg.split('points="')[1].split('"')[0].split()
    xs, ys = zip(*(map(float, p.split(",")) for p in points))
    assert list(xs) == sorted(xs) and list(ys) == sorted(ys)
    assert len(set(xs)) == len(xs) == 4


class TestEmptyBallFamily:
    # no ball of radius 100 fits the 128-point line: a check over no
    # instance fails instead of erroring or certifying a vacuous constant
    @pytest.mark.parametrize("name,condition", [("fk", "FK(phi)"),
                                                ("pi", "PI(phi)"),
                                                ("exit", "E_phi"),
                                                ("gcap", "Gcap(phi)"),
                                                ("cs", "CS(phi)")])
    def test_no_ball_fits(self, name, condition):
        grids = {**mini_cfg()["grids"], "radii": [100.0]}
        cfg = load_config({**mini_cfg(grids=grids), "checks": [name]})
        suite = run_suite(cfg)
        rep = suite.reports[name]
        assert (rep.condition, rep.verdict) == (condition, "failed")
        assert rep.notes == "no ball of the family fits the space"
        assert rep.constants == {} and rep.rows == []
        if name in ("gcap", "cs"):   # they record instances, not radii
            assert rep.ranges == {"instances": 0}
        else:
            assert rep.ranges["radii"] == [100.0]
        assert not suite.report["all_ok"]

    # the jump fits sweep the interior pairs of a jump kernel: with the
    # space's margin 1000 no point of the line is interior, and a jump-free
    # form has no kernel.  Either fit fails with no constants and a note
    # naming the cause
    @pytest.mark.parametrize("name,condition,ranges", [
        ("tail_ujs", "J-tail/UJS", {"radii": [4.0, 8.0]}),
        ("jpsi_alt", "J_psi-alt", {"pieces": mini_cfg()["scales"]["phi_j"]})])
    @pytest.mark.parametrize("change,note", [
        ({"space": {**mini_cfg()["space"], "margin": 1000}},
         "no pair of interior points"),
        ({"jump": {"kind": "none"}}, "the form has no jump part")])
    def test_jump_fit_without_pairs(self, name, condition, ranges, change,
                                    note):
        alt = {"jpsi_alt": {"phi_j": mini_cfg()["scales"]["phi_j"]}}
        cfg = load_config({**mini_cfg(**change), "checks": [name],
                           "check_params": alt})
        suite = run_suite(cfg)
        rep = suite.reports[name]
        assert (rep.condition, rep.verdict) == (condition, "failed")
        assert rep.notes == note
        assert rep.constants == {} and rep.rows == []
        assert rep.ranges == ranges
        assert not suite.report["all_ok"]

    # the line of side 8 with margin 3 has the interior {3, 4}: its one
    # pair is 1 apart, too close for a UJS ball, and with max_n 1 no chain
    # of two steps is sampled.  Each fitted its constant over no instance
    # (c_UJS 0.0, C 1.0) and certified it
    @pytest.mark.parametrize("name,params,count", [
        ("tail_ujs", {}, "ujs_instances"),
        ("chain", {"max_n": 1}, "samples")])
    def test_sweep_over_no_instance_fails(self, name, params, count):
        space = {"kind": "lattice_box", "dim": 1, "side": 8, "margin": 3}
        cfg = load_config({**mini_cfg(space=space), "checks": [name],
                           "check_params": {name: params}})
        rep = run_suite(cfg).reports[name]
        assert build_space(**space).interior().tolist() == [3, 4]
        assert (rep.ranges[count], rep.verdict) == (0, "failed")

    def test_pi_fails_when_one_dilation_has_no_ball(self):
        # radius 40 fits the line undilated, not at kappa = 2
        ctx = cli.SuiteContext(load_config("z1_mini"))
        rep = check_pi(ctx.form, ctx.scales, [40.0], kappas=(1.0, 2.0))
        assert rep.verdict == "failed"
        assert rep.notes == "no ball of the family fits the space"
        assert rep.ranges["kappas"] == [1.0, 2.0]
        assert check_pi(ctx.form, ctx.scales, [40.0],
                        kappas=(1.0,)).verdict == "certified"


class TestEmptyTimeWindow:
    # with the space's margin 0 the boundary points are interior, and their
    # boundary mass is over the cap at the first table time: a table check
    # fails and reports no constant, as no time produced one
    @pytest.mark.parametrize("name", ["hk", "hk_minus", "uhk_weak", "diag",
                                      "chain_lower", "tail_probability"])
    def test_no_usable_time(self, name):
        space = {**mini_cfg()["space"], "margin": 0}
        cfg = load_config({**mini_cfg(space=space), "checks": [name]})
        rep = run_suite(cfg).reports[name]
        assert rep.verdict == "failed"
        assert rep.notes.startswith("no usable time window")
        assert rep.constants == {} and rep.rows == []


class TestCheckFailures:
    @staticmethod
    def report(name, **change):
        cfg = load_config({**mini_cfg(**change), "checks": [name]})
        return run_suite(cfg).reports[name]

    def test_tail_ujs_fails_over_its_spread_cap(self):
        usual = self.report("tail_ujs")
        spread = usual.constants["J_phij_spread"]
        assert usual.verdict == "certified" and 1.0 < spread < 8.0
        rep = self.report("tail_ujs",
                          check_params={"tail_ujs": {"spread_cap": 1.0}})
        assert rep.verdict == "failed"
        assert rep.notes == ("two-sided comparability spread over cap 1.0")
        assert rep.constants == {**usual.constants, "spread_cap": 1.0}

    def test_phi_fails_when_no_cylinder_fits(self):
        # B(x, 5 R) must clear the truncation set of the 128-point line
        rep = self.report("phi", check_params={"phi": {"R": [20.0]}})
        assert (rep.condition, rep.verdict) == ("PHI(phi)", "failed")
        assert rep.notes == "no cylinder fits the space"
        assert rep.constants == {} and rep.rows == []


class TestMain:
    def test_validate_command(self, capsys):
        assert main(["--config", "z1_mini", "validate"]) == 0
        assert "valid" in capsys.readouterr().out

    def test_build_command(self, tmp_path, capsys):
        code = main(["--config", "z1_mini", "--out", str(tmp_path), "build"])
        assert code == 0
        assert (tmp_path / "points.csv").exists()

    def test_single_check(self, capsys):
        assert main(["--config", "z1_mini", "check", "volume"]) == 0

    def test_unknown_check_exit_code(self, capsys):
        assert main(["--config", "z1_mini", "check", "nope"]) == 3

    def test_oversized_halfspace_rejected_at_validate(self, tmp_path, capsys):
        # side 80 is 6400 points: refused by validate, not midway through a run
        cfg = json.loads(__import__("importlib.resources", fromlist=["files"])
                         .files("formlab.configs").joinpath("halfspace.json")
                         .read_text())
        cfg["space"]["side"] = 80
        p = tmp_path / "big.json"
        p.write_text(json.dumps(cfg))
        assert main(["--config", str(p), "validate"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "6400" in err

    @pytest.mark.parametrize("key,value,message", [
        ("space", {"kind": "lattice_box", "dim": 4, "side": 4}, "dim"),
        ("space", {"kind": "torus", "side": 16}, "unknown space kind"),
        ("space", {"kind": "lattice_box", "dim": 1, "side": 64,
                   "metric": "linf"}, "metric"),
        ("jump", {"kind": "levy"}, "unknown jump kind"),
        ("jump", {"kind": "power_law"}, "needs alpha"),
        ("jump", {"kind": "two_regime", "beta": 0.5, "regime_break": 8},
         "needs alpha"),
        ("jump", {"kind": "two_regime", "alpha": 1.0, "regime_break": 8},
         "needs beta"),
        ("jump", {"kind": "two_regime", "alpha": 1.0, "beta": 0.5},
         "needs regime_break"),
        ("space", {"kind": "lattice_box", "side": 64}, "needs 'dim'"),
        ("space", {"kind": "lattice_box", "dim": 1}, "needs 'side'"),
        ("space", {"kind": "halfspace_lattice", "margin": 4}, "needs 'side'"),
        ("space", {"kind": "gasket"}, "needs 'level'"),
        ("space", {"dim": 1, "side": 64}, "needs 'kind'"),
        ("space", {"kind": "lattice_box", "dim": 1, "side": "64"},
         "integer 'side'"),
        ("jump", {"kind": "power_law", "alpha": "x"}, "real alpha"),
        ("space", {"kind": "lattice_box", "dim": 1, "side": 0},
         "positive integer 'side'"),
        ("space", {"kind": "gasket", "level": -1},
         "positive integer 'level'"),
        ("jump", {"kind": "two_regime", "alpha": 1.0, "beta": 1e9,
                  "regime_break": 8}, "overflows"),
        ("grids", {"n_times": 10 ** 9}, "integer in [1, 64] 'n_times'"),
    ])
    def test_unbuildable_config_rejected_at_validate(self, tmp_path, capsys,
                                                      key, value, message):
        # each would pass validate and then stop the suite midway
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(mini_cfg(**{key: value})))
        assert main(["--config", str(p), "validate"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize("change,message", [
        ({"jump": {"kind": "power_law", "alpha": 1.0, "alpah": 0.5}},
         "unknown jump kind 'power_law' keys: ['alpah']"),
        ({"space": {"kind": "lattice_box", "dim": 1, "side": 128,
                    "margn": 32}},
         "unknown lattice_box space keys: ['margn']"),
        ({"check_params": {"kernel": {"foo": 1}}},
         "unknown check_params.kernel keys: ['foo']"),
        ({"check_params": {"hk": {"modee": "HK"}}},
         "unknown check_params.hk keys: ['modee']"),
        ({"grids": {"n_time": 5}}, "unknown grids keys: ['n_time']"),
        ({"grids": {"radii": [4, "8"]}}, "list of positive reals 'radii'"),
        ({"grids": {"radii": []}}, "nonempty list of positive reals"),
        ({"mode": "fulll"},
         "config needs a string in {'necessary', 'full'} 'mode'"),
        ({"local_weight": -1}, "nonnegative real 'local_weight'"),
        ({"seed": -1}, "integer in [0, 2**32) 'seed'"),
        ({"expect": {"nosuch": "failed"}}, "unknown checks: ['nosuch']"),
        ({"check_params": {"nosuch": {}}}, "unknown checks: ['nosuch']"),
        ({"jump": {"kind": "stable_like", "cmin": 2.0, "cmax": 1.0}},
         "0 < cmin <= cmax"),
        ({"jump": {"kind": "power_law", "alpha": 1.0, "coeff": -1.0}},
         "nonnegative real coeff"),
        ({"scales": {"phi_c": [{"break": 0, "exp": 2, "coef": 1}],
                     "phi_j": [{"break": 0, "exp": 1}]}},
         "pieces of finite reals"),
        ({"check_params": {"phi": {"mode": "fulll"}}},
         "unknown check_params.phi keys: ['mode']"),
        ({"check_params": {"chain_lower": {"times": [1.0, 2.0]}}},
         "unknown check_params.chain_lower keys: ['times']"),
        # settings no check reads: the top-level mode is phi's, fk draws
        # from the config seed, and the hk modes that are checks of their
        # own ignore dilations or the indicator
        ({"check_params": {"hk_minus": {"upper_dilations": [1.0]}}},
         "unknown check_params.hk_minus keys: ['upper_dilations']"),
        ({"check_params": {"uhk_weak": {"indicator": 2.0}}},
         "unknown check_params.uhk_weak keys: ['indicator']"),
        ({"check_params": {"hk": {"indicator": 2.0}}},
         "unknown check_params.hk keys: ['indicator']"),
        ({"check_params": {"hk": {"mode": "HK_minus"}}},
         "check_params.hk needs a string in {'HK', 'UHK', 'HK_local'} 'mode'"),
        ({"check_params": {"hk": {"mode": "bogus"}}},
         "check_params.hk needs a string in {'HK', 'UHK', 'HK_local'} 'mode'"),
        ({"check_params": {"fk": {"seed": 7}}},
         "unknown check_params.fk keys: ['seed']"),
        ({"check_params": {"hk": {"upper_dilations": [1.0, "x"]}}},
         "list of positive reals 'upper_dilations'"),
        ({"check_params": {"jpsi_alt": {"phi_j": [{"break": 0,
                                                    "exp": -1.0}]}}},
         "exponents must be positive"),
        # the truncation guard is the space's margin and fixed caps
        ({"check_params": {"diag": {"boundary_cap": 1.0}}},
         "unknown check_params.diag keys: ['boundary_cap']"),
        # HK_local is the sandwich of a diffusion without jumps
        ({"check_params": {"hk": {"mode": "HK_local"}}},
         "HK_local is the bound of a diffusion without jumps"),
    ])
    def test_misspelt_or_out_of_range_config_rejected_at_validate(
            self, tmp_path, capsys, change, message):
        # each of these used to validate and then run on a default, be
        # ignored, or stop the suite midway
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(mini_cfg(**change)))
        assert main(["--config", str(p), "validate"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize("jump", [
        {"kind": "none"}, {"kind": "power_law", "alpha": 1.0, "coeff": 0.0}])
    def test_hk_local_accepted_without_a_jump_part(self, jump):
        hk_local = {"hk": {"mode": "HK_local"}}
        validate_config(mini_cfg(check_params=hk_local, jump=jump))

    def test_check_command_binds_only_its_own_required_params(self, capsys):
        # phi_counterexample configures jpsi_alt with its phi_j; checking
        # another check alone keeps that entry, which still binds
        assert main(["--config", "phi_counterexample", "check",
                     "volume"]) == 0

    def test_jpsi_alt_without_scale_rejected_at_validate(self, tmp_path,
                                                          capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(mini_cfg(checks=["kernel", "jpsi_alt"])))
        assert main(["--config", str(p), "validate"]) == 3
        assert "jpsi_alt needs" in capsys.readouterr().err
        assert main(["--config", "z1_mini", "check", "jpsi_alt"]) == 3

    def test_bad_config_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"name": "x"}))
        assert main(["--config", str(p), "validate"]) == 3

    def test_missing_config_exit_code(self, capsys):
        assert main(["validate"]) == 3
        assert "--config is required" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--config", "z1_mini", "--mode", "bogus", "suite"],
        ["--config", "z1_mini", "--no-such-flag", "suite"],
        ["--config", "z1_mini"],
        ["--config", "z1_mini", "--threads", "-3", "suite"],
        ["--config", "z1_mini", "--threads", "0", "suite"],
        ["--config", "z1_mini", "--grid-thin", "0", "suite"],
        ["--config", "z1_mini", "--threads", "two", "suite"],
        # the config's mode and grids are the only settings of each
        ["--config", "z1_mini", "--mode", "full", "suite"],
        ["--config", "z1_mini", "--grid-thin", "2", "suite"],
    ])
    def test_usage_error_exit_code(self, argv, capsys):
        # exit 2 means unexpected verdicts; a usage error runs no check
        assert main(argv) == 3
        assert "usage: formlab" in capsys.readouterr().err

    def test_help_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: formlab" in capsys.readouterr().out

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(mini_cfg(checks=["volume"])))
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        assert main(["--config", str(p), "--out", str(blocker / "out"),
                     "suite"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("config error:")

    def test_report_on_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "report",
                     str(tmp_path / "missing.json")]) == 3
        assert capsys.readouterr().err.startswith("execution error:")

    def test_unexpected_verdict_exit_code(self, tmp_path, capsys):
        # expecting a failure that does not happen must flag exit code 2
        cfg = mini_cfg(checks=["kernel"], expect={"kernel": "failed"})
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["--config", str(p), "suite"]) == 2

    @pytest.mark.parametrize("change,deviations", [
        # both rules bind tail_ujs, failed as expected over its cap 0.5
        ({"checks": ["hk_minus", "phi", "tail_ujs", "pi", "gcap", "diag"],
          "check_params": {"tail_ujs": {"spread_cap": 0.5}},
          "expect": {"tail_ujs": "failed"}},
         [{"check": "tail_ujs", "reason": "verdict failed"}] * 2),
        # the strict rule lists each expected check that did not run
        ({"checks": ["hk_minus"]},
         [{"check": name, "reason": "not configured"}
          for name in cli.CROSS_EXPECTED])])
    def test_cross_matrix_deviation_exit_code(self, tmp_path, capsys,
                                              change, deviations):
        # every verdict is acceptable or expected: the deviations alone
        # flag exit code 2
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(mini_cfg(**change)))
        assert main(["--config", str(p), "suite"]) == 2
        out = capsys.readouterr().out.splitlines()
        outcome = out[:len(change["checks"])]
        assert all(line.endswith(" [ok]") for line in outcome)
        assert out[len(outcome):] == [f"cross-matrix deviation: {dev}"
                                      for dev in deviations]

    def test_suite_with_output(self, tmp_path, capsys):
        cfg = mini_cfg(checks=["kernel", "volume"])
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code = main(["--config", str(p), "--out", str(tmp_path / "out"),
                     "suite"])
        assert code == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_report_rerender(self, tmp_path, capsys):
        cfg = mini_cfg(checks=["kernel"])
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        main(["--config", str(p), "--out", str(tmp_path / "a"), "suite"])
        code = main(["--out", str(tmp_path / "b"), "report",
                     str(tmp_path / "a" / "report.json")])
        assert code == 0
        a = json.loads((tmp_path / "a" / "report.json").read_text())
        b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert a == b
