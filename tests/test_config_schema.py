"""One config schema: what ``validate`` accepts is read from the signatures
of the builders and checks that consume the config.

- a lint that every registered check's accepted parameters resolve, with no
  ``**kw`` left without a declared callee;
- the schema survives the benchmark's untraced instrumentation, which
  replaces every ``cli.CHECKS`` value with a wrapper that carries only
  ``__wrapped__``;
- a Hypothesis fuzz over mutated bundled configs: each mutant either
  validates, builds its ``SuiteContext`` and binds every check's params, or
  ``validate`` exits 3 with a ``config error:`` line;
- one rule for every settable value: each parameter ``validate`` binds
  carries an annotation ``space.rule`` knows, which names its type and
  range, and its default is in that range; values out of range exit 3 at
  ``validate``, and a check given a number that validates runs without
  erroring.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import inspect
import io
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import formlab.cli as cli
from formlab import form
from formlab.cli import (SuiteContext, check_parameters, main, run_suite,
                         validate_config)
from formlab.space import SPACES, Count, bind, parameters, rule

BUNDLED = ("z1_alpha1", "phi_counterexample", "z1_mini",
           "gasket_subordination", "gasket_walk", "z2_alpha1", "halfspace")


def bundled(name):
    return json.loads(__import__("importlib.resources", fromlist=["files"])
                      .files("formlab.configs").joinpath(f"{name}.json")
                      .read_text())


def takes_kw(fn):
    return any(p.kind is p.VAR_KEYWORD
               for p in inspect.signature(fn).parameters.values())


def test_every_check_parameter_set_resolves():
    for name, fn in cli.CHECKS.items():
        named = check_parameters(fn)
        assert named is not None, f"{name}: **kw without a declared callee"
        assert "ctx" not in named
        forward = cli._FORWARDS.get(fn)
        assert takes_kw(fn) == (forward is not None), name
        if forward is None:
            continue
        callee, fixed = forward
        # the callee forwards nothing further, and every name the check
        # fixes is an optional parameter of the callee the config cannot set
        assert not takes_kw(callee), f"{name}: {callee.__name__} takes **kw"
        callee_params = inspect.signature(callee).parameters
        for fixed_name in fixed:
            assert callee_params[fixed_name].default is not inspect._empty
            assert fixed_name not in named or fixed_name in \
                inspect.signature(fn).parameters, (name, fixed_name)


def test_settable_check_parameters_pinned():
    # the hk modes that are checks of their own, phi and fk take no
    # setting they would ignore or that shadows the config's mode and seed
    assert {name: sorted(check_parameters(cli.CHECKS[name]))
            for name in ("hk", "hk_minus", "uhk_weak", "phi", "fk")} == {
        "hk": ["lower_dilations", "mode", "upper_dilations"],
        "hk_minus": ["indicator"],
        "uhk_weak": [],
        "phi": ["R", "n_atom_intervals", "n_window_times"],
        "fk": ["nu_grid"],
    }
    assert sum(len(check_parameters(fn)) for fn in cli.CHECKS.values()) == 43
    # the truncation guard is the space's: its margin and fixed caps
    for fn in cli.CHECKS.values():
        assert not {"margin", "boundary_cap"} & set(check_parameters(fn))
    # hk_minus and uhk_weak are checks of their own
    assert rule("HKMode")[0] == "a string in {'HK', 'UHK', 'HK_local'}"
    for mode in ("HK", "UHK", "HK_local"):
        # HK_local, a diffusion's sandwich, needs a form without jumps
        data = bundled("gasket_walk" if mode == "HK_local" else "z1_mini")
        data["check_params"] = {"hk": {"mode": mode}}
        assert validate_config(data).check_params["hk"]["mode"] == mode


REMOVED = [("hk", "margin"), ("hk", "boundary_cap"),
           ("hk_minus", "margin"), ("hk_minus", "boundary_cap"),
           ("uhk_weak", "margin"), ("uhk_weak", "boundary_cap"),
           ("diag", "margin"), ("diag", "boundary_cap"),
           ("dominance", "margin"), ("tail_probability", "margin"),
           ("tail_probability", "boundary_cap"), ("chain_lower", "margin"),
           ("meyer", "margin"), ("regularity", "max_centers")]


@pytest.mark.parametrize("name,key", REMOVED)
def test_removed_check_parameters_refused(name, key):
    data = bundled("z1_mini")
    data["check_params"] = {name: {key: 1}}
    with pytest.raises(cli.ConfigError) as err:
        validate_config(data)
    assert str(err.value) == f"unknown check_params.{name} keys: ['{key}']"


@pytest.mark.parametrize("name,grid", [("meyer", [0.0, 4.0]),
                                       ("gap", [-2.0]), ("cs", [-3.0])])
def test_nonpositive_truncation_radius_refused(tmp_path, name, grid):
    # before the run, not as an errored check and exit 2 midway through it
    data = bundled("z1_mini")
    data["check_params"] = {name: {"rho_grid": grid}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        assert main(["--config", str(path), "validate"]) == 3
    assert err.getvalue() == (f"config error: check_params.{name} needs a "
                              f"nonempty list of positive reals 'rho_grid', "
                              f"got {grid!r}\n")
    data["check_params"][name]["rho_grid"] = [0.5, 4.0]
    assert validate_config(data).check_params[name]["rho_grid"] == [0.5, 4.0]


def only_wrapped(fn):
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


def test_schema_survives_wrapped_checks(monkeypatch):
    data = bundled("z1_alpha1")
    data["checks"] = ["pc_equivalence", "hk", "jpsi_alt"]
    data["check_params"] = {"pc_equivalence": {"n_per_axis": 100},
                            "hk": {"mode": "UHK"},
                            "jpsi_alt": {"phi_j": data["scales"]["phi_j"]}}
    before = {name: check_parameters(fn) for name, fn in cli.CHECKS.items()}
    monkeypatch.setattr(cli, "CHECKS", {name: only_wrapped(fn)
                                        for name, fn in cli.CHECKS.items()})
    assert {name: check_parameters(fn)
            for name, fn in cli.CHECKS.items()} == before
    assert validate_config(copy.deepcopy(data)).check_params == \
        data["check_params"]
    data["check_params"]["hk"] = {"modee": "UHK"}
    with pytest.raises(cli.ConfigError, match="modee"):
        validate_config(data)


# -- fuzz ----------------------------------------------------------------------


def small(name):
    """A bundled config with its space shrunk, so a mutant that validates
    builds its SuiteContext in milliseconds."""
    data = bundled(name)
    space = data["space"]
    if "side" in space:
        space["side"] = 24 if space.get("dim") == 1 else 6
    if "level" in space:
        space["level"] = 3
    if "margin" in space:
        space["margin"] = 2
    return data


def nodes(tree, path=()):
    """(path, value) of every node below the root of a JSON tree."""
    items = (tree.items() if isinstance(tree, dict)
             else enumerate(tree) if isinstance(tree, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from nodes(value, path + (key,))


def parent_of(tree, path):
    for key in path[:-1]:
        tree = tree[key]
    return tree


# a value of every JSON type, for retyping
OTHER_TYPES = ("x", True, None, [], {}, 1.5, 7, [1, "a"])
# numbers outside the range some field takes: negative, zero, fractional
# where an integer is meant, or over a cap
OUT_OF_RANGE = (-1, 0, -0.5, 0.5, 10 ** 9, -(10 ** 9), 1e9)


@st.composite
def mutants(draw):
    data = small(draw(st.sampled_from(BUNDLED)))
    for _ in range(draw(st.integers(1, 2))):
        found = list(nodes(data))
        op = draw(st.sampled_from(("drop", "retype", "unknown", "number")))
        if op == "number":
            found = [n for n in found if isinstance(n[1], (int, float))
                     and not isinstance(n[1], bool)] or found
        path, _ = draw(st.sampled_from(found))
        parent = parent_of(data, path)
        if op == "drop":
            del parent[path[-1]]
        elif op == "retype":
            parent[path[-1]] = copy.deepcopy(
                draw(st.sampled_from(OTHER_TYPES)))
        elif op == "number":
            parent[path[-1]] = draw(st.sampled_from(OUT_OF_RANGE))
        elif isinstance(parent, dict):
            parent["zz_" + str(path[-1])] = 1
        else:
            data.setdefault("zz_unknown", 1)
    return data


def bind_checks(cfg, ctx):
    """Bind each check's params to it, and what its **kw forwards to its
    callee, as Python will when the check runs."""
    for name, params in {**{c: {} for c in cfg.checks},
                         **cfg.check_params}.items():
        fn = cli.CHECKS[name]
        sig = inspect.signature(fn)
        bound = (sig.bind if name in cfg.checks else sig.bind_partial)(
            ctx, **params)
        kw = next((v for k, v in bound.arguments.items()
                   if sig.parameters[k].kind is inspect.Parameter.VAR_KEYWORD),
                  {})
        if kw:
            callee, fixed = cli._FORWARDS[fn]
            assert not set(kw) & set(fixed), (name, kw)
            callee_params = inspect.signature(callee).parameters
            assert all(callee_params[k].default is not inspect._empty
                       for k in kw), (name, kw)
            inspect.signature(callee).bind_partial(**kw)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cfg.json"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=mutants())
def test_mutated_bundled_configs(config_path, data):
    config_path.write_text(json.dumps(data))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["--config", str(config_path), "validate"])
        if code == 0:
            cfg = validate_config(copy.deepcopy(data))
            bind_checks(cfg, SuiteContext(cfg))
    if code:
        assert code == 3 and err.getvalue().startswith("config error:"), \
            err.getvalue()


# -- one rule for every settable value -----------------------------------------


def bound_signatures():
    """(where, parameters, defaults) of each signature ``validate`` binds a
    config part to; ``defaults`` holds the values of dataclass factories."""
    made = {f.name: f.default_factory()
            for f in dataclasses.fields(cli.ExperimentConfig)
            if f.default_factory is not dataclasses.MISSING}
    yield "config", parameters(cli.ExperimentConfig), made
    yield "grids", parameters(SuiteContext._grids, ("self",)), {}
    yield "scales", parameters(cli._build_scales), {}
    for kind, build in SPACES.items():
        yield f"space.{kind}", parameters(build), {}
    for kind in form.JUMPS:
        build = getattr(form.JumpKernel, kind, form._no_jump)
        yield f"jump.{kind}", parameters(build, form._SUPPLIED), {}
    for name, fn in cli.CHECKS.items():
        yield f"check_params.{name}", check_parameters(fn), {}


SIGNATURES = list(bound_signatures())


@pytest.mark.parametrize("where,named,defaults", SIGNATURES,
                         ids=[where for where, *_ in SIGNATURES])
def test_every_bound_parameter_states_its_range(where, named, defaults):
    for name, p in named.items():
        # TypeError unless bind can check the annotation
        kind, ok = rule(str(p.annotation))
        default = defaults.get(name, p.default)
        if default is not p.empty:
            assert ok(default), f"{where}.{name}: {default!r} is not {kind}"


def test_bind_refuses_a_schema_it_cannot_check():
    def takes(a: Count, b=1, c: complex = 1j):
        return a, b, c

    # neither an unannotated parameter nor an unknown annotation passes
    for key in ("b", "c"):
        with pytest.raises(TypeError, match="bind knows no annotation"):
            bind(parameters(takes), {"a": 1, key: 2}, "takes")
    bind(parameters(takes), {"a": 1}, "takes")


@pytest.mark.parametrize("annotation,passes,fails", [
    ("Positive", [1e-300, 2, 1e9], [0, -1, True, "1", float("inf"),
                                     float("nan")]),
    ("NonNegative", [0, 0.5], [-1e-300, None]),
    ("Dilation", [1, 2.5], [0.999]),
    ("Fraction", [1e-9, 1], [0, 1.0000001]),
    ("Count", [1, 10 ** 9], [0, 1.0, True, -1]),
    ("Seed", [0, 2 ** 32 - 1], [-1, 2 ** 32]),
    ("TimeCount", [1, 64], [0, 65]),
    ("Decades", [6, 100], [0, 100.5]),
    ("Dim", [1, 3], [0, 4, 2.0]),
    ("Metric", ["l1", "l2"], ["linf", ["l1"]]),
    ("list[Positive] | None", [None, [1], [1, 2.5]], [[], [0], [1, "2"], 1]),
    ("tuple[Fraction, ...]", [[0.5], (1.0, 0.5)], [[2], []]),
    ("list[str]", [[], ["kernel"]], [["kernel", 1], "kernel"]),
    ("str | None", [None, "out"], [1]),
    ("Mode", ["necessary", "full"], ["fulll", None]),
    ("HKMode", ["HK", "UHK", "HK_local"], ["HK_minus", "UHK_weak"]),
])
def test_rule_holds_each_alias_to_its_range(annotation, passes, fails):
    kind, ok = rule(annotation)
    assert all(ok(v) for v in passes), kind
    assert not any(ok(v) for v in fails), kind


def one_check(name, **params):
    """``z1_mini`` running the one check ``name`` with ``params``."""
    data = bundled("z1_mini")
    if name == "jpsi_alt":
        params = {"phi_j": data["scales"]["phi_j"], **params}
    data.update(checks=[name], check_params={name: params})
    return data


def validate(path, data):
    """(exit code, stderr) of ``formlab validate`` on ``data``."""
    path.write_text(json.dumps(data))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(["--config", str(path), "validate"]), err.getvalue()


# (check, parameter, value): each passed ``validate`` before its parameter
# stated its range, and then
REFUSED = [
    # ... had no type check at all and errored
    ("chain", "samples", "many"), ("subordination", "gamma", "half"),
    ("dominance", "t", "x"), ("jpsi_alt", "spread_cap", "4"),
    # ... errored midway
    ("phi", "n_window_times", 0), ("regularity", "n_window_times", 0),
    ("pi", "kappas", [0.5]), ("diag", "eps", -1),
    ("subordination", "gamma", 1.5), ("tail_probability", "radii", [-3]),
    # ... certified over nothing or over a meaningless range
    ("chain", "samples", -5), ("chain", "max_n", 0),
    ("tail_ujs", "n_pairs", 0), ("pc_equivalence", "n_per_axis", 0),
    ("exit", "time_fracs", [-1]), ("fk", "nu_grid", [-1]),
    ("gcap", "kappas", [0.5]), ("hk_minus", "indicator", -1),
    # ... failed at run time
    ("chain_lower", "m_cap", -1),
]


@pytest.mark.parametrize("name,key,value", REFUSED)
def test_out_of_range_check_parameter_refused(tmp_path, name, key, value):
    path = tmp_path / "cfg.json"
    code, err = validate(path, one_check(name, **{key: value}))
    assert code == 3
    assert err.startswith(f"config error: check_params.{name} needs "), err
    assert err.endswith(f" '{key}', got {value!r}\n"), err
    # the check validates with its default: the value is refused
    assert validate(path, one_check(name)) == (0, "")


def test_rho_labels_must_differ(tmp_path):
    # meyer, gap and cs key a constant by f"{rho:g}": 4.0000001 would
    # report its constant under the label of 4.0
    path = tmp_path / "cfg.json"
    for name in ("meyer", "gap", "cs"):
        code, err = validate(path, one_check(name, rho_grid=[4.0, 4.0000001]))
        assert (code, err) == (3, f"config error: check_params.{name}.rho_grid "
                               "needs radii that differ in 6 digits, got "
                               "[4.0, 4.0000001]\n")
        assert validate(path, one_check(name, rho_grid=[4.0, 4.00001])) == \
            (0, "")


def test_radii_labels_must_differ_where_meyer_and_gap_key_them(tmp_path):
    # without a rho_grid, meyer and gap key their constants by grids.radii
    path = tmp_path / "cfg.json"
    for name in ("meyer", "gap"):
        data = one_check(name)
        data["grids"]["radii"] = [4.0, 4.0000001]
        assert validate(path, data) == (
            3, "config error: grids.radii needs radii that differ in 6 "
               "digits, got [4.0, 4.0000001]\n")
        data["check_params"][name]["rho_grid"] = [4.0, 8.0]
        assert validate(path, data) == (0, "")
    # fk keys no constant by a radius
    data = one_check("fk")
    data["grids"]["radii"] = [4.0, 4.0000001]
    assert validate(path, data) == (0, "")


# the check parameters that take numbers, with whether they take a list
NUMERIC = [(name, key, "list" in kind) for name, fn in cli.CHECKS.items()
           for key, p in check_parameters(fn).items()
           for kind in [rule(str(p.annotation))[0]]
           if "string" not in kind and "object" not in kind]


@st.composite
def check_numbers(draw):
    name, key, listed = draw(st.sampled_from(NUMERIC))
    number = draw(st.sampled_from(OUT_OF_RANGE))
    return name, key, number, [number] if listed else number


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=check_numbers())
def test_check_number_refused_or_run_clean(config_path, drawn):
    name, key, number, value = drawn
    data = one_check(name, **{key: value})
    code, err = validate(config_path, data)
    if code:
        assert code == 3 and err.startswith("config error:"), err
        return
    kind = rule(str(check_parameters(cli.CHECKS[name])[key].annotation))[0]
    if "integer" in kind and number == 10 ** 9:
        # a count of 10**9 is in range and sets only how long the check
        # runs: 10**9 chain samples take hours
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = run_suite(validate_config(data)).reports[name]
    assert rep.verdict != "errored", rep.notes
