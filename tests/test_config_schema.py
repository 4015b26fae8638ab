"""One config schema: what ``validate`` accepts is read from the signatures
of the builders and checks that consume the config.

- a lint that every registered check's accepted parameters resolve, with no
  ``**kw`` left without a declared callee;
- the schema survives the benchmark's untraced instrumentation, which
  replaces every ``cli.CHECKS`` value with a wrapper that carries only
  ``__wrapped__``;
- a Hypothesis fuzz over mutated bundled configs: each mutant either
  validates, builds its ``SuiteContext`` and binds every check's params, or
  ``validate`` exits 3 with a ``config error:`` line.
"""

from __future__ import annotations

import contextlib
import copy
import inspect
import io
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import formlab.cli as cli
from formlab.cli import SuiteContext, check_parameters, main, validate_config

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
        "phi": ["R", "n_atom_intervals", "n_window_times", "thin"],
        "fk": ["nu_grid"],
    }
    assert sum(len(check_parameters(fn)) for fn in cli.CHECKS.values()) == 44
    # the truncation guard is the space's: its margin and fixed caps
    for fn in cli.CHECKS.values():
        assert not {"margin", "boundary_cap"} & set(check_parameters(fn))
    assert cli.HK_MODES == ("HK", "UHK", "HK_local")
    for mode in cli.HK_MODES:
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
    assert err.getvalue() == (f"config error: check_params.{name}.rho_grid "
                              f"needs positive radii, got {grid!r}\n")
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
