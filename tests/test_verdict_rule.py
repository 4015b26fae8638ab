"""One rule forms every verdict: ``ConditionReport.judge``, in the verdict's
home module ``functionals``, turns the kind and bound a check declares into
its verdict.  No other src/formlab module spells a verdict, and no report
is built with a verdict other than run_suite's ``ERRORED``: each is judged
where it is built.  Read with ``ast`` only."""

import ast
import math
from pathlib import Path

import numpy as np

import formlab
from formlab import cli
from formlab.functionals import KINDS, ConditionReport, positive

SOURCES = sorted(Path(formlab.__file__).parent.glob("*.py"))
HOME = "functionals"
LABELS = {*KINDS.values(), "failed"}


def spelled_labels(sources):
    """(module, line, label) of each string literal outside ``HOME`` that
    is a whole verdict label."""
    return [(mod, node.lineno, node.value) for mod, src in sources.items()
            if mod != HOME for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.Constant) and node.value in LABELS]


def unjudged_reports(sources):
    """(module, line) of each ``ConditionReport(...)`` built with a verdict
    other than the name ``ERRORED``, or with none and not judged on the
    spot (``ConditionReport(...).judge(...)``)."""
    found = []
    for mod, src in sources.items():
        tree = ast.parse(src)
        judged = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "judge"}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "ConditionReport"):
                continue
            given = [*node.args[1:2], *(kw.value for kw in node.keywords
                                        if kw.arg == "verdict")]
            if (given and not (isinstance(given[0], ast.Name)
                               and given[0].id == "ERRORED")
                    or not given and id(node) not in judged):
                found.append((mod, node.lineno))
    return sorted(found)


def test_only_the_home_spells_a_verdict():
    found = spelled_labels({p.stem: p.read_text() for p in SOURCES})
    assert found == [], f"verdict labels spelled outside {HOME}: {found}"


def test_every_report_is_judged():
    found = unjudged_reports({p.stem: p.read_text() for p in SOURCES})
    assert found == [], f"reports whose verdict no rule formed: {found}"


def test_detectors_on_synthetic_package():
    sources = {
        "functionals": ('KINDS = {"certificate": "certified"}\n'
                        'def _no_ball(c):\n'
                        '    return ConditionReport(c, "failed")\n'),
        "cli": ('def chk(ok):\n'
                '    return ConditionReport("X", "certified" if ok\n'
                '                           else "failed")\n'
                'def run(name):\n'
                '    return ConditionReport(name, ERRORED)\n'
                'def fit(c):\n'
                '    return ConditionReport("Y", constants=c).judge(c=f)\n'
                'def bare(v):\n'
                '    return ConditionReport("Z", verdict=v)\n'
                'def unset():\n'
                '    return ConditionReport("W")\n'),
    }
    # the home may spell labels, but builds no report with a literal; the
    # labels of ``chk`` are spelled outside it; ``run`` and ``fit`` pass
    assert sorted(spelled_labels(sources)) == [("cli", 2, "certified"),
                                               ("cli", 3, "failed")]
    assert unjudged_reports(sources) == [("cli", 2), ("cli", 9), ("cli", 11),
                                         ("functionals", 3)]


def test_ok_verdicts_are_the_kinds():
    assert cli.OK_VERDICTS == set(KINDS.values()) == {
        "certified", "one-sided-certificate", "certified-for-family"}


def test_judge_reads_constants_then_ranges():
    rep = ConditionReport("X", constants={"c": 1.0, "n": math.inf},
                          ranges={"n": 3, "empty": 0})
    assert rep.judge(c=np.isfinite).verdict == "certified"
    assert rep.judge("one-sided").verdict == "one-sided-certificate"
    assert rep.judge("for-family", c=positive).verdict == \
        "certified-for-family"
    # a constant shadows the range of its name
    assert rep.judge(n=np.isfinite).verdict == "failed"
    assert rep.judge(c=np.isfinite, empty=positive).verdict == "failed"
    # a name the report lacks reads nan: it fails a comparison, and passes
    # a test that fails only over a cap
    assert rep.judge(missing=lambda v: v < math.inf).verdict == "failed"
    assert rep.judge(missing=lambda v: not v > 1.0).verdict == "certified"
