"""Workload definitions: which formlab configs one benchmark pass runs.

A workload maps config keys to what ``formlab.cli.load_config`` accepts: a
bundled config name (loaded as shipped) or a config dict derived from a
bundled file.  Config keys are unique across workloads because the golden
digests are keyed by them.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIG_DIR = SRC / "formlab" / "configs"

BUNDLED = ("z1_alpha1", "phi_counterexample", "z1_mini",
           "gasket_subordination", "gasket_walk", "z2_alpha1", "halfspace")

# The 23 checks registered in ``formlab.cli.CHECKS`` when the golden digests
# were recorded, in registry order; fixed so the workload does not grow with
# the registry.
ALL_CHECKS = ("volume", "chain", "kernel", "fk", "pi", "gcap", "cs", "exit",
              "tail_ujs", "jpsi_alt", "hk", "hk_minus", "uhk_weak", "diag",
              "pc_equivalence", "dominance", "tail_probability",
              "chain_lower", "phi", "regularity", "meyer", "gap",
              "subordination")


def _bundled(name: str) -> dict:
    return json.loads((CONFIG_DIR / f"{name}.json").read_text())


def checks_of(source) -> list:
    """The checks a config source runs."""
    return (_bundled(source) if isinstance(source, str) else source)["checks"]


def z1_all(side: int) -> dict:
    """``z1_alpha1`` geometry and scales at ``side`` running every check;
    ``jpsi_alt`` probes the true phi_j."""
    cfg = _bundled("z1_alpha1")
    cfg["name"] = f"z1_all_{side}"
    cfg["space"]["side"] = side
    cfg["checks"] = list(ALL_CHECKS)
    cfg["check_params"] = {"jpsi_alt": {"phi_j": cfg["scales"]["phi_j"]},
                           "pc_equivalence": {"n_per_axis": 100}}
    return cfg


def workloads() -> dict:
    """Workload name -> {config key: load_config source}, in the order a
    pass runs them.  The order is fixed: the peak RSS of a pass depends on
    it."""
    return {
        "bundled": {name: name for name in BUNDLED},
        "z1_all_512": {"z1_all_512": z1_all(512)},
    }

