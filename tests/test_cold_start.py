"""Cold start: every package loads a layer on its first use.

A process pays to compile and run each module it imports, and short runs
(a ``repro-bench run``, a benchmark child, a ``run_many`` worker) pay it
every time. These tests pin which modules a plain run loads, that
``Engine.run`` imports nothing, and that the lazy exports of every
package resolve to the same objects as the modules that define them.
The process-level checks run ``tests/coldstart_probe.py`` or a short
script in a fresh interpreter, since this test session has long since
imported every layer.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "coldstart_probe.py"

#: modules a plain YSB Klink run must not load
NOT_LOADED_BY_PLAIN_RUN = (
    *(f"repro.obs.{m}" for m in ("report", "compare", "flame", "lineage", "profile", "schema", "timeseries")),
    "repro.resilience",
    "repro.faults.plan",
    "repro.bench.cache",
    "repro.bench.estimation",
    "repro.core.lr",
    "repro.core.classes",
    "repro.workloads.lrb",
    "repro.workloads.nyt",
    "repro.distributed.cluster",
    "multiprocessing",
)

#: packages whose public names load on first use
LAZY_PACKAGES = (
    "repro",
    "repro.obs",
    "repro.core",
    "repro.faults",
    "repro.resilience",
    "repro.bench",
    "repro.workloads",
    "repro.distributed",
    "repro.analysis",
)


def _fresh(args: List[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


def _probe(case: str) -> Dict:
    proc = _fresh([str(PROBE), case])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- process-level checks -------------------------------------------------------


def test_plain_run_import_closure():
    """``import repro.bench.runner, repro.distributed`` plus a short YSB
    Klink run and its summary load none of the layers the run does not
    use, and no ``numpy.ma`` (which ``np.percentile`` imports)."""
    loaded = set(_probe("ysb-klink")["loaded"])
    unexpected = sorted(
        m for m in loaded if any(m == p or m.startswith(p + ".") for p in NOT_LOADED_BY_PLAIN_RUN)
    )
    assert unexpected == []
    assert "numpy.ma" not in loaded


@pytest.mark.parametrize("case", ["ysb-klink", "lrb-default", "ysb-klink-recovery", "ysb-dist-klink"])
def test_engine_run_imports_nothing(case):
    """``set(sys.modules)`` is the same before and after ``Engine.run``: a
    deferred import inside the cycle loop would be timed as run cost."""
    result = _probe(case)
    assert result["run_imports"] == []
    if case == "ysb-klink-recovery":
        assert result["recoveries"] >= 1  # the failover path ran


def test_every_workload_builds_in_a_fresh_interpreter():
    script = (
        "from repro.workloads import build_queries, workload_names\n"
        "names = workload_names()\n"
        "assert names == ['lrb', 'nyt', 'ysb'], names\n"
        "for name in names:\n"
        "    assert len(build_queries(name, 2)) == 2\n"
        "import repro.obs\n"
        "assert repro.obs.report.build_report is repro.obs.build_report\n"
        "from repro import *\n"
        "assert KlinkScheduler.__module__ == 'repro.core.klink'\n"
    )
    proc = _fresh(["-c", script])
    assert proc.returncode == 0, proc.stderr


def test_cli_help_in_a_fresh_interpreter():
    from repro.cli import build_parser

    parser = build_parser()
    (sub,) = [a for a in parser._actions if a.choices and hasattr(a, "_name_parser_map")]
    for args in [["--help"], *([name, "--help"] for name in sub.choices)]:
        proc = _fresh(["-m", "repro.cli", *args])
        assert proc.returncode == 0, (args, proc.stderr)
        assert "usage:" in proc.stdout


# -- the lazy exports -------------------------------------------------------------


def _exports(package: str) -> Dict[str, str]:
    return getattr(importlib.import_module(package), "_EXPORTS", {})


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_all_names_resolve_to_their_defining_modules(package):
    module = importlib.import_module(package)
    table = _exports(package)
    assert set(table) <= set(module.__all__)
    listed = dir(module)
    for name in module.__all__:
        value = getattr(module, name)
        if name in table:
            assert value is getattr(importlib.import_module(table[name]), name), name
        elif name == "__version__":
            assert isinstance(value, str)
        else:  # a submodule, or a name the package defines itself
            submodule = sys.modules.get(f"{package}.{name}")
            assert value is (submodule or vars(module)[name]), name
        assert name in listed, name


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_names_raise_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
    assert not hasattr(module, "__no_such_dunder__")


def test_star_import_binds_every_public_name():
    import repro

    namespace: Dict[str, object] = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)


def test_submodules_are_attributes_and_listed():
    import repro.obs

    assert repro.obs.report is importlib.import_module("repro.obs.report")
    assert "report" in dir(repro.obs)
    assert "lineage" in dir(repro.obs)


@pytest.mark.parametrize("package", [p for p in LAZY_PACKAGES if _exports(p) and p != "repro.analysis"])
def test_type_checking_block_matches_the_table(package):
    """The ``if TYPE_CHECKING:`` imports that show the names to mypy
    import exactly the table's names from the table's modules."""
    path = Path(importlib.import_module(package).__file__)
    tree = ast.parse(path.read_text())
    imported: Dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            for stmt in node.body:
                assert isinstance(stmt, ast.ImportFrom)
                imported.update({alias.name: stmt.module for alias in stmt.names})
    assert imported == _exports(package)
