"""Determinism linter: AST checks for forbidden-in-simulation constructs.

Klink's evaluation rests on comparing schedulers under *identical*
simulated conditions, and the fault/invariant subsystem makes
byte-for-byte run determinism a load-bearing guarantee
(``tests/test_determinism.py``). This module statically prevents the
constructs that silently break it:

========  ==============================================================
 code      rule
========  ==============================================================
 KL001     absolute wall-clock access (``time.time``, ``datetime.now``,
           ...) — simulation code must use the virtual clock.
 KL002     unseeded randomness: the ``random`` module,
           ``numpy.random`` module-level sampling/seeding functions,
           and seedless generator constructors
           (``default_rng()``, ``RandomState()``). Seeded generators
           passed as parameters are the sanctioned source of noise.
 KL003     iteration over an unordered set expression (``for x in
           set(...)``, ``list({...})``); set iteration order depends on
           ``PYTHONHASHSEED``, so anything ordering-sensitive downstream
           becomes run-dependent. Wrap in ``sorted(...)`` instead.
 KL004     ``id()``-based ordering (``sorted(key=id)``,
           ``id(a) < id(b)``): CPython ids are allocation addresses and
           differ across runs. (Using ``id`` as a *dict key* is fine.)
 KL005     float accumulation into watermark/slack state
           (``wm += period``): repeated float addition drifts; derive
           the value from an integer step count instead.
 KL006     monotonic/interval timer access (``time.monotonic``,
           ``time.perf_counter``, ``time.process_time``, ...): interval
           timers measure host time, not simulated time, so any value
           derived from them varies across machines and runs.
 KL007     per-element ``.sample()`` delay draws inside a loop (engine
           code under ``repro/spe/`` only): the engine draws every
           delay through ``sample_amortized``, whose value stream (like
           ``sample_batch``'s) is pinned bit-identical to sequential
           ``sample()`` calls — a ``sample()`` loop pays one numpy call
           per draw for the same values. The alias form (``sample =
           model.sample`` ... ``sample()``) is caught too.
========  ==============================================================

A finding on a given line is suppressed with an inline pragma on that
line::

    t0 = time.time()  # klink: allow[KL001]
    slack += p * x    # klink: allow[KL005]  expectation, not a cursor
    anything()        # klink: allow[*]

Run over a tree with ``repro-lint PATH...`` (or
``python -m repro.analysis.lint``, or ``repro-bench lint``); exit code is
0 when clean, 1 when findings exist, 2 on usage errors.

The checks are intentionally syntactic (no type inference): a set bound
to a variable and iterated later is not caught. They target the patterns
that review keeps finding, not a soundness proof.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.pragmas import apply_suppressions, parse_pragmas
from repro.analysis.report import Diagnostic, Report

#: rule code -> one-line summary (rendered by ``--rules`` and the docs)
RULES: Dict[str, str] = {
    "KL000": "file could not be parsed (syntax error)",
    "KL001": "absolute wall-clock access in simulation code (use the virtual clock)",
    "KL002": "unseeded randomness (route noise through a seeded Generator)",
    "KL003": "iteration over an unordered set (order depends on PYTHONHASHSEED)",
    "KL004": "id()-based ordering (ids are allocation addresses)",
    "KL005": "float accumulation into watermark/slack state (derive from an integer step count)",
    "KL006": "monotonic/interval timer access (host time leaks into simulated values)",
    "KL007": "per-element .sample() delay draw in a loop (batch via sample_batch/sample_amortized)",
}

#: rules active only under a path fragment; everywhere else they are
#: suppressed at the file level (KL007 polices engine code — the delay
#: models themselves, tests, and tooling legitimately draw one-by-one)
RULE_SCOPES: Dict[str, str] = {
    "KL007": "spe/",
}

#: files (matched by path suffix) with rules that are allowed inside them
DEFAULT_FILE_ALLOWLIST: Dict[str, FrozenSet[str]] = {}

#: absolute clock reads (KL001): epoch/calendar time
_ABSOLUTE_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: monotonic / interval timer reads (KL006): host durations
_MONOTONIC_CLOCK_CALLS = frozenset(
    {
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.thread_time",
        "time.thread_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
    }
)

#: numpy.random names that are fine *when called with a seed argument*
_SEEDED_CTORS = frozenset(
    {
        "default_rng",
        "RandomState",
        "Generator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

#: builtins that materialize/consume their argument in iteration order
_ORDER_SENSITIVE_CONSUMERS = frozenset(
    {"list", "tuple", "enumerate", "iter", "reversed", "next"}
)

#: set methods whose result is another unordered set
_SET_PRODUCING_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)

#: augmented-assignment targets matched by KL005
_KL005_NAME = re.compile(r"(watermark|slack|wm_ts)", re.IGNORECASE)


class _LintVisitor(ast.NodeVisitor):
    """Single-pass AST walk applying every rule."""

    def __init__(self, filename: str) -> None:
        self.filename = filename
        self.findings: List[Diagnostic] = []
        # import alias -> dotted module path ("np" -> "numpy",
        # "pc" -> "time.perf_counter" for from-imports)
        self._aliases: Dict[str, str] = {}
        # KL007 state: current for/while nesting depth, and local names
        # bound from an expression containing a ``.sample`` attribute
        # (``sample = spec.delay_model.sample``) — calling such a name in
        # a loop is the aliased form of a per-element draw.
        self._loop_depth = 0
        self._sample_aliases: set = set()

    # -- helpers -----------------------------------------------------------

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Diagnostic(
                code=code,
                message=message,
                severity="error",
                file=self.filename,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
            )
        )

    def _dotted_path(self, node: ast.expr) -> Optional[str]:
        """Resolve ``np.random.rand`` through import aliases to a dotted
        path like ``numpy.random.rand``; None for non-name-rooted chains."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self._aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))

    # -- import tracking ---------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self._aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    # -- KL001 / KL002: calls ----------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        path = self._dotted_path(node.func)
        if path is not None:
            self._check_wall_clock(node, path)
            self._check_randomness(node, path)
            self._check_order_consumer(node, path)
            self._check_id_sort_key(node, path)
        self._check_sample_in_loop(node)
        self.generic_visit(node)

    # -- KL007: per-element delay draws in loops ----------------------------

    def _check_sample_in_loop(self, node: ast.Call) -> None:
        if self._loop_depth == 0:
            return
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr != "sample":
                return
        elif isinstance(func, ast.Name):
            if func.id not in self._sample_aliases:
                return
        else:
            return
        self._flag(
            node,
            "KL007",
            "per-element .sample() draw inside a loop: draw through "
            "sample_amortized() or sample_batch() (the same values, by the "
            "pinned batching contract)",
        )

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self._flag_set_iteration(node.iter)
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_Assign(self, node: ast.Assign) -> None:
        # Record names bound from a ``.sample``-bearing expression (also
        # via a conditional expression choosing between sample variants):
        # the engine's generator binds its draw method to a local the same
        # way, and a loop later calls the alias.
        if any(
            isinstance(sub, ast.Attribute) and sub.attr == "sample"
            for sub in ast.walk(node.value)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._sample_aliases.add(target.id)
        self.generic_visit(node)

    def _check_wall_clock(self, node: ast.Call, path: str) -> None:
        if path in _ABSOLUTE_CLOCK_CALLS:
            self._flag(
                node,
                "KL001",
                f"wall-clock call {path}() in simulation code; use the "
                "engine's VirtualClock",
            )
        elif path in _MONOTONIC_CLOCK_CALLS:
            self._flag(
                node,
                "KL006",
                f"interval timer {path}() measures host time, not "
                "simulated time; use the engine's VirtualClock (host-time "
                "measurements belong in perfbench/, outside the simulator)",
            )

    def _check_randomness(self, node: ast.Call, path: str) -> None:
        has_args = bool(node.args or node.keywords)
        if path.startswith("random."):
            name = path.split(".", 1)[1]
            if name == "Random" and has_args:
                return  # random.Random(seed) is reproducible
            self._flag(
                node,
                "KL002",
                f"{path}() draws from the process-global (unseeded) RNG; "
                "use a numpy Generator seeded from the run's seed",
            )
            return
        if path.startswith("numpy.random."):
            name = path.split(".", 2)[2]
            if name in _SEEDED_CTORS:
                if not has_args:
                    self._flag(
                        node,
                        "KL002",
                        f"{path}() without a seed is entropy-seeded; pass "
                        "an explicit seed derived from the run's seed",
                    )
                return
            self._flag(
                node,
                "KL002",
                f"module-level {path}() mutates/reads numpy's global RNG; "
                "use a seeded Generator instance instead",
            )

    # -- KL003: unordered iteration ----------------------------------------

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            path = self._dotted_path(node.func)
            if path in ("set", "frozenset") and node.args:
                # bare set()/frozenset() literals are empty: harmless
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_PRODUCING_METHODS
            ):
                return True
        return False

    def _flag_set_iteration(self, node: ast.expr) -> None:
        self._flag(
            node,
            "KL003",
            "iterating an unordered set: order depends on PYTHONHASHSEED "
            "and varies across runs; wrap in sorted(...)",
        )

    def _visit_comprehension(self, node: ast.expr, gens: List[ast.comprehension]) -> None:
        for gen in gens:
            if self._is_set_expr(gen.iter):
                self._flag_set_iteration(gen.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # building another set from a set keeps it unordered: fine
        self.generic_visit(node)

    def _check_order_consumer(self, node: ast.Call, path: str) -> None:
        if path in _ORDER_SENSITIVE_CONSUMERS:
            args: Sequence[ast.expr] = node.args[:1]
        elif path == "zip":
            args = node.args
        elif path in ("map", "filter"):
            args = node.args[1:]
        else:
            return
        for arg in args:
            if self._is_set_expr(arg):
                self._flag_set_iteration(arg)

    # -- KL004: id()-based ordering ----------------------------------------

    @staticmethod
    def _contains_id_call(node: ast.expr) -> bool:
        # ``key=id`` passes the builtin itself; ``key=lambda o: id(o)``
        # buries the call one level down — match both.
        if isinstance(node, ast.Name) and node.id == "id":
            return True
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"
            ):
                return True
        return False

    def _check_id_sort_key(self, node: ast.Call, path: str) -> None:
        is_sort = path == "sorted" or (
            isinstance(node.func, ast.Attribute) and node.func.attr == "sort"
        )
        if not is_sort:
            return
        for kw in node.keywords:
            if kw.arg == "key" and self._contains_id_call(kw.value):
                self._flag(
                    node,
                    "KL004",
                    "sorting by id(): object addresses differ between runs; "
                    "sort by a stable attribute (name, index, sequence number)",
                )

    @staticmethod
    def _is_id_call(node: ast.expr) -> bool:
        """True for a bare ``id(...)`` call (not ``d[id(x)]`` lookups)."""
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        )

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        ordering = any(
            isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops
        )
        # Only flag when an id() call is itself being ordered; indexing a
        # dict/list *by* id and comparing the stored values is legitimate.
        if ordering and any(self._is_id_call(arg) for arg in operands):
            self._flag(
                node,
                "KL004",
                "ordering comparison on id(): object addresses differ "
                "between runs; compare a stable attribute instead",
            )
        self.generic_visit(node)

    # -- KL005: float accumulation into watermark/slack state --------------

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            target = node.target
            name: Optional[str] = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name is not None and _KL005_NAME.search(name):
                value_is_int = isinstance(node.value, ast.Constant) and isinstance(
                    node.value.value, int
                )
                if not value_is_int:
                    self._flag(
                        node,
                        "KL005",
                        f"float accumulation into {name!r}: repeated += "
                        "drifts; compute origin + k * period from an "
                        "integer step count",
                    )
        self.generic_visit(node)


def lint_source(
    source: str,
    filename: str = "<string>",
    allowed: AbstractSet[str] = frozenset(),
) -> Report:
    """Lint one source blob; ``allowed`` suppresses whole rule codes."""
    report = Report()
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        report.add(
            "KL000",
            f"syntax error: {exc.msg}",
            file=filename,
            line=exc.lineno or 0,
            col=exc.offset or 0,
        )
        return report
    visitor = _LintVisitor(filename)
    visitor.visit(tree)
    kept, suppressed = apply_suppressions(
        visitor.findings, parse_pragmas(source), allowed
    )
    report.diagnostics.extend(kept)
    report.record_suppressed(suppressed)
    return report


def _file_allowlist(
    path: Path, file_allowlist: Mapping[str, AbstractSet[str]]
) -> AbstractSet[str]:
    posix = path.as_posix()
    allowed: FrozenSet[str] = frozenset()
    for suffix, codes in sorted(file_allowlist.items()):
        if posix.endswith(suffix):
            allowed = allowed | frozenset(codes)
    # Scoped rules: active only under their path fragment, suppressed
    # wholesale everywhere else.
    for code, fragment in sorted(RULE_SCOPES.items()):
        if fragment not in posix:
            allowed = allowed | frozenset({code})
    return allowed


def lint_file(
    path: Path,
    file_allowlist: Mapping[str, AbstractSet[str]] = DEFAULT_FILE_ALLOWLIST,
) -> Report:
    source = path.read_text(encoding="utf-8")
    return lint_source(
        source, filename=str(path), allowed=_file_allowlist(path, file_allowlist)
    )


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    files = set()
    for path in paths:
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def lint_paths(
    paths: Iterable[Path],
    file_allowlist: Mapping[str, AbstractSet[str]] = DEFAULT_FILE_ALLOWLIST,
) -> Report:
    """Lint every ``*.py`` under ``paths``; returns the merged report."""
    report = Report()
    for path in iter_python_files(paths):
        report.extend(lint_file(path, file_allowlist))
    return report


def _render_rules() -> str:
    width = max(len(code) for code in RULES)
    return "\n".join(
        f"{code:{width}s}  {summary}" for code, summary in sorted(RULES.items())
    )


def run_lint(
    paths: Sequence[str],
    output_format: str = "text",
    quiet: bool = False,
    state: bool = False,
) -> Tuple[Report, int]:
    """Shared driver for the console script and ``repro-bench lint``.

    Returns ``(report, exit_code)``; prints the rendered report unless
    ``quiet``. Exit code 0 = clean, 1 = findings, 2 = no files found.
    With ``state=True`` the state-contract analyzer (KS2xx/KW3xx rules,
    :mod:`repro.analysis.statecheck`) runs over the same paths and its
    findings are merged into the report.
    """
    files = iter_python_files([Path(p) for p in paths])
    if not files:
        if not quiet:
            print(f"repro-lint: no python files under {list(paths)!r}", file=sys.stderr)
        return Report(), 2
    report = lint_paths([Path(p) for p in paths])
    if state:
        from repro.analysis import statecheck

        report.extend(statecheck.check_paths([Path(p) for p in paths]))
    if not quiet:
        if output_format == "json":
            print(report.to_json())
        elif report.diagnostics:
            print(report.render_text())
        else:
            suffix = " (lint + state contract)" if state else ""
            print(f"repro-lint: {len(files)} file(s) clean{suffix}")
    return report, (1 if report.diagnostics else 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="determinism linter for the Klink reproduction tree",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text", dest="output_format"
    )
    parser.add_argument(
        "--ci",
        action="store_true",
        help="CI mode: identical checks; documents the exit-code contract "
        "(0 clean, 1 findings, 2 usage error)",
    )
    parser.add_argument(
        "--state",
        action="store_true",
        help="also run the state-contract analyzer (KS2xx/KW3xx rules)",
    )
    parser.add_argument(
        "--rules", action="store_true", help="list rule codes and exit"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.rules:
        print(_render_rules())
        return 0
    _, code = run_lint(
        args.paths, output_format=args.output_format, state=args.state
    )
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
