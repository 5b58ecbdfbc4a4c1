"""Source analyzer: determinism, state-contract and worker-purity rules.

Klink's evaluation rests on comparing schedulers under *identical*
simulated conditions, and the fault/invariant subsystem makes
byte-for-byte run determinism a load-bearing guarantee
(``tests/test_determinism.py``). Failover correctness further hinges on
a checkpoint holding *every* mutable field of the engine, operators,
channels, bindings, schedulers, metric ledgers and lineage tracker, or
a restored run silently diverges from the original. This module checks
the source for both. Every ``*.py`` under the given paths is read and
parsed once into one module record; each rule family reads that record,
and each module's findings go through one suppression pass.

The rule table is :data:`RULES` (``repro-lint --rules`` prints it), in
three families by code prefix: KL (determinism), KS (state contract)
and KW (worker purity); ``docs/API.md`` describes each rule.

The KL family runs on every file. ``--state`` adds the KS and KW
families, which check the package found under the paths: the directory
two levels above ``resilience/checkpoint.py``. Each checkpointed class
declares its state once, as a ``CHECKPOINT`` tuple of ``(snapshot key,
attribute, codec)`` entries that one generic walk
(:mod:`repro.spe.state`) captures and restores. The analyzer never
imports the code under test: declarations are read from the literal AST
of each class body and compared against the attributes the class
mutates. Coverage resolves through the base chain, as the walk joins
declarations along the MRO. A single walk cannot capture a field it
does not restore, so there is no symmetry rule. The fingerprint lists
each declared field as ``key=attr:codec``, the codec being its
expression's source text, so a renamed snapshot key or a swapped codec
changes it as a new attribute does.

A finding on a given line is suppressed with an inline pragma on that
line::

    t0 = time.time()  # klink: allow[KL001]
    slack += p * x    # klink: allow[KL005]  expectation, not a cursor
    anything()        # klink: allow[*]

Run over a tree with ``repro-lint PATH...`` (or
``python -m repro.analysis.lint``, or ``repro-bench lint``), adding
``--state`` for the KS/KW families. Exit codes: 0 clean, 1 findings,
2 usage error (no python files, or with ``--state`` no contract source).
``--update-fingerprint`` (implies ``--state``) rewrites
``src/repro/resilience/schema_fingerprint.json`` — but still fails with
KS210 if a declaration changed without a ``SCHEMA_VERSION`` bump.

The checks are intentionally syntactic (no type inference): a set bound
to a variable and iterated later is not caught. They target the patterns
that review keeps finding, not a soundness proof.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.analysis.pragmas import Pragmas, apply_suppressions, parse_pragmas
from repro.analysis.report import Diagnostic, Report

#: rule code -> one-line summary (rendered by ``--rules`` and the docs),
#: grouped by family: KL runs always, ``--state`` adds KS and KW
RULES: Dict[str, str] = {
    "KL000": "file could not be parsed (syntax error)",
    "KL001": "absolute wall-clock access in simulation code (use the virtual clock)",
    "KL002": "unseeded randomness (route noise through a seeded Generator)",
    "KL003": "iteration over an unordered set (order depends on PYTHONHASHSEED)",
    "KL004": "id()-based ordering (ids are allocation addresses)",
    "KL005": "float accumulation into watermark/slack state (derive from an integer step count)",
    "KL006": "monotonic/interval timer access (host time leaks into simulated values)",
    "KL007": "per-element .sample() delay draw in a loop (batch via sample_batch/sample_amortized)",
    "KS200": "contract source resilience/checkpoint.py not found or unparsable",
    "KS201": "mutable attribute of a checkpointed class is not declared (mark transient[reason] if deliberate)",
    "KS210": "declared fields (key, attribute, codec) changed without a SCHEMA_VERSION bump",
    "KS211": "schema_fingerprint.json missing or stale (regenerate with --update-fingerprint)",
    "KS221": "json.dumps without sort_keys=True in a canonical-serialization path",
    "KS222": "unordered dict/set iteration materialized into serialized list output",
    "KS223": "float accumulation into a serialized cursor/deadline field",
    "KS224": "append-only ledger rewritten in place (only append/extend/+= keep snapshot views exact)",
    "KW301": "worker-dispatched function reads a module-level mutable global",
    "KW302": "unpicklable callable (lambda/nested def) dispatched to a worker pool",
}

#: rules active only under a path fragment; everywhere else they are
#: suppressed at the file level (KL007 polices engine code — the delay
#: models themselves, tests, and tooling legitimately draw one-by-one)
RULE_SCOPES: Dict[str, str] = {
    "KL007": "spe/",
}

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

#: path of the contract source, relative to the package root
_CONTRACT_SOURCE = "resilience/checkpoint.py"
#: checked-in fingerprint of the declared field sets, next to the source
_FINGERPRINT_FILE = "resilience/schema_fingerprint.json"

#: files (by package-relative path) whose json output must be canonical
_SERIALIZER_FILES = ("resilience/checkpoint.py", "spe/state.py", "bench/cache.py")

#: the class attribute that declares checkpoint state
_DECLARATION = "CHECKPOINT"

#: pool method names whose first argument runs in a worker process
_POOL_DISPATCH_METHODS = frozenset(
    {"map", "imap", "imap_unordered", "starmap", "apply", "apply_async",
     "map_async", "starmap_async"}
)

#: extra worker-purity roots: functions whose cached results stand in for
#: execution (replayed from the result cache under the code fingerprint),
#: so they must behave identically in any process
_FINGERPRINT_ROOTS = frozenset({"run_experiment"})

#: method names that mutate their receiver in place
_MUTATOR_METHODS = frozenset(
    {"append", "extend", "add", "update", "pop", "popitem", "popleft",
     "appendleft", "clear", "remove", "discard", "insert", "setdefault",
     "sort", "reverse", "rotate"}
)

#: heapq functions that mutate their first argument
_HEAP_MUTATORS = frozenset(
    {"heappush", "heappop", "heapify", "heappushpop", "heapreplace"}
)

#: constructors of mutable containers (a module global bound to one is
#: worker-purity state once something mutates it)
_CONTAINER_CALLS = frozenset(
    {"dict", "list", "set", "OrderedDict", "deque", "defaultdict"}
)

#: captured attr names matched by KS223 (serialized time cursors)
_CURSOR_NAME = re.compile(
    r"(time|until|deadline|origin|emit|clock|timestamp|_ts)$", re.IGNORECASE
)

#: methods that rewrite a list/array in place, and those that only grow it
#: at its end (fine on a ledger, not on one column of a column ledger)
_REWRITE_METHODS = {"sort", "reverse", "clear", "pop", "insert", "remove", "byteswap"}
_GROWTH_METHODS = {"append", "extend", "frombytes", "fromlist"}

_KS222_MESSAGE = (
    "unordered dict/set iteration materialized into a list feeding "
    "serialized output; wrap in sorted(...)"
)


# -- loader and driver -------------------------------------------------------


@dataclass
class _Module:
    """One source file, read and parsed once, and its findings."""

    path: Path
    #: path relative to the package root (the path itself outside one)
    rel: str
    tree: ast.Module
    pragmas: Pragmas
    #: findings of every rule family, before suppression
    findings: List[Diagnostic] = field(default_factory=list)

    def flag(self, at: Union[ast.AST, int], code: str, message: str) -> None:
        """Record a finding at a node, or at a bare line number."""
        if isinstance(at, int):
            line, col = at, None
        else:
            line, col = getattr(at, "lineno", 0), getattr(at, "col_offset", 0)
        self.findings.append(
            Diagnostic(code=code, message=message, file=str(self.path), line=line, col=col)
        )


def _load(source: str, path: Path, rel: str, report: Report) -> Optional[_Module]:
    """Parse ``source``; a syntax error is reported as KL000 instead."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        report.add(
            "KL000",
            f"syntax error: {exc.msg}",
            file=str(path),
            line=exc.lineno or 0,
            col=exc.offset or 0,
        )
        return None
    return _Module(path, rel, tree, parse_pragmas(source))


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    files = set()
    for path in paths:
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def _package_root(files: Sequence[Path]) -> Optional[Path]:
    """The directory two levels above the contract source
    (``<root>/resilience/checkpoint.py``), when it is among ``files``."""
    for path in files:
        if path.name == "checkpoint.py" and path.parent.name == "resilience":
            return path.parent.parent
    return None


def _scoped_out(path: Path) -> FrozenSet[str]:
    """Scoped rules suppressed wholesale in ``path`` (it lies outside
    their path fragment)."""
    return frozenset(
        code for code, fragment in RULE_SCOPES.items() if fragment not in path.as_posix()
    )


def _finish(module: _Module, report: Report, allowed: AbstractSet[str]) -> None:
    """Run the KL family over ``module``, then pass every finding it
    holds through the module's one suppression pass into ``report``."""
    _LintVisitor(module).visit(module.tree)
    kept, suppressed = apply_suppressions(module.findings, module.pragmas, allowed)
    report.extend(kept)
    report.record_suppressed(suppressed)


def lint_source(
    source: str,
    filename: str = "<string>",
    allowed: AbstractSet[str] = frozenset(),
) -> Report:
    """The KL rules over one source blob; ``allowed`` suppresses whole
    rule codes."""
    report = Report()
    module = _load(source, Path(filename), filename, report)
    if module is not None:
        _finish(module, report, allowed)
    return report


def lint_paths(
    paths: Sequence[Path], state: bool = False, update_fingerprint: bool = False
) -> Report:
    """Analyze every ``*.py`` under ``paths``: the KL rules, plus the KS
    and KW rules with ``state`` (``update_fingerprint`` rewrites the
    schema fingerprint as it goes)."""
    files = iter_python_files(paths)
    root = _package_root(files)
    report = Report()
    modules: List[_Module] = []
    for path in files:
        rel = path.as_posix()
        if root is not None and path.is_relative_to(root):
            rel = path.relative_to(root).as_posix()
        module = _load(path.read_text(encoding="utf-8"), path, rel, report)
        if module is not None:
            modules.append(module)
    if state:
        _check_state(root, modules, paths, report, update_fingerprint)
    for module in modules:
        _finish(module, report, _scoped_out(module.path))
    return report


# -- shared AST helpers ------------------------------------------------------


def _name_of(node: ast.expr) -> str:
    """``x`` for ``x`` and ``a.b.x``; "" for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else ""


def _bindings(body: Iterable[ast.stmt]) -> Iterator[Tuple[str, Optional[ast.expr]]]:
    """``(name, value)`` for each ``name = value`` and ``name: T = value``
    statement of a body (value None for a bare annotation)."""
    for node in body:
        value: Optional[ast.expr]
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        else:
            continue
        if isinstance(target, ast.Name):
            yield target.id, value


def _is_self_attr(node: ast.expr) -> bool:
    """True for ``self.x``."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _float_step(node: ast.AugAssign) -> Optional[str]:
    """The name a ``+=``/``-=`` of anything but an integer literal
    accumulates into (the attribute of ``x.attr``), else None. Repeated
    float addition drifts (KL005 and KS223)."""
    if not isinstance(node.op, (ast.Add, ast.Sub)):
        return None
    if isinstance(node.value, ast.Constant) and isinstance(node.value.value, int):
        return None
    return _name_of(node.target) or None


class _AliasVisitor(ast.NodeVisitor):
    """Import-alias tracking shared by the per-module rule visitors."""

    def __init__(self, module: _Module) -> None:
        self.module = module
        # import alias -> dotted module path ("np" -> "numpy",
        # "pc" -> "time.perf_counter" for from-imports)
        self._aliases: Dict[str, str] = {}

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

    def _is_set_expr(self, node: ast.expr) -> bool:
        """An expression whose value is an unordered set (KL003, KS222)."""
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


# -- KL: determinism ---------------------------------------------------------


class _LintVisitor(_AliasVisitor):
    """Single-pass AST walk applying every KL rule."""

    def __init__(self, module: _Module) -> None:
        super().__init__(module)
        # KL007 state: current for/while nesting depth, and local names
        # bound from an expression containing a ``.sample`` attribute
        # (``sample = spec.delay_model.sample``) — calling such a name in
        # a loop is the aliased form of a per-element draw.
        self._loop_depth = 0
        self._sample_aliases: set = set()

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
        self.module.flag(
            node,
            "KL007",
            "per-element .sample() draw inside a loop: draw through "
            "sample_amortized() or sample_batch() (the same values, by the "
            "pinned batching contract)",
        )

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self._flag_set_iteration(node.iter)
        self._visit_loop(node)

    def _visit_loop(self, node: ast.stmt) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    visit_AsyncFor = visit_While = _visit_loop

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
            self.module.flag(
                node,
                "KL001",
                f"wall-clock call {path}() in simulation code; use the "
                "engine's VirtualClock",
            )
        elif path in _MONOTONIC_CLOCK_CALLS:
            self.module.flag(
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
            self.module.flag(
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
                    self.module.flag(
                        node,
                        "KL002",
                        f"{path}() without a seed is entropy-seeded; pass "
                        "an explicit seed derived from the run's seed",
                    )
                return
            self.module.flag(
                node,
                "KL002",
                f"module-level {path}() mutates/reads numpy's global RNG; "
                "use a seeded Generator instance instead",
            )

    # -- KL003: unordered iteration ----------------------------------------

    def _flag_set_iteration(self, node: ast.expr) -> None:
        self.module.flag(
            node,
            "KL003",
            "iterating an unordered set: order depends on PYTHONHASHSEED "
            "and varies across runs; wrap in sorted(...)",
        )

    def _visit_comprehension(
        self, node: Union[ast.ListComp, ast.GeneratorExp, ast.DictComp]
    ) -> None:
        # a set comprehension over a set keeps it unordered: not visited
        for gen in node.generators:
            if self._is_set_expr(gen.iter):
                self._flag_set_iteration(gen.iter)
        self.generic_visit(node)

    visit_ListComp = visit_GeneratorExp = visit_DictComp = _visit_comprehension

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
        return any(_LintVisitor._is_id_call(sub) for sub in ast.walk(node))

    def _check_id_sort_key(self, node: ast.Call, path: str) -> None:
        is_sort = path == "sorted" or (
            isinstance(node.func, ast.Attribute) and node.func.attr == "sort"
        )
        if not is_sort:
            return
        for kw in node.keywords:
            if kw.arg == "key" and self._contains_id_call(kw.value):
                self.module.flag(
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
            self.module.flag(
                node,
                "KL004",
                "ordering comparison on id(): object addresses differ "
                "between runs; compare a stable attribute instead",
            )
        self.generic_visit(node)

    # -- KL005: float accumulation into watermark/slack state --------------

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        name = _float_step(node)
        if name is not None and _KL005_NAME.search(name):
            self.module.flag(
                node,
                "KL005",
                f"float accumulation into {name!r}: repeated += "
                "drifts; compute origin + k * period from an "
                "integer step count",
            )
        self.generic_visit(node)


# -- KS: the package's classes and their declarations ------------------------


@dataclass
class _Field:
    """One ``(key, attribute, codec)`` entry of a declaration."""

    key: str
    attr: str
    codec: ast.expr

    @property
    def fingerprint(self) -> str:
        """``key=attr:codec``, the codec as its expression's source."""
        return f"{self.key}={self.attr}:{ast.unparse(self.codec)}"

    @property
    def ledger_depth(self) -> Optional[int]:
        """Subscripts down to the ledger for a ledger codec (``LEDGER``:
        0; a dict of ledgers such as ``keyed_ledgers(...)``: 1), else
        None."""
        names = {
            _name_of(node)
            for node in ast.walk(self.codec)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        if any(name.lower().endswith("ledgers") for name in names):
            return 1
        return 0 if "LEDGER" in names else None


@dataclass
class _ClassInfo:
    module: _Module
    node: ast.ClassDef

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def bases(self) -> List[str]:
        return [name for name in map(_name_of, self.node.bases) if name]

    @property
    def is_dataclass(self) -> bool:
        return any(
            _name_of(d.func if isinstance(d, ast.Call) else d) == "dataclass"
            for d in self.node.decorator_list
        )

    @property
    def declaration(self) -> Optional[List[_Field]]:
        """The class body's own ``CHECKPOINT`` entries (None without one)."""
        for name, value in _bindings(self.node.body):
            if name != _DECLARATION:
                continue
            fields: List[_Field] = []
            for entry in value.elts if isinstance(value, (ast.Tuple, ast.List)) else ():
                if isinstance(entry, ast.Tuple) and len(entry.elts) == 3:
                    key, attr, codec = entry.elts
                    if isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                        key_text = key.value if isinstance(key, ast.Constant) else ast.unparse(key)
                        fields.append(_Field(str(key_text), attr.value, codec))
            return fields
        return None


class _Package:
    """The modules under the package root, with a class index."""

    def __init__(self, root: Path, modules: List[_Module]) -> None:
        self.root = root
        self.modules = modules
        self.classes: Dict[str, _ClassInfo] = {}
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and node.name not in self.classes:
                    self.classes[node.name] = _ClassInfo(module, node)

    def ancestors(self, name: str) -> List[_ClassInfo]:
        """``name`` then its base chain, nearest first (resolution over
        classes known to the package)."""
        chain: List[_ClassInfo] = []
        seen: Set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            info = self.classes[current]
            chain.append(info)
            frontier.extend(info.bases)
        return chain

    def declared(self, info: _ClassInfo) -> Optional[List[_Field]]:
        """Every field the class chain of ``info`` declares, or None when
        no class in it declares checkpoint state."""
        declarations = [a.declaration for a in self.ancestors(info.name)]
        if all(d is None for d in declarations):
            return None
        return [f for d in declarations if d for f in d]


# -- KS201: every mutable attribute is declared --------------------------------


@dataclass
class _MutableAttr:
    line: int
    #: every line this attribute is assigned/mutated on (pragma anchors)
    lines: List[int]
    how: str


class _ClassStateVisitor(ast.NodeVisitor):
    """Find attributes a class mutates after construction.

    An attribute counts as *state* when the class (a) plainly assigns it
    outside ``__init__``/``__post_init__``, (b) augments it anywhere, or
    (c) writes through it (``self.x[k] = ...``, ``self.x.y = ...``) or
    calls a known in-place mutator / heapq function on it outside the
    constructor. Arbitrary method calls are deliberately not counted:
    observer attachments (``self.audit.on_cycle()``) are not state.
    """

    _INIT_METHODS = frozenset({"__init__", "__post_init__"})

    def __init__(self) -> None:
        self.attrs: Dict[str, _MutableAttr] = {}
        self._in_init = False

    def _record(self, name: str, line: int, how: str) -> None:
        entry = self.attrs.get(name)
        if entry is None:
            self.attrs[name] = _MutableAttr(line, [line], how)
        else:
            entry.lines.append(line)

    def _self_root(self, node: ast.expr) -> Optional[str]:
        """First-level attribute name when ``node`` is rooted at self."""
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            parent = node.value
            if (
                isinstance(node, ast.Attribute)
                and isinstance(parent, ast.Name)
                and parent.id == "self"
            ):
                return node.attr
            node = parent
        return None

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        was_init = self._in_init
        self._in_init = node.name in self._INIT_METHODS
        self.generic_visit(node)
        self._in_init = was_init

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _handle_store(self, target: ast.expr, line: int, augmented: bool) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._handle_store(element, line, augmented)
            return
        name = self._self_root(target)
        if name is None:
            return
        if _is_self_attr(target):
            # plain self.x = ... : state only outside the constructor
            # (augmented assignment is state anywhere)
            if augmented or not self._in_init:
                self._record(name, line, "assign")
        elif not self._in_init:
            self._record(name, line, "write-through")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._handle_store(target, node.lineno, augmented=False)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._handle_store(node.target, node.lineno, augmented=False)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._handle_store(node.target, node.lineno, augmented=True)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if not self._in_init:
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATOR_METHODS:
                name = self._self_root(func.value)
                if name is not None:
                    self._record(name, node.lineno, f".{func.attr}()")
            heap_name = _name_of(func)
            if heap_name in _HEAP_MUTATORS and node.args:
                name = self._self_root(node.args[0])
                if name is not None:
                    self._record(name, node.lineno, f"heapq.{heap_name}()")
        self.generic_visit(node)


def _mutable_attrs(info: _ClassInfo) -> Dict[str, _MutableAttr]:
    visitor = _ClassStateVisitor()
    for node in info.node.body:
        visitor.visit(node)
    return visitor.attrs


def _dataclass_fields(info: _ClassInfo) -> Dict[str, int]:
    """AnnAssign field declarations of a dataclass body (name -> line),
    skipping ClassVar annotations."""
    fields: Dict[str, int] = {}
    for node in info.node.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            annotation = ast.unparse(node.annotation)
            if "ClassVar" in annotation:
                continue
            fields[node.target.id] = node.lineno
    return fields


def _is_transient(info: _ClassInfo, attr: _MutableAttr) -> bool:
    return any(info.module.pragmas.is_transient(line) for line in attr.lines)


def _check_coverage(package: _Package, report: Report) -> Dict[str, Set[str]]:
    """KS201 over every checkpointed class; returns the declared
    attribute names per module (for KS223)."""
    declared_by_file: Dict[str, Set[str]] = {}
    for name in sorted(package.classes):
        info = package.classes[name]
        fields = package.declared(info)
        if fields is None:
            continue
        declared = {f.attr for f in fields}
        declared_by_file.setdefault(info.module.rel, set()).update(declared)
        candidates: Dict[str, _MutableAttr] = dict(_mutable_attrs(info))
        if info.is_dataclass:
            for field_name, line in _dataclass_fields(info).items():
                candidates.setdefault(field_name, _MutableAttr(line, [line], "field"))
        for attr_name in sorted(candidates):
            attr = candidates[attr_name]
            if attr_name in declared:
                continue
            if _is_transient(info, attr):
                report.record_suppressed({"KS201": 1})
                continue
            info.module.flag(
                attr.line,
                "KS201",
                f"{info.name}.{attr_name} is mutated ({attr.how}) but no "
                f"{_DECLARATION} declaration in its class chain names it; "
                "restored runs will diverge. Declare it or mark the "
                "assignment # klink: transient[reason]",
            )
    return declared_by_file


# -- KS210 / KS211: schema fingerprint ---------------------------------------


def _schema_version(contract_module: _Module) -> Optional[int]:
    for name, value in _bindings(contract_module.tree.body):
        if (
            name == "SCHEMA_VERSION"
            and isinstance(value, ast.Constant)
            and isinstance(value.value, int)
        ):
            return value.value
    return None


def build_contract(package: _Package) -> Dict[str, List[str]]:
    """Each declaring class's own declared fields as ``key=attr:codec``
    strings, suitable for hashing."""
    return {
        name: sorted(f.fingerprint for f in declaration)
        for name, info in sorted(package.classes.items())
        if (declaration := info.declaration) is not None
    }


def contract_fingerprint(schema_version: int, contract: Dict[str, List[str]]) -> str:
    payload = json.dumps(
        {"schema_version": schema_version, "contract": contract},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _check_fingerprint(
    package: _Package, contract_module: _Module, report: Report, update: bool = False
) -> None:
    version = _schema_version(contract_module)
    if version is None:
        report.add(
            "KS210",
            "SCHEMA_VERSION not found in checkpoint.py (expected a "
            "module-level integer assignment)",
            file=str(contract_module.path),
        )
        return
    contract = build_contract(package)
    fingerprint = contract_fingerprint(version, contract)
    path = package.root / _FINGERPRINT_FILE
    stored: Optional[Dict[str, object]]
    try:
        stored = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        stored = None
    stored_version = stored.get("schema_version") if isinstance(stored, dict) else None
    stored_contract = stored.get("contract") if isinstance(stored, dict) else None

    fields_changed = stored_contract != contract
    version_changed = stored_version != version

    if stored is None:
        if not update:
            report.add(
                "KS211",
                f"{path.name} missing or unreadable; generate it with "
                "`python -m repro.analysis.lint --update-fingerprint`",
                file=str(path),
            )
    elif fields_changed and not version_changed:
        drift = _describe_drift(stored_contract, contract)
        report.add(
            "KS210",
            "declared fields changed without a SCHEMA_VERSION bump "
            f"(still {version}): {drift}. Old snapshots would be "
            "mis-applied — bump SCHEMA_VERSION in checkpoint.py, then "
            "refresh the fingerprint",
            file=str(contract_module.path),
        )
        return  # never silently bless a drifted contract
    elif fields_changed or version_changed:
        if not update:
            report.add(
                "KS211",
                f"{path.name} is stale (schema_version "
                f"{stored_version} -> {version}); regenerate with "
                "`python -m repro.analysis.lint --update-fingerprint`",
                file=str(path),
            )
    if update:
        path.write_text(
            json.dumps(
                {
                    "comment": (
                        "Declared-field fingerprint of the checkpoint "
                        "contract; regenerated via `python -m "
                        "repro.analysis.lint --update-fingerprint` "
                        "after a SCHEMA_VERSION bump."
                    ),
                    "schema_version": version,
                    "contract": contract,
                    "fingerprint": fingerprint,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )


def _describe_drift(
    stored: object, current: Dict[str, List[str]]
) -> str:
    if not isinstance(stored, dict):
        return "fingerprint contract unreadable"
    changes: List[str] = []
    for name in sorted(set(stored) | set(current)):
        old = set(stored.get(name, []) or [])
        new = set(current.get(name, []))
        added = sorted(new - old)
        removed = sorted(old - new)
        if added:
            changes.append(f"{name} added {added}")
        if removed:
            changes.append(f"{name} removed {removed}")
    return "; ".join(changes) if changes else "entries reordered"


# -- KS221-KS224: serialization, cursors and ledgers, one walk per module ----


def _ledger_root(node: ast.expr) -> Tuple[str, int]:
    """``(attr, n)`` for ``x.attr`` under ``n`` subscripts (``attr`` empty
    when the root is not an attribute)."""
    depth = 0
    while isinstance(node, ast.Subscript):
        node, depth = node.value, depth + 1
    return (node.attr if isinstance(node, ast.Attribute) else ""), depth


def _ledger_attrs(package: _Package) -> Dict[str, int]:
    """Attributes declared with a ledger codec, mapped to how many
    subscripts down the ledger sits (1 for a dict of ledgers)."""
    return {
        f.attr: depth
        for info in package.classes.values()
        for f in info.declaration or ()
        if (depth := f.ledger_depth) is not None
    }


class _StateVisitor(_AliasVisitor):
    """KS221/KS222 in the canonical-serialization files, KS223 on the
    module's declared fields and KS224 on every ledger write."""

    def __init__(self, module: _Module, declared: Set[str], ledgers: Dict[str, int]) -> None:
        super().__init__(module)
        self.serializer = module.rel in _SERIALIZER_FILES
        self.declared = declared
        self.ledgers = ledgers

    def _is_unordered(self, node: ast.expr) -> bool:
        """A set expression, or a dict view (``x.items()`` / ``keys()`` /
        ``values()``): anything whose order is a dict/set internal."""
        return self._is_set_expr(node) or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("items", "keys", "values")
            and not node.args
        )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        path = self._dotted_path(func)
        if self.serializer and path in ("json.dumps", "json.dump"):
            sort_keys = next(
                (kw.value for kw in node.keywords if kw.arg == "sort_keys"), None
            )
            if not (isinstance(sort_keys, ast.Constant) and sort_keys.value is True):
                self.module.flag(
                    node,
                    "KS221",
                    f"{path} without sort_keys=True in a canonical-"
                    "serialization path: snapshot bytes must be a "
                    "state-equality check",
                )
        # list(x.items()) / tuple(x.keys()) without sorted(...)
        if (
            self.serializer
            and path in ("list", "tuple")
            and node.args
            and self._is_unordered(node.args[0])
        ):
            self.module.flag(node, "KS222", _KS222_MESSAGE)
        if isinstance(func, ast.Attribute) and func.attr in _REWRITE_METHODS | _GROWTH_METHODS:
            self._ledger_write(func.value, f".{func.attr}()", func.attr in _GROWTH_METHODS)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        # dict comprehensions are exempt: canonical dumps re-sorts dict
        # keys, so their iteration order never reaches the serialized bytes
        for gen in node.generators:
            if self.serializer and self._is_unordered(gen.iter):
                self.module.flag(gen.iter, "KS222", _KS222_MESSAGE)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        name = _float_step(node)
        if (
            name is not None
            and name in self.declared
            and _is_self_attr(node.target)
            and _CURSOR_NAME.search(name)
        ):
            self.module.flag(
                node,
                "KS223",
                f"float accumulation into serialized cursor field "
                f"{name!r}: += drifts, so a restored run diverges "
                "from the live one; derive the value from an "
                "integer step count",
            )
        grows = isinstance(node.op, ast.Add)
        self._ledger_write(node.target, "+=" if grows else "augmented rewrite", grows)
        self._subscript_writes([node.target])
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._subscript_writes(node.targets)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._subscript_writes(node.targets)
        self.generic_visit(node)

    def _subscript_writes(self, targets: List[ast.expr]) -> None:
        for target in targets:
            if isinstance(target, ast.Subscript):
                self._ledger_write(target.value, "subscript store/del", False)

    def _ledger_write(self, expr: ast.expr, how: str, grows: bool) -> None:
        """KS224: a write to ``expr`` that rewrites a ledger, or that
        touches one of a column ledger's columns (``x.ledger.col``). A
        restore rebinds a ledger instead. Aliases (``lst = x.attr``) are
        not followed."""
        column, (name, depth) = "", _ledger_root(expr)
        if self.ledgers.get(name) != depth and isinstance(expr, ast.Attribute):
            column, (name, depth) = expr.attr, _ledger_root(expr.value)
        if self.ledgers.get(name) != depth or (grows and not column):
            return
        what = f"column {column!r} of ledger {name!r}" if column else f"ledger {name!r}"
        self.module.flag(
            expr,
            "KS224",
            f"{what} rewritten in place ({how}): snapshots hold a "
            "LedgerView prefix of it; append whole rows instead",
        )


# -- KW: worker purity -------------------------------------------------------


def _is_container(value: Optional[ast.expr]) -> bool:
    """A mutable-container literal or constructor call."""
    if isinstance(value, (ast.Dict, ast.List, ast.Set)):
        return True
    return isinstance(value, ast.Call) and _name_of(value.func) in _CONTAINER_CALLS


def _written_root(target: ast.expr) -> Optional[str]:
    """The name under a write-through target (``x[k]``, ``x.y``)."""
    while isinstance(target, (ast.Subscript, ast.Attribute)):
        target = target.value
    return target.id if isinstance(target, ast.Name) else None


def _reachable_functions(
    functions: Dict[str, ast.FunctionDef], roots: Iterable[str]
) -> Set[str]:
    reachable: Set[str] = set()
    frontier = [name for name in roots if name in functions]
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        reachable.add(name)
        for node in ast.walk(functions[name]):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in functions
                and node.func.id not in reachable
            ):
                frontier.append(node.func.id)
    return reachable


def _local_names(fn: ast.FunctionDef) -> Set[str]:
    """Names ``fn`` binds (parameters, stores, imports), less those a
    ``global`` statement hands back to the module."""
    names: Set[str] = set()
    claimed: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Global):
            claimed.update(node.names)
    return names - claimed


def _flag_unpicklable(module: _Module, node: ast.expr, context: str) -> None:
    module.flag(
        node,
        "KW302",
        f"{context} is a lambda/nested callable: spawn workers pickle "
        "their task function, and only module-level functions pickle by "
        "reference",
    )


def _check_worker_purity(module: _Module) -> None:
    """KW302 on unpicklable pool arguments; KW301 on functions dispatched
    to pool workers (or fingerprint roots), and what they call, reading
    a module global that holds mutable cross-call state: one rebound via
    a ``global`` statement, or a container some code in the module
    mutates."""
    functions = {
        node.name: node for node in module.tree.body if isinstance(node, ast.FunctionDef)
    }
    roots = {name for name in _FINGERPRINT_ROOTS if name in functions}
    rebound: Set[str] = set()
    mutated: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Global):
            rebound.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                # a bare-name Assign is the (re)binding itself, not a
                # mutation of the container — only write-throughs count
                if isinstance(node, ast.Assign) and isinstance(target, ast.Name):
                    continue
                name = _written_root(target)
                if name is not None:
                    mutated.add(name)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATOR_METHODS
                and isinstance(func.value, ast.Name)
            ):
                mutated.add(func.value.id)
            for kw in node.keywords:
                if kw.arg == "initializer":
                    if isinstance(kw.value, ast.Name):
                        roots.add(kw.value.id)
                    elif isinstance(kw.value, ast.Lambda):
                        _flag_unpicklable(module, kw.value, "pool initializer")
            if isinstance(func, ast.Attribute) and func.attr in _POOL_DISPATCH_METHODS and node.args:
                arg = node.args[0]
                if isinstance(arg, ast.Name) and arg.id in functions:
                    roots.add(arg.id)
                elif isinstance(arg, ast.Lambda):
                    _flag_unpicklable(module, arg, f"pool.{func.attr} task")
    if not roots:
        return
    containers = {name for name, value in _bindings(module.tree.body) if _is_container(value)}
    mutable = rebound | (containers & mutated)
    for fn_name in sorted(_reachable_functions(functions, roots)):
        fn = functions[fn_name]
        locals_ = _local_names(fn)
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in mutable
                and node.id not in locals_
            ):
                module.flag(
                    node,
                    "KW301",
                    f"{fn_name}() runs in run_many worker processes (or "
                    f"replays from the result cache) but reads module "
                    f"global {node.id!r}, which is mutable state: spawn "
                    "workers import a fresh module, so the value silently "
                    "differs from the parent's. Pass it as an argument "
                    "instead",
                )


# -- the state families over the package ---------------------------------------


def _check_state(
    root: Optional[Path],
    modules: List[_Module],
    paths: Sequence[Path],
    report: Report,
    update_fingerprint: bool,
) -> None:
    """Every KS/KW rule over the package under ``root``: package-level
    findings go into ``report``, the rest into their module's findings."""
    if root is None:
        report.add(
            "KS200",
            f"no {_CONTRACT_SOURCE} found under {[str(p) for p in paths]}; "
            "point the state checker at the repro package root",
        )
        return
    package = _Package(root, [m for m in modules if m.path.is_relative_to(root)])
    contract_module = next(
        (m for m in package.modules if m.rel == _CONTRACT_SOURCE), None
    )
    if contract_module is None:
        report.add(
            "KS200",
            f"{_CONTRACT_SOURCE} exists but could not be parsed",
            file=str(root / _CONTRACT_SOURCE),
        )
        return
    declared_by_file = _check_coverage(package, report)
    _check_fingerprint(package, contract_module, report, update=update_fingerprint)
    ledgers = _ledger_attrs(package)
    for module in package.modules:
        _StateVisitor(module, declared_by_file.get(module.rel, set()), ledgers).visit(
            module.tree
        )
        _check_worker_purity(module)


# -- command line ------------------------------------------------------------


def run_lint(
    paths: Sequence[str],
    output_format: str = "text",
    quiet: bool = False,
    state: bool = False,
    update_fingerprint: bool = False,
) -> Tuple[Report, int]:
    """Shared driver for the console script and ``repro-bench lint``.

    Returns ``(report, exit_code)``; prints the rendered report unless
    ``quiet``. Exit code 0 = clean, 1 = findings, 2 = usage error (no
    python files under ``paths``, or with ``state`` no contract source:
    KS200).
    """
    files = iter_python_files(Path(p) for p in paths)
    report = lint_paths(
        [Path(p) for p in paths], state=state, update_fingerprint=update_fingerprint
    )
    if not quiet:
        if not files:
            print(f"repro-lint: no python files under {list(paths)!r}", file=sys.stderr)
        if output_format == "json":
            print(report.to_json())
        elif report.diagnostics:
            print(report.render_text())
        elif files:
            scope = " (lint + state contract)" if state else ""
            suppressed = sum(report.suppressed.values())
            note = f", {suppressed} suppression(s)" if suppressed else ""
            print(f"repro-lint: {len(files)} file(s) clean{scope}{note}")
    if not files or "KS200" in report.codes():
        return report, 2
    return report, (1 if report.diagnostics else 0)


def _render_rules() -> str:
    width = max(len(code) for code in RULES)
    return "\n".join(
        f"{code:{width}s}  {summary}" for code, summary in RULES.items()
    )


def run_args(args: argparse.Namespace) -> int:
    """Run a command line parsed by :func:`add_arguments`'s options."""
    if args.rules:
        print(_render_rules())
        return 0
    _, code = run_lint(
        args.paths,
        output_format=args.output_format,
        quiet=args.quiet,
        state=args.state or args.update_fingerprint,
        update_fingerprint=args.update_fingerprint,
    )
    return code


def add_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """The analyzer's options, shared by ``repro-lint`` and
    ``repro-bench lint``; the parsed namespace runs with ``args.func``."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text", dest="output_format"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="print nothing; report by exit code"
    )
    parser.add_argument(
        "--state",
        action="store_true",
        help="also run the state-contract and worker-purity rules (KS2xx/KW3xx)",
    )
    parser.add_argument(
        "--update-fingerprint",
        action="store_true",
        help="rewrite resilience/schema_fingerprint.json from the current "
        "declarations (implies --state; refused with KS210 if a field set "
        "changed without a SCHEMA_VERSION bump)",
    )
    parser.add_argument(
        "--rules", action="store_true", help="list rule codes and exit"
    )
    parser.set_defaults(func=run_args)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="source analyzer for the Klink reproduction tree",
    )
    return run_args(add_arguments(parser).parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
