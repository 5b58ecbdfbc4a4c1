"""State-contract analyzer: declared state, schema drift, worker purity.

Failover correctness hinges on a checkpoint holding *every* mutable
field of the engine, operators, channels, bindings, schedulers, metric
ledgers and lineage tracker, or a restored run silently diverges from
the original. Each checkpointed class declares its state once, as a
``CHECKPOINT`` tuple of ``(snapshot key, attribute, codec)`` entries
that one generic walk (:mod:`repro.spe.state`) captures and restores.
This module checks the declarations structurally instead of by runtime
luck.

========  ==============================================================
 code      rule
========  ==============================================================
 KS200     the contract source (``resilience/checkpoint.py``) could not
           be located or parsed under the given paths.
 KS201     a class whose ``CHECKPOINT`` declaration (its own or an
           ancestor's) exists mutates ``self.attr`` that no declaration
           in its class chain names; annotate deliberate omissions with
           ``# klink: transient[reason]``.
 KS210     a declared field (snapshot key, attribute or codec) changed
           but ``SCHEMA_VERSION`` did not: old snapshots would be
           mis-applied. Bump the version, then refresh the fingerprint.
 KS211     ``schema_fingerprint.json`` is missing or stale relative to
           the code; regenerate with ``--update-fingerprint``.
 KS221     ``json.dumps``/``json.dump`` without ``sort_keys=True`` in a
           canonical-serialization path (snapshot bytes must be a
           state-equality check).
 KS222     unordered dict/set iteration materialized into a *list* that
           feeds serialized output (key order does not survive a list).
 KS223     float accumulation into a serialized cursor/deadline field
           (``+=`` drift makes restored state diverge from live state).
 KS224     in-place rewrite of an append-only ledger (an attribute
           declared with a ledger codec, which snapshots hold as a
           ``LedgerView`` prefix): it would change what older snapshots
           hold.
 KW301     a function dispatched to ``run_many(jobs=N)`` worker
           processes (or cached under the code fingerprint) reads a
           module-level mutable global; spawn workers each get a fresh
           module, so the value silently differs from the parent's.
 KW302     an unpicklable callable (lambda / nested function) is handed
           to a multiprocessing pool.
========  ==============================================================

The analyzer never imports the code under test: declarations are read
from the literal AST of each class body and compared against an AST
walk of the attributes the class mutates. Coverage resolves through the
base chain, as the walk joins declarations along the MRO. A single walk
cannot capture a field it does not restore, so there is no symmetry
rule. The fingerprint lists each declared field as ``key=attr:codec``,
the codec being its expression's source text, so a renamed snapshot key
or a swapped codec changes it as a new attribute does.

Run it as ``python -m repro.analysis.statecheck [paths]``,
``repro-bench statecheck``, or merged into the linter with
``repro-lint --state``. Exit codes: 0 clean, 1 findings, 2 usage error
(contract source not found). ``--update-fingerprint`` rewrites
``src/repro/resilience/schema_fingerprint.json`` — but still fails with
KS210 if a declaration changed without a ``SCHEMA_VERSION`` bump.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.pragmas import Pragmas, apply_suppressions, parse_pragmas
from repro.analysis.report import Diagnostic, Report

#: rule code -> one-line summary (rendered by ``--rules`` and the docs)
STATE_RULES: Dict[str, str] = {
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

#: path suffix of the contract source, relative to the package root
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

#: captured attr names matched by KS223 (serialized time cursors)
_CURSOR_NAME = re.compile(
    r"(time|until|deadline|origin|emit|clock|timestamp|_ts)$", re.IGNORECASE
)


# -- parsed-module cache -----------------------------------------------------


@dataclass
class _Module:
    path: Path
    rel: str
    tree: ast.Module
    pragmas: Pragmas

    @staticmethod
    def load(path: Path, rel: str) -> Optional["_Module"]:
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError):
            return None
        return _Module(path, rel, tree, parse_pragmas(source))


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
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(self.codec)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        if any(name.lower().endswith("ledgers") for name in names):
            return 1
        return 0 if "LEDGER" in names else None


@dataclass
class _ClassInfo:
    name: str
    module: _Module
    node: ast.ClassDef
    bases: Tuple[str, ...]
    is_dataclass: bool

    @property
    def declaration(self) -> Optional[List[_Field]]:
        """The class body's own ``CHECKPOINT`` entries (None without one)."""
        for node in self.node.body:
            value: Optional[ast.expr]
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
            else:
                continue
            if not (isinstance(target, ast.Name) and target.id == _DECLARATION):
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


class _Tree:
    """All parsed modules of one package, with a class index."""

    def __init__(self, package_root: Path) -> None:
        self.package_root = package_root
        self.modules: List[_Module] = []
        self.classes: Dict[str, _ClassInfo] = {}
        for path in sorted(package_root.rglob("*.py")):
            rel = path.relative_to(package_root).as_posix()
            module = _Module.load(path, rel)
            if module is None:
                continue
            self.modules.append(module)
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and node.name not in self.classes:
                    self.classes[node.name] = _ClassInfo(
                        name=node.name,
                        module=module,
                        node=node,
                        bases=tuple(
                            base.id if isinstance(base, ast.Name) else base.attr
                            for base in node.bases
                            if isinstance(base, (ast.Name, ast.Attribute))
                        ),
                        is_dataclass=any(
                            (isinstance(d, ast.Name) and d.id == "dataclass")
                            or (
                                isinstance(d, ast.Call)
                                and isinstance(d.func, ast.Name)
                                and d.func.id == "dataclass"
                            )
                            for d in node.decorator_list
                        ),
                    )

    def module_for(self, rel_suffix: str) -> Optional[_Module]:
        for module in self.modules:
            if module.rel.endswith(rel_suffix):
                return module
        return None

    def ancestors(self, name: str) -> List[_ClassInfo]:
        """``name`` then its base chain, nearest first (resolution over
        classes known to the tree)."""
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


# -- mutable-attribute extraction (class side) -------------------------------


@dataclass
class _MutableAttr:
    name: str
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
            self.attrs[name] = _MutableAttr(name, line, [line], how)
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
        if isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                # plain self.x = ... : state only outside the constructor
                # (augmented assignment is state anywhere)
                if augmented or not self._in_init:
                    self._record(target.attr, line, "assign")
                return
            name = self._self_root(target)
            if name is not None and not self._in_init:
                self._record(name, line, "write-through")
        elif isinstance(target, ast.Subscript):
            name = self._self_root(target)
            if name is not None and not self._in_init:
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
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATOR_METHODS
            ):
                name = self._self_root(func.value)
                if name is not None:
                    self._record(name, node.lineno, f".{func.attr}()")
            heap_name: Optional[str] = None
            if isinstance(func, ast.Name) and func.id in _HEAP_MUTATORS:
                heap_name = func.id
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _HEAP_MUTATORS
            ):
                heap_name = func.attr
            if heap_name is not None and node.args:
                name = self._self_root(node.args[0])
                if name is None and isinstance(node.args[0], ast.Attribute):
                    target = node.args[0]
                    if (
                        isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        name = target.attr
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


# -- KS201: every mutable attribute is declared --------------------------------


def _check_coverage(tree: _Tree, report: Report) -> Dict[str, Set[str]]:
    """KS201 over every checkpointed class; returns the declared
    attribute names per module (for KS223)."""
    declared_by_file: Dict[str, Set[str]] = {}
    for name in sorted(tree.classes):
        info = tree.classes[name]
        fields = tree.declared(info)
        if fields is None:
            continue
        declared = {f.attr for f in fields}
        declared_by_file.setdefault(info.module.rel, set()).update(declared)
        candidates: Dict[str, _MutableAttr] = dict(_mutable_attrs(info))
        if info.is_dataclass:
            for field_name, line in _dataclass_fields(info).items():
                candidates.setdefault(field_name, _MutableAttr(field_name, line, [line], "field"))
        for attr_name in sorted(candidates):
            attr = candidates[attr_name]
            if attr_name in declared:
                continue
            if _is_transient(info, attr):
                report.record_suppressed({"KS201": 1})
                continue
            report.add(
                "KS201",
                f"{info.name}.{attr_name} is mutated ({attr.how}) but no "
                f"{_DECLARATION} declaration in its class chain names it; "
                "restored runs will diverge. Declare it or mark the "
                "assignment # klink: transient[reason]",
                file=str(info.module.path),
                line=attr.line,
            )
    return declared_by_file


# -- KS210 / KS211: schema fingerprint ---------------------------------------


def _schema_version(contract_module: _Module) -> Optional[int]:
    for node in contract_module.tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "SCHEMA_VERSION"
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, int)
        ):
            return node.value.value
    return None


def build_contract(tree: _Tree) -> Dict[str, List[str]]:
    """Each declaring class's own declared fields as ``key=attr:codec``
    strings, suitable for hashing."""
    return {
        name: sorted(f.fingerprint for f in declaration)
        for name, info in sorted(tree.classes.items())
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
    tree: _Tree, contract_module: _Module, report: Report, update: bool = False
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
    contract = build_contract(tree)
    fingerprint = contract_fingerprint(version, contract)
    path = tree.package_root / _FINGERPRINT_FILE
    stored: Optional[Dict[str, object]] = None
    if path.exists():
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
                "`python -m repro.analysis.statecheck --update-fingerprint`",
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
                "`python -m repro.analysis.statecheck --update-fingerprint`",
                file=str(path),
            )
    if update:
        path.write_text(
            json.dumps(
                {
                    "comment": (
                        "Declared-field fingerprint of the checkpoint "
                        "contract; regenerated via `python -m "
                        "repro.analysis.statecheck --update-fingerprint` "
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


# -- KS22x: canonical serialization ------------------------------------------


class _SerializationVisitor(ast.NodeVisitor):
    def __init__(self, module: _Module) -> None:
        self.module = module
        self.findings: List[Diagnostic] = []

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Diagnostic(
                code=code,
                message=message,
                file=str(self.module.path),
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
            )
        )

    @staticmethod
    def _is_unordered_iter(node: ast.expr) -> bool:
        """``x.items()`` / ``x.keys()`` / ``x.values()`` or a set literal/
        comprehension — anything whose order is a dict/set internal."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("items", "keys", "values")
            and not node.args
        )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # KS221: json.dumps/json.dump without sort_keys=True
        if isinstance(func, ast.Attribute) and func.attr in ("dumps", "dump"):
            if isinstance(func.value, ast.Name) and func.value.id == "json":
                sort_keys = next(
                    (kw.value for kw in node.keywords if kw.arg == "sort_keys"),
                    None,
                )
                if not (
                    isinstance(sort_keys, ast.Constant) and sort_keys.value is True
                ):
                    self._flag(
                        node,
                        "KS221",
                        "json.%s without sort_keys=True in a canonical-"
                        "serialization path: snapshot bytes must be a "
                        "state-equality check" % func.attr,
                    )
        # KS222: list(x.items()) / tuple(x.keys()) without sorted(...)
        if (
            isinstance(func, ast.Name)
            and func.id in ("list", "tuple")
            and node.args
            and self._is_unordered_iter(node.args[0])
        ):
            self._flag(
                node,
                "KS222",
                "unordered dict/set iteration materialized into a list "
                "feeding serialized output; wrap in sorted(...)",
            )
        self.generic_visit(node)

    def _check_comp(self, node: ast.expr, generators: List[ast.comprehension]) -> None:
        for gen in generators:
            if self._is_unordered_iter(gen.iter):
                self._flag(
                    gen.iter,
                    "KS222",
                    "unordered dict/set iteration materialized into a "
                    "list feeding serialized output; wrap in sorted(...)",
                )

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comp(node, node.generators)
        self.generic_visit(node)

    # dict comprehensions are exempt: canonical dumps re-sorts dict keys,
    # so their iteration order never reaches the serialized bytes.


def _check_serialization(tree: _Tree, report: Report) -> None:
    for suffix in _SERIALIZER_FILES:
        module = tree.module_for(suffix)
        if module is None:
            continue
        visitor = _SerializationVisitor(module)
        visitor.visit(module.tree)
        kept, suppressed = apply_suppressions(visitor.findings, module.pragmas)
        report.extend(kept)
        report.record_suppressed(suppressed)


def _check_cursor_drift(
    tree: _Tree, declared_by_file: Dict[str, Set[str]], report: Report
) -> None:
    """KS223: ``self.x += non_int`` on a declared, time-like field."""
    for rel, covered in sorted(declared_by_file.items()):
        module = tree.module_for(rel)
        if module is None:
            continue
        findings: List[Diagnostic] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.AugAssign):
                continue
            if not isinstance(node.op, (ast.Add, ast.Sub)):
                continue
            target = node.target
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            name = target.attr
            if name not in covered or not _CURSOR_NAME.search(name):
                continue
            if isinstance(node.value, ast.Constant) and isinstance(
                node.value.value, int
            ):
                continue
            findings.append(
                Diagnostic(
                    code="KS223",
                    message=(
                        f"float accumulation into serialized cursor field "
                        f"{name!r}: += drifts, so a restored run diverges "
                        "from the live one; derive the value from an "
                        "integer step count"
                    ),
                    file=str(module.path),
                    line=node.lineno,
                    col=node.col_offset,
                )
            )
        kept, suppressed = apply_suppressions(findings, module.pragmas)
        report.extend(kept)
        report.record_suppressed(suppressed)


def _ledger_root(node: ast.expr) -> Tuple[str, int]:
    """``(attr, n)`` for ``x.attr`` under ``n`` subscripts (``attr`` empty
    when the root is not an attribute)."""
    depth = 0
    while isinstance(node, ast.Subscript):
        node, depth = node.value, depth + 1
    return (node.attr if isinstance(node, ast.Attribute) else ""), depth


def _ledger_attrs(tree: _Tree) -> Dict[str, int]:
    """Attributes declared with a ledger codec, mapped to how many
    subscripts down the ledger sits (1 for a dict of ledgers)."""
    return {
        f.attr: depth
        for info in tree.classes.values()
        for f in info.declaration or ()
        if (depth := f.ledger_depth) is not None
    }


#: methods that rewrite a list/array in place, and those that only grow it
#: at its end (fine on a ledger, not on one column of a column ledger)
_REWRITE_METHODS = {"sort", "reverse", "clear", "pop", "insert", "remove", "byteswap"}
_GROWTH_METHODS = {"append", "extend", "frombytes", "fromlist"}


def _check_ledger_growth(tree: _Tree, report: Report) -> None:
    """KS224: subscript stores/deletes, augmented assignment other than
    ``+=`` and rewriting methods on a ledger, and any write through one of
    its columns (``x.ledger.col``). A restore rebinds a ledger instead.
    Aliases (``lst = x.attr``) are not followed."""
    ledgers = _ledger_attrs(tree)
    for module in tree.modules:
        for node in ast.walk(module.tree):
            # (written expression, how, whether the write only grows it)
            hits: List[Tuple[ast.expr, str, bool]] = []
            targets: List[ast.expr] = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
                grows = isinstance(node.op, ast.Add)
                hits.append((node.target, "+=" if grows else "augmented rewrite", grows))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                method = node.func.attr
                if method in _REWRITE_METHODS | _GROWTH_METHODS:
                    hits.append((node.func.value, f".{method}()", method in _GROWTH_METHODS))
            hits += [(t.value, "subscript store/del", False)
                     for t in targets if isinstance(t, ast.Subscript)]
            for expr, how, grows in hits:
                column, (name, depth) = "", _ledger_root(expr)
                if ledgers.get(name) != depth and isinstance(expr, ast.Attribute):
                    column, (name, depth) = expr.attr, _ledger_root(expr.value)
                if ledgers.get(name) != depth or (grows and not column):
                    continue
                what = f"column {column!r} of ledger {name!r}" if column else f"ledger {name!r}"
                report.add(
                    "KS224",
                    f"{what} rewritten in place ({how}): snapshots hold a "
                    "LedgerView prefix of it; append whole rows instead",
                    file=str(module.path), line=expr.lineno, col=expr.col_offset,
                )


# -- KW3xx: worker purity ----------------------------------------------------


def _function_defs(module: _Module) -> Dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in module.tree.body
        if isinstance(node, ast.FunctionDef)
    }


def _module_mutable_globals(module: _Module) -> Set[str]:
    """Module-level names that hold mutable cross-call state: rebound via
    a ``global`` statement, or bound to a mutable container that some
    function in the module mutates."""
    container_names: Set[str] = set()
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            is_container = isinstance(value, (ast.Dict, ast.List, ast.Set))
            if isinstance(value, ast.Call):
                callee = value.func
                callee_name = (
                    callee.id
                    if isinstance(callee, ast.Name)
                    else callee.attr
                    if isinstance(callee, ast.Attribute)
                    else ""
                )
                is_container = callee_name in (
                    "dict", "list", "set", "OrderedDict", "deque", "defaultdict",
                )
            if is_container:
                container_names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            value = node.value
            if isinstance(value, ast.Call):
                callee = value.func
                callee_name = (
                    callee.id
                    if isinstance(callee, ast.Name)
                    else callee.attr
                    if isinstance(callee, ast.Attribute)
                    else ""
                )
                if callee_name in (
                    "dict", "list", "set", "OrderedDict", "deque", "defaultdict",
                ):
                    container_names.add(node.target.id)

    mutable: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Global):
            mutable.update(node.names)
    # containers only count when something in the module mutates them
    for node in ast.walk(module.tree):
        name: Optional[str] = None
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                # a bare-name Assign is the (re)binding itself, not a
                # mutation of the container — only write-throughs count
                if isinstance(node, ast.Assign) and isinstance(target, ast.Name):
                    continue
                while isinstance(target, (ast.Subscript, ast.Attribute)):
                    target = target.value
                if isinstance(target, ast.Name) and target.id in container_names:
                    name = target.id
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in container_names
        ):
            name = node.func.value.id
        if name is not None:
            mutable.add(name)
    return mutable


def _worker_roots(module: _Module) -> Tuple[Dict[str, ast.AST], List[Diagnostic]]:
    """Functions dispatched to pool workers, plus KW302 findings for
    unpicklable dispatch arguments."""
    roots: Dict[str, ast.AST] = {}
    findings: List[Diagnostic] = []

    def flag_unpicklable(node: ast.expr, context: str) -> None:
        findings.append(
            Diagnostic(
                code="KW302",
                message=(
                    f"{context} is a lambda/nested callable: spawn workers "
                    "pickle their task function, and only module-level "
                    "functions pickle by reference"
                ),
                file=str(module.path),
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
            )
        )

    module_functions = set(_function_defs(module))
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        for kw in node.keywords:
            if kw.arg == "initializer":
                if isinstance(kw.value, ast.Name):
                    roots[kw.value.id] = kw.value
                elif isinstance(kw.value, ast.Lambda):
                    flag_unpicklable(kw.value, "pool initializer")
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _POOL_DISPATCH_METHODS
            and node.args
        ):
            arg = node.args[0]
            if isinstance(arg, ast.Name):
                if arg.id in module_functions:
                    roots[arg.id] = arg
            elif isinstance(arg, ast.Lambda):
                flag_unpicklable(arg, f"pool.{func.attr} task")
    for name in _FINGERPRINT_ROOTS:
        if name in module_functions:
            fn = _function_defs(module)[name]
            roots[name] = fn
    return roots, findings


def _reachable_functions(module: _Module, roots: Iterable[str]) -> Set[str]:
    functions = _function_defs(module)
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
    names: Set[str] = set()
    args = fn.args
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        names.add(arg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def _check_worker_purity(tree: _Tree, report: Report) -> None:
    for module in tree.modules:
        roots, findings = _worker_roots(module)
        if not roots and not findings:
            continue
        mutable = _module_mutable_globals(module)
        functions = _function_defs(module)
        for fn_name in sorted(_reachable_functions(module, roots)):
            fn = functions[fn_name]
            locals_ = _local_names(fn)
            declared_global = {
                name
                for node in ast.walk(fn)
                if isinstance(node, ast.Global)
                for name in node.names
            }
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in mutable
                    and (node.id not in locals_ or node.id in declared_global)
                ):
                    findings.append(
                        Diagnostic(
                            code="KW301",
                            message=(
                                f"{fn_name}() runs in run_many worker "
                                f"processes (or replays from the result "
                                f"cache) but reads module global "
                                f"{node.id!r}, which is mutable state: "
                                "spawn workers import a fresh module, so "
                                "the value silently differs from the "
                                "parent's. Pass it as an argument instead"
                            ),
                            file=str(module.path),
                            line=node.lineno,
                            col=node.col_offset,
                        )
                    )
        kept, suppressed = apply_suppressions(findings, module.pragmas)
        report.extend(kept)
        report.record_suppressed(suppressed)


# -- driver ------------------------------------------------------------------


def _find_package_root(paths: Sequence[Path]) -> Optional[Path]:
    """Locate the package root: the directory two levels above the
    contract source (``<root>/resilience/checkpoint.py``)."""
    candidates: List[Path] = []
    for path in paths:
        if path.is_file() and path.as_posix().endswith(_CONTRACT_SOURCE):
            candidates.append(path)
        elif path.is_dir():
            candidates.extend(sorted(path.rglob("checkpoint.py")))
    for candidate in candidates:
        if candidate.as_posix().endswith(_CONTRACT_SOURCE):
            return candidate.parent.parent
    return None


def check_paths(
    paths: Sequence[Path], update_fingerprint: bool = False
) -> Report:
    """Run every KS2xx/KW3xx rule over the package found under ``paths``."""
    report = Report()
    package_root = _find_package_root(list(paths))
    if package_root is None:
        report.add(
            "KS200",
            f"no {_CONTRACT_SOURCE} found under {[str(p) for p in paths]}; "
            "point the state checker at the repro package root",
        )
        return report
    tree = _Tree(package_root)
    contract_module = tree.module_for(_CONTRACT_SOURCE)
    if contract_module is None:
        report.add(
            "KS200",
            f"{_CONTRACT_SOURCE} exists but could not be parsed",
            file=str(package_root / _CONTRACT_SOURCE),
        )
        return report

    declared_by_file = _check_coverage(tree, report)
    _check_fingerprint(tree, contract_module, report, update=update_fingerprint)
    _check_serialization(tree, report)
    _check_cursor_drift(tree, declared_by_file, report)
    _check_ledger_growth(tree, report)
    _check_worker_purity(tree, report)
    return report


def run_statecheck(
    paths: Sequence[str],
    output_format: str = "text",
    quiet: bool = False,
    update_fingerprint: bool = False,
) -> Tuple[Report, int]:
    """Driver shared by the console script and ``repro-bench statecheck``.

    Returns ``(report, exit_code)``: 0 clean, 1 findings, 2 usage error
    (no contract source under ``paths``).
    """
    report = check_paths([Path(p) for p in paths], update_fingerprint)
    usage_error = any(d.code == "KS200" for d in report.diagnostics)
    if not quiet:
        if output_format == "json":
            print(report.to_json())
        elif report.diagnostics:
            print(report.render_text())
        else:
            suppressed = sum(report.suppressed.values())
            note = f" ({suppressed} transient/pragma suppression(s))" if suppressed else ""
            print(f"repro-statecheck: state contract clean{note}")
    if usage_error:
        return report, 2
    return report, (1 if report.diagnostics else 0)


def _render_rules() -> str:
    width = max(len(code) for code in STATE_RULES)
    return "\n".join(
        f"{code:{width}s}  {summary}"
        for code, summary in sorted(STATE_RULES.items())
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-statecheck",
        description="state-contract analyzer for the Klink reproduction tree",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="package roots to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text", dest="output_format"
    )
    parser.add_argument(
        "--update-fingerprint",
        action="store_true",
        help="rewrite resilience/schema_fingerprint.json from the current "
        "declarations (refused with KS210 if a field set changed without a "
        "SCHEMA_VERSION bump)",
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
    _, code = run_statecheck(
        args.paths,
        output_format=args.output_format,
        update_fingerprint=args.update_fingerprint,
    )
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
