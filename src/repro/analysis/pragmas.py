"""Inline-pragma parsing shared by every analysis pass.

Two pragma forms are recognised, both as trailing comments:

``# klink: allow[CODE, ...]``
    Suppresses findings with the listed rule codes on that line
    (``allow[*]`` suppresses everything). Used by the determinism
    rules (KL...), the plan validator (KP...), and the state-contract
    and worker-purity rules (KS.../KW...).

``# klink: transient[reason]``
    Declares the attribute assigned on that line *transient*: it is
    deliberately excluded from the checkpoint snapshot contract, so the
    KS201 snapshot-coverage rule skips it. The reason is mandatory, so
    that the source says why a field escapes capture/restore: an empty
    ``transient[]`` declares nothing. Each transient attribute is counted
    as a suppressed KS201 in the report.

Suppression is counted, not silent: :func:`apply_suppressions` returns
both the surviving findings and a per-code tally of what the pragmas and
whole-rule scopes swallowed, which the reporting layer surfaces in CI
artifacts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, FrozenSet, List, Mapping, Tuple

from repro.analysis.report import Diagnostic

_ALLOW_PRAGMA = re.compile(r"#\s*klink:\s*allow\[([A-Za-z0-9_*,\s]+)\]")
_TRANSIENT_PRAGMA = re.compile(r"#\s*klink:\s*transient\[([^\]]*)\]")


@dataclass(frozen=True)
class Pragmas:
    """Per-line pragma annotations parsed from one source file."""

    #: line number -> rule codes allowed on that line (may contain "*")
    allow: Mapping[int, FrozenSet[str]] = field(default_factory=dict)
    #: line number -> reason string from a ``transient[...]`` pragma
    #: (never empty: a pragma without a reason is not recorded)
    transient: Mapping[int, str] = field(default_factory=dict)

    def allows(self, line: int, code: str) -> bool:
        """True when a pragma on ``line`` suppresses ``code``."""
        codes = self.allow.get(line)
        return codes is not None and (code in codes or "*" in codes)

    def is_transient(self, line: int) -> bool:
        return line in self.transient


def parse_pragmas(source: str) -> Pragmas:
    """Parse every ``# klink:`` pragma in ``source`` by line number."""
    allow: Dict[int, FrozenSet[str]] = {}
    transient: Dict[int, str] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _ALLOW_PRAGMA.search(line)
        if match:
            allow[lineno] = frozenset(
                code.strip().upper()
                for code in match.group(1).split(",")
                if code.strip()
            )
        match = _TRANSIENT_PRAGMA.search(line)
        if match and match.group(1).strip():
            transient[lineno] = match.group(1).strip()
    return Pragmas(allow=allow, transient=transient)


def apply_suppressions(
    findings: List[Diagnostic],
    pragmas: Pragmas,
    allowed: AbstractSet[str] = frozenset(),
) -> Tuple[List[Diagnostic], Dict[str, int]]:
    """Drop findings covered by pragmas or a whole-rule allowlist.

    Returns ``(kept, suppressed)`` where ``suppressed`` maps rule code to
    the number of findings swallowed (by either mechanism) so reports can
    account for every suppression.
    """
    kept: List[Diagnostic] = []
    suppressed: Dict[str, int] = {}
    for diag in findings:
        line = diag.line if diag.line is not None else -1
        if diag.code in allowed or pragmas.allows(line, diag.code):
            suppressed[diag.code] = suppressed.get(diag.code, 0) + 1
            continue
        kept.append(diag)
    return kept, suppressed
