"""Shared diagnostic and reporting infrastructure for analysis passes.

The analysis passes — the source analyzer (:mod:`repro.analysis.lint`)
and the query-plan validator (:mod:`repro.analysis.plan_check`) — emit
:class:`Diagnostic` records collected into a :class:`Report`. A diagnostic
carries a stable rule code (``KL...`` for lint rules, ``KP...`` for plan
rules, ``KS...``/``KW...`` for state-contract rules), a severity, and
either a source location (file/line/col) or a plan location (``where``:
the operator or source it concerns). The code prefix determines the rule
*category* (:func:`rule_category`), surfaced in JSON output so CI
artifacts stay diffable across analyzers.

Severities:

* ``error`` — the construct is forbidden / the plan cannot run correctly.
  Errors make ``Report.ok`` false and fail CI / engine submission.
* ``warning`` — suspicious but runnable; reported, never blocking.
* ``advice`` — an optimization opportunity (e.g. a fusible operator run).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Union

SEVERITIES = ("error", "warning", "advice")

#: rule-code prefix -> category label (longest prefix wins)
CATEGORIES: Dict[str, str] = {
    "KL": "determinism",
    "KP": "plan",
    "KS": "state",
    "KW": "worker-purity",
}


def rule_category(code: str) -> str:
    """Category label for a rule code (``"other"`` for unknown prefixes)."""
    for prefix, label in CATEGORIES.items():
        if code.startswith(prefix):
            return label
    return "other"


@dataclass(frozen=True)
class Diagnostic:
    """One finding of an analysis pass."""

    code: str
    message: str
    severity: str = "error"
    file: Optional[str] = None
    line: Optional[int] = None
    col: Optional[int] = None
    #: plan-space location (operator / source / query name) when the
    #: finding has no file position.
    where: Optional[str] = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; expected one of {SEVERITIES}"
            )

    def render(self) -> str:
        """One-line human-readable form (``path:line:col: CODE message``)."""
        if self.file is not None:
            line = self.line if self.line is not None else 0
            col = self.col if self.col is not None else 0
            prefix = f"{self.file}:{line}:{col}"
        elif self.where is not None:
            prefix = self.where
        else:
            prefix = "<plan>"
        return f"{prefix}: {self.code} [{self.severity}] {self.message}"

    @property
    def category(self) -> str:
        return rule_category(self.code)

    def to_dict(self) -> Dict[str, Union[str, int, None]]:
        payload = {k: v for k, v in asdict(self).items() if v is not None}
        payload["category"] = self.category
        return payload


class Report:
    """An ordered collection of diagnostics with rendering helpers."""

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()) -> None:
        self.diagnostics: List[Diagnostic] = list(diagnostics)
        #: rule code -> findings swallowed by pragmas / whole-rule scopes
        self.suppressed: Dict[str, int] = {}

    # -- collection --------------------------------------------------------

    def add(
        self,
        code: str,
        message: str,
        *,
        severity: str = "error",
        file: Optional[str] = None,
        line: Optional[int] = None,
        col: Optional[int] = None,
        where: Optional[str] = None,
    ) -> Diagnostic:
        diag = Diagnostic(
            code=code,
            message=message,
            severity=severity,
            file=file,
            line=line,
            col=col,
            where=where,
        )
        self.diagnostics.append(diag)
        return diag

    def extend(self, other: Union["Report", Iterable[Diagnostic]]) -> "Report":
        if isinstance(other, Report):
            self.diagnostics.extend(other.diagnostics)
            self.record_suppressed(other.suppressed)
        else:
            self.diagnostics.extend(other)
        return self

    def record_suppressed(self, counts: Dict[str, int]) -> None:
        """Merge per-code suppression tallies into this report."""
        for code, count in counts.items():
            self.suppressed[code] = self.suppressed.get(code, 0) + count

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def by_severity(self, severity: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity("error")

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.by_severity("warning")

    @property
    def ok(self) -> bool:
        """True when no *errors* were found (warnings/advice allowed)."""
        return not self.errors

    def codes(self) -> List[str]:
        return [d.code for d in self.diagnostics]

    # -- rendering ---------------------------------------------------------

    def render_text(self) -> str:
        if not self.diagnostics:
            return "no findings"
        lines = [d.render() for d in self.diagnostics]
        n_err = len(self.errors)
        n_warn = len(self.warnings)
        n_adv = len(self.by_severity("advice"))
        lines.append(
            f"{len(self.diagnostics)} finding(s): "
            f"{n_err} error(s), {n_warn} warning(s), {n_adv} advice"
        )
        return "\n".join(lines)

    def category_counts(self) -> Dict[str, int]:
        """Finding counts keyed by rule category, sorted by label."""
        counts: Dict[str, int] = {}
        for diag in self.diagnostics:
            counts[diag.category] = counts.get(diag.category, 0) + 1
        return dict(sorted(counts.items()))

    def to_json(self) -> str:
        return json.dumps(
            {
                "ok": self.ok,
                "counts": {
                    sev: len(self.by_severity(sev)) for sev in SEVERITIES
                },
                "categories": self.category_counts(),
                "suppressed": dict(sorted(self.suppressed.items())),
                "suppressed_total": sum(self.suppressed.values()),
                "diagnostics": [d.to_dict() for d in self.diagnostics],
            },
            indent=2,
            sort_keys=True,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Report(errors={len(self.errors)}, total={len(self.diagnostics)})"
