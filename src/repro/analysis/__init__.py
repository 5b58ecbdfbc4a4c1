"""Static analysis for the Klink reproduction: lint, plan, and state checks.

Three passes share the :mod:`repro.analysis.report` /
:mod:`repro.analysis.pragmas` diagnostic infrastructure:

* :mod:`repro.analysis.lint` — an AST linter flagging constructs that
  break byte-for-byte simulation determinism (rule codes ``KL001``...).
  Run it as ``repro-lint``, ``python -m repro.analysis.lint``, or
  ``repro-bench lint``.
* :mod:`repro.analysis.plan_check` — a static validator for query plans
  (rule codes ``KP101``...), invoked automatically at ``Engine`` /
  ``DistributedEngine`` submission (disable with ``validate=False``) and
  exposed as ``repro-bench check-plan``.
* :mod:`repro.analysis.statecheck` — the state-contract analyzer
  (rule codes ``KS2xx``/``KW3xx``): checkpoint snapshot coverage,
  capture/restore symmetry, schema-fingerprint drift, canonical
  serialization, and worker purity. Run it as ``repro-lint --state``,
  ``python -m repro.analysis.statecheck``, or ``repro-bench statecheck``.

Submodules are loaded lazily (PEP 562) so that ``python -m
repro.analysis.lint`` does not import the module twice (runpy warns when
the package eagerly imports the submodule being executed).
"""

from __future__ import annotations

from repro._lazy import lazy_exports

#: public name -> the module that defines it, imported on first use
_EXPORTS = {
    "Diagnostic": "repro.analysis.report",
    "Report": "repro.analysis.report",
    "RULES": "repro.analysis.lint",
    "lint_file": "repro.analysis.lint",
    "lint_paths": "repro.analysis.lint",
    "lint_source": "repro.analysis.lint",
    "PLAN_RULES": "repro.analysis.plan_check",
    "PlanValidationError": "repro.analysis.plan_check",
    "check_query": "repro.analysis.plan_check",
    "check_structure": "repro.analysis.plan_check",
    "validate_queries": "repro.analysis.plan_check",
    "STATE_RULES": "repro.analysis.statecheck",
    "check_paths": "repro.analysis.statecheck",
    "run_statecheck": "repro.analysis.statecheck",
    "Pragmas": "repro.analysis.pragmas",
    "parse_pragmas": "repro.analysis.pragmas",
}

__all__ = sorted(_EXPORTS)


__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
