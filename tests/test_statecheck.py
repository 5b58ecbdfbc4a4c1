"""Tests for the source analyzer's state-contract and worker-purity rules
(``repro-lint --state``: the KS and KW families of repro.analysis.lint).

Two kinds of proof live here:

* **Tree-clean self-check** — the shipped package must pass every
  KS2xx/KW3xx rule (the same gate CI runs).
* **Mutation tests** — the analyzer's teeth: copy the real tree into a
  tmpdir, re-introduce the exact bug classes the rules exist for, and
  assert the corresponding diagnostic fires. If a refactor ever
  neuters a rule, these fail before the rule silently stops guarding
  the checkpoint contract.

The synthetic-package tests below exercise each rule in isolation
against a minimal `pkg/resilience/checkpoint.py` layout, with classes
declaring their checkpoint state in a `CHECKPOINT` tuple.
"""

import json
import shutil
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis.pragmas import parse_pragmas
from repro.analysis.lint import RULES, lint_paths, main, run_lint

SRC = Path(repro.__file__).resolve().parent

FINGERPRINT_REL = "resilience/schema_fingerprint.json"


def check_paths(paths, update_fingerprint=False):
    """The analyzer with the state families on, as ``repro-lint --state``."""
    return lint_paths(paths, state=True, update_fingerprint=update_fingerprint)


def codes(report):
    return sorted({d.code for d in report.diagnostics})


def messages(report):
    return "\n".join(d.message for d in report.diagnostics)


# -- synthetic package builders ----------------------------------------------

CLEAN_CHECKPOINT = """\
import json

SCHEMA_VERSION = 1


def serialize(snapshot):
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
"""

CLEAN_CHANNEL = """\
class Channel:
    CHECKPOINT = (
        ("pending", "pending", ITEMS),
        ("pushed", "pushed", FLOAT),
    )

    def __init__(self):
        self.pending = []
        self.pushed = 0.0

    def push(self, item):
        self.pending.append(item)
        self.pushed += 1.0
"""


def make_pkg(tmp_path, checkpoint=CLEAN_CHECKPOINT, files=None):
    """Materialize a synthetic package with the resilience/ layout the
    analyzer anchors on."""
    root = tmp_path / "pkg"
    (root / "resilience").mkdir(parents=True)
    (root / "resilience" / "checkpoint.py").write_text(
        checkpoint, encoding="utf-8"
    )
    for rel, text in (files or {}).items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


@pytest.fixture
def tree_copy(tmp_path):
    """A private copy of the shipped package, safe to mutate."""
    dest = tmp_path / "repro"
    shutil.copytree(SRC, dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


# -- the shipped tree must be clean ------------------------------------------


class TestShippedTreeIsClean:
    def test_no_diagnostics(self):
        report = check_paths([SRC])
        assert report.diagnostics == [], report.render_text()

    def test_transient_suppressions_are_counted_not_silent(self):
        report = check_paths([SRC])
        assert report.suppressed.get("KS201", 0) > 0

    def test_fingerprint_file_is_committed_and_well_formed(self):
        payload = json.loads((SRC / FINGERPRINT_REL).read_text())
        assert payload["schema_version"] == 5
        assert "fingerprint" in payload
        # the contract lists every declaring class, schedulers included
        contract = payload["contract"]
        for entry in ("Engine", "Operator", "Channel", "SourceBinding", "RunMetrics"):
            assert entry in contract
        assert contract["Scheduler"] == []
        assert contract["RoundRobinScheduler"] == ["cursor=_cursor:INT"]


# -- mutation tests: the analyzer's teeth ------------------------------------


class TestMutationTeeth:
    def test_new_uncaptured_attr_fires_ks201(self, tree_copy):
        """Teeth (a): add an uncaptured mutable attribute to a
        checkpointed class; KS201 must fire."""
        streams = tree_copy / "spe" / "streams.py"
        streams.write_text(
            streams.read_text()
            + textwrap.dedent(
                """

                class LeakyChannel(Channel):
                    def poke(self) -> None:
                        self._sneaky = 1.0
                """
            )
        )
        report = check_paths([tree_copy])
        ks201 = [d for d in report.diagnostics if d.code == "KS201"]
        assert ks201, report.render_text()
        assert any("LeakyChannel._sneaky" in d.message for d in ks201)

    @staticmethod
    def _widen_channel_contract(tree_copy):
        """Declare a new channel field."""
        streams = tree_copy / "spe" / "streams.py"
        source = streams.read_text()
        anchor = '("pushed", "events_pushed", FLOAT),'
        assert source.count(anchor) == 1
        streams.write_text(
            source.replace(
                anchor, anchor + '\n        ("sneaky_extra", "sneaky_extra", FLOAT),'
            )
        )
        return tree_copy / "resilience" / "checkpoint.py"

    def test_field_set_change_without_version_bump_fires_ks210(self, tree_copy):
        """Teeth (b): widen the captured field set while SCHEMA_VERSION
        stays put; KS210 must fire."""
        self._widen_channel_contract(tree_copy)
        report = check_paths([tree_copy])
        ks210 = [d for d in report.diagnostics if d.code == "KS210"]
        assert ks210, report.render_text()
        assert "sneaky_extra" in ks210[0].message
        assert "SCHEMA_VERSION" in ks210[0].message

    @staticmethod
    def _edit_channel_entry(tree_copy, old, new):
        streams = tree_copy / "spe" / "streams.py"
        source = streams.read_text()
        assert source.count(old) == 1
        streams.write_text(source.replace(old, new))

    def test_renamed_snapshot_key_fires_ks210(self, tree_copy):
        """A renamed key keeps the attribute set, but old snapshots hold
        the value under the old key: KS210 must fire."""
        self._edit_channel_entry(
            tree_copy,
            '("pushed", "events_pushed", FLOAT),',
            '("pushed_total", "events_pushed", FLOAT),',
        )
        report = check_paths([tree_copy])
        ks210 = [d for d in report.diagnostics if d.code == "KS210"]
        assert ks210, report.render_text()
        assert "pushed_total=events_pushed:FLOAT" in ks210[0].message
        assert "pushed=events_pushed:FLOAT" in ks210[0].message

    def test_changed_codec_fires_ks210(self, tree_copy):
        """A swapped codec decodes old snapshots differently: KS210 must
        fire."""
        self._edit_channel_entry(
            tree_copy,
            '("pushed", "events_pushed", FLOAT),',
            '("pushed", "events_pushed", RAW),',
        )
        report = check_paths([tree_copy])
        ks210 = [d for d in report.diagnostics if d.code == "KS210"]
        assert ks210, report.render_text()
        assert "pushed=events_pushed:RAW" in ks210[0].message

    def test_ks210_refuses_update_fingerprint(self, tree_copy):
        """--update-fingerprint must never bless a drifted contract."""
        self._widen_channel_contract(tree_copy)
        fingerprint = tree_copy / FINGERPRINT_REL
        before = fingerprint.read_bytes()
        report = check_paths([tree_copy], update_fingerprint=True)
        assert "KS210" in codes(report)
        assert fingerprint.read_bytes() == before

    def test_version_bump_plus_refresh_clears_ks210(self, tree_copy):
        checkpoint = self._widen_channel_contract(tree_copy)
        source = checkpoint.read_text()
        assert source.count("SCHEMA_VERSION = 5") == 1
        checkpoint.write_text(
            source.replace("SCHEMA_VERSION = 5", "SCHEMA_VERSION = 6")
        )
        # stale fingerprint now reports KS211 (regenerable), not KS210
        report = check_paths([tree_copy])
        assert codes(report) == ["KS211"]
        assert "stale" in messages(report)
        # regenerating blesses the bumped schema; the tree is clean again
        check_paths([tree_copy], update_fingerprint=True)
        report = check_paths([tree_copy])
        assert report.diagnostics == [], report.render_text()
        payload = json.loads((tree_copy / FINGERPRINT_REL).read_text())
        assert payload["schema_version"] == 6
        assert "sneaky_extra=sneaky_extra:FLOAT" in payload["contract"]["Channel"]


# -- KS201: every mutable attribute is declared (synthetic) ------------------


class TestCoverageRules:
    def test_clean_synthetic_package(self, tmp_path):
        root = make_pkg(tmp_path, files={"spe/streams.py": CLEAN_CHANNEL})
        check_paths([root], update_fingerprint=True)
        report = check_paths([root])
        assert report.diagnostics == [], report.render_text()

    def test_uncaptured_attr_fires_ks201(self, tmp_path):
        # a transient pragma without a reason declares nothing
        for case, pragma in enumerate(["", "  # klink: transient[]"]):
            channel = CLEAN_CHANNEL + (
                "\n    def mark(self):\n        self.dirty = True%s\n" % pragma
            )
            root = make_pkg(tmp_path / str(case), files={"spe/streams.py": channel})
            report = check_paths([root])
            ks201 = [d for d in report.diagnostics if d.code == "KS201"]
            assert len(ks201) == 1, pragma
            assert "Channel.dirty" in ks201[0].message
            assert "transient[reason]" in ks201[0].message
            assert "KS201" not in report.suppressed

    def test_transient_pragma_suppresses_and_is_counted(self, tmp_path):
        channel = CLEAN_CHANNEL + (
            "\n    def mark(self):\n"
            "        self.dirty = True  # klink: transient[memo flag]\n"
        )
        root = make_pkg(tmp_path, files={"spe/streams.py": channel})
        report = check_paths([root])
        assert "KS201" not in codes(report)
        assert report.suppressed == {"KS201": 1}

    def test_subclass_of_checkpointed_class_is_covered(self, tmp_path):
        channel = CLEAN_CHANNEL + textwrap.dedent(
            """

            class PriorityChannel(Channel):
                def bump(self):
                    self.priority = 1
            """
        )
        root = make_pkg(tmp_path, files={"spe/streams.py": channel})
        report = check_paths([root])
        assert any(
            d.code == "KS201" and "PriorityChannel.priority" in d.message
            for d in report.diagnostics
        )

    def test_dataclass_fields_need_coverage(self, tmp_path):
        metrics = """
            from dataclasses import dataclass, field

            @dataclass
            class RunMetrics:
                CHECKPOINT = (("cycles", "cycles", INT),)

                cycles: int = 0
                swm_latencies: list = field(default_factory=list)
        """
        root = make_pkg(tmp_path, files={"spe/metrics.py": metrics})
        report = check_paths([root])
        ks201 = [d for d in report.diagnostics if d.code == "KS201"]
        assert [d.message.split(" is ")[0] for d in ks201] == ["RunMetrics.swm_latencies"]

    def test_undeclared_classes_are_not_checkpointed(self, tmp_path):
        """Only classes whose chain declares state are checked: a class
        that declares nothing may mutate freely."""
        plain = """
            class Scratch:
                def poke(self):
                    self.value = 1
        """
        root = make_pkg(tmp_path, files={"spe/scratch.py": plain})
        check_paths([root], update_fingerprint=True)
        report = check_paths([root])
        assert report.diagnostics == [], report.render_text()

    def test_ancestor_declaration_covers_inherited_fields(self, tmp_path):
        channel = CLEAN_CHANNEL + textwrap.dedent(
            """

            class CountingChannel(Channel):
                CHECKPOINT = (("drops", "drops", INT),)

                def drop(self):
                    self.drops += 1
                    self.pushed += 1.0
            """
        )
        root = make_pkg(tmp_path, files={"spe/streams.py": channel})
        check_paths([root], update_fingerprint=True)
        report = check_paths([root])
        assert report.diagnostics == [], report.render_text()
        payload = json.loads((root / FINGERPRINT_REL).read_text())
        assert payload["contract"] == {
            "Channel": ["pending=pending:ITEMS", "pushed=pushed:FLOAT"],
            "CountingChannel": ["drops=drops:INT"],
        }

class TestSchedulerRules:
    SCHED = """
        class Scheduler:
            CHECKPOINT = (("quantum", "quantum", FLOAT),)

            def tick(self):
                self.quantum += 1.0


        class FancyScheduler(Scheduler):
            def assign(self, q):
                self.assignments = {q: 1}
    """

    def test_inherited_snapshot_does_not_cover_new_fields(self, tmp_path):
        root = make_pkg(tmp_path, files={"core/sched.py": self.SCHED})
        report = check_paths([root])
        assert any(
            d.code == "KS201" and "FancyScheduler.assignments" in d.message
            for d in report.diagnostics
        )

# -- KS22x: canonical serialization (synthetic) ------------------------------


class TestSerializationRules:
    def test_dumps_without_sort_keys_fires_ks221(self, tmp_path):
        # json resolves through the import aliases, under any name
        for case, (imports, call) in enumerate([
            ("import json", "json.dumps(snapshot)"),
            ("import json as _json", "_json.dumps(snapshot)"),
            ("from json import dumps", "dumps(snapshot)"),
        ]):
            checkpoint = CLEAN_CHECKPOINT.replace("import json", imports).replace(
                "json.dumps(snapshot, sort_keys=True, separators=(\",\", \":\"))",
                call,
            )
            root = make_pkg(tmp_path / str(case), checkpoint=checkpoint)
            report = check_paths([root])
            assert "KS221" in codes(report), imports

    def test_bench_cache_is_also_a_canonical_path(self, tmp_path):
        cache = """
            import json

            def fingerprint(payload):
                return json.dumps(payload)
        """
        root = make_pkg(tmp_path, files={"bench/cache.py": cache})
        report = check_paths([root])
        ks221 = [d for d in report.diagnostics if d.code == "KS221"]
        assert len(ks221) == 1
        assert ks221[0].file.endswith("bench/cache.py")

    def test_other_modules_are_out_of_scope(self, tmp_path):
        other = """
            import json

            def export(payload):
                return json.dumps(payload)
        """
        root = make_pkg(tmp_path, files={"obs/export.py": other})
        report = check_paths([root])
        assert "KS221" not in codes(report)

    def test_list_of_dict_items_fires_ks222(self, tmp_path):
        # dict views, and the set expressions KL003 also flags
        for case, rows in enumerate(["mapping.items()", "set(mapping)"]):
            checkpoint = CLEAN_CHECKPOINT + textwrap.dedent(
                """

                def _rows(mapping):
                    return list(%s)
                """ % rows
            )
            root = make_pkg(tmp_path / str(case), checkpoint=checkpoint)
            report = check_paths([root])
            assert "KS222" in codes(report), rows

    def test_listcomp_over_keys_fires_ks222(self, tmp_path):
        checkpoint = CLEAN_CHECKPOINT + textwrap.dedent(
            """

            def _names(mapping):
                return [k for k in mapping.keys()]
            """
        )
        root = make_pkg(tmp_path, checkpoint=checkpoint)
        report = check_paths([root])
        assert "KS222" in codes(report)

    def test_sorted_iteration_is_clean(self, tmp_path):
        checkpoint = CLEAN_CHECKPOINT + textwrap.dedent(
            """

            def _rows(mapping):
                return sorted(mapping.items())
            """
        )
        root = make_pkg(tmp_path, checkpoint=checkpoint)
        report = check_paths([root])
        assert "KS222" not in codes(report)

    def test_allow_pragma_suppresses_ks221(self, tmp_path):
        checkpoint = CLEAN_CHECKPOINT.replace(
            "json.dumps(snapshot, sort_keys=True, separators=(\",\", \":\"))",
            "json.dumps(snapshot)  # klink: allow[KS221]",
        )
        root = make_pkg(tmp_path, checkpoint=checkpoint)
        report = check_paths([root])
        assert "KS221" not in codes(report)
        assert report.suppressed.get("KS221") == 1


class TestCursorDrift:
    def _pkg(self, tmp_path, step):
        channel = CLEAN_CHANNEL.replace(
            '("pushed", "pushed", FLOAT),',
            '("pushed", "pushed", FLOAT),\n        ("emit", "emit_time", FLOAT),',
        ).replace(
            "self.pushed = 0.0",
            "self.pushed = 0.0\n        self.emit_time = 0.0",
        ) + ("\n    def advance(self, dt):\n        self.emit_time += %s\n" % step)
        return make_pkg(tmp_path, files={"spe/streams.py": channel})

    def test_float_accumulation_into_cursor_fires_ks223(self, tmp_path):
        report = check_paths([self._pkg(tmp_path, "dt")])
        ks223 = [d for d in report.diagnostics if d.code == "KS223"]
        assert len(ks223) == 1
        assert "'emit_time'" in ks223[0].message

    def test_integer_step_is_clean(self, tmp_path):
        report = check_paths([self._pkg(tmp_path, "1")])
        assert "KS223" not in codes(report)


# -- KS224: append-only ledgers (synthetic) ----------------------------------

LEDGER_METRICS = """
class Metrics:
    CHECKPOINT = (
        ("lat", "latencies", LEDGER),
        ("per_query", "per_query", ledgers(list)),
        ("peak", "peak", RAW),
    )
"""

#: growth at the end, rebinding, and edits to things that are not ledgers
LEDGER_CLEAN = """
def drain(metrics, q, value):
    metrics.latencies.append(value)
    metrics.latencies.extend([value])
    metrics.latencies += [value]
    metrics.per_query.setdefault(q, []).append(value)
    metrics.per_query[q] += [value]
    metrics.per_query[q] = []
    metrics.per_query.pop(q)
    metrics.latencies = sorted(metrics.latencies)
    metrics.peak[0] = value
    metrics.other.sort()
"""

#: one in-place rewrite per line, on both ledger shapes
LEDGER_REWRITES = """
def rewrite(metrics, q, value):
    metrics.latencies.sort()
    metrics.latencies.reverse()
    metrics.latencies.clear()
    metrics.latencies.pop()
    metrics.latencies.insert(0, value)
    metrics.latencies.remove(value)
    metrics.latencies[0] = value
    metrics.latencies[1:] = []
    del metrics.latencies[:2]
    metrics.latencies[0] += value
    metrics.latencies *= 2
    metrics.per_query[q].sort()
    metrics.per_query[q][0] = value
    del metrics.per_query[q][-1]
"""


#: column ledgers: whole rows through the ledger, reads of a column, and
#: column writes on things that are not ledgers
COLUMN_CLEAN = """
def drain(metrics, seen, value):
    metrics.latencies.append(value, value)
    fresh = metrics.latencies.at[seen:]
    total = sum(metrics.latencies.latency)
    metrics.other.at.pop()
    metrics.other.at[0] = value
    return fresh, total
"""

#: one write through a single column per line: each one desynchronizes
#: the rows or rewrites history
COLUMN_REWRITES = """
def rewrite(metrics, value, data):
    metrics.latencies.at[0] = value
    del metrics.latencies.latency[-1]
    metrics.latencies.at.pop()
    metrics.latencies.latency.remove(value)
    metrics.latencies.at.insert(0, value)
    metrics.latencies.latency.reverse()
    metrics.latencies.at.frombytes(data)
    metrics.latencies.at.append(value)
    metrics.latencies.latency += data
"""


class TestLedgerGrowth:
    def _report(self, tmp_path, body, metrics=LEDGER_METRICS):
        root = make_pkg(
            tmp_path, files={"spe/metrics.py": metrics, "spe/sinks.py": body}
        )
        check_paths([root], update_fingerprint=True)
        return check_paths([root])

    def test_growth_and_rebinding_are_clean(self, tmp_path):
        report = self._report(tmp_path, LEDGER_CLEAN)
        assert report.diagnostics == [], report.render_text()

    def test_every_in_place_rewrite_fires_ks224(self, tmp_path):
        report = self._report(tmp_path, LEDGER_REWRITES)
        ks224 = [d for d in report.diagnostics if d.code == "KS224"]
        assert codes(report) == ["KS224"], report.render_text()
        assert sorted(d.line for d in ks224) == list(range(3, 17))
        assert "'per_query'" in ks224[-1].message

    def test_column_reads_and_whole_rows_are_clean(self, tmp_path):
        report = self._report(tmp_path, COLUMN_CLEAN)
        assert report.diagnostics == [], report.render_text()

    def test_every_column_write_fires_ks224(self, tmp_path):
        report = self._report(tmp_path, COLUMN_REWRITES)
        ks224 = [d for d in report.diagnostics if d.code == "KS224"]
        assert codes(report) == ["KS224"], report.render_text()
        assert sorted(d.line for d in ks224) == list(range(3, 12))
        assert all("of ledger 'latencies'" in d.message for d in ks224)
        last = max(ks224, key=lambda d: d.line)
        assert "column 'latency'" in last.message and "(+=)" in last.message

    def test_ledger_set_comes_from_the_views(self, tmp_path):
        """Declare the fields with codecs that copy instead of taking a
        view and the same rewrites are no longer ledger edits: the rule
        keeps no list of its own."""
        plain = LEDGER_METRICS.replace("LEDGER)", "FLOATS)").replace(
            "ledgers(list)", "MAP"
        )
        report = self._report(tmp_path, LEDGER_REWRITES, metrics=plain)
        assert "KS224" not in codes(report)

    def test_shipped_sink_ledger_has_teeth(self, tree_copy):
        operators = tree_copy / "spe" / "operators.py"
        operators.write_text(
            operators.read_text()
            + textwrap.dedent(
                """

                class SortingSink(SinkOperator):
                    def tidy(self) -> None:
                        self.swm_latencies.sort()
                """
            )
        )
        report = check_paths([tree_copy])
        ks224 = [d for d in report.diagnostics if d.code == "KS224"]
        assert len(ks224) == 1, report.render_text()
        assert "'swm_latencies'" in ks224[0].message

    def test_shipped_sink_columns_have_teeth(self, tree_copy):
        operators = tree_copy / "spe" / "operators.py"
        operators.write_text(
            operators.read_text()
            + textwrap.dedent(
                """

                class ClippingSink(SinkOperator):
                    def clip(self) -> None:
                        self.marker_latencies.latency[0] = 0.0
                """
            )
        )
        report = check_paths([tree_copy])
        ks224 = [d for d in report.diagnostics if d.code == "KS224"]
        assert len(ks224) == 1, report.render_text()
        assert "column 'latency' of ledger 'marker_latencies'" in ks224[0].message

    def test_shipped_lineage_ledgers_have_teeth(self, tree_copy):
        """The sidecar views make the forecast ledgers and the completion
        log ledgers too: rewriting one, or one of its columns, fires."""
        lineage = tree_copy / "obs" / "lineage.py"
        lineage.write_text(
            lineage.read_text()
            + textwrap.dedent(
                """

                class TidyAudit(SwmForecastAudit):
                    def tidy(self, key) -> None:
                        self._errors[key].sort()
                        del self._naive_errors[key][0]
                        self._deadline_errors[key].error[0] = 0.0


                class RedactingTracker(LineageTracker):
                    def redact(self) -> None:
                        self._completed.status[0] = "redacted"
                        self._completed.span_end.pop()
                """
            )
        )
        report = check_paths([tree_copy])
        ks224 = sorted(
            (d for d in report.diagnostics if d.code == "KS224"),
            key=lambda d: d.line,
        )
        assert codes(report) == ["KS224"], report.render_text()
        assert [d.message.split(" rewritten")[0] for d in ks224] == [
            "ledger '_errors'",
            "ledger '_naive_errors'",
            "column 'error' of ledger '_deadline_errors'",
            "column 'status' of ledger '_completed'",
            "column 'span_end' of ledger '_completed'",
        ]


# -- KW3xx: worker purity (synthetic) ----------------------------------------


class TestWorkerPurity:
    def test_worker_reading_mutated_global_fires_kw301(self, tmp_path):
        # the container counts however the module binds it
        for case, binding in enumerate([
            "_CACHE = {}",
            "_CACHE: Dict[int, int] = dict()",
            "_CACHE: Dict[int, int] = {}",
        ]):
            self._assert_kw301_on_cache(tmp_path / str(case), binding)

    @staticmethod
    def _assert_kw301_on_cache(tmp_path, binding):
        runner = """
            import multiprocessing
            from typing import Dict

            %s

            def _seed(key):
                _CACHE[key] = 1

            def _worker(cfg):
                return _CACHE.get(cfg)

            def run_all(cfgs):
                ctx = multiprocessing.get_context("spawn")
                with ctx.Pool(2) as pool:
                    return pool.map(_worker, cfgs)
        """ % binding
        root = make_pkg(tmp_path, files={"bench/runner.py": runner})
        report = check_paths([root])
        kw301 = [d for d in report.diagnostics if d.code == "KW301"]
        assert kw301, binding
        assert "'_CACHE'" in kw301[0].message

    def test_never_mutated_module_dict_is_a_constant(self, tmp_path):
        runner = """
            import multiprocessing

            _FACTORIES = {"default": 1}

            def _worker(cfg):
                return _FACTORIES[cfg]

            def run_all(cfgs):
                ctx = multiprocessing.get_context("spawn")
                with ctx.Pool(2) as pool:
                    return pool.map(_worker, cfgs)
        """
        root = make_pkg(tmp_path, files={"bench/runner.py": runner})
        report = check_paths([root])
        assert "KW301" not in codes(report), report.render_text()

    def test_lambda_dispatch_fires_kw302(self, tmp_path):
        runner = """
            import multiprocessing

            def run_all(cfgs):
                ctx = multiprocessing.get_context("spawn")
                with ctx.Pool(2) as pool:
                    return pool.map(lambda c: c, cfgs)
        """
        root = make_pkg(tmp_path, files={"bench/runner.py": runner})
        report = check_paths([root])
        assert "KW302" in codes(report)

    def test_fingerprint_root_is_checked_without_a_pool(self, tmp_path):
        runner = """
            _RESULTS = {}

            def _remember(key, value):
                _RESULTS[key] = value

            def run_experiment(cfg):
                return _RESULTS.get(cfg)
        """
        root = make_pkg(tmp_path, files={"bench/runner.py": runner})
        report = check_paths([root])
        assert "KW301" in codes(report)

    def test_transitive_callee_is_checked(self, tmp_path):
        runner = """
            import multiprocessing

            _STATE = []

            def _grow(x):
                _STATE.append(x)

            def _helper(cfg):
                return len(_STATE) + cfg

            def _worker(cfg):
                return _helper(cfg)

            def run_all(cfgs):
                ctx = multiprocessing.get_context("spawn")
                with ctx.Pool(2) as pool:
                    return pool.map(_worker, cfgs)
        """
        root = make_pkg(tmp_path, files={"bench/runner.py": runner})
        report = check_paths([root])
        kw301 = [d for d in report.diagnostics if d.code == "KW301"]
        assert any("_helper()" in d.message for d in kw301)

    def test_local_shadowing_is_clean(self, tmp_path):
        runner = """
            import multiprocessing

            _CACHE = {}

            def _seed(key):
                _CACHE[key] = 1

            def _worker(cfg):
                _CACHE = {}
                return _CACHE.get(cfg)

            def run_all(cfgs):
                ctx = multiprocessing.get_context("spawn")
                with ctx.Pool(2) as pool:
                    return pool.map(_worker, cfgs)
        """
        root = make_pkg(tmp_path, files={"bench/runner.py": runner})
        report = check_paths([root])
        assert "KW301" not in codes(report)


# -- fingerprint lifecycle (synthetic) ---------------------------------------


class TestFingerprintFlow:
    def test_missing_fingerprint_fires_ks211(self, tmp_path):
        root = make_pkg(tmp_path, files={"spe/streams.py": CLEAN_CHANNEL})
        report = check_paths([root])
        assert codes(report) == ["KS211"]
        assert "--update-fingerprint" in messages(report)

    def test_declaration_edit_without_version_bump_fires_ks210(self, tmp_path):
        root = make_pkg(tmp_path, files={"spe/streams.py": CLEAN_CHANNEL})
        check_paths([root], update_fingerprint=True)
        streams = root / "spe" / "streams.py"
        streams.write_text(
            streams.read_text().replace(
                '("pushed", "pushed", FLOAT),',
                '("pushed", "pushed", FLOAT),\n        ("dropped", "dropped", FLOAT),',
            )
        )
        report = check_paths([root])
        assert codes(report) == ["KS210"]
        assert "Channel added ['dropped=dropped:FLOAT']" in messages(report)

    def test_update_writes_a_stable_canonical_file(self, tmp_path):
        root = make_pkg(tmp_path, files={"spe/streams.py": CLEAN_CHANNEL})
        check_paths([root], update_fingerprint=True)
        path = root / FINGERPRINT_REL
        first = path.read_text()
        payload = json.loads(first)
        assert payload["schema_version"] == 1
        assert payload["contract"] == {
            "Channel": ["pending=pending:ITEMS", "pushed=pushed:FLOAT"]
        }
        # regeneration is idempotent (sorted keys, fixed layout)
        check_paths([root], update_fingerprint=True)
        assert path.read_text() == first


# -- driver, exit codes, and CLI wiring --------------------------------------


class TestDriver:
    def test_missing_contract_source_is_a_usage_error(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        report, code = run_lint([str(tmp_path / "empty")], state=True)
        assert code == 2
        assert codes(report) == ["KS200"]

    def test_exit_codes_clean_and_findings(self, tmp_path, capsys):
        root = make_pkg(tmp_path, files={"spe/streams.py": CLEAN_CHANNEL})
        _, code = run_lint([str(root)], state=True, update_fingerprint=True)
        assert code == 0
        out = capsys.readouterr().out
        assert "file(s) clean (lint + state contract)" in out
        # introduce a finding: uncaptured attribute
        (root / "spe" / "streams.py").write_text(
            CLEAN_CHANNEL + "\n    def mark(self):\n        self.dirty = 1\n"
        )
        _, code = run_lint([str(root)], state=True)
        assert code == 1

    def test_json_output_carries_categories_and_suppressions(self, tmp_path, capsys):
        channel = CLEAN_CHANNEL + (
            "\n    def mark(self):\n"
            "        self.dirty = True  # klink: transient[memo flag]\n"
        )
        root = make_pkg(tmp_path, files={"spe/streams.py": channel})
        check_paths([root], update_fingerprint=True)
        capsys.readouterr()
        _, code = run_lint([str(root)], output_format="json", state=True)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["suppressed"] == {"KS201": 1}
        assert payload["suppressed_total"] == 1

    def test_rules_listing(self, capsys):
        assert main(["--rules"]) == 0
        out = capsys.readouterr().out
        for rule_code in RULES:
            assert rule_code in out

    def test_module_main_on_shipped_tree(self, capsys):
        assert main([str(SRC), "--state"]) == 0
        assert "file(s) clean (lint + state contract)" in capsys.readouterr().out

    def test_state_rules_registry(self):
        assert {code for code in RULES if code.startswith(("KS", "KW"))} == {
            "KS200", "KS201", "KS210", "KS211",
            "KS221", "KS222", "KS223", "KS224", "KW301", "KW302",
        }

    def test_diagnostic_categories(self):
        from repro.analysis.report import rule_category

        assert rule_category("KS201") == "state"
        assert rule_category("KW301") == "worker-purity"
        assert rule_category("KL001") == "determinism"
        assert rule_category("KP101") == "plan"
        assert rule_category("X999") == "other"


class TestCLIIntegration:
    def test_repro_lint_state_flag_on_shipped_tree(self, capsys):
        from repro.analysis.lint import main as lint_main

        assert lint_main([str(SRC), "--state"]) == 0
        assert "(lint + state contract)" in capsys.readouterr().out

    def test_repro_bench_lint_state_subcommand(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["lint", "--state", str(SRC)]) == 0
        assert "file(s) clean (lint + state contract)" in capsys.readouterr().out


# -- pragma parsing ----------------------------------------------------------


class TestPragmas:
    def test_transient_pragma_parsing(self):
        pragmas = parse_pragmas(
            "x = 1\n"
            "self.memo = {}  # klink: transient[derived cache]\n"
            "y = 2  # klink: allow[KS221, KW301]\n"
            "self.flag = 1  # klink: transient[ ]\n"
        )
        assert pragmas.is_transient(2)
        assert pragmas.transient == {2: "derived cache"}
        assert not pragmas.is_transient(1)
        assert not pragmas.is_transient(4)
        assert pragmas.allows(3, "KS221")
        assert pragmas.allows(3, "KW301")
        assert not pragmas.allows(3, "KS201")
        assert not pragmas.allows(2, "KS221")
