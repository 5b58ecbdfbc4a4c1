"""Source analyzer, KL family: one positive + one suppressed + one clean
case per rule, and the shared loader, driver and command line."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.analysis.lint import (
    RULES,
    iter_python_files,
    lint_paths,
    lint_source,
    main,
    run_lint,
)


def codes(source: str, **kwargs) -> list:
    return lint_source(source, **kwargs).codes()


# -- KL000: syntax errors ----------------------------------------------------


class TestKL000:
    def test_syntax_error_is_reported_not_raised(self):
        report = lint_source("def broken(:\n")
        assert report.codes() == ["KL000"]
        assert not report.ok

    def test_location_points_at_the_error(self):
        (diag,) = lint_source("x = (\n").diagnostics
        assert diag.file == "<string>"
        assert diag.line >= 1


# -- KL001: wall clock -------------------------------------------------------


class TestKL001:
    def test_time_time(self):
        assert codes("import time\nt = time.time()\n") == ["KL001"]

    def test_time_ns(self):
        assert codes("import time\nt = time.time_ns()\n") == ["KL001"]

    def test_datetime_now(self):
        src = "import datetime\nd = datetime.datetime.now()\n"
        assert codes(src) == ["KL001"]

    def test_suppressed_by_pragma(self):
        src = "import time\nt = time.time()  # klink: allow[KL001]\n"
        assert codes(src) == []

    def test_file_allowlist_suppresses_whole_rule(self):
        src = "import time\nt = time.time()\n"
        assert codes(src, allowed=frozenset({"KL001"})) == []

    def test_virtual_clock_is_clean(self):
        src = "def step(clock):\n    return clock.now\n"
        assert codes(src) == []

    def test_time_sleep_is_clean(self):
        # Only *reading* the wall clock is flagged.
        assert codes("import time\ntime.sleep(0)\n") == []


# -- KL006: monotonic / interval timers --------------------------------------


class TestKL006:
    def test_monotonic(self):
        assert codes("import time\nt = time.monotonic()\n") == ["KL006"]

    def test_perf_counter_through_from_import_alias(self):
        src = "from time import perf_counter as pc\nt = pc()\n"
        assert codes(src) == ["KL006"]

    def test_process_time_ns(self):
        assert codes("import time\nt = time.process_time_ns()\n") == ["KL006"]

    def test_suppressed_by_pragma(self):
        src = "import time\nt = time.monotonic()  # klink: allow[KL006]\n"
        assert codes(src) == []

    def test_file_allowlist_suppresses_whole_rule(self):
        src = "import time\nt = time.perf_counter()\n"
        assert codes(src, allowed=frozenset({"KL006"})) == []

    def test_absolute_clock_still_kl001(self):
        # The split is disjoint: time.time stays KL001, never KL006.
        assert codes("import time\nt = time.time()\n") == ["KL001"]


# -- KL002: unseeded randomness ----------------------------------------------


class TestKL002:
    def test_random_module(self):
        assert codes("import random\nx = random.random()\n") == ["KL002"]

    def test_random_shuffle(self):
        assert codes("import random\nrandom.shuffle(xs)\n") == ["KL002"]

    def test_seeded_random_instance_is_clean(self):
        assert codes("import random\nrng = random.Random(42)\n") == []

    def test_numpy_module_level_sampling(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert codes(src) == ["KL002"]

    def test_seedless_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert codes(src) == ["KL002"]

    def test_seeded_default_rng_is_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert codes(src) == []

    def test_suppressed_by_pragma(self):
        src = "import random\nx = random.random()  # klink: allow[KL002]\n"
        assert codes(src) == []

    def test_generator_method_calls_are_clean(self):
        src = "def draw(rng):\n    return rng.normal(0.0, 1.0)\n"
        assert codes(src) == []


# -- KL003: unordered set iteration ------------------------------------------


class TestKL003:
    def test_for_over_set_literal(self):
        assert codes("for x in {1, 2, 3}:\n    pass\n") == ["KL003"]

    def test_for_over_set_call(self):
        assert codes("for x in set(items):\n    pass\n") == ["KL003"]

    def test_list_of_set(self):
        assert codes("xs = list({1, 2})\n") == ["KL003"]

    def test_comprehension_over_set_union(self):
        src = "ys = [f(x) for x in a.union(b)]\n"
        assert codes(src) == ["KL003"]

    def test_sorted_set_is_clean(self):
        assert codes("for x in sorted(set(items)):\n    pass\n") == []

    def test_set_membership_is_clean(self):
        assert codes("if x in {1, 2}:\n    pass\n") == []

    def test_empty_set_call_is_clean(self):
        assert codes("seen = set()\n") == []

    def test_suppressed_by_pragma(self):
        src = "for x in {1, 2}:  # klink: allow[KL003]\n    pass\n"
        assert codes(src) == []


# -- KL004: id()-based ordering ----------------------------------------------


class TestKL004:
    def test_sorted_key_id(self):
        assert codes("ys = sorted(ops, key=id)\n") == ["KL004"]

    def test_list_sort_key_id(self):
        assert codes("ops.sort(key=lambda o: id(o))\n") == ["KL004"]

    def test_id_comparison(self):
        assert codes("flag = id(a) < id(b)\n") == ["KL004"]

    def test_dict_keyed_by_id_is_clean(self):
        # Indexing by id() and ordering the *values* is legitimate.
        assert codes("ok = pos[id(a)] < pos[id(b)]\n") == []

    def test_id_equality_is_clean(self):
        assert codes("same = id(a) == id(b)\n") == []

    def test_sorted_by_name_is_clean(self):
        assert codes("ys = sorted(ops, key=lambda o: o.name)\n") == []

    def test_suppressed_by_pragma(self):
        src = "ys = sorted(ops, key=id)  # klink: allow[KL004]\n"
        assert codes(src) == []


# -- KL005: float accumulation into watermark/slack state ---------------------


class TestKL005:
    def test_watermark_attribute_accumulation(self):
        src = "class S:\n    def step(self, p):\n        self.next_watermark_time += p\n"
        assert codes(src) == ["KL005"]

    def test_slack_accumulation(self):
        assert codes("slack += pr * x\n") == ["KL005"]

    def test_integer_counter_is_clean(self):
        # Integer stepping cannot drift; only float accumulation is flagged.
        assert codes("watermark_seq += 1\n") == []

    def test_unrelated_name_is_clean(self):
        assert codes("total += pr * x\n") == []

    def test_suppressed_by_pragma(self):
        src = "slack += pr * x  # klink: allow[KL005] expectation\n"
        assert codes(src) == []

    def test_wildcard_pragma(self):
        src = "slack += pr * x  # klink: allow[*]\n"
        assert codes(src) == []


# -- KL007: per-element delay draws in loops ---------------------------------


class TestKL007:
    def test_sample_in_for_loop(self):
        src = "for e in events:\n    d = model.sample()\n"
        assert codes(src) == ["KL007"]

    def test_sample_in_while_loop(self):
        src = "while g < horizon:\n    d = model.sample()\n"
        assert codes(src) == ["KL007"]

    def test_bound_method_alias_in_loop(self):
        src = "sample = spec.delay_model.sample\nfor e in events:\n    d = sample()\n"
        assert codes(src) == ["KL007"]

    def test_sample_outside_loop_is_clean(self):
        assert codes("d = model.sample()\n") == []

    def test_sample_batch_in_loop_is_clean(self):
        src = "for chunk in chunks:\n    ds = model.sample_batch(len(chunk))\n"
        assert codes(src) == []

    def test_suppressed_by_pragma(self):
        src = (
            "for e in events:\n"
            "    d = model.sample()  # klink: allow[KL007] scalar path\n"
        )
        assert codes(src) == []

    def test_scoped_to_spe_tree(self, tmp_path):
        # The rule only applies under repro/spe/; elsewhere (tests, tools,
        # net/) per-element draws are legitimate.
        src = "for e in events:\n    d = model.sample()\n"
        spe_dir = tmp_path / "spe"
        spe_dir.mkdir()
        inside = spe_dir / "hot.py"
        inside.write_text(src)
        outside = tmp_path / "tool.py"
        outside.write_text(src)
        assert lint_paths([inside]).codes() == ["KL007"]
        assert lint_paths([outside]).codes() == []


# -- file/tree drivers -------------------------------------------------------


class TestDrivers:
    def test_iter_python_files_sorted_and_deduplicated(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("y = 2\n")
        files = iter_python_files([tmp_path, tmp_path / "a.py"])
        assert [f.name for f in files] == ["a.py", "b.py"]

    def test_lint_paths_merges_reports(self, tmp_path):
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        (tmp_path / "good.py").write_text("x = 1\n")
        report = lint_paths([tmp_path])
        assert report.codes() == ["KL001"]

    def test_state_run_parses_each_file_once(self, monkeypatch):
        """One loader: a ``--state`` run reads every rule family off one
        parse of each file."""
        import ast

        pkg = Path(repro.__file__).parent
        real_parse = ast.parse
        parsed = []

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(str(filename))
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        report, code = run_lint([str(pkg)], quiet=True, state=True)
        assert code == 0, report.render_text()
        assert sorted(parsed) == sorted(str(p) for p in pkg.rglob("*.py"))

    def test_rules_table_matches_emitted_codes(self):
        assert {code for code in RULES if code.startswith("KL")} == {
            "KL000", "KL001", "KL002", "KL003", "KL004", "KL005", "KL006",
            "KL007",
        }


class TestShippedTreeIsClean:
    def test_src_repro_lints_clean(self):
        """Regression: the shipped package must stay free of lint findings."""
        pkg = Path(repro.__file__).parent
        report = lint_paths([pkg])
        assert report.codes() == [], report.render_text()

    def test_analysis_package_is_fully_annotated(self):
        """pyproject pins mypy disallow_untyped_defs on repro.analysis;
        mypy is not a runtime dependency, so enforce the contract
        structurally too."""
        import ast

        unannotated = []
        for path in sorted((Path(repro.__file__).parent / "analysis").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                missing = any(
                    p.annotation is None and p.arg not in ("self", "cls")
                    for p in params
                )
                if node.returns is None or missing:
                    unannotated.append(f"{path.name}:{node.lineno} {node.name}")
        assert unannotated == []


# -- CLI ---------------------------------------------------------------------


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_with_code_and_location_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "KL001" in out
        assert f"{bad}:2:" in out

    def test_exit_two_when_no_files_found(self, tmp_path):
        assert main([str(tmp_path / "missing")]) == 2

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("ys = sorted(ops, key=id)\n")
        assert main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["counts"]["error"] == 1
        assert payload["diagnostics"][0]["code"] == "KL004"

    def test_json_includes_categories_and_suppression_counts(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import time\n"
            "t = time.time()\n"
            "u = time.monotonic()  # klink: allow[KL006]\n"
        )
        assert main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["categories"] == {"determinism": 1}
        assert payload["suppressed"] == {"KL006": 1}
        assert payload["suppressed_total"] == 1
        assert payload["diagnostics"][0]["category"] == "determinism"

    def test_rules_listing(self, capsys):
        assert main(["--rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out

    def test_run_lint_quiet_prints_nothing(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        report, exit_code = run_lint([str(tmp_path)], quiet=True)
        assert exit_code == 0
        assert report.ok
        assert capsys.readouterr().out == ""

    def test_repro_bench_lint_subcommand(self, tmp_path, capsys):
        from repro.cli import main as bench_main

        (tmp_path / "bad.py").write_text("import random\nrandom.random()\n")
        assert bench_main(["lint", str(tmp_path)]) == 1
        assert "KL002" in capsys.readouterr().out
