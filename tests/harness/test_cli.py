"""Tests for the CLI and the packaged experiment runners."""

import json
import re

import pytest

import repro.obs as obs
from repro.cli import build_parser, main
from repro.harness import Evaluation
from repro.harness.experiment import QueryOutcome, _regret_ms, _routed_cost
from repro.harness.metrics import mean
from repro.harness.report import replace_marked_blocks
from repro.workload import QT1, QUERY_TYPES, TEST_SCALE

QT1_SQL = QUERY_TYPES[0].instance(0).sql


@pytest.fixture()
def clean_obs():
    """Commands that configure the global obs sink get torn down."""
    yield
    obs.disable()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "figure10"])
        assert args.name == "figure10"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure99"])

    def test_query_flags(self):
        args = build_parser().parse_args(
            ["query", "SELECT 1", "--load", "S3=0.8", "--explain"]
        )
        assert args.sql == "SELECT 1"
        assert args.load == ["S3=0.8"]
        assert args.explain

    def test_engine_is_not_an_option(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain", "SELECT 1", "--engine", "row"])


class TestCommands:
    def test_query(self, capsys):
        code = main(
            ["query", "SELECT COUNT(*) FROM customer", "--scale", "test"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "servers:" in out
        assert "rows (1):" in out

    def test_query_explain(self, capsys):
        code = main(
            [
                "query",
                "SELECT COUNT(*) FROM customer",
                "--scale",
                "test",
                "--explain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Ranked global plans" in out
        assert "p1[" in out

    def test_query_with_load(self, capsys):
        code = main(
            [
                "query",
                "SELECT COUNT(*) FROM customer",
                "--scale",
                "test",
                "--load",
                "S3=0.9",
            ]
        )
        assert code == 0

    def test_bad_load_spec(self):
        with pytest.raises(Exception):
            main(
                [
                    "query",
                    "SELECT COUNT(*) FROM customer",
                    "--scale",
                    "test",
                    "--load",
                    "S3",
                ]
            )

    def test_status(self, capsys):
        code = main(["status", "--scale", "test", "--queries", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "server_factors" in out
        assert "ii_factor" in out

    def test_demo(self, capsys):
        code = main(["demo", "--scale", "test"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Mean response" in out
        assert "QCC status" in out


class TestExplainCommand:
    def test_without_analyze_lists_ranked_plans(self, capsys):
        code = main(["explain", QT1_SQL, "--scale", "test"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Ranked global plans" in out
        assert "p1[" in out

    def test_analyze_annotates_estimates_and_actuals(self, capsys):
        code = main(["explain", QT1_SQL, "--scale", "test", "--analyze"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Global plan:" in out
        assert "II merge plan:" in out
        assert re.search(r"\(est rows=\d+ total=", out)
        assert re.search(
            r"\(actual rows=\d+ batches=\d+(?: sel=[\d.]+)? loops=\d+ time=",
            out,
        )
        # Both the fragment plan and the merge plan were annotated.
        assert out.count("actual rows=") >= 2


class TestTelemetryCommands:
    def test_metrics_prom_format(self, capsys, clean_obs):
        code = main(
            [
                "metrics",
                "--scale",
                "test",
                "--queries",
                "4",
                "--format",
                "prom",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE ii_queries_total counter" in out
        assert "# TYPE qcc_calibration_factor gauge" in out
        assert re.search(r'\{server="S\d"(,[^}]*)?\} ', out)

    def test_metrics_json_to_file(self, tmp_path, capsys, clean_obs):
        path = tmp_path / "metrics.json"
        code = main(
            [
                "metrics",
                "--scale",
                "test",
                "--queries",
                "4",
                "--format",
                "json",
                "--out",
                str(path),
            ]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert "counters" in payload
        assert "plan_cache" in payload
        statements = payload["statement_cache"]
        assert sorted(statements) == ["S1", "S2", "S3"]
        for stats in statements.values():
            assert stats["entries"] == stats["misses"] > 0

    def test_metrics_text_lists_statement_caches(self, capsys, clean_obs):
        assert main(["metrics", "--scale", "test", "--queries", "4"]) == 0
        section = capsys.readouterr().out.split("\nplan cache:\n")[1]
        assert re.search(r"  statements@S3: entries=\d+ hits=\d+ misses=\d+", section)

    def test_trace_chrome_format(self, tmp_path, clean_obs):
        path = tmp_path / "trace.json"
        code = main(
            [
                "trace",
                "SELECT COUNT(*) AS n FROM customer",
                "--scale",
                "test",
                "--format",
                "chrome",
                "--out",
                str(path),
            ]
        )
        assert code == 0
        doc = json.loads(path.read_text())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete
        for event in complete:
            for field in ("ts", "dur", "pid", "tid"):
                assert field in event

    def test_timeline_command_exports(self, tmp_path, capsys, clean_obs):
        prefix = tmp_path / "tl"
        json_path = tmp_path / "tl.json"
        code = main(
            [
                "timeline",
                "--scale",
                "test",
                "--csv",
                str(prefix),
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Federation timeline" in out
        samples = (tmp_path / "tl_samples.csv").read_text().splitlines()
        assert samples[0].startswith("t_ms,server,calibration_factor")
        assert len(samples) > 1
        events = (tmp_path / "tl_events.csv").read_text().splitlines()
        assert events[0] == "t_ms,kind,server,detail,value"
        payload = json.loads(json_path.read_text())
        assert payload["experiment"] == "timeline"
        assert payload["samples"]


class TestChaosCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.seed == 42
        assert args.runs == 25
        assert args.max_shrink == 200
        assert args.jsonl is None
        assert args.repro is None

    def test_sweep_writes_deterministic_jsonl(self, tmp_path, capsys):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        assert main(
            ["chaos", "--seed", "42", "--runs", "2",
             "--jsonl", str(first)]
        ) == 0
        assert main(
            ["chaos", "--seed", "42", "--runs", "2",
             "--jsonl", str(second)]
        ) == 0
        assert first.read_text() == second.read_text()
        records = [
            json.loads(line)
            for line in first.read_text().splitlines()
        ]
        assert len(records) == 2
        for record in records:
            assert record["kind"] == "chaos-scenario"
            assert record["verdict"] == "ok"
            assert not any(record["violations"].values())

    def test_repro_replays_one_scenario(self, capsys):
        from repro.chaos import generate_scenario

        spec = generate_scenario(42, 1)
        code = main(
            ["chaos", "--seed", "42", "--repro", spec.canonical_json()]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 scenario(s), 0 with invariant violations" in out

    def test_summary_totals_each_runs_mechanism_counts(self, capsys):
        from collections import Counter
        from dataclasses import replace

        from repro.chaos import generate_scenarios, run_checkers, run_scenario
        from repro.chaos.checkers import CASES

        code = main(
            ["chaos", "--seed", "42", "--runs", "6",
             "--hedge-after", "20", "--reroute-batch", "8"]
        )
        assert code == 0
        totals, cases = Counter(), Counter()
        for spec in generate_scenarios(42, 6):
            if spec.arrival is not None:
                spec = replace(spec, hedge_after_ms=20, reroute_batch_rows=8)
            run = run_scenario(spec)
            totals.update(run.counts())
            cases.update({name: CASES[name](run) for name in run_checkers(run)})
        assert totals["hedges fired"] > 0
        assert {
            "backup wins", "migrations fired", "retries", "sheds",
            "failovers", "down exclusions", "stale exclusions",
        } <= set(totals)
        assert set(cases) == set(CASES) and cases["sqlite-answers"] > 0
        *_, checker_cases, summary = capsys.readouterr().out.splitlines()
        assert checker_cases == "Checker cases: " + ", ".join(
            f"{name} {n}" for name, n in sorted(cases.items())
        )
        assert summary == "Mechanisms: " + ", ".join(
            f"{name} {n}" for name, n in sorted(totals.items())
        )

    def test_checker_subset_flag(self, capsys):
        code = main(
            ["chaos", "--seed", "42", "--runs", "1",
             "--checkers", "no-down-dispatch"]
        )
        assert code == 0

    def test_failure_is_shrunk_and_exit_is_nonzero(self, capsys):
        """A violated invariant turns into a minimal repro command."""
        from repro.chaos.checkers import _REGISTRY, register_checker

        @register_checker("planted-outage-intolerance")
        def planted(run):
            if any(f.kind == "outage" for f in run.spec.faults):
                return ["planted: an outage exists"]
            return []

        try:
            code = main(
                ["chaos", "--seed", "42", "--runs", "1",
                 "--checkers", "planted-outage-intolerance",
                 "--max-shrink", "10"]
            )
        finally:
            del _REGISTRY["planted-outage-intolerance"]
        assert code == 1
        out = capsys.readouterr().out
        assert "[FAIL] scenario 0" in out
        assert "shrunk to 1 fault(s)" in out
        assert "reproduce: repro chaos --seed 42 --repro '" in out


class TestExperimentRunners:
    def test_figure9_runner_structure(self, sample_databases):
        result = Evaluation(
            scale=TEST_SCALE, databases=sample_databases
        ).figure9()
        assert set(result.measurements) == {"QT1", "QT2", "QT3", "QT4"}
        for data in result.measurements.values():
            assert set(data) == {"base", "loaded", "s3_loaded"}
            for condition in data.values():
                assert set(condition) == {"S1", "S2", "S3"}
        rendered = result.render()
        assert "Figure 9" in rendered
        assert "QT2" in rendered

    def test_cli_and_benchmark_share_the_table2_runner(
        self, sample_databases, tmp_path, capsys
    ):
        # `repro experiment table2` and benchmarks/bench_table2.py (via
        # the session Evaluation of benchmarks/conftest.py) both read
        # Evaluation.table2(); same scale and data => same assignments.
        path = tmp_path / "table2.json"
        assert main(
            ["experiment", "table2", "--scale", "test", "--json", str(path)]
        ) == 0
        assert "Table 2" in capsys.readouterr().out
        from_cli = json.loads(path.read_text())
        measured = Evaluation(
            scale=TEST_SCALE, databases=sample_databases, instances_per_type=5
        ).table2()
        assert from_cli["assignments"] == measured.assignments
        assert from_cli == measured.to_dict()
        assert set(measured.assignments) == {"QT1", "QT2", "QT3", "QT4"}
        assert all(len(row) == 8 for row in measured.assignments.values())

    def test_all_markdown_rewrites_only_the_marked_blocks(self, tmp_path, capsys):
        names = ("figure9", "table2", "figure10", "figure11", "regret", "residual")
        stale = "".join(
            f"## {name}\n\n<!-- BEGIN {name} -->\n| old |\n<!-- END {name} -->\n\nprose\n"
            for name in names
        )
        path, payload = tmp_path / "EXPERIMENTS.md", tmp_path / "all.json"
        path.write_text("# head\n\n" + stale)
        assert main(
            [
                "experiment", "all", "--scale", "test",
                "--markdown", str(path), "--json", str(payload),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert all(
            title in out
            for title in (
                "Figure 9", "Table 2", "Figure 10", "Figure 11", "regret",
                "residual",
            )
        )
        text = path.read_text()
        blocks = dict(
            re.findall(r"<!-- BEGIN (\w+) -->\n(.*?)\n<!-- END \1 -->", text, re.S)
        )
        assert list(blocks) == list(names)
        assert all(block.startswith("| ") for block in blocks.values())
        # Outside the blocks nothing moved.
        assert replace_marked_blocks(text, dict.fromkeys(names, "| old |")) == (
            "# head\n\n" + stale
        )
        assert list(json.loads(payload.read_text())) == list(names)

    def test_regret_of_the_three_systems(self, sample_databases):
        result = Evaluation(
            scale=TEST_SCALE, databases=sample_databases
        ).regret()
        means = {
            system: {phase: round(ms, 3) for phase, ms in by_phase.items()}
            for system, by_phase in result.mean_ms.items()
        }
        # At test scale QCC keeps every query on S3 in every phase, as
        # Fixed 2 does (Table 2 at this scale), so the two tie exactly:
        # only a few instances of phases 2 and 4 have a better server.
        qcc = dict.fromkeys(means["QCC"], 0.0)
        qcc.update(Phase2=0.604, Phase4=0.604)
        assert means == {
            "QCC": qcc,
            "Fixed 1": {
                "Phase1": 15.244,
                "Phase2": 7.072,
                "Phase3": 21.819,
                "Phase4": 13.646,
                "Phase5": 25.885,
                "Phase6": 17.109,
                "Phase7": 32.46,
                "Phase8": 23.684,
            },
            "Fixed 2": qcc,
        }
        overall = {
            system: mean(list(by_phase.values()))
            for system, by_phase in result.mean_ms.items()
        }
        assert overall["QCC"] == overall["Fixed 2"] < overall["Fixed 1"]
        share = dict.fromkeys(qcc, 1.0)
        share.update(Phase2=0.9, Phase4=0.9)
        assert result.zero_share == {
            "QCC": share,
            "Fixed 1": dict.fromkeys(qcc, 0.25),
            "Fixed 2": share,
        }
        assert "avg" in result.render()
        assert result.markdown().splitlines()[-1].startswith("| **avg** |")

    def test_regret_needs_one_server_per_query(self):
        outcome = QueryOutcome(QT1.instance(0), 1.0, ("S1", "S2"), 0)
        with pytest.raises(ValueError, match="exactly one server"):
            _regret_ms(outcome, {"S1": 1.0, "S2": 2.0})
        alone = QueryOutcome(QT1.instance(0), 1.0, ("S2",), 0)
        assert _regret_ms(alone, {"S1": 1.0, "S2": 2.5}) == 1.5

    def test_residual_before_and_after_calibration(self, sample_databases):
        result = Evaluation(
            scale=TEST_SCALE, databases=sample_databases
        ).residual()
        rounded = {
            kind: {
                phase: (round(ratio, 3), round(q, 3))
                for phase, (ratio, q) in by_phase.items()
            }
            for kind, by_phase in (
                ("raw", result.raw), ("calibrated", result.calibrated)
            )
        }
        # At test scale every query runs on S3, so the phases fall into
        # two groups: S3 idle (1, 3, 5, 7) and S3 loaded (2, 4, 6, 8).
        # Even idle, the raw ratio is 2.02, not 1 (DESIGN decision 2): the
        # estimate prices no wire.
        idle = ("Phase1", "Phase3", "Phase5", "Phase7")
        assert rounded == {
            "raw": {
                phase: (2.018, 2.183) if phase in idle else (3.571, 5.001)
                for phase in result.raw
            },
            "calibrated": {
                phase: (1.01, 1.075) if phase in idle else (0.988, 1.088)
                for phase in result.raw
            },
        }
        assert result.to_dict()["raw"]["Phase1"]["worst_q_error"] == (
            result.raw["Phase1"][1]
        )
        assert "residual" in result.render()
        assert result.markdown().splitlines()[-1].startswith("| **all** |")

    def test_residual_needs_one_fragment_per_query(self):
        costs = ((10.0, 12.0, 11.0), (5.0, 5.0, 6.0))
        outcome = QueryOutcome(
            QT1.instance(0), 1.0, ("S1", "S2"), 0, fragment_costs=costs
        )
        with pytest.raises(ValueError, match="exactly one"):
            _routed_cost(outcome)
        alone = QueryOutcome(
            QT1.instance(0), 1.0, ("S1",), 0, fragment_costs=costs[:1]
        )
        assert _routed_cost(alone) == (10.0, 12.0, 11.0)

    @pytest.mark.parametrize(
        "text",
        ["no markers", "<!-- BEGIN a -->\n<!-- BEGIN a -->\n<!-- END a -->", "<!-- BEGIN a -->\n"],
        ids=["missing", "twice", "unterminated"],
    )
    def test_a_block_must_be_marked_once(self, text):
        with pytest.raises(ValueError, match="'a'"):
            replace_marked_blocks(text, {"a": "| new |"})
