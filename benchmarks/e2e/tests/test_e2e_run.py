"""The commands end to end, on smoke-sized workloads."""

import json
import re
import shutil
import subprocess
import sys
import time

from conftest import E2E, REPO

import run
from passes import measure_pass
from workloads import WORKLOADS, smoke

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())


def run_py(*args, cwd=REPO, script=E2E / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )


def test_emitted_names_are_the_declared_names():
    end_to_end = [m["name"] for m in DECLARED["end_to_end"]]
    per_layer = [m["name"] for m in DECLARED["per_layer"]]
    workloads = [w["name"] for w in DECLARED["workloads"]]
    assert workloads == list(WORKLOADS)
    for name in end_to_end + per_layer + workloads:
        assert NAME.fullmatch(name), name
    assert len(set(end_to_end + per_layer + workloads)) == len(
        end_to_end + per_layer + workloads
    )

    spec = smoke(WORKLOADS["overload_hedged"])
    untraced = measure_pass(spec, 11, trace=False)
    traced = measure_pass(spec, 11, trace=True)
    emitted = run.per_layer_metrics(traced, [untraced])
    assert set(emitted) == set(per_layer)
    # The eight end-to-end metrics: the bounded ones under end_to_end,
    # the seed-dependent ones among the per-layer names.
    assert set(end_to_end) <= set(untraced["end_to_end"])
    assert set(untraced["end_to_end"]) <= set(end_to_end) | set(per_layer)
    assert len(untraced["end_to_end"]) == 8
    assert traced["verdict_digest"] == untraced["verdict_digest"]
    assert untraced["wrong"] == 0 and untraced["errors"] == 0


def test_steady_wall_discounts_slowdowns_and_takes_the_fastest_slice():
    calm = run.PROBE_REFERENCE_S
    passes = [
        {"slices_s": [1.0, 2.0], "probes_s": [calm] * 3},
        # The whole pass ran on a host twice as slow.
        {"slices_s": [2.4, 3.0], "probes_s": [2 * calm] * 3},
    ]
    assert run.steady_slices(passes[1]) == [1.2, 1.5]
    assert run.steady_wall_s(passes) == 1.0 + 1.5
    assert run.steady_wall_s(passes[:1]) == 3.0


def test_a_pass_that_does_not_repeat_the_verdicts_fails_whole():
    def one(digest, errors=0, wrong=0):
        return {
            "verdict_digest": digest, "errors": errors, "wrong": wrong,
            "offered": 50,
        }

    assert run.failures([one("a"), one("a")]) == 0
    assert run.failures([one("a", errors=1), one("a", wrong=2)]) == 3
    assert run.failures([one("a"), one("b")]) == 50


def test_smoke_run_checks_every_answer_in_under_twenty_seconds(tmp_path):
    out = tmp_path / "smoke.benchmark.json"
    start = time.monotonic()
    done = run_py("--smoke", "--repeats", "1", "--out", str(out))
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stderr
    assert elapsed < 20.0
    result = json.loads(out.read_text())
    assert list(result["workloads"]) == list(WORKLOADS)
    assert result["passes"] == run.PASSES
    for name, workload in result["workloads"].items():
        assert workload["end_to_end"]["failed_fraction"]["median"] == 0.0
        assert workload["failed"] == 0 and workload["digest_repeats"]
        assert 40 <= workload["offered"] <= 60
    # Every declared metric is printed by name with its unit.
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert re.search(
            rf"^\s+{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}\b",
            done.stdout, re.M,
        ), metric["name"]

    same = run_py("compare", str(out), str(out))
    assert same.returncode == 0, same.stderr
    assert " worse" not in same.stdout and "DIFFER" not in same.stdout

    # A full-sized run measures other workloads: compare refuses.
    full_sized = tmp_path / "full.benchmark.json"
    full_sized.write_text(json.dumps(dict(result, smoke=False)))
    refused = run_py("compare", str(out), str(full_sized))
    assert refused.returncode != 0 and "smoke" in refused.stderr


def test_driver_run_prints_exactly_the_contract_object():
    # Untraced: a fixed number of passes, whatever --seconds allows above
    # what they take.  Traced: a reference pass and a traced pass.
    for trace, group, passes in (
        (0, "end_to_end", run.PASSES), (1, "per_layer", 2),
    ):
        done = run_py(
            "--workload", "wide_compile", "--seed", "5", "--seconds", "15",
            "--trace", str(trace), "--smoke",
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] == 50 * passes
        units = {m["name"]: m["unit"] for m in DECLARED[group]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == units
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))


def test_seconds_caps_the_passes_of_a_driver_run():
    done = run_py(
        "--workload", "wide_compile", "--seed", "5", "--seconds", "0.001",
        "--trace", "0", "--smoke",
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["attempted"] == 50


def test_list_prints_why_each_workload_exists():
    done = run_py("--list")
    assert done.returncode == 0
    for workload in DECLARED["workloads"]:
        assert f"{workload['name']}: {workload['why']}" in done.stdout


def test_without_the_program_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        E2E, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"),
    )
    done = run_py(
        "--workload", "wide_compile", "--seed", "1", "--seconds", "1",
        "--trace", "0",
        cwd=tmp_path, script=tmp_path / "benchmarks" / "e2e" / "run.py",
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
