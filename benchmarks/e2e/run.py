#!/usr/bin/env python3
"""The repo benchmark: end-to-end wall-clock throughput, per-layer split.

Measure everything (every workload, untraced repeats interleaved round
robin plus one traced pass; prints every metric by name with its unit,
checks every answer, writes a result file)::

    python3 benchmarks/e2e/run.py [--seed 11] [--repeats 5]
        [--workload NAME] [--out PATH] [--spans PATH] [--smoke]

One driver run of one workload (``BENCHMARK.json`` contract; the last
stdout line is the result object)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Other commands: ``--list`` (workloads and why they exist) and ``compare
A.json B.json`` (see compare.py).  README.md has the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"run.py: the program's sources are missing ({SRC}/repro)")
sys.path[:0] = [str(SRC), str(HERE)]

from compare import DETERMINISTIC_BOUNDS, compare  # noqa: E402
from passes import measure_pass  # noqa: E402
from workloads import PROBE_REFERENCE_S, WORKLOADS, smoke  # noqa: E402

DEFAULT_OUT = HERE / "out" / "e2e.benchmark.json"
#: A pass takes 4-8 s; this only stops a hung child from outliving the
#: driver's 180 s limit on a whole run.
CHILD_TIMEOUT_S = 150
#: Untraced passes in one measurement.  A constant, because
#: :func:`steady_wall_s` falls as passes are added (by 5 % from one pass
#: to two, 2 % from two to three, under 1 % a pass after that): every
#: measurement, in a driver run, a full run or a smoke run, takes the
#: same number, so all of them compare.
PASSES = 3


def declared() -> Dict:
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- passes in child interpreters ----------------------------------------------


def run_child(
    workload: str,
    seed: int,
    trace: bool,
    use_smoke: bool = False,
    spans: Optional[str] = None,
) -> Dict:
    """One pass of *workload* in a fresh interpreter; its result dict."""
    command = [
        sys.executable, str(HERE / "run.py"), "child",
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)),
    ]
    if use_smoke:
        command.append("--smoke")
    if spans:
        command += ["--spans", spans]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("REPRO_ENGINE", None)  # the workloads run the repo's default
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def child_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py child")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    if args.smoke:
        spec = smoke(spec)
    result = measure_pass(spec, args.seed, bool(args.trace), args.spans)
    print(json.dumps(result))
    return 0


# -- aggregation -----------------------------------------------------------------


def failures(passes: List[Dict]) -> int:
    """Failed operations over *passes* of one (workload, seed): raised
    errors, wrong answers, and every query of a pass whose verdicts
    differ from the first pass's (they must repeat exactly)."""
    digest = passes[0]["verdict_digest"]
    return sum(
        p["errors"] + p["wrong"] if p["verdict_digest"] == digest
        else p["offered"]
        for p in passes
    )


#: Borders on each side of a slice whose probe readings, with the
#: slice's own two, give the host's speed around the slice (median).
PROBE_WINDOW = 5


def steady_slices(pass_: Dict) -> List[float]:
    """Each slice's wall seconds, discounted by the host's slowdown
    around that slice as the probe read it."""
    probes = pass_["probes_s"]
    return [
        wall * PROBE_REFERENCE_S
        / statistics.median(probes[max(0, i - PROBE_WINDOW): i + 2 + PROBE_WINDOW])
        for i, wall in enumerate(pass_["slices_s"])
    ]


def steady_wall_s(passes: List[Dict]) -> float:
    """Steady seconds of the timed region over *passes* of one
    (workload, seed): the sum over slices of the fastest discounted time
    any pass took for that slice.

    Slice i is the same work in every pass.  The discount removes what
    the host's slowdowns (up to 1.9x, for seconds to minutes) add to it;
    the minimum removes what differs from one interpreter to the next
    and the stalls too short for the probe to see.
    """
    return sum(map(min, zip(*map(steady_slices, passes))))


def measurement(passes: List[Dict]) -> Dict[str, float]:
    """The end-to-end metrics of one measurement = :data:`PASSES`
    untraced passes of one (workload, seed).  ``wall_qps`` divides by
    :func:`steady_wall_s`; set-up time and peak RSS are medians over the
    passes; the virtual-time metrics and fractions are the same in
    every pass."""
    first = passes[0]
    values = {
        name: statistics.median(p["end_to_end"][name] for p in passes)
        for name in first["end_to_end"]
    }
    values["wall_qps"] = (
        first["completed"] - first["wrong"]
    ) / steady_wall_s(passes)
    return values


def summarise(values: List[float]) -> Dict[str, object]:
    """Median with min/quartiles/max over the repeats."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "values": values,
    }


def per_layer_metrics(traced: Dict, untraced: List[Dict]) -> Dict[str, float]:
    """Every declared per-layer metric: those of the traced pass, plus
    what needs the untraced passes next to it."""

    def steady_pass_s(pass_: Dict) -> float:
        return steady_wall_s([pass_])

    metrics = dict(traced["per_layer"])
    # Pass by pass on both sides, so that more passes on one side do not
    # win more slice minima.
    metrics["harness.trace_overhead_fraction"] = (
        steady_pass_s(traced)
        / statistics.median(map(steady_pass_s, untraced))
        - 1.0
    )
    metrics["host.spin_ms"] = statistics.median(
        p["probe_ms"] for p in [traced] + untraced
    )
    # The end-to-end metrics that are functions of the seed (two of them
    # possibly 0) cannot carry a bound across seeds in BENCHMARK.json;
    # they are declared with the per-layer metrics and reported here.
    for name in DETERMINISTIC_BOUNDS:
        metrics[name] = untraced[0]["end_to_end"][name]
    return metrics


# -- one driver run (the BENCHMARK.json contract) ------------------------------


def contract_main(args, spec: Dict) -> int:
    """One driver run of one workload; the result object is the last
    stdout line.

    ``--trace 0`` reports the end-to-end metrics of one measurement:
    :data:`PASSES` untraced passes (set-up happens, and is timed, once
    per pass).  ``--seconds`` only caps them: no further pass starts
    once that much timed region has been measured, which at the declared
    ``run_seconds`` takes a host nearly twice as slow as the reference
    host.  ``--trace 1`` takes one untraced reference pass and one
    traced pass, and reports the per-layer metrics.
    """

    def one_pass(trace: bool) -> Dict:
        return run_child(args.workload, args.seed, trace, args.smoke)

    passes = [one_pass(False)]
    if args.trace:
        traced = one_pass(True)
        values = per_layer_metrics(traced, passes)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        passes.append(traced)
    else:
        while (
            len(passes) < PASSES
            and sum(p["wall_s"] for p in passes) < args.seconds
        ):
            passes.append(one_pass(False))
        values = measurement(passes)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    failed = failures(passes)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(p["offered"] for p in passes),
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


# -- the full measurement --------------------------------------------------------


def host_info() -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, text=True, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
    }


def print_report(workloads: Dict[str, Dict], units: Dict[str, str]) -> None:
    """Every metric of every workload by name, with its unit."""
    for name, w in workloads.items():
        repeats = "repeats" if w["digest_repeats"] else "DOES NOT REPEAT"
        print(
            f"\n== {name}: {w['offered']} offered, {w['completed']} completed,"
            f" {w['shed']} shed, {w['failed']} failed;"
            f" verdict_digest {w['verdict_digest'][:16]} ({repeats})"
        )
        print(
            f"   {'end-to-end metric':<28} {'median':>12} {'unit':<14}"
            f" {'q1':>12} {'q3':>12} {'min':>12} {'max':>12}   n"
        )
        for metric, s in w["end_to_end"].items():
            print(
                f"   {metric:<28} {s['median']:>12.6g} {units[metric]:<14}"
                f" {s['q1']:>12.6g} {s['q3']:>12.6g} {s['min']:>12.6g}"
                f" {s['max']:>12.6g}   {len(s['values'])}"
            )
        wall = w["per_layer"]["harness.traced_wall_s"]
        print(
            f"   {'per-layer metric (the traced pass)':<44} {'value':>12}"
            f" {'unit':<14} share of traced wall"
        )
        for metric, value in w["per_layer"].items():
            is_time = metric.endswith(".self_s") or metric == "harness.unattributed_s"
            share = f"{value / wall:6.1%}" if is_time else ""
            print(f"   {metric:<44} {value:>12.6g} {units[metric]:<14} {share}")
        # Raw next to discounted, pass by pass: every result file shows
        # anew what the discount does on the host it was measured on.
        for key, what in (("pass_wall_s", "raw wall"), ("pass_steady_s", "steady")):
            s = w[key]
            print(
                f"   {what} seconds of the {len(s['values'])} untraced passes,"
                f" each alone: {s['min']:.2f}-{s['max']:.2f} (median"
                f" {s['median']:.2f}, quartiles"
                f" {(s['q3'] - s['q1']) / s['median']:.1%} apart)"
            )
        s = w["probe_ms"]
        if s["max"] - s["min"] > 0.10 * s["median"]:
            print(
                "   host drift: the probe's median reading per pass ranged"
                f" {s['min']:.3f}-{s['max']:.3f} ms"
            )


def full_main(args, spec: Dict) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.spans and len(names) != 1:
        sys.exit("run.py: --spans writes one workload's spans; add --workload")
    # passes[name][repeat] is one measurement.  Round robin at the pass
    # level, so slow drift of the host's speed lands on every workload
    # alike instead of on whichever ran last.
    passes: Dict[str, List[List[Dict]]] = {
        name: [[] for _ in range(args.repeats)] for name in names
    }
    for repeat in range(args.repeats):
        for index in range(PASSES):
            for name in names:
                print(
                    f"[{name}] repeat {repeat + 1}/{args.repeats}"
                    f" pass {index + 1}/{PASSES}",
                    file=sys.stderr,
                )
                passes[name][repeat].append(
                    run_child(name, args.seed, False, args.smoke)
                )
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}

    workloads: Dict[str, Dict] = {}
    for name in names:
        print(f"[{name}] traced pass", file=sys.stderr)
        traced = run_child(name, args.seed, True, args.smoke, args.spans)
        untraced = [p for repeat in passes[name] for p in repeat]
        everything = untraced + [traced]
        first = untraced[0]
        measurements = [measurement(repeat) for repeat in passes[name]]
        workloads[name] = {
            "why": whys[name],
            "offered": first["offered"],
            "completed": first["completed"],
            "shed": first["shed"],
            "failed": failures(everything),
            "verdict_digest": first["verdict_digest"],
            "digest_repeats": all(
                p["verdict_digest"] == first["verdict_digest"]
                for p in everything
            ),
            "end_to_end": {
                metric: summarise([m[metric] for m in measurements])
                for metric in measurements[0]
            },
            "per_layer": per_layer_metrics(traced, untraced),
            "pass_wall_s": summarise([p["wall_s"] for p in untraced]),
            "pass_steady_s": summarise([steady_wall_s([p]) for p in untraced]),
            "probe_ms": summarise([p["probe_ms"] for p in everything]),
        }

    result = {
        "seed": args.seed,
        "repeats": args.repeats,
        "passes": PASSES,
        "smoke": args.smoke,
        "host": host_info(),
        "workloads": workloads,
    }
    print_report(workloads, {**layer_units, **e2e_units})
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    failed = sum(w["failed"] for w in workloads.values())
    print(f"\nwrote {out}; {failed} failed operations")
    return 1 if failed else 0


def compare_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    a = json.loads(Path(args.a).read_text(encoding="utf-8"))
    b = json.loads(Path(args.b).read_text(encoding="utf-8"))
    for key in ("smoke", "passes"):
        if a[key] != b[key]:
            sys.exit(
                f"run.py compare: {key} is {a[key]} in A and {b[key]} in B;"
                " such runs do not compare"
            )
    lines, any_worse = compare(a, b, declared())
    print("\n".join(lines))
    return 1 if any_worse else 0


def main(argv: List[str]) -> int:
    if argv[:1] == ["child"]:
        return child_main(argv[1:])
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--repeats", type=int, default=5,
                        help="measurements per workload (median and quartiles)")
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument("--spans", help="write the traced pass's spans here")
    parser.add_argument("--smoke", action="store_true",
                        help="about fifty queries per workload")
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--seconds", type=float,
                        help="driver run: print one result object; caps the passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver run: 0 end-to-end metrics, 1 per-layer metrics")
    args = parser.parse_args(argv)
    spec = declared()
    if args.list:
        for workload in spec["workloads"]:
            print(f"{workload['name']}: {workload['why']}")
        return 0
    if args.seconds is not None:
        if not args.workload:
            parser.error("--seconds needs --workload")
        return contract_main(args, spec)
    return full_main(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
