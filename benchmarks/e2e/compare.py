"""``run.py compare A.json B.json``: did B get worse than A?

Per (end-to-end metric, workload) the verdict is ``better``, ``same``,
``worse`` or ``unresolved``.  A difference counts only when it exceeds
both the metric's regression bound and the inter-quartile spread of A's
own repeats; a spread wider than the bound makes an otherwise unchanged
metric ``unresolved``, never ``same``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: End-to-end metrics that are pure functions of code + seed.  They vary
#: from seed to seed (and two can be 0), so BENCHMARK.json, whose bounds
#: the driver applies across seeds, lists them without a bound; between
#: two result files of one seed these bounds apply, and this is the one
#: place they are written down.  "abs" bounds are in the metric's own
#: unit, the others a share of A's median.
DETERMINISTIC_BOUNDS = {
    "virt_response_ms_p50": (0.01, "rel"),
    "virt_response_ms_p95": (0.01, "rel"),
    "virt_sustained_qps": (0.01, "rel"),
    "slo_miss_fraction": (0.01, "abs"),
    "failed_fraction": (0.0, "abs"),
}


def classify(a: Dict, b: Dict, better: str, bound: float, absolute: bool) -> str:
    """Verdict for one metric from A's and B's summaries (median/q1/q3)."""
    scale = 1.0 if absolute else abs(a["median"])
    if scale == 0.0:
        return "same" if b["median"] == a["median"] else "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / scale
    spread = (a["q3"] - a["q1"]) / scale
    noise = max(bound, spread)
    if worse_by > noise:
        return "worse"
    if -worse_by > noise:
        return "better"
    return "unresolved" if spread > bound else "same"


def metric_specs(declared: Dict) -> Dict[str, Tuple[str, float, bool]]:
    """name -> (better, bound, bound is absolute) for the eight
    end-to-end metrics."""
    specs = {
        m["name"]: (m["better"], m["bound"], False)
        for m in declared["end_to_end"]
    }
    for metric in declared["per_layer"]:
        if metric["name"] in DETERMINISTIC_BOUNDS:
            bound, kind = DETERMINISTIC_BOUNDS[metric["name"]]
            specs[metric["name"]] = (metric["better"], bound, kind == "abs")
    return specs


def compare(a: Dict, b: Dict, declared: Dict) -> Tuple[List[str], bool]:
    """Report lines and whether any metric got worse."""
    lines = [
        f"A: seed {a['seed']}, {a['repeats']} repeats, commit {a['host']['commit']}",
        f"B: seed {b['seed']}, {b['repeats']} repeats, commit {b['host']['commit']}",
        f"{'workload':<16} {'metric':<22} {'A median':>14} {'B median':>14} "
        f"{'change':>8} {'A spread':>8} {'bound':>6}  verdict",
    ]
    any_worse = False
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            continue
        for name, (better, bound, absolute) in metric_specs(declared).items():
            ma, mb = wa["end_to_end"][name], wb["end_to_end"][name]
            verdict = classify(ma, mb, better, bound, absolute)
            any_worse |= verdict == "worse"
            scale = 1.0 if absolute or not ma["median"] else abs(ma["median"])
            lines.append(
                f"{workload:<16} {name:<22} {ma['median']:>14.6g} "
                f"{mb['median']:>14.6g} "
                f"{(mb['median'] - ma['median']) / scale:>+8.3f} "
                f"{(ma['q3'] - ma['q1']) / scale:>8.3f} "
                f"{bound:>6g}  {verdict}"
            )
        if a["seed"] == b["seed"]:
            moved = [
                name
                for name in DETERMINISTIC_BOUNDS
                if wa["end_to_end"][name]["median"]
                != wb["end_to_end"][name]["median"]
            ]
            if wa["verdict_digest"] != wb["verdict_digest"]:
                moved.append("verdict_digest")
            lines.append(
                f"{workload:<16} deterministic metrics and verdict_digest: "
                + ("identical" if not moved else "DIFFER " + ", ".join(moved))
            )
    return lines, any_worse
