"""Verdict rules of ``run.py compare``."""

from compare import classify, compare


def summary(median, q1=None, q3=None):
    return {
        "median": median,
        "q1": median if q1 is None else q1,
        "q3": median if q3 is None else q3,
    }


def test_changes_inside_the_bound_are_same():
    assert classify(summary(100), summary(105), "higher", 0.10, False) == "same"
    assert classify(summary(100), summary(95), "higher", 0.10, False) == "same"


def test_direction_follows_better():
    assert classify(summary(100), summary(80), "higher", 0.10, False) == "worse"
    assert classify(summary(100), summary(120), "higher", 0.10, False) == "better"
    assert classify(summary(100), summary(80), "lower", 0.10, False) == "better"
    assert classify(summary(100), summary(120), "lower", 0.10, False) == "worse"


def test_spread_wider_than_the_bound_is_unresolved_never_same():
    noisy = summary(100, q1=90, q3=110)
    assert classify(noisy, summary(103), "higher", 0.10, False) == "unresolved"
    # A change smaller than A's own spread is not a verdict either.
    assert classify(noisy, summary(85), "higher", 0.10, False) == "unresolved"
    assert classify(noisy, summary(70), "higher", 0.10, False) == "worse"


def test_absolute_bounds_work_at_zero():
    assert classify(summary(0.0), summary(0.0), "lower", 0.0, True) == "same"
    assert classify(summary(0.0), summary(0.002), "lower", 0.0, True) == "worse"
    assert classify(summary(0.30), summary(0.305), "lower", 0.01, True) == "same"
    assert classify(summary(0.30), summary(0.32), "lower", 0.01, True) == "worse"


def result(wall_qps, p50, digest="d"):
    e2e = {
        name: summary(1.0)
        for name in (
            "setup_s", "peak_rss_mb", "virt_response_ms_p95",
            "virt_sustained_qps", "slo_miss_fraction", "failed_fraction",
        )
    }
    e2e["wall_qps"] = summary(wall_qps)
    e2e["virt_response_ms_p50"] = summary(p50)
    return {
        "seed": 11,
        "repeats": 5,
        "host": {"commit": "x"},
        "workloads": {"w": {"end_to_end": e2e, "verdict_digest": digest}},
    }


DECLARED = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "wall_qps", "unit": "queries/s", "better": "higher", "bound": 0.1},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "virt_response_ms_p50", "unit": "virt_ms", "better": "lower"},
        {"name": "virt_response_ms_p95", "unit": "virt_ms", "better": "lower"},
        {"name": "virt_sustained_qps", "unit": "queries/virt_s", "better": "higher"},
        {"name": "slo_miss_fraction", "unit": "fraction", "better": "lower"},
        {"name": "failed_fraction", "unit": "fraction", "better": "lower"},
        {"name": "sqlengine.explain.calls", "unit": "count", "better": "lower"},
    ],
}


def test_compare_covers_the_eight_metrics_and_flags_worse():
    lines, any_worse = compare(result(100, 50.0), result(101, 50.0), DECLARED)
    assert not any_worse
    assert sum(line.endswith(" same") for line in lines) == 8
    assert any("identical" in line for line in lines)

    lines, any_worse = compare(
        result(100, 50.0), result(80, 51.0, digest="e"), DECLARED
    )
    assert any_worse
    assert sum(line.endswith(" worse") for line in lines) == 2
    assert any(
        "DIFFER virt_response_ms_p50, verdict_digest" in line for line in lines
    )
