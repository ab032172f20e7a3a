"""The answer checker's comparison rules and the verdict digest."""

from answers import rows_match, verdict_digest
from workloads import Verdict


def test_rows_match_ignores_order():
    assert rows_match([(1, "a"), (2, "b")], [(2, "b"), (1, "a")])
    assert not rows_match([(1, "a")], [(1, "a"), (1, "a")])


def test_rows_match_float_tolerance_is_relative_1e_9():
    assert rows_match([("x", 1e6)], [("x", 1e6 * (1 + 5e-10))])
    assert not rows_match([("x", 1e6)], [("x", 1e6 * (1 + 5e-9))])
    assert rows_match([(3,)], [(3.0,)])


def test_rows_match_null_equals_only_null():
    assert rows_match([(None, 1)], [(None, 1)])
    assert not rows_match([(None, 1)], [(0, 1)])
    assert not rows_match([("", 1)], [(None, 1)])


def test_verdict_digest_tracks_status_timing_and_row_count():
    base = [
        Verdict(0, "q", "completed", 12.5, [(1, 2.0)]),
        Verdict(1, "q", "shed"),
    ]
    slower = [base[0].__class__(0, "q", "completed", 12.6, [(1, 2.0)]), base[1]]
    other_rows = [Verdict(0, "q", "completed", 12.5, [(1, 2.5)]), base[1]]
    fewer_rows = [Verdict(0, "q", "completed", 12.5, []), base[1]]
    assert verdict_digest(base) != verdict_digest(slower)
    assert verdict_digest(base) != verdict_digest(fewer_rows)
    # Row values are the answer checker's business, not the digest's.
    assert verdict_digest(base) == verdict_digest(other_rows)
