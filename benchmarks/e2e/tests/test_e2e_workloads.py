"""The benchmark's own traffic generator."""

import json
from dataclasses import asdict

from repro.workload import QUERY_TYPES

from answers import verdict_digest
from workloads import (
    BURST_OFF_MS,
    BURST_ON_MS,
    SUBMITS_PER_SLICE,
    WORKLOADS,
    OpenLoop,
    Stopwatch,
    generate_stream,
    open_session,
    smoke,
)

OPEN_LOOPS = [spec for spec in WORKLOADS.values() if isinstance(spec, OpenLoop)]


def stream_bytes(spec, seed):
    return json.dumps([asdict(a) for a in generate_stream(spec, seed)]).encode()


def test_stream_is_byte_identical_for_a_seed_and_differs_across_seeds():
    for spec in OPEN_LOOPS:
        assert stream_bytes(spec, 11) == stream_bytes(spec, 11)
        assert stream_bytes(spec, 11) != stream_bytes(spec, 12)


def test_stream_has_the_fixed_size_and_a_balanced_template_mix():
    for spec in OPEN_LOOPS:
        stream = generate_stream(spec, 5)
        assert len(stream) == spec.offered
        times = [a.t_ms for a in stream]
        assert times == sorted(times) and times[0] > 0.0
        counts = [
            sum(1 for a in stream if a.label == template.name)
            for template in QUERY_TYPES
        ]
        assert max(counts) - min(counts) <= 1


def test_classes_are_drawn_only_where_the_workload_asks_for_them():
    for spec in OPEN_LOOPS:
        classes = {a.klass for a in generate_stream(spec, 5)}
        if spec.classed:
            assert classes == {"gold", "silver", "batch"}
        else:
            assert classes == {None}


def test_bursty_arrivals_fall_inside_the_on_windows():
    spec = WORKLOADS["overload_hedged"]
    period = BURST_ON_MS + BURST_OFF_MS
    for arrival in generate_stream(spec, 9):
        assert arrival.t_ms % period <= BURST_ON_MS + 1e-6


def test_working_set_sizes_straddle_the_plan_cache():
    distinct = {
        spec.name: len({a.sql for a in generate_stream(spec, 11)})
        for spec in OPEN_LOOPS
    }
    assert distinct["steady_engine"] <= 40 and distinct["overload_hedged"] <= 40
    assert distinct["wide_compile"] > 4 * 128


def test_smoke_cuts_every_workload_to_about_fifty_queries():
    for spec in WORKLOADS.values():
        assert 40 <= smoke(spec).offered <= 60


def test_stopwatch_reads_one_probe_per_border_and_times_only_slices():
    watch = Stopwatch()
    watch.start()
    watch.border()
    watch.border()
    assert len(watch.slices_s) == 2 and len(watch.probes_s) == 3
    assert all(reading > 0.0 for reading in watch.probes_s)
    assert watch.probing_s > sum(watch.slices_s)


def test_slicing_the_event_loop_changes_no_verdict():
    spec = smoke(WORKLOADS["overload_hedged"])
    sliced = open_session(spec, 11)
    makespan_ms = sliced.run()
    whole = open_session(spec, 11)
    whole.runtime.run()
    assert verdict_digest(sliced.verdicts()) == verdict_digest(whole.verdicts())
    assert len(sliced.stopwatch.slices_s) > 100
    assert makespan_ms <= whole.runtime.scheduler.now + 1e-6


def test_closed_loop_slices_cover_every_submit():
    spec = smoke(WORKLOADS["paper_phases"])
    session = open_session(spec, 11)
    session.run()
    assert len(session.verdicts()) == spec.offered
    assert len(session.stopwatch.slices_s) == spec.offered // SUBMITS_PER_SLICE


def test_closed_loop_seed_deals_the_order_of_one_fixed_set_of_texts():
    spec = smoke(WORKLOADS["paper_phases"])

    def texts(seed):
        session = open_session(spec, seed)
        session.run()
        return [v.sql for v in session.verdicts()[: spec.offered // 12]]

    assert texts(11) == texts(11)
    assert texts(11) != texts(12)
    assert sorted(texts(11)) == sorted(texts(12))
