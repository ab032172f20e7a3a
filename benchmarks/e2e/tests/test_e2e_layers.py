"""Self-time arithmetic and wrapper hygiene of the layer timer."""

import pytest

import layers
from layers import ROOT, TARGETS, LayerTimer, traced


class FakeClock:
    """A clock the functions under test advance by hand, so every
    duration in these tests is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(layers, "perf_counter", fake)
    return fake


def total_self(timer):
    return sum(timer.self_s.values())


def test_nested_calls_sum_to_the_outer_span(clock):
    timer = LayerTimer()

    def leaf():
        clock.spend(2.0)

    leaf = timer.wrap("leaf", leaf)

    def middle():
        clock.spend(1.0)
        leaf()
        leaf()
        clock.spend(0.5)

    middle = timer.wrap("middle", middle)

    def region():
        clock.spend(0.25)
        middle()

    timer.wrap(ROOT, region)()

    assert timer.calls == {"leaf": 2, "middle": 1, ROOT: 1}
    assert timer.self_s == {"leaf": 4.0, "middle": 1.5, ROOT: 0.25}
    assert total_self(timer) == timer.wall_s == 5.75
    spans = {layer: (span_id, parent) for span_id, layer, _, _, parent, _ in timer.spans}
    assert spans["middle"][1] == spans[ROOT][0]
    assert spans["leaf"][1] == spans["middle"][0]


def test_recursive_calls_sum_to_the_outer_span(clock):
    timer = LayerTimer()

    def descend(depth):
        clock.spend(1.0)
        if depth:
            descend(depth - 1)

    descend = timer.wrap("descend", descend)
    timer.wrap(ROOT, descend)(3)

    assert timer.calls["descend"] == 4
    assert timer.self_s["descend"] == 4.0
    assert timer.self_s[ROOT] == 0.0
    assert total_self(timer) == timer.wall_s == 4.0


def test_raising_calls_still_close_their_spans(clock):
    timer = LayerTimer()

    def boom():
        clock.spend(3.0)
        raise KeyError("boom")

    boom = timer.wrap("boom", boom)

    def catcher():
        clock.spend(1.0)
        with pytest.raises(KeyError):
            boom()
        clock.spend(1.0)

    catcher = timer.wrap("catcher", catcher)
    timer.wrap(ROOT, catcher)()

    assert timer.self_s == {"boom": 3.0, "catcher": 2.0, ROOT: 0.0}
    assert total_self(timer) == timer.wall_s == 5.0
    assert timer._stack == []


def test_measure_hook_and_query_ordinals(clock):
    timer = LayerTimer()
    rows = timer.wrap("rows", lambda n: [0] * n, measure=len)
    submit = timer.wrap(layers.QUERY_LAYER, lambda n: rows(n))
    submit(3)
    submit(4)
    assert timer.measured == {"rows": 7.0}
    queries = [q for _, layer, _, _, _, q in timer.spans if layer == "rows"]
    assert queries == [0, 1]


def test_tracing_restores_every_original():
    originals = [vars(owner)[attr] for _, owner, attr, _ in TARGETS]
    with traced(LayerTimer()):
        for (_, owner, attr, _), original in zip(TARGETS, originals):
            assert vars(owner)[attr] is not original
            assert vars(owner)[attr].__wrapped__ is original
    for (_, owner, attr, _), original in zip(TARGETS, originals):
        assert vars(owner)[attr] is original


def test_tracing_restores_after_an_error():
    originals = [vars(owner)[attr] for _, owner, attr, _ in TARGETS]
    with pytest.raises(RuntimeError):
        with traced(LayerTimer()):
            raise RuntimeError("mid-trace failure")
    for (_, owner, attr, _), original in zip(TARGETS, originals):
        assert vars(owner)[attr] is original
