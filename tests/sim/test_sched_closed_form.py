"""``ServerQueue`` against processor sharing's closed form, in exact
arithmetic.

n jobs that arrive together at a queue of capacity c, with demands
s₁ ≤ … ≤ sₙ, share it equally: until the smallest leaves each of the n
is served at c/n, so job 1 departs at n·s₁/c; then n − 1 share it, and
so on.  Job i departs at

    (Σ_{j<i} s_j + (n − i + 1)·s_i) / c.

The instants are computed with :class:`~fractions.Fraction` from the
very floats the queue is handed, and the queue's ``finished_ms`` must
match each to the scheduler's own ``_EPS``, relative to the instant.
Staggered arrivals piece together the same way: between two arrivals
the residents are one such batch, and whoever is left when the next job
arrives shares the queue with it, carrying its remaining demand.
"""

from fractions import Fraction

from hypothesis import given, strategies as st

from repro.sim.sched import _EPS, EventScheduler, ServerQueue

SIZES = st.lists(
    st.floats(0.001, 1_000.0, allow_subnormal=False), min_size=1, max_size=12
)
CAPACITIES = st.one_of(
    st.sampled_from((0.7, 1.0, 2.5)),
    st.floats(0.05, 20.0, allow_subnormal=False),
)


def together(sizes, capacity):
    """Exact departure instant of each job (input order) when all arrive
    at 0: the closed form above."""
    n = len(sizes)
    departs = [Fraction(0)] * n
    served = Fraction(0)
    for rank, index in enumerate(sorted(range(n), key=sizes.__getitem__)):
        size = Fraction(sizes[index])
        departs[index] = (served + (n - rank) * size) / Fraction(capacity)
        served += size
    return departs


def staggered(arrivals, sizes, capacity):
    """Exact departure instants for jobs arriving at *arrivals* (sorted):
    the closed form's batches, pieced together between arrivals."""
    n = len(sizes)
    departs = [Fraction(0)] * n
    #: resident index -> remaining dedicated service (ms)
    remaining = {}
    now = Fraction(0)
    for index in range(n + 1):
        until = Fraction(arrivals[index]) if index < n else None
        while remaining:
            # Every resident is served at 1/k of the queue until the one
            # with the least remaining leaves.
            k = len(remaining)
            least = min(remaining.values())
            finish = now + least * k
            if until is not None and finish > until:
                burned = (until - now) / k
                for job in remaining:
                    remaining[job] -= burned
                break
            for job in list(remaining):
                remaining[job] -= least
                if remaining[job] == 0:
                    departs[job] = finish
                    del remaining[job]
            now = finish
        if until is not None:
            now = until
            remaining[index] = Fraction(sizes[index]) / Fraction(capacity)
    return departs


def run_queue(arrivals, sizes, capacity):
    """Finish instants of the jobs (input order) on a ``ServerQueue``."""
    scheduler = EventScheduler()
    queue = ServerQueue("q", scheduler, capacity=capacity)
    finished = [None] * len(sizes)

    def arrive(index):
        def done(completion):
            finished[index] = completion.finished_ms

        queue.submit(sizes[index], done)

    for index, t_ms in enumerate(arrivals):
        scheduler.call_at(t_ms, arrive, index)
    scheduler.run()
    return finished


def assert_within_eps(finished, exact):
    for got, want in zip(finished, exact):
        assert abs(Fraction(got) - want) <= Fraction(_EPS) * max(1, want), (
            got,
            float(want),
        )


@given(sizes=SIZES, capacity=CAPACITIES)
def test_jobs_arriving_together_depart_at_the_closed_form(sizes, capacity):
    exact = together(sizes, capacity)
    assert_within_eps(run_queue([0.0] * len(sizes), sizes, capacity), exact)


@given(
    sizes=SIZES,
    capacity=CAPACITIES,
    gaps=st.lists(st.floats(0.0, 500.0, allow_subnormal=False), max_size=12),
)
def test_staggered_arrivals_piece_the_closed_form_together(
    sizes, capacity, gaps
):
    arrivals = [0.0]
    for gap in gaps[: len(sizes) - 1]:
        arrivals.append(arrivals[-1] + gap)
    arrivals += [arrivals[-1]] * (len(sizes) - len(arrivals))
    exact = staggered(arrivals, sizes, capacity)
    assert_within_eps(run_queue(arrivals, sizes, capacity), exact)


def test_the_two_references_agree_on_a_shared_arrival():
    sizes = [3.0, 1.0, 2.0]
    assert together(sizes, 2.5) == staggered([0.0] * 3, sizes, 2.5)
    # n·s₁/c, then (s₁ + 2·s₂)/c, then (s₁ + s₂ + s₃)/c.
    assert together(sizes, 1.0) == [6, 3, 5]
