"""TimetableProfile: step-function bookkeeping and fit queries.

The two segment sweeps below are the reference oracle for the profile's fit
queries: a plain left-to-right (right-to-left) walk over every non-zero
segment, with no index and no bisect.  ``fit_bounds`` answers from a
blocked-run index and must agree with them on every query.
"""

from typing import Iterable, List, Optional

from hypothesis import example, given, settings, strategies as st

from repro.cp.profile import Segment, TimetableProfile


def earliest_fit_in_segments(
    segments: Iterable[Segment],
    est: int,
    lst: int,
    length: int,
    demand: int,
    capacity: int,
) -> Optional[int]:
    """Sweep ``segments`` (sorted) for the earliest conflict-free placement.

    The candidate start only ever moves right, so one pass suffices.
    """
    s = est
    for a, b, h in segments:
        if b <= s:
            continue
        if a >= s + length:
            break
        if h + demand > capacity:
            s = b
            if s > lst:
                return None
    return s if s <= lst else None


def latest_fit_in_segments(
    segments: List[Segment],
    est: int,
    lst: int,
    length: int,
    demand: int,
    capacity: int,
) -> Optional[int]:
    """Mirror of :func:`earliest_fit_in_segments`, sweeping right-to-left."""
    s = lst
    for a, b, h in reversed(segments):
        if a >= s + length:
            continue
        if b <= s:
            break
        if h + demand > capacity:
            s = a - length
            if s < est:
                return None
    return s if s >= est else None


def oracle_bounds(p, est, lst, length, demand, capacity):
    """What ``fit_bounds`` must return, from the two reference sweeps."""
    segs = p.segments()
    early = earliest_fit_in_segments(segs, est, lst, length, demand, capacity)
    if early is None:
        return None
    return early, latest_fit_in_segments(segs, est, lst, length, demand, capacity)


def test_empty_profile():
    p = TimetableProfile()
    assert p.segments() == []
    assert p.max_height() == 0
    assert p.height_at(5) == 0


def test_single_interval():
    p = TimetableProfile()
    p.add(2, 7, 3)
    assert p.segments() == [(2, 7, 3)]
    assert p.height_at(2) == 3
    assert p.height_at(6) == 3
    assert p.height_at(7) == 0
    assert p.max_height() == 3


def test_overlapping_intervals_stack():
    p = TimetableProfile()
    p.add(0, 10, 1)
    p.add(5, 15, 2)
    assert p.segments() == [(0, 5, 1), (5, 10, 3), (10, 15, 2)]
    assert p.max_height() == 3


def test_adjacent_intervals_merge_heights():
    p = TimetableProfile()
    p.add(0, 5, 2)
    p.add(5, 10, 2)
    # equal-height adjacent pieces coalesce (cancelling deltas at t=5)
    assert p.segments() == [(0, 10, 2)]
    assert p.height_at(5) == 2


def test_zero_demand_and_zero_length_ignored():
    p = TimetableProfile()
    p.add(0, 5, 0)
    p.add(3, 3, 4)
    assert p.segments() == []


def test_cancelling_deltas_cleanup():
    p = TimetableProfile()
    p.add(0, 10, 2)
    p.add(10, 20, 2)  # +2 at 10 cancels -2 at 10
    assert p.height_at(10) == 2


def test_earliest_fit_empty_profile():
    p = TimetableProfile()
    assert p.earliest_fit(est=3, lst=10, length=5, demand=1, capacity=1) == 3


def test_earliest_fit_pushes_past_full_region():
    p = TimetableProfile()
    p.add(0, 10, 1)
    assert p.earliest_fit(0, 20, 5, 1, 1) == 10
    # capacity 2: fits immediately on top
    assert p.earliest_fit(0, 20, 5, 1, 2) == 0


def test_earliest_fit_lands_in_gap():
    p = TimetableProfile()
    p.add(0, 4, 1)
    p.add(10, 14, 1)
    assert p.earliest_fit(0, 20, 5, 1, 1) == 4
    # too long for the gap [4, 10) -> pushed past the second block
    assert p.earliest_fit(0, 20, 7, 1, 1) == 14


def test_earliest_fit_none_when_window_too_tight():
    p = TimetableProfile()
    p.add(0, 10, 1)
    assert p.earliest_fit(0, 4, 5, 1, 1) is None


def test_latest_fit_mirrors_earliest():
    p = TimetableProfile()
    p.add(5, 10, 1)
    segs = p.segments()
    # window allows up to start 20; [20, 25) is free
    assert latest_fit_in_segments(segs, 0, 20, 5, 1, 1) == 20
    assert p.fit_bounds(0, 20, 5, 1, 1) == (0, 20)
    # window capped at 8 -> must end by 13; block [5,10) forces start 0
    assert latest_fit_in_segments(segs, 0, 8, 5, 1, 1) == 0
    assert p.fit_bounds(0, 8, 5, 1, 1) == (0, 0)
    # impossible window
    assert latest_fit_in_segments(segs, 3, 8, 5, 1, 1) is None
    assert p.fit_bounds(3, 8, 5, 1, 1) is None


def test_fit_zero_length_always_fits():
    p = TimetableProfile()
    p.add(0, 10, 5)
    assert p.earliest_fit(2, 8, 0, 1, 1) == 2
    assert p.fit_bounds(2, 8, 0, 1, 1) == (2, 8)


def test_fit_in_segments_start_inside_block():
    segs = [(0, 10, 1)]
    assert earliest_fit_in_segments(segs, 5, 20, 3, 1, 1) == 10
    assert latest_fit_in_segments(segs, 0, 5, 3, 1, 1) is None


def test_multi_level_fit():
    p = TimetableProfile()
    p.add(0, 10, 2)
    p.add(3, 6, 1)  # height 3 over [3, 6)
    assert p.earliest_fit(0, 20, 2, 1, 3) == 0  # fits before the bump
    assert p.earliest_fit(2, 20, 2, 1, 3) == 6  # bump at [3,6) blocks


# ------------------------------------------------- blocked-run index vs oracle
def test_fit_bounds_edge_semantics():
    p = TimetableProfile()
    p.add(0, 4, 1)
    p.add(4, 8, 2)  # over-limit pieces [0,4) and [4,8) merge into one run
    p.add(12, 14, 1)  # zero-height gap [8, 12) in between
    assert p.fit_bounds(0, 30, 4, 1, 1) == (8, 30)
    assert p.fit_bounds(0, 30, 5, 1, 1) == (14, 30)
    # demand above capacity: every loaded piece blocks, the gap does not
    assert p.fit_bounds(2, 30, 4, 5, 3) == (8, 30)
    assert p.fit_bounds(9, 10, 4, 5, 3) is None
    # est/lst exactly on breakpoints
    assert p.fit_bounds(8, 8, 4, 1, 1) == (8, 8)
    assert p.fit_bounds(4, 12, 2, 1, 1) == (8, 10)
    # a removal drops the cached index: the freed [4, 8) joins the gap
    p.remove(4, 8, 2)
    assert p.fit_bounds(0, 30, 8, 5, 3) == (4, 30)


def _grid_queries(p: TimetableProfile, capacity: int):
    """Queries with est/lst on, just before and just after every breakpoint."""
    points = {0}
    for a, b, _h in p.segments():  # every breakpoint ends some segment
        points.update((a - 1, a, a + 1, b - 1, b, b + 1))
    points = sorted(x for x in points if x >= 0)
    for est in points:
        for lst in (est, est + 3, points[-1] + 10):
            for length in (1, 3):
                for demand in (1, capacity, capacity + 2):
                    if demand > 0:
                        yield est, lst, length, demand


_MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 30), st.integers(1, 8), st.integers(1, 3)),
        st.tuples(st.just("remove"), st.integers(0, 50), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=14,
)


def _apply(p, live, op):
    """Apply one add, or remove a previously added interval."""
    kind, a, b, c = op
    if kind == "add":
        p.add(a, a + b, c)
        live.append((a, a + b, c))
    elif live:
        s, e, d = live.pop(a % len(live))
        p.remove(s, e, d)


@given(_MUTATIONS, st.integers(0, 3))
@example(  # adjacent over-limit pieces of different heights merge
    [("add", 0, 4, 1), ("add", 4, 4, 2), ("add", 12, 2, 1)], 1
)
@example(  # removing the middle piece leaves a zero-height gap; every demand
    # is above capacity 0, and the gap must still not block
    [("add", 0, 4, 1), ("add", 8, 4, 1), ("add", 4, 4, 1), ("remove", 2, 0, 0)], 0
)
@settings(max_examples=60, deadline=None)
def test_fit_bounds_matches_linear_sweep(mutations, capacity):
    """Every query on a randomly built profile equals the reference sweeps."""
    p = TimetableProfile()
    live = []
    for op in mutations:
        _apply(p, live, op)
    for est, lst, length, demand in _grid_queries(p, capacity):
        want = oracle_bounds(p, est, lst, length, demand, capacity)
        assert p.fit_bounds(est, lst, length, demand, capacity) == want
        want_early = None if want is None else want[0]
        assert p.earliest_fit(est, lst, length, demand, capacity) == want_early


@given(_MUTATIONS, st.integers(1, 3), st.lists(st.integers(0, 40), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_fit_bounds_never_sees_a_stale_index(mutations, capacity, ests):
    """Query, mutate, query again: the answer tracks a freshly built profile.

    Each query builds (and caches) the blocked-run index for its limit; the
    next add/remove must drop it, or the following query answers against
    the pre-mutation profile.
    """
    p = TimetableProfile()
    live = []
    for op in mutations:
        for est in ests:
            p.fit_bounds(est, est + 20, 3, 1, capacity)
        _apply(p, live, op)
        fresh = TimetableProfile()
        for s, e, d in live:
            fresh.add(s, e, d)
        for est in ests:
            for demand in (1, capacity + 1):
                got = p.fit_bounds(est, est + 20, 3, demand, capacity)
                assert got == fresh.fit_bounds(est, est + 20, 3, demand, capacity)
                assert got == oracle_bounds(fresh, est, est + 20, 3, demand, capacity)
