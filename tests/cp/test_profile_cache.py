"""Segment-cache coherence of TimetableProfile (property-based).

The cache turned warm starts ~30% faster; these tests pin that it can never
serve stale segments after a mutation.
"""

from hypothesis import given, settings, strategies as st

from repro.cp.profile import TimetableProfile


@given(
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(1, 10), st.integers(1, 3)),
        min_size=1,
        max_size=25,
    )
)
@settings(max_examples=120, deadline=None)
def test_interleaved_adds_and_queries_stay_coherent(ops):
    """Query after every add; compare against a fresh uncached rebuild."""
    cached = TimetableProfile()
    for i, (start, length, demand) in enumerate(ops):
        cached.add(start, start + length, demand)
        # a pristine profile built from scratch has no cache to go stale
        fresh = TimetableProfile()
        for s, l, d in ops[: i + 1]:
            fresh.add(s, s + l, d)
        assert cached.segments() == fresh.segments()
        # repeated query (cache hit) must equal the first
        assert cached.segments() == cached.segments()
        assert cached.max_height() == fresh.max_height()


def test_cache_hit_returns_same_object_until_mutation():
    p = TimetableProfile()
    p.add(0, 5, 1)
    first = p.segments()
    assert p.segments() is first  # memoised
    p.add(5, 9, 1)
    assert p.segments() is not first  # invalidated


_OPS = st.one_of(
    st.tuples(
        st.just("add"),
        st.integers(0, 40),
        st.integers(1, 10),
        st.integers(1, 3),
    ),
    st.tuples(
        st.just("earliest"),
        st.integers(0, 40),
        st.integers(0, 8),
        st.integers(1, 4),
    ),
    st.tuples(
        st.just("bounds"),
        st.integers(0, 40),
        st.integers(0, 8),
        st.integers(1, 4),
    ),
)


@given(st.lists(_OPS, min_size=1, max_size=30))
@settings(max_examples=120, deadline=None)
def test_add_fit_interleavings_never_serve_stale_segments(ops):
    """Interleave add() with fit queries; every answer must match a rebuild.

    The fit queries populate the prefix heights and the blocked-run index;
    the next ``add`` must patch or drop them.  A missing invalidation shows
    up as a fit answer computed against the pre-mutation profile.
    """
    capacity = 4
    cached = TimetableProfile()
    applied = []
    for op in ops:
        if op[0] == "add":
            _, start, length, demand = op
            cached.add(start, start + length, demand)
            applied.append((start, start + length, demand))
            continue
        kind, est, length, demand = op
        lst = est + 60
        fresh = TimetableProfile()
        for s, e, d in applied:
            fresh.add(s, e, d)
        if kind == "earliest":
            got = cached.earliest_fit(est, lst, length, demand, capacity)
            want = fresh.earliest_fit(est, lst, length, demand, capacity)
        else:
            got = cached.fit_bounds(est, lst, length, demand, capacity)
            want = fresh.fit_bounds(est, lst, length, demand, capacity)
        assert got == want
        assert cached.segments() == fresh.segments()
