"""Resource usage profiles over time (the *time-table*).

Both the cumulative propagator and the list-scheduling heuristics need the
same primitive: a step function ``height(t)`` recording how much of a
resource's capacity is consumed at each instant, plus an *earliest fit* query
("from time ``est`` on, where is the first slot of ``length`` units where an
extra ``demand`` still fits under ``capacity``?").

The profile is kept as a sorted list of breakpoints; segments between
consecutive breakpoints have constant height.  Fit queries bisect to the
piece containing the candidate start and sweep only the pieces overlapping
the placement window, against a lazily rebuilt prefix-sum ``heights`` array
(one C-speed :func:`itertools.accumulate` per mutation batch) -- the
dominant cost of list scheduling before this was rebuilding segment tuples
and sweeping every segment from time zero on every query.

The propagator's two-sided query, :meth:`TimetableProfile.fit_bounds`, goes
one step further (compare the sweep-based time-tabling of Letort, Beldiceanu
& Carlsson, CP 2012): for a given ``limit = capacity - demand`` it only ever
reacts to the pieces that block, so it answers from a *blocked-run index* --
the merged maximal runs of pieces with ``h != 0 and h > limit`` -- built
once per limit after a mutation.  A query then bisects into the runs and
steps over the few that overlap the placement window instead of every
breakpoint in it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

#: A maximal constant-height piece of the profile: (start, end, height).
Segment = Tuple[int, int, int]

#: Blocked runs for one limit: parallel (starts, ends) lists, sorted and
#: disjoint, with no two runs touching (touching runs are merged).
BlockedRuns = Tuple[List[int], List[int]]


class TimetableProfile:
    """A mutable step function built from half-open usage intervals."""

    __slots__ = ("_times", "_deltas", "_heights", "_segments_cache", "_runs")

    def __init__(self) -> None:
        self._times: List[int] = []
        self._deltas: List[int] = []
        #: Prefix sums of ``_deltas`` (``_heights[i]`` = height over
        #: ``[_times[i], _times[i+1])``); rebuilt lazily after mutations.
        self._heights: Optional[List[int]] = None
        #: Memoised segments(); rebuilt lazily after mutations.
        self._segments_cache: Optional[List[Segment]] = None
        #: Blocked-run index per ``capacity - demand`` limit (see
        #: :meth:`_blocked_runs`); dropped on every mutation.
        self._runs: Optional[Dict[int, BlockedRuns]] = None

    def add(self, start: int, end: int, demand: int) -> None:
        """Consume ``demand`` units over ``[start, end)``.

        The prefix-sum ``_heights`` array, when already materialised, is
        patched in place: only the pieces overlapping ``[start, end)`` are
        touched, so interleaved fit/add sequences (list scheduling places
        one task, then queries again) stay far from the O(n) full rebuild.
        """
        if end <= start or demand == 0:
            return
        self._segments_cache = None
        self._runs = None
        times = self._times
        deltas = self._deltas
        h = self._heights
        i = bisect_left(times, start)
        start_merged_left = False
        if i < len(times) and times[i] == start:
            d = deltas[i] + demand
            if d:
                deltas[i] = d
            else:
                del times[i]
                del deltas[i]
                if h is not None:
                    del h[i]
                i -= 1  # the piece merged into its left neighbour
                start_merged_left = True
            lo = i + 1 if start_merged_left else i
        else:
            times.insert(i, start)
            deltas.insert(i, demand)
            if h is not None:
                # Pre-update height of the piece being split.
                h.insert(i, h[i - 1] if i > 0 else 0)
            lo = i
        j = bisect_left(times, end, i + 1 if i >= 0 else 0)
        if j < len(times) and times[j] == end:
            d = deltas[j] - demand
            if d:
                deltas[j] = d
            else:
                del times[j]
                del deltas[j]
                if h is not None:
                    del h[j]
        else:
            times.insert(j, end)
            deltas.insert(j, -demand)
            if h is not None:
                if start_merged_left and j == i + 1:
                    # ``end`` splits the piece whose left breakpoint just
                    # cancel-merged away: its pre-update height is the left
                    # neighbour's height minus the cancelled delta.
                    split_h = (h[i] if i >= 0 else 0) - demand
                else:
                    split_h = h[j - 1] if j > 0 else 0
                h.insert(j, split_h)
        if h is not None:
            for k in range(lo, j):
                h[k] += demand

    def remove(self, start: int, end: int, demand: int) -> None:
        """Release ``demand`` units over ``[start, end)`` (inverse of add)."""
        self.add(start, end, -demand)

    # ------------------------------------------------------------- queries
    def _height_array(self) -> List[int]:
        heights = self._heights
        if heights is None:
            heights = self._heights = list(accumulate(self._deltas))
        return heights

    def segments(self) -> List[Segment]:
        """Non-zero-height maximal segments, sorted by time (cached)."""
        if self._segments_cache is not None:
            return self._segments_cache
        segs: List[Segment] = []
        height = 0
        prev: Optional[int] = None
        for t, d in zip(self._times, self._deltas):
            if prev is not None and height != 0 and t > prev:
                segs.append((prev, t, height))
            height += d
            prev = t
        self._segments_cache = segs
        return segs

    def height_at(self, t: int) -> int:
        """Profile height at instant ``t``."""
        i = bisect_right(self._times, t) - 1
        if i < 0:
            return 0
        return self._height_array()[i]

    def max_height(self) -> int:
        """Peak height of the profile over all time."""
        heights = self._height_array()
        if not heights:
            return 0
        best = max(heights)
        return best if best > 0 else 0

    def earliest_fit(
        self,
        est: int,
        lst: int,
        length: int,
        demand: int,
        capacity: int,
    ) -> Optional[int]:
        """First start ``s`` in ``[est, lst]`` where the task fits, else None.

        A zero-length or zero-demand task always fits at ``est``.
        """
        if length == 0 or demand == 0:
            return est
        times = self._times
        n = len(times)
        s = est
        if n:
            heights = self._height_array()
            limit = capacity - demand
            # Piece i covers [times[i], times[i+1]); start at the piece
            # containing s (earlier pieces end at or before s).
            i = bisect_right(times, s) - 1
            if i < 0:
                i = 0
            last = n - 1  # the open piece [times[-1], inf) has height 0
            while i < last:
                if times[i] >= s + length:
                    break
                h = heights[i]
                if h != 0 and h > limit:
                    b = times[i + 1]
                    if b > s:
                        s = b
                        if s > lst:
                            return None
                i += 1
        return s if s <= lst else None

    def _blocked_runs(self, limit: int) -> BlockedRuns:
        """Merged maximal runs of pieces with ``h != 0 and h > limit``.

        A zero-height piece never blocks, even when ``limit < 0`` (demand
        above capacity): only load already in the profile can push a task
        away.  Built from the prefix heights on the first query per limit
        after a mutation (:meth:`fit_bounds` checks ``_runs`` first);
        :meth:`add` drops every cached limit.
        """
        runs = self._runs
        if runs is None:
            runs = self._runs = {}
        starts: List[int] = []
        ends: List[int] = []
        blocking = False
        # Piece i starts at times[i] with height heights[i].  The last piece
        # [times[-1], inf) has height 0 (every add pairs +d with -d), so it
        # never blocks and closes any open run.
        for t, h in zip(self._times, self._height_array()):
            if h != 0 and h > limit:
                if not blocking:
                    starts.append(t)
                    blocking = True
            elif blocking:
                ends.append(t)
                blocking = False
        runs[limit] = (starts, ends)
        return starts, ends

    def fit_bounds(
        self,
        est: int,
        lst: int,
        length: int,
        demand: int,
        capacity: int,
    ) -> Optional[Tuple[int, int]]:
        """``(earliest_fit, latest_fit)`` of a task in ``[est, lst]``, or None.

        The earliest fit is the first start ``s >= est`` whose window
        ``[s, s + length)`` meets no blocked run; the latest fit mirrors it
        from ``lst`` leftwards.  Returns None when no placement fits (both
        sweeps fail together: a feasible placement exists iff either sweep
        finds one).  A zero-length or zero-demand task fits anywhere.
        """
        if length == 0 or demand == 0 or not self._times:
            return est, lst
        limit = capacity - demand
        runs = self._runs
        index = runs.get(limit) if runs is not None else None
        starts, ends = index if index is not None else self._blocked_runs(limit)
        # Earliest: jump past every run overlapping the window; runs never
        # touch, so after a jump only the next run can overlap.
        s = est
        j = bisect_right(ends, s)
        k = len(ends)
        while j < k and starts[j] < s + length:
            s = ends[j]
            if s > lst:
                return None
            j += 1
        if s > lst:
            return None
        early = s
        # Latest: the mirror, from the last run starting inside the window.
        s = lst
        j = bisect_left(starts, s + length) - 1
        while j >= 0 and ends[j] > s:
            s = starts[j] - length
            if s < est:
                # Unreachable when the earliest sweep succeeded (a
                # feasible placement bounds the latest sweep from
                # below); surface the inverted window to the caller
                # rather than masking it as "no placement".
                return early, s
            j -= 1
        return early, s

    def place_earliest(
        self,
        est: int,
        lst: int,
        length: int,
        demand: int,
        capacity: int,
    ) -> Optional[int]:
        """:meth:`earliest_fit` + :meth:`add` in one call (list-scheduler hot
        path); returns the chosen start, or None (profile untouched)."""
        s = self.earliest_fit(est, lst, length, demand, capacity)
        if s is not None:
            self.add(s, s + length, demand)
        return s
