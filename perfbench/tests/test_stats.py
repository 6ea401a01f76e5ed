"""The percentile rule: the highest percentile with >= 10 samples beyond it."""

import pytest

from perfbench import stats


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),  # p75 of 19 leaves 4 beyond
        (40, 750),  # p75 of 40 leaves exactly 10 beyond
        (99, 750),  # p90 of 99 leaves 9 beyond
        (100, 900),  # p90 of 100 leaves exactly 10 beyond
        (999, 900),
        (1000, 990),
        (9999, 990),  # p99.9 of 9,999 leaves 9 beyond
        (10000, 999),
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    assert stats.tail_per_mille(n) == expected
    if expected is not None:
        assert stats.beyond(expected, n) >= stats.MIN_BEYOND


def test_nearest_rank_percentile_is_exact():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert stats.percentile(values, 500) == 50
    assert stats.percentile(values, 900) == 90
    assert stats.beyond(900, 100) == 10
    assert stats.percentile([7.0], 990) == 7.0


def test_summarize_pins_the_tail_when_supported_and_falls_back_otherwise():
    s = stats.summarize([float(i) for i in range(1, 1001)], 990)
    assert (s["tail_label"], s["tail"], s["tail_beyond"]) == ("p99", 990.0, 10)
    s = stats.summarize([float(i) for i in range(1, 101)], 990)
    assert (s["tail_label"], s["tail"]) == ("p90", 90.0)
    s = stats.summarize([1.0, 3.0, 2.0], 900)
    assert (s["tail_label"], s["tail"], s["p50"]) == ("max", 3.0, 2.0)


def test_labels():
    assert stats.label(900) == "p90"
    assert stats.label(999) == "p99.9"
