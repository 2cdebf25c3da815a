"""The percentile rule and order statistics."""

import pytest

from metrics import combine_draws, describe, median, percentile, tail_percentile


@pytest.mark.parametrize("n", [0, 1, 10, 39])
def test_under_forty_samples_reports_the_median_alone(n):
    assert tail_percentile(n) is None


@pytest.mark.parametrize(("n", "p"), [(40, 75), (41, 75), (99, 89), (100, 90), (199, 94), (1000, 99), (10_000, 99)])
def test_tail_percentile_known_values(n, p):
    assert tail_percentile(n) == p


def test_tail_percentile_is_the_highest_with_ten_samples_beyond():
    for n in range(40, 5000):
        p = tail_percentile(n)
        assert n * (100 - p) >= 1000  # at least ten samples beyond p
        assert n * (100 - (p + 1)) < 1000  # fewer than ten beyond p + 1


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([5.0], 50) == 5.0
    assert percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 0)


def test_median_and_describe():
    assert median([3, 1, 2]) == 2
    assert median([1, 2, 3, 4]) == 2.5
    with pytest.raises(ValueError):
        median([])
    assert "p" not in describe([1.0] * 39).split(")")[1]
    assert "p90=" in describe([float(i) for i in range(100)])


def test_combine_draws_totals_throughputs_and_averages_the_rest():
    # 100 bytes at 50/s (2 s) and 300 bytes at 100/s (3 s): 400 bytes in 5 s.
    per_draw = [{"mb_s": 50.0, "der": 2.0}, {"mb_s": 100.0, "der": 4.0}]
    assert combine_draws(per_draw, {"mb_s": [100, 300]}) == {"mb_s": 80.0, "der": 3.0}
    assert combine_draws(per_draw, {}) == {"mb_s": 75.0, "der": 3.0}
