import pytest

from stats import TAIL_BEYOND, median, tail


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


@pytest.mark.parametrize("n", [21, 40, 100, 1000])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    values = [float(v) for v in range(n, 0, -1)]
    t = tail(values)
    assert sum(1 for v in values if v > t.value) == TAIL_BEYOND
    assert t.beyond == TAIL_BEYOND and t.samples == n
    assert t.percentile == pytest.approx(100.0 * (n - TAIL_BEYOND) / n)


def test_tail_at_known_sizes():
    assert tail(list(range(100))).value == 89  # p90 of 100 samples
    assert tail(list(range(21))).value == 10  # p52 of 21 samples: the median
    assert tail(list(range(40))).percentile == 75.0


@pytest.mark.parametrize("n", [1, 2, 10, 20])
def test_tail_of_twenty_samples_or_fewer_is_the_maximum(n):
    t = tail([float(v) for v in range(n)])
    assert (t.value, t.percentile, t.samples, t.beyond) == (n - 1, 100.0, n, 0)


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        tail([])
    with pytest.raises(ValueError):
        median([])
