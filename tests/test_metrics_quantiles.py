"""The obs Histogram: order statistics (``percentile`` / ``quantiles``)
and the rendered sample (``read``)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import Histogram


def _histogram(values):
    histogram = Histogram()
    for value in values:
        histogram.observe(value)
    return histogram


class TestPercentile:
    def test_empty_returns_none(self):
        assert Histogram().percentile(50) is None
        assert Histogram().quantiles() == {"p50": None, "p95": None, "p99": None}

    def test_single_value(self):
        histogram = _histogram([7])
        for q in (0, 50, 99, 100):
            assert histogram.percentile(q) == 7.0

    def test_nearest_rank_on_uniform_1_to_100(self):
        histogram = _histogram(range(1, 101))
        assert histogram.percentile(50) == 50.0
        assert histogram.percentile(95) == 95.0
        assert histogram.percentile(99) == 99.0
        assert histogram.percentile(100) == 100.0
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(0.5) == 1.0

    def test_weighted_counts(self):
        histogram = Histogram()
        histogram.observe(1, count=97)
        histogram.observe(50, count=2)
        histogram.observe(1000, count=1)
        assert histogram.percentile(50) == 1.0
        assert histogram.percentile(98) == 50.0
        assert histogram.percentile(99.5) == 1000.0
        assert histogram.total() == 100

    def test_insertion_order_does_not_matter(self):
        assert _histogram([9, 1, 5]).percentile(50) == 5.0
        assert _histogram([1, 5, 9]).percentile(50) == 5.0

    def test_float_keys(self):
        histogram = _histogram([0.5, 1.5, 2.5])
        assert histogram.percentile(50) == 1.5

    def test_callable_backed_histogram(self):
        histogram = Histogram(lambda: {1: 3, 2: 1})
        assert histogram.total() == 4
        assert histogram.percentile(75) == 1.0
        assert histogram.percentile(76) == 2.0

    def test_out_of_range_q(self):
        histogram = _histogram([1])
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            histogram.percentile(-1)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            histogram.percentile(101)

    def test_non_numeric_keys_raise(self):
        with pytest.raises(TypeError, match="numeric"):
            _histogram(["electing", "done"]).percentile(50)
        # bool is an int subclass but a state census, not a magnitude.
        with pytest.raises(TypeError, match="numeric"):
            _histogram([True, False]).percentile(50)


class TestQuantiles:
    def test_default_slo_set(self):
        histogram = _histogram(range(1, 101))
        assert histogram.quantiles() == {"p50": 50.0, "p95": 95.0, "p99": 99.0}

    def test_custom_set_formats_keys(self):
        histogram = _histogram(range(1, 101))
        assert histogram.quantiles((25.0, 99.9)) == {"p25": 25.0, "p99.9": 100.0}


def _rendered(counts):
    """What ``read`` returned before it kept key names: every key
    rendered at every read, sorted by its name."""
    return {str(k): c for k, c in sorted(counts.items(), key=lambda kv: str(kv[0]))}


_KEYS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.text(max_size=4),
    st.floats(allow_nan=False),
    st.booleans(),
    st.sampled_from((0.0, -0.0, 1, 1.0, True, "1", "True", "1.0")),
)


class TestRead:
    @given(st.lists(st.dictionaries(_KEYS, st.integers(0, 9), max_size=12), max_size=6))
    def test_equals_the_rendering_of_every_sample(self, samples):
        pending = list(samples)
        histogram = Histogram(lambda: pending.pop(0))
        for counts in samples:
            read = histogram.read()
            assert read == _rendered(counts)
            assert list(read) == list(_rendered(counts))

    def test_equal_keys_that_print_differently(self):
        # ``True == 1 == 1.0`` and ``0.0 == -0.0``: one dict slot each,
        # but each sample prints the key it holds.
        samples = [{1: 2}, {True: 3}, {1.0: 4}, {1: 5}, {0.0: 1}, {-0.0: 1}]
        pending = list(samples)
        histogram = Histogram(lambda: pending.pop(0))
        assert [histogram.read() for _ in samples] == [
            {"1": 2}, {"True": 3}, {"1.0": 4}, {"1": 5}, {"0.0": 1}, {"-0.0": 1}
        ]

    def test_names_that_collide_keep_the_old_order_and_value(self):
        counts = {10: 1, "10": 2, 9: 3, "x": 4}
        assert Histogram(lambda: counts).read() == _rendered(counts)
        assert list(Histogram(lambda: counts).read().items()) == [
            ("10", 2), ("9", 3), ("x", 4)
        ]

    def test_equal_keys_share_one_string(self):
        histogram = Histogram()
        for value in (1234, 56789, "probe", 1234):
            histogram.observe(value)
        first, second = histogram.read(), histogram.read()
        assert first == {"1234": 2, "56789": 1, "probe": 1}
        assert all(a is b for a, b in zip(first, second))
        # ... also when each sample is a fresh dict of fresh ints.
        sampled = Histogram(lambda: {int("98765"): 1, int("43210"): 2})
        first, second = sampled.read(), sampled.read()
        assert all(a is b for a, b in zip(first, second))
