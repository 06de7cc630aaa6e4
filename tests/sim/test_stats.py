"""Unit tests for measurement primitives."""

import pytest

from repro.sim import Counter, Histogram, RateMeter, Series


class TestCounter:
    def test_accumulates(self):
        counter = Counter("packets")
        counter.add()
        counter.add(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().add(-1)

    def test_reset(self):
        counter = Counter()
        counter.add(10)
        counter.reset()
        assert counter.value == 0


class TestRateMeter:
    def test_rate_over_window(self):
        meter = RateMeter()
        meter.add(100)
        assert meter.rate(now=2.0) == 50.0

    def test_reset_starts_new_window(self):
        meter = RateMeter()
        meter.add(100)
        meter.reset(now=1.0)
        meter.add(30)
        assert meter.rate(now=2.0) == 30.0

    def test_empty_window_rate_zero(self):
        meter = RateMeter()
        assert meter.rate(now=0.0) == 0.0


class TestHistogram:
    def test_mean_and_count(self):
        hist = Histogram(bin_width=1.0)
        for value in [1.0, 2.0, 3.0]:
            hist.add(value)
        assert hist.count == 3
        assert hist.mean == pytest.approx(2.0)

    def test_percentile(self):
        hist = Histogram(bin_width=1.0)
        for value in range(100):
            hist.add(float(value))
        assert hist.percentile(50) == pytest.approx(49.0)
        assert hist.percentile(100) == pytest.approx(99.0)

    def test_percentile_bounds_enforced(self):
        with pytest.raises(ValueError):
            Histogram(bin_width=1.0).percentile(101)

    def test_invalid_bin_width(self):
        with pytest.raises(ValueError):
            Histogram(bin_width=0.0)

    def test_items_sorted(self):
        hist = Histogram(bin_width=10.0)
        hist.add(25.0)
        hist.add(5.0)
        hist.add(27.0)
        assert hist.items() == [(0.0, 1), (20.0, 2)]


class TestSeries:
    def test_record_and_window_sum(self):
        series = Series()
        series.record(0.5, 10.0)
        series.record(1.5, 20.0)
        series.record(2.5, 30.0)
        assert series.window_sum(0.0, 2.0) == 30.0
        assert series.window_sum(2.0, 3.0) == 30.0

    def test_timestamps_must_be_monotone(self):
        series = Series()
        series.record(2.0, 1.0)
        with pytest.raises(ValueError):
            series.record(1.0, 1.0)

    def test_value_at_step_interpolation(self):
        series = Series()
        series.record(1.0, 100.0)
        series.record(3.0, 200.0)
        assert series.value_at(0.5, default=-1.0) == -1.0
        assert series.value_at(1.0) == 100.0
        assert series.value_at(2.9) == 100.0
        assert series.value_at(3.0) == 200.0

    def test_bucketize_covers_range(self):
        series = Series()
        for t in range(10):
            series.record(float(t), 1.0)
        buckets = series.bucketize(0.0, 10.0, 2.0)
        assert len(buckets) == 5
        assert all(total == 2.0 for _, total in buckets)

    def test_bucketize_invalid_width(self):
        with pytest.raises(ValueError):
            Series().bucketize(0.0, 1.0, 0.0)

    def test_bucketize_edges_do_not_drift(self):
        """Edges are computed as start + i*width, not by repeated
        addition — so a width like 0.1 yields exactly the expected
        bucket count with exact final coverage."""
        series = Series()
        buckets = series.bucketize(0.0, 1.0, 0.1)
        assert len(buckets) == 10
        starts = [start for start, _ in buckets]
        assert starts == pytest.approx([i * 0.1 for i in range(10)])
        # Repeated float addition of 0.1 drifts (10 * 0.1 != 1.0 in
        # binary); multiplication keeps the last edge exact.
        assert starts[-1] == 9 * 0.1

    def test_bucketize_partial_last_bucket(self):
        series = Series()
        series.record(2.4, 5.0)
        buckets = series.bucketize(0.0, 2.5, 1.0)
        assert len(buckets) == 3
        assert buckets[-1] == (2.0, 5.0)


class TestSeriesPercentile:
    def _series(self, values):
        series = Series("s")
        for index, value in enumerate(values):
            series.record(float(index), float(value))
        return series

    def test_endpoints_and_median(self):
        series = self._series([10, 20, 30, 40, 50])
        assert series.percentile(0) == 10.0
        assert series.percentile(50) == 30.0
        assert series.percentile(100) == 50.0

    def test_linear_interpolation_between_ranks(self):
        # rank = (n-1) * q/100; for 4 samples p50 sits halfway
        # between the 2nd and 3rd order statistics.
        series = self._series([1, 2, 3, 4])
        assert series.percentile(50) == pytest.approx(2.5)
        assert series.percentile(25) == pytest.approx(1.75)

    def test_order_independent(self):
        asc = self._series([1, 2, 3, 4, 5])
        shuffled = self._series([3, 1, 5, 2, 4])
        for q in (0, 25, 50, 90, 99, 100):
            assert asc.percentile(q) == shuffled.percentile(q)

    def test_single_sample(self):
        series = self._series([7])
        assert series.percentile(0) == 7.0
        assert series.percentile(99) == 7.0

    def test_rejects_out_of_range_q(self):
        series = self._series([1])
        with pytest.raises(ValueError):
            series.percentile(-1)
        with pytest.raises(ValueError):
            series.percentile(100.1)

    def test_empty_series_raises(self):
        with pytest.raises(ValueError):
            Series("empty").percentile(50)

    def test_summary_document(self):
        series = self._series([10, 20, 30, 40])
        doc = series.summary()
        assert doc["count"] == 4
        assert doc["sum"] == 100.0
        assert doc["min"] == 10.0
        assert doc["max"] == 40.0
        assert doc["mean"] == 25.0
        assert doc["p50"] == pytest.approx(25.0)
        assert doc["p90"] == pytest.approx(37.0)
        assert set(doc) == {"count", "sum", "min", "max", "mean",
                            "p50", "p90", "p99"}

    def test_summary_custom_percentiles(self):
        doc = self._series([1, 2, 3]).summary(percentiles=(25, 75))
        assert set(doc) == {"count", "sum", "min", "max", "mean",
                            "p25", "p75"}

    def test_summary_of_empty_series(self):
        assert Series("e").summary() == {"count": 0, "sum": 0}
