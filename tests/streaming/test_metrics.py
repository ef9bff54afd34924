"""Unit tests for streaming batch metrics."""

import dataclasses
import inspect

import pytest

from repro.streaming.metrics import BatchInfo, StreamingMetrics


def info(idx=0, bt=10.0, interval=5.0, start=None, end=None, records=100,
         arrival=None, first=False, executors=4):
    start = bt if start is None else start
    end = start + 3.0 if end is None else end
    arrival = bt - interval / 2 if arrival is None else arrival
    return BatchInfo(
        batch_index=idx,
        batch_time=bt,
        interval=interval,
        records=records,
        num_executors=executors,
        mean_arrival_time=arrival,
        processing_start=start,
        processing_end=end,
        first_after_reconfig=first,
    )


class TestBatchInfo:
    def test_derived_metrics(self):
        b = info(bt=10.0, interval=5.0, start=12.0, end=16.0, arrival=7.5)
        assert b.processing_time == pytest.approx(4.0)
        assert b.scheduling_delay == pytest.approx(2.0)
        assert b.end_to_end_delay == pytest.approx(8.5)

    def test_stability_definition(self):
        assert info(interval=5.0, start=10.0, end=14.0).stable
        assert not info(interval=3.0, start=10.0, end=14.0).stable

    def test_processing_before_batch_close_rejected(self):
        with pytest.raises(ValueError):
            info(bt=10.0, start=9.0)

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            info(start=10.0, end=9.0)

    def test_init_takes_every_field_in_order(self):
        # BatchInfo writes its own __init__; a field missing from it would
        # leave instances without that attribute.
        params = list(inspect.signature(BatchInfo.__init__).parameters)
        assert params[1:] == [f.name for f in dataclasses.fields(BatchInfo)]
        defaults = {
            name: p.default
            for name, p in inspect.signature(BatchInfo.__init__).parameters.items()
            if p.default is not inspect.Parameter.empty
        }
        assert defaults == {
            f.name: f.default
            for f in dataclasses.fields(BatchInfo)
            if f.default is not dataclasses.MISSING
        }

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            info().records = 5

    def test_to_dict_round_trips_keys(self):
        d = info().to_dict()
        for key in ("batchInterval", "schedulingDelay", "processingTime",
                    "endToEndDelay", "numRecords"):
            assert key in d


class TestStreamingMetrics:
    def test_record_and_aggregate(self):
        m = StreamingMetrics()
        m.record(info(idx=0, end=13.0))
        m.record(info(idx=1, bt=15.0, start=15.0, end=20.0))
        assert len(m) == 2
        assert m.mean_processing_time() == pytest.approx((3.0 + 5.0) / 2)
        assert m.total_records() == 200

    def test_indices_must_increase(self):
        m = StreamingMetrics()
        m.record(info(idx=5))
        with pytest.raises(ValueError):
            m.record(info(idx=5))

    def test_recent_window(self):
        m = StreamingMetrics()
        for i in range(10):
            m.record(info(idx=i, bt=float(10 + i * 5), start=float(10 + i * 5)))
        assert len(m.recent(3)) == 3
        assert m.recent(3)[-1].batch_index == 9
        assert m.recent(0) == []

    def test_unstable_fraction(self):
        m = StreamingMetrics()
        m.record(info(idx=0, interval=5.0, end=None))          # proc 3 stable
        m.record(info(idx=1, bt=20.0, interval=2.0, start=20.0, end=25.0))
        assert m.unstable_fraction() == pytest.approx(0.5)

    def test_empty_aggregates_raise(self):
        with pytest.raises(ValueError):
            StreamingMetrics().mean_processing_time()


class TestPercentiles:
    def test_percentile_interpolates(self):
        from repro.streaming.metrics import percentile

        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 5.0
        assert percentile(values, 0.5) == 3.0
        assert percentile(values, 0.25) == pytest.approx(2.0)
        assert percentile([7.0], 0.95) == 7.0

    def test_percentile_validates(self):
        from repro.streaming.metrics import percentile

        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_percentiles_triple(self):
        from repro.streaming.metrics import percentiles

        values = list(range(101))
        p50, p95, p99 = percentiles(values)
        assert p50 == pytest.approx(50.0)
        assert p95 == pytest.approx(95.0)
        assert p99 == pytest.approx(99.0)

    def test_streaming_metrics_percentile_methods(self):
        m = StreamingMetrics()
        for i in range(20):
            m.record(info(idx=i, bt=float(10 + i * 5), start=float(10 + i * 5),
                          end=float(10 + i * 5) + 1.0 + i * 0.1))
        p50, p95, p99 = m.delay_percentiles()
        assert p50 <= p95 <= p99
        assert m.processing_time_percentile(0.5) == pytest.approx(
            1.0 + 19 * 0.1 / 2, abs=0.2
        )
        assert m.end_to_end_delay_percentile(0.99) == pytest.approx(p99)


class TestSortedViewCache:
    """Regression: the lazily-synced sorted views must return exactly
    what a from-scratch sort of the full history returns, at every
    point of an interleaved record/query stream."""

    def test_percentile_sorted_matches_percentile(self):
        from repro.streaming.metrics import percentile, percentile_sorted

        values = [5.0, 1.0, 4.0, 2.0, 3.0, 2.5]
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert percentile_sorted(sorted(values), q) == percentile(values, q)
        with pytest.raises(ValueError):
            percentile_sorted([], 0.5)
        with pytest.raises(ValueError):
            percentile_sorted([1.0], 2.0)

    def test_interleaved_records_and_queries_stay_exact(self):
        from repro.streaming.metrics import percentile

        m = StreamingMetrics()
        # Deterministic, deliberately non-monotone delay pattern.
        for i in range(60):
            proc = 1.0 + ((i * 7) % 13) * 0.37
            m.record(info(idx=i, bt=float(10 + i * 5), start=float(10 + i * 5),
                          end=float(10 + i * 5) + proc))
            if i % 4 == 0:  # query mid-stream so the cache syncs often
                for q in (0.5, 0.95, 0.99):
                    assert m.processing_time_percentile(q) == percentile(
                        [b.processing_time for b in m.batches], q
                    )
                    assert m.end_to_end_delay_percentile(q) == percentile(
                        [b.end_to_end_delay for b in m.batches], q
                    )

    def test_delay_percentiles_use_the_cache(self):
        from repro.streaming.metrics import percentiles

        m = StreamingMetrics()
        for i in range(30):
            m.record(info(idx=i, bt=float(10 + i * 5), start=float(10 + i * 5),
                          end=float(10 + i * 5) + 1.0 + (i % 7) * 0.5))
        m.delay_percentiles()  # warm the view
        m.record(info(idx=30, bt=170.0, start=170.0, end=180.0))
        assert m.delay_percentiles() == percentiles(
            [b.end_to_end_delay for b in m.batches]
        )

    def test_truncated_history_rebuilds_view(self):
        m = StreamingMetrics()
        for i in range(10):
            m.record(info(idx=i, bt=float(10 + i * 5), start=float(10 + i * 5),
                          end=float(10 + i * 5) + 1.0 + i))
        m.delay_percentiles()  # cache sees 10 batches
        m.batches = m.batches[:3]  # external truncation
        p50 = m.end_to_end_delay_percentile(0.5)
        from repro.streaming.metrics import percentile

        assert p50 == percentile([b.end_to_end_delay for b in m.batches], 0.5)


class TestSortedViewReplacement:
    """Regression: equal-or-longer external replacement of ``batches``
    used to merge stale sorted entries into the percentile views."""

    def _fill(self, m, n, base_delay=1.0):
        for i in range(n):
            bt = float(10 + i * 5)
            m.record(info(idx=i, bt=bt, start=bt,
                          end=bt + base_delay + i * 0.5))

    def test_equal_length_rebind_rebuilds_view(self):
        from repro.streaming.metrics import percentile

        m = StreamingMetrics()
        self._fill(m, 6, base_delay=1.0)
        m.processing_time_percentile(0.5)  # warm the cache
        replacement = StreamingMetrics()
        self._fill(replacement, 6, base_delay=40.0)
        m.batches = replacement.batches  # same length, new identity
        expect = percentile([b.processing_time for b in m.batches], 0.5)
        assert m.processing_time_percentile(0.5) == expect

    def test_truncate_and_refill_to_longer_rebuilds_view(self):
        from repro.streaming.metrics import percentile

        m = StreamingMetrics()
        self._fill(m, 5, base_delay=1.0)
        m.end_to_end_delay_percentile(0.5)  # warm the cache
        replacement = StreamingMetrics()
        # In-place slice assignment: same list object, 8 new batches
        # with fresh indices — strictly longer than the synced prefix.
        self._fill(replacement, 8, base_delay=25.0)
        m.batches[:] = [
            info(idx=100 + i, bt=b.batch_time, start=b.processing_start,
                 end=b.processing_end)
            for i, b in enumerate(replacement.batches)
        ]
        expect = percentile([b.end_to_end_delay for b in m.batches], 0.5)
        assert m.end_to_end_delay_percentile(0.5) == expect
        expect_pt = percentile([b.processing_time for b in m.batches], 0.5)
        assert m.processing_time_percentile(0.5) == expect_pt

    def test_incremental_path_still_used_for_appends(self):
        m = StreamingMetrics()
        self._fill(m, 4)
        m.processing_time_percentile(0.5)
        views_before = m._pt_sorted
        m.record(info(idx=4, bt=100.0, start=100.0, end=101.0))
        m.processing_time_percentile(0.5)
        # Same list object: appends merged in place, no rebuild.
        assert m._pt_sorted is views_before
        assert len(m._pt_sorted) == 5
