"""Edge cases of the serving latency histogram.

``ServingReport.latency`` is the summary of the registry histogram
``serve.latency_s`` (default latency bounds), and its percentiles feed
the benchmark gates, so their contract is pinned down here: an empty
histogram reports nothing, NaN samples are rejected loudly without
being recorded, and every reported figure is an observed sample or a
bucket bound no lower than the true nearest-rank sample.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import DEFAULT_LATENCY_BOUNDS
from repro.obs.metrics import Histogram


def latency_histogram(values=()):
    h = Histogram("serve.latency_s", {}, bounds=DEFAULT_LATENCY_BOUNDS)
    for v in values:
        h.observe(v)
    return h


class TestLatencyStatsEdges:
    def test_empty_sample_is_none(self):
        h = latency_histogram()
        assert h.summary() is None
        assert h.percentile(50.0) is None

    def test_nan_rejected(self):
        h = latency_histogram([0.1])
        with pytest.raises(ValueError, match="NaN"):
            h.observe(float("nan"))
        h.observe(0.2)
        stats = h.summary()
        assert stats.count == 2 and stats.max == 0.2

    def test_all_nan_rejected(self):
        h = latency_histogram()
        for _ in range(2):
            with pytest.raises(ValueError, match="NaN"):
                h.observe(float("nan"))
        assert h.summary() is None


class TestNearestRankProperty:
    @given(
        st.lists(
            st.floats(
                min_value=0.0,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_every_percentile_is_an_observed_sample(self, samples):
        """Each figure is an observed sample or a bucket bound, never
        below the true nearest-rank sample nor above the maximum."""
        stats = latency_histogram(samples).summary()
        observed = set(samples)
        ordered = sorted(samples)
        assert stats.max in observed and stats.min in observed
        for q, figure in ((50.0, stats.p50), (95.0, stats.p95), (99.0, stats.p99)):
            assert figure in observed or figure in DEFAULT_LATENCY_BOUNDS
            true = ordered[max(1, math.ceil(q / 100.0 * len(samples))) - 1]
            assert true <= figure <= stats.max
