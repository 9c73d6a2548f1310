"""Unit tests for the counting metric decorator."""

import numpy as np
import pytest

from repro.metrics.cached import CountingMetric
from repro.metrics.vector import EuclideanMetric


class TestCountingMetric:
    def test_counts_calls(self):
        metric = CountingMetric(EuclideanMetric())
        metric.distance([0, 0], [1, 1])
        metric.distance([0, 0], [2, 2])
        assert metric.calls == 2

    def test_reset(self):
        metric = CountingMetric(EuclideanMetric())
        metric.distance([0], [1])
        metric.reset()
        assert metric.calls == 0

    def test_delegates_value(self):
        inner = EuclideanMetric()
        metric = CountingMetric(inner)
        assert metric.distance([0, 0], [3, 4]) == pytest.approx(inner.distance([0, 0], [3, 4]))

    def test_name_mentions_inner(self):
        assert "euclidean" in CountingMetric(EuclideanMetric()).name

    def test_pairwise_min_charged_like_pairwise(self):
        import numpy as np

        metric = CountingMetric(EuclideanMetric())
        X = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 0.0]])
        Y = np.array([[0.5, 0.0], [2.0, 2.0]])
        result = metric.pairwise_min(X, Y)
        assert metric.calls == 6
        assert np.array_equal(result, EuclideanMetric().pairwise(X, Y).min(axis=1))

    def test_charge_adds_nominal_calls(self):
        metric = CountingMetric(EuclideanMetric())
        metric.charge(41)
        assert metric.calls == 41
