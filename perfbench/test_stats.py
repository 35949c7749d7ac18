"""Tests for the percentile helper: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import pathlib
import random
import statistics
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from stats import (  # noqa: E402
    MIN_TAIL,
    TooFewSamples,
    median,
    min_samples,
    percentile,
)


def test_min_samples_leaves_ten_beyond():
    assert min_samples(50) == 20
    assert min_samples(90) == 100
    assert min_samples(99) == 1000
    assert min_samples(10) == 100
    for q in (50, 75, 90, 95, 99):
        n = min_samples(q)
        assert n * (100 - q) / 100 >= MIN_TAIL - 1e-9
        assert (n - 1) * (100 - q) / 100 < MIN_TAIL


@pytest.mark.parametrize("q", [50, 90, 99])
def test_refuses_a_thin_tail(q):
    with pytest.raises(TooFewSamples):
        percentile([1.0] * (min_samples(q) - 1), q)
    assert percentile([1.0] * min_samples(q), q).samples == min_samples(q)


def test_reports_its_sample_count():
    assert percentile(list(range(250)), 90).samples == 250


@pytest.mark.parametrize("q", [50, 90])
def test_matches_inclusive_quantiles(q):
    rng = random.Random(7)
    data = [rng.lognormvariate(0.0, 1.0) for _ in range(400)]
    cuts = statistics.quantiles(data, n=100, method="inclusive")
    assert percentile(data, q).value == pytest.approx(cuts[q - 1])


def test_ignores_input_order():
    data = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
    assert percentile(data, 50).value == 3.0
    assert percentile(sorted(data), 90).value == percentile(data, 90).value


def test_rejects_out_of_range_percentiles():
    for q in (0, 100, -5, 120):
        with pytest.raises(ValueError):
            percentile([1.0] * 2000, q)


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(TooFewSamples):
        median([])
