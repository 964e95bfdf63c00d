"""The probe-scaled slot-quartile estimator against a synthetic noisy host."""

import numpy as np
import pytest

import estimator
from probe import PROBE_NOMINAL_S

EPOCHS, SLOTS, PROBES = 8, 240, 12


def noisy_run(rng):
    """E epochs of one fixed sequence on a host that is 5-15 % slower than
    nominal (drifting across the run) and runs 1.4x slow in contiguous
    episodes covering a fifth of every epoch's timeline."""
    truth = rng.lognormal(np.log(2e-3), 0.6, SLOTS)
    timeline = SLOTS + PROBES
    probe_at = np.linspace(0, timeline - 1, PROBES).astype(int)
    slot_at = np.setdiff1d(np.arange(timeline), probe_at)
    epochs = []
    for e in range(EPOCHS):
        drift = 1.05 + 0.10 * e / (EPOCHS - 1)
        slow = np.ones(timeline)
        for start in rng.integers(0, timeline, 2):  # two episodes of 10 % each
            slow[np.arange(start, start + timeline // 10) % timeline] = 1.4
        jitter = 1.0 + 0.01 * rng.standard_normal(timeline)
        factor = drift * slow * jitter
        epochs.append((PROBE_NOMINAL_S * factor[probe_at], truth * factor[slot_at]))
    return truth, epochs


def test_recovers_truth_where_raw_time_does_not():
    truth, epochs = noisy_run(np.random.default_rng(7))
    scaled = [estimator.to_reference(d, estimator.probe_level(p)) for p, d in epochs]
    estimate = estimator.slot_values(scaled).sum()
    raw = np.median([d.sum() for _, d in epochs])
    assert abs(estimate / truth.sum() - 1.0) < 0.03
    assert raw / truth.sum() - 1.0 > 0.10


def test_latency_percentiles_recover_truth():
    truth, epochs = noisy_run(np.random.default_rng(11))
    slots = estimator.slot_values(
        [estimator.to_reference(d, estimator.probe_level(p)) for p, d in epochs])
    for q in (50, 95):
        assert abs(estimator.percentile(slots, q) / np.percentile(truth, q) - 1.0) < 0.03


def test_p95_needs_two_hundred_slots():
    with pytest.raises(ValueError, match="fewer than ten"):
        estimator.percentile(np.ones(199), 95)
    assert estimator.percentile(np.ones(200), 95) == 1.0
    assert estimator.percentile(np.ones(20), 50) == 1.0  # the median has no such floor
    with pytest.raises(ValueError):
        estimator.percentile(np.ones(500), 99)


def test_throughput_counts_requests_over_busy_time():
    assert estimator.throughput(320, [0.5, 0.25, 0.25]) == 320.0
