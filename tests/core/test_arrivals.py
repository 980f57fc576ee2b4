"""Tests for arrival processes and the open-loop load generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Testbed, build_ml_inference_deployments
from repro.platforms.calibration import AzureCalibration
from repro.core.arrivals import (
    BurstyArrivals,
    DiurnalArrivals,
    LoadGenerator,
    PoissonArrivals,
    UniformArrivals,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# -- arrival processes -----------------------------------------------------------

def test_poisson_rate_approximation(rng):
    times = PoissonArrivals(rate_per_s=5.0).schedule(rng, horizon_s=1000.0)
    assert abs(len(times) / 1000.0 - 5.0) < 0.5
    assert list(times) == sorted(times)
    assert all(0 <= t < 1000.0 for t in times)


def test_poisson_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        PoissonArrivals(rate_per_s=0.0)


def test_uniform_spacing(rng):
    times = UniformArrivals(rate_per_s=2.0).schedule(rng, horizon_s=10.0)
    gaps = np.diff(times)
    assert np.allclose(gaps, 0.5)
    assert len(times) == 19


def test_diurnal_rate_modulates(rng):
    arrivals = DiurnalArrivals(base_rate_per_s=1.0, amplitude_per_s=9.0,
                               period_s=100.0)
    assert arrivals.rate_at(25.0) == pytest.approx(10.0)   # sin peak
    assert arrivals.rate_at(75.0) == pytest.approx(1.0)    # sin trough
    times = np.array(arrivals.schedule(rng, horizon_s=1000.0))
    # More arrivals near peaks than troughs over many periods.
    phase = (times % 100.0)
    peak_half = ((phase > 0) & (phase < 50)).sum()
    trough_half = (phase >= 50).sum()
    assert peak_half > 1.5 * trough_half


def test_diurnal_rate_at_stays_within_bounds():
    arrivals = DiurnalArrivals(base_rate_per_s=2.0, amplitude_per_s=6.0,
                               period_s=3600.0)
    samples = [arrivals.rate_at(t) for t in np.linspace(0.0, 7200.0, 500)]
    assert all(2.0 <= rate <= 8.0 for rate in samples)
    assert max(samples) == pytest.approx(8.0, rel=1e-3)   # sin peak
    assert min(samples) == pytest.approx(2.0, abs=1e-2)   # sin trough


def test_bursty_bursts_cluster(rng):
    """Bursts are tight clusters on top of the Poisson background."""
    quiet = BurstyArrivals(rate_per_s=0.05, burst_size=15,
                           bursts_per_hour=0.0)
    times = np.array(quiet.schedule(rng, horizon_s=3600.0))
    _, counts = np.unique(times, return_counts=True)
    assert counts.max() == 1   # no bursts scheduled, no clusters

    bursty = BurstyArrivals(rate_per_s=0.05, burst_size=15,
                            bursts_per_hour=30.0)
    times = np.array(bursty.schedule(rng, horizon_s=3600.0))
    _, counts = np.unique(times, return_counts=True)
    clusters = counts[counts >= 15]
    assert len(clusters) >= 10   # ~30 bursts expected over the hour
    # Burst arrivals dominate the sparse background traffic.
    assert clusters.sum() > 0.5 * len(times)


def test_bursty_includes_bursts(rng):
    arrivals = BurstyArrivals(rate_per_s=0.01, burst_size=20,
                              bursts_per_hour=30.0)
    times = np.array(arrivals.schedule(rng, horizon_s=3600.0))
    # Bursts create many exactly-coincident arrivals.
    _, counts = np.unique(times, return_counts=True)
    assert counts.max() >= 20


@given(rate=st.floats(0.1, 20.0), horizon=st.floats(1.0, 100.0))
@settings(max_examples=30, deadline=None)
def test_schedules_are_sorted_and_bounded(rate, horizon):
    rng = np.random.default_rng(0)
    for process in (PoissonArrivals(rate), UniformArrivals(rate)):
        times = process.schedule(rng, horizon)
        assert list(times) == sorted(times)
        assert all(0 <= t < horizon for t in times)


# -- load generator --------------------------------------------------------------------

def test_load_generator_validates_horizon():
    with pytest.raises(ValueError):
        LoadGenerator(PoissonArrivals(1.0), horizon_s=0.0)


def test_open_loop_runs_overlap():
    """Open loop means requests overlap — unlike the closed-loop runner."""
    testbed = Testbed(seed=9)
    deployment = build_ml_inference_deployments(testbed, "small")["AWS-Step"]
    generator = LoadGenerator(UniformArrivals(rate_per_s=1.0),
                              horizon_s=10.0)
    campaign = generator.run(deployment)
    assert len(campaign.runs) == 9
    # With ~2.5 s runs arriving every second, some must overlap.
    overlaps = sum(
        1 for a, b in zip(campaign.runs, campaign.runs[1:])
        if b.started_at < a.finished_at)
    assert overlaps > 0


def test_load_generator_deterministic_under_saturation():
    """Same seed, same schedule, same latencies — even with the shared
    pool saturated and runs queueing behind a tightened instance cap."""
    def campaign():
        calibration = AzureCalibration(max_instances=2)
        testbed = Testbed(seed=11, calibrations={"azure": calibration})
        deployment = build_ml_inference_deployments(
            testbed, "small")["Az-Dorch"]
        generator = LoadGenerator(PoissonArrivals(rate_per_s=1.0),
                                  horizon_s=30.0)
        return generator.run(deployment)

    first, second = campaign(), campaign()
    assert first.latencies == second.latencies
    assert [run.started_at for run in first.runs] == [
        run.started_at for run in second.runs]
    # The cap actually bit: overlapping arrivals queued behind it.
    overlaps = sum(
        1 for a, b in zip(first.runs, first.runs[1:])
        if b.started_at < a.finished_at)
    assert overlaps > 0


def test_load_generator_collects_all_latencies():
    testbed = Testbed(seed=10)
    deployment = build_ml_inference_deployments(testbed, "small")["Az-Dorch"]
    generator = LoadGenerator(PoissonArrivals(rate_per_s=0.1),
                              horizon_s=60.0)
    campaign = generator.run(deployment)
    assert all(run.latency > 0 for run in campaign.runs)
    assert [run.started_at for run in campaign.runs] == sorted(
        run.started_at for run in campaign.runs)


# -- vectorization determinism regressions ---------------------------------------

def test_poisson_vectorized_matches_scalar_loop():
    """The chunked cumsum schedule is float-for-float identical to the
    scalar ``now += rng.exponential(scale)`` loop it replaced."""
    rate, horizon = 3.0, 200.0
    vectorized = PoissonArrivals(rate).schedule(
        np.random.default_rng(42), horizon)

    reference_rng = np.random.default_rng(42)
    times = []
    now = float(reference_rng.exponential(1.0 / rate))
    while now < horizon:
        times.append(now)
        now += float(reference_rng.exponential(1.0 / rate))
    assert vectorized.tolist() == times


def test_chunk_boundaries_preserve_exact_sums():
    """Forcing tiny chunks (many boundary carries) changes nothing: the
    running sum is carried into the next chunk's first gap exactly."""
    from repro.core.arrivals import _exponential_arrivals

    rate, horizon = 2.0, 500.0
    whole = _exponential_arrivals(np.random.default_rng(5), rate, horizon)
    chunked = _exponential_arrivals(np.random.default_rng(5), rate, horizon,
                                    _chunk=16)
    assert whole.tolist() == chunked.tolist()


def test_uniform_vectorized_matches_scalar_comprehension():
    rate, horizon = 2.0, 10.0
    vectorized = UniformArrivals(rate).schedule(
        np.random.default_rng(0), horizon)
    interval = 1.0 / rate
    count = int(horizon / interval)
    reference = [interval * (index + 1) for index in range(count)
                 if interval * (index + 1) < horizon]
    assert vectorized.tolist() == reference


def test_diurnal_vectorized_thinning_matches_scalar_draws():
    """The one-shot vectorized uniform draw consumes the generator stream
    exactly as one scalar ``rng.random()`` per candidate would."""
    from repro.core.arrivals import _exponential_arrivals

    arrivals = DiurnalArrivals(base_rate_per_s=1.0, amplitude_per_s=4.0,
                               period_s=300.0)
    vectorized = arrivals.schedule(np.random.default_rng(123),
                                   horizon_s=500.0)

    reference_rng = np.random.default_rng(123)
    peak = arrivals.base_rate_per_s + arrivals.amplitude_per_s
    candidates = _exponential_arrivals(reference_rng, peak, 500.0)
    fractions = arrivals._keep_fraction(candidates)
    kept = [t for t, p in zip(candidates.tolist(), fractions.tolist())
            if reference_rng.random() < p]
    assert vectorized.tolist() == kept


def test_diurnal_schedule_stream_is_pinned():
    """Golden values: the seeded diurnal stream must never drift across
    refactors (exact float equality, not approx)."""
    arrivals = DiurnalArrivals(base_rate_per_s=1.0, amplitude_per_s=4.0,
                               period_s=300.0)
    times = arrivals.schedule(np.random.default_rng(7), horizon_s=500.0)
    assert len(times) == 1671
    assert times[:4].tolist() == [
        0.1415058511583843,
        0.3465465208173653,
        0.4602562522940156,
        1.3592629714333502,
    ]
    assert float(times[-1]) == 499.50032279795437


def test_bursty_same_seed_same_schedule():
    arrivals = BurstyArrivals(rate_per_s=0.5, burst_size=5,
                              bursts_per_hour=20.0)
    first = arrivals.schedule(np.random.default_rng(3), horizon_s=1800.0)
    second = arrivals.schedule(np.random.default_rng(3), horizon_s=1800.0)
    assert first.tolist() == second.tolist()
