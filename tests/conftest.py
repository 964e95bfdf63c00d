"""Shared fixtures: tiny deterministic datasets and PDC deployments."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from repro.pdc import PDCConfig, PDCSystem
from repro.strategies import Strategy

# Tier-1 is fixed-seed; CI's long leg passes ``--hypothesis-profile=long``.
# ``max_examples`` x ``stateful_step_count`` is the budget of the state
# machine in ``tests/test_stateful_fuzz.py`` (every ``@given`` test sets
# its own ``max_examples``).
settings.register_profile(
    "default", max_examples=12, stateful_step_count=30, deadline=None,
    derandomize=True,
)
settings.register_profile(
    "long", max_examples=200, stateful_step_count=50, deadline=None,
    derandomize=False,
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def peak_alloc():
    """``peak_alloc(fn)`` runs ``fn`` and returns the most bytes it held
    above what was live when it started (numpy buffers included) — an
    allocation guard with no clock in it."""

    def measure(fn) -> int:
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture
def small_arrays(rng):
    """Two correlated-ish float32 arrays shaped like the VPIC variables."""
    n = 1 << 14
    return {
        "energy": rng.gamma(2.0, 0.7, n).astype(np.float32),
        "x": (rng.random(n) * 300.0).astype(np.float32),
    }


@pytest.fixture(scope="session")
def micro_suite():
    """One real run of the deterministic micro-suite, shared by the session."""
    from repro.obs.regress import run_micro_suite

    return run_micro_suite()


@pytest.fixture
def cached_micro_suite(micro_suite, monkeypatch):
    """``benchcheck`` reuses the session's micro-suite numbers instead of
    re-running the suite (determinism itself is pinned by
    ``TestMicroSuite::test_deterministic``)."""
    monkeypatch.setattr(
        "repro.obs.regress.run_micro_suite", lambda: dict(micro_suite)
    )


def metric_sample(registry, name: str, **labels) -> float:
    """One sample of the registry's exposition (``collect``), by name and
    exact label set."""
    want = {k: str(v) for k, v in labels.items()}
    return next(
        value for n, _, got, value in registry.collect()
        if n == name and got == want
    )


def zero_clocks(system) -> None:
    """Zero every simulated clock, so that what two systems charge from
    here on compares bit for bit (differences of floats would not)."""
    for clock in system.all_clocks():
        clock._now = 0.0
        clock._by_category.clear()


def make_system(
    n_servers: int = 4,
    region_size_bytes: int = 1 << 13,
    strategy: Strategy = Strategy.HISTOGRAM,
    tracer=None,
    metrics=None,
    **kwargs,
) -> PDCSystem:
    """A tiny deployment: 4 servers, 8 KiB regions, no virtual scaling.

    ``tracer``/``metrics`` go to the system (observability hooks); other
    kwargs go to :class:`PDCConfig`.
    """
    return PDCSystem(
        PDCConfig(
            n_servers=n_servers,
            region_size_bytes=region_size_bytes,
            strategy=strategy,
            **kwargs,
        ),
        tracer=tracer,
        metrics=metrics,
    )


@pytest.fixture
def system(small_arrays):
    """A deployment pre-loaded with the two small objects."""
    sysm = make_system()
    sysm.create_object("energy", small_arrays["energy"])
    sysm.create_object("x", small_arrays["x"])
    return sysm


@pytest.fixture
def indexed_system(system):
    system.build_index("energy")
    system.build_index("x")
    return system


@pytest.fixture
def replicated_system(system):
    system.build_sorted_replica("energy", ["x"])
    return system
