"""FaultPlan unit tests: deterministic draws, counters, validation."""

from __future__ import annotations

import pytest

from repro.errors import PDCError
from repro.faults import FaultConfig, FaultPlan, ZERO_FAULTS


class TestDraws:
    def test_same_seed_same_sequence(self):
        a = FaultPlan(seed=7)
        b = FaultPlan(seed=7)
        seq_a = [a._draw("pfs_read_error", "f:0") for _ in range(32)]
        seq_b = [b._draw("pfs_read_error", "f:0") for _ in range(32)]
        assert seq_a == seq_b

    def test_different_seed_different_sequence(self):
        a = FaultPlan(seed=7)
        b = FaultPlan(seed=8)
        assert [a._draw("k", "x") for _ in range(8)] != [
            b._draw("k", "x") for _ in range(8)
        ]

    def test_sequences_independent_by_kind_and_key(self):
        plan = FaultPlan(seed=1)
        d1 = plan._draw("kind_a", "key")
        d2 = plan._draw("kind_b", "key")
        d3 = plan._draw("kind_a", "other")
        assert len({d1, d2, d3}) == 3
        # Interleaving another sequence does not perturb this one.
        replay = FaultPlan(seed=1)
        for _ in range(5):
            replay._draw("kind_b", "key")
        assert replay._draw("kind_a", "key") == d1

    def test_draws_uniformish(self):
        plan = FaultPlan(seed=42)
        draws = [plan._draw("k", "key") for _ in range(2000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        mean = sum(draws) / len(draws)
        assert 0.45 < mean < 0.55


class TestRates:
    def test_zero_rate_never_draws(self):
        plan = FaultPlan(seed=0, config=ZERO_FAULTS)
        assert not plan.pfs_read_fails("k")
        assert plan.pfs_slow_factor("k") == 1.0
        assert not plan.server_crashes(0)
        assert plan.server_slow_factor(0) == 1.0
        # Crucially: no draw counters advanced, so a zero-rate plan is
        # indistinguishable from no plan at all.
        assert plan._counters == {}
        assert plan.injected() == 0

    def test_rate_one_always_fires(self):
        plan = FaultPlan(seed=0, config=FaultConfig(server_crash_rate=1.0))
        assert all(plan.server_crashes(i) for i in range(10))
        assert plan.injected("server_crash") == 10

    def test_rate_controls_frequency(self):
        plan = FaultPlan(seed=9, config=FaultConfig(pfs_read_error_rate=0.25))
        fires = sum(plan.pfs_read_fails(f"k{i}") for i in range(2000))
        assert 0.20 < fires / 2000 < 0.30

    def test_snapshot_by_kind(self):
        plan = FaultPlan(
            seed=5,
            config=FaultConfig(pfs_read_error_rate=1.0, server_crash_rate=1.0),
        )
        plan.pfs_read_fails("a")
        plan.pfs_read_fails("b")
        plan.server_crashes(0)
        assert plan.snapshot() == {"pfs_read_error": 2, "server_crash": 1}
        assert plan.injected() == 3
        assert plan.injected("server_crash") == 1


class TestBackoff:
    def test_exponential(self):
        plan = FaultPlan(seed=0)
        assert plan.backoff_s(1) == pytest.approx(1e-3)
        assert plan.backoff_s(2) == pytest.approx(2e-3)
        assert plan.backoff_s(3) == pytest.approx(4e-3)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pfs_read_error_rate": -0.1},
            {"pfs_read_error_rate": 1.5},
            {"server_crash_rate": 2.0},
            {"max_retries": -1},
            {"pfs_slow_rate": -0.1},
            {"pfs_slow_rate": 1.5},
            {"server_slow_rate": -0.5},
            {"server_slow_rate": 2.0},
            {"query_timeout_s": 0.0},
            {"query_timeout_s": -1.0},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(PDCError):
            FaultConfig(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "field",
        ["query_timeout_s", "max_retries"],
    )
    def test_rejects_non_finite_knob(self, field, value):
        """NaN passes every ordering check and inf every lower bound: an
        infinite budget or retry count is refused, not run."""
        with pytest.raises(PDCError, match=field):
            FaultConfig(**{field: value})

    def test_defaults_are_zero_faults(self):
        assert FaultConfig() == ZERO_FAULTS
