"""Unit tests: token buckets, tenants, and service configuration."""

from __future__ import annotations

import pytest

from repro.errors import PDCError
from repro.service import ServiceConfig, Tenant, TokenBucket
from repro.service.admission import ADMIT, REJECT_QUEUE, REJECT_RATE


class TestTokenBucket:
    def test_starts_full_and_burst_caps_admissions(self):
        bucket = TokenBucket(rate=1.0, burst=3.0)
        assert [bucket.try_take(0.0) for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refills_at_rate_on_simulated_time(self):
        bucket = TokenBucket(rate=2.0, burst=1.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.1)  # only 0.2 tokens back
        assert bucket.try_take(0.6)      # 1.0 token after 0.5 s at 2/s

    def test_refill_never_exceeds_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        bucket.refill(100.0)
        assert bucket.tokens == 2.0

    def test_out_of_order_arrival_clamped_not_refunded(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.try_take(10.0)
        # An earlier timestamp cannot rewind the bucket's clock.
        assert not bucket.try_take(5.0)
        assert bucket.clock_s == 10.0
        assert bucket.try_take(11.0)

    def test_identical_sequence_identical_decisions(self):
        arrivals = [0.0, 0.1, 0.5, 0.8, 2.0, 2.05, 2.1]

        def run():
            bucket = TokenBucket(rate=1.0, burst=2.0)
            return [bucket.try_take(t) for t in arrivals]

        assert run() == run()

    @pytest.mark.parametrize("rate,burst", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.5)])
    def test_validation(self, rate, burst):
        with pytest.raises(PDCError):
            TokenBucket(rate=rate, burst=burst)


class TestDecisions:
    def test_reasons(self):
        assert ADMIT.admitted and ADMIT.reason == ""
        assert not REJECT_RATE.admitted and REJECT_RATE.reason == "rate_limited"
        assert not REJECT_QUEUE.admitted and REJECT_QUEUE.reason == "queue_full"


class TestTenantValidation:
    def test_defaults_are_unlimited(self):
        t = Tenant("t")
        assert t.weight == 1.0
        assert t.rate_limit_qps is None
        assert t.queue_cap is None
        assert t.queue_deadline_s is None
        assert t.default_timeout_s is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "t", "weight": 0.0},
            {"name": "t", "weight": -1.0},
            {"name": "t", "rate_limit_qps": 0.0},
            {"name": "t", "burst": 0.0},
            {"name": "t", "queue_cap": 0},
            {"name": "t", "queue_deadline_s": 0.0},
            {"name": "t", "default_timeout_s": -1.0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(PDCError):
            Tenant(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "field",
        ["weight", "rate_limit_qps", "burst", "queue_deadline_s", "default_timeout_s"],
    )
    def test_rejects_non_finite_knob(self, field, value):
        """NaN passes every ordering check and inf every lower bound; a
        limit is a finite number or None."""
        with pytest.raises(PDCError, match=field):
            Tenant("t", **{field: value})


class TestServiceConfig:
    def test_default_is_passthrough(self):
        assert ServiceConfig().is_passthrough()

    @pytest.mark.parametrize(
        "cfg",
        [
            ServiceConfig(tenants=(Tenant("a"), Tenant("b"))),
            ServiceConfig(tenants=(Tenant("a", rate_limit_qps=1.0),)),
            ServiceConfig(tenants=(Tenant("a", queue_cap=4),)),
            ServiceConfig(tenants=(Tenant("a", queue_deadline_s=1.0),)),
            ServiceConfig(tenants=(Tenant("a", default_timeout_s=1.0),)),
        ],
    )
    def test_any_knob_disables_passthrough(self, cfg):
        assert not cfg.is_passthrough()

    def test_a_lone_write_tenant_is_not_passthrough(self):
        """Its writes are ingest epochs that charge the clocks, so the
        service is no zero-cost wrapper of ``QueryScheduler.run``."""
        assert not ServiceConfig(tenants=(Tenant("w", kind="write"),)).is_passthrough()
        assert ServiceConfig(tenants=(Tenant("q", kind="query"),)).is_passthrough()

    def test_validation(self):
        with pytest.raises(PDCError):
            ServiceConfig(tenants=())
        with pytest.raises(PDCError):
            ServiceConfig(tenants=(Tenant("a"), Tenant("a")))
        with pytest.raises(PDCError):
            ServiceConfig(policy="round_robin")
        with pytest.raises(PDCError):
            ServiceConfig(batch_window=0)

    @pytest.mark.parametrize("bad", [float("nan"), 2.5, float("inf")], ids=["nan", "frac", "inf"])
    def test_batch_window_must_be_a_count(self, bad):
        """A NaN window never fills, so ``drain`` never returned; 2.5 sent
        windows of 3."""
        with pytest.raises(PDCError, match="batch_window"):
            ServiceConfig(batch_window=bad)

    @pytest.mark.parametrize("bad", [float("nan"), 2.5], ids=["nan", "frac"])
    def test_queue_cap_must_be_a_count(self, bad):
        with pytest.raises(PDCError, match="queue_cap"):
            Tenant("t", queue_cap=bad)

    def test_tenant_lookup(self):
        cfg = ServiceConfig(tenants=(Tenant("a"), Tenant("b")))
        assert cfg.tenant("b").name == "b"
        with pytest.raises(PDCError):
            cfg.tenant("nope")
