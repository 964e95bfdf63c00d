"""Hot-path observability handles keep first-use semantics.

A site on the request path resolves its metric child or time series once,
on its first event, and looks it up after that.  Nothing may exist before
that event, exactly what the per-event lookups created must exist after
it, no handle may carry state from one monitor or registry into another,
and a labelled family still refuses every misuse."""

import pytest

from repro.obs import MetricsError, MetricsRegistry, ServiceMonitor, render_openmetrics
from repro.query.ast import Condition
from repro.scenarios import demo_deployment, demo_monitor_run
from repro.service import QueryService, ServiceConfig, Tenant
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp
from tests.conftest import make_system


def children(registry):
    """``(family, sorted labels)`` of every child the registry renders."""
    out = set()
    for name, kind, labels, _ in registry.collect():
        if kind == "histogram":
            if not name.endswith("_count"):
                continue
            name = name[: -len("_count")]
        out.add((name, tuple(sorted(labels.items()))))
    return out


def series(monitor):
    """``(name, sorted labels) -> samples`` of every monitor series."""
    return {
        (s.name, tuple(sorted(s.labels.items()))): len(s)
        for s in monitor.recorder.all_series()
    }


@pytest.fixture
def deployment():
    system, node, truth = demo_deployment()
    system.set_monitor(ServiceMonitor())
    service = QueryService(system, ServiceConfig(tenants=(Tenant("gold"), Tenant("silver"))))
    return system, service, node, truth


#: What one AUTO query from tenant ``gold`` creates on the demo deployment:
#: the children and series the per-event lookups created before handles.
ONE_QUERY_CHILDREN = {
    ("pdc_batch_width", ()),
    ("pdc_batches_total", ()),
    ("pdc_plans_total", (("strategy", "SORT_HIST"),)),
    ("pdc_queries_total", (("strategy", "SORT_HIST"),)),
    ("pdc_query_bytes_read_virtual_total", ()),
    ("pdc_query_index_reads_total", ()),
    ("pdc_query_regions_cached_total", ()),
    ("pdc_query_regions_pruned_total", ()),
    ("pdc_query_regions_read_total", ()),
    ("pdc_query_sim_seconds", ()),
    ("pdc_service_admitted_total", (("tenant", "gold"),)),
    ("pdc_service_completed_total", (("tenant", "gold"),)),
    ("pdc_service_dispatched_total", (("tenant", "gold"),)),
    ("pdc_service_queue_depth", (("tenant", "gold"),)),
    ("pdc_service_queue_wait_sim_seconds", (("tenant", "gold"),)),
    ("pdc_service_requests_total", (("tenant", "gold"),)),
    ("pdc_service_service_sim_seconds", (("tenant", "gold"),)),
}
ONE_QUERY_SERIES = {
    ("pdc_server_read_bytes", (("result", "read"), ("server", "server2"))): 3,
    ("pdc_server_read_bytes", (("result", "read"), ("server", "server3"))): 3,
    ("pdc_service_outcomes", (("outcome", "admitted"), ("tenant", "gold"))): 1,
    ("pdc_service_outcomes", (("outcome", "done"), ("tenant", "gold"))): 1,
    ("pdc_service_outcomes", (("outcome", "submitted"), ("tenant", "gold"))): 1,
    ("pdc_service_queue_depth", (("tenant", "gold"),)): 1,
    ("pdc_service_queue_wait_sim_seconds", (("tenant", "gold"),)): 1,
    ("pdc_service_service_sim_seconds", (("tenant", "gold"),)): 1,
    ("pdc_window_sim_seconds", ()): 1,
    ("pdc_window_width", ()): 1,
}


class TestFirstUse:
    def test_nothing_exists_before_the_first_event(self, deployment):
        system, _, _, _ = deployment
        assert not [c for c in children(system.metrics) if "tenant" in dict(c[1])]
        assert not [c for c in children(system.metrics) if c[0].startswith(("pdc_query", "pdc_plans"))]
        assert series(system.monitor) == {}

    def test_one_query_creates_exactly_its_children_and_series(self, deployment):
        system, service, node, truth = deployment
        before = children(system.metrics)
        (ticket,) = [service.submit("gold", node, strategy=Strategy.AUTO)]
        service.drain()
        assert ticket.status == "done" and ticket.result.nhits == truth
        assert children(system.metrics) - before == ONE_QUERY_CHILDREN
        assert series(system.monitor) == ONE_QUERY_SERIES

    def test_a_second_tenant_gets_its_own_children(self, deployment):
        system, service, node, _ = deployment
        service.run("gold", [node])
        service.run("silver", [node])
        tenants = {dict(labels).get("tenant") for _, labels in children(system.metrics)}
        assert tenants == {None, "gold", "silver"}
        assert series(system.monitor)[
            ("pdc_service_outcomes", (("outcome", "done"), ("tenant", "silver")))
        ] == 1


class TestNoLeaks:
    def test_two_monitor_runs_export_the_same(self):
        def exports():
            run = demo_monitor_run()
            mon = run.monitor
            return (
                render_openmetrics(registry=run.system.metrics, recorder=mon.recorder,
                                   slo_monitor=mon.slo, t_end=run.t_end),
                mon.recorder.to_jsonl_records(),
                mon.slo.to_records(),
            )

        assert exports() == exports()

    def test_two_deployments_count_apart(self):
        node = Condition("energy", QueryOp.GT, PDCType.FLOAT, 1.0)
        values = [float(v) for v in range(64)]
        systems = [make_system(), make_system()]
        for system in systems:
            system.create_object("energy", values)
        assert systems[0].metrics is not systems[1].metrics
        service = QueryService(systems[0])
        service.run("default", [node, node])
        QueryService(systems[1]).run("default", [node])
        assert [s.metrics.total("pdc_queries_total") for s in systems] == [2.0, 1.0]


class TestMisuse:
    @pytest.fixture
    def family(self):
        return MetricsRegistry().counter("ops_total", labels=("op", "server"))

    @pytest.mark.parametrize(
        "labels",
        [{"op": "read"}, {"op": "read", "server": "s0", "extra": "x"},
         {"op": "read", "host": "s0"}, {}],
        ids=["missing", "extra", "renamed", "none"],
    )
    def test_a_wrong_label_set_is_refused(self, family, labels):
        with pytest.raises(MetricsError, match=r"needs labels \('op', 'server'\)"):
            family.labels(**labels)

    def test_handles_refuse_a_wrong_label_set_too(self, family):
        with pytest.raises(MetricsError, match="needs labels"):
            family.handles()["read",]
        family.handles()["read", "s0"].inc()
        assert family.handles()["read", "s0"] is family.labels(op="read", server="s0")

    def test_inc_without_labels_is_refused(self, family):
        with pytest.raises(MetricsError, match="call .labels"):
            family.inc()
        with pytest.raises(MetricsError, match="call .labels"):
            family.inc(-1)

    def test_an_unlabelled_metric_takes_no_labels(self):
        plain = MetricsRegistry().counter("plain_total")
        for labels in ({}, {"op": "read"}):
            with pytest.raises(MetricsError, match="takes no labels"):
                plain.labels(**labels)
        with pytest.raises(MetricsError, match="cannot decrease"):
            plain.inc(-1)
