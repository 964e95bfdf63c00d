"""One routing rule.

The routing contract under test: region ``rid`` is served by
``serving[rid % len(serving)]`` before and after every membership
change, so a recovered server takes its share back by the same rule.
"""

import numpy as np
import pytest

from repro.query.ast import Condition
from repro.query.executor import QueryEngine
from repro.types import PDCType, QueryOp
from tests.conftest import make_system


def cond(name, op, value):
    return Condition(
        object_name=name, op=QueryOp(op), pdc_type=PDCType.FLOAT, value=value
    )


@pytest.fixture
def env(rng):
    """4 servers, 16 warm regions."""
    sysm = make_system(n_servers=4, region_size_bytes=1 << 11)
    e = rng.gamma(2.0, 0.7, 1 << 13).astype(np.float32)
    sysm.create_object("energy", e)
    engine = QueryEngine(sysm)
    truth = int((e > 0.5).sum())
    assert engine.execute(cond("energy", ">", 0.5)).nhits == truth
    return sysm, engine, e, truth


def routed_ids(sysm, n_regions):
    return [sysm.server_of_region(r) for r in range(n_regions)]


class TestRouting:
    def test_region_is_served_by_serving_rid_mod_n(self, env):
        sysm, engine, _, truth = env
        assert routed_ids(sysm, 6) == [0, 1, 2, 3, 0, 1]
        sysm.fail_server(1)
        assert routed_ids(sysm, 6) == [0, 2, 3, 0, 2, 3]
        assert engine.execute(cond("energy", ">", 0.5)).nhits == truth
        sysm.recover_server(1)
        assert routed_ids(sysm, 6) == [0, 1, 2, 3, 0, 1]
        assert engine.execute(cond("energy", ">", 0.5)).nhits == truth

    def test_positions_index_the_alive_list(self, env):
        # The executor consumes positions into the (possibly gappy)
        # serving list, never raw ids.
        sysm, _, _, _ = env
        sysm.fail_server(2)
        ids = np.arange(7)
        pos = sysm.region_owner_positions(ids)
        np.testing.assert_array_equal(pos, ids % 3)
        assert [sysm.alive_servers[p].server_id for p in pos] == routed_ids(sysm, 7)

    def test_an_earlier_serving_list_keeps_its_view(self, env):
        # A caller holding the list across a failover (the executor's
        # crash-at-dispatch path) keeps a consistent view.
        sysm, _, _, _ = env
        before = sysm.alive_servers
        sysm.fail_server(3)
        assert [s.server_id for s in before] == [0, 1, 2, 3]
        assert [s.server_id for s in sysm.alive_servers] == [0, 1, 2]
