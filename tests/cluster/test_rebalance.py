"""One routing rule and copy-then-commit migrations.

The routing contract under test: region ``rid`` is served by
``serving[rid % len(serving)]`` before and after every membership
change; queries stay exact through scale-out, scale-in, and crashes that
interrupt an in-flight migration — and a crash mid-copy neither loses nor
duplicates a region.
"""

import numpy as np
import pytest

from repro.cluster.membership import DRAINING, GONE, JOINING, LIVE
from repro.cluster.rebalance import ClusterManager, Migration
from repro.errors import PDCError
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
    """4 servers, 16 warm regions: every migration has real bytes to move."""
    sysm = make_system(n_servers=4, region_size_bytes=1 << 11)
    e = rng.gamma(2.0, 0.7, 1 << 13).astype(np.float32)
    sysm.create_object("energy", e)
    engine = QueryEngine(sysm)
    truth = int((e > 0.5).sum())
    assert engine.execute(cond("energy", ">", 0.5)).nhits == truth
    return sysm, engine, e, truth


def cached_region_keys(sysm):
    """(server_id, cache_key) for every cached region entry."""
    return [
        (s.server_id, key)
        for s in sysm.servers
        for key, _ in s.cache.entries()
    ]


def routed_ids(sysm, n_regions):
    return [sysm.server_of_region(r) for r in range(n_regions)]


class TestRouting:
    def test_region_is_served_by_serving_rid_mod_n(self, env):
        sysm, _, _, _ = env
        assert routed_ids(sysm, 6) == [0, 1, 2, 3, 0, 1]
        sysm.fail_server(1)
        assert routed_ids(sysm, 6) == [0, 2, 3, 0, 2, 3]
        ClusterManager(sysm).scale_out(1)
        assert routed_ids(sysm, 6) == [0, 2, 3, 4, 0, 2]
        sysm.recover_server(1)
        assert routed_ids(sysm, 6) == [0, 1, 2, 3, 4, 0]

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


class TestScaleOut:
    def test_answers_and_routing_survive_scale_out(self, env):
        sysm, engine, e, truth = env
        manager = ClusterManager(sysm)
        mig = manager.scale_out(2)
        assert mig.state == "committed"
        # Routing is position-identical to a static 6-server cluster.
        assert mig.target == (0, 1, 2, 3, 4, 5)
        assert routed_ids(sysm, 12) == [r % 6 for r in range(12)]
        assert sysm.n_servers == 6
        assert [s.server_id for s in sysm.alive_servers] == [0, 1, 2, 3, 4, 5]
        assert sysm.membership.state(4) == LIVE
        assert sysm.membership.state(5) == LIVE
        assert engine.execute(cond("energy", ">", 0.5)).nhits == truth

    def test_migration_moves_warm_bytes_and_charges_time(self, env):
        sysm, _, _, _ = env
        clocks_before = [s.clock.now for s in sysm.servers]
        mig = ClusterManager(sysm).scale_out(1)
        assert len(mig.moves) > 0
        assert mig.total_vbytes > 0
        assert 0.0 < mig.moved_share <= 1.0
        # Transfer time is charged under "migration" on both ends.
        charged = sum(
            s.clock.breakdown().get("migration", 0.0) for s in sysm.servers
        )
        assert charged > 0.0
        assert any(
            s.clock.now > t0 for s, t0 in zip(sysm.servers, clocks_before)
        )

    def test_commit_transfers_each_region_exactly_once(self, env):
        sysm, _, _, _ = env
        before = {key for _, key in cached_region_keys(sysm)}
        ClusterManager(sysm).scale_out(2)
        after = cached_region_keys(sysm)
        # No cached region entry was lost or duplicated by the transfer.
        assert {key for _, key in after} == before
        assert len(after) == len({key for _, key in after})
        # Every transferred entry lives where the new serving set routes it.
        for sid, key in after:
            rid = int(key.rpartition(":r")[2])
            assert sysm.server_of_region(rid) == sid

    def test_commit_clears_selection_caches(self, env):
        # Routing changed at the commit, as after a crash: the semantic
        # cache starts over.
        from repro.query.scheduler import QueryScheduler

        sysm, _, _, truth = env
        sched = QueryScheduler(sysm, max_width=1)
        sched.run([cond("energy", ">", 0.5)])
        assert len(sched.selection_cache) == 1
        mig = ClusterManager(sysm).begin_migration()
        assert len(sched.selection_cache) == 1  # planning changes nothing
        while mig.step():
            pass
        mig.commit()
        assert len(sched.selection_cache) == 0
        assert sched.run([cond("energy", ">", 0.5)])[0].nhits == truth


class TestScaleIn:
    def test_drain_then_leave_keeps_answers(self, env):
        sysm, engine, e, truth = env
        manager = ClusterManager(sysm)
        mig = manager.scale_in(1)
        assert mig.state == "committed"
        assert sysm.membership.state(3) == GONE
        assert sysm.n_servers == 3
        assert routed_ids(sysm, 6) == [0, 1, 2, 0, 1, 2]
        assert engine.execute(cond("energy", ">", 0.5)).nhits == truth
        # The retired server's caches are dropped and it gets no work.
        assert len(sysm.servers[3].cache) == 0

    def test_scale_in_refuses_to_empty_the_fleet(self, env):
        sysm, _, _, _ = env
        with pytest.raises(PDCError, match="no live server"):
            ClusterManager(sysm).scale_in(4)

    def test_explicit_drain_is_migrated_away_by_rebalance(self, env):
        sysm, engine, _, truth = env
        manager = ClusterManager(sysm)
        sysm.drain_server(2)
        assert sysm.membership.state(2) == DRAINING
        # Draining servers keep serving until a commit excludes them.
        assert 2 in [s.server_id for s in sysm.alive_servers]
        assert manager.rebalance().target == (0, 1, 3)
        assert sysm.membership.state(2) == GONE
        assert engine.execute(cond("energy", ">", 0.5)).nhits == truth


class TestCrashMidMigration:
    """Satellite regression: a crash during an in-flight migration must
    neither lose nor duplicate a region."""

    def test_crash_aborts_inflight_and_preserves_every_region(self, env):
        sysm, engine, e, truth = env
        manager = ClusterManager(sysm)
        sid = sysm.add_server()
        assert sysm.membership.state(sid) == JOINING
        mig = manager.begin_migration()
        assert mig.target == (0, 1, 2, 3, sid)
        before = cached_region_keys(sysm)
        assert mig.step()  # copy one round, then the source crashes
        sysm.fail_server(1)

        # The membership event aborted the migration: nothing applied.
        assert mig.state == "aborted"
        assert manager.in_flight is None
        assert manager.history[-1].status == "aborted"
        assert sysm.membership.state(sid) == JOINING  # never activated

        # No region duplicated, none half-moved: the cache layout is
        # exactly the pre-migration layout minus the crashed server's
        # dropped entries — copy-then-commit applied nothing.
        after = cached_region_keys(sysm)
        assert after == [(s, k) for s, k in before if s != 1]
        assert len(sysm.servers[sid].cache) == 0
        keys = [key for _, key in after]
        assert len(keys) == len(set(keys))

        # No region lost: every region still routes to exactly one
        # serving server, and the answer is exact.
        obj = sysm.get_object("energy")
        alive_ids = {s.server_id for s in sysm.alive_servers}
        owners = [sysm.server_of_region(r) for r in range(obj.n_regions)]
        assert set(owners) <= alive_ids
        assert engine.execute(cond("energy", ">", 0.5)).nhits == truth

    def test_abandoned_join_completes_on_replan(self, env):
        sysm, engine, _, truth = env
        manager = ClusterManager(sysm)
        sid = sysm.add_server()
        manager.begin_migration().step()
        sysm.fail_server(1)
        # Re-plan over the survivors: the joining server finally serves.
        replan = manager.rebalance()
        assert replan.target == (0, 2, 3, sid)
        assert replan.state == "committed"
        assert sysm.membership.state(sid) == LIVE
        assert engine.execute(cond("energy", ">", 0.5)).nhits == truth


class TestMigrationGuards:
    def test_commit_requires_all_moves_copied(self, env):
        sysm, _, _, _ = env
        manager = ClusterManager(sysm)
        sysm.add_server()
        mig = manager.begin_migration()
        assert len(mig.moves) > mig.max_concurrent_moves
        mig.step()
        with pytest.raises(PDCError, match="not copied"):
            mig.commit()

    def test_aborted_migration_is_terminal(self, env):
        sysm, _, _, _ = env
        manager = ClusterManager(sysm)
        sysm.add_server()
        mig = manager.begin_migration()
        mig.abort()
        with pytest.raises(PDCError, match="aborted"):
            mig.step()
        with pytest.raises(PDCError, match="aborted"):
            mig.commit()
        mig.abort()  # idempotent

    def test_single_inflight_migration(self, env):
        sysm, _, _, _ = env
        manager = ClusterManager(sysm)
        sysm.add_server()
        manager.begin_migration()
        with pytest.raises(PDCError, match="already in flight"):
            manager.begin_migration()

    def test_throttle_rounds(self, env):
        sysm, _, _, _ = env
        sysm.drain_server(2)
        sysm.drain_server(3)
        mig = Migration(sysm, max_concurrent_moves=2)
        assert mig.target == (0, 1)
        rounds = 0
        while mig.step():
            rounds += 1
        assert rounds == -(-len(mig.moves) // 2)  # ceil division
        with pytest.raises(PDCError):
            Migration(sysm, max_concurrent_moves=0)


    def test_refused_scaling_changes_nothing(self, env):
        # Both calls used to join / drain first and only then find the
        # migration in flight, leaving servers stuck JOINING / DRAINING.
        sysm, _, _, _ = env
        manager = ClusterManager(sysm)
        sysm.add_server()
        manager.begin_migration()
        view, n = sysm.membership.view(), len(sysm.servers)
        for call in (manager.scale_out, manager.scale_in):
            with pytest.raises(PDCError, match="already in flight"):
                call(1)
        assert sysm.membership.view() == view
        assert len(sysm.servers) == n

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, np.float64(2.0), None])
    def test_count_knobs_refused(self, env, bad):
        sysm, _, _, _ = env
        with pytest.raises(PDCError, match="integer >= 1"):
            ClusterManager(sysm, max_concurrent_moves=bad)
        with pytest.raises(PDCError, match="integer >= 1"):
            Migration(sysm, max_concurrent_moves=bad)
        manager = ClusterManager(sysm)
        for call in (manager.scale_out, manager.scale_in):
            with pytest.raises(PDCError, match="integer >= 1"):
                call(bad)
        assert sysm.membership.events == []
        assert len(sysm.servers) == 4

    def test_commit_refuses_a_plan_membership_moved_past(self, env):
        sysm, engine, _, truth = env
        sysm.add_server()
        mig = Migration(sysm)  # not managed: no crash subscription
        while mig.step():
            pass
        sysm.fail_server(1)
        with pytest.raises(PDCError, match="membership moved"):
            mig.commit()
        assert mig.state == "copying"
        assert engine.execute(cond("energy", ">", 0.5)).nhits == truth

    def test_a_migration_needs_a_serving_target(self, env):
        sysm, _, _, _ = env
        for sid in range(4):
            sysm.drain_server(sid)
        with pytest.raises(PDCError, match="no serving server"):
            Migration(sysm)

    def test_moved_share_counts_owner_changes_over_one_period(self, env):
        sysm, _, _, _ = env
        sysm.add_server()
        mig = Migration(sysm)
        # Owners repeat every lcm(4, 5) = 20 regions; of those, region r
        # keeps its owner iff r % 4 == r % 5, i.e. r in 0..3.
        assert mig.moved_share == 16 / 20
