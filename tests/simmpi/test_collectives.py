"""Collective operations across various communicator sizes."""

import operator

import numpy as np
import pytest

from repro.simmpi import SUM, run_spmd

SIZES = [1, 2, 3, 5, 8]


@pytest.mark.parametrize("n", SIZES)
class TestBcast:
    def test_bcast_from_root(self, n):
        def main(comm):
            value = {"data": [1, 2, 3]} if comm.rank == 0 else None
            return comm.bcast(value, root=0)

        res = run_spmd(n, main)
        assert all(r == {"data": [1, 2, 3]} for r in res)

    def test_bcast_nonzero_root(self, n):
        root = n - 1

        def main(comm):
            value = comm.rank if comm.rank == root else None
            return comm.bcast(value, root=root)

        assert run_spmd(n, main) == [root] * n


@pytest.mark.parametrize("n", SIZES)
class TestScatterGather:
    def test_gather_rank_order(self, n):
        def main(comm):
            return comm.gather(comm.rank * 10, root=0)

        res = run_spmd(n, main)
        assert res[0] == [i * 10 for i in range(n)]
        assert all(r is None for r in res[1:])


@pytest.mark.parametrize("n", SIZES)
class TestReduce:
    def test_reduce_sum(self, n):
        def main(comm):
            return comm.reduce(comm.rank + 1, SUM, root=0)

        res = run_spmd(n, main)
        assert res[0] == n * (n + 1) // 2
        assert all(r is None for r in res[1:])

    def test_reduce_numpy_elementwise(self, n):
        def main(comm):
            return comm.reduce(np.full(3, comm.rank + 1), SUM, root=0)

        assert np.array_equal(run_spmd(n, main)[0], np.full(3, n * (n + 1) // 2))

    def test_reduce_prod(self, n):
        """Any pairwise callable is a reduce op."""

        def main(comm):
            return comm.reduce(2, operator.mul, root=0)

        assert run_spmd(n, main)[0] == 2**n

    def test_reduce_concat(self, n):
        """A non-commutative op shows the fold runs in rank order."""

        def main(comm):
            return comm.reduce([comm.rank], operator.add, root=0)

        assert run_spmd(n, main)[0] == list(range(n))


@pytest.mark.parametrize("n", SIZES)
class TestAlltoallBarrier:
    def test_barrier_many_times(self, n):
        def main(comm):
            for _ in range(5):
                comm.barrier()
            return True

        assert all(run_spmd(n, main))


class TestCollectiveSequencing:
    def test_interleaved_collectives_dont_cross(self):
        """Back-to-back collectives must not steal each other's messages."""

        def main(comm):
            a = comm.bcast("A" if comm.rank == 0 else None, root=0)
            b = comm.bcast("B" if comm.rank == 0 else None, root=0)
            c = comm.bcast(comm.reduce(1, SUM, root=0), root=0)
            return (a, b, c)

        res = run_spmd(4, main)
        assert res == [("A", "B", 4)] * 4

    def test_collectives_after_p2p(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("p2p", dest=1, tag=3)
            total = comm.reduce(comm.rank, SUM, root=0)
            extra = comm.recv(source=0, tag=3) if comm.rank == 1 else None
            return (total, extra)

        res = run_spmd(2, main)
        assert res == [(1, None), (None, "p2p")]
