"""Concurrency stress for the threaded communicator: message storms and
deep collective sequences."""

import numpy as np
import pytest

from repro.simmpi import ANY_SOURCE, SUM, run_spmd


class TestMessageStorms:
    def test_all_to_all_storm(self):
        """Every rank sends 50 tagged messages to every other rank; all
        must arrive exactly once, FIFO per channel."""
        n, m = 5, 50

        def main(comm):
            for dest in range(comm.size):
                if dest != comm.rank:
                    for i in range(m):
                        comm.send((comm.rank, i), dest=dest, tag=7)
            got = {}
            for _ in range((comm.size - 1) * m):
                src, i = comm.recv(source=ANY_SOURCE, tag=7)
                got.setdefault(src, []).append(i)
            return got

        results = run_spmd(n, main, timeout=60.0)
        for rank, got in enumerate(results):
            assert set(got) == set(range(n)) - {rank}
            for src, seq in got.items():
                assert seq == list(range(m))  # per-channel FIFO

    def test_large_numpy_payloads(self):
        def main(comm):
            payload = np.arange(200_000, dtype=np.float64) * comm.rank
            gathered = comm.gather(payload, root=0)
            if comm.rank == 0:
                return [g.sum() for g in gathered]
            return None

        sums = run_spmd(3, main)[0]
        base = np.arange(200_000, dtype=np.float64).sum()
        assert sums == [0.0, base, 2 * base]

    def test_deep_collective_sequences(self):
        """Hundreds of back-to-back collectives must not cross streams."""

        def main(comm):
            acc = 0
            for i in range(150):
                acc += comm.bcast(comm.reduce(i, SUM, root=0), root=0)
                if i % 10 == 0:
                    comm.barrier()
            peak = comm.bcast(comm.reduce(comm.rank, max, root=0), root=0)
            return (acc, peak)

        n = 4
        res = run_spmd(n, main, timeout=120.0)
        expected = sum(i * n for i in range(150))
        assert all(r == (expected, n - 1) for r in res)

    def test_many_ranks(self):
        def main(comm):
            return comm.bcast(comm.reduce(1, SUM, root=0), root=0)

        assert run_spmd(24, main, timeout=120.0) == [24] * 24
