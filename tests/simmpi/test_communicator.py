"""Point-to-point semantics of the threaded communicator."""

import threading

import numpy as np
import pytest

from repro.errors import TransportError
from repro.simmpi import ANY_SOURCE, CommWorld, run_spmd


class TestEnvironment:
    def test_rank_and_size(self):
        res = run_spmd(3, lambda comm: (comm.rank, comm.size))
        assert res == [(0, 3), (1, 3), (2, 3)]

    def test_bad_size_rejected(self):
        with pytest.raises(TransportError):
            CommWorld(0)


class TestSendRecv:
    def test_basic_roundtrip(self):
        def main(comm):
            if comm.rank == 0:
                comm.send({"a": 7}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        res = run_spmd(2, main)
        assert res[1] == {"a": 7}

    def test_messages_are_copied(self):
        payload = {"mutable": [1, 2]}

        def main(comm):
            if comm.rank == 0:
                comm.send(payload, dest=1)
                payload["mutable"].append(3)  # after send: must not leak
                return None
            return comm.recv(source=0)

        res = run_spmd(2, main)
        assert res[1] == {"mutable": [1, 2]}

    def test_numpy_payload(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(np.arange(10), dest=1)
                return None
            return comm.recv(source=0)

        res = run_spmd(2, main)
        assert np.array_equal(res[1], np.arange(10))

    def test_tag_matching(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
                return None
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return (first, second)

        res = run_spmd(2, main)
        assert res[1] == ("first", "second")

    def test_fifo_per_channel(self):
        def main(comm):
            if comm.rank == 0:
                for i in range(20):
                    comm.send(i, dest=1, tag=5)
                return None
            return [comm.recv(source=0, tag=5) for _ in range(20)]

        res = run_spmd(2, main)
        assert res[1] == list(range(20))

    def test_any_source(self):
        def main(comm):
            if comm.rank == 0:
                got = sorted(comm.recv(source=ANY_SOURCE) for _ in range(comm.size - 1))
                return got
            comm.send(comm.rank, dest=0)
            return None

        res = run_spmd(4, main)
        assert res[0] == [1, 2, 3]

    def test_bad_peer_rejected(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, dest=5)
            return None

        with pytest.raises(Exception):
            run_spmd(2, main)

    def test_reserved_tag_rejected(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, dest=1, tag=1 << 30)
            return None

        with pytest.raises(Exception):
            run_spmd(2, main)

    def test_self_send(self):
        def main(comm):
            comm.send("hi", dest=comm.rank)
            return comm.recv(source=comm.rank)

        assert run_spmd(1, main) == ["hi"]

    def test_recv_timeout(self):
        comms = CommWorld(1, timeout=0.05)
        with pytest.raises(TransportError):
            comms[0].recv(source=0)
