"""SPMD launcher semantics: results, error propagation, teardown."""

import pytest

from repro.errors import RuntimeAbort
from repro.simmpi import run_spmd


class TestRunSpmd:
    def test_results_in_rank_order(self):
        assert run_spmd(4, lambda comm: comm.rank**2) == [0, 1, 4, 9]

    def test_kwargs_forwarded(self):
        def main(comm, base, mult=1):
            return base + comm.rank * mult

        assert run_spmd(3, main, 100, mult=10) == [100, 110, 120]

    def test_single_rank(self):
        assert run_spmd(1, lambda comm: "solo") == ["solo"]

    def test_exception_propagates_as_abort(self):
        def main(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            return comm.rank

        with pytest.raises(RuntimeAbort) as exc_info:
            run_spmd(3, main)
        assert isinstance(exc_info.value.__cause__, ValueError)

    def test_failure_unblocks_waiting_peers(self):
        """A crash on one rank must not hang ranks blocked in recv."""

        def main(comm):
            if comm.rank == 0:
                raise RuntimeError("dead before sending")
            return comm.recv(source=0)  # would block forever otherwise

        with pytest.raises(RuntimeAbort):
            run_spmd(2, main, timeout=5.0)

    def test_failure_unblocks_barrier(self):
        def main(comm):
            if comm.rank == 0:
                raise RuntimeError("dead before barrier")
            comm.barrier()
            return True

        with pytest.raises(RuntimeAbort):
            run_spmd(2, main, timeout=5.0)

