"""Tests for the simulated parallel file system."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.obs.metrics import MetricsRegistry
from repro.storage.costmodel import CostModel, SimClock
from repro.storage.file import ParallelFileSystem, SimFile


@pytest.fixture
def pfs():
    return ParallelFileSystem(cost=CostModel(), metrics=MetricsRegistry())


@pytest.fixture
def data():
    return np.arange(1000, dtype=np.float32)


class TestSimFile:
    def test_rejects_2d(self):
        with pytest.raises(StorageError):
            SimFile("p", np.zeros((2, 2)), 1)

    def test_rejects_bad_stripe(self, data):
        with pytest.raises(StorageError):
            SimFile("p", data, 0)

    def test_rejects_bad_imbalance(self, data):
        with pytest.raises(StorageError):
            SimFile("p", data, 1, imbalance=0.5)

    def test_properties(self, data):
        f = SimFile("p", data, 4)
        assert f.n_elements == 1000
        assert f.nbytes == 4000
        assert f.itemsize == 4


class TestChunks:
    """A file is held as chunks (one per region of an index file); a
    single array is one chunk, and the whole payload is joined only when
    read."""

    def test_one_array_is_one_chunk(self, data):
        f = SimFile("p", data, 4)
        assert len(f.chunks) == 1 and f.data is data

    def test_chunks_sum_without_joining(self, pfs):
        parts = [np.arange(3, dtype=np.uint8), np.arange(5, dtype=np.uint8)]
        f = pfs.create("/idx", parts)
        assert (f.n_elements, f.nbytes, f.itemsize) == (8, 8, 1)
        assert f.chunks[1] is parts[1]
        assert f._data is None  # not joined yet
        assert pfs.read("/idx", 2, 5).tolist() == [2, 0, 1]
        assert np.array_equal(f.data, np.concatenate(parts))

    def test_create_counts_the_whole_file(self, pfs):
        pfs.create("/idx", [np.zeros(3, dtype=np.uint8), np.zeros(9, dtype=np.uint8)])
        assert pfs.bytes_written == 12

    @pytest.mark.parametrize(
        "chunks",
        [[], [np.zeros(2, np.uint8), np.zeros(2, np.int64)], [np.zeros((2, 2), np.uint8)]],
        ids=["empty", "mixed dtypes", "2-D"],
    )
    def test_bad_chunks_rejected(self, chunks):
        with pytest.raises(StorageError):
            SimFile("p", chunks, 1)


class TestNamespace:
    def test_create_and_stat(self, pfs, data):
        pfs.create("/a/b", data)
        assert pfs.exists("/a/b")
        assert pfs.stat("/a/b").n_elements == 1000

    def test_duplicate_create_rejected(self, pfs, data):
        pfs.create("/a", data)
        with pytest.raises(StorageError):
            pfs.create("/a", data)

    def test_stat_missing(self, pfs):
        with pytest.raises(StorageError):
            pfs.stat("/nope")

    def test_delete(self, pfs, data):
        pfs.create("/a", data)
        pfs.delete("/a")
        assert not pfs.exists("/a")
        with pytest.raises(StorageError):
            pfs.delete("/a")

    def test_listdir_prefix(self, pfs, data):
        pfs.create("/x/1", data)
        pfs.create("/x/2", data)
        pfs.create("/y/1", data)
        assert pfs.listdir("/x/") == ["/x/1", "/x/2"]

    def test_total_bytes(self, pfs, data):
        pfs.create("/x/1", data)
        pfs.create("/x/2", data)
        assert pfs.total_bytes("/x/") == 8000


class TestReads:
    def test_read_returns_view_not_copy(self, pfs, data):
        pfs.create("/a", data)
        view = pfs.read("/a", 10, 20)
        assert view.base is not None
        assert np.array_equal(view, data[10:20])

    def test_read_whole_file_default(self, pfs, data):
        pfs.create("/a", data)
        assert pfs.read("/a").size == 1000

    def test_out_of_bounds_extent(self, pfs, data):
        pfs.create("/a", data)
        with pytest.raises(StorageError):
            pfs.read("/a", 990, 1010)
        with pytest.raises(StorageError):
            pfs.read("/a", -1, 10)
        with pytest.raises(StorageError):
            pfs.read("/a", 20, 10)

    def test_read_charges_clock(self, pfs, data):
        pfs.create("/a", data)
        clock = SimClock()
        pfs.read("/a", clock=clock)
        assert clock.now > 0

    def test_imbalance_multiplies_time(self, pfs, data):
        pfs.create("/fast", data, imbalance=1.0)
        pfs.create("/slow", data.copy(), imbalance=2.0)
        fast, slow = SimClock(), SimClock()
        pfs.read("/fast", clock=fast)
        pfs.read("/slow", clock=slow)
        assert slow.now == pytest.approx(2.0 * fast.now)

    def test_counters(self, pfs, data):
        pfs.create("/a", data)
        pfs.read("/a", 0, 500)
        assert pfs.bytes_written == data.nbytes

    def test_write_charges_clock(self, pfs, data):
        clock = SimClock()
        pfs.create("/a", data, clock=clock)
        assert clock.now > 0
