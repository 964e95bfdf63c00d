"""Region bitmap indexes: exactness, candidate handling, serialization."""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bitmap import wah
from repro.bitmap.binning import assign_bins, sig_digit_edges
from repro.bitmap.index import IndexProbeTable, RegionBitmapIndex
from repro.errors import IndexError_
from repro.interval import Interval
from repro.types import QueryOp


def resolve(idx, interval, data):
    """Index answer = sure hits + verified candidates (the FastBit query
    protocol)."""
    res = idx.query(interval)
    sure = set(res.sure_positions.tolist())
    verified = {int(p) for p in res.candidate_positions if interval.contains_value(float(data[p]))}
    assert not (sure & verified)
    return sure | verified


def bin_stream(idx, k):
    """The WAH words of occupied bin ``k``: its slice of ``idx.words``."""
    stop = int(idx.bin_words[: k + 1].sum())
    return idx.words[stop - int(idx.bin_words[k]) : stop]


def probe_from_bitmaps(idx, interval):
    """``(words, bins, sure, candidates)`` of a probe, recomputed bin by
    bin from the bins' streams (sizes and popcounts) and the scalar range
    tests — the definition the per-bin tables must reproduce."""
    words = bins = sure = candidates = 0
    for k, (lo, hi) in enumerate(zip(idx.bin_min.tolist(), idx.bin_max.tolist())):
        if not interval.overlaps_range(lo, hi):
            continue
        stream = bin_stream(idx, k)
        words += int(stream.size)
        bins += 1
        if interval.contains_value(lo) and interval.contains_value(hi):
            sure += wah.count_set_bits(stream)
        else:
            candidates += wah.count_set_bits(stream)
    return words, bins, sure, candidates


def assert_probes_match_bitmaps(idx, rng, n=60):
    lo_hi = np.sort(rng.uniform(-0.5, 6.0, (n, 2)), axis=1)
    for (lo, hi), lc, hc in zip(lo_hi.tolist(), rng.random(n) < 0.5, rng.random(n) < 0.5):
        iv = Interval(lo=round(lo, 1), hi=round(hi, 1) + 0.1, lo_closed=lc, hi_closed=hc)
        for interval in (iv, Interval(lo=lo, hi=hi + 1e-9), Interval(lo=lo), Interval(hi=hi)):
            words, bins, sure, candidates = probe_from_bitmaps(idx, interval)
            probe = idx.query_cost(interval)
            assert (probe.words_touched, probe.n_bins_touched, probe.candidates) == (
                words, bins, candidates,
            ), interval
            assert probe.bytes_touched == words * 8
            assert idx.count_range(interval) == (sure, candidates), interval


@pytest.fixture
def gamma_data(rng):
    return rng.gamma(2.0, 0.7, 8000).astype(np.float32).astype(np.float64)


@pytest.fixture
def idx(gamma_data):
    return RegionBitmapIndex.build(gamma_data, precision=2)


class TestBuild:
    def test_empty_rejected(self):
        with pytest.raises(IndexError_):
            RegionBitmapIndex.build(np.array([]))

    def test_2d_rejected(self):
        with pytest.raises(IndexError_):
            RegionBitmapIndex.build(np.zeros((3, 3)))

    def test_each_element_in_exactly_one_bitmap(self, idx, gamma_data):
        from repro.bitmap import wah

        total = sum(wah.count_set_bits(bin_stream(idx, k)) for k in range(idx.n_occupied_bins))
        assert total == gamma_data.size

    def test_bin_minmax_consistent(self, idx, gamma_data):
        from repro.bitmap import wah

        for k in range(idx.n_occupied_bins):
            positions = np.flatnonzero(
                wah.decompress(bin_stream(idx, k), idx.n_elements)
            )
            members = gamma_data[positions]
            assert idx.bin_min[k] == members.min()
            assert idx.bin_max[k] == members.max()

    def test_edges_hold_only_the_region_grid(self, idx):
        """The edges own their memory: a view would pin the whole mirrored
        significant-digit grid in every region's index."""
        assert idx.edges.base is None and idx.edges.nbytes == idx.edges.size * 8

    def test_constant_data(self):
        idx = RegionBitmapIndex.build(np.full(100, 2.5))
        assert idx.n_occupied_bins == 1
        got = resolve(idx, Interval(lo=2.0, hi=3.0), np.full(100, 2.5))
        assert got == set(range(100))


def build_bin_by_bin(data, precision=2):
    """The definition ``RegionBitmapIndex.build`` must reproduce byte for
    byte: one membership mask, one ``wah.compress`` and one min/max per
    occupied bin."""
    values = np.asarray(data).astype(np.float64)
    edges = sig_digit_edges(float(values.min()), float(values.max()), precision)
    bin_idx = assign_bins(values, edges)
    occupied, bin_counts = np.unique(bin_idx, return_counts=True)
    members = [bin_idx == b for b in occupied]
    streams = [wah.compress(m)[0] for m in members]
    return RegionBitmapIndex(
        edges=edges,
        bin_ids=occupied.astype(np.int64),
        bin_min=np.array([values[m].min() for m in members]),
        bin_max=np.array([values[m].max() for m in members]),
        bin_words=np.array([w.size for w in streams], dtype=np.int64),
        bin_counts=bin_counts,
        words=np.concatenate(streams),
        n_elements=int(values.size),
    )


def assert_same_index(got, want):
    for name in ("edges", "bin_ids", "bin_min", "bin_max", "bin_words", "bin_counts", "words"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.words.dtype == np.uint64
    assert got.n_elements == want.n_elements
    assert np.array_equal(got.to_bytes(), want.to_bytes())


#: Region lengths around the 63-bit group size: one group part-filled, one
#: bit short, exactly full, one bit over, two groups, a full last group.
LENGTHS = [1, 62, 63, 64, 126, 63 * 5]


@st.composite
def region_values(draw):
    n = draw(st.sampled_from(LENGTHS + [draw(st.integers(1, 700))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["random", "sorted", "constant", "two-valued", "runs"]))
    if shape == "constant":
        values = np.full(n, rng.gamma(2.0, 0.7) + 1.0)
    elif shape == "two-valued":
        values = rng.choice([1.5, 3.5], n)
    elif shape == "runs":
        # Runs long enough for one-fills, short enough to end mid-group.
        run = int(draw(st.integers(1, 200)))
        levels = rng.integers(1, 6, n // run + 1).astype(np.float64)
        values = np.repeat(levels, run)[:n]
    else:
        values = rng.gamma(2.0, 0.7, n) * 10.0 + 1.0
        if shape == "sorted":
            values.sort()
    return values.astype(draw(st.sampled_from([np.float32, np.float64, np.int32])))


class TestBuildMatchesBinByBin:
    @given(region_values(), st.sampled_from([1, 2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_byte_for_byte(self, values, precision):
        assert_same_index(
            RegionBitmapIndex.build(values, precision=precision),
            build_bin_by_bin(values, precision),
        )

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
    def test_group_boundary_lengths(self, n, dtype, rng):
        for values in (
            rng.gamma(2.0, 0.7, n) * 10.0 + 1.0,
            np.sort(rng.gamma(2.0, 0.7, n) * 10.0 + 1.0),
            np.full(n, 4.0),
            rng.choice([1.5, 3.5], n),
        ):
            values = values.astype(dtype)
            assert_same_index(RegionBitmapIndex.build(values), build_bin_by_bin(values))

    def test_one_fill_spanning_several_groups(self):
        """A bin owning groups 1-4 whole, flanked by part-filled groups, is
        one one-fill word of length four between two literals."""
        values = np.concatenate(
            [np.full(40, 1.0), np.full(23 + 63 * 4 + 10, 2.0), np.full(100, 3.0)]
        )
        idx = RegionBitmapIndex.build(values)
        assert_same_index(idx, build_bin_by_bin(values))
        twos = bin_stream(idx, 1)
        one_fill = (np.uint64(3) << np.uint64(62)) | np.uint64(4)
        assert twos.size == 4 and twos[1] == one_fill  # literal, fill, literal, zero fill


class TestQueryExactness:
    @pytest.mark.parametrize(
        "lo,hi",
        [(2.1, 2.2), (0.5, 1.0), (3.5, 3.6), (0.0, 10.0), (5.0, 6.0)],
    )
    def test_on_grid_windows_no_candidates(self, idx, gamma_data, lo, hi):
        iv = Interval(lo=lo, hi=hi, lo_closed=False, hi_closed=False)
        res = idx.query(iv)
        assert res.candidate_positions.size == 0
        truth = np.flatnonzero(iv.mask(gamma_data))
        assert np.array_equal(np.sort(res.sure_positions), truth)

    @given(
        st.floats(min_value=0.0, max_value=8.0),
        st.floats(min_value=0.0, max_value=8.0),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_windows_resolve_exactly(self, a, b, lc, hc, seed):
        lo, hi = min(a, b), max(a, b)
        assume(lo < hi or (lc and hc))
        iv = Interval(lo=lo, hi=hi, lo_closed=lc, hi_closed=hc)
        data = (
            np.random.default_rng(seed)
            .gamma(2.0, 0.7, 2000)
            .astype(np.float32)
            .astype(np.float64)
        )
        idx = RegionBitmapIndex.build(data, precision=2)
        got = resolve(idx, iv, data)
        truth = set(np.flatnonzero(iv.mask(data)).tolist())
        assert got == truth

    def test_one_sided_conditions(self, idx, gamma_data):
        for op in QueryOp:
            iv = Interval.from_op(op, 1.5)
            got = resolve(idx, iv, gamma_data)
            truth = set(np.flatnonzero(op.apply(gamma_data, 1.5)).tolist())
            assert got == truth, op

    def test_equality_condition_uses_candidates(self, idx, gamma_data):
        v = float(gamma_data[17])
        iv = Interval(lo=v, hi=v)
        got = resolve(idx, iv, gamma_data)
        assert got == set(np.flatnonzero(gamma_data == v).tolist())

    def test_empty_result(self, idx, gamma_data):
        iv = Interval(lo=1e6, hi=2e6)
        res = idx.query(iv)
        assert res.sure_positions.size == 0 and res.candidate_positions.size == 0


    @pytest.mark.parametrize(
        "data,iv",
        [
            ([2**53 - 1, 2**53, 2**53 + 1], Interval(None, float(2**53))),
            ([-(2**53) - 1, -(2**53), -(2**53) + 1], Interval(float(-(2**53)), None)),
            ([2**53 + 1, 2**53 + 3, 2**53 + 5], Interval(None, float(2**53 + 4))),
        ],
    )
    def test_64_bit_integers_beyond_float64_classify_exactly(self, data, iv):
        """A bin's float64 range must hold its members, or a rounded
        member passes as a sure hit: the bin is partial, its members
        candidates, and every count and cost says so."""
        data = np.array(data, dtype=np.int64)
        idx = RegionBitmapIndex.build(data)
        exact = set(
            i for i, v in enumerate(data.tolist())
            if (iv.lo is None or v >= int(iv.lo)) and (iv.hi is None or v <= int(iv.hi))
        )
        res = idx.query(iv)
        sure, candidates = set(res.sure_positions.tolist()), set(res.candidate_positions.tolist())
        assert sure <= exact <= sure | candidates
        assert candidates
        assert idx.count_range(iv) == (len(sure), len(candidates))
        assert idx.query_cost(iv).candidates == len(candidates)
        _, table_candidates = IndexProbeTable.stack([idx]).footprint(iv, np.array([0]))
        assert table_candidates.tolist() == [len(candidates)]

    def test_decoded_positions_survive_a_reread(self, idx):
        """The bin-ordered positions kept at build equal those a re-read
        index decodes from its bitmaps; each bin's run holds its members."""
        reread = RegionBitmapIndex.from_bytes(idx.to_bytes())
        assert np.array_equal(reread.positions, idx.positions)
        assert np.array_equal(reread.bin_starts, idx.bin_starts)
        assert idx.positions.dtype == np.uint16
        for k in range(idx.n_occupied_bins):
            run = idx.positions[idx.bin_starts[k] : idx.bin_starts[k] + idx.bin_counts[k]]
            members = np.flatnonzero(wah.decompress(bin_stream(idx, k), idx.n_elements))
            assert np.array_equal(run, members), k


class TestCountsAndCosts:
    def test_count_range_matches_query(self, idx, gamma_data):
        iv = Interval(lo=2.1, hi=2.2, lo_closed=False, hi_closed=False)
        sure, cand = idx.count_range(iv)
        res = idx.query(iv)
        assert sure == res.sure_positions.size
        assert cand == res.candidate_positions.size

    def test_query_cost_fields(self, idx):
        iv = Interval(lo=2.1, hi=2.2, lo_closed=False, hi_closed=False)
        probe = idx.query_cost(iv)
        assert probe.bytes_touched == probe.words_touched * 8
        assert probe.header_bytes > 0
        assert probe.n_bins_touched >= 1
        assert probe.candidates == 0

    def test_query_cost_scales_with_window(self, idx):
        narrow = idx.query_cost(Interval(lo=2.1, hi=2.2))
        wide = idx.query_cost(Interval(lo=0.1, hi=5.0))
        assert wide.words_touched >= narrow.words_touched
        assert wide.n_bins_touched > narrow.n_bins_touched

    def test_probe_tables_match_bitmaps(self, idx, rng):
        """Built, and re-read from the index file (where set bits are not
        stored and must be popcounted back)."""
        assert_probes_match_bitmaps(idx, rng)
        assert_probes_match_bitmaps(RegionBitmapIndex.from_bytes(idx.to_bytes()), rng)

    def test_probe_tables_follow_a_replaced_region_index(self, indexed_system, rng):
        """A delta write leaves a region's base index in place; compaction
        replaces it — its tables must describe the new bitmaps."""
        obj = indexed_system.get_object("energy")
        rid = 1
        before = obj.indexes[rid]
        indexed_system.update_object_region(
            "energy", int(obj.offsets[rid]) + 7,
            rng.uniform(3.0, 5.0, 200).astype(np.float32), maintenance="delta",
        )
        assert obj.indexes[rid] is before and obj.index_delta_counts[rid] == 200
        assert_probes_match_bitmaps(obj.indexes[rid], rng)
        indexed_system.compact_region_index("energy", rid)
        assert obj.indexes[rid] is not before
        assert_probes_match_bitmaps(obj.indexes[rid], rng)
        assert obj.indexes[rid].count_range(Interval(lo=3.0, hi=5.0))[0] >= 200

    def test_nbytes_accounts_everything(self, idx):
        assert idx.nbytes > idx.total_words() * 8


def assert_table_matches_indexes(table, indexes, intervals):
    """Every table row prices a probe as that region's ``query_cost``."""
    rows = np.arange(len(indexes))
    assert table.header_bytes.tolist() == [ix.header_bytes for ix in indexes]
    for interval in intervals:
        words, candidates = table.footprint(interval, rows)
        probes = [ix.query_cost(interval) for ix in indexes]
        assert words.tolist() == [p.words_touched for p in probes], interval
        assert candidates.tolist() == [p.candidates for p in probes], interval


#: Open, closed, one-sided, degenerate, off-the-data and unbounded windows.
TABLE_INTERVALS = [
    Interval(lo=2.1, hi=2.2, lo_closed=False, hi_closed=False),
    Interval(lo=2.1, hi=2.2), Interval(lo=0.123, hi=4.56, hi_closed=False),
    Interval(lo=1.5), Interval(lo=1.5, lo_closed=False), Interval(hi=0.7),
    Interval(hi=0.7, hi_closed=False), Interval(lo=3.0, hi=3.0),
    Interval(lo=1e6, hi=2e6), Interval(), Interval(lo=-np.inf, hi=np.inf),
]


class TestProbeTable:
    def test_rows_match_query_cost_on_ragged_indexes(self, rng):
        """Regions with 1, few and many occupied bins share one table: the
        padding of the short rows never overlaps and never adds."""
        regions = [
            np.full(50, 2.15), rng.uniform(2.0, 2.3, 400), rng.gamma(2.0, 0.7, 3000),
            rng.uniform(-5.0, 5.0, 1000), rng.gamma(2.0, 0.7, 10),
        ]
        indexes = [RegionBitmapIndex.build(r) for r in regions]
        assert len({ix.bin_ids.size for ix in indexes}) == len(indexes)
        table = IndexProbeTable.stack(indexes)
        assert table.bin_min.shape == (5, max(ix.bin_ids.size for ix in indexes))
        assert_table_matches_indexes(table, indexes, TABLE_INTERVALS)
        # A subset of rows, in the order asked for.
        words, _ = table.footprint(TABLE_INTERVALS[2], [3, 0])
        assert words.tolist() == [
            indexes[r].query_cost(TABLE_INTERVALS[2]).words_touched for r in (3, 0)
        ]

    def test_table_follows_every_installed_index(self, indexed_system, rng):
        """An index-rebuilding overwrite, a region-opening append and a
        compaction each replace region indexes; the table stacked before
        them must not outlive them (a delta write installs none)."""
        sysm, obj = indexed_system, indexed_system.get_object("energy")

        def check():
            table = obj.index_probe_table()
            assert table is obj.index_probe_table()  # stacked once
            assert_table_matches_indexes(table, obj.indexes, TABLE_INTERVALS)
            return table

        first = check()
        sysm.update_object_region(
            "energy", 5, rng.uniform(3.0, 9.0, 300).astype(np.float32),
            maintenance="rebuild",
        )
        rebuilt = check()
        assert rebuilt is not first
        sysm.update_object_region(
            "energy", int(obj.offsets[2]) + 3,
            rng.uniform(0.0, 0.2, 100).astype(np.float32), maintenance="delta",
        )
        assert obj.index_delta_counts[2] == 100 and check() is rebuilt
        n_regions = obj.n_regions
        sysm.append_to_object(
            "energy", rng.gamma(2.0, 0.7, obj.region_elements + 10).astype(np.float32),
            maintenance="delta",
        )
        assert obj.n_regions > n_regions
        appended = check()
        assert appended.header_bytes.size == obj.n_regions
        sysm.compact_region_index("energy", 2)
        assert check() is not appended


class TestSerialization:
    def test_array_roundtrip(self, idx, gamma_data):
        idx2 = RegionBitmapIndex.from_arrays(idx.to_arrays())
        iv = Interval(lo=1.0, hi=2.0)
        assert resolve(idx2, iv, gamma_data) == resolve(idx, iv, gamma_data)
        assert np.array_equal(idx2.bin_min, idx.bin_min)

    def test_bytes_roundtrip(self, idx, gamma_data):
        buf = idx.to_bytes()
        assert buf.dtype == np.uint8
        idx2 = RegionBitmapIndex.from_bytes(buf)
        iv = Interval(lo=0.5, hi=1.5)
        assert resolve(idx2, iv, gamma_data) == resolve(idx, iv, gamma_data)
        assert idx2.n_elements == idx.n_elements

    def test_corrupt_bytes_rejected(self, idx):
        buf = idx.to_bytes()
        with pytest.raises(IndexError_):
            RegionBitmapIndex.from_bytes(np.concatenate([buf, np.zeros(3, np.uint8)]))

    @pytest.mark.parametrize(
        "dtype,sha,nbytes",
        [
            ("f4", "ba0fb28d4587010a28d56785bff2f8d9b3c18c2d3ff432f882aa9dac381c1d21", 43112),
            ("f8", "f2f10911ab7ff2d37a14695d06ced68cc3ba9fda6c4ee3c4e1151e76b2402e0b", 60800),
            ("i4", "8a92ab4f7a3522d20abf988f1b45a1874caf4bd31979e6951e75443c1e49d3cd", 47824),
        ],
        ids=["f4", "f8", "i4"],
    )
    def test_index_file_format_pinned(self, dtype, sha, nbytes):
        """The index file of a seeded region, byte for byte, and its size —
        recorded when each bin's words were a separate array; a re-read
        index writes the same bytes."""
        data = PIN_DRAWS[dtype](np.random.default_rng(2020)).astype(dtype)
        idx = RegionBitmapIndex.build(data)
        buf = idx.to_bytes()
        assert hashlib.sha256(buf.tobytes()).hexdigest() == sha
        assert idx.nbytes == nbytes
        reread = RegionBitmapIndex.from_bytes(buf)
        assert np.array_equal(reread.to_bytes(), buf) and reread.nbytes == nbytes


#: The seeded regions of ``test_index_file_format_pinned``.
PIN_DRAWS = {
    "f4": lambda rng: rng.gamma(2.0, 0.7, 4096),
    "f8": lambda rng: rng.normal(0.0, 3.0, 3000),
    "i4": lambda rng: rng.integers(-5000, 5000, 2500),
}
