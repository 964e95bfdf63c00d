"""Bitmap indexes: one object's index built over all its regions in one
pass, each region's chunk of the index file — exactness, candidate
handling, serialization."""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bitmap import wah
from repro.bitmap.binning import assign_bins, sig_digit_edges
from repro.bitmap.index import ObjectIndex, RegionBitmapIndex
from repro.errors import IndexError_
from repro.interval import Interval
from repro.pdc import PDCConfig, PDCSystem
from repro.types import QueryOp
from tests.conftest import INDEX_ROWS, assert_index_fresh, region_index


def bin_stream(idx, k):
    """The WAH words of occupied bin ``k``: its slice of ``idx.words``."""
    stop = int(idx.bin_words[: k + 1].sum())
    return idx.words[stop - int(idx.bin_words[k]) : stop]


def probe(idx, interval):
    """``(sure, candidates)`` positions of a probe, read off the bitmaps of
    the bins it overlaps: a bin whose content range the interval holds is
    sure, any other overlapped bin's members are candidates."""
    sure, candidates = set(), set()
    for k, (lo, hi) in enumerate(zip(idx.bin_min.tolist(), idx.bin_max.tolist())):
        if interval.overlaps_range(lo, hi):
            members = np.flatnonzero(wah.decompress(bin_stream(idx, k), idx.n_elements))
            full = interval.contains_value(lo) and interval.contains_value(hi)
            (sure if full else candidates).update(members.tolist())
    return sure, candidates


def resolve(idx, interval, data):
    """Index answer = sure hits + verified candidates (the FastBit query
    protocol)."""
    sure, candidates = probe(idx, interval)
    verified = {p for p in candidates if interval.contains_value(float(data[p]))}
    assert not (sure & verified)
    return sure | verified


def probe_from_bitmaps(idx, interval):
    """``(words, bins, candidates)`` of a probe, recomputed bin by bin from
    the bins' streams (sizes and popcounts) and the scalar range tests —
    the definition the per-bin tables must reproduce."""
    words = bins = candidates = 0
    for k, (lo, hi) in enumerate(zip(idx.bin_min.tolist(), idx.bin_max.tolist())):
        if not interval.overlaps_range(lo, hi):
            continue
        stream = bin_stream(idx, k)
        words += int(stream.size)
        bins += 1
        if not (interval.contains_value(lo) and interval.contains_value(hi)):
            candidates += wah.count_set_bits(stream)
    return words, bins, candidates


def assert_probes_match_bitmaps(idx, rng, n=60):
    lo_hi = np.sort(rng.uniform(-0.5, 6.0, (n, 2)), axis=1)
    for (lo, hi), lc, hc in zip(lo_hi.tolist(), rng.random(n) < 0.5, rng.random(n) < 0.5):
        iv = Interval(lo=round(lo, 1), hi=round(hi, 1) + 0.1, lo_closed=lc, hi_closed=hc)
        for interval in (iv, Interval(lo=lo, hi=hi + 1e-9), Interval(lo=lo), Interval(hi=hi)):
            words, bins, candidates = probe_from_bitmaps(idx, interval)
            cost = idx.query_cost(interval)
            assert (cost.words_touched, cost.n_bins_touched, cost.candidates) == (
                words, bins, candidates,
            ), interval
            assert cost.bytes_touched == words * 8


@pytest.fixture
def gamma_data(rng):
    return rng.gamma(2.0, 0.7, 8000).astype(np.float32).astype(np.float64)


@pytest.fixture
def idx(gamma_data):
    return region_index(gamma_data, precision=2)


class TestBuild:
    def test_empty_rejected(self):
        with pytest.raises(IndexError_):
            ObjectIndex.build(np.array([]), [0])
        with pytest.raises(IndexError_):
            ObjectIndex.build(np.arange(5.0), [5, 0])  # an empty region

    def test_2d_rejected(self):
        with pytest.raises(IndexError_):
            ObjectIndex.build(np.zeros((3, 3)), [9])

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

    def test_edges_hold_only_the_region_grid(self, idx, gamma_data):
        """A region's chunk holds its own span of the significant-digit
        grid; the object index holds no edges (nor words) at all."""
        edges = sig_digit_edges(float(gamma_data.min()), float(gamma_data.max()), 2)
        assert np.array_equal(idx.edges, edges)
        index, _ = ObjectIndex.build(gamma_data, [gamma_data.size])
        shapes = {(1, idx.n_occupied_bins), (1,), (gamma_data.size,)}
        assert {a.shape for a in vars(index).values()} == shapes
        assert np.uint64 not in {a.dtype for a in vars(index).values()}  # no WAH words

    def test_constant_data(self):
        idx = region_index(np.full(100, 2.5))
        assert idx.n_occupied_bins == 1
        got = resolve(idx, Interval(lo=2.0, hi=3.0), np.full(100, 2.5))
        assert got == set(range(100))


def build_bin_by_bin(data, precision=2):
    """The definition ``ObjectIndex.build`` must reproduce for each region,
    byte for byte: one membership mask, one ``wah.compress`` and one
    min/max per occupied bin."""
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


def assert_built_bin_by_bin(regions, precision=2):
    """One build over ``regions`` back to back: each region's chunk is its
    bin-by-bin index's bytes, its row that index's tables (pads after),
    its counts that index's and its positions the bins' members."""
    index, chunks = ObjectIndex.build(
        np.concatenate(regions), [r.size for r in regions], precision
    )
    assert len(chunks) == len(regions)
    offset = 0
    for rid, (values, chunk) in enumerate(zip(regions, chunks)):
        want = build_bin_by_bin(values, precision)
        assert_same_index(RegionBitmapIndex.from_bytes(chunk), want)
        assert np.array_equal(chunk, want.to_bytes()), rid
        k = want.n_occupied_bins
        for name, pad in INDEX_ROWS[:4]:
            row = getattr(index, name)[rid]
            assert np.array_equal(row[:k], getattr(want, name)) and (row[k:] == pad).all()
        assert (index.words[rid], index.nbytes[rid], index.header_bytes[rid]) == (
            want.words.size, want.nbytes, want.header_bytes)
        assert index.n_elements[rid] == values.size and index.delta[rid] == 0
        positions = index.positions[offset : offset + values.size]
        for b, start in enumerate(index.bin_starts[rid, :k].tolist()):
            members = np.flatnonzero(wah.decompress(bin_stream(want, b), values.size))
            assert np.array_equal(positions[start : start + members.size], members)
        offset += values.size


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
    @given(st.lists(region_values(), min_size=1, max_size=3), st.sampled_from([1, 2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_byte_for_byte(self, regions, precision):
        dtype = regions[0].dtype  # an object holds one type
        assert_built_bin_by_bin([r.astype(dtype) for r in regions], precision)

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
    def test_group_boundary_lengths(self, n, dtype, rng):
        for values in (
            rng.gamma(2.0, 0.7, n) * 10.0 + 1.0,
            np.sort(rng.gamma(2.0, 0.7, n) * 10.0 + 1.0),
            np.full(n, 4.0),
            rng.choice([1.5, 3.5], n),
        ):
            assert_built_bin_by_bin([values.astype(dtype)])

    def test_one_fill_spanning_several_groups(self):
        """A bin owning groups 1-4 whole, flanked by part-filled groups, is
        one one-fill word of length four between two literals."""
        values = np.concatenate(
            [np.full(40, 1.0), np.full(23 + 63 * 4 + 10, 2.0), np.full(100, 3.0)]
        )
        assert_built_bin_by_bin([values])
        twos = bin_stream(region_index(values), 1)
        one_fill = (np.uint64(3) << np.uint64(62)) | np.uint64(4)
        assert twos.size == 4 and twos[1] == one_fill  # literal, fill, literal, zero fill


class TestQueryExactness:
    @pytest.mark.parametrize(
        "lo,hi",
        [(2.1, 2.2), (0.5, 1.0), (3.5, 3.6), (0.0, 10.0), (5.0, 6.0)],
    )
    def test_on_grid_windows_no_candidates(self, idx, gamma_data, lo, hi):
        iv = Interval(lo=lo, hi=hi, lo_closed=False, hi_closed=False)
        sure, candidates = probe(idx, iv)
        assert not candidates and idx.query_cost(iv).candidates == 0
        assert sorted(sure) == np.flatnonzero(iv.mask(gamma_data)).tolist()

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
        idx = region_index(data, precision=2)
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
        assert probe(idx, iv) == (set(), set())
        assert idx.query_cost(iv).n_bins_touched == 0


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
        index, chunks = ObjectIndex.build(data, [data.size])
        idx = RegionBitmapIndex.from_bytes(chunks[0])
        exact = set(
            i for i, v in enumerate(data.tolist())
            if (iv.lo is None or v >= int(iv.lo)) and (iv.hi is None or v <= int(iv.hi))
        )
        sure, candidates = probe(idx, iv)
        assert sure <= exact <= sure | candidates
        assert candidates
        assert idx.query_cost(iv).candidates == len(candidates)
        _, table_candidates = index.footprint(iv, np.array([0]))
        assert table_candidates.tolist() == [len(candidates)]

    def test_decoded_positions_survive_a_reread(self, gamma_data):
        """The bin-ordered positions kept at build equal those the region's
        chunk decodes to; each bin's run holds its members."""
        index, chunks = ObjectIndex.build(gamma_data, [gamma_data.size])
        reread = RegionBitmapIndex.from_bytes(chunks[0])
        k = reread.n_occupied_bins
        assert np.array_equal(reread.positions, index.positions)
        assert np.array_equal(reread.bin_starts, index.bin_starts[0, :k])
        assert index.positions.dtype == np.uint16
        for b in range(k):
            start, count = int(index.bin_starts[0, b]), int(index.bin_counts[0, b])
            members = np.flatnonzero(wah.decompress(bin_stream(reread, b), reread.n_elements))
            assert np.array_equal(index.positions[start : start + count], members), b


class TestCountsAndCosts:
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
        """Read from the index file (where set bits are not stored and
        must be popcounted back), and re-read from its own bytes."""
        assert_probes_match_bitmaps(idx, rng)
        assert_probes_match_bitmaps(RegionBitmapIndex.from_bytes(idx.to_bytes()), rng)

    def test_probe_tables_follow_a_replaced_region_index(self, indexed_system, rng):
        """A delta write leaves a region's bitmaps — row and chunk — in
        place; compaction replaces them, and both describe the new ones."""
        sysm, obj, rid = indexed_system, indexed_system.get_object("energy"), 1

        def chunk():
            return sysm.pfs.stat("/pdc/index/energy").chunks[rid]

        row, before = obj.indexes.bin_min[rid].copy(), chunk()
        sysm.update_object_region(
            "energy", int(obj.offsets[rid]) + 7,
            rng.uniform(3.0, 5.0, 200).astype(np.float32), maintenance="delta",
        )
        assert chunk() is before and obj.indexes.delta[rid] == 200
        assert np.array_equal(obj.indexes.bin_min[rid], row)
        assert_index_fresh(sysm, obj)
        sysm.compact_region_index("energy", rid)
        assert chunk() is not before and obj.indexes.delta[rid] == 0
        assert_probes_match_bitmaps(RegionBitmapIndex.from_bytes(chunk()), rng)
        assert_index_fresh(sysm, obj)
        sure, _ = probe(RegionBitmapIndex.from_bytes(chunk()), Interval(lo=3.0, hi=5.0))
        assert len(sure) >= 200

    def test_nbytes_accounts_everything(self, idx):
        assert idx.nbytes > idx.words.size * 8


def assert_table_matches_indexes(table, chunks, intervals):
    """Every row of an object index prices a probe as its region's chunk,
    read, does in ``query_cost``."""
    indexes = [RegionBitmapIndex.from_bytes(c) for c in chunks]
    rows = np.arange(len(indexes))
    assert table.header_bytes.tolist() == [ix.header_bytes for ix in indexes]
    assert table.nbytes.tolist() == [ix.nbytes for ix in indexes]
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
        table, chunks = ObjectIndex.build(np.concatenate(regions), [r.size for r in regions])
        indexes = [RegionBitmapIndex.from_bytes(c) for c in chunks]
        assert len({ix.bin_ids.size for ix in indexes}) == len(indexes)
        assert table.bin_min.shape == (5, max(ix.bin_ids.size for ix in indexes))
        assert_table_matches_indexes(table, chunks, TABLE_INTERVALS)
        # A subset of rows, in the order asked for.
        words, _ = table.footprint(TABLE_INTERVALS[2], [3, 0])
        assert words.tolist() == [
            indexes[r].query_cost(TABLE_INTERVALS[2]).words_touched for r in (3, 0)
        ]

    def test_table_follows_every_installed_index(self, indexed_system, rng):
        """An index-rebuilding overwrite, a region-opening append and a
        compaction each rebuild region bitmaps; their rows follow, in
        place while no row widens (a delta write rebuilds none)."""
        sysm, obj = indexed_system, indexed_system.get_object("energy")

        def check():
            chunks = sysm.pfs.stat("/pdc/index/energy").chunks
            assert_table_matches_indexes(obj.indexes, chunks, TABLE_INTERVALS)
            assert_index_fresh(sysm, obj)
            return obj.indexes.bin_min

        first = check()
        sysm.update_object_region("energy", 5, obj.data[5:300][::-1].copy())
        assert check() is first  # the same bins: rows written in place
        sysm.update_object_region(
            "energy", 5, rng.uniform(3.0, 9.0, 300).astype(np.float32),
            maintenance="rebuild",
        )
        widened = check()  # region 0 gained bins past every row's
        assert widened is not first
        sysm.update_object_region(
            "energy", int(obj.offsets[2]) + 3,
            rng.uniform(0.0, 0.2, 100).astype(np.float32), maintenance="delta",
        )
        assert obj.indexes.delta[2] == 100 and check() is widened
        n_regions = obj.n_regions
        sysm.append_to_object(
            "energy", rng.gamma(2.0, 0.7, obj.region_elements + 10).astype(np.float32),
            maintenance="delta",
        )
        assert obj.n_regions > n_regions
        appended = check()
        assert appended is not widened and obj.indexes.header_bytes.size == obj.n_regions
        sysm.compact_region_index("energy", 2)
        check()
        assert obj.indexes.delta[2] == 0


class TestSerialization:
    def test_bytes_roundtrip(self, idx, gamma_data):
        buf = idx.to_bytes()
        assert buf.dtype == np.uint8
        idx2 = RegionBitmapIndex.from_bytes(buf)
        for iv in (Interval(lo=0.5, hi=1.5), Interval(lo=1.0, hi=2.0)):
            assert resolve(idx2, iv, gamma_data) == resolve(idx, iv, gamma_data)
        assert idx2.n_elements == idx.n_elements
        for name in ("edges", "bin_ids", "bin_min", "bin_max", "bin_words", "bin_counts"):
            assert np.array_equal(getattr(idx2, name), getattr(idx, name)), name

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
        index, (buf,) = ObjectIndex.build(data, [data.size])
        idx = RegionBitmapIndex.from_bytes(buf)
        assert hashlib.sha256(buf.tobytes()).hexdigest() == sha
        assert idx.nbytes == nbytes and index.nbytes.tolist() == [nbytes]
        assert np.array_equal(idx.to_bytes(), buf)

    @pytest.mark.parametrize(
        "dtype,shas",
        [
            ("f4", ("e4333a8d2030114b5055970522929487f3c23261280b248d5ec382b92e8c31a2",
                    "5c924b8a3f4fee9f70267480885bb5f6a02b295478b4eb8c76b3c343cbc8d297",
                    "1f6822814fc79f85da878ac9bd1eec8e26b352637a32b6185329ef449fa0ce3f",
                    "f5b1083ae872577017856a123f7108db5e65642ca770498c5ae8b661f4305333")),
            ("i4", ("810d20f1bfd12d706a32e764b76b53de43d0ac0591c3d57ce51e673928a323df",
                    "57ae3c59afddef508d8cbda384588310a479c506ac0bc01956a082e09d43bcfd",
                    "a9c31890064a97d86c8af21918193d940f5cdc8d430390b62a7496639318275a",
                    "0a183065332cad8633feed51067208faa505b3e539a85990fc213a48c0278a38")),
        ],
        ids=["f4", "i4"],
    )
    def test_whole_index_file_pinned(self, dtype, shas):
        """An object's whole index file, byte for byte, after ``build_index``,
        a rebuild-mode overwrite, an append opening two regions and a
        compaction — recorded when each region's index was its own object.
        The object has a region crossing zero, a single-valued one and a
        ragged tail."""
        data = WHOLE_FILE_DRAWS[dtype](np.random.default_rng(2020)).astype(dtype)
        sysm = PDCSystem(PDCConfig(n_servers=4, region_size_bytes=1 << 10))
        sysm.create_object("o", data)
        obj = sysm.get_object("o")

        def digest():
            assert_index_fresh(sysm, obj)
            return hashlib.sha256(sysm.pfs.stat("/pdc/index/o").data.tobytes()).hexdigest()

        sysm.build_index("o")
        assert obj.counts.tolist() == [REGION] * 4 + [77]
        got = [digest()]
        sysm.update_object_region(
            "o", REGION - 40, (data[:100][::-1] * 2).astype(dtype), maintenance="rebuild"
        )
        got.append(digest())
        grown = sysm.append_to_object(
            "o", np.concatenate([data[: 2 * REGION], data[REGION : REGION + 11]]),
            maintenance="rebuild",
        )
        assert grown == [4, 5, 6]
        got.append(digest())
        sysm.update_object_region("o", 3, data[:50], maintenance="delta")
        before = digest()  # a delta write leaves the file as it is
        assert sysm.compact_region_index("o", 0) == 50
        assert before == got[-1]
        got.append(digest())
        assert got == list(shas)


#: Elements per region of ``test_whole_index_file_pinned`` (4-byte types).
REGION = 256

#: The seeded objects of ``test_whole_index_file_pinned``: the second region
#: crosses zero, the third is single-valued, the tail is ragged.
WHOLE_FILE_DRAWS = {
    "f4": lambda rng: np.concatenate([
        rng.gamma(2.0, 0.7, REGION), rng.normal(0.0, 3.0, REGION), np.full(REGION, 1.5),
        rng.gamma(2.0, 0.7, REGION) * 100.0, rng.gamma(2.0, 0.7, 77),
    ]),
    "i4": lambda rng: np.concatenate([
        rng.integers(0, 5000, REGION), rng.integers(-5000, 5000, REGION),
        np.full(REGION, 42), rng.integers(-300, -1, REGION), rng.integers(0, 90, 77),
    ]),
}

#: The seeded regions of ``test_index_file_format_pinned``.
PIN_DRAWS = {
    "f4": lambda rng: rng.gamma(2.0, 0.7, 4096),
    "f8": lambda rng: rng.normal(0.0, 3.0, 3000),
    "i4": lambda rng: rng.integers(-5000, 5000, 2500),
}
