"""Word-Aligned Hybrid (WAH) bitmap compression on 64-bit words.

§III-D4: *"The Word-Aligned Hybrid compression (WAH) method is used to
reduce the index file size in Fastbit."*  This is a from-scratch
implementation of the classic WAH encoding (Wu et al.), vectorized with
numpy:

* the bit vector is split into 63-bit **groups**;
* a group that is neither all-0 nor all-1 is stored as a **literal word**
  (MSB = 0, low 63 bits = payload, LSB-first);
* maximal runs of identical all-0/all-1 groups are stored as **fill words**
  (MSB = 1, bit 62 = fill value, low 62 bits = run length in groups).

Bit counts come straight off the compressed form: popcount of literals
plus 63× the one-fill run lengths.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import IndexError_

__all__ = [
    "GROUP_BITS",
    "compress",
    "compress_partition",
    "decompress",
    "bits_to_groups",
    "groups_to_bits",
    "encode_groups",
    "decode_groups",
    "count_set_bits",
    "compressed_nbytes",
]

#: Payload bits per WAH word.
GROUP_BITS = 63

_FILL_FLAG = np.uint64(1) << np.uint64(63)
_FILL_VALUE = np.uint64(1) << np.uint64(62)
_LEN_MASK = _FILL_VALUE - np.uint64(1)
_PAYLOAD_MASK = (np.uint64(1) << np.uint64(GROUP_BITS)) - np.uint64(1)
#: Weights packing LSB-first group bits into a uint64 payload.
_BIT_WEIGHTS = (np.uint64(1) << np.arange(GROUP_BITS, dtype=np.uint64)).astype(np.uint64)

# ``np.bitwise_count`` only exists on NumPy >= 2.0; select a portable
# popcount once at import time so NumPy 1.26 keeps working.
if hasattr(np, "bitwise_count"):
    _popcount = np.bitwise_count
else:
    _POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def _popcount(a: np.ndarray) -> np.ndarray:
        a = np.ascontiguousarray(a, dtype=np.uint64)
        bytes_ = a.view(np.uint8).reshape(a.shape + (8,))
        return _POPCOUNT_TABLE[bytes_].sum(axis=-1, dtype=np.uint64)


# --------------------------------------------------------------------- groups
def bits_to_groups(bits: np.ndarray) -> Tuple[np.ndarray, int]:
    """Pack a 1-D boolean vector into 63-bit group payloads.

    Returns ``(groups, n_bits)`` where ``groups`` is uint64 with one entry
    per (zero-padded) 63-bit group.
    """
    bits = np.asarray(bits, dtype=bool)
    if bits.ndim != 1:
        raise IndexError_("WAH input must be a 1-D bit vector")
    n_bits = bits.size
    n_groups = (n_bits + GROUP_BITS - 1) // GROUP_BITS
    if n_groups == 0:
        return np.zeros(0, dtype=np.uint64), 0
    padded = np.zeros(n_groups * GROUP_BITS, dtype=bool)
    padded[:n_bits] = bits
    groups = padded.reshape(n_groups, GROUP_BITS).astype(np.uint64) @ _BIT_WEIGHTS
    return groups.astype(np.uint64), n_bits


def groups_to_bits(groups: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`bits_to_groups`."""
    groups = np.asarray(groups, dtype=np.uint64)
    expanded = (groups[:, None] >> np.arange(GROUP_BITS, dtype=np.uint64)) & np.uint64(1)
    return expanded.reshape(-1).astype(bool)[:n_bits]


# ----------------------------------------------------------------- encode/decode
def encode_groups(groups: np.ndarray) -> np.ndarray:
    """Run-length encode group payloads into WAH words."""
    groups = np.asarray(groups, dtype=np.uint64)
    n = groups.size
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    is_zero = groups == 0
    is_ones = groups == _PAYLOAD_MASK
    fillable = is_zero | is_ones
    # Run boundaries: change of (fillable, value) signature.
    sig = np.where(fillable, np.where(is_ones, 2, 1), 0)
    change = np.flatnonzero(np.diff(sig) != 0) + 1
    starts = np.concatenate(([0], change))
    stops = np.concatenate((change, [n]))

    out = []
    max_run = int(_LEN_MASK)
    for a, b in zip(starts, stops):
        if sig[a] == 0:
            out.append(groups[a:b])  # literals pass through
            continue
        fill_value = _FILL_VALUE if sig[a] == 2 else np.uint64(0)
        run = b - a
        while run > 0:
            chunk = min(run, max_run)
            out.append(np.array([_FILL_FLAG | fill_value | np.uint64(chunk)], dtype=np.uint64))
            run -= chunk
    return np.concatenate(out) if out else np.zeros(0, dtype=np.uint64)


def decode_groups(words: np.ndarray) -> np.ndarray:
    """Expand WAH words back into one uint64 payload per group."""
    words = np.asarray(words, dtype=np.uint64)
    if words.size == 0:
        return np.zeros(0, dtype=np.uint64)
    is_fill = (words & _FILL_FLAG) != 0
    # Each literal contributes 1 group; each fill contributes its run length.
    lengths = np.where(is_fill, (words & _LEN_MASK).astype(np.int64), 1)
    values = np.where(
        is_fill,
        np.where((words & _FILL_VALUE) != 0, _PAYLOAD_MASK, np.uint64(0)),
        words & _PAYLOAD_MASK,
    )
    return np.repeat(values, lengths)


# ------------------------------------------------------------------ public api
def compress(bits: np.ndarray) -> Tuple[np.ndarray, int]:
    """Compress a boolean vector; returns ``(words, n_bits)``."""
    groups, n_bits = bits_to_groups(bits)
    return encode_groups(groups), n_bits


def compress_partition(
    positions: np.ndarray, starts: np.ndarray, n_bits
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`compress` for every set of partitions of ``range(n_bits)``
    in one pass over the members.

    ``positions`` lists each set's members ascending, set after set;
    ``starts`` is where each set begins in it, and ``n_bits`` the length
    of its bit vector (one for all sets, or one per set).  Returns ``(words,
    words_per_set)``: the sets' streams back to back, each byte-identical
    to ``compress`` of that set's membership mask.  A stream is built from
    its *occupied* groups alone — a zero fill for the gap before one, the
    group as a literal or folded into a one-fill with its all-ones
    neighbours, a zero fill after the last — so the work follows the
    member count, not sets × groups.  (No run reaches the 2^62-group fill
    limit ``encode_groups`` splits at: ``n_bits`` is an array length.)
    """
    n_groups = -(-n_bits // GROUP_BITS)
    group = positions // GROUP_BITS
    bit = (positions - group * GROUP_BITS).astype(np.uint64)
    # A segment: the members one set has in one group.
    new_segment = np.empty(positions.size, dtype=bool)
    np.not_equal(group[1:], group[:-1], out=new_segment[1:])
    new_segment[starts] = True  # position 0 included: it starts the first set
    seg_starts = np.flatnonzero(new_segment)
    payload = np.bitwise_or.reduceat(np.uint64(1) << bit, seg_starts)
    seg_group = group[seg_starts]
    set_first = np.searchsorted(seg_starts, starts)  # each set's first segment
    first = np.zeros(seg_starts.size, dtype=bool)
    first[set_first] = True
    # Zero groups between a segment and its predecessor in the same set.
    gap = np.diff(seg_group, prepend=-1) - 1
    gap[set_first] = seg_group[set_first]
    ones = payload == _PAYLOAD_MASK
    continues = ones & ~first & (gap == 0)
    continues[1:] &= ones[:-1]
    # One word per segment that does not extend a one-fill; a one-fill's
    # length is the distance to the next such segment.
    emitted = np.flatnonzero(~continues)
    run = np.diff(emitted, append=seg_starts.size).astype(np.uint64)
    word = np.where(ones[emitted], _FILL_FLAG | _FILL_VALUE | run, payload[emitted])
    gap = gap[emitted]
    # Zero groups after a set's last segment, held by its last word.
    set_first_word = np.flatnonzero(first[emitted])
    trail = np.zeros(emitted.size, dtype=np.int64)
    trail[np.append(set_first_word[1:], emitted.size) - 1] = (
        n_groups - 1 - seg_group[np.append(set_first[1:], seg_starts.size) - 1]
    )
    has_gap, has_trail = gap > 0, trail > 0
    n_out = 1 + has_gap + has_trail
    offset = np.cumsum(n_out) - n_out
    words = np.empty(int(n_out.sum()), dtype=np.uint64)
    words[offset + has_gap] = word
    words[offset[has_gap]] = _FILL_FLAG | gap[has_gap].astype(np.uint64)
    words[(offset + n_out - 1)[has_trail]] = _FILL_FLAG | trail[has_trail].astype(np.uint64)
    return words, np.add.reduceat(n_out, set_first_word)


def decompress(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Decompress WAH words back to a boolean vector of ``n_bits``."""
    groups = decode_groups(words)
    if groups.size * GROUP_BITS < n_bits:
        raise IndexError_(
            f"compressed stream covers {groups.size * GROUP_BITS} bits, need {n_bits}"
        )
    return groups_to_bits(groups, n_bits)


def count_set_bits(words: np.ndarray) -> int:
    """Population count directly on the compressed stream."""
    words = np.asarray(words, dtype=np.uint64)
    if words.size == 0:
        return 0
    is_fill = (words & _FILL_FLAG) != 0
    literals = words[~is_fill] & _PAYLOAD_MASK
    lit_count = int(_popcount(literals).sum()) if literals.size else 0
    ones_fills = words[is_fill & ((words & _FILL_VALUE) != 0)]
    fill_count = int((ones_fills & _LEN_MASK).astype(np.int64).sum()) * GROUP_BITS
    return lit_count + fill_count


def compressed_nbytes(words: np.ndarray) -> int:
    """Storage footprint of a compressed stream."""
    return int(np.asarray(words).size) * 8
