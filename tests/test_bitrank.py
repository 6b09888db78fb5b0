import gc
import itertools
import math
import random
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmblock.bitio import pack_fields, read_fields
from fmblock.bitrank import (
    RRR_SAMPLE_EVERY,
    PlainBitVector,
    RrrBitVector,
    build_plain,
    build_rrr,
    make_bitvector,
    offset_of_value,
    offset_width,
    read_payload,
    rrr_samples,
    value_of_offset,
    _decode_table,
    _superblock_log,
    _word_table,
)
from helpers import rrr_payload


def cumulative_rank(bits, bit, j):
    return sum(1 for b in bits[:j] if b == bit)


def test_plain_worked_example():
    v = build_plain("0111100")
    assert v.rank(1, 7) == 4
    assert v.rank(1, 4) == 3
    assert v.rank(0, 7) == 3
    assert v.rank(1, 0) == 0


def test_plain_matches_scan():
    rng = random.Random(0)
    for m in (0, 1, 63, 64, 65, 511, 512, 513, 1000, 5000):
        bits = [rng.randint(0, 1) for _ in range(m)]
        v = build_plain(bits)
        for j in range(0, m + 1, max(1, m // 97)):
            assert v.rank(1, j) == cumulative_rank(bits, 1, j)
            assert v.rank(0, j) == j - v.rank(1, j)
        assert v.rank1(v.m) == sum(bits)
        assert v.to_bits().tolist() == bits


def test_rank_argument_validation():
    v = build_plain("101")
    with pytest.raises(ValueError, match="out of range"):
        v.rank(1, 4)
    with pytest.raises(ValueError, match="out of range"):
        v.rank(1, -1)
    with pytest.raises(ValueError, match="bit"):
        v.rank(2, 1)


def test_plain_directory_sizing():
    v = build_plain([1] * 4096)
    # the bits, then one 16-bit counter per 64-bit word, plus the spare word
    # for rank1(m), and one 64-bit rank per superblock of 2^10 words
    assert v.stored_bits() == (4096, 16 * (4096 // 64 + 1) + 64)


def test_plain_heap_is_at_most_1_6_bits_per_bit():
    # 64-bit words and one 16-bit counter per word: 1.25 bits per bit, plus the superblock ranks and the objects
    bits = np.random.default_rng(6).integers(0, 2, 1_000_000, dtype=np.uint8)
    gc.collect()
    tracemalloc.start()
    try:
        v = PlainBitVector(bits)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert v.rank1(v.m) == int(bits.sum())
    assert 8 * held <= 1.6 * len(bits)


def test_rrr_offset_stream_of_2_32_bits_is_rejected_before_allocating():
    class Sized(bytes):
        def __len__(self):
            return self.size

    def payload(size):
        # a vector of 32 blocks' bits, two ones samples of no position, in a
        # section that claims `size` bytes: all but the kind bytes would be
        # samples
        buf = Sized(bytes([0x80, 0x80]))
        buf.size = size
        return buf

    with pytest.raises(ValueError, match="rrr offset stream of 2\\^32 bits or more"):
        read_payload(payload(2 + 2**29), 15, 32 * 15)
    # 8 bits fewer pass, to the samples' own bytes, which are none
    v = read_payload(payload(2 + 2**29 - 1), 15, 32 * 15)
    assert v.m == 480 and v.sample_kinds() == {"rrr": 0, "ones": 2, "zeros": 0}


def test_rrr_worked_block():
    v = build_rrr("0111100", 7)
    ((cls, off),) = v.blocks()
    assert cls == 4
    same_class = [w for w in range(128) if bin(w).count("1") == 4]
    value = sum(bit << i for i, bit in enumerate([0, 1, 1, 1, 1, 0, 0]))
    assert off == same_class.index(value)
    assert v.rank(1, 7) == 4 and v.rank(1, 4) == 3


def test_rrr_round_trips_exactly():
    rng = random.Random(1)
    for t in (1, 2, 3, 7, 8, 15, 16, 31, 63):
        for m in (0, 1, t - 1, t, t + 1, 10 * t + 3, 999):
            if m < 0:
                continue
            bits = [int(rng.random() < 0.25) for _ in range(m)]
            v = build_rrr(bits, t)
            assert v.to_bits().tolist() == bits, (t, m)


def test_rrr_agrees_with_plain():
    rng = random.Random(2)
    for t in (1, 5, 15, 16, 25, 63):
        for density in (0.0, 0.05, 0.5, 0.95, 1.0):
            bits = [int(rng.random() < density) for _ in range(1500)]
            v = build_rrr(bits, t)
            p = build_plain(bits)
            for j in range(0, 1501, 13):
                assert v.rank(1, j) == p.rank(1, j), (t, density, j)
            assert v.rank(1, 1500) == sum(bits)


def test_rrr_block_size_validation():
    with pytest.raises(ValueError, match="rrr block size must be in 1\\.\\.63"):
        build_rrr("01", 0)
    with pytest.raises(ValueError, match="rrr block size must be in 1\\.\\.63"):
        build_rrr("01", 64)


def test_rrr_compresses_sparse_input():
    m = 4096
    v = build_rrr([0] * m, 15)
    assert sum(v.stored_bits()) < m // 2
    dense = build_rrr([1] * m, 15)
    assert sum(dense.stored_bits()) < m // 2


def test_enumerative_offsets_are_numeric_rank():
    for t in (4, 7, 15):
        for k in range(t + 1):
            same_class = [w for w in range(1 << t) if bin(w).count("1") == k]
            assert offset_width(t, k) == (len(same_class) - 1).bit_length()
            for off, w in enumerate(same_class):
                assert offset_of_value(w, t, k) == off
                assert value_of_offset(off, t, k) == w


@pytest.mark.parametrize("t", range(1, 17))
def test_every_block_decodes_at_every_rem(t):
    # every t-bit block, as each (class, offset) pair in turn, in one vector
    # of RRR samples only (rrr_payload), so that every block is decoded through
    # the decode table, its top-bit peel and its complement: every rank form
    # at every position, so at every rem of every block, and to_bits equal
    # the blocks' value_of_offset
    blocks = [(k, off) for k in range(t + 1) for off in range(math.comb(t, k))]
    values = np.array([value_of_offset(off, t, k) for k, off in blocks], dtype=np.int64)
    bits = (values[:, None] >> np.arange(t) & 1).astype(np.uint8).ravel()
    prefix = np.concatenate([[0], np.cumsum(bits, dtype=np.int64)])
    v = read_payload(rrr_payload(t, len(bits), blocks), t, len(bits))
    assert v.sample_kinds()["rrr"] == len(v._entries) - 1
    positions = np.arange(len(bits) + 1)
    assert [v.rank1(j) for j in positions.tolist()] == prefix.tolist()
    assert v.rank1_many(positions).tolist() == prefix.tolist()
    assert v.batch_rank1()[0](positions).tolist() == prefix.tolist()
    assert v.to_bits().tolist() == bits.tolist()
    assert v.blocks() == blocks
    # the table that _values decodes through holds every word, top bit and all
    assert _word_table(t)[0].tolist() == values.tolist()
    # descend's two decodes: b's block, and e's own block t bits on (in the
    # first block, e's rank from b's decode)
    b = np.maximum(positions - t, 0).tolist()
    assert [v.descend((1,), lo, hi) for lo, hi in zip(b, positions.tolist())] == list(zip(prefix[b] + 1, prefix + 1))


def test_the_t_15_decode_table_keeps_at_most_24_kib():
    # (t - 1)-bit words of the lower half of the classes: 9,908 of them, 19,816 bytes
    _decode_table.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        table = _decode_table(15)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(table[0]) == sum(math.comb(14, c) for c in range(8))
    assert held <= 24 * 1024


def test_combinadic_matches_tables_beyond_table_limit():
    # the loop-based codec must agree with table construction on a mid-size t
    rng = random.Random(3)
    t = 20
    for _ in range(200):
        w = rng.randrange(1 << t)
        k = bin(w).count("1")
        off = offset_of_value(w, t, k)
        assert off < math.comb(t, k)
        assert value_of_offset(off, t, k) == w


def test_rrr_offset_width_accounting():
    # 40 blocks of 7 or 8 ones, in two RRR samples, the second padded with class-0 blocks
    bits = [1, 0] * 300
    v = build_rrr(bits, 15)
    classes = [k for k, _ in v.blocks()] + [0] * 24
    assert v.sample_kinds() == {"rrr": 2, "ones": 0, "zeros": 0}
    # a kind byte per sample, then each sample's 16 class bytes and its
    # offsets, padded to an even byte count
    offsets = [sum(offset_width(15, k) for k in classes[s : s + 32]) for s in (0, 32)]
    stored, samples = v.stored_bits()
    assert stored == 2 * 8 + sum(8 * 16 + 16 * -(-bits // 16) for bits in offsets)
    # the rank tables: a 32-bit entry per sample and for their end, and one superblock's 64-bit rank and 32-bit byte
    assert samples == 32 * 3 + 64 + 32


@pytest.mark.parametrize(
    "backend,t", [("plain", 15)] + [("rrr", t) for t in (1, 3, 15, 16, 17, 63)]
)
def test_stored_bits_read_back_at_unaligned_positions(backend, t):
    # three trees' nodes, joined bit to bit in one vector and read from one
    # payload section under either backend: plain, the bits in whole bytes;
    # RRR, every sample's kind byte and then its bytes, here every sample
    # RRR, written field by field (rrr_payload). The second tree's 63 bits
    # leave the third tree's first bit off a byte
    rng = random.Random(t)
    sizes = [(1, t, 100, 700, 3, 0, 9), (63,), (5, 2 * t + 1)]
    trees = [[[rng.randint(0, 1) for _ in range(m)] for m in tree] for tree in sizes]
    bits = np.array(list(itertools.chain(*itertools.chain(*trees))), dtype=np.uint8)
    m = len(bits)
    if backend == "plain":
        assert m % 8  # so the last byte has padding bits
        t = 0
        written = np.packbits(bits, bitorder="little").tobytes()
        # padding ones, which no rank reads: a load clears them
        payload = written[:-1] + bytes([written[-1] | 0xFF << m % 8 & 0xFF])
    else:
        payload = written = rrr_payload(t, m, make_bitvector(bits, t).blocks())
    v = read_payload(payload, t, m)
    # rank1 at every position, and so at every node's and tree's boundary,
    # counted from the vector's first bit
    assert v.m == m
    assert [v.rank1(j) for j in range(m + 1)] == [*itertools.accumulate(bits.tolist(), initial=0)]
    assert v.payload() == written


def chunk_edge_bits(t, rng):
    """Bits of 520 t-bit RRR samples whose runs of RRR, ones and zeros samples each straddle an edge of _values' chunks.

    The decode takes an eighth of the samples at a time, 65 here: a run of
    sparse ones crosses the first edge, one of sparse zeros the second, and
    a run of dense samples, between sparse ones, the third; the others are
    dense.
    """
    span, edge = RRR_SAMPLE_EVERY * t, 65
    density = np.full(520, 0.5)
    density[edge - 2 : edge + 2] = 0.005
    density[2 * edge - 2 : 2 * edge + 2] = 0.995
    density[3 * edge - 5 : 3 * edge + 5] = 0.005
    density[3 * edge - 2 : 3 * edge + 2] = 0.5
    return (rng.random(520 * span - t) < np.repeat(density, span)[: 520 * span - t]).astype(np.uint8)


@pytest.mark.parametrize(
    "backend,t,bits_of",
    [pytest.param("plain", 15, "random", id="plain-15")]
    + [pytest.param("rrr", t, "random", id=f"rrr-{t}") for t in (1, 3, 15, 16, 17, 63)]
    + [pytest.param("rrr", t, "middle", id=f"rrr-{t}-middle") for t in (15, 16, 17, 63)]
    + [pytest.param("rrr", t, "chunks", id=f"rrr-{t}-chunks") for t in (15, 17)],
)
def test_batch_rank1_equals_rank1_over_three_trees(backend, t, bits_of):
    # one vector of three trees' bits joined, read from its section as a load
    # reads it: the batch rank and its scalar form at every position, so at
    # every multiple of 64 (a shift by 64 in scalar rank1) and at each tree's
    # first bit and end, equal the scalar one. middle: every whole block of
    # class t // 2, so the offsets are all of the widest width (13 bits at
    # t = 15, 14 at 16) and start at every bit shift. chunks: one vector,
    # saved as a build saves it, whose RRR, ones and zeros samples straddle
    # the edges of the decode's chunks (chunk_edge_bits); the decoded table
    # and to_bits equal rank1 there too
    rng = random.Random(t)
    if bits_of == "chunks":
        bits = chunk_edge_bits(t, np.random.default_rng(t))
    else:
        bits = np.concatenate([np.array([rng.randint(0, 1) for _ in range(m)], dtype=np.uint8) for m in (700, 63, 2 * t + 1)])
    if bits_of == "middle":
        for lo in range(0, len(bits) - t + 1, t):
            bits[lo : lo + t] = 0
            bits[[lo + i for i in rng.sample(range(t), t // 2)]] = 1
    if backend == "plain":
        t = 0
        payload = np.packbits(bits, bitorder="little").tobytes()
    elif bits_of == "chunks":
        payload = make_bitvector(bits, t).payload()
    else:
        payload = rrr_payload(t, len(bits), make_bitvector(bits, t).blocks())
    v = read_payload(payload, t, len(bits))
    positions = np.arange(len(bits) + 1)
    want = [v.rank1(j) for j in positions.tolist()]
    rounds, scalar = v.batch_rank1()
    assert rounds(positions).tolist() == want
    assert [scalar(j) for j in positions.tolist()] == want
    if bits_of == "chunks":
        kinds = v._samples()[2][:-1]
        for edge, kind in zip((65, 130, 195), (2, 3, 0)):  # ones, zeros, RRR
            assert kinds[edge - 1] == kinds[edge] == kind
        # each block's entry: the ones before it, then its bits
        table = v._values()
        ones, held = (table >> 16, table & 0xFFFF) if t <= 16 else table
        blk, rem = np.divmod(positions, t)
        assert (ones[blk] + np.bitwise_count(held[blk] & (1 << rem) - 1)).tolist() == want
        assert v.to_bits().tolist() == bits.tolist()


def test_batch_rank1_keeps_8_bytes_a_block_and_peaks_at_15():
    # a t = 15 vector of more than 8 x 64 samples of every kind, so that the
    # decode runs in eight chunks: the table its two functions keep is one
    # int64 a block, and the chunks' temporaries, with the samples' own
    # tables, stay within 7 bytes a block more (an unchunked decode peaks at
    # more than 20). A first call, under the same trace, fills numpy's caches
    # of small freed buffers, which tracemalloc counts as held; 16 KiB more
    # covers the few that a second call adds, and the two functions
    t, samples = 15, 2048
    rng = np.random.default_rng(t)
    density = np.repeat(rng.choice([0.5, 0.005, 0.995], samples), RRR_SAMPLE_EVERY * t)
    v = make_bitvector((rng.random(len(density) - t) < density[:-t]).astype(np.uint8), t)
    blocks = RRR_SAMPLE_EVERY * rrr_samples(v.m, t)
    assert all(v.sample_kinds().values()) and blocks > RRR_SAMPLE_EVERY * 8 * 64
    gc.collect()
    tracemalloc.start()
    try:
        v.batch_rank1()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ranks = v.batch_rank1()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept - held <= 8 * blocks + 16 * 1024
    assert peak - held <= 15 * blocks + 16 * 1024
    positions = np.arange(0, v.m + 1, 97)
    assert ranks[0](positions).tolist() == [v.rank1(j) for j in positions.tolist()]


def words_of(buf):
    """A packed stream as read_fields reads it: little-endian uint64 words, then a spare one."""
    return np.frombuffer(buf + bytes(16 - len(buf) % 8), dtype="<u8")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 64), st.integers(0, 2**64 - 1))))
def test_read_fields_matches_the_written_fields(fields):
    acc = pos = 0
    starts, want = [], []
    for width, value in fields:
        mask = (1 << width) - 1
        acc |= (value & mask) << pos
        starts.append(pos)
        want.append(value & mask)
        pos += width
    widths = [width for width, _ in fields]
    buf = pack_fields([value for _, value in fields], widths)
    assert buf == acc.to_bytes((pos + 7) // 8, "little")
    got = read_fields(words_of(buf), np.array(starts, dtype=np.int64), np.array(widths, dtype=int))
    assert got.tolist() == want


def test_fields_round_trip_past_one_bit_matrix():
    # pack_fields builds its bit matrix 2^16 fields at a time
    rng = np.random.default_rng(5)
    widths = rng.integers(0, 65, 70_000)
    values = rng.integers(0, 2**64, 70_000, dtype=np.uint64)
    buf = pack_fields(values, widths)
    assert len(buf) == (int(widths.sum()) + 7) // 8
    want = [v & ((1 << w) - 1) for v, w in zip(values.tolist(), widths.tolist())]
    assert read_fields(words_of(buf), np.cumsum(widths) - widths, widths).tolist() == want


@st.composite
def bit_arrays(draw):
    """Bit arrays of lengths near multiples of 512 or random, at three densities."""
    m = draw(st.one_of(st.sampled_from([0, 1, 511, 512, 513, 1024, 1025]), st.integers(0, 1600)))
    raw = st.binary(min_size=(m + 7) // 8, max_size=(m + 7) // 8)
    a = np.frombuffer(draw(raw), dtype=np.uint8)
    mix = draw(st.sampled_from(["half", "sparse", "dense"]))
    if mix != "half":
        b = np.frombuffer(draw(raw), dtype=np.uint8)
        a = a & b if mix == "sparse" else a | b
    return np.unpackbits(a)[:m]


@settings(max_examples=30, deadline=None)
@given(bit_arrays())
def test_rank1_equals_the_prefix_sum_at_every_position(bits):
    prefix = np.concatenate([[0], np.cumsum(bits, dtype=np.int64)]).tolist()
    # an RRR vector built straight from bits pads pack_fields' offset stream,
    # which has no spare word, as a load does, so that the batch rank's
    # read_fields can read the word after every offset
    vectors = [PlainBitVector(bits)] + [RrrBitVector(bits, t) for t in (1, 3, 15, 16, 17, 63)]
    for v in vectors:
        assert [v.rank1(j) for j in range(len(bits) + 1)] == prefix, getattr(v, "t", 0)
        assert v.batch_rank1()[0](np.arange(len(bits) + 1)).tolist() == prefix, getattr(v, "t", 0)
        assert v.rank1(v.m) == prefix[-1]


def starts_of(trees):
    """Each tree's first bit in the vector of the trees' bits joined, as int64."""
    ms = np.array([len(bits) for bits in trees], dtype=np.int64)
    return np.cumsum(ms) - ms


@settings(max_examples=40, deadline=None)
@given(
    st.lists(bit_arrays(), min_size=1, max_size=4),
    st.sampled_from([0, 1, 3, 4, 15, 16, 17, 31, 63]),
)
def test_rank1_many_equals_rank1_over_trees_read_as_a_load_reads_them(trees, t):
    # the trees' bits joined in one vector, plain for t = 0, whose payload is
    # read back as a load reads it; rank1_many, at every position of every
    # tree in one call, equals rank1, and so it does on no position, and so
    # does its numpy form, which it takes only above _SCALAR_RANKS
    # positions, at any size
    bits = np.concatenate(trees)
    v = read_payload(make_bitvector(bits, t).payload(), t, len(bits))
    positions = np.concatenate([np.arange(first, first + len(tree) + 1) for first, tree in zip(starts_of(trees).tolist(), trees)])
    for many in (v.rank1_many, v._rank1_many):
        assert many(positions).tolist() == [v.rank1(j) for j in positions.tolist()]
        assert many(positions[::-1].copy()).tolist() == [v.rank1(j) for j in positions[::-1].tolist()]
        assert many(np.zeros(0, dtype=np.int64)).tolist() == []


@settings(max_examples=40, deadline=None)
@given(
    st.lists(bit_arrays(), min_size=1, max_size=4),
    st.sampled_from([0, 1, 3, 15, 16, 17, 63]),
)
def test_a_vector_built_from_many_trees_equals_the_one_read_from_their_sections(trees, t):
    # one make_bitvector call over the trees' joined bits makes the vector a
    # load of its payload makes, with the same words and rank directories
    # (t = 0, plain), or sample stream and rank tables, and writes that
    # payload: plain, the bits packed LSB first
    bits = np.concatenate(trees)
    built = make_bitvector(bits, t)
    payload = built.payload()
    loaded = read_payload(payload, t, len(bits))
    assert built.m == loaded.m == len(bits)
    if t == 0:
        assert payload == np.packbits(bits, bitorder="little").tobytes()
        assert (built._words, built._counts, built._ranks) == (loaded._words, loaded._counts, loaded._ranks)
    else:
        assert (built._stream, built._entries, built._ranks, built._bases) == (loaded._stream, loaded._entries, loaded._ranks, loaded._bases)
    assert loaded.to_bits().tolist() == bits.tolist()
    # ranks count from the vector's first bit
    before = 0
    for first, tree in zip(starts_of(trees).tolist(), trees):
        assert [built.rank1(j) for j in range(first, first + len(tree) + 1)] == [*itertools.accumulate(tree.tolist(), initial=before)]
        before += int(tree.sum())
    assert loaded.payload() == payload


def rank1_walks(v, steps, b, e):
    """Both ends down the steps as two rank1 walks, level by level."""
    for step in steps:
        rb, re = v.rank1(b), v.rank1(e)
        b, e = (rb + step, re + step) if step > 0 else (b - rb - step, e - re - step)
    return b, e


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_descend_equals_two_rank1_walks(data):
    # a vector of several trees (plain for t = 0), each spanning at least 3
    # samples, at three densities (sparse and dense bits make class 0 and
    # class t blocks); the ends start in one block, in the two blocks of one
    # class byte, in two samples, or at the tree's limit, and each level's
    # step keeps both in the tree, as a path's steps do, also once they meet:
    # descend walks the whole path and gives the walked ends, equal or not
    t = data.draw(st.sampled_from([0, 1, 3, 15, 16, 17, 63]), label="vector")
    unit = t or 64  # a block or a word
    sample = RRR_SAMPLE_EVERY * unit
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    ms = [int(m) for m in rng.integers(64 * unit, 70 * unit + 100, data.draw(st.integers(2, 3), label="trees"))]
    density = data.draw(st.sampled_from([0.05, 0.5, 0.95]), label="density")
    v = make_bitvector((rng.random(sum(ms)) < density).astype(np.uint8), t)
    firsts = [*itertools.accumulate(ms[:-1], initial=0)]
    for _ in range(20):
        tree = data.draw(st.integers(0, len(ms) - 1), label="tree")
        first, limit = firsts[tree], firsts[tree] + ms[tree]
        kind = data.draw(st.sampled_from(["block", "byte", "samples", "limit"]), label="ends")
        if kind == "block":
            b = first + unit * data.draw(st.integers(0, ms[tree] // unit - 1)) + data.draw(st.integers(0, unit - 1))
            e = data.draw(st.integers(b + 1, min(b - (b - first) % unit + unit, limit)))
        elif kind == "byte":  # an even block, the low class of its byte, and the odd one after it
            lo = first + 2 * unit * data.draw(st.integers(0, ms[tree] // (2 * unit) - 1))
            b = data.draw(st.integers(lo, lo + unit - 1))
            e = data.draw(st.integers(lo + unit, lo + 2 * unit - 1))
        elif kind == "samples":
            b = data.draw(st.integers(first, first + sample - 1))
            e = data.draw(st.integers(first + sample, limit))
        else:
            b, e = data.draw(st.integers(first, limit - 1)), limit
        # each level's step, from the two walks' ranks: positive, each end to
        # rank1 + step, else to its position - rank1 - step, kept in [first, limit]
        steps, lo, hi = [], b, e
        for _ in range(data.draw(st.integers(1, 6), label="levels")):
            rb, re = v.rank1(lo), v.rank1(hi)
            if data.draw(st.booleans()) and max(1, first - rb) <= limit - re:
                step = data.draw(st.integers(max(1, first - rb), limit - re))
                lo, hi = rb + step, re + step
            else:
                step = -data.draw(st.integers(max(0, first - lo + rb), limit - hi + re))
                lo, hi = lo - rb - step, hi - re - step
            steps.append(step)
        assert rank1_walks(v, steps, b, e) == (lo, hi)
        assert v.descend(array("q", steps), b, e) == (lo, hi), (kind, b, e, steps)
        assert v.descend(steps, b, e) == (lo, hi)


@st.composite
def mixed_samples(draw):
    """Bits whose samples mix the kinds: runs of zeros or ones, sparse ones, sparse zeros and dense bits."""
    t = draw(st.sampled_from([1, 7, 15, 16, 63]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for kind in draw(st.lists(st.sampled_from(["zeros", "ones", "sparse", "sparse zeros", "dense"]), min_size=1, max_size=6)):
        m = RRR_SAMPLE_EVERY * t * draw(st.integers(0, 3)) + draw(st.integers(0, RRR_SAMPLE_EVERY * t))
        density = {"zeros": 0, "ones": 1, "sparse": 0.02, "sparse zeros": 0.98, "dense": 0.5}[kind]
        parts.append((rng.random(m) < density).astype(np.uint8))
    return t, np.concatenate(parts)


@settings(max_examples=40, deadline=None)
@given(mixed_samples(), st.data())
def test_every_rank_form_equals_the_prefix_sum_over_mixed_sample_kinds(case, data):
    t, bits = case
    v = RrrBitVector(bits, t)
    assert sum(v.sample_kinds().values()) == len(v._entries) - 1 == rrr_samples(len(bits), t)
    prefix = np.concatenate([[0], np.cumsum(bits, dtype=np.int64)])
    positions = np.arange(len(bits) + 1)
    assert [v.rank1(j) for j in positions.tolist()] == prefix.tolist()
    assert v.batch_rank1()[0](positions).tolist() == prefix.tolist()
    assert v.rank1_many(positions).tolist() == v._rank1_many(positions).tolist() == prefix.tolist()
    # descend down steps of either sign, each end moved as the prefix sum says
    for _ in range(20):
        b = data.draw(st.integers(0, len(bits)))
        e = data.draw(st.integers(b, len(bits)))
        steps, lo, hi = [], b, e
        for step in data.draw(st.lists(st.sampled_from([0, -1, 1]), min_size=1, max_size=4)):
            nlo, nhi = (prefix[lo] + step, prefix[hi] + step) if step > 0 else (lo - prefix[lo] - step, hi - prefix[hi] - step)
            if nhi > len(bits):
                break
            steps.append(step)
            lo, hi = nlo, nhi
        assert v.descend(steps, b, e) == (lo, hi)
    assert v.to_bits().tolist() == bits.tolist()


@st.composite
def superblock_vectors(draw):
    """An RRR block size t and trees of bits, joined over at least three superblocks, the second tree from mid-superblock.

    Each sample's bits are all zeros or ones, sparse ones or zeros, or
    dense, drawn per sample; the first tree's first three are sparse ones,
    sparse zeros and dense, so that every kind is present.
    """
    t = draw(st.sampled_from([1, 4, 15, 16, 31, 63]), label="t")
    sample = RRR_SAMPLE_EVERY * t
    per = sample << _superblock_log(t)  # a superblock's bits
    # the first tree takes S + 2 to 2S - 1 samples, so that it ends past
    # its first superblock and before its second ends; with the second, at
    # least 2S + 3 samples
    ms = [
        per + draw(st.integers(sample, per - sample - t), label="m0"),
        draw(st.integers(per, 2 * per), label="m1"),
        draw(st.integers(0, per // 2), label="m2"),
    ]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    trees = []
    for m in ms:
        density = rng.choice([0.0, 1.0, 0.01, 0.99, 0.5], -(-m // sample))
        trees.append((rng.random(m) < np.repeat(density, sample)[:m]).astype(np.uint8))
    trees[0][: 3 * sample] = rng.random(3 * sample) < np.repeat([0.01, 0.99, 0.5], sample)
    return t, trees


def assert_every_rank_form_counts_from_the_vector_start(vectors, trees, unit, per, data):
    """rank1, rank1_many, batch_rank1 and descend of each of vectors, of trees' bits joined, equal prefix popcounts.

    Positions are near every superblock edge of per bits (a superblock
    rank's count), every tree's first bit and limit, and others; unit is a
    block or a word. Descents start near an edge, with the second end in
    b's unit, superblock or anywhere after, down one or two levels of
    either sign.
    """
    v = vectors[0]
    firsts = starts_of(trees)
    prefix = np.concatenate([[0], np.cumsum(np.concatenate(trees), dtype=np.int64)])
    edges = np.concatenate([per * np.arange(len(v._ranks)), firsts, [v.m]])
    near = (edges[:, None] + np.arange(-2 * unit - 1, 2 * unit + 2)).ravel()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="positions"))
    positions = np.unique(np.clip(np.concatenate([near, rng.integers(0, v.m + 1, 500)]), 0, v.m))
    want = prefix[positions].tolist()
    for vector in vectors:
        assert [vector.rank1(j) for j in positions.tolist()] == want
        assert vector.rank1_many(positions).tolist() == want
        assert vector.batch_rank1()[0](positions).tolist() == want
        assert vector.rank1_many(firsts).tolist() == prefix[firsts].tolist()
    for _ in range(40):
        b = int(data.draw(st.sampled_from(positions.tolist()), label="b"))
        reach = data.draw(st.sampled_from([unit, 32 * unit, per, v.m]), label="reach")
        e = min(v.m, b + data.draw(st.integers(0, reach), label="e"))
        steps, lo, hi = [], b, e
        for _ in range(data.draw(st.integers(1, 2), label="levels")):
            rb, re = int(prefix[lo]), int(prefix[hi])
            if data.draw(st.booleans(), label="sign") and re < v.m:
                step = data.draw(st.integers(1, v.m - re), label="step")
                lo, hi = rb + step, re + step
            else:
                step = -data.draw(st.integers(0, v.m - hi + re), label="step")
                lo, hi = lo - rb - step, hi - re - step
            steps.append(step)
        for vector in vectors:
            assert vector.descend(steps, b, e) == (lo, hi), (b, e, steps)


@settings(max_examples=12, deadline=None)
@given(superblock_vectors(), st.data())
def test_every_rank_form_counts_from_the_vector_start_across_superblocks(case, data):
    # rank1, rank1_many, batch_rank1 and descend, at every position near a
    # superblock's edge or a tree's first bit or limit, and at others, equal
    # prefix popcounts from the vector's first bit, whichever tree holds the
    # position; a built vector's tables equal those of its loaded copy
    t, trees = case
    v = make_bitvector(np.concatenate(trees), t)
    loaded = read_payload(v.payload(), t, v.m)
    assert (v._stream, v._entries, v._ranks, v._bases) == (loaded._stream, loaded._entries, loaded._ranks, loaded._bases)
    kinds = v.sample_kinds()
    assert all(kinds.values()), kinds
    sample, log = RRR_SAMPLE_EVERY * t, _superblock_log(t)
    firsts = starts_of(trees)
    assert len(v._ranks) >= 3 and (firsts[1] // sample) % (1 << log)  # the second tree starts mid-superblock
    assert_every_rank_form_counts_from_the_vector_start((v, loaded), trees, t, sample << log, data)


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_every_plain_rank_form_counts_from_the_vector_start_across_superblocks(data):
    # the plain vector's two-level ranks, a 16-bit counter per word since its
    # superblock of 2^16 bits and a rank per superblock: three trees over at
    # least three superblocks, the second from mid-superblock and mid-word,
    # the first superblock all ones, so that its last word's counter is
    # 65,472, the most a 16-bit counter holds here, and the ranks after it
    # overflow 16 bits; each 2^12 bits are all zeros or ones, sparse or
    # dense. A built vector's words and ranks equal those of its loaded copy
    per = 1 << 16
    ms = np.array(
        [
            per + 64 * data.draw(st.integers(1, 1000), label="m0 words") + data.draw(st.integers(1, 56), label="m0 bits"),
            data.draw(st.integers(per, 2 * per), label="m1"),
            data.draw(st.integers(0, per // 2), label="m2"),
        ],
        dtype=np.int64,
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    trees = []
    for m in ms.tolist():
        density = np.repeat(rng.choice([0.0, 1.0, 0.01, 0.99, 0.5], -(-m // 4096)), 4096)[:m]
        trees.append((rng.random(m) < density).astype(np.uint8))
    trees[0][:per] = 1
    v = make_bitvector(np.concatenate(trees), 0)
    loaded = read_payload(v.payload(), 0, v.m)
    assert (v._words, v._counts, v._ranks) == (loaded._words, loaded._counts, loaded._ranks)
    firsts = starts_of(trees)
    assert len(v._ranks) >= 3 and firsts[1] % per and firsts[1] % 64  # the second tree starts mid-superblock and mid-word
    assert max(v._counts) == per - 64 and v._ranks[1] == per
    assert_every_rank_form_counts_from_the_vector_start((v, loaded), trees, 64, per, data)


@pytest.mark.parametrize("t", [1, 15, 16, 63])
def test_rrr_rank_tables_hold_4_bytes_per_sample_and_superblock_bases(t):
    # a u32 entry per sample and one for the samples' end, and per
    # superblock of 2^_superblock_log(t) entries a 64-bit rank and a 32-bit
    # stream element: what stored_bits charges, exactly
    rng = np.random.default_rng(t)
    bits = (rng.random(3 * (RRR_SAMPLE_EVERY * t << _superblock_log(t)) + 5 * t) < 0.3).astype(np.uint8)
    v = RrrBitVector(bits, t)
    samples = rrr_samples(len(bits), t)
    assert (v._entries.itemsize, len(v._entries)) == (4, samples + 1)
    supers = (samples >> _superblock_log(t)) + 1
    assert (len(v._ranks), len(v._bases)) == (supers, supers) == (4, 4)
    assert v.stored_bits()[1] == 8 * (4 * (samples + 1) + (8 + 4) * supers)
