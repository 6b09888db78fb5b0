import gc
import hashlib
import io
import itertools
import math
import random
import re
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmblock.bitrank import (
    PlainBitVector,
    RrrBitVector,
    offset_of_value,
    offset_width,
    value_of_offset,
    _decode_table,
)
from fmblock.fmindex import BlockedFMIndex, IndexVariant, build_index
from fmblock.storage import (
    MAGIC,
    VERSION,
    CorruptIndexError,
    UnsupportedFormatError,
    deserialize,
    load_index,
    save_index,
    serialize,
)
from fmblock.textcore import Text, build_text, bwt, naive_count, naive_rank
from helpers import markov2_codes, pattern_batch, random_codes, rrr_payload, watch_load_ranks

ALL_VARIANTS = list(IndexVariant)


def to_bytes(ix):
    buf = io.BytesIO()
    n = serialize(ix, buf)
    raw = buf.getvalue()
    assert n == len(raw)
    return raw


def test_round_trip_all_variants():
    rng = random.Random(0)
    for variant in ALL_VARIANTS:
        sigma = rng.choice([2, 4, 26])
        codes = random_codes(rng, rng.randint(5, 400), sigma)
        t = Text.from_codes(codes, sigma)
        ix = build_index(t, variant, 37 if variant.fixed else None)
        back = deserialize(to_bytes(ix))
        assert back.variant == ix.variant
        assert back.n == ix.n and back.sigma == ix.sigma
        assert back.block_size == ix.block_size
        for p in pattern_batch(rng, codes, sigma, extracted=20, adversarial=10):
            assert back.count_codes(p) == ix.count_codes(p)
        for c in range(sigma):
            for j in (0, 1, ix.n // 2, ix.n):
                assert back.rank_l(c, j) == ix.rank_l(c, j)


def test_serialization_is_byte_deterministic():
    t = build_text(b"the quick brown fox jumps over the lazy dog" * 9)
    for variant in ALL_VARIANTS:
        ix = build_index(t, variant, 64 if variant.fixed else None)
        raw1 = to_bytes(ix)
        raw2 = to_bytes(ix)
        assert raw1 == raw2
        assert to_bytes(deserialize(raw1)) == raw1


# SHA-256 of files written by the first format-9 writer; any change to the
# bytes written fails this test
PINNED_FILES = [
    ("ssa", None, 15, "780ff464676c6a62130a76c628eae075ba057b6591df8b9f07077edf565f8026"),
    ("ssa_rrr", None, 15, "1a58f6daf7b68827b86afa2c6659174bd39ae38998c5fe39ee8ff412e4769326"),
    ("fixed_block", 300, 15, "c8467c3ea2261430250e5f9682b3779f9f1139903e43190a35f7b9ee321233c7"),
    ("fixed_block_rrr", 300, 15, "a012c23f449a45ec16f1ea3fb9f625668ee2b6ad3ff19833586e40be512a59ad"),
    ("ssa_rrr", None, 63, "72154ce90c305af96b333155d2bf372141dd925fef711495eae5f5248a590891"),
    ("fixed_block_rrr", 300, 5, "077b1f09f5bfcaae475f89efe7ebfa11766cc7fc3cb619bb1bd9ab42363b245b"),
]


@pytest.mark.parametrize(
    "variant,block_size,rrr_t,digest", PINNED_FILES, ids=[f"{v}-{b}-{t}" for v, b, t, _ in PINNED_FILES]
)
def test_saved_bytes_are_pinned(variant, block_size, rrr_t, digest):
    raw = b"fixed block compression boosting " * 50 + bytes(i * i % 256 for i in range(1500))
    ix = build_index(build_text(raw), variant, block_size, rrr_t)
    saved = to_bytes(ix)
    assert hashlib.sha256(saved).hexdigest() == digest
    assert to_bytes(deserialize(saved)) == saved


@pytest.mark.parametrize("ssa,fixed", [("ssa", "fixed_block"), ("ssa_rrr", "fixed_block_rrr")])
def test_ssa_is_saved_as_the_fixed_block_index_of_one_block(ssa, fixed):
    t = build_text(b"fixed block compression boosting " * 20)
    one = to_bytes(build_index(t, ssa))
    whole = to_bytes(build_index(t, fixed, t.n))

    def rest(raw):
        # all but the variant byte, the block-size field and the checksum
        return raw[:10] + raw[11:24] + raw[32:-4]

    assert rest(one) == rest(whole)
    assert one[10] != whole[10] and one[-4:] != whole[-4:]
    assert struct.unpack_from("<Q", one, 24) == (0,)
    assert struct.unpack_from("<Q", whole, 24) == (t.n,)
    assert deserialize(one).block_size == t.n


@pytest.mark.parametrize("variant", ["ssa", "ssa_rrr"])
def test_ssa_header_block_size_other_than_zero_is_rejected(variant):
    t = build_text(b"BANANA")
    raw = to_bytes(build_index(t, variant))
    body = raw[:24] + struct.pack("<Q", t.n) + raw[32:-8]
    with pytest.raises(CorruptIndexError, match="corrupt index: block count"):
        deserialize(body + struct.pack("<II", 4, zlib.crc32(body)))


def _with_root_blocks(ix, blocks):
    """Saved bytes of a one-node RRR index, its root's (class, offset) blocks replaced, every sample stored as RRR."""
    bv = ix.blocks[0].bits
    return _with_section(to_bytes(ix), PAYLOAD, lambda body: rrr_payload(bv.t, bv.m, blocks))


@pytest.mark.parametrize("rrr_t", [3, 17, 63])
def test_out_of_range_rrr_offset_is_rejected_at_load(rrr_t):
    # over two symbols the root is the only node, and the sentinel's block is
    # the only one whose class k has comb(t, k) > 1 offsets
    ix = build_index(build_text(b"a" * 8), "ssa_rrr", rrr_block_size=rrr_t)
    blocks = ix.blocks[0].bits.blocks()
    assert deserialize(_with_root_blocks(ix, blocks)).count(b"aa") == 7
    too_big = [(k, (1 << offset_width(rrr_t, k)) - 1) for k, _ in blocks]
    with pytest.raises(CorruptIndexError, match="rrr offset out of range"):
        deserialize(_with_root_blocks(ix, too_big))


@pytest.mark.parametrize("rrr_t,k,off", [(5, 4, 7), (15, 13, 127)])
def test_rrr_offset_past_the_decode_table_is_rejected_at_load(rrr_t, k, off):
    # the root's end is in the last block, which reading the tree decodes:
    # starts[k] + off runs past the 2^t words of every t-bit word in (class,
    # offset) order, the table batch_rank1 makes, and the decode table holds
    # fewer words still
    ix = build_index(build_text(b"a" * 8), "ssa_rrr", rrr_block_size=rrr_t)
    blocks = ix.blocks[0].bits.blocks()
    assert off < 1 << offset_width(rrr_t, k)
    assert sum(math.comb(rrr_t, j) for j in range(k)) + off >= 1 << rrr_t
    blocks[-1] = (k, off)
    with pytest.raises(CorruptIndexError, match="rrr offset out of range"):
        deserialize(_with_root_blocks(ix, blocks))


@pytest.mark.parametrize("rrr_t,k,off", [(15, 11, 2047), (16, 13, 1023)])
def test_rrr_offset_past_an_upper_class_is_rejected_at_load(rrr_t, k, off):
    # a class above (t - 1) / 2 decodes, after the top-bit peel, as the
    # complement of the word at starts[k - 1] - (off - splits[k]): an offset
    # at or above comb(t, k) reads below the decode table, where an array
    # index wraps to its end with no error
    ix = build_index(build_text(b"a" * 8), "ssa_rrr", rrr_block_size=rrr_t)
    blocks = ix.blocks[0].bits.blocks()
    assert 2 * k > rrr_t - 1 and math.comb(rrr_t, k) <= off < 1 << offset_width(rrr_t, k)
    _, starts, splits, _, _ = _decode_table(rrr_t)
    assert off >= splits[k] and starts[k - 1] - (off - splits[k]) < 0
    blocks[-1] = (k, off)
    with pytest.raises(CorruptIndexError, match="rrr offset out of range"):
        deserialize(_with_root_blocks(ix, blocks))


def test_out_of_range_rrr_offset_after_the_first_2_15_fields_is_rejected_at_load():
    # 3-bit blocks over 100,000 a's: the sentinel's block is the last of 33,334
    ix = build_index(build_text(b"a" * 100_000), "ssa_rrr", rrr_block_size=3)
    blocks = ix.blocks[0].bits.blocks()
    assert len(blocks) > 1 << 15 and offset_width(3, blocks[-1][0]) == 2
    blocks[-1] = (blocks[-1][0], 3)
    with pytest.raises(CorruptIndexError, match="rrr offset out of range"):
        deserialize(_with_root_blocks(ix, blocks))


def test_rrr_padding_ones_are_rejected_at_load():
    # n = 8 at t = 3: the last block holds 2 bits and 1 bit of padding
    ix = build_index(build_text(b"a" * 7), "ssa_rrr", rrr_block_size=3)
    blocks = ix.blocks[0].bits.blocks()
    k, off = blocks[-1]
    padded = value_of_offset(off, 3, k) | 0b100
    blocks[-1] = (k + 1, offset_of_value(padded, 3, k + 1))
    with pytest.raises(CorruptIndexError, match="rrr padding bits"):
        deserialize(_with_root_blocks(ix, blocks))


_HEADER_SIZE = struct.calcsize("<8sHBBQIQI")


def _sections(raw):
    """The section bodies of saved bytes, checksum included."""
    at = _HEADER_SIZE
    sections = []
    while at < len(raw):
        (length,) = struct.unpack_from("<I", raw, at)
        sections.append(raw[at + 4 : at + 4 + length])
        at += 4 + length
    return sections


def _with_section(raw, which, edit):
    """Saved bytes with edit(section) in place of section `which`, and a valid checksum."""
    sections = _sections(raw)
    sections[which] = edit(sections[which])
    body = raw[:_HEADER_SIZE] + b"".join(struct.pack("<I", len(sec)) + sec for sec in sections[:-1])
    return body + struct.pack("<II", 4, zlib.crc32(body))


# the sections of an index: remap, c array, codebooks, payload, checksum
CODEBOOK, PAYLOAD = 2, 3


def _codebook_entries(body, blocks, sigma, width):
    """[block, symbol, code length, count] of each entry of a codebooks section, read field by field from one Python int.

    The section is every block's sigma-bit presence map, then per listed
    symbol a 6-bit code length and a width-bit count, LSB first.
    """
    stream = int.from_bytes(body, "little")
    at = blocks * sigma
    entries = []
    for i, sym in ((i, sym) for i in range(blocks) for sym in range(sigma) if stream >> (i * sigma + sym) & 1):
        entries.append([i, sym, stream >> at & 63, stream >> (at + 6) & (1 << width) - 1])
        at += 6 + width
    return entries


def _codebook_section(entries, blocks, sigma, width):
    """The codebooks section of [block, symbol, code length, count] entries in block and symbol order: _codebook_entries undone."""
    stream = sum(1 << (i * sigma + sym) for i, sym, _, _ in entries)
    at = blocks * sigma
    for _, _, length, count in entries:
        stream |= (length | count << 6) << at
        at += 6 + width
    return stream.to_bytes(-(-at // 8), "little")


def _with_codebook(raw, edit):
    """Saved bytes with a valid checksum whose codebook entries, [block, symbol, code length, count] lists, are edit(entries)."""
    n, sigma, block_size, blocks = struct.unpack_from("<QIQI", raw, 12)
    shape = blocks, sigma, min(block_size or n, n).bit_length()
    return _with_section(raw, CODEBOOK, lambda body: _codebook_section(edit(_codebook_entries(body, *shape)), *shape))


LENGTH, COUNT = 2, 3  # the fields of a codebook entry, after its block and symbol


def _edited_entries(*changes):
    """An edit of the codebooks section of b"a" * 8's index (one block, sigma 2, 4-bit counts): (entry, field, value) changes."""

    def edit(body):
        entries = _codebook_entries(body, 1, 2, 4)
        for at, field, value in changes:
            entries[at][field] = value
        return _codebook_section(entries, 1, 2, 4)

    return edit


# Over b"a" * 8 the root is the only node: 9 bits, one 1 for each a. The
# codebooks section of one tree is its 2-bit presence map, then per symbol
# (the sentinel, then a) a 6-bit code length and a 4-bit count (n = 9): 22
# bits, 3 bytes; the payload holds the node alone: plain, its two bytes;
# RRR, one sample (its kind byte at byte 0): the 8 positions of its ones.
TREE_CHECKS = [
    ("ssa", 15, CODEBOOK, lambda body: bytes([body[0] & 0xFC]) + body[1:], "codebook alphabet size"),
    ("ssa", 15, CODEBOOK, lambda body: body[:2], "codebook entries"),
    ("ssa", 15, CODEBOOK, lambda body: body + b"\0", "codebook length"),
    ("ssa", 15, CODEBOOK, _edited_entries((0, LENGTH, 2)), "codebook code lengths"),
    # the sentinel's count of 1 set to 0 or 2, or a's 8 to 9: the block's
    # counts sum to 8 or 10, not 9
    ("ssa", 15, CODEBOOK, _edited_entries((0, COUNT, 0)), "codebook counts", "zero"),
    ("ssa", 15, CODEBOOK, _edited_entries((0, COUNT, 2)), "codebook counts", "one-more"),
    ("ssa_rrr", 15, CODEBOOK, _edited_entries((1, COUNT, 9)), "codebook counts"),
    # one a counted as the sentinel: the block's length, and the bits the
    # root routes, hold, but its ones are 8, not 7
    ("ssa", 15, CODEBOOK, _edited_entries((0, COUNT, 2), (1, COUNT, 7)), "node ones"),
    ("ssa_rrr", 15, CODEBOOK, _edited_entries((0, COUNT, 2), (1, COUNT, 7)), "node ones"),
    # t = 5 stores a 4-bit class, so a class byte can hold 7: a RRR sample of
    # no offset bytes, whose first block is of class 7
    (
        "ssa_rrr", 5, PAYLOAD, lambda body: bytes([0, 7]) + bytes(15),
        "rrr class out of range",
    ),
    # the kind byte fits, the positions it counts do not
    ("ssa_rrr", 63, PAYLOAD, lambda body: body[:1], "rrr offsets truncated"),
    # a sample's kind byte that gives its RRR offsets 2 bytes more than its classes do
    (
        "ssa_rrr", 5, PAYLOAD, lambda body: bytes([1, 5]) + bytes(17),
        "rrr sample kind",
    ),
    # the positions of the ones, unsorted, repeated, past the tree's 9 bits or past the sample's 160
    ("ssa_rrr", 5, PAYLOAD, lambda body: body[:1] + body[3:5] + body[1:3] + body[5:], "rrr positions", "unsorted"),
    ("ssa_rrr", 5, PAYLOAD, lambda body: body[:1] + body[1:3] * 2 + body[5:], "rrr positions", "repeated"),
    ("ssa_rrr", 5, PAYLOAD, lambda body: body[:-2] + struct.pack("<H", 9), "rrr positions", "past-the-tree"),
    (
        "ssa_rrr", 5, PAYLOAD, lambda body: bytes([0xC1]) + struct.pack("<H", 160),
        "rrr positions", "past-the-sample",
    ),
    ("ssa", 15, PAYLOAD, lambda body: body[:-1], "payload truncated"),
    ("ssa_rrr", 15, PAYLOAD, lambda body: b"", "payload truncated"),
    ("ssa", 15, PAYLOAD, lambda body: body + b"\0", "payload length"),
    ("ssa_rrr", 15, PAYLOAD, lambda body: body + b"\0", "payload length"),
    # one bit of the root flipped, an a read as the sentinel, and the counts
    # edited to match: the tree loads, with symbol counts other than the c
    # array's
    (
        "ssa", 15, (PAYLOAD, CODEBOOK),
        (lambda body: bytes([body[0] ^ 1]) + body[1:], _edited_entries((0, COUNT, 2), (1, COUNT, 7))),
        "symbol counts",
    ),
]


@pytest.mark.parametrize(
    "variant,rrr_t,which,edit,check",
    [case[:5] for case in TREE_CHECKS],
    ids=[
        "-".join([check.replace(" ", "-"), variant, *name])
        for variant, _, _, _, check, *name in TREE_CHECKS
    ],
)
def test_tree_section_checks_with_a_valid_checksum(variant, rrr_t, which, edit, check):
    # which and edit are a section and its edit, or a tuple of each
    raw = to_bytes(build_index(build_text(b"a" * 8), variant, rrr_block_size=rrr_t))
    edited = raw
    for section, change in zip(*((which, edit) if isinstance(which, tuple) else ((which,), (edit,)))):
        assert to_bytes(deserialize(_with_section(raw, section, lambda body: body))) == raw
        edited = _with_section(edited, section, change)
    with pytest.raises(CorruptIndexError) as info:
        deserialize(edited)
    assert str(info.value) == f"corrupt index: {check}"


def _moved(source, target):
    """A codebook edit that moves one count from entry source to entry target: the block's sum holds."""

    def edit(entries):
        entries[source][COUNT] -= 1
        entries[target][COUNT] += 1
        return entries

    return edit


# A root and one child over the sentinel, x a's and two b's: a has a 1-bit
# code, b and the sentinel 2-bit ones, so the payload's bit count M is
# x + 6, which the codebooks give. The section holds a byte more or less
# than M's bytes, or the codebooks move one count between a and b, so that
# the nodes route one bit past the section's last byte, or end a whole
# byte short of it
PLAIN_M_CHECKS = [
    (10, PAYLOAD, lambda body: body + b"\0", "payload length", "one-more-byte"),
    (10, PAYLOAD, lambda body: body[:-1], "payload truncated", "one-byte-fewer"),
    (10, CODEBOOK, _moved(1, 2), "payload truncated", "past-the-nodes"),
    (11, CODEBOOK, _moved(2, 1), "payload length", "short-of-the-nodes"),
]


@pytest.mark.parametrize("a,which,edit,check", [case[:4] for case in PLAIN_M_CHECKS], ids=[case[4] for case in PLAIN_M_CHECKS])
def test_a_plain_m_other_than_the_bits_its_nodes_route_is_rejected(a, which, edit, check):
    ix = build_index(build_text(b"a" * a + b"bb"), "ssa")
    raw = to_bytes(ix)
    assert ix.blocks.code_length_bits == a + 6 and len(_sections(raw)[PAYLOAD]) == -(-(a + 6) // 8)
    with pytest.raises(CorruptIndexError) as info:
        deserialize(_with_codebook(raw, edit) if which == CODEBOOK else _with_section(raw, PAYLOAD, edit))
    assert str(info.value) == f"corrupt index: {check}"


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_a_c_array_that_disagrees_with_the_trees_is_rejected(variant):
    # one a counted as a b: the c array still passes its own checks (c[0] = 0,
    # one sentinel, monotone, c[sigma] = n) but not the trees' symbol counts;
    # the fixed variants hold several blocks
    ix = build_index(build_text(b"abracadabra" * 4), variant, 8 if variant.fixed else None)
    assert len(ix.blocks) > 1 if variant.fixed else len(ix.blocks) == 1
    raw = to_bytes(ix)
    c = list(ix.c)
    c[2] += 1  # codes 1 and 2 are a (20 of them) and b (8)
    assert c[:2] == [0, 1] and c[-1] == ix.n and c == sorted(c)
    assert to_bytes(deserialize(_with_section(raw, 1, lambda body: body))) == raw
    with pytest.raises(CorruptIndexError) as info:
        deserialize(_with_section(raw, 1, lambda body: struct.pack(f"<{ix.sigma + 1}Q", *c)))
    assert str(info.value) == "corrupt index: symbol counts"


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("rrr_t", [1, 7, 15, 63])
def test_a_loaded_index_has_the_built_rrr_block_size(variant, rrr_t):
    # a plain index carries 0, as its header does
    ix = build_index(build_text(b"abracadabra"), variant, 4 if variant.fixed else None, rrr_t)
    assert ix.rrr_block_size == (rrr_t if variant.bitvector_backend == "rrr" else 0)
    assert deserialize(to_bytes(ix)).rrr_block_size == ix.rrr_block_size


def test_plain_payload_padding_bits_are_ignored_at_load():
    raw = to_bytes(build_index(build_text(b"a" * 8), "ssa"))
    # the root holds 9 bits, so the last payload byte has 7 bits of padding
    ix = deserialize(_with_section(raw, PAYLOAD, lambda body: body[:-1] + bytes([body[-1] | 0x80])))
    assert ix.blocks[0].bits.rank1(ix.blocks[0].leaf) == 8 and ix.count(b"aa") == 7
    assert to_bytes(ix) == raw


def test_plain_padding_ones_before_a_spare_word_are_ignored_at_load():
    # 63 bits fill the tree's eight bytes but for one padding bit, which the
    # load clears, as a build leaves it: no rank reads that far
    raw = to_bytes(build_index(build_text(b"a" * 62), "ssa"))
    ix = deserialize(_with_section(raw, PAYLOAD, lambda body: body[:-1] + bytes([body[-1] | 0x80])))
    bits = ix.blocks[0].bits
    assert bits.m == 63 and bits.rank1(bits.m) == 62
    assert ix.count(b"aa") == 61
    assert to_bytes(ix) == raw


def test_plain_padding_bits_of_every_block_are_ignored_at_load():
    # four blocks, their trees joined bit to bit, most ending inside a byte
    # that the next tree's first bits fill: the section's only padding bits
    # are those of its last byte, after the last block's tree, which a load
    # clears
    ix = build_index(build_text(b"fixed block compression boosting " * 4), "fixed_block", 40)
    raw = to_bytes(ix)
    m = ix.blocks.bits.m
    assert len(ix.blocks) >= 3 and m % 8 and sum(wt.leaf % 8 > 0 for wt in ix.blocks) >= 3
    padded = _with_section(raw, PAYLOAD, lambda body: body[:-1] + bytes([body[-1] | 0xFF << m % 8 & 0xFF]))
    back = deserialize(padded)
    assert padded != raw and to_bytes(back) == raw
    bits = back.blocks[0].bits
    assert [bits.rank1(wt.leaf) for wt in back.blocks] == [ix.blocks[0].bits.rank1(wt.leaf) for wt in ix.blocks]
    assert [back.rank_l(c, j) for c in range(ix.sigma) for j in range(ix.n + 1)] == [
        ix.rank_l(c, j) for c in range(ix.sigma) for j in range(ix.n + 1)
    ]


@pytest.mark.parametrize("variant", ["ssa", "ssa_rrr"])
def test_codebooks_that_imply_a_payload_longer_than_its_section_are_rejected_before_reading(variant):
    # codebooks that give a vector of 2^32 bits or more, in a payload of a
    # few bytes: rejected before anything of that size is made, where the
    # plain vector alone would take 10 GiB and the RRR one's kind bytes
    # 9 MB. The header's n is 2^31, the c array ends there, and one symbol
    # of a 5-bit code holds all but 5 of the counts, each now 32 bits wide
    ix = build_index(build_text(b"abracadabra"), variant)
    raw = to_bytes(ix)
    n, sigma = 1 << 31, ix.sigma
    assert sigma == 6 and struct.unpack_from("<Q", raw, 12) == (ix.n,)
    raw = _with_section(raw[:12] + struct.pack("<Q", n) + raw[20:], 1, lambda body: struct.pack("<7Q", 0, 1, 2, 3, 4, 5, n))
    entries = [[0, sym, length, 1] for sym, length in enumerate([1, 2, 3, 4, 5, 5])]
    entries[-1][COUNT] = n - 5
    huge = _with_section(raw, CODEBOOK, lambda body: _codebook_section(entries, 1, sigma, n.bit_length()))
    assert sum(length * count for _, _, length, count in entries) >= 1 << 32
    gc.collect()
    tracemalloc.start()
    try:
        with pytest.raises(CorruptIndexError, match="corrupt index: payload truncated"):
            deserialize(huge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("n", [2**32, 2**64 - 1])
def test_a_header_n_of_2_32_or_more_is_rejected(n):
    # past what a build's suffix array indexes; the c array ends at n
    raw = to_bytes(build_index(build_text(b"a" * 8), "ssa"))
    raw = _with_section(raw[:12] + struct.pack("<Q", n) + raw[20:], 1, lambda body: struct.pack("<3Q", 0, 1, n))
    with pytest.raises(CorruptIndexError, match="corrupt index: header ranges$"):
        deserialize(raw)


def test_a_block_count_the_codebooks_cannot_hold_is_rejected_before_any_block_array(monkeypatch):
    # block size 1 and n = block count = 2^32 - 1 in a file of a few bytes:
    # the codebooks section holds 9 blocks' presence maps, not 2^32 - 1, and
    # that is checked before any array of one entry per block is made, which
    # would take 34 GB at 8 bytes each
    raw = to_bytes(build_index(build_text(b"a" * 8), "fixed_block", 1))
    n = 2**32 - 1
    header = raw[:12] + struct.pack("<QIQI", n, 2, 1, n)
    raw = _with_section(header + raw[len(header) :], 1, lambda body: struct.pack("<3Q", 0, 1, n))

    def guarded(make):
        def made(shape, *args, **kwargs):
            assert math.prod(np.atleast_1d(shape).tolist()) <= 10**8, f"{make.__name__} of {shape} elements"
            return make(shape, *args, **kwargs)

        return made

    for name in ("empty", "zeros", "ones", "full"):
        monkeypatch.setattr(np, name, guarded(getattr(np, name)))
    with pytest.raises(CorruptIndexError, match="corrupt index: codebook entries$"):
        deserialize(raw)


@pytest.mark.parametrize(
    "text,lengths", [(b"ab" * 4, [1, 1, 1]), (b"a" * 8, [1, 2])], ids=["over-full", "under-full"]
)
def test_codebook_lengths_off_kraft_equality_are_rejected(text, lengths):
    raw = to_bytes(build_index(build_text(text), "ssa"))

    def edit(entries):
        assert len(entries) == len(lengths)
        return [[i, sym, length, count] for (i, sym, _, count), length in zip(entries, lengths)]

    with pytest.raises(CorruptIndexError) as info:
        deserialize(_with_codebook(raw, edit))
    assert str(info.value) == "corrupt index: codebook code lengths"


@pytest.mark.parametrize("variant", ["ssa", "ssa_rrr"])
def test_codebook_section_with_an_extra_byte_is_rejected(variant):
    raw = to_bytes(build_index(build_text(b"abracadabra"), variant))
    with pytest.raises(CorruptIndexError, match="corrupt index: codebook length"):
        deserialize(_with_section(raw, CODEBOOK, lambda body: body + b"\0"))


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_boundary_rows_are_the_prefix_symbol_counts(variant):
    # a long run of a puts a run of a into the BWT, so some middle blocks hold one symbol
    rng = random.Random(12)
    t = build_text(b"a" * 400 + bytes(rng.randrange(1, 256) for _ in range(400)))
    ix = build_index(t, variant, 16 if variant.fixed else None)
    if variant.fixed:
        assert any(len(ix.blocks[i].codes) == 1 for i in range(1, len(ix.blocks) - 1))
    l = np.asarray(bwt(t).l)
    for index in (ix, deserialize(to_bytes(ix))):
        assert len(index.blocks.rows) == len(index.blocks) * t.sigma
        for i in range(len(index.blocks)):
            row = index.blocks.rows[i * t.sigma : (i + 1) * t.sigma].tolist()
            assert row == np.bincount(l[: i * index.block_size], minlength=t.sigma).tolist()


def test_save_and_load_paths(tmp_path):
    t = build_text(b"BANANA")
    ix = build_index(t, "fixed_block", 3)
    path = tmp_path / "banana.idx"
    written = save_index(ix, path)
    assert path.stat().st_size == written
    back = load_index(path)
    assert back.count(b"ANA") == 2
    with pytest.raises(OSError, match="cannot read"):
        load_index(tmp_path / "missing.idx")


def test_bad_magic_and_version_are_unsupported():
    raw = to_bytes(build_index(build_text(b"BANANA"), "ssa"))
    with pytest.raises(UnsupportedFormatError, match="unsupported format"):
        deserialize(b"NOTMYIDX" + raw[8:])
    bumped = raw[:8] + struct.pack("<H", VERSION + 1) + raw[10:]
    with pytest.raises(UnsupportedFormatError, match="version"):
        deserialize(bumped)


def test_truncation_is_rejected():
    raw = to_bytes(build_index(build_text(b"BANANA"), "fixed_block", 3))
    for cut in (4, len(raw) // 2, len(raw) - 1):
        with pytest.raises(CorruptIndexError, match="corrupt index"):
            deserialize(raw[:cut])
    with pytest.raises(CorruptIndexError, match="trailing"):
        deserialize(raw + b"\x00")


@pytest.mark.parametrize("variant", ["fixed_block", "fixed_block_rrr"])
def test_every_section_walk_error_names_its_section(variant):
    ix = build_index(build_text(b"fixed block compression boosting"), variant, 8)
    raw = to_bytes(ix)
    blocks = len(ix.blocks)
    assert blocks == 5
    # five sections, whatever the block count
    names = ["remap", "c array", "codebooks", "payload", "checksum"]
    at = struct.calcsize("<8sHBBQIQI")
    for name in names:
        (length,) = struct.unpack_from("<I", raw, at)
        for cut in range(at, at + 4):
            with pytest.raises(CorruptIndexError) as info:
                deserialize(raw[:cut])
            assert str(info.value) == f"corrupt index: missing {name} section"
        for cut in range(at + 4, at + 4 + length):
            with pytest.raises(CorruptIndexError) as info:
                deserialize(raw[:cut])
            assert str(info.value) == f"corrupt index: truncated {name} section"
        at += 4 + length
    assert at == len(raw)
    with pytest.raises(CorruptIndexError) as info:
        deserialize(raw + b"\x00")
    assert str(info.value) == "corrupt index: trailing data"


def test_tampered_fields_are_rejected():
    ix = build_index(build_text(b"BANANA"), "fixed_block", 3)
    raw = to_bytes(ix)

    bad_variant = bytearray(raw)
    bad_variant[10] = 7
    with pytest.raises(CorruptIndexError, match="variant"):
        deserialize(bytes(bad_variant))

    # c_array section starts after the header and the remap section
    remap_at = struct.calcsize("<8sHBBQIQI")
    c_at = remap_at + 4 + 3
    bad_c = bytearray(raw)
    bad_c[c_at + 4 : c_at + 12] = struct.pack("<Q", 5)  # c[0] must stay 0
    with pytest.raises(CorruptIndexError, match="c_array"):
        deserialize(bytes(bad_c))

    bad_remap = bytearray(raw)
    bad_remap[remap_at + 4] = bad_remap[remap_at + 5]  # duplicates break ascending order
    with pytest.raises(CorruptIndexError, match="remap"):
        deserialize(bytes(bad_remap))


def test_tampered_payload_fails_count_validation():
    ix = build_index(build_text(b"BANANA" * 30), "ssa")
    raw = bytearray(to_bytes(ix))
    # raw[-9] is the last payload byte, just before the checksum section's
    # length and CRC; the checksum rejects the flip before any tree is parsed
    raw[-9] ^= 0xFF
    with pytest.raises(CorruptIndexError):
        deserialize(bytes(raw))


def test_every_single_byte_flip_is_rejected_at_load():
    rng = random.Random(5)
    text = build_text(bytes(rng.choice(b"abcdefgh \n") for _ in range(300)))
    for variant in ALL_VARIANTS:
        raw = to_bytes(build_index(text, variant, 64 if variant.fixed else None))
        for at in range(len(raw)):
            mutant = bytearray(raw)
            mutant[at] ^= 0xFF
            with pytest.raises((CorruptIndexError, UnsupportedFormatError)):
                deserialize(bytes(mutant))


def test_edits_with_a_valid_checksum_are_rejected_or_count_alike():
    # single- and multi-byte edits of every variant's file, RRR at t = 4, 15
    # and 63, each with its checksum recomputed, so that only the checks after
    # the checksum's see them (the magic and version are left alone: they
    # fail as unsupported). A file either fails to load as corrupt, or loads
    # and counts every probe alike one at a time and in a batch, with no
    # other exception at load or at query time
    rng = random.Random(29)
    data = bytes(rng.choice(b"abcdefgh \n") for _ in range(300)) + b"abracadabra" * 8 + b"a" * 40
    text = build_text(data)
    probes = sorted({data[at : at + ln] for at in range(0, len(data), 13) for ln in (1, 2, 3, 5)}) + [b"zz", b"a" * 41]
    builds = [(v, t) for v in ALL_VARIANTS for t in ((4, 15, 63) if v.bitvector_backend == "rrr" else (15,))]
    loaded = 0
    for variant, t in builds:
        body = to_bytes(build_index(text, variant, 64 if variant.fixed else None, t))[:-8]
        for trial in range(250):
            mutant = bytearray(body)
            for _ in range(1 if trial % 2 else rng.randint(2, 6)):
                mutant[rng.randrange(len(MAGIC) + 2, len(body))] ^= rng.randrange(1, 256)
            try:
                back = deserialize(bytes(mutant) + struct.pack("<II", 4, zlib.crc32(mutant)))
            except CorruptIndexError:
                continue
            loaded += 1
            assert [back.count(p) for p in probes] == back.count_many(probes), (variant, t, trial)
    assert loaded  # some edits pass every check, and their files are counted


def test_an_rrr_load_peaks_within_a_multiple_of_its_file():
    # 400,000 Zipf-drawn symbols of 40: about 3,660 samples, nearly all RRR.
    # The sample checks read the offsets in a bounded walk, an eighth of the
    # samples at a time; over all samples at once their int64 temporaries
    # took a peak of 16.6 times the file's bytes here. The bound is 1.5 times
    # the 7.3 measured with a walk of 1,024 samples at a time. 400,000
    # symbols of an order-2 Markov chain make mostly sparse samples, and
    # small trees in fixed blocks, so there the positions check and the
    # arrays the tree reads hold per path step set the peak
    rng = np.random.default_rng(29)
    zipf = Text.from_codes((rng.zipf(1.3, 400_000) % 39 + 1).tolist(), 40)
    markov = Text.from_codes(markov2_codes(0, 400_000), 8)
    for t, variant in itertools.product((zipf, markov), ("ssa_rrr", "fixed_block_rrr")):
        raw = to_bytes(build_index(t, variant))
        deserialize(raw)  # the decode table, made once per process, is not the load's
        gc.collect()
        tracemalloc.start()
        try:
            deserialize(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 7.3 * len(raw), (variant, peak / len(raw))


def test_version_1_files_are_rejected():
    raw = to_bytes(build_index(build_text(b"BANANA"), "fixed_block", 3))
    for version in (1, 2, 4, 5, 6, 7, 8):
        old = raw[:8] + struct.pack("<H", version) + raw[10:]
        with pytest.raises(UnsupportedFormatError, match=f"unsupported format: version {version}$"):
            deserialize(old)


def test_format_doc_title_names_the_written_version():
    doc = (Path(__file__).parents[1] / "docs" / "FORMAT.md").read_text(encoding="utf-8")
    title = re.match(r"# Index file format \(version (\d+)\)\n", doc)
    assert title and int(title.group(1)) == VERSION


@pytest.mark.parametrize("variant", ["ssa_rrr", "fixed_block_rrr"])
def test_saving_an_rrr_index_makes_no_rank1_call(variant, monkeypatch):
    ix = build_index(build_text(b"abracadabra" * 40), variant, 100 if variant == "fixed_block_rrr" else None)
    calls = []
    rank1 = RrrBitVector.rank1
    monkeypatch.setattr(RrrBitVector, "rank1", lambda self, j: calls.append(j) or rank1(self, j))
    raw = to_bytes(ix)
    assert calls == []
    monkeypatch.undo()
    assert to_bytes(deserialize(raw)) == raw


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_a_load_makes_one_rank1_call_per_node_and_per_check(variant, monkeypatch):
    # the symbol counts' check takes rank_l at n, once per symbol, which reads
    # the totals of the leaf sizes the node walk already has, as the boundary
    # rows do. rank1_many ranks each internal node once, at its end, and an
    # RRR vector's end once for its padding bits; it ranks each of its
    # positions once, with rank1 in a call of few positions, else in numpy
    # (every call at a cut of 0), and nothing else is ranked
    text = build_text(b"abracadabra" * 40 + bytes(range(1, 200)) + b"a" * 300)
    ix = build_index(text, variant, 100 if variant.fixed else None)
    raw = to_bytes(ix)
    rrr = variant.bitvector_backend == "rrr"
    vector = RrrBitVector if rrr else PlainBitVector
    rank_l = BlockedFMIndex.rank_l
    for cut in (vector._SCALAR_RANKS, 0):
        many, ranked = watch_load_ranks(monkeypatch, vector, cut)
        ranked_l = []
        monkeypatch.setattr(BlockedFMIndex, "rank_l", lambda self, c, j: ranked_l.append((c, j)) or rank_l(self, c, j))
        back = deserialize(raw)
        monkeypatch.undo()
        assert sorted(ranked) == sorted(j for call in many for j in call)
        assert ranked_l == [(c, ix.n) for c in range(ix.sigma)]
        if variant.fixed:
            assert any(len(wt.codes) == 1 for wt in back.blocks)
        if rrr:
            assert many.pop(0) == [back.blocks.bits.m]
        # a Huffman tree over k symbols has k - 1 internal nodes, which lie
        # between its start and its leaf, where the last one ends
        ends = sorted(j for level in many for j in level)
        assert len(ends) == len(set(ends)) == sum(len(wt.codes) - 1 for wt in back.blocks)
        for wt in back.blocks:
            mine = [j for j in ends if wt.start < j <= wt.leaf]
            assert len(mine) == len(wt.codes) - 1 and mine[-1:] == [wt.leaf][: len(mine)]
        assert to_bytes(back) == raw


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_a_load_makes_at_most_two_rank1_many_calls_whatever_the_depth(variant, monkeypatch):
    # code c occurring 2^(c - 1) times, and the sentinel once, give a Huffman
    # tree one level per symbol: 15 deep over 16 symbols, 32,768 elements.
    # The stored counts give every node, so a load ranks an RRR vector's tree
    # ends for its padding bits, then every node's end, in one call, whatever
    # the depth
    codes = [c for c in range(1, 16) for _ in range(1 << (c - 1))]
    random.Random(3).shuffle(codes)
    ix = build_index(Text.from_codes(codes, 16), variant, 20_000 if variant.fixed else None)
    assert max(length for length, _ in ix.blocks[0].codes.values()) == 15
    raw = to_bytes(ix)
    vector = RrrBitVector if variant.bitvector_backend == "rrr" else PlainBitVector
    many, _ = watch_load_ranks(monkeypatch, vector, vector._SCALAR_RANKS)
    back = deserialize(raw)
    monkeypatch.undo()
    assert len(many) == (2 if vector is RrrBitVector else 1)
    assert len(many[-1]) == sum(len(wt.codes) - 1 for wt in back.blocks)
    assert to_bytes(back) == raw


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_count_edits_with_a_valid_checksum_are_rejected(variant):
    # one count one more or one less, in a middle block of the fixed
    # variants, breaks its block's sum; one unit moved between two symbols
    # of one code length keeps the sum and the bits the tree routes, and the
    # payload's ones disagree at the node where their codes part
    rng = random.Random(11)
    text = build_text(bytes(rng.choice(b"abcdefgh \n") for _ in range(600)))
    raw = to_bytes(build_index(text, variant, 128 if variant.fixed else None))
    n, sigma, block_size, blocks = struct.unpack_from("<QIQI", raw, 12)
    entries = _codebook_entries(_sections(raw)[CODEBOOK], blocks, sigma, min(block_size or n, n).bit_length())
    block = blocks // 2
    mine = [at for at, (i, *_) in enumerate(entries) if i == block]
    source, target = next(
        (a, b) for a in mine for b in mine if a != b and entries[a][LENGTH] == entries[b][LENGTH] and entries[a][COUNT] > 1
    )

    def changed(*changes):
        def edit(entries):
            for at, delta in changes:
                entries[at][COUNT] += delta
            return entries

        return edit

    for edit, check in [
        (changed((source, 1)), "codebook counts"),
        (changed((source, -1)), "codebook counts"),
        (changed((source, -1), (target, 1)), "node ones"),
    ]:
        with pytest.raises(CorruptIndexError) as info:
            deserialize(_with_codebook(raw, edit))
        assert str(info.value) == f"corrupt index: {check}"
    assert to_bytes(deserialize(_with_codebook(raw, changed()))) == raw


def test_file_size_matches_report_within_padding():
    rng = random.Random(1)
    for variant in ALL_VARIANTS:
        codes = random_codes(rng, 700, 7)
        t = Text.from_codes(codes, 7)
        ix = build_index(t, variant, 80 if variant.fixed else None)
        raw = to_bytes(ix)
        rep = ix.size_report()
        # directories and boundary rows are derived at load, the checksum is
        # stored; a plain vector's bytes may end in up to 7 padding bits, an
        # RRR vector's are whole
        stored = rep.total - rep.rank_directories - rep.boundary_occ + 32
        header_bits = 8 * struct.calcsize("<8sHBBQIQI") + 32 * 5
        padding = 0 if variant.bitvector_backend == "rrr" else 7
        assert 8 * len(raw) >= stored + header_bits
        assert 8 * len(raw) <= stored + header_bits + padding


def test_write_failure_reports_progress():
    class Flaky:
        def __init__(self):
            self.calls = 0

        def write(self, data):
            self.calls += 1
            if self.calls > 2:
                raise OSError("disk full")

    ix = build_index(build_text(b"BANANA"), "ssa")
    with pytest.raises(OSError, match="after \\d+ bytes"):
        serialize(ix, Flaky())


def test_deserialize_accepts_file_objects_and_bytes():
    ix = build_index(build_text(b"BANANA"), "ssa_rrr")
    raw = to_bytes(ix)
    assert deserialize(io.BytesIO(raw)).count(b"ANA") == 2
    assert deserialize(raw).count(b"ANA") == 2
    assert MAGIC == raw[:8]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_random_indexes_count_exactly_and_round_trip_byte_identically(data):
    sigma = data.draw(st.integers(2, 30), label="sigma")
    n = data.draw(st.integers(1, 700), label="n")
    codes = data.draw(st.lists(st.integers(1, sigma - 1), min_size=n, max_size=n), label="codes")
    variant = data.draw(st.sampled_from(ALL_VARIANTS), label="variant")
    block_size = data.draw(st.integers(1, n + 1), label="block_size") if variant.fixed else None
    rrr_t = data.draw(st.integers(1, 63), label="rrr_t")
    spans = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 8)), max_size=12))
    t = Text.from_codes(codes, sigma)
    ix = build_index(t, variant, block_size, rrr_t)
    raw = to_bytes(ix)
    back = deserialize(raw)
    # substrings, and one pattern longer than the text, which cannot occur
    for pattern in [codes[at : at + ln] for at, ln in spans] + [codes + [1]]:
        want = naive_count(t, pattern)
        assert ix.count_codes(pattern) == want
        assert back.count_codes(pattern) == want
    assert to_bytes(back) == raw


@pytest.mark.parametrize("t", [0, 1, 3, 15, 17, 31], ids=lambda t: f"rrr-{t}" if t else "plain")
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fixed_block_trees_share_one_vector_bit_to_bit(t, data):
    # each block's tree starts where the one before it ends, in one vector
    # (plain for t = 0) that ends with the last tree, built and loaded. Over
    # two symbols a block's tree has one node, of b bits: b ends it on a
    # byte, word, t-bit block or sample (every 32 blocks), or one bit off
    # one; long runs of one symbol make trees with no node, and block size
    # 1 makes only those, a vector of no bits
    sizes = {1, 56, 57, 63, 64, 65, 128, 129} if t == 0 else {1, t - 1, t, t + 1, 2 * t, 32 * t - 1, 32 * t, 32 * t + 1, 64 * t} - {0}
    block_size = data.draw(st.sampled_from(sorted(sizes)), label="block_size")
    sigma = data.draw(st.sampled_from([2, 3, 3, 4, 6]), label="sigma")
    n = data.draw(st.integers(1, 3000), label="n")
    run = data.draw(st.sampled_from([1, 1, 10, 300]), label="mean run")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    codes = np.repeat(rng.integers(1, sigma, n), rng.geometric(1 / run, n))[:n].tolist()
    text = Text.from_codes(codes, sigma)
    ix = build_index(text, "fixed_block_rrr" if t else "fixed_block", block_size, t or 15)
    raw = to_bytes(ix)
    back = deserialize(raw)
    l = bwt(text).l
    for index in (ix, back):
        starts, leaves = index.blocks.starts.tolist(), index.blocks.leaves.tolist()
        assert all(wt.bits is index.blocks.bits for wt in index.blocks)
        assert starts[0] == 0 and starts[1:] == leaves[:-1] and leaves[-1] == index.blocks.bits.m
        for c in range(sigma):
            assert [index.rank_l(c, j) for j in range(text.n + 1)] == [
                naive_rank(l, c, j) for j in range(text.n + 1)
            ]
    assert to_bytes(back) == raw


def test_fixed_block_trees_of_no_node_make_a_vector_of_no_bits():
    # block size 1: every tree holds one symbol and no node, under either backend
    text = build_text(b"ab" * 4)
    for variant in ("fixed_block", "fixed_block_rrr"):
        ix = build_index(text, variant, 1)
        back = deserialize(to_bytes(ix))
        for index in (ix, back):
            assert index.blocks.bits.m == 0 and set(index.blocks.starts) == set(index.blocks.leaves) == {0}
            assert [index.count(p) for p in (b"a", b"ab", b"ba", b"abab", b"bb")] == [4, 4, 3, 3, 0]
        assert to_bytes(back) == to_bytes(ix)


def test_a_load_keeps_no_object_per_block_and_symbol(tmp_path):
    # 782 blocks of 256 symbols: every path, step and boundary count sits in a
    # flat table, about 220 bytes of heap per block here, where one tuple per
    # (block, symbol) and an int per step held 600
    t = Text.from_codes(markov2_codes(0, 200_000), 8)
    path = tmp_path / "markov.fmi"
    save_index(build_index(t, "fixed_block", 256), path)
    gc.collect()
    tracemalloc.start()
    try:
        ix = load_index(path)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(ix.blocks) == 782
    assert held / len(ix.blocks) <= 300


@pytest.mark.parametrize("rrr_t", [1, 15, 16, 63])
def test_a_loaded_rrr_vector_of_many_trees_reads_back_its_blocks(rrr_t):
    # the blocks of one vector of many trees, loaded, are the built ones
    ix = build_index(build_text(b"fixed block compression boosting " * 20), "fixed_block_rrr", 100, rrr_t)
    back = deserialize(to_bytes(ix))
    assert len(back.blocks) > 2
    built, loaded = ix.blocks.bits, back.blocks.bits
    assert loaded.blocks() == built.blocks()
    assert loaded.to_bits().tolist() == built.to_bits().tolist()


@pytest.mark.parametrize("variant", ["fixed_block", "fixed_block_rrr"])
@pytest.mark.parametrize("block_size", [1, 2])
def test_a_load_reads_one_tree_per_symbol_or_pair(variant, block_size):
    # n trees of one symbol each (no node) or n / 2 of at most two: every
    # depth's nodes, and every RRR tree's padding check, are read at once
    codes = random_codes(random.Random(block_size), 300, 9)
    t = Text.from_codes(codes, 9)
    ix = build_index(t, variant, block_size)
    raw = to_bytes(ix)
    back = deserialize(raw)
    assert len(back.blocks) == -(-t.n // block_size)
    assert to_bytes(back) == raw
    assert back.blocks.rows == ix.blocks.rows
    patterns = [codes[at : at + ln] for at in range(0, 290, 7) for ln in (1, 2, 5)]
    want = [naive_count(t, p) for p in patterns]
    assert [back.count_codes(p) for p in patterns] == want
    l = bwt(t).l
    for c in range(9):
        assert [back.rank_l(c, j) for j in range(0, t.n + 1, 3)] == [naive_rank(l, c, j) for j in range(0, t.n + 1, 3)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_built_index_equals_its_loaded_copy(data):
    # a build lays its trees out as a load does: the same tables, the same
    # plain words and rank directories or RRR sample stream and rank tables, and
    # the same saved bytes
    variant = data.draw(st.sampled_from(ALL_VARIANTS), label="variant")
    rrr_t = data.draw(st.sampled_from([1, 15, 16, 63]), label="rrr_t")
    sigma = data.draw(st.integers(2, 12), label="sigma")
    n = data.draw(st.integers(1, 600), label="n")
    t = Text.from_codes(random_codes(random.Random(data.draw(st.integers(0, 2**32), label="seed")), n, sigma), sigma)
    block_size = data.draw(st.sampled_from([1, 2, 63, 64, 65, n, n + 1]), label="block_size") if variant.fixed else None
    ix = build_index(t, variant, block_size, rrr_t)
    raw = to_bytes(ix)
    back = deserialize(raw)
    for name in ("paths", "steps", "starts", "leaves", "rows", "totals"):
        assert getattr(back.blocks, name) == getattr(ix.blocks, name), name
    built, loaded = ix.blocks.bits, back.blocks.bits
    assert built.m == loaded.m
    if variant.bitvector_backend == "plain":
        assert (built._words, built._counts, built._ranks) == (loaded._words, loaded._counts, loaded._ranks)
    else:
        assert (built._stream, built._entries, built._ranks, built._bases) == (loaded._stream, loaded._entries, loaded._ranks, loaded._bases)
    assert to_bytes(back) == raw
