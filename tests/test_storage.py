import hashlib
import io
import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmblock.bitio import BitWriter
from fmblock.bitrank import offset_of_value, offset_width, value_of_offset
from fmblock.fmindex import IndexVariant, build_index
from fmblock.storage import (
    MAGIC,
    CorruptIndexError,
    UnsupportedFormatError,
    deserialize,
    load_index,
    save_index,
    serialize,
)
from fmblock.textcore import Text, build_text, naive_count
from helpers import pattern_batch, random_codes

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


# SHA-256 of files written by the format-2 writer that looped over words and
# RRR blocks in Python; any change to the bytes written fails this test
PINNED_FILES = [
    ("ssa", None, 15, "740240eb63147b85eccd7eacdcdfe10557acbe3c73c718a8e5991ca881452edf"),
    ("ssa_rrr", None, 15, "b7be5f43c319671d0973ff0872da9c1fbdb74bc3e88d104418f94f98ceb45c0e"),
    ("fixed_block", 300, 15, "a425c4e88e0a26850b2f24e0efaefbd82ae8c9d0abc1bdc1b37914cd19d17153"),
    ("fixed_block_rrr", 300, 15, "414858d1a7169fa4b03a749dc3e5975df42aca0dd7cefb4f63f514889a670e67"),
    ("ssa_rrr", None, 63, "c2b39a6f1934e3061cbd685bd4bd53b3fddf07f1114b46a7c0dd98badc2a2de4"),
    ("fixed_block_rrr", 300, 5, "f85b295fc2e93c7b8c7c665eb12e93291c54a7554f4d2ec48b4bcb84e89a11b1"),
]


@pytest.mark.parametrize("variant,block_size,rrr_t,digest", PINNED_FILES)
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
    """Saved bytes of a one-node RRR index, its root's (class, offset) blocks replaced."""
    bv = ix.blocks[0].nodes[0]
    w = BitWriter()
    for k, _ in blocks:
        w.write(k, bv.class_field_width)
    for k, off in blocks:
        w.write(off, offset_width(bv.t, k))
    # the payload section is the last one before the 8-byte checksum section
    old = (len(blocks) * bv.class_field_width + bv.offset_bits + 7) // 8
    raw = to_bytes(ix)[: -8 - old - 4] + struct.pack("<I", len(w.getvalue())) + w.getvalue()
    return raw + struct.pack("<II", 4, zlib.crc32(raw))


@pytest.mark.parametrize("rrr_t", [3, 17, 63])
def test_out_of_range_rrr_offset_is_rejected_at_load(rrr_t):
    # over two symbols the root is the only node, and the sentinel's block is
    # the only one whose class k has comb(t, k) > 1 offsets
    ix = build_index(build_text(b"a" * 8), "ssa_rrr", rrr_block_size=rrr_t)
    blocks = ix.blocks[0].nodes[0].blocks()
    assert to_bytes(deserialize(_with_root_blocks(ix, blocks))) == to_bytes(ix)
    too_big = [(k, (1 << offset_width(rrr_t, k)) - 1) for k, _ in blocks]
    with pytest.raises(CorruptIndexError, match="rrr offset out of range"):
        deserialize(_with_root_blocks(ix, too_big))


def test_rrr_padding_ones_are_rejected_at_load():
    # n = 8 at t = 3: the last block holds 2 bits and 1 bit of padding
    ix = build_index(build_text(b"a" * 7), "ssa_rrr", rrr_block_size=3)
    blocks = ix.blocks[0].nodes[0].blocks()
    k, off = blocks[-1]
    padded = value_of_offset(off, 3, k) | 0b100
    blocks[-1] = (k + 1, offset_of_value(padded, 3, k + 1))
    with pytest.raises(CorruptIndexError, match="rrr padding bits"):
        deserialize(_with_root_blocks(ix, blocks))


def test_codebook_that_is_not_prefix_free_is_rejected_at_load():
    # a and b occur equally often, so the symbol-count check alone passes a
    # codebook that gives b the code of a
    ix = build_index(build_text(b"abbaabab" * 3 + b"ba"), "ssa")
    codes = dict(ix.blocks[0].codes)
    a, b = 1, 2
    codes[b] = codes[a]
    head = bytearray(struct.pack("<H", len(codes)))
    bits = BitWriter()
    for sym in sorted(codes):
        head += struct.pack("<HB", sym, codes[sym][0])
        bits.write(codes[sym][1], codes[sym][0])
    raw = to_bytes(ix)
    at = header = struct.calcsize("<8sHBBQIQI")
    sections = []
    while at < len(raw):
        (length,) = struct.unpack_from("<I", raw, at)
        sections.append(raw[at + 4 : at + 4 + length])
        at += 4 + length
    # remap, c array, codebook, payload, checksum
    sections[2] = bytes(head) + bits.getvalue()
    body = raw[:header] + b"".join(struct.pack("<I", len(sec)) + sec for sec in sections[:-1])
    with pytest.raises(CorruptIndexError, match="prefix-free"):
        deserialize(body + struct.pack("<II", 4, zlib.crc32(body)))


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
    bumped = raw[:8] + struct.pack("<H", 9) + raw[10:]
    with pytest.raises(UnsupportedFormatError, match="version"):
        deserialize(bumped)


def test_truncation_is_rejected():
    raw = to_bytes(build_index(build_text(b"BANANA"), "fixed_block", 3))
    for cut in (4, len(raw) // 2, len(raw) - 1):
        with pytest.raises(CorruptIndexError, match="corrupt index"):
            deserialize(raw[:cut])
    with pytest.raises(CorruptIndexError, match="trailing"):
        deserialize(raw + b"\x00")


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


def test_version_1_files_are_rejected():
    raw = to_bytes(build_index(build_text(b"BANANA"), "fixed_block", 3))
    old = raw[:8] + struct.pack("<H", 1) + raw[10:]
    with pytest.raises(UnsupportedFormatError, match="unsupported format: version 1"):
        deserialize(old)


def test_file_size_matches_report_within_padding():
    rng = random.Random(1)
    for variant in ALL_VARIANTS:
        codes = random_codes(rng, 700, 7)
        t = Text.from_codes(codes, 7)
        ix = build_index(t, variant, 80 if variant.fixed else None)
        raw = to_bytes(ix)
        rep = ix.size_report()
        # directories and boundary rows are derived at load, the checksum is stored
        stored = rep.total - rep.rank_directories - rep.boundary_occ + 32
        nsections = 3 + 2 * len(ix.blocks)
        header_bits = 8 * struct.calcsize("<8sHBBQIQI") + 32 * nsections
        assert 8 * len(raw) >= stored + header_bits
        assert 8 * len(raw) <= stored + header_bits + 7 * nsections


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
