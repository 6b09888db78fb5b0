"""Bitvectors with fast rank.

Two interchangeable representations:

* PlainBitVector keeps the raw bits in one buffer of 64-bit words, read
  through memoryview.cast("Q"), and one 32-bit counter per word through
  .cast("I"): the ones before the word. A word holds its first bit in the
  most significant place, so the ones before a position are the word
  shifted right, with no mask to build: a rank is one counter plus one
  shift and one popcount. One vector can hold many trees, each from a
  fresh word and with its own counters (see plain_words).
* RrrBitVector stores each t-bit block as a popcount class plus an
  enumerative offset that identifies the block among all t-bit words of
  that class in ascending numeric order, with uint32 (offset position,
  rank) samples every 32 blocks. The classes are one byte each, so a rank
  sums the classes since the last sample, and their offset widths through
  a 256-byte translation table, without a Python loop.

A wavelet tree keeps all its nodes in one vector, joined bit to bit in
level order under either backend. This module owns the layout of that
vector in the index file, which is the vector's own stored form: a plain
tree stores its raw bits, an RRR tree (stored_bits()) its bit count m as a
u32, then the class fields of all its blocks and then its offset stream.
read_nodes() builds the vector of a section and routes the tree's nodes
through it one at a time, with one rank1 per node. read_plain() does so for
the sections of all plain trees of an index, over one vector, and read_rrr()
for those of all RRR trees, checking every RRR field before any node is
routed.
"""

import functools
import itertools
import math
from array import array

import numpy as np

from .bitio import as_words, pack_fields, read_bits, read_fields, unpack_bits, unpack_fields

# each byte with its bits in reverse order: bitio's LSB-first bytes to the words' MSB-first ones
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
RRR_SAMPLE_EVERY = 32
_TABLE_MAX_T = 16


def _as_bit_array(bits):
    if isinstance(bits, str):
        bits = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("bits must be a one-dimensional sequence")
    if arr.size and int(arr.max()) > 1:
        raise ValueError("bits must be 0 or 1")
    return arr


def _check_rank_args(bit, j, m):
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    if not 0 <= j <= m:
        raise ValueError("rank position out of range")


def plain_words(m):
    """64-bit words a plain tree of m bits takes in a vector.

    Its bytes padded to a word, plus one word when they fill the last one,
    so that rank1 at the tree's end reads a word of the tree.
    """
    return ((m + 7) >> 6) + 1


def plain_directory_bits(m):
    """The 32-bit counters of a plain tree of m bits, one per word it takes."""
    return 32 * plain_words(m)


class PlainBitVector:
    """The bits of one or more trees as 64-bit words, with a 32-bit counter per word.

    Each tree starts on a word and takes plain_words of its bit count. A word
    holds its first bit in the most significant place, and its counter the
    ones before it since its tree's first word, so rank1(j) counts the ones
    from the start of the tree that holds j to j.
    """

    __slots__ = ("_words", "_counts", "m", "ones")
    backend = "plain"

    def __init__(self, bits):
        bits = _as_bit_array(bits)
        self._setup([(np.packbits(bits).tobytes(), len(bits))])

    @classmethod
    def from_stored(cls, parts):
        """One vector over the first m bits of each (LSB-first buffer, m) part, in turn.

        The buffers are in bitio's layout and hold at least their m bits;
        bits after the m-th are ignored.
        """
        v = cls.__new__(cls)
        v._setup(parts, _REVERSED)
        return v

    def _setup(self, parts, table=None):
        """Words and counters of (bytes, m) parts, MSB first once each byte goes through table.

        Raises ValueError before allocating if a part has 2^32 bits or more,
        which its 32-bit counters could not count.
        """
        if any(m >= 1 << 32 for _, m in parts):
            raise ValueError("plain tree of 2^32 bits or more")
        sizes = [plain_words(m) for _, m in parts]
        raw = bytearray(8 * sum(sizes))
        at = 0
        for (part, m), size in zip(parts, sizes):
            n = (m + 7) >> 3
            raw[at : at + n] = part[:n].translate(table)
            if m & 7:
                raw[at + n - 1] &= 0xFF << (8 - (m & 7)) & 0xFF
            at += 8 * size
        words = np.frombuffer(raw, dtype=np.uint64)
        words[:] = np.frombuffer(raw, dtype=">u8")  # each word's first byte to its top
        ones = np.bitwise_count(words)
        before = np.cumsum(ones, dtype=np.int64)
        before -= ones
        firsts = np.cumsum([0, *sizes[:-1]], dtype=np.int64)
        before -= np.repeat(before[firsts], sizes)
        counts = bytearray(4 * len(words))
        np.frombuffer(counts, dtype=np.uint32)[:] = before
        self._words = memoryview(raw).cast("Q")
        self._counts = memoryview(counts).cast("I")
        self.m = 64 * int(firsts[-1]) + parts[-1][1]
        self.ones = int(ones.sum())

    def rank1(self, j):
        k = j >> 6
        return self._counts[k] + (self._words[k] >> (64 - (j & 63))).bit_count()

    def rank(self, bit, j):
        _check_rank_args(bit, j, self.m)
        r = self.rank1(j)
        return r if bit else j - r

    def to_bits(self, start=0, stop=None):
        """Bits start..stop - 1, all m by default, one uint8 (0 or 1) each."""
        stop = self.m if stop is None else stop
        words = np.frombuffer(self._words, dtype=np.uint64)[start >> 6 : (stop + 63) >> 6]
        bits = np.unpackbits(words.astype(">u8").view(np.uint8))
        return bits[start & 63 : (start & 63) + stop - start]

    def _clear(self, end, limit):
        """Zero a tree's padding bits end..limit - 1, the tail of one word.

        Of the counters, only that of the tree's spare word counts them.
        """
        k = end >> 6
        tail = (1 << (64 - (end & 63))) - 1 if end < limit else 0
        cleared = (self._words[k] & tail).bit_count()
        if cleared:
            self._words[k] &= ~tail
            self.ones -= cleared
            if limit & 63 == 0:
                self._counts[limit >> 6] -= cleared
        if limit == self.m:
            self.m = end

    @property
    def payload_bits(self):
        return self.m

    @property
    def directory_bits(self):
        return 32 * len(self._counts)

    def size_in_bits(self):
        return self.payload_bits + self.directory_bits


@functools.cache
def _decode_table(t):
    """All t-bit words in (class, offset) order, and the index where each class starts.

    The word of class k and offset o is words[starts[k] + o]; t <= 16 fits 'H'.
    """
    values = np.arange(1 << t, dtype=np.uint16)
    classes = np.bitwise_count(values)
    starts = np.zeros(t + 2, dtype=np.int64)
    np.cumsum(np.bincount(classes, minlength=t + 1), out=starts[1:])
    words = values[np.argsort(classes, kind="stable")]
    return array("H", words.tobytes()), tuple(starts.tolist())


@functools.cache
def _offset_table(t):
    """Offset of every t-bit word within its class; the encoder's inverse of _decode_table."""
    words, starts = _decode_table(t)
    offsets = np.empty(1 << t, dtype=np.int64)
    offsets[np.frombuffer(words, dtype=np.uint16)] = np.arange(1 << t) - np.repeat(
        starts[:-1], np.diff(starts)
    )
    return offsets


def offset_width(t, k):
    """Bits needed to index one of comb(t, k) blocks."""
    return (math.comb(t, k) - 1).bit_length()


@functools.cache
def offset_widths(t):
    """offset_width(t, k) for k = 0..t."""
    return tuple(offset_width(t, k) for k in range(t + 1))


@functools.cache
def _width_table(t):
    """offset_widths(t) as a 256-byte class -> width table for bytes.translate."""
    return bytes(offset_widths(t)).ljust(256, b"\0")


def offset_of_value(value, t, k):
    """Rank of a t-bit word among same-popcount words, ascending numeric order."""
    off = 0
    rem = k
    for p in range(t - 1, -1, -1):
        if rem == 0:
            break
        if (value >> p) & 1:
            off += math.comb(p, rem)
            rem -= 1
    return off

def value_of_offset(off, t, k):
    value = 0
    rem = k
    for p in range(t - 1, -1, -1):
        if rem == 0:
            break
        skip = math.comb(p, rem)
        if off >= skip:
            off -= skip
            value |= 1 << p
            rem -= 1
    return value


class RrrBitVector:
    __slots__ = (
        "m", "t", "ones", "offset_bits", "_classes", "_widths", "_table", "_offbuf", "_offbase",
        "_sample_rank", "_sample_opos",
    )
    backend = "rrr"

    def __init__(self, bits, block_size=15):
        t = int(block_size)
        if not 1 <= t <= 63:
            raise ValueError("block size must be in 1..63")
        bits = _as_bit_array(bits)
        m = len(bits)
        full, rem = divmod(m, t)
        # each block's bits, LSB first, in the low bytes of one uint64; the
        # last block is packed on its own, so that no padded copy is made
        packed = np.zeros((full + (rem > 0), 8), dtype=np.uint8)
        packed[:full, : (t + 7) // 8] = np.packbits(
            bits[: full * t].reshape(full, t), axis=1, bitorder="little"
        )
        if rem:
            packed[full, : (rem + 7) // 8] = np.packbits(bits[full * t :], bitorder="little")
        values = packed.view("<u8").ravel()
        classes = np.bitwise_count(values).astype(np.int64)
        if t <= _TABLE_MAX_T:
            offsets = _offset_table(t)[values]
        else:
            offsets = [offset_of_value(int(v), t, int(k)) for v, k in zip(values, classes)]
        widths = np.asarray(offset_widths(t))[classes]
        self._setup(m, t, classes, pack_fields(offsets, widths), 0, int(widths.sum()))

    @classmethod
    def from_parts(cls, m, t, classes, offbuf, offbase, offset_bits):
        """Rebuild from stored fields; offsets stay referenced in place inside offbuf."""
        v = cls.__new__(cls)
        v._setup(m, t, classes, offbuf, offbase, offset_bits)
        return v

    def _setup(self, m, t, classes, offbuf, offbase, offset_bits):
        """Derive the uint32 (offset position, rank) samples; ValueError first at 2^32 bits or more."""
        if m >= 1 << 32:
            raise ValueError("rrr tree of 2^32 bits or more")
        self._classes = np.asarray(classes, dtype=np.uint8).tobytes()
        self._widths = _width_table(t)
        ks = np.frombuffer(self._classes, dtype=np.uint8)
        opos = np.zeros(len(ks) + 1, dtype=np.int64)
        np.cumsum(np.frombuffer(self._classes.translate(self._widths), dtype=np.uint8), out=opos[1:])
        rank = np.zeros(len(ks) + 1, dtype=np.int64)
        np.cumsum(ks, out=rank[1:])
        if int(opos[-1]) != offset_bits:
            raise ValueError("offset stream length does not match classes")
        # a sample every RRR_SAMPLE_EVERY blocks, and one at the end
        at = np.minimum(np.arange(0, len(ks) + RRR_SAMPLE_EVERY, RRR_SAMPLE_EVERY), len(ks))
        self.m = m
        self.t = t
        self.ones = int(rank[-1])
        self._table = _decode_table(t) if t <= _TABLE_MAX_T else None
        self._offbuf = offbuf
        self._offbase = offbase
        self.offset_bits = offset_bits
        self._sample_rank = array("I", rank[at].tolist())
        self._sample_opos = array("I", opos[at].tolist())

    def _block_value(self, blk, opos):
        k = self._classes[blk]
        w = self._widths[k]
        off = read_bits(self._offbuf, self._offbase + opos, w) if w else 0
        if self._table is None:
            return value_of_offset(off, self.t, k)
        words, starts = self._table
        return words[starts[k] + off]

    def rank1(self, j):
        blk, rem = divmod(j, self.t)
        sb = blk >> 5
        seg = self._classes[sb << 5 : blk]
        r = self._sample_rank[sb] + sum(seg)
        if rem:
            opos = self._sample_opos[sb] + sum(seg.translate(self._widths))
            value = self._block_value(blk, opos)
            r += (value & ((1 << rem) - 1)).bit_count()
        return r

    def rank(self, bit, j):
        _check_rank_args(bit, j, self.m)
        r = self.rank1(j)
        return r if bit else j - r

    def to_bits(self):
        values = np.array([value_of_offset(off, self.t, k) for k, off in self.blocks()], np.uint64)
        bits = (values[:, None] >> np.arange(self.t, dtype=np.uint64)) & np.uint64(1)
        return bits.astype(np.uint8).ravel()[: self.m]

    def block_classes(self):
        """The class of every block, as a read-only uint8 array."""
        return np.frombuffer(self._classes, dtype=np.uint8)

    def offset_stream(self):
        """The packed offset bits as (buffer, base bit offset, bit count)."""
        return self._offbuf, self._offbase, self.offset_bits

    def blocks(self):
        """Introspection: (class, offset) per block."""
        widths = np.frombuffer(self._classes.translate(self._widths), dtype=np.uint8)
        offsets = unpack_fields(self._offbuf, self._offbase, widths)
        return list(zip(self._classes, offsets.tolist()))

    @classmethod
    def from_stored(cls, buf, t):
        """The vector whose stored_bits() an LSB-first buffer holds.

        m is checked against the buffer's length before anything sized by
        m is allocated. Raises EOFError or ValueError naming the failed check.
        """
        if len(buf) < 4:
            raise EOFError("payload truncated")
        m = int.from_bytes(buf[:4], "little")
        nblocks = -(-m // t)
        width = t.bit_length()
        first = 32 + nblocks * width
        if first > 8 * len(buf):
            raise EOFError("payload truncated")
        # a class field is at most 6 bits, so its weighted bit sum fits uint8
        weights = np.uint8(1) << np.arange(width, dtype=np.uint8)
        classes = unpack_bits(buf, 32, first - 32).reshape(nblocks, width) @ weights
        if nblocks and int(classes.max()) > t:
            raise ValueError("rrr class out of range")
        nbits = int(np.asarray(offset_widths(t))[classes].sum())
        if first + nbits > 8 * len(buf):
            raise EOFError("rrr offsets truncated")
        if len(buf) > (first + nbits + 7) // 8:
            raise ValueError("payload length")
        offbuf = np.packbits(unpack_bits(buf, first, nbits), bitorder="little").tobytes()
        return cls.from_parts(m, t, classes, offbuf, 0, nbits)

    def stored_bits(self):
        """m as 32 bits, the class field of every block, then the offset stream; a uint8 per bit."""
        ks = self.block_classes()
        fields = np.unpackbits(ks[:, None], axis=1, bitorder="little")[:, : self.class_field_width]
        head = unpack_bits(self.m.to_bytes(4, "little"), 0, 32)
        return np.concatenate([head, fields.ravel(), unpack_bits(*self.offset_stream())])

    @property
    def class_bits(self):
        return len(self._classes) * self.class_field_width

    @property
    def class_field_width(self):
        return self.t.bit_length()

    @property
    def payload_bits(self):
        """The stored bits: the 32-bit count m, the class fields and the offsets."""
        return 32 + self.class_bits + self.offset_bits

    @property
    def directory_bits(self):
        return 64 * len(self._sample_rank)

    def size_in_bits(self):
        return self.payload_bits + self.directory_bits


def build_plain(bits):
    return PlainBitVector(bits)


def build_rrr(bits, block_size=15):
    return RrrBitVector(bits, block_size)


def make_bitvector(bits, backend, rrr_block_size=15):
    if backend == "plain":
        return PlainBitVector(bits)
    if backend == "rrr":
        return RrrBitVector(bits, rrr_block_size)
    raise ValueError(f"unknown bitvector backend: {backend!r}")


class _Nodes:
    """The nodes of one tree in a vector, joined bit to bit from the tree's first bit.

    A node starts where the one before it ended, so the ones before it are
    the rank1 at that end, carried forward from 0 at the tree's first bit:
    one rank1 per node.
    """

    def __init__(self, vector, first, limit, slack):
        self._vector = vector
        self.end = first
        self._ones = 0
        self._limit = limit  # the bits of the tree's payload section
        self._slack = slack  # of which at most this many may follow its last node

    def read(self, m):
        start, base = self.end, self._ones
        self.end += m
        if self.end > self._limit:
            raise EOFError("payload truncated")
        self._ones = self._vector.rank1(self.end)
        return start, base, self._ones - base

    def vector(self):
        if self._limit - self.end > self._slack:
            raise ValueError("payload length")
        if self.end < self._limit:
            self._vector._clear(self.end, self._limit)
        return self._vector


def read_nodes(buf, backend, rrr_block_size=15):
    """A reader of the nodes stored in buf, in order.

    read(m) takes the next node, of m bits, and returns its start in the
    joined vector, the ones before it since the tree's start and its own
    ones; vector() then checks that nothing follows the last node and
    returns that vector. Either raises EOFError or ValueError naming the
    failed check, as does read_nodes itself on an RRR section.
    """
    if backend == "plain":
        return read_plain([buf])[0]
    return read_rrr([buf], rrr_block_size)[0]


def read_plain(bufs):
    """A read_nodes reader of each plain payload section in bufs, all over one vector.

    Each section starts on a fresh word and takes the words of all its bits.
    A tree's length is only known once its nodes are read, so each reader's
    vector() clears its tree's padding bits, at most the 7 of the section's
    last byte, and returns the shared vector.
    """
    stored = [8 * len(buf) for buf in bufs]
    vector = PlainBitVector.from_stored(list(zip(bufs, stored)))
    firsts = itertools.accumulate((64 * plain_words(m) for m in stored), initial=0)
    return [_Nodes(vector, first, first + m, 7) for first, m in zip(firsts, stored)]


def read_rrr(bufs, t):
    """A read_nodes reader of each RRR payload section in bufs, each over its own vector.

    Routing a node decodes the block that holds its end, so every section is
    parsed and its fields checked (see _check_stored) before any node is.
    """
    vectors = [RrrBitVector.from_stored(buf, t) for buf in bufs]
    _check_stored(vectors)
    return [_Nodes(vector, 0, vector.m, 0) for vector in vectors]


def _check_stored(vectors):
    """Raise ValueError on RRR fields that from_stored takes but the encoder cannot write.

    Offset fields must be below comb(t, class): one check over all vectors,
    on a joined copy of their buffers; fields are read 2^15 at a time, which
    keeps the temporaries in cache. Then the bits after m in each vector's
    last block must be zero, so that its ones are its rank at m.
    """
    rrr = [bv for bv in vectors if bv.m]
    if not rrr:
        return
    streams = [bv.offset_stream() for bv in rrr]
    at = np.cumsum([0] + [8 * len(buf) for buf, _, _ in streams[:-1]]) + [b for _, b, _ in streams]
    ks = [bv.block_classes() for bv in rrr]
    words = as_words(b"".join(buf for buf, _, _ in streams))
    t = rrr[0].t
    widths = np.array(offset_widths(t))
    limits = np.array([math.comb(t, k) for k in range(t + 1)], dtype=np.uint64)
    classes = np.concatenate(ks)
    counts = [len(k) for k in ks]
    width = widths[classes]
    starts = np.cumsum(width)
    starts -= width
    starts += np.repeat(at - starts[np.cumsum(counts) - counts], counts)
    for lo in range(0, len(starts), 1 << 15):
        part = slice(lo, lo + (1 << 15))
        if np.any(read_fields(words, starts[part], width[part]) >= limits[classes[part]]):
            raise ValueError("rrr offset out of range")
    if any(bv.rank1(bv.m) != bv.ones for bv in rrr):
        raise ValueError("rrr padding bits")
