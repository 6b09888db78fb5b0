"""Bitvectors with fast rank.

Two interchangeable representations:

* PlainBitVector keeps the raw bits as 512-bit Python ints, one per chunk,
  plus one cumulative counter per chunk: the ones before it. A chunk holds
  its first bit in the most significant place, so the ones before a
  position are the popcount of the chunk shifted right, with no mask to
  build: a rank is one counter plus one shift and one popcount.
* RrrBitVector stores each t-bit block as a popcount class plus an
  enumerative offset that identifies the block among all t-bit words of
  that class in ascending numeric order, with (offset position, rank)
  samples every 32 blocks. The classes are one byte each, so a rank sums
  the classes since the last sample, and their offset widths through a
  256-byte translation table, without a Python loop.

Each class owns the layout of a node in the index file: stored_bits() gives
the raw bits of a plain node, or an RRR node's t.bit_length()-bit class
fields and then its offset stream as is; read() rebuilds a node from them.
"""

import functools
import math
from array import array

import numpy as np

from .bitio import as_words, pack_fields, read_bits, read_fields, unpack_bits, unpack_fields

CHUNK_BITS = 512
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


class PlainBitVector:
    backend = "plain"

    def __init__(self, bits):
        bits = _as_bit_array(bits)
        m = len(bits)
        # m // 512 + 1 chunks keep rank1(m) in range when 512 divides m
        nchunks = m // CHUNK_BITS + 1
        padded = np.zeros(nchunks * CHUNK_BITS, dtype=np.uint8)
        padded[:m] = bits
        raw = np.packbits(padded)
        ones = np.bitwise_count(raw).reshape(nchunks, -1).sum(axis=1, dtype=np.int64)
        raw = raw.tobytes()
        step = CHUNK_BITS // 8
        self._chunks = [int.from_bytes(raw[i : i + step], "big") for i in range(0, len(raw), step)]
        self._cum = (np.cumsum(ones) - ones).tolist()
        self.m = m
        self.ones = int(ones.sum())

    @classmethod
    def read(cls, buf, pos, m):
        """The node of m bits stored from bit `pos` of buf on, and the bit after it."""
        end = pos + m
        if end > 8 * len(buf):
            raise EOFError("payload truncated")
        return cls(unpack_bits(buf, pos, m)), end

    def rank1(self, j):
        c = j >> 9
        return self._cum[c] + (self._chunks[c] >> (512 - (j & 511))).bit_count()

    def rank(self, bit, j):
        _check_rank_args(bit, j, self.m)
        r = self.rank1(j)
        return r if bit else j - r

    def to_bits(self):
        raw = b"".join(chunk.to_bytes(CHUNK_BITS // 8, "big") for chunk in self._chunks)
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[: self.m]

    stored_bits = to_bits

    @property
    def payload_bits(self):
        return self.m

    @property
    def directory_bits(self):
        return 64 * len(self._cum)

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
    backend = "rrr"

    def __init__(self, bits, block_size=15):
        t = int(block_size)
        if not 1 <= t <= 63:
            raise ValueError("block size must be in 1..63")
        bits = _as_bit_array(bits)
        m = len(bits)
        nblocks = (m + t - 1) // t
        padded = np.zeros(nblocks * t, dtype=np.uint8)
        padded[:m] = bits
        values = padded.reshape(nblocks, t) @ (np.int64(1) << np.arange(t, dtype=np.int64))
        classes = np.bitwise_count(values.astype(np.uint64)).astype(np.int64)
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

    @classmethod
    def read(cls, buf, pos, m, t):
        """The node of m bits stored from bit `pos` of buf on, and the bit after it."""
        wc = t.bit_length()
        end = pos + (m + t - 1) // t * wc
        if end > 8 * len(buf):
            raise EOFError("payload truncated")
        # a class field is at most 6 bits, so its weighted bit sum fits uint8
        fields = unpack_bits(buf, pos, end - pos).reshape(-1, wc)
        classes = fields @ (np.uint8(1) << np.arange(wc, dtype=np.uint8))
        if len(classes) and int(classes.max()) > t:
            raise ValueError("rrr class out of range")
        offset_bits = int(np.asarray(offset_widths(t))[classes].sum())
        if end + offset_bits > 8 * len(buf):
            raise EOFError("rrr offsets truncated")
        bv = cls.from_parts(m, t, classes, buf, end, offset_bits)
        return bv, end + offset_bits

    def _setup(self, m, t, classes, offbuf, offbase, offset_bits):
        """Derive the (offset position, rank) samples from the classes."""
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
        self._sample_rank = array("q", rank[at].tolist())
        self._sample_opos = array("q", opos[at].tolist())

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

    def stored_bits(self):
        fields = np.unpackbits(self.block_classes()[:, None], axis=1, bitorder="little")
        offsets = unpack_bits(*self.offset_stream())
        return np.concatenate([fields[:, : self.class_field_width].ravel(), offsets])

    @property
    def class_bits(self):
        return len(self._classes) * self.class_field_width

    @property
    def class_field_width(self):
        return self.t.bit_length()

    @property
    def payload_bits(self):
        return self.class_bits + self.offset_bits

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


def read_bitvector(buf, pos, m, backend, rrr_block_size=15):
    """read() of the backend's class."""
    if backend == "plain":
        return PlainBitVector.read(buf, pos, m)
    return RrrBitVector.read(buf, pos, m, rrr_block_size)


def check_stored(nodes):
    """Raise ValueError on RRR fields that read() takes but the encoder cannot write.

    Offset fields must be below comb(t, class), and a node's padding bits
    zero: child lengths come from class sums, equal to rank1(m) only then.
    One check over all nodes, on a joined copy of their distinct buffers;
    fields are read 2^15 at a time, which keeps the temporaries in cache.
    """
    nodes = [bv for bv in nodes if bv.backend == "rrr" and bv.m]
    if not nodes:
        return
    streams = [bv.offset_stream() for bv in nodes]
    bufs = {id(buf): buf for buf, _, _ in streams}
    first_bit = dict(zip(bufs, np.cumsum([0] + [8 * len(b) for b in bufs.values()]).tolist()))
    at = [first_bit[id(buf)] + base for buf, base, _ in streams]
    ks = [bv.block_classes() for bv in nodes]
    words = as_words(b"".join(bufs.values()))
    t = nodes[0].t
    widths = np.array(offset_widths(t))
    limits = np.array([math.comb(t, k) for k in range(t + 1)], dtype=np.uint64)
    classes = np.concatenate(ks)
    counts = [len(k) for k in ks]
    width = widths[classes]
    starts = np.cumsum(width)
    starts -= width
    starts += np.repeat(np.array(at) - starts[np.cumsum(counts) - counts], counts)
    for lo in range(0, len(starts), 1 << 15):
        part = slice(lo, lo + (1 << 15))
        if np.any(read_fields(words, starts[part], width[part]) >= limits[classes[part]]):
            raise ValueError("rrr offset out of range")
    for bv in nodes:
        if bv.rank1(bv.m) != bv.ones:
            raise ValueError("rrr padding bits")
