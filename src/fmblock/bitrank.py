"""Bitvectors with fast rank.

Two interchangeable representations:

* PlainBitVector keeps the raw bits plus a two-level counter directory
  (absolute 64-bit counters every 512 bits, relative 16-bit counters every
  64-bit word).
* RrrBitVector stores each t-bit block as a popcount class plus an
  enumerative offset that identifies the block among all t-bit words of
  that class in ascending numeric order, with (offset position, rank)
  samples every 32 blocks.
"""

import functools
import math

import numpy as np

from .bitio import BitWriter, read_bits

SUPERBLOCK_BITS = 512
WORD_BITS = 64
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
        nwords = m // WORD_BITS + 1
        padded = np.zeros(nwords * WORD_BITS, dtype=np.uint8)
        padded[:m] = bits
        words = np.packbits(padded, bitorder="little").view("<u8")
        cum = np.zeros(nwords + 1, dtype=np.int64)
        np.cumsum(np.bitwise_count(words).astype(np.int64), out=cum[1:])
        nsuper = m // SUPERBLOCK_BITS + 1
        wps = SUPERBLOCK_BITS // WORD_BITS
        supers = cum[: nsuper * wps : wps]
        self._super = supers.tolist()
        self._blockrel = (cum[:nwords] - np.repeat(supers, wps)[:nwords]).tolist()
        self._words = words.tolist()
        self.m = m
        self.ones = int(cum[nwords])

    def rank1(self, j):
        w = j >> 6
        return (
            self._super[j >> 9]
            + self._blockrel[w]
            + (self._words[w] & ((1 << (j & 63)) - 1)).bit_count()
        )

    def rank(self, bit, j):
        _check_rank_args(bit, j, self.m)
        r = self.rank1(j)
        return r if bit else j - r

    def bit(self, i):
        if not 0 <= i < self.m:
            raise ValueError("bit position out of range")
        return (self._words[i >> 6] >> (i & 63)) & 1

    def to_bits(self):
        packed = np.asarray(self._words, dtype="<u8").view(np.uint8)
        return np.unpackbits(packed, bitorder="little")[: self.m]

    @property
    def payload_bits(self):
        return self.m

    @property
    def directory_bits(self):
        return 64 * len(self._super) + 16 * len(self._blockrel)

    def size_in_bits(self):
        return self.payload_bits + self.directory_bits


_rrr_tables = {}


def _tables_for(t):
    """Per-class decode tables for small t: value lists in ascending order."""
    cached = _rrr_tables.get(t)
    if cached is None:
        values = np.arange(1 << t, dtype=np.uint64)
        classes = np.bitwise_count(values).astype(np.int64)
        order = np.argsort(classes, kind="stable")
        starts = np.zeros(t + 2, dtype=np.int64)
        np.cumsum(np.bincount(classes, minlength=t + 1), out=starts[1:])
        offsets = np.empty(1 << t, dtype=np.int64)
        offsets[order] = np.arange(1 << t, dtype=np.int64) - starts[classes[order]]
        decode = [
            values[order[starts[k] : starts[k + 1]]].tolist() for k in range(t + 1)
        ]
        cached = (classes, offsets, decode)
        _rrr_tables[t] = cached
    return cached


def offset_width(t, k):
    """Bits needed to index one of comb(t, k) blocks."""
    return (math.comb(t, k) - 1).bit_length()


@functools.cache
def offset_widths(t):
    """offset_width(t, k) for k = 0..t."""
    return tuple(offset_width(t, k) for k in range(t + 1))


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
        classes = np.bitwise_count(values.astype(np.uint64)).astype(np.int64).tolist()
        if t <= _TABLE_MAX_T:
            offsets = _tables_for(t)[1][values].tolist()
        else:
            offsets = [offset_of_value(int(v), t, k) for v, k in zip(values, classes)]
        widths = offset_widths(t)
        writer = BitWriter()
        for k, off in zip(classes, offsets):
            writer.write(off, widths[k])
        self._setup(m, t, classes, writer.getvalue(), 0, writer.bit_length)

    @classmethod
    def from_parts(cls, m, t, classes, offbuf, offbase, offset_bits):
        """Rebuild from stored fields; offsets stay referenced in place inside offbuf."""
        v = cls.__new__(cls)
        v._setup(m, t, classes, offbuf, offbase, offset_bits)
        return v

    def _setup(self, m, t, classes, offbuf, offbase, offset_bits):
        """Derive the (offset position, rank) samples from the classes."""
        widths = offset_widths(t)
        ks = np.asarray(classes, dtype=np.int64)
        opos = np.zeros(len(ks) + 1, dtype=np.int64)
        np.cumsum(np.asarray(widths, dtype=np.int64)[ks], out=opos[1:])
        rank = np.zeros(len(ks) + 1, dtype=np.int64)
        np.cumsum(ks, out=rank[1:])
        if int(opos[-1]) != offset_bits:
            raise ValueError("offset stream length does not match classes")
        at = np.append(np.arange(0, len(ks), RRR_SAMPLE_EVERY), len(ks))
        self.m = m
        self.t = t
        self.ones = int(rank[-1])
        self._classes = ks.tolist()
        self._widths = widths
        self._offbuf = offbuf
        self._offbase = offbase
        self.offset_bits = offset_bits
        self._sample_rank = rank[at].tolist()
        self._sample_opos = opos[at].tolist()

    def _block_value(self, blk, opos):
        k = self._classes[blk]
        w = self._widths[k]
        off = read_bits(self._offbuf, self._offbase + opos, w) if w else 0
        if self.t <= _TABLE_MAX_T:
            return _tables_for(self.t)[2][k][off]
        return value_of_offset(off, self.t, k)

    def rank1(self, j):
        if j == 0:
            return 0
        blk, rem = divmod(j, self.t)
        sb = blk >> 5
        base = sb << 5
        r = self._sample_rank[sb] + sum(self._classes[base:blk])
        if rem:
            opos = self._sample_opos[sb]
            for k in self._classes[base:blk]:
                opos += self._widths[k]
            value = self._block_value(blk, opos)
            r += (value & ((1 << rem) - 1)).bit_count()
        return r

    def rank(self, bit, j):
        _check_rank_args(bit, j, self.m)
        r = self.rank1(j)
        return r if bit else j - r

    def bit(self, i):
        if not 0 <= i < self.m:
            raise ValueError("bit position out of range")
        return self.rank1(i + 1) - self.rank1(i)

    def to_bits(self):
        out = np.zeros(len(self._classes) * self.t, dtype=np.uint8)
        opos = 0
        for blk, k in enumerate(self._classes):
            value = self._block_value(blk, opos)
            opos += self._widths[k]
            for p in range(self.t):
                out[blk * self.t + p] = (value >> p) & 1
        return out[: self.m]

    def block_classes(self):
        return list(self._classes)

    def offset_stream(self):
        """The packed offset bits as (buffer, base bit offset, bit count)."""
        return self._offbuf, self._offbase, self.offset_bits

    def samples(self):
        """(offset position, rank) pairs, one per 32 blocks plus a final one."""
        return list(zip(self._sample_opos, self._sample_rank))

    def blocks(self):
        """Introspection: (class, offset) per block."""
        out = []
        opos = 0
        for k in self._classes:
            w = self._widths[k]
            out.append((k, read_bits(self._offbuf, self._offbase + opos, w) if w else 0))
            opos += w
        return out

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
