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
  rank) samples every 32 blocks. The classes are one buffer, two 4-bit
  classes per byte for t <= 15 and one per byte above, so a rank sums the
  class bytes since the last sample, and their offset widths, each through
  a 256-byte translation table, without a Python loop. One vector can hold
  many trees, each from a fresh sample and with its own ranks (see
  rrr_samples).

A wavelet tree keeps all its nodes in one vector, joined bit to bit in
level order under either backend, and all the trees of an index share
one: tree_firsts() gives each tree's first bit in it, the one rule for
where trees start. A build makes the vector once, from every tree's bits
and bit count (make_bitvector()), and a load from every tree's section;
each names the vector by its RRR block size t alone, 0 for plain.
This module owns the layout of a tree in the index file, which is the
vector's own stored form (stored_bits()): a plain tree stores its raw
bits, an RRR tree its bit count m as a u32, then the class fields of all
its blocks and then its offset stream. read_sections() builds one vector
of the sections of all trees of an index and gives each tree's first bit
in it and its limit, where its section ends; read_plain() does so for
plain sections and read_rrr() for RRR ones, parsing them in one pass and
checking every RRR field before any node is routed. Neither loops over
the sections in Python: the sections are sliced and joined by map, and
every check and table is made over all of them at once. Once the nodes
are routed (see wavelet), the vector's trim() checks the bits that
follow each tree's last node, for all trees at once; plain padding bits
are left as read, since no rank reads past a tree's last node.

Each backend also takes both ends of a backward-search step in one tree
down a symbol's path, level by level: descend() ranks both ends of a level
in one call, with rank1's arithmetic inline, and returns both ends at the
path's end, even where they met on the way; only the caller decides that
a range is empty. The RRR one decodes one block for both ends when they
fall in it, and else ranks the second end from its own sample.

Each backend also ranks many positions at once, in two forms over
np.frombuffer views of the vector's buffers. batch_rank1() returns a
function of an int64 array of positions, for count_many's many rounds,
and binds every view and table it reads once, so that a round is only
its arithmetic: the plain one is rank1 in numpy; the RRR one first makes
tables of 5 bytes per block (its class, and the classes and offset widths
before it since its sample), which live as long as the function does.
rank1_many(positions) ranks once, for a load's few positions per tree
depth: plain, it is batch_rank1's; RRR, each position sums its own
sample's classes, with no table over all blocks. Both RRR forms read and
decode their blocks' offsets through one function (_block_ones): up to t
= 16 from one unaligned uint32 view of the offset stream, one element per
byte, through the decode table, and above with read_fields, enumeratively.
"""

import functools
import itertools
import math
import operator
from array import array

import numpy as np

from .bitio import pack_fields, read_fields, unpack_bits

# each byte with its bits in reverse order: bitio's LSB-first bytes to the words' MSB-first ones
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
RRR_SAMPLE_EVERY = 32
_TABLE_MAX_T = 16
_NIBBLE_MAX_T = 15
_ONE = np.uint64(1)
_NIBBLES = np.array([0, 4], dtype=np.uint8)  # the shifts of a class byte's low and high class
_SAMPLE_BLOCKS = np.arange(RRR_SAMPLE_EVERY)


def _as_bit_array(bits):
    if isinstance(bits, str):
        bits = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("bits must be a one-dimensional sequence")
    if arr.size and int(arr.max()) > 1:
        raise ValueError("bits must be 0 or 1")
    return arr


def plain_words(m):
    """64-bit words a plain tree of m bits takes in a vector; m may be a numpy array.

    Its bytes padded to a word, plus one word when they fill the last one,
    so that rank1 at the tree's end reads a word of the tree.
    """
    return ((m + 7) >> 6) + 1


class _BitVector:
    """What both backends share: rank of either bit over rank1."""

    __slots__ = ()

    def rank(self, bit, j):
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        if not 0 <= j <= self.m:
            raise ValueError("rank position out of range")
        r = self.rank1(j)
        return r if bit else j - r


class PlainBitVector(_BitVector):
    """The bits of one or more trees as 64-bit words, with a 32-bit counter per word.

    Each tree starts on a word and takes plain_words of its bit count. A word
    holds its first bit in the most significant place, and its counter the
    ones before it since its tree's first word, so rank1(j) counts the ones
    from the start of the tree that holds j to j.
    """

    __slots__ = ("_words", "_counts", "m")

    def __init__(self, bits, ms=None):
        """The vector of bits, which hold trees of ms[i] bits in turn, by default one tree."""
        ms = np.array([len(bits)] if ms is None else ms, dtype=np.int64)
        firsts = tree_firsts(ms) >> 3  # each tree's first byte
        bits = _as_bit_array(bits)
        raw = bytearray(8 * int(plain_words(ms).sum()))
        view = np.frombuffer(raw, dtype=np.uint8)
        for first, stop, m in zip(firsts.tolist(), np.cumsum(ms).tolist(), ms.tolist()):
            view[first : first + ((m + 7) >> 3)] = np.packbits(bits[stop - m : stop])
        self._setup(raw, ms)

    def _setup(self, raw, ms):
        """The vector of the bytes raw, in bit order, which hold trees of ms bits in turn (see tree_firsts).

        Every word and counter is made over the whole vector at once.
        """
        sizes = plain_words(ms)
        firsts = np.cumsum(sizes) - sizes
        words = np.frombuffer(raw, dtype=np.uint64)
        words.byteswap(inplace=True)  # each word's first byte to its top, as big-endian words read
        ones = np.bitwise_count(words)
        before = ones.astype(np.int64)
        np.cumsum(before, out=before)  # in int64 throughout: from uint8 it takes three times as long
        before -= ones
        before -= np.repeat(before[firsts], sizes)
        counts = bytearray(4 * len(words))
        np.frombuffer(counts, dtype=np.uint32)[:] = before
        self._words = memoryview(raw).cast("Q")
        self._counts = memoryview(counts).cast("I")
        self.m = 64 * int(firsts[-1]) + int(ms[-1])

    def rank1(self, j):
        k = j >> 6
        return self._counts[k] + (self._words[k] >> (64 - (j & 63))).bit_count()

    def descend(self, steps, b, e):
        """Both ends b <= e of one tree down a path's signed steps, level by level, to (b, e) at its end.

        Each level ranks both ends as rank1 does, inline, and takes each to
        rank1 + step on a positive step, else to its position - rank1 - step
        (see wavelet's _read). The ends walk the whole path even once they
        meet: only the caller (wavelet's narrow) decides a range is empty.
        """
        words, counts = self._words, self._counts
        for step in steps:
            k = b >> 6
            rb = counts[k] + (words[k] >> (64 - (b & 63))).bit_count()
            k = e >> 6
            re = counts[k] + (words[k] >> (64 - (e & 63))).bit_count()
            if step > 0:
                b, e = rb + step, re + step
            else:
                b -= rb + step
                e -= re + step
        return b, e

    def batch_rank1(self):
        """rank1 over int64 arrays of positions: a function of one, over views of the words and counters made once.

        It returns uint32 ranks. The shift of 64 - (j & 63) is done as 63 -
        (j & 63), then 1, so that no word is shifted by 64: C leaves that
        undefined, and numpy (2.4 gives 0, as Python does) does not document it.
        """
        words = np.frombuffer(self._words, dtype=np.uint64)
        counts = np.frombuffer(self._counts, dtype=np.uint32)

        def rank1(j):
            k = j >> 6
            return counts[k] + np.bitwise_count(words[k] >> (63 - (j & 63)).view(np.uint64) >> _ONE)

        return rank1

    def rank1_many(self, j):
        """rank1 of every position in the int64 array j, as int64: batch_rank1's, which makes no table."""
        return self.batch_rank1()(j).astype(np.int64)

    def to_bits(self, start=0, stop=None):
        """Bits start..stop - 1, all m by default, one uint8 (0 or 1) each."""
        stop = self.m if stop is None else stop
        words = np.frombuffer(self._words, dtype=np.uint64)[start >> 6 : (stop + 63) >> 6]
        bits = np.unpackbits(words.astype(">u8").view(np.uint8))
        return bits[start & 63 : (start & 63) + stop - start]

    def stored_bits(self, start=0, stop=None):
        """The tree of bits start..stop - 1 as stored: its bits (see to_bits)."""
        return self.to_bits(start, stop)

    def tree_size(self, start, stop):
        """Bits of the tree of bits start..stop - 1: its stored bits, and its counters."""
        return stop - start, 32 * plain_words(stop - start)

    def trim(self, ends, limits):
        """End the vector at the last tree's last node; ValueError if more than 7 bits follow a tree's.

        Tree i's last node ends at ends[i] and its section, whole bytes, at
        limits[i], the last of which ends the vector. The bits between are
        the padding of the section's last byte: they stay as read, since no
        rank reads past a tree's last node.
        """
        if (np.asarray(limits) - np.asarray(ends) > 7).any():
            raise ValueError("payload length")
        self.m -= int(limits[-1] - ends[-1])


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
    return array("H", words.tobytes()), array("q", starts.tobytes())


@functools.cache
def _offset_table(t):
    """Offset of every t-bit word within its class; the encoder's inverse of _decode_table."""
    words, starts = _decode_table(t)
    offsets = np.empty(1 << t, dtype=np.int64)
    starts = np.frombuffer(starts, dtype=np.int64)
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
def _class_tables(t):
    """bytes.translate tables of a class byte: its classes' sum, and their offset widths' sum.

    A byte holds two 4-bit classes, the low one first, for t <= 15, and one
    class above. The third table is the offset width of one class.
    """
    widths = offset_widths(t) + (0,) * (255 - t)
    pairs = [(b & 15, b >> 4) if t <= _NIBBLE_MAX_T else (b, 0) for b in range(256)]
    return (
        bytes(lo + hi for lo, hi in pairs),
        bytes(widths[lo] + widths[hi] for lo, hi in pairs),
        bytes(widths),
    )


def _class_widths(t):
    """The offset width of each class byte value, as uint8; the classes above t have none."""
    return np.frombuffer(_class_tables(t)[2], dtype=np.uint8)


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


@functools.cache
def _comb_table(t):
    """comb(p, k) at [p, k] for p < t and k <= t, as uint64."""
    return np.array([[math.comb(p, k) for k in range(t + 1)] for p in range(t)], dtype=np.uint64)


def _values_of_offsets(off, t, k):
    """value_of_offset of every (offset, class) in the arrays off (uint64, overwritten) and k, as uint64."""
    comb = _comb_table(t)
    value = np.zeros_like(off)
    left = k.astype(np.intp)  # the ones not yet placed
    for p in range(t - 1, -1, -1):
        skip = comb[p, left]  # once every one is placed, comb(p, 0) = 1, above the offset left, 0
        take = off >= skip
        off -= skip * take
        value |= take.astype(np.uint64) << np.uint64(p)
        left -= take
    return value


def rrr_samples(m, t):
    """Samples an RRR tree of m bits takes in a vector: one per RRR_SAMPLE_EVERY of its blocks, plus one.

    Its blocks end before its last sample's blocks do, so rank1 at the
    tree's end, and the offset stream at the end of its last block, are
    counted from a sample of the tree. m may be a numpy array.
    """
    return -(-m // t) // RRR_SAMPLE_EVERY + 1


def tree_firsts(ms, t=0):
    """Each tree's first bit, as int64, in a vector of trees of ms bits in turn.

    A plain tree (t = 0) takes 64 * plain_words(m) bits, from a fresh word,
    and an RRR tree of t-bit blocks 32 t * rrr_samples(m, t), from a fresh
    sample. Raises ValueError if a tree has 2^32 bits or more, which its
    32-bit counters or sample ranks could not count.
    """
    ms = np.asarray(ms, dtype=np.int64)
    if (ms >= 1 << 32).any():
        raise ValueError(f"{'rrr' if t else 'plain'} tree of 2^32 bits or more")
    spans = RRR_SAMPLE_EVERY * t * rrr_samples(ms, t) if t else 64 * plain_words(ms)
    return np.cumsum(spans) - spans


class RrrBitVector(_BitVector):
    """The bits of one or more trees as t-bit blocks, each a class and an offset.

    Each tree starts on a sample, every RRR_SAMPLE_EVERY blocks, and takes
    rrr_samples of its bit count; the blocks after its last are class 0. A
    sample holds the ones before it since its tree's first bit, and where
    its block's offset starts in the one offset stream, so rank1(j) counts
    the ones from the start of the tree that holds j to j.
    """

    __slots__ = (
        "m", "t", "_classes", "_shift", "_mask", "_class_sums",
        "_width_sums", "_widths", "_table", "_offbuf", "_sample_rank", "_sample_opos", "_descent",
    )

    def __init__(self, bits, block_size=15, ms=None):
        """The vector of bits, which hold trees of ms[i] bits in turn, by default one tree.

        The trees' offsets are one stream, each tree's after the last one's.
        """
        t = int(block_size)
        if not 1 <= t <= 63:
            raise ValueError("rrr block size must be in 1..63")
        ms = np.array([len(bits)] if ms is None else ms, dtype=np.int64)
        tree_firsts(ms, t)  # checks every tree's size before the bits are copied
        bits = _as_bit_array(bits)
        nblocks = -(-ms // t)
        # each block's bits, LSB first, in the low bytes of one uint64; a
        # tree's last block is packed on its own, so that no padded copy is made
        packed = np.zeros((int(nblocks.sum()), 8), dtype=np.uint8)
        row = stop = 0
        for m in ms.tolist():
            full, rem = divmod(m, t)
            tree = bits[stop : stop + m]
            packed[row : row + full, : (t + 7) // 8] = np.packbits(
                tree[: full * t].reshape(full, t), axis=1, bitorder="little"
            )
            if rem:
                packed[row + full, : (rem + 7) // 8] = np.packbits(tree[full * t :], bitorder="little")
            row, stop = row + full + (rem > 0), stop + m
        values = packed.view("<u8").ravel()
        classes = np.bitwise_count(values)
        if t <= _TABLE_MAX_T:
            offsets = _offset_table(t)[values]
        else:
            offsets = [offset_of_value(int(v), t, int(k)) for v, k in zip(values, classes)]
        widths = np.asarray(offset_widths(t))[classes]
        before = np.zeros(len(widths) + 1, dtype=np.int64)  # each block's first offset bit, then the end
        np.cumsum(widths, out=before[1:])
        if before[-1] >= 1 << 32:
            raise ValueError("rrr offset stream of 2^32 bits or more")
        offbuf = pack_fields(offsets, widths)
        bases = before[np.cumsum(nblocks) - nblocks]  # each tree's first offset bit
        # whole words with a spare one, as _parse_rrr leaves them, for read_fields
        self._setup(t, ms, classes, offbuf + bytes(16 - len(offbuf) % 8), bases)

    def _setup(self, t, ms, classes, offbuf, bases):
        """The vector of trees of ms bits, laid out in turn (see rrr_samples).

        classes (uint8) holds the classes of each tree's blocks in turn, and
        tree i's offsets start at bit bases[i] of offbuf. The caller checks
        that the samples fit uint32. Returns the ones of each tree, as int64.
        """
        every = RRR_SAMPLE_EVERY
        ms = np.asarray(ms, dtype=np.int64)
        nblocks = -(-ms // t)
        taken = rrr_samples(ms, t)
        full = np.zeros(every * int(taken.sum()), dtype=np.uint8)
        lengths = np.stack([nblocks, every * taken - nblocks], axis=1).ravel()
        full[np.repeat(np.tile([True, False], len(ms)), lengths)] = classes
        self._class_sums, self._width_sums, self._widths = _class_tables(t)
        # per sample: the ones of its blocks, and their offset bits
        # summed in uint16, which holds 32 classes or widths, and twice as fast as in int64
        ones = full.reshape(-1, every).sum(axis=1, dtype=np.uint16).astype(np.int64)
        widths = np.frombuffer(full.tobytes().translate(self._widths), dtype=np.uint8)
        width = widths.reshape(-1, every).sum(axis=1, dtype=np.uint16).astype(np.int64)
        firsts = np.cumsum(taken) - taken
        rank = np.cumsum(ones) - ones
        rank -= np.repeat(rank[firsts], taken)
        opos = np.cumsum(width) - width
        opos += np.repeat(np.asarray(bases) - opos[firsts], taken)
        self._shift = int(t <= _NIBBLE_MAX_T)  # the log2 of classes per byte
        self._mask = 0xFF >> 4 * self._shift
        self._classes = (full[0::2] | full[1::2] << 4 if self._shift else full).tobytes()
        self.m = every * t * int(firsts[-1]) + int(ms[-1])
        self.t = t
        self._table = _decode_table(t) if t <= _TABLE_MAX_T else None
        self._offbuf = offbuf
        self._sample_rank = array("I", rank.astype(np.uint32).tobytes())
        self._sample_opos = array("I", opos.astype(np.uint32).tobytes())
        # all that descend reads, in one tuple: one attribute load a call, not
        # fourteen, which the one or two levels of most descents would feel
        self._descent = (
            t, self._shift, self._mask, self._classes, self._class_sums, self._width_sums, self._widths,
            self._sample_rank, self._sample_opos, self._offbuf, *(self._table or (None, None)),
        )
        return (rank + ones)[firsts + taken - 1]

    def rank1(self, j):
        blk, rem = divmod(j, self.t)
        sb = blk >> 5
        classes = self._classes
        at = blk >> self._shift  # the byte of blk's class
        seg = classes[sb << 5 >> self._shift : at]
        r = self._sample_rank[sb] + sum(seg.translate(self._class_sums))
        half = blk & self._shift  # blk's class is its byte's high nibble, after the low one
        if rem:
            byte = classes[at]
            opos = self._sample_opos[sb] + sum(seg.translate(self._width_sums))
            if half:
                r += byte & 15
                opos += self._widths[byte & 15]
                byte >>= 4
            k = byte & self._mask
            w = self._widths[k]
            off = 0
            if w:  # classes 0 and t, often half the blocks, have no offset bits
                chunk = int.from_bytes(self._offbuf[opos >> 3 : (opos >> 3) + ((opos & 7) + w + 7 >> 3)], "little")
                off = chunk >> (opos & 7) & (1 << w) - 1
            if self._table is None:
                value = value_of_offset(off, self.t, k)
            else:
                words, starts = self._table
                value = words[starts[k] + off]
            return r + (value & ((1 << rem) - 1)).bit_count()
        if half:
            r += classes[at] & 15
        return r

    def descend(self, steps, b, e):
        """Both ends b <= e of one tree down a path's signed steps, level by level, to (b, e) at its end.

        Each level ranks both ends as rank1 does, inline, and moves them as
        the plain descend does, the whole path through. b's rank walks its
        sample's class bytes and decodes b's block. e's rank takes the same
        decoded block if e falls in it, else it starts from its own sample.
        """
        t, s, mask, classes, class_sums, width_sums, widths, sample_rank, sample_opos, offbuf, words, starts = (
            self._descent
        )
        for step in steps:
            blk, rem = divmod(b, t)
            last, erem = divmod(e, t)
            sb = blk >> 5
            seg = classes[sb << 5 >> s : blk >> s]
            # the ones and the offset position at b's class byte, then at b's block
            rb = sample_rank[sb] + sum(seg.translate(class_sums))
            o = sample_opos[sb] + sum(seg.translate(width_sums))
            byte = classes[blk >> s]
            if blk & s:
                rb += byte & 15
                o += widths[byte & 15]
                byte >>= 4
            if rem or last == blk:
                k = byte & mask
                w = widths[k]
                off = 0
                if w:
                    chunk = int.from_bytes(offbuf[o >> 3 : (o >> 3) + ((o & 7) + w + 7 >> 3)], "little")
                    off = chunk >> (o & 7) & (1 << w) - 1
                value = value_of_offset(off, t, k) if words is None else words[starts[k] + off]
                if last == blk:
                    re = rb + (value & (1 << erem) - 1).bit_count()
                rb += (value & (1 << rem) - 1).bit_count()
            if last != blk:
                sb = last >> 5
                seg = classes[sb << 5 >> s : last >> s]
                re = sample_rank[sb] + sum(seg.translate(class_sums))
                o = sample_opos[sb] + sum(seg.translate(width_sums))
                byte = classes[last >> s]
                if last & s:
                    re += byte & 15
                    o += widths[byte & 15]
                    byte >>= 4
                if erem:
                    k = byte & mask
                    w = widths[k]
                    off = 0
                    if w:
                        chunk = int.from_bytes(offbuf[o >> 3 : (o >> 3) + ((o & 7) + w + 7 >> 3)], "little")
                        off = chunk >> (o & 7) & (1 << w) - 1
                    value = value_of_offset(off, t, k) if words is None else words[starts[k] + off]
                    re += (value & (1 << erem) - 1).bit_count()
            if step > 0:
                b, e = rb + step, re + step
            else:
                b -= rb + step
                e -= re + step
        return b, e

    def batch_rank1(self):
        """rank1 over int64 arrays of positions: a function of one, over views of the vector's buffers.

        It makes two tables first: every block's class, and, in 32 bits, the
        classes and the offset widths of the blocks before it since its
        sample, each in 11 bits. A rank then reads its block's entries and
        its sample, and its block's offset, and decodes it (see _block_ones).
        The tables cost a pass over every block and 5 bytes per block, which
        the many rounds of count_many repay: it is the faster form there, and
        rank1_many the faster at load. Every view a rank reads is bound here,
        once per call.
        """
        t = self.t
        classes = self.block_classes(0, RRR_SAMPLE_EVERY * len(self._sample_rank))
        # a sample's 32 classes of at most 63 sum below 2^11, and so do their offset widths
        fields = _class_widths(t)[classes].astype(np.uint32)
        fields <<= 11
        fields |= classes
        fields = fields.reshape(-1, RRR_SAMPLE_EVERY)
        before = np.cumsum(fields, axis=1, dtype=np.uint32)
        before -= fields
        before = before.ravel()
        sample_rank = np.frombuffer(self._sample_rank, dtype=np.uint32)
        # int64, so that the offset positions are: numpy gathers by int64 indices faster than by uint32 ones
        sample_opos = np.frombuffer(self._sample_opos, dtype=np.uint32).astype(np.int64)
        block_ones = self._block_ones()

        def rank1(j):
            blk = j // t
            sb = blk >> 5
            entry = before[blk]
            opos = sample_opos[sb] + (entry >> 11)
            return sample_rank[sb] + (entry & 2047) + block_ones(classes[blk], opos, j - blk * t)

        return rank1

    def rank1_many(self, j):
        """rank1 of every position in the int64 array j, each from its own sample's window.

        A position sums the classes and the offset widths of its sample's
        blocks before its own, then reads its offset and decodes it (see
        _block_ones). No table is made, per block or kept across calls, so
        a call costs only its positions: a load ranks a few node ends per
        tree depth, where batch_rank1's tables would cost more than the ranks.
        """
        t = self.t
        widths = _class_widths(t)
        blk = j // t
        sb = blk >> 5
        window = np.frombuffer(self._classes, dtype=np.uint8).reshape(-1, RRR_SAMPLE_EVERY >> self._shift)[sb]
        if self._shift:  # two classes per byte, the low one first
            window = (window[:, :, None] >> _NIBBLES & 15).reshape(len(j), RRR_SAMPLE_EVERY)
        within = blk & (RRR_SAMPLE_EVERY - 1)
        before = _SAMPLE_BLOCKS < within[:, None]  # the blocks before blk in its sample
        ones = (window * before).sum(axis=1, dtype=np.int64)
        opos = (widths[window] * before).sum(axis=1, dtype=np.int64)
        opos += np.frombuffer(self._sample_opos, dtype=np.uint32)[sb]
        ones += self._block_ones()(window[np.arange(len(j)), within], opos, j - blk * t)
        return np.frombuffer(self._sample_rank, dtype=np.uint32)[sb] + ones

    def _block_ones(self):
        """The ones in the first rem bits of blocks: a function of arrays (k, opos, rem), over views made once.

        The blocks are of classes k (uint8) and their offsets start at bits
        opos (int64, which it may overwrite); the ones are uint8. Up to t =
        16 an offset is at most 14 bits wide, so the 4 bytes from the one
        that holds its first bit hold it: one unaligned uint32 view of the
        offset buffer, one element per byte (the buffer ends in a spare
        word), reads it, shifted and masked by its class, and the decode
        table decodes it. Above, read_fields reads it and it is decoded
        enumeratively. Both of batch_rank1's and rank1_many's ranks read
        their offsets here.
        """
        t = self.t
        widths = _class_widths(t)
        if self._table is None:
            stream = np.frombuffer(self._offbuf, dtype="<u8")

            def block_ones(k, opos, rem):
                value = _values_of_offsets(read_fields(stream, opos, widths[k]), t, k)
                return np.bitwise_count(value & ((_ONE << rem.view(np.uint64)) - _ONE))

            return block_ones
        view = np.ndarray(len(self._offbuf) - 3, dtype="<u4", buffer=self._offbuf, strides=(1,))
        words = np.frombuffer(self._table[0], dtype=np.uint16)
        starts = np.frombuffer(self._table[1], dtype=np.int64)
        masks = (np.uint32(1) << widths) - np.uint32(1)  # each class's offset bits
        low = (np.uint16(1) << np.arange(t, dtype=np.uint16)) - np.uint16(1)  # a block's bits before rem

        def block_ones(k, opos, rem):
            k = k.astype(np.intp)
            off = view[opos >> 3] >> (opos & 7) & masks[k]
            return np.bitwise_count(words[starts[k] + off] & low[rem])

        return block_ones

    def trim(self, ends, limits):
        """ValueError unless each tree's last node, ending at ends[i], ends its section, at limits[i]."""
        if np.any(np.asarray(ends) != np.asarray(limits)):
            raise ValueError("payload length")

    def to_bits(self):
        values = np.array([value_of_offset(off, self.t, k) for k, off in self.blocks()], np.uint64)
        bits = (values[:, None] >> np.arange(self.t, dtype=np.uint64)) & np.uint64(1)
        return bits.astype(np.uint8).ravel()[: self.m]

    def block_classes(self, lo=0, hi=None):
        """The classes of blocks lo..hi - 1, by default those of bits 0..m - 1, as uint8."""
        hi = -(-self.m // self.t) if hi is None else hi
        s = self._shift
        raw = np.frombuffer(self._classes, dtype=np.uint8)[lo >> s : (hi + s) >> s]
        if s:
            raw = np.stack([raw & 15, raw >> 4], axis=1).ravel()
        return raw[lo & s : (lo & s) + hi - lo]

    def _opos(self, blk):
        """Where block blk's offset starts in the offset stream."""
        seg = self.block_classes(blk & -RRR_SAMPLE_EVERY, blk)
        return self._sample_opos[blk >> 5] + sum(seg.tobytes().translate(self._widths))

    def blocks(self):
        """Introspection: (class, offset) of each block of bits 0..m - 1.

        Each block's offset is counted from its sample's: a loaded stream
        skips bits between trees (see _parse_rrr).
        """
        ks = self.block_classes()
        widths = np.frombuffer(ks.tobytes().translate(self._widths), dtype=np.uint8)
        blk = np.arange(len(ks))
        starts = np.cumsum(widths, dtype=np.int64) - widths
        starts += np.frombuffer(self._sample_opos, dtype=np.uint32)[blk >> 5] - starts[blk & -RRR_SAMPLE_EVERY]
        offsets = read_fields(np.frombuffer(self._offbuf, dtype="<u8"), starts, widths)
        return list(zip(ks.tolist(), offsets.tolist()))

    def stored_bits(self, start=0, stop=None):
        """The tree of bits start..stop - 1, all m by default, as stored; a uint8 per bit.

        Its bit count as 32 bits, the class field of each of its blocks,
        then their offsets; start is the tree's first bit.
        """
        stop = self.m if stop is None else stop
        lo, hi = start // self.t, -(-stop // self.t)
        fields = np.unpackbits(self.block_classes(lo, hi)[:, None], axis=1, bitorder="little")
        head = unpack_bits((stop - start).to_bytes(4, "little"), 0, 32)
        first = self._opos(lo)
        offsets = unpack_bits(self._offbuf, first, self._opos(hi) - first)
        return np.concatenate([head, fields[:, : self.class_field_width].ravel(), offsets])

    def tree_size(self, start, stop):
        """Bits of the tree of bits start..stop - 1: its stored bits, and its samples."""
        lo, hi = start // self.t, -(-stop // self.t)
        stored = 32 + (hi - lo) * self.class_field_width + self._opos(hi) - self._opos(lo)
        return stored, 64 * rrr_samples(stop - start, self.t)

    @property
    def class_field_width(self):
        return self.t.bit_length()


def build_plain(bits):
    return PlainBitVector(bits)


def build_rrr(bits, block_size=15):
    return RrrBitVector(bits, block_size)


def make_bitvector(bits, t, ms=None):
    """The vector of bits, plain for t = 0 else of t-bit RRR blocks: trees of ms[i] bits in turn, one by default."""
    return RrrBitVector(bits, t, ms) if t else PlainBitVector(bits, ms)


def read_sections(bufs, t):
    """One vector of payload sections, plain for t = 0 else of t-bit RRR blocks, and each tree's first bit and limit.

    A tree's limit is where its section ends in the vector.
    """
    return read_rrr(bufs, t) if t else read_plain(bufs)


def read_plain(bufs):
    """One vector of the plain payload sections in bufs, and each tree's first bit and limit.

    Each section starts on a fresh word and takes the words of all its
    bits: its limit is first + 8 * len(buf). The sections are joined in one
    pass, each padded with zero bytes to the words it takes, after the
    sizes are checked (see tree_firsts). A tree's length is only known
    once its nodes are read, so trim then checks that at most the 7 bits
    of the section's last byte follow them.
    """
    stored = 8 * np.fromiter(map(len, bufs), dtype=np.int64, count=len(bufs))
    firsts = tree_firsts(stored)
    pads = map(bytes, (8 * plain_words(stored) - (stored >> 3)).tolist())
    raw = bytearray().join(itertools.chain.from_iterable(zip(bufs, pads))).translate(_REVERSED)
    vector = PlainBitVector.__new__(PlainBitVector)
    vector._setup(raw, stored)
    return vector, firsts.tolist(), (firsts + stored).tolist()


def read_rrr(bufs, t):
    """One vector of the RRR payload sections in bufs, and each tree's first bit and limit.

    Each tree starts on a fresh sample (see rrr_samples), and its limit is
    first + m. Routing a node decodes the block that holds its end, so every
    section is parsed, and its fields checked, before any node is (see
    _parse_rrr). Last, the bits after m in each tree's last block must be
    zero, as the writer leaves them, so that the tree's ones are its rank
    at m: one rank1_many call ranks every tree's limit.
    """
    ms, classes, offbuf, bases = _parse_rrr(bufs, t)
    vector = RrrBitVector.__new__(RrrBitVector)
    ones = vector._setup(t, ms, classes, offbuf, bases)
    firsts = tree_firsts(ms, t)
    limits = firsts + ms
    if np.any(vector.rank1_many(limits) != ones):
        raise ValueError("rrr padding bits")
    return vector, firsts.tolist(), limits.tolist()


def _parse_rrr(bufs, t):
    """The fields of RRR payload sections, parsed in one pass.

    Returns each section's bit count m (int64), the classes of all their
    blocks in turn (uint8), and the offset buffer with the bit of it where
    each section's offsets start: each section's bytes from the one that
    holds its first offset bit, copied as they are, then a spare word for
    read_fields. Each check runs over all sections before the next: their
    lengths against m, the classes, their lengths against the offset
    widths, and last, over the offset buffer, every offset below
    comb(t, class). Raises EOFError or ValueError naming the failed check;
    ValueError before allocating if the copied bytes hold 2^32 bits or
    more, which the uint32 samples could not address. The sections are
    sliced and joined by map, with no Python loop over them.
    """
    width = t.bit_length()
    size = np.fromiter(map(len, bufs), dtype=np.int64, count=len(bufs))
    if (size < 4).any():
        raise EOFError("payload truncated")
    ms = np.frombuffer(b"".join(map(operator.getitem, bufs, itertools.repeat(slice(4)))), dtype="<u4")
    ms = ms.astype(np.int64)
    heads = 32 + -(-ms // t) * width  # the bit of each section where its offsets start
    if (heads > 8 * size).any():
        raise EOFError("payload truncated")
    spans = size - (heads >> 3)
    if 8 * int(spans.sum()) >= 1 << 32:
        raise ValueError("rrr offset stream of 2^32 bits or more")
    # the class fields of all sections, each from its byte 4 to the end of its
    # last field, padded with zero bytes to whole groups of 8 fields, width bytes each
    nblocks = (heads - 32) // width
    groups = -(-nblocks // 8)
    fields = map(operator.getitem, bufs, map(slice, itertools.repeat(4), ((heads + 7) >> 3).tolist()))
    pads = map(bytes, (width * groups - ((heads - 25) >> 3)).tolist())
    raw = np.frombuffer(b"".join(itertools.chain.from_iterable(zip(fields, pads))), dtype=np.uint8)
    group = np.zeros((len(raw) // width, 8), dtype=np.uint8)
    group[:, :width] = raw.reshape(-1, width)
    fields = group.view("<u8") >> np.arange(0, 8 * width, width, dtype=np.uint64)
    fields &= np.uint64((1 << width) - 1)
    keep = np.repeat(np.tile([True, False], len(bufs)), np.stack([nblocks, 8 * groups - nblocks], axis=1).ravel())
    classes = fields.astype(np.uint8).ravel()[keep]
    if len(classes) and int(classes.max()) > t:
        raise ValueError("rrr class out of range")
    widths = np.frombuffer(classes.tobytes().translate(_class_tables(t)[2]), dtype=np.uint8)
    # only the blocks with offset bits: classes 0 and t have none, and are often half the blocks
    held = np.flatnonzero(widths)
    widths, kinds = widths[held], classes[held]
    starts = np.zeros(len(held) + 1, dtype=np.int64)  # each one's offset bit, as if joined
    starts[1:] = widths
    np.cumsum(starts, out=starts)  # in int64 throughout: from uint8 it takes twice as long
    ends = np.searchsorted(held, np.cumsum(nblocks))  # each section's last such block, plus one
    stops = heads + np.diff(starts[ends], prepend=0)  # the bit of each section where its offsets end
    if (stops > 8 * size).any():
        raise EOFError("rrr offsets truncated")
    if (size > (stops + 7) // 8).any():
        raise ValueError("payload length")
    tails = map(operator.getitem, bufs, map(slice, (heads >> 3).tolist(), itertools.repeat(None)))
    offbuf = b"".join(itertools.chain(tails, [bytes(16 - int(spans.sum()) % 8)]))
    bases = 8 * (np.cumsum(spans) - spans) + (heads & 7)
    counts = np.diff(ends, prepend=0)
    starts = starts[:-1] + np.repeat(bases - starts[ends - counts], counts)
    words = np.frombuffer(offbuf, dtype="<u8")
    limits = np.array([math.comb(t, k) for k in range(t + 1)], dtype=np.uint64)
    # 2^15 fields at a time, which keeps the temporaries in cache
    for lo in range(0, len(held), 1 << 15):
        part = slice(lo, lo + (1 << 15))
        if np.any(read_fields(words, starts[part], widths[part]) >= limits[kinds[part]]):
            raise ValueError("rrr offset out of range")
    return ms, classes, offbuf, bases
