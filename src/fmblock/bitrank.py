"""Bitvectors with fast rank.

Two interchangeable representations:

* PlainBitVector keeps the raw bits in one buffer of 64-bit words, read
  through memoryview.cast("Q"), and one 32-bit counter per word through
  .cast("I"): the ones before the word. A word holds its first bit in the
  most significant place, so the ones before a position are the word
  shifted right, with no mask to build: a rank is one counter plus one
  shift and one popcount. One vector can hold many trees, each from a
  fresh word and with its own counters (see plain_words).
* RrrBitVector cuts the bits into t-bit blocks and the blocks into
  samples of 32, and stores each sample as one of three kinds, whichever
  is smaller: RRR, each block's popcount class and then an enumerative
  offset that identifies the block among all t-bit words of that class in
  ascending numeric order; or the sorted uint16 positions of the sample's
  ones, or of its zeros, when they are few (Kärkkäinen, Kempa and
  Puglisi's hybrid bitvector). All samples' bytes are one stream; each
  sample has two uint32 values, its rank and a pointer into the stream
  whose top two bits give its kind. A RRR sample's classes are two 4-bit
  classes per byte for t <= 15 and one per byte above, so a rank sums the
  class bytes before its block, and their offset widths, each through a
  256-byte translation table, without a Python loop, and reads its
  block's offset with at most two aligned reads of a uint64 view of the
  stream; a sparse sample's rank is one bisect of its positions, through
  a uint16 view. One vector can hold many trees, each from a fresh sample
  and with its own ranks (see rrr_samples).

A wavelet tree keeps all its nodes in one vector, joined bit to bit in
level order under either backend, and all the trees of an index share
one: tree_firsts() gives each tree's first bit in it, the one rule for
where trees start. A build makes the vector once, from every tree's bits
and bit count (make_bitvector()), and a load from every tree's section;
each names the vector by its RRR block size t alone, 0 for plain.
This module owns the layout of a tree in the index file, which is the
vector's own stored form (stored_bits()): a plain tree stores its raw
bits, an RRR tree its bit count m as a u32, then a kind byte per sample
and the samples' bytes as the stream holds them. read_sections() builds
one vector of the sections of all trees of an index and gives each
tree's first bit in it and its limit, where its section ends;
read_plain() does so for plain sections and read_rrr() for RRR ones,
slicing them in one pass and checking every sample before any node is
routed. Neither loops over the sections in Python: the sections are
sliced and joined by map, and every check and table is made over all of
them at once. Once the nodes are routed (see wavelet), the vector's
trim() checks the bits that follow each tree's last node, for all trees
at once; plain padding bits are left as read, since no rank reads past a
tree's last node.

Each backend also takes both ends of a backward-search step in one tree
down a symbol's path, level by level: descend() ranks both ends of a level
in one call, with rank1's arithmetic inline, and returns both ends at the
path's end, even where they met on the way; only the caller decides that
a range is empty. The RRR one decodes one block for both ends when they
fall in it, searches a sparse sample's positions for e from b's, and
else ranks the second end from its own sample.

Each backend also ranks many positions at once, in two forms over
np.frombuffer views of the vector's buffers. batch_rank1() returns a
function of an int64 array of positions, for count_many's many rounds,
and binds every view and table it reads once, so that a round is only
its arithmetic: the plain one is rank1 in numpy; the RRR one first makes
tables per block (its class, its bits in a sparse sample, and the ones
and offset widths before it since its sample), which live as long as the
function does. rank1_many(positions) ranks once, for a load's few
positions per tree depth: plain, it is batch_rank1's; RRR, each position
compares its sparse sample's positions or sums its RRR sample's classes,
with no table over all blocks. Both RRR forms read their blocks' offsets
through _offset_reader: up to t = 16 from one unaligned uint32 view of
the stream, one element per byte, and above with read_fields; and decode
them through _decoder, with the decode table or enumeratively.
"""

import functools
import itertools
import math
import operator
from array import array
from bisect import bisect_left

import numpy as np

from .bitio import pack_fields, read_fields

# each byte with its bits in reverse order: bitio's LSB-first bytes to the words' MSB-first ones
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
RRR_SAMPLE_EVERY = 32
_TABLE_MAX_T = 16
_NIBBLE_MAX_T = 15
_ONE = np.uint64(1)
_MAX_POSITIONS = 63  # the most positions a sparse sample holds: its kind byte's count field
_SLOTS = np.arange(_MAX_POSITIONS)
# a sample pointer's top two bits: its sample is sparse, and then its positions are its zeros'
_SPARSE = 1 << 31
_ZEROS = 1 << 30
_AT = _ZEROS - 1  # the byte of the stream where the sample starts


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
    tree's end is counted from a sample of the tree. m may be a numpy array.
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
    """The bits of one or more trees as samples of 32 t-bit blocks, each of one of three kinds.

    Each tree starts on a sample and takes rrr_samples of its bit count; the
    blocks after its last are all zero. A sample is stored in whichever
    kind is smaller (see __init__), as bytes in the one stream of samples:
    RRR, the class of each block and then their offsets, padded to an even
    byte count; or the sorted uint16 positions in its 32 t bits of its ones,
    or of its zeros. Each sample holds the ones before it since its tree's
    first bit, and a pointer: the byte of the stream where it starts, with
    its kind in the top two bits, so rank1(j) counts the ones from the start
    of the tree that holds j to j. A sparse sample's count is the distance to
    the next sample's pointer over 2; the last sample's next is where the
    samples end.
    """

    __slots__ = (
        "m", "t", "_stream", "_words", "_pos", "_ptr", "_sample_rank", "_shift", "_mask",
        "_class_sums", "_width_sums", "_widths", "_table", "_descent",
    )

    def __init__(self, bits, block_size=15, ms=None):
        """The vector of bits, which hold trees of ms[i] bits in turn, by default one tree.

        Each sample takes the kind that is smaller: sparse if its minority bit
        occurs at most 63 times and two bytes each are fewer than its RRR
        bytes, ones on a tie of ones and zeros; else RRR.
        """
        t = int(block_size)
        if not 1 <= t <= 63:
            raise ValueError("rrr block size must be in 1..63")
        ms = np.array([len(bits)] if ms is None else ms, dtype=np.int64)
        firsts = tree_firsts(ms, t) // t  # each tree's first block; checks every tree's size before the bits are copied
        bits = _as_bit_array(bits)
        span = RRR_SAMPLE_EVERY * t
        cb = RRR_SAMPLE_EVERY >> int(t <= _NIBBLE_MAX_T)
        # each block's bits, LSB first, in the low bytes of one uint64, every
        # sample's 32 in a row; a tree's last block is packed on its own, so
        # that no padded copy is made
        packed = np.zeros((RRR_SAMPLE_EVERY * int(rrr_samples(ms, t).sum()), 8), dtype=np.uint8)
        for row, stop, m in zip(firsts.tolist(), np.cumsum(ms).tolist(), ms.tolist()):
            full, rem = divmod(m, t)
            tree = bits[stop - m : stop]
            packed[row : row + full, : (t + 7) // 8] = np.packbits(
                tree[: full * t].reshape(full, t), axis=1, bitorder="little"
            )
            if rem:
                packed[row + full, : (rem + 7) // 8] = np.packbits(tree[full * t :], bitorder="little")
        values = packed.view("<u8").reshape(-1, RRR_SAMPLE_EVERY)
        classes = np.bitwise_count(values)
        widths = np.frombuffer(classes.tobytes().translate(_class_tables(t)[2]), dtype=np.uint8).reshape(classes.shape)
        ones = classes.sum(axis=1, dtype=np.int64)
        halves = (widths.sum(axis=1, dtype=np.int64) + 15) >> 4  # a RRR sample's offset bytes over 2
        count = np.minimum(ones, span - ones)
        zeros = count < ones
        sparse = (count <= _MAX_POSITIONS) & (2 * count < cb + 2 * halves)
        size = np.where(sparse, 2 * count, cb + 2 * halves)
        if 8 * int(size.sum()) >= 1 << 32:
            raise ValueError("rrr offset stream of 2^32 bits or more")
        kinds = np.where(sparse, 128 | zeros << 6 | count, halves).astype(np.uint8)
        at = np.cumsum(size) - size  # where each sample starts in the stream
        stream = np.zeros(int(size.sum()) + 16 - int(size.sum()) % 8, dtype=np.uint8)
        # a RRR sample's class bytes, then its offsets, padded to an even byte count by one more field
        rrr = np.flatnonzero(~sparse)
        k = classes[rrr]
        stream[at[rrr, None] + np.arange(cb)] = k[:, 0::2] | k[:, 1::2] << 4 if cb < RRR_SAMPLE_EVERY else k
        if t <= _TABLE_MAX_T:
            offsets = _offset_table(t)[values[rrr]]
        else:
            offsets = [[offset_of_value(int(v), t, int(c)) for v, c in zip(*row)] for row in zip(values[rrr], k)]
        fields = np.zeros((len(rrr), RRR_SAMPLE_EVERY + 1), dtype=np.uint64)
        fields[:, :-1] = np.asarray(offsets, dtype=np.uint64).reshape(-1, RRR_SAMPLE_EVERY)
        width = np.zeros(fields.shape, dtype=np.int64)
        width[:, :-1] = widths[rrr]
        width[:, -1] = 16 * halves[rrr] - widths[rrr].sum(axis=1, dtype=np.int64)
        fields = np.frombuffer(pack_fields(fields.ravel(), width.ravel()), dtype=np.uint8)
        held = 2 * halves[rrr]  # each sample's offset bytes, one run in fields
        stream[np.repeat(at[rrr] + cb - (np.cumsum(held) - held), held) + np.arange(len(fields))] = fields
        # a sparse sample's positions of its minority bit, 16 bits each
        kept = np.flatnonzero(sparse)
        window = values[kept].view(np.uint8).reshape(-1, 8)[:, : (t + 7) // 8]
        window = np.unpackbits(window, axis=1, bitorder="little")[:, :t].reshape(len(kept), span)
        row, pos = np.nonzero(window != zeros[kept, None])
        stream.view("<u2")[(at[kept[row]] >> 1) + np.arange(len(row)) - np.searchsorted(row, row)] = pos
        self._setup(t, ms, kinds, stream.tobytes())

    def _setup(self, t, ms, kinds, stream):
        """The vector of trees of ms bits, laid out in turn (see rrr_samples), from their samples.

        kinds (uint8) holds each sample's kind byte, as a payload section
        stores it (see read_rrr), and stream the samples' bytes in turn,
        then zero bytes to a whole word and a spare word, for the offset
        reads. The caller checks that every sample's bytes lie in stream,
        and that the samples fit uint32. Returns the ones of each tree, as
        int64.
        """
        every = RRR_SAMPLE_EVERY
        ms = np.asarray(ms, dtype=np.int64)
        s = int(t <= _NIBBLE_MAX_T)  # the log2 of classes per byte
        cb = every >> s
        kinds = kinds.astype(np.int64)
        sparse = kinds >= 128
        count = np.where(sparse, kinds & _MAX_POSITIONS, kinds)
        size = 2 * count + cb * ~sparse
        ptr = np.zeros(len(kinds) + 1, dtype=np.int64)
        np.cumsum(size, out=ptr[1:])
        # a sparse one's ones are its count, or its bits less it; a RRR one's, its classes' sum
        ones = np.where(kinds >> 6 == 3, every * t - count, count)
        self._class_sums, self._width_sums, self._widths = _class_tables(t)
        rrr = np.flatnonzero(~sparse)
        raw = np.frombuffer(stream, dtype=np.uint8)[ptr[rrr, None] + np.arange(cb)].tobytes().translate(self._class_sums)
        ones[rrr] = np.frombuffer(raw, dtype=np.uint8).reshape(-1, cb).sum(axis=1, dtype=np.int64)
        ptr[:-1] |= sparse * kinds >> 6 << 30
        taken = rrr_samples(ms, t)
        firsts = np.cumsum(taken) - taken
        rank = np.cumsum(ones) - ones
        rank -= np.repeat(rank[firsts], taken)
        self.t = t
        self.m = every * t * int(firsts[-1]) + int(ms[-1])
        self._shift = s
        self._mask = 0xFF >> 4 * s
        self._stream = stream
        self._words = memoryview(stream).cast("Q")
        self._pos = memoryview(stream).cast("H")
        self._ptr = array("I", ptr.astype(np.uint32).tobytes())
        self._sample_rank = array("I", rank.astype(np.uint32).tobytes())
        self._table = _decode_table(t) if t <= _TABLE_MAX_T else None
        # all that descend reads, in one tuple: one attribute load a call, not
        # sixteen, which the one or two levels of most descents would feel
        self._descent = (
            t, s, self._mask, cb << 3, every * t, stream, self._words, self._pos, self._ptr, self._sample_rank,
            self._class_sums, self._width_sums, self._widths, *(self._table or (None, None)),
        )
        return (rank + ones)[firsts + taken - 1]

    def rank1(self, j):
        blk, rem = divmod(j, self.t)
        sb = blk >> 5
        at = self._ptr[sb]
        if at >= _SPARSE:  # the positions below j's in the sample, of its ones or its zeros
            p = j - sb * RRR_SAMPLE_EVERY * self.t
            lo = (at & _AT) >> 1
            c = bisect_left(self._pos, p, lo, (self._ptr[sb + 1] & _AT) >> 1) - lo
            return self._sample_rank[sb] + (p - c if at & _ZEROS else c)
        stream = self._stream
        i = at + ((blk & 31) >> self._shift)  # the byte of blk's class
        seg = stream[at:i]
        r = self._sample_rank[sb] + sum(seg.translate(self._class_sums))
        half = blk & self._shift  # blk's class is its byte's high nibble, after the low one
        if rem:
            byte = stream[i]
            # the offsets start after the sample's class bytes
            o = (at + (RRR_SAMPLE_EVERY >> self._shift) << 3) + sum(seg.translate(self._width_sums))
            if half:
                r += byte & 15
                o += self._widths[byte & 15]
                byte >>= 4
            k = byte & self._mask
            w = self._widths[k]
            off = 0
            if w:  # classes 0 and t, often half the blocks, have no offset bits
                off = self._words[o >> 6] >> (o & 63)
                if (o & 63) + w > 64:
                    off |= self._words[(o >> 6) + 1] << 64 - (o & 63)
                off &= (1 << w) - 1
            if self._table is None:
                value = value_of_offset(off, self.t, k)
            else:
                words, starts = self._table
                value = words[starts[k] + off]
            return r + (value & ((1 << rem) - 1)).bit_count()
        if half:
            r += stream[i] & 15
        return r

    def descend(self, steps, b, e):
        """Both ends b <= e of one tree down a path's signed steps, level by level, to (b, e) at its end.

        Each level ranks both ends as rank1 does, inline, and moves them as
        the plain descend does, the whole path through. In a sparse sample,
        e's search starts from b's; in a RRR one, b's rank walks its
        sample's class bytes and decodes b's block, and e's takes the same
        decoded block if e falls in it. Else e is ranked from its own sample.
        """
        (
            t, s, mask, head, span, stream, words, pos, ptrs, sample_rank,
            class_sums, width_sums, widths, table, starts,
        ) = self._descent
        for step in steps:
            blk, rem = divmod(b, t)
            sb = blk >> 5
            at = ptrs[sb]
            re = -1
            if at >= _SPARSE:
                p = b - sb * span
                lo = (at & _AT) >> 1
                hi = (ptrs[sb + 1] & _AT) >> 1
                c = bisect_left(pos, p, lo, hi)
                rb = sample_rank[sb] + (p - c + lo if at & _ZEROS else c - lo)
                q = e - sb * span
                if q < span:
                    c = bisect_left(pos, q, c, hi)
                    re = sample_rank[sb] + (q - c + lo if at & _ZEROS else c - lo)
            else:
                last, erem = divmod(e, t)
                i = at + ((blk & 31) >> s)
                seg = stream[at:i]
                # the ones and the offset position at b's class byte, then at b's block
                rb = sample_rank[sb] + sum(seg.translate(class_sums))
                o = (at << 3) + head + sum(seg.translate(width_sums))
                byte = stream[i]
                if blk & s:
                    rb += byte & 15
                    o += widths[byte & 15]
                    byte >>= 4
                if rem or last == blk:
                    k = byte & mask
                    w = widths[k]
                    off = 0
                    if w:
                        off = words[o >> 6] >> (o & 63)
                        if (o & 63) + w > 64:
                            off |= words[(o >> 6) + 1] << 64 - (o & 63)
                        off &= (1 << w) - 1
                    value = value_of_offset(off, t, k) if table is None else table[starts[k] + off]
                    if last == blk:
                        re = rb + (value & (1 << erem) - 1).bit_count()
                    rb += (value & (1 << rem) - 1).bit_count()
            if re < 0:
                blk, rem = divmod(e, t)
                sb = blk >> 5
                at = ptrs[sb]
                if at >= _SPARSE:
                    p = e - sb * span
                    lo = (at & _AT) >> 1
                    c = bisect_left(pos, p, lo, (ptrs[sb + 1] & _AT) >> 1) - lo
                    re = sample_rank[sb] + (p - c if at & _ZEROS else c)
                else:
                    i = at + ((blk & 31) >> s)
                    seg = stream[at:i]
                    re = sample_rank[sb] + sum(seg.translate(class_sums))
                    o = (at << 3) + head + sum(seg.translate(width_sums))
                    byte = stream[i]
                    if blk & s:
                        re += byte & 15
                        o += widths[byte & 15]
                        byte >>= 4
                    if rem:
                        k = byte & mask
                        w = widths[k]
                        off = 0
                        if w:
                            off = words[o >> 6] >> (o & 63)
                            if (o & 63) + w > 64:
                                off |= words[(o >> 6) + 1] << 64 - (o & 63)
                            off &= (1 << w) - 1
                        value = value_of_offset(off, t, k) if table is None else table[starts[k] + off]
                        re += (value & (1 << rem) - 1).bit_count()
            if step > 0:
                b, e = rb + step, re + step
            else:
                b -= rb + step
                e -= re + step
        return b, e

    def batch_rank1(self):
        """rank1 over int64 arrays of positions: a function of one, over views of tables made once per call.

        The tables hold each block's class (0 in a sparse sample), its bits
        if its sample is sparse, and, in 32 bits, the ones and the offset
        widths of the blocks before it since its sample, each in 11 bits. A
        rank then reads its sample and its block's entries, and its block's
        offset, which it decodes (0 of class 0) and ors with the block's
        sparse bits: the same arithmetic for every kind. The tables cost a
        pass over every block and 7 bytes per block (13 above t = 16), which
        the many rounds of count_many repay: it is the faster form there,
        and rank1_many the faster at load. Every view a rank reads is bound
        here, once per call.
        """
        t = self.t
        ptr = np.frombuffer(self._ptr, dtype=np.uint32).astype(np.int64)
        rrr = np.flatnonzero(ptr[:-1] < _SPARSE)
        classes = np.zeros((len(ptr) - 1, RRR_SAMPLE_EVERY), dtype=np.uint8)
        classes[rrr] = self._classes(ptr[rrr])
        # a sample's 32 classes of at most 63 sum below 2^11, and so do their offset widths
        fields = np.frombuffer(classes.tobytes().translate(self._widths), dtype=np.uint8).astype(np.uint32)
        fields <<= 11
        fields |= classes.ravel()
        fields = fields.reshape(classes.shape)
        sparse, values = self._sparse_values(ptr)
        bits = np.zeros(classes.shape, dtype=values.dtype)
        bits[sparse] = values
        fields[sparse] = np.bitwise_count(values)
        before = np.cumsum(fields, axis=1, dtype=np.uint32)
        before -= fields
        before, classes, bits = before.ravel(), classes.ravel(), bits.ravel()
        # int64, so that the offset positions are: numpy gathers by int64 indices faster than by uint32 ones
        base = np.where(ptr[:-1] < _SPARSE, ptr[:-1] + (RRR_SAMPLE_EVERY >> self._shift) << 3, 0)
        sample_rank = np.frombuffer(self._sample_rank, dtype=np.uint32)
        read, decode = self._offset_reader(), self._decoder()
        low = (np.ones(1, dtype=values.dtype) << np.arange(t, dtype=values.dtype)) - values.dtype.type(1)

        def rank1(j):
            blk = j // t
            sb = blk >> 5
            entry = before[blk]
            k = classes[blk].astype(np.intp)  # numpy gathers by intp indices faster than by uint8 ones
            value = decode(k, read(k, base[sb] + (entry >> 11))) | bits[blk]
            return sample_rank[sb] + (entry & 2047) + np.bitwise_count(value & low[j - blk * t])

        return rank1

    def rank1_many(self, j):
        """rank1 of every position in the int64 array j, each from its own sample, as int64.

        In a sparse sample a position compares its sample's at most 63
        positions with its own. In a RRR one it sums the classes and the
        offset widths of its sample's blocks before its own, then reads its
        offset and decodes it. No table is made, per block or kept across
        calls, so a call costs only its positions: a load ranks a few node
        ends per tree depth, where batch_rank1's tables would cost more than
        the ranks.
        """
        t = self.t
        blk = j // t
        sb = blk >> 5
        ptr = np.frombuffer(self._ptr, dtype=np.uint32)
        at = ptr[sb].astype(np.int64)
        rrr = at < _SPARSE
        # a sparse sample's positions below j's, of its next at most 63 stream
        # elements those before the next sample's; none for a RRR sample
        lo = (at & _AT) >> 1
        held = (((ptr[sb + 1] & _AT) >> 1) - lo) * ~rrr
        slots = _SLOTS[: held.max(initial=0)]
        p = (j - sb * RRR_SAMPLE_EVERY * t) * ~rrr
        pos = np.frombuffer(self._stream, dtype="<u2").take(lo[:, None] + slots, mode="clip")
        c = ((pos < p[:, None]) & (slots < held[:, None])).sum(axis=1)
        ones = np.where(at & _ZEROS, p - c, c)
        # a RRR sample's class bytes before j's block's, summed as rank1 sums
        # them, then the low class of that byte if j's is the high one; none
        # for a sparse sample, whose block is taken as one of class 0
        cb = RRR_SAMPLE_EVERY >> self._shift
        raw = np.frombuffer(self._stream, dtype=np.uint8).take(at[:, None] + _SLOTS[:cb], mode="clip")
        i = ((blk & (RRR_SAMPLE_EVERY - 1)) >> self._shift) * rrr  # the byte of j's block's class
        before = _SLOTS[:cb] < i[:, None]
        sums, widths = (
            (np.frombuffer(raw.tobytes().translate(table), dtype=np.uint8).reshape(raw.shape) * before).sum(axis=1, dtype=np.int64)
            for table in (self._class_sums, self._width_sums)
        )
        ones += sums
        opos = widths + (at + cb << 3)
        k = raw[np.arange(len(j)), i]
        if self._shift:
            half = blk & rrr  # j's class is its byte's high nibble, after the low one
            ones += (k & 15) * half
            opos += _class_widths(t)[k & 15] * half
            k = np.where(half, k >> 4, k & 15)
        k *= rrr
        opos *= rrr
        value = self._decoder()(k, self._offset_reader()(k, opos))
        ones += np.bitwise_count(value & (_ONE << (j - blk * t).astype(np.uint64)) - _ONE)
        return np.frombuffer(self._sample_rank, dtype=np.uint32)[sb] + ones

    def _classes(self, at):
        """The classes (uint8) of the 32 blocks of each RRR sample at byte at[i] of the stream, one row each."""
        k = np.frombuffer(self._stream, dtype=np.uint8)[at[:, None] + np.arange(RRR_SAMPLE_EVERY >> self._shift)]
        if self._shift:  # two classes per byte, the low one first
            k = np.stack([k & 15, k >> 4], axis=2).reshape(len(at), RRR_SAMPLE_EVERY)
        return k

    def _rrr_blocks(self, at):
        """The classes (uint8) and offset starts (int64) of the 32 blocks of each RRR sample at byte at[i] of the stream.

        A sample's offsets start after its class bytes, each after the
        offset widths of the blocks before it: 32 of at most 60 bits sum in
        uint16.
        """
        k = self._classes(at)
        widths = np.frombuffer(k.tobytes().translate(self._widths), dtype=np.uint8).reshape(k.shape)
        opos = np.cumsum(widths, axis=1, dtype=np.uint16)
        opos -= widths
        return k, opos + (at + (RRR_SAMPLE_EVERY >> self._shift) << 3)[:, None]

    def _positions(self, ptr):
        """The positions of every sparse sample in turn, as int64, and the sample of each; ptr is _ptr as int64."""
        sparse = np.flatnonzero(ptr[:-1] >= _SPARSE)
        lo = (ptr[sparse] & _AT) >> 1
        count = ((ptr[sparse + 1] & _AT) >> 1) - lo
        idx = np.arange(int(count.sum())) + np.repeat(lo - (np.cumsum(count) - count), count)
        return np.repeat(sparse, count), np.frombuffer(self._stream, dtype="<u2")[idx].astype(np.int64)

    def _sparse_values(self, ptr):
        """The sparse samples, and the t bits of each of their blocks, LSB first, one row per sample.

        The bits are uint16 up to t = 16, else uint64: a ones sample's are
        its positions' bits, a zeros one's their complement; ptr is _ptr as int64.
        """
        t = self.t
        sparse = np.flatnonzero(ptr[:-1] >= _SPARSE)
        sample, pos = self._positions(ptr)
        dtype = np.uint16 if t <= _TABLE_MAX_T else np.uint64
        values = np.zeros((len(sparse), RRR_SAMPLE_EVERY), dtype=dtype)
        blk = np.searchsorted(sparse, sample) * RRR_SAMPLE_EVERY + pos // t
        first = np.flatnonzero(np.diff(blk, prepend=-1))  # each block's first position; they are sorted
        if len(blk):
            bits = np.ones(1, dtype=dtype) << (pos % t).astype(dtype)
            values.ravel()[blk[first]] = np.bitwise_or.reduceat(bits, first)
        values[ptr[sparse] >> 30 == 3] ^= (np.ones(1, dtype=dtype) << dtype(t)) - dtype(1)
        return sparse, values

    def _offset_reader(self):
        """A function (k, opos) that reads the offsets of blocks of classes k (uint8) at bits opos (int64) of the stream.

        Up to t = 16 an offset is at most 14 bits wide, so the 4 bytes from
        the one that holds its first bit hold it: one unaligned uint32 view
        of the stream, one element per byte (the stream ends in a spare
        word), reads it, as int64. Above, read_fields reads it, as uint64.
        Every view it reads is bound here.
        """
        widths = _class_widths(self.t)
        if self.t > _TABLE_MAX_T:
            stream = np.frombuffer(self._stream, dtype="<u8")
            return lambda k, opos: read_fields(stream, opos, widths[k])
        view = np.ndarray(len(self._stream) - 3, dtype="<u4", buffer=self._stream, strides=(1,))
        masks = (np.uint32(1) << widths) - np.uint32(1)  # each class's offset bits
        return lambda k, opos: view[opos >> 3] >> (opos & 7) & masks[k]

    def _decoder(self):
        """A function (k, off) that decodes the t-bit blocks of classes k and offsets off, as _offset_reader reads them.

        Up to t = 16 through the decode table, as uint16; above
        enumeratively, as uint64, overwriting off.
        """
        t = self.t
        if self._table is None:
            return lambda k, off: _values_of_offsets(off, t, k)
        words = np.frombuffer(self._table[0], dtype=np.uint16)
        starts = np.frombuffer(self._table[1], dtype=np.int64)
        return lambda k, off: words[starts[k] + off]

    def _values(self):
        """Every block's t bits, LSB first, as uint64, over all the vector's samples, whatever their kind."""
        ptr = np.frombuffer(self._ptr, dtype=np.uint32).astype(np.int64)
        values = np.zeros((len(ptr) - 1, RRR_SAMPLE_EVERY), dtype=np.uint64)
        rrr = np.flatnonzero(ptr[:-1] < _SPARSE)
        k, opos = self._rrr_blocks(ptr[rrr])
        values[rrr] = self._decoder()(k, self._offset_reader()(k, opos))
        sparse, values[sparse] = self._sparse_values(ptr)
        return values.ravel()

    def _check(self, ms):
        """ValueError unless every sample is as a writer leaves it, of trees of ms bits; before any rank.

        Over the RRR samples: classes above t ("rrr class out of range"),
        offset bytes other than their classes' widths give ("rrr sample
        kind") and offsets at or above comb(t, class) ("rrr offset out of
        range"); over the sparse ones: positions not strictly ascending, past
        the sample's bits, or for ones past its tree's ("rrr positions").
        Each check runs over all samples before the next.
        """
        t = self.t
        span = RRR_SAMPLE_EVERY * t
        ptr = np.frombuffer(self._ptr, dtype=np.uint32).astype(np.int64)
        rrr = ptr[:-1] < _SPARSE
        at = ptr[:-1][rrr]
        cb = RRR_SAMPLE_EVERY >> self._shift
        raw = np.frombuffer(self._stream, dtype=np.uint8)[at[:, None] + np.arange(cb)]
        top = np.maximum(raw & 15, raw >> 4) if self._shift else raw
        if top.max(initial=0) > t:
            raise ValueError("rrr class out of range")
        widths = np.frombuffer(raw.tobytes().translate(self._width_sums), dtype=np.uint8).reshape(raw.shape)
        halves = (widths.sum(axis=1, dtype=np.int64) + 15) >> 4
        if np.any((ptr[1:][rrr] & _AT) - at != cb + 2 * halves):
            raise ValueError("rrr sample kind")
        read = self._offset_reader()
        limits = np.array([math.comb(t, c) for c in range(t + 1)], dtype=np.int64 if t <= _TABLE_MAX_T else np.uint64)
        # 1,024 samples at a time, which keeps the temporaries in cache
        for lo in range(0, len(at), 1024):
            k, opos = self._rrr_blocks(at[lo : lo + 1024])
            if np.any(read(k, opos) >= limits[k]):
                raise ValueError("rrr offset out of range")
        sample, pos = self._positions(ptr)
        taken = rrr_samples(np.asarray(ms, dtype=np.int64), t)
        # each sample's bits of its tree, past which a ones sample holds none
        inside = np.repeat(np.asarray(ms) + span * (np.cumsum(taken) - taken), taken) - span * np.arange(len(ptr) - 1)
        limit = np.where(ptr[sample] >> 30 == 2, np.minimum(inside[sample], span), span)
        if np.any(pos >= limit) or np.any((np.diff(pos) <= 0) & (np.diff(sample) == 0)):
            raise ValueError("rrr positions")

    def trim(self, ends, limits):
        """ValueError unless each tree's last node, ending at ends[i], ends its section, at limits[i]."""
        if np.any(np.asarray(ends) != np.asarray(limits)):
            raise ValueError("payload length")

    def to_bits(self):
        values = self._values()[: -(-self.m // self.t)]
        bits = (values[:, None] >> np.arange(self.t, dtype=np.uint64)) & _ONE
        return bits.astype(np.uint8).ravel()[: self.m]

    def blocks(self):
        """Introspection: (class, offset) of each block of bits 0..m - 1, whatever its sample's kind."""
        values = self._values()[: -(-self.m // self.t)]
        classes = np.bitwise_count(values)
        if self.t <= _TABLE_MAX_T:
            offsets = _offset_table(self.t)[values].tolist()
        else:
            offsets = [offset_of_value(v, self.t, k) for v, k in zip(values.tolist(), classes.tolist())]
        return list(zip(classes.tolist(), offsets))

    def sample_kinds(self):
        """How many samples of the vector are of each kind: {"rrr": ..., "ones": ..., "zeros": ...}."""
        kinds = np.bincount(np.frombuffer(self._ptr, dtype=np.uint32)[:-1] >> 30, minlength=4)
        return {"rrr": int(kinds[0]), "ones": int(kinds[2]), "zeros": int(kinds[3])}

    def _section(self, start, stop):
        """The samples of the tree of bits start..stop - 1: the first, one past the last, and their pointers as int64."""
        lo = start // (RRR_SAMPLE_EVERY * self.t)
        hi = lo + int(rrr_samples(stop - start, self.t))
        return np.frombuffer(self._ptr, dtype=np.uint32)[lo : hi + 1].astype(np.int64)

    def stored_bits(self, start=0, stop=None):
        """The tree of bits start..stop - 1, all m by default, as stored; a uint8 per bit.

        Its bit count as a u32, each sample's kind byte, then the samples'
        bytes as the stream holds them; start is the tree's first bit.
        """
        stop = self.m if stop is None else stop
        ptr = self._section(start, stop)
        at = ptr & _AT
        size = np.diff(at)
        cb = RRR_SAMPLE_EVERY >> self._shift
        kinds = np.where(ptr[:-1] >= _SPARSE, ptr[:-1] >> 24 & 0xC0 | size >> 1, (size - cb) >> 1)
        raw = (stop - start).to_bytes(4, "little") + kinds.astype(np.uint8).tobytes() + self._stream[at[0] : at[-1]]
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")

    def tree_size(self, start, stop):
        """Bits of the tree of bits start..stop - 1: its stored bits, and its samples' ranks and pointers."""
        ptr = self._section(start, stop) & _AT
        return 32 + 8 * (len(ptr) - 1 + int(ptr[-1] - ptr[0])), 64 * (len(ptr) - 1)


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
    section is parsed (_parse_rrr), and every sample checked (see _check),
    before any node is. Last, the bits after m in each tree's last sample
    must be zero, as the writer leaves them, so that the tree's ones are its
    rank at m: one rank1_many call ranks every tree's limit.
    """
    ms, kinds, stream = _parse_rrr(bufs, t)
    vector = RrrBitVector.__new__(RrrBitVector)
    ones = vector._setup(t, ms, kinds, stream)
    vector._check(ms)
    firsts = tree_firsts(ms, t)
    limits = firsts + ms
    if np.any(vector.rank1_many(limits) != ones):
        raise ValueError("rrr padding bits")
    return vector, firsts.tolist(), limits.tolist()


def _parse_rrr(bufs, t):
    """The fields of RRR payload sections, sliced in one pass.

    A section is its tree's bit count m as a u32, one kind byte per sample
    (see rrr_samples), then the samples' bytes. Returns each section's m
    (int64), the kind bytes of all sections in turn (uint8), and the
    samples' bytes of all sections in turn, then zero bytes to a whole word
    and a spare word, as RrrBitVector._setup takes them. A kind byte gives
    its sample's bytes: 0ccccccc a RRR sample of class bytes and 2c offset
    bytes, 10cccccc the c positions of its ones, 11cccccc of its zeros, two
    bytes each. Raises EOFError or ValueError naming the failed check: a
    section shorter than its count or its kind bytes ("payload truncated"),
    the samples' bytes over the uint32 limit, checked before they are copied
    ("rrr offset stream of 2^32 bits or more"), then a section shorter or
    longer than its samples ("rrr offsets truncated", "payload length"). The
    sections are sliced and joined by map, with no Python loop over them.
    """
    size = np.fromiter(map(len, bufs), dtype=np.int64, count=len(bufs))
    if (size < 4).any():
        raise EOFError("payload truncated")
    ms = np.frombuffer(b"".join(map(operator.getitem, bufs, itertools.repeat(slice(4)))), dtype="<u4")
    ms = ms.astype(np.int64)
    taken = rrr_samples(ms, t)
    heads = 4 + taken  # the byte of each section where its samples start
    if (heads > size).any():
        raise EOFError("payload truncated")
    body = size - heads
    if 8 * int(body.sum()) >= 1 << 32:
        raise ValueError("rrr offset stream of 2^32 bits or more")
    kinds = b"".join(map(operator.getitem, bufs, map(slice, itertools.repeat(4), heads.tolist())))
    kinds = np.frombuffer(kinds, dtype=np.uint8)
    count = kinds.astype(np.int64)
    sparse = count >= 128
    count[sparse] &= _MAX_POSITIONS
    need = np.add.reduceat(2 * count + (RRR_SAMPLE_EVERY >> int(t <= _NIBBLE_MAX_T)) * ~sparse, np.cumsum(taken) - taken)
    if (body < need).any():
        raise EOFError("rrr offsets truncated")
    if (body > need).any():
        raise ValueError("payload length")
    tails = map(operator.getitem, bufs, map(slice, heads.tolist(), itertools.repeat(None)))
    return ms, kinds, b"".join(itertools.chain(tails, [bytes(16 - int(body.sum()) % 8)]))
