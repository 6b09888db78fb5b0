"""Bitvectors with fast rank.

Two interchangeable representations:

* PlainBitVector keeps the raw bits in one buffer of 64-bit words, read
  through memoryview.cast("Q"), and two-level ranks (González,
  Grabowski, Mäkinen and Navarro): one 16-bit counter per word, through
  .cast("H"), the ones before the word since its superblock of 2^16 bits,
  and one rank per superblock, the ones before it, in a tuple of ints. A
  word holds its first bit in the most significant place, so the ones
  before a position are the word shifted right, with no mask to build: a
  rank is one superblock rank, one counter, one shift and one popcount.
* RrrBitVector cuts the bits into t-bit blocks and the blocks into
  samples of 32, and stores each sample as one of three kinds, whichever
  is smaller: RRR, each block's popcount class and then an enumerative
  offset that identifies the block among all t-bit words of that class in
  ascending numeric order; or the sorted uint16 positions of the sample's
  ones, or of its zeros, when they are few (Kärkkäinen, Kempa and
  Puglisi's hybrid bitvector). All samples' bytes are one stream. The
  samples' ranks and stream positions are two-level (González,
  Grabowski, Mäkinen and Navarro): each superblock of 32 to 128 samples
  has a 64-bit rank and a 32-bit stream position, and each sample one
  uint32, its 16-bit rank and 14-bit position since its superblock's and
  its 2-bit kind, where a rank and a pointer took two. A RRR sample's
  classes are two 4-bit classes per byte for t <= 15 and one per byte
  above, so a rank sums the class bytes before its block, and their
  offset widths, each through a 256-byte translation table and
  zlib.adler32, without a Python loop, and reads its block's offset with
  at most two aligned reads of a uint64 view of the stream; a sparse
  sample's rank is one bisect of its positions, through a uint16 view.

Up to t = 16 a block is decoded with one lookup in a table of the
(t - 1)-bit words of classes 0..(t - 1) // 2 (_decode_table), which every
vector of that t shares: 19,816 bytes at t = 15 and 32 KiB at t = 16,
against the 2^t words of every class. Two symmetries of the enumerative
code cover what it leaves out: an offset past its class's words with a
clear top bit is a word with the top bit set, one class lower (the
top-bit peel), and a word of an upper class is the complement of one of
a lower class (the complement). A rank reads at most the low t - 1 bits
of its block, so the peeled top bit never enters it. Above t = 16 a
block is decoded enumeratively.

A vector knows nothing of what its bits hold: a build makes it from an
array of bits (make_bitvector()), and a load from the index file's
payload section and its bit count m, which the caller derives; each names
the vector by its RRR block size t alone (the vector's t), 0 for plain.
Every rank counts from the vector's first bit. This module owns the
payload section, which is the vector's own stored form, written whole
(payload()) and read whole (read_payload()): plain, its m bits in
ceil(m / 8) bytes, LSB first; RRR, every sample's kind byte, then the
stream of the samples' bytes as it is. An RRR vector, built or loaded, is
made by one routine (RrrBitVector._setup), which checks every sample as it
makes the samples' ranks, so none is ranked unchecked. A plain vector
holds the section's bytes as they are, so a load is one copy and one byte
translation, and payload() one slice; the padding bits of the last byte
are cleared at load, as a build leaves them, so that a loaded vector
equals the built one and saves the same bytes.

Each backend also takes both ends of a backward-search step down a
symbol's path, level by level: descend() ranks both ends of a level
in one call, with rank1's arithmetic inline, and returns both ends at the
path's end, even where they met on the way; only the caller decides that
a range is empty. The RRR one decodes one block for both ends when they
fall in it, searches a sparse sample's positions for e from b's, and
else ranks the second end from its own sample.

Each backend also ranks many positions at once, in two forms over
np.frombuffer views of the vector's buffers. batch_rank1() returns a
function of an int64 array of positions, for count_many's many rounds,
and makes its tables once per call, so that a round is only its
arithmetic, in as few numpy calls as they allow, each of which has a
fixed cost that a round of a few hundred positions feels: the plain one
makes each word's rank, its superblock's plus its counter, as int64, and
takes a word's bits before a position with one mask of a module table of
64 (_HIGH), so that no word is shifted by 64; the RRR one first makes
tables per block (its class, its bits in a sparse sample, and the ones
and offset widths before it since its sample), which live as long as the
function does; up to t = 16 it also makes every t-bit word in (class,
offset) order from the decode table (_word_table), which dies with the
function, so that a round decodes in one gather. rank1_many(positions)
ranks once, for a load's node ends, with no table: a call of at most
_SCALAR_RANKS positions ranks each with rank1 (32 plain, where the two
forms cost alike on the 1 MB benchmark texts; 128 RRR, since the numpy
form's first call makes tables that a first load's heap keeps: the
stdlib ssa_rrr tree's 96 node ends take 171 us so, 99 in numpy); above,
plain, it is batch_rank1's arithmetic with the superblock rank and the
counter read apart; RRR, each position compares its sparse sample's
positions or sums its RRR sample's classes. Both
RRR forms read their blocks' offsets through _offset_reader: up to
t = 16 from one unaligned uint32 view of the stream, one element per
byte, and above with read_fields;
and decode them through _decoder, by the decode table's peel and
complement in numpy or enumeratively, but for batch_rank1's rounds up to
t = 16, which gather from _word_table's words.
"""

import functools
import itertools
import math
from array import array
from bisect import bisect_left
from zlib import adler32

import numpy as np

from .bitio import pack_fields, read_fields

# each byte with its bits in reverse order: bitio's LSB-first bytes to the words' MSB-first ones
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
RRR_SAMPLE_EVERY = 32
# the RRR block sizes t: a block's t bits fit one uint64, and its class a byte
RRR_BLOCK_SIZES = range(1, 64)
_TABLE_MAX_T = 16
_NIBBLE_MAX_T = 15
_ONE = np.uint64(1)
# a word's top r bits at r, the ones before its bit r: a plain rank's mask, shifted by at most 63
_HIGH = ~(np.uint64(2**64 - 1) >> np.arange(64, dtype=np.uint64))
_MAX_POSITIONS = 63  # the most positions a sparse sample holds: its kind byte's count field
_SLOTS = np.arange(_MAX_POSITIONS, dtype=np.uint8)
# a plain vector's words per superblock: 2^10, so that the ones before a word since
# its superblock's first word, at most 2^16 - 64, fit a uint16 (rank1 and descend write the 10 out)
_SUPERBLOCK_WORDS = 1 << 10
# a sample's entry (see RrrBitVector): the ones before it since its
# superblock's first sample in the top 16 bits, then two kind bits (it is
# sparse, and then its positions are its zeros'), then, in the low 14, the
# 2-byte element of the stream where it starts since its superblock's first
# sample (every sample takes an even count of bytes)
_SPARSE = 1 << 15
_ZEROS = 1 << 14
_AT = _ZEROS - 1


def _as_bit_array(bits):
    if isinstance(bits, str):
        bits = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("bits must be a one-dimensional sequence")
    if arr.size and int(arr.max()) > 1:
        raise ValueError("bits must be 0 or 1")
    return arr


class _BitVector:
    """What both backends share: rank of either bit over rank1, and rank1_many's choice of form."""

    __slots__ = ()

    def rank(self, bit, j):
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        if not 0 <= j <= self.m:
            raise ValueError("rank position out of range")
        r = self.rank1(j)
        return r if bit else j - r

    def rank1_many(self, j):
        """rank1 of every position in the int64 array j, as int64, for a load's ranks at every node's end.

        Up to _SCALAR_RANKS positions, each with rank1: a numpy call's fixed
        cost would exceed theirs. Above, in numpy, with no table (_rank1_many).
        """
        if len(j) <= self._SCALAR_RANKS:
            return np.array([self.rank1(x) for x in j.tolist()], dtype=np.int64)
        return self._rank1_many(j)


class PlainBitVector(_BitVector):
    """The m bits as 64-bit words, with a 16-bit counter per word and a rank per superblock.

    The words hold the ceil(m / 8) bytes of the payload section, and one
    spare word ends the vector, so that rank1 at its end reads a word of
    it. A word holds its first bit in the most significant place. The
    ranks are two-level (González, Grabowski, Mäkinen and Navarro's
    directories): each superblock of 2^10 words (2^16 bits) has the ones
    before it, a Python int in the tuple _ranks, which reads faster than an
    array or a memoryview, each of whose reads makes an int; each word has
    the ones before it since its superblock's first word, at most 65,472,
    in the uint16 _counts. So rank1(j) counts the ones from the vector's
    first bit to j.
    """

    __slots__ = ("_words", "_counts", "_ranks", "m")
    t = 0  # no RRR blocks
    _SCALAR_RANKS = 32  # rank1_many's calls of at most this many positions rank each with rank1

    def __init__(self, bits):
        bits = _as_bit_array(bits)
        self._setup(np.packbits(bits, bitorder="little").tobytes(), len(bits))

    def _setup(self, section, m):
        """The vector of m bits from their bytes as the payload section stores them (see read_payload).

        section is a buffer of ceil(m / 8) bytes, LSB first, which the
        caller checks. They are copied once, then zero bytes to a whole word
        and a spare word, and each byte's bits reversed, to the words'
        order; the padding bits of the last byte are cleared, as a build
        leaves them. A build and a load both make their vector here. Every
        word and counter is made over the whole vector at once.
        """
        raw = bytearray(8 * ((len(section) + 7 >> 3) + 1))
        raw[: len(section)] = section
        raw = raw.translate(_REVERSED)
        if m & 7:  # the last byte's bits, MSB first
            raw[m >> 3] &= 0xFF00 >> (m & 7) & 0xFF
        words = np.frombuffer(raw, dtype=np.uint64)
        words.byteswap(inplace=True)  # each word's first byte to its top, as big-endian words read
        ones = np.bitwise_count(words)
        before = ones.astype(np.int64)
        np.cumsum(before, out=before)  # in int64 throughout: from uint8 it takes three times as long
        before -= ones
        ranks = before[::_SUPERBLOCK_WORDS].copy()
        before -= np.repeat(ranks, _SUPERBLOCK_WORDS)[: len(words)]
        counts = bytearray(2 * len(words))
        np.frombuffer(counts, dtype=np.uint16)[:] = before
        self._words = memoryview(raw).cast("Q")
        self._counts = memoryview(counts).cast("H")
        self._ranks = tuple(ranks.tolist())
        self.m = m

    def rank1(self, j):
        k = j >> 6
        return self._ranks[k >> 10] + self._counts[k] + (self._words[k] >> (64 - (j & 63))).bit_count()

    def descend(self, steps, b, e):
        """Both ends b <= e down a path's signed steps, level by level, to (b, e) at its end.

        Each level ranks both ends as rank1 does, inline, and takes each to
        rank1 + step on a positive step, else to its position - rank1 - step
        (see wavelet's _read); e takes b's word and its ones before it when
        it falls in the same word, as most ends of a narrow range do. The
        ends walk the whole path even once they meet: only the caller
        (wavelet's narrow) decides a range is empty.
        """
        words, counts, ranks = self._words, self._counts, self._ranks
        for step in steps:
            k = b >> 6
            w = words[k]
            r = ranks[k >> 10] + counts[k]
            rb = r + (w >> (64 - (b & 63))).bit_count()
            x = e >> 6
            if x == k:
                re = r + (w >> (64 - (e & 63))).bit_count()
            else:
                re = ranks[x >> 10] + counts[x] + (words[x] >> (64 - (e & 63))).bit_count()
            if step > 0:
                b, e = rb + step, re + step
            else:
                b -= rb + step
                e -= re + step
        return b, e

    def batch_rank1(self):
        """rank1 over int64 arrays of positions: a function of one, over a table made once per call.

        The table holds each word's rank, its superblock's plus its counter,
        as int64 (8 bytes a word, for the function's life): a rank is then
        one gather of it and one masked popcount of the word (see _HIGH),
        eight numpy calls, which count_many's many rounds repay.
        """
        words = np.frombuffer(self._words, dtype=np.uint64)
        top = np.repeat(np.array(self._ranks, dtype=np.int64), _SUPERBLOCK_WORDS)[: len(words)]
        top += np.frombuffer(self._counts, dtype=np.uint16)

        def rank1(j):
            k = j >> 6
            return top[k] + np.bitwise_count(words[k] & _HIGH[j & 63])

        return rank1

    def _rank1_many(self, j):
        """rank1 of every position in the int64 array j, as int64, with no table: a load ranks once, at every node's end."""
        k = j >> 6
        words = np.frombuffer(self._words, dtype=np.uint64)
        counts = np.frombuffer(self._counts, dtype=np.uint16)
        return np.array(self._ranks, dtype=np.int64)[k >> 10] + counts[k] + np.bitwise_count(words[k] & _HIGH[j & 63])

    def to_bits(self, start=0, stop=None):
        """Bits start..stop - 1, all m by default, one uint8 (0 or 1) each."""
        stop = self.m if stop is None else stop
        words = np.frombuffer(self._words, dtype=np.uint64)[start >> 6 : (stop + 63) >> 6]
        bits = np.unpackbits(words.astype(">u8").view(np.uint8))
        return bits[start & 63 : (start & 63) + stop - start]

    def payload(self):
        """The payload section: the vector's m bits in ceil(m / 8) bytes, LSB first.

        They are the vector's first bytes, whose bits after m are zero, as a
        build and a load leave them.
        """
        raw = np.frombuffer(self._words, dtype=np.uint64).astype(">u8").view(np.uint8)
        return raw[: self.m + 7 >> 3].tobytes().translate(_REVERSED)

    def stored_bits(self):
        """Bits of the vector: in the payload section, byte padding aside, and in the rank directories."""
        return self.m, 16 * len(self._counts) + 64 * len(self._ranks)


@functools.cache
def _decode_table(t):
    """What decodes a t-bit block, 1 <= t <= 16: (words, starts, splits, kmax, flip).

    words holds the (t - 1)-bit words of classes 0..kmax = (t - 1) // 2 in
    (class, offset) order, as 'H'. Two symmetries of the enumerative code
    cover the rest. The top-bit peel: a block of class k whose offset is at
    or above splits[k] = comb(t - 1, k) has its top bit set, and its low
    t - 1 bits are the word of class k - 1 at offset - splits[k]; below, the
    word of class k at the offset. The complement: a (t - 1)-bit word of
    class c at offset o is words[starts[c] + o] for c <= kmax, and above it
    is the complement (xor flip) of the word of class t - 1 - c at
    comb(t - 1, c) - 1 - o, which is words[starts[c] - o].
    """
    n = t - 1
    kmax = n >> 1
    sizes = [math.comb(n, c) for c in range(n + 1)]
    starts = list(itertools.accumulate(sizes[:kmax], initial=0))
    starts += [starts[n - c] + sizes[c] - 1 for c in range(kmax + 1, n + 1)]
    values = np.arange(1 << n, dtype=np.uint16)
    words = values[np.argsort(np.bitwise_count(values), kind="stable")[: starts[kmax] + sizes[kmax]]]
    splits = tuple(math.comb(n, k) for k in range(t + 1))
    return array("H", words.tobytes()), tuple(starts), splits, kmax, (1 << n) - 1


@functools.cache
def _offset_table(t):
    """Offset of every t-bit word within its class, as uint16: the encoder's table, t <= 16."""
    values = np.arange(1 << t, dtype=np.uint16)
    order = np.argsort(np.bitwise_count(values), kind="stable")  # every word in (class, offset) order
    sizes = [math.comb(t, k) for k in range(t + 1)]
    offsets = np.empty(1 << t, dtype=np.uint16)
    offsets[order] = np.concatenate([np.arange(size, dtype=np.uint16) for size in sizes])
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


@functools.cache
def _low_masks(t):
    """(1 << i) - 1 for i = 0..t: the masks of a block's bits below a position in it, and of an offset's bits."""
    return tuple((1 << i) - 1 for i in range(t + 1))


@functools.cache
def _many_tables(t):
    """rank1_many's and _offset_reader's numpy tables of a class k <= t: (sums, masks), both uint32.

    sums holds k's offset width in the high 16 bits and k in the low 16, so
    that one sum over a sample's classes gives both; masks holds k's offset
    bits, up to t = 16, and is None above, where read_fields masks.
    """
    widths = np.array(offset_widths(t), dtype=np.uint32)
    masks = (np.uint32(1) << widths) - np.uint32(1) if t <= _TABLE_MAX_T else None
    return widths << 16 | np.arange(t + 1, dtype=np.uint32), masks


@functools.cache
def _superblock_log(t):
    """log2 of the samples per superblock of a t-bit vector, a power of two S: the largest with S·32·t <= 2^16 and S times the largest sample's bytes below 2^14.

    So every rank and start since the superblock's fits its 16 or 14 bits. A
    sample's bytes are at most its class bytes and its widest offsets, or a
    sparse sample's 63 positions: 128 samples up to t = 16, 64 up to 32, 32
    above.
    """
    cb = RRR_SAMPLE_EVERY >> int(t <= _NIBBLE_MAX_T)
    largest = max(cb + 2 * ((RRR_SAMPLE_EVERY * max(offset_widths(t)) + 15) >> 4), 2 * _MAX_POSITIONS)
    log = 0
    while (2 << log) * RRR_SAMPLE_EVERY * t <= 1 << 16 and (2 << log) * largest < 1 << 14:
        log += 1
    return log


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


@functools.cache
def _table_decoder(t):
    """A function (k, off) that decodes t-bit blocks of classes k and offsets off (int64 arrays) as uint16, t <= 16.

    It takes _decode_table's top-bit peel and complement in numpy: a row per
    class below its split, then one per class at or above, gives the
    (t - 1)-bit class it reads (clamped where no offset reaches: class 0 at
    its split, class t below), the offset's sign and the word's start as the
    offset's, and what to xor with the word: the complement, the top bit.
    """
    table, starts, splits, kmax, flip = _decode_table(t)
    words = np.frombuffer(table, dtype=np.uint16)
    rows = [(min(max(k - top, 0), t - 1), splits[k] * top, top) for top in (0, 1) for k in range(t + 1)]
    sign = np.array([1 if c <= kmax else -1 for c, _, _ in rows])
    base = np.array([starts[c] - s * sub for (c, sub, _), s in zip(rows, sign.tolist())])
    xor = np.array([(flip if c > kmax else 0) | top << t - 1 for c, _, top in rows], dtype=np.uint16)
    splits = np.array(splits)

    def decode(k, off):
        row = k + (off >= splits[k]) * (t + 1)
        return words[base[row] + sign[row] * off] ^ xor[row]

    return decode


def _word_table(t):
    """Every t-bit word in (class, offset) order (uint16), and where each class starts (int64), t <= 16.

    It is made from the decode table, with no cache: 2^t words, which only
    a caller's life keeps. The (t - 1)-bit words in that order are the
    table's, then the complements of its first classes' words, reversed;
    the t-bit words of class k are the (t - 1)-bit ones of class k, then
    those of class k - 1 with the top bit set.
    """
    table, _, splits, kmax, flip = _decode_table(t)
    n = t - 1
    words = np.frombuffer(table, dtype=np.uint16)
    low = np.concatenate([words, words[: sum(splits[: n - kmax])][::-1] ^ np.uint16(flip)])
    high = low | np.uint16(1 << n)
    at = list(itertools.accumulate(splits, initial=0))  # where each (t - 1)-bit class starts; class t is empty
    parts = [part for k in range(t + 1) for part in (low[at[k] : at[k + 1]], high[at[k - 1] : at[k]] if k else low[:0])]
    sizes = np.array([math.comb(t, k) for k in range(t + 1)])
    return np.concatenate(parts), np.cumsum(sizes) - sizes


def rrr_samples(m, t):
    """Samples an RRR vector of m bits takes: one per RRR_SAMPLE_EVERY of its blocks, plus one.

    Its blocks end before its last sample's blocks do, so rank1 at m is
    counted from a sample.
    """
    return -(-m // t) // RRR_SAMPLE_EVERY + 1


class RrrBitVector(_BitVector):
    """The m bits as samples of 32 t-bit blocks, each of one of three kinds.

    The vector takes rrr_samples(m, t) samples; the blocks after its last
    are all zero. A sample is stored in whichever kind is smaller (see
    __init__), as bytes in the one stream of samples: RRR, the class of
    each block and then their offsets, padded to an even byte count; or the
    sorted uint16 positions in its 32 t bits of its ones, or of its zeros.
    The samples' ranks and where each starts are two-level (González,
    Grabowski, Mäkinen and Navarro's directories): the samples fall in
    superblocks of 2^_superblock_log(t) each, and each superblock has the
    ones before it, in _ranks (int64), and the 2-byte element of the
    stream where it starts, in _bases (uint32). Each sample has one uint32
    entry in _entries: the ones before it and its first element, each since
    its superblock's, and its kind (see _SPARSE), in 4 bytes where a rank
    and a pointer took 8. So rank1(j) counts the ones from the vector's
    first bit to j. A sparse sample's count is the distance from its first
    element to the next sample's; one more entry, after the last sample's,
    gives where the samples end.
    """

    __slots__ = (
        "m", "t", "_stream", "_words", "_pos", "_entries", "_ranks", "_bases", "_log", "_shift", "_mask",
        "_class_sums", "_width_sums", "_widths", "_table", "_descent",
    )
    _SCALAR_RANKS = 128  # rank1_many's calls of at most this many positions rank each with rank1

    def __init__(self, bits, block_size=15):
        """The vector of bits in t-bit blocks.

        Each sample takes the kind that is smaller: sparse if its minority bit
        occurs at most 63 times and two bytes each are fewer than its RRR
        bytes, ones on a tie of ones and zeros; else RRR.
        """
        t = int(block_size)
        if t not in RRR_BLOCK_SIZES:
            raise ValueError(f"rrr block size must be in {RRR_BLOCK_SIZES[0]}..{RRR_BLOCK_SIZES[-1]}")
        bits = _as_bit_array(bits)
        m = len(bits)
        span = RRR_SAMPLE_EVERY * t
        cb = RRR_SAMPLE_EVERY >> int(t <= _NIBBLE_MAX_T)
        # each block's bits, LSB first, in the low bytes of one uint64, every
        # sample's 32 in a row; the last block is packed on its own, so that
        # no padded copy is made
        packed = np.zeros((RRR_SAMPLE_EVERY * rrr_samples(m, t), 8), dtype=np.uint8)
        full, rem = divmod(m, t)
        packed[:full, : (t + 7) // 8] = np.packbits(bits[: full * t].reshape(full, t), axis=1, bitorder="little")
        if rem:
            packed[full, : (rem + 7) // 8] = np.packbits(bits[full * t :], bitorder="little")
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
        stream = np.zeros(int(size.sum()), dtype=np.uint8)
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
        self._setup(t, m, kinds, stream)

    def _setup(self, t, m, kinds, samples):
        """The vector of m bits in rrr_samples(m, t) samples, from their bytes, each checked.

        kinds (uint8) holds each sample's kind byte, as the payload section
        stores it (see read_payload), and samples the samples' bytes in
        turn, a buffer of fewer than 2^32 bits, which the caller checks. The
        stream is those bytes, copied once, then zero bytes to a whole word
        and a spare word, for the offset reads. A build and a load both make
        their vector here. EOFError or ValueError unless the samples' bytes
        are those their kind bytes give ("rrr offsets truncated", "payload
        length") and every sample is as a writer leaves it, each check over
        all samples before the next: over the RRR samples, classes above t
        ("rrr class out of range"), offset bytes other than their classes'
        widths give ("rrr sample kind") and offsets at or above
        comb(t, class) ("rrr offset out of range"); over the sparse ones,
        positions not strictly ascending, past the sample's bits, or for
        ones past the vector's m bits ("rrr positions"); last, ones after
        m, so that the vector's ones are its rank at m ("rrr padding
        bits"), in one rank1_many call at m.
        """
        span = RRR_SAMPLE_EVERY * t
        s = int(t <= _NIBBLE_MAX_T)  # the log2 of classes per byte
        cb = RRR_SAMPLE_EVERY >> s
        kinds = kinds.astype(np.int64)
        sparse = kinds >= 128
        count = np.where(sparse, kinds & _MAX_POSITIONS, kinds)
        ptr = np.zeros(len(kinds) + 1, dtype=np.int64)
        np.cumsum(2 * count + cb * ~sparse, out=ptr[1:])
        if len(samples) < ptr[-1]:
            raise EOFError("rrr offsets truncated")
        if len(samples) > ptr[-1]:
            raise ValueError("payload length")
        stream = b"".join([samples, bytes(16 - len(samples) % 8)])
        self.t, self._shift, self._stream = t, s, stream
        self._class_sums, self._width_sums, self._widths = _class_tables(t)
        rrr = np.flatnonzero(~sparse)
        at = ptr[rrr]
        k = self._classes(at)  # every RRR block's class, the one gather of the class bytes
        if k.max(initial=0) > t:
            raise ValueError("rrr class out of range")
        widths = np.frombuffer(k.tobytes().translate(self._widths), dtype=np.uint8).reshape(k.shape)
        if np.any(count[rrr] != (widths.sum(axis=1, dtype=np.uint16) + 15) >> 4):  # 32 widths of at most 60
            raise ValueError("rrr sample kind")
        del widths  # before the offset walk, whose peak it would add to
        read = self._offset_reader()
        # up to t = 16 in uint32, which every offset and its bit in the stream fit
        narrow = t <= _TABLE_MAX_T
        limits = np.array([math.comb(t, c) for c in range(t + 1)], dtype=np.uint32 if narrow else np.uint64)
        starts = at.astype(np.uint32) if narrow else at
        # an eighth of the samples at a time, 64 at least: the offset reads'
        # temporaries over every sample at once would take several times the
        # file's bytes, and a fixed count would cost a small file as a large one
        step = max(64, len(at) >> 3)
        for lo in range(0, len(at), step):
            part = k[lo : lo + step]
            # take gathers by uint8 classes faster than indexing, at this size
            if np.any(read(part, self._offset_starts(part, starts[lo : lo + step])) >= limits.take(part)):
                raise ValueError("rrr offset out of range")
        # a sparse sample's positions ascend if each of its stream elements but
        # its last is below the next, and then lie in it if its last does: in
        # its bits, or in the vector's m bits in it for a ones sample, past
        # which it holds none. The flags are one byte per element, and no
        # array is made per position
        u2 = np.frombuffer(stream, dtype="<u2", count=int(ptr[-1]) >> 1)
        follows = np.repeat(sparse, np.diff(ptr) >> 1)  # whether each element is a sparse sample's
        held = np.flatnonzero(sparse & (count > 0))
        last = (ptr[held] >> 1) + count[held] - 1
        follows[last] = False
        limit = np.where(kinds[held] >> 6 == 2, np.minimum(m - span * held, span), span)
        if np.any(u2[1:] <= u2[:-1], where=follows[:-1]) or np.any(u2[last] >= limit):
            raise ValueError("rrr positions")
        del follows
        # a sparse one's ones are its count, or its bits less it; a RRR one's, its classes' sum
        ones = np.where(kinds >> 6 == 3, span - count, count)
        ones[rrr] = k.sum(axis=1, dtype=np.uint16)  # 32 classes of at most 63
        rank = np.zeros(len(ptr), dtype=np.int64)  # and the ones of every sample, at the end
        np.cumsum(ones, out=rank[1:])
        del k, at, starts
        # the two-level tables: each superblock's first sample's rank and
        # 2-byte element, and each sample's since them, with its kind
        # between, made in place in entries and ptr, with one temporary over
        # every sample at a time
        self._log = log = _superblock_log(t)
        step, n = 1 << log, len(ptr)
        self._ranks = array("q", rank[::step].tobytes())
        entries = np.repeat(rank[::step], step)[:n]
        np.subtract(rank, entries, out=entries)
        entries <<= 16
        ptr >>= 1
        self._bases = array("I", ptr[::step].astype(np.uint32).tobytes())
        ptr -= np.repeat(ptr[::step], step)[:n]
        entries |= ptr
        entries[:-1] |= sparse * kinds >> 6 << 14
        self._entries = array("I", entries.astype(np.uint32).tobytes())
        del entries, ptr
        self.m = m
        self._mask = 0xFF >> 4 * s
        self._words = memoryview(stream).cast("Q")
        self._pos = memoryview(stream).cast("H")
        self._table = _decode_table(t) if t <= _TABLE_MAX_T else None
        # all that descend reads, in one tuple: one attribute load a call, not
        # sixteen, which the one or two levels of most descents would feel
        self._descent = (
            t, s, self._mask, cb << 3, span, log, stream, self._words, self._pos, self._entries, self._ranks,
            self._bases, self._class_sums, self._width_sums, self._widths, _low_masks(t), *(self._table or (None,) * 5),
        )
        if self.rank1_many(np.array([m]))[0] != rank[-1]:
            raise ValueError("rrr padding bits")

    def rank1(self, j):
        (
            t, s, mask, head, span, log, stream, words, pos, entries, ranks, bases,
            class_sums, width_sums, widths, lows, table, starts, splits, kmax, flip,
        ) = self._descent
        # the kind bits written out, as in descend
        sb = j // span
        x = entries[sb]
        top = sb >> log
        base = bases[top]
        if x & 32768:  # the positions below j's in the sample, of its ones or its zeros
            p = j % span
            lo = base + (x & 16383)
            # the next sample's start: since the superblock's, 0 only if it
            # starts there or in the next superblock, at its base
            n = entries[sb + 1] & 16383
            c = bisect_left(pos, p, lo, base + n if n else bases[(sb + 1) >> log]) - lo
            return ranks[top] + (x >> 16) + (p - c if x & 16384 else c)
        blk = j // t
        at = (base + (x & 16383)) << 1
        i = at + ((blk & 31) >> s)  # the byte of blk's class
        seg = stream[at:i]
        # adler32's low half from 0 is the byte sum mod 65,521: exact here,
        # where at most 31 bytes of at most 255 sum below 65,521
        r = ranks[top] + (x >> 16) + (adler32(seg.translate(class_sums), 0) & 0xFFFF)
        rem = j - blk * t
        if rem:
            byte = stream[i]
            # the offsets start after the sample's class bytes
            o = (at << 3) + head + (adler32(seg.translate(width_sums), 0) & 0xFFFF)
            if blk & s:  # blk's class is its byte's high nibble, after the low one
                r += byte & 15
                o += widths[byte & 15]
                byte >>= 4
            k = byte & mask
            w = widths[k]
            off = 0
            if w:  # classes 0 and t, often half the blocks, have no offset bits
                off = words[o >> 6] >> (o & 63)
                if (o & 63) + w > 64:
                    off |= words[(o >> 6) + 1] << 64 - (o & 63)
                off &= lows[w]
            if table is None:
                value = value_of_offset(off, t, k)
            else:
                if off >= splits[k]:  # the top bit, which rem < t leaves out of the rank
                    off -= splits[k]
                    k -= 1
                value = table[starts[k] + off] if k <= kmax else table[starts[k] - off] ^ flip
            return r + (value & lows[rem]).bit_count()
        if blk & s:
            r += stream[i] & 15
        return r

    def descend(self, steps, b, e):
        """Both ends b <= e down a path's signed steps, level by level, to (b, e) at its end.

        Each level ranks both ends as rank1 does, inline, and moves them as
        the plain descend does, the whole path through. b's sample is looked
        up in the two-level tables; e takes that lookup when it falls in the
        same sample, and its superblock's when it falls in the same
        superblock. In a sparse sample, e's search starts from b's; in a RRR
        one, b's rank walks its sample's class bytes and decodes b's block,
        and e's takes the same decoded block if e falls in it. Else e is
        ranked in its own sample. The kind bits are written out (_SPARSE is
        32768, _ZEROS 16384 and _AT 16383), as constants read faster.
        """
        (
            t, s, mask, head, span, log, stream, words, pos, entries, ranks, bases,
            class_sums, width_sums, widths, lows, table, starts, splits, kmax, flip,
        ) = self._descent
        for step in steps:
            sb = b // span
            x = entries[sb]
            top = sb >> log
            ar, aa = ranks[top], bases[top]
            r = ar + (x >> 16)
            re = -1
            if x & 32768:
                p = b % span
                lo = aa + (x & 16383)
                # the next sample's start: since the superblock's, 0 only if
                # it starts there or in the next superblock, at its base
                n = entries[sb + 1] & 16383
                hi = aa + n if n else bases[(sb + 1) >> log]
                c = bisect_left(pos, p, lo, hi)
                rb = r + (p - c + lo if x & 16384 else c - lo)
                q = e - b + p
                if q < span:
                    c = bisect_left(pos, q, c, hi)
                    re = r + (q - c + lo if x & 16384 else c - lo)
            else:
                blk = b // t
                rem = b - blk * t
                last = e // t
                at = (aa + (x & 16383)) << 1
                i = at + ((blk & 31) >> s)
                seg = stream[at:i]
                # the ones and the offset position at b's class byte, then at b's block
                rb = r + (adler32(seg.translate(class_sums), 0) & 0xFFFF)
                o = (at << 3) + head + (adler32(seg.translate(width_sums), 0) & 0xFFFF)
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
                        off &= lows[w]
                    if table is None:
                        value = value_of_offset(off, t, k)
                    else:
                        if off >= splits[k]:
                            off -= splits[k]
                            k -= 1
                        value = table[starts[k] + off] if k <= kmax else table[starts[k] - off] ^ flip
                    if last == blk:
                        re = rb + (value & lows[e - last * t]).bit_count()
                    rb += (value & lows[rem]).bit_count()
            if re < 0:
                se = e // span
                if se != sb:  # else e's sample is b's, a RRR one, looked up above
                    sb = se
                    x = entries[sb]
                    if sb >> log != top:
                        top = sb >> log
                        ar, aa = ranks[top], bases[top]
                    r = ar + (x >> 16)
                if x & 32768:
                    p = e % span
                    lo = aa + (x & 16383)
                    n = entries[sb + 1] & 16383
                    c = bisect_left(pos, p, lo, aa + n if n else bases[(sb + 1) >> log]) - lo
                    re = r + (p - c if x & 16384 else c)
                else:
                    blk = e // t
                    at = (aa + (x & 16383)) << 1
                    i = at + ((blk & 31) >> s)
                    seg = stream[at:i]
                    re = r + (adler32(seg.translate(class_sums), 0) & 0xFFFF)
                    o = (at << 3) + head + (adler32(seg.translate(width_sums), 0) & 0xFFFF)
                    byte = stream[i]
                    if blk & s:
                        re += byte & 15
                        o += widths[byte & 15]
                        byte >>= 4
                    rem = e - blk * t
                    if rem:
                        k = byte & mask
                        w = widths[k]
                        off = 0
                        if w:
                            off = words[o >> 6] >> (o & 63)
                            if (o & 63) + w > 64:
                                off |= words[(o >> 6) + 1] << 64 - (o & 63)
                            off &= lows[w]
                        if table is None:
                            value = value_of_offset(off, t, k)
                        else:
                            if off >= splits[k]:
                                off -= splits[k]
                                k -= 1
                            value = table[starts[k] + off] if k <= kmax else table[starts[k] - off] ^ flip
                        re += (value & lows[rem]).bit_count()
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
        pass over every block and 7 bytes per block (13 above t = 16), and
        each sample's rank and offsets' start 16 bytes, which the many
        rounds of count_many repay: it is the faster form there, and
        rank1_many the faster at load. Every view a rank reads is bound
        here, once per call.
        """
        t = self.t
        at, sample_rank, kind = self._samples()
        rrr = np.flatnonzero(kind[:-1] == 0)
        classes = np.zeros((len(at) - 1, RRR_SAMPLE_EVERY), dtype=np.uint8)
        classes[rrr] = self._classes(at[rrr])
        # a sample's 32 classes of at most 63 sum below 2^11, and so do their offset widths
        fields = np.frombuffer(classes.tobytes().translate(self._widths), dtype=np.uint8).astype(np.uint32)
        fields <<= 11
        fields |= classes.ravel()
        fields = fields.reshape(classes.shape)
        sparse, values = self._sparse_values(at, kind)
        bits = np.zeros(classes.shape, dtype=values.dtype)
        bits[sparse] = values
        fields[sparse] = np.bitwise_count(values)
        before = np.cumsum(fields, axis=1, dtype=np.uint32)
        before -= fields
        before, classes, bits = before.ravel(), classes.ravel(), bits.ravel()
        # int64, so that the offset positions are: numpy gathers by int64 indices faster than by uint32 ones
        base = np.where(kind[:-1] == 0, at[:-1] + (RRR_SAMPLE_EVERY >> self._shift) << 3, 0)
        read, decode = self._offset_reader(), self._decoder()
        if self._table is not None:
            # every t-bit word, made for this function's life, so that a round decodes in one gather
            words, firsts = _word_table(t)
            decode = lambda k, off: words[firsts[k] + off]
        low = (np.ones(1, dtype=values.dtype) << np.arange(t, dtype=values.dtype)) - values.dtype.type(1)

        def rank1(j):
            blk = j // t
            sb = blk >> 5
            entry = before[blk]
            k = classes[blk].astype(np.intp)  # numpy gathers by intp indices faster than by uint8 ones
            value = decode(k, read(k, base[sb] + (entry >> 11))) | bits[blk]
            return sample_rank[sb] + (entry & 2047) + np.bitwise_count(value & low[j - blk * t])

        return rank1

    def _rank1_many(self, j):
        """rank1 of every position in the int64 array j, each from its own sample, as int64.

        In a sparse sample a position compares its sample's at most 63
        positions with its own. In a RRR one it sums the classes and the
        offset widths of its sample's blocks before its own, then reads its
        offset and decodes it. No table is made, per block or kept across
        calls, so a call costs only its positions and its numpy calls, whose
        tables of a class are made once per t (_many_tables): a load ranks
        each node end once, where batch_rank1's tables would cost more than
        the ranks.
        """
        t, log = self.t, self._log
        blk = j // t
        sb = blk >> 5
        entries = np.frombuffer(self._entries, dtype=np.uint32)
        bases = np.frombuffer(self._bases, dtype=np.uint32)
        x = entries[sb].astype(np.int64)
        half = bases[sb >> log] + (x & _AT)  # each sample's first 2-byte element
        ones = np.frombuffer(self._ranks, dtype=np.int64)[sb >> log] + (x >> 16)
        # the positions in sparse samples, then those in RRR ones; a call
        # with none of a kind skips its numpy calls
        q = np.flatnonzero(x & _SPARSE)
        if len(q):
            # a sparse sample's positions below j's, of a row of the stream's
            # uint16 elements, as many as the most any of j's samples holds:
            # a view with a row from each element, so that no index is made
            # per element. Its rows end at the stream's end, so a sample's
            # positions start at its row's shift, 0 but near the end
            after = sb[q] + 1
            lo = half[q]
            held = (bases[after >> log] + (entries[after] & _AT) - lo).astype(np.uint8)
            width = int(held.max())
            rows = len(self._stream) // 2 - width + 1
            row = np.minimum(lo, rows - 1)
            pos = np.ndarray((rows, width), "<u2", self._stream, strides=(2, 2))[row]
            p = j[q] - sb[q] * RRR_SAMPLE_EVERY * t
            # uint8 wraps a slot before the shift to 194 or more, past every count
            run = _SLOTS[:width] - (lo - row).astype(np.uint8)[:, None] < held[:, None]
            c = ((pos < p[:, None]) & run).sum(axis=1)
            ones[q] += np.where(x[q] & _ZEROS, p - c, c)
        r = np.flatnonzero(~x & _SPARSE)
        if len(r):
            # a RRR sample's classes before j's block's, and their offset
            # widths; then j's block's offset, decoded
            blk, at = blk[r], half[r] << 1
            k = self._classes(at)
            b = blk & (RRR_SAMPLE_EVERY - 1)
            before = k * (_SLOTS[:RRR_SAMPLE_EVERY] < b[:, None])  # class 0 has no offset bits
            # each class and its offset width, in the low and high 16 bits, summed at once
            sums = _many_tables(t)[0].take(before).sum(axis=1, dtype=np.uint32)
            opos = (sums >> 16).astype(np.int64)
            opos += at + (RRR_SAMPLE_EVERY >> self._shift) << 3
            k = k[np.arange(len(r)), b]
            value = self._decoder()(k, self._offset_reader()(k, opos))
            ones[r] += (sums & 0xFFFF) + np.bitwise_count(value & (_ONE << (j[r] - blk * t).astype(np.uint64)) - _ONE)
        return ones

    def _samples(self):
        """Each sample's first byte in the stream, the ones before it, and its kind (0 RRR, 2 ones, 3 zeros), as int64.

        Each has one more item than there are samples: where the samples
        end, all their ones, and 0.
        """
        x = np.frombuffer(self._entries, dtype=np.uint32).astype(np.int64)
        top = np.arange(len(x)) >> self._log
        at = np.frombuffer(self._bases, dtype=np.uint32)[top] + (x & _AT) << 1
        return at, np.frombuffer(self._ranks, dtype=np.int64)[top] + (x >> 16), x >> 14 & 3

    def _classes(self, at):
        """The classes (uint8) of the 32 blocks of each RRR sample at byte at[i] of the stream, one row each."""
        cb = RRR_SAMPLE_EVERY >> self._shift
        # a view of the stream's cb bytes from each of its bytes, one row each:
        # a sample's class bytes are one row, gathered with no index per byte
        k = np.ndarray((max(len(self._stream) - cb + 1, 0), cb), np.uint8, self._stream, strides=(1, 1))[at]
        if self._shift:  # two classes per byte, the low one first
            k = np.stack([k & 15, k >> 4], axis=2).reshape(len(at), RRR_SAMPLE_EVERY)
        return k

    def _offset_starts(self, k, at):
        """The offset starts of the blocks of classes k (_classes' rows) of the RRR samples at bytes at of the stream.

        A sample's offsets start after its class bytes, each after the
        offset widths of the blocks before it: 32 of at most 60 bits sum in
        uint16. The starts take at's dtype: int64, or uint32 for the load's
        offset checks up to t = 16.
        """
        widths = np.frombuffer(k.tobytes().translate(self._widths), dtype=np.uint8).reshape(k.shape)
        opos = np.cumsum(widths, axis=1, dtype=np.uint16)
        opos -= widths
        return opos + (at + (RRR_SAMPLE_EVERY >> self._shift) << 3)[:, None]

    def _positions(self, at, kind):
        """The positions of every sparse sample in turn, as int64, and the sample of each; at and kind are _samples'."""
        sparse = np.flatnonzero(kind[:-1] >= 2)
        lo = at[sparse] >> 1
        count = (at[sparse + 1] >> 1) - lo
        idx = np.arange(int(count.sum())) + np.repeat(lo - (np.cumsum(count) - count), count)
        return np.repeat(sparse, count), np.frombuffer(self._stream, dtype="<u2")[idx].astype(np.int64)

    def _sparse_values(self, at, kind):
        """The sparse samples, and the t bits of each of their blocks, LSB first, one row per sample.

        The bits are uint16 up to t = 16, else uint64: a ones sample's are
        its positions' bits, a zeros one's their complement; at and kind
        are _samples'.
        """
        t = self.t
        sparse = np.flatnonzero(kind[:-1] >= 2)
        sample, pos = self._positions(at, kind)
        dtype = np.uint16 if t <= _TABLE_MAX_T else np.uint64
        values = np.zeros((len(sparse), RRR_SAMPLE_EVERY), dtype=dtype)
        blk = np.searchsorted(sparse, sample) * RRR_SAMPLE_EVERY + pos // t
        first = np.flatnonzero(np.diff(blk, prepend=-1))  # each block's first position; they are sorted
        if len(blk):
            bits = np.ones(1, dtype=dtype) << (pos % t).astype(dtype)
            values.ravel()[blk[first]] = np.bitwise_or.reduceat(bits, first)
        values[kind[sparse] == 3] ^= (np.ones(1, dtype=dtype) << dtype(t)) - dtype(1)
        return sparse, values

    def _offset_reader(self):
        """A function (k, opos) that reads the offsets of blocks of classes k (uint8) at bits opos (int64) of the stream.

        Up to t = 16 an offset is at most 14 bits wide, so the 4 bytes from
        the one that holds its first bit hold it: one unaligned uint32 view
        of the stream, one element per byte (the stream ends in a spare
        word), reads it, as int64, or as uint32 from uint32 bits opos, and
        masks it by its class (_many_tables). Above, read_fields reads it,
        as uint64. Every view it reads is bound here.
        """
        if self.t > _TABLE_MAX_T:
            widths = np.frombuffer(self._widths, dtype=np.uint8)  # each class byte value's, 0 above t
            stream = np.frombuffer(self._stream, dtype="<u8")
            return lambda k, opos: read_fields(stream, opos, widths[k])
        view = np.ndarray(len(self._stream) - 3, dtype="<u4", buffer=self._stream, strides=(1,))
        masks = _many_tables(self.t)[1]
        return lambda k, opos: view[opos >> 3] >> (opos & 7) & masks[k]

    def _decoder(self):
        """A function (k, off) that decodes the t-bit blocks of classes k and offsets off, as _offset_reader reads them.

        Up to t = 16 through the decode table (see _table_decoder), as
        uint16; above enumeratively, as uint64, overwriting off.
        """
        t = self.t
        return (lambda k, off: _values_of_offsets(off, t, k)) if self._table is None else _table_decoder(t)

    def _values(self):
        """Every block's t bits, LSB first, as uint64, over all the vector's samples, whatever their kind."""
        at, _, kind = self._samples()
        values = np.zeros((len(at) - 1, RRR_SAMPLE_EVERY), dtype=np.uint64)
        rrr = np.flatnonzero(kind[:-1] == 0)
        k = self._classes(at[rrr])
        values[rrr] = self._decoder()(k, self._offset_reader()(k, self._offset_starts(k, at[rrr])))
        sparse, values[sparse] = self._sparse_values(at, kind)
        return values.ravel()

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
        kinds = np.bincount(np.frombuffer(self._entries, dtype=np.uint32)[:-1] >> 14 & 3, minlength=4)
        return {"rrr": int(kinds[0]), "ones": int(kinds[2]), "zeros": int(kinds[3])}

    def payload(self):
        """The payload section: every sample's kind byte, then the samples' bytes.

        The kind bytes are the samples' kinds and byte counts (see
        read_payload), and the samples' bytes the stream as it is, but its
        padding.
        """
        at, _, kind = self._samples()
        size = np.diff(at)
        cb = RRR_SAMPLE_EVERY >> self._shift
        kinds = np.where(kind[:-1] >= 2, kind[:-1] << 6 | size >> 1, (size - cb) >> 1)
        return kinds.astype(np.uint8).tobytes() + self._stream[: at[-1]]

    def stored_bits(self):
        """Bits of the vector: in the payload section, and in the rank tables.

        The tables are a 32-bit entry per sample and one more for the
        samples' end, then a 64-bit rank and a 32-bit stream element per
        superblock.
        """
        samples = len(self._entries) - 1
        end = self._bases[-1] + (self._entries[-1] & _AT) << 1
        tables = (self._entries, self._ranks, self._bases)
        return 8 * (samples + end), sum(8 * a.itemsize * len(a) for a in tables)


def build_plain(bits):
    return PlainBitVector(bits)


def build_rrr(bits, block_size=15):
    return RrrBitVector(bits, block_size)


def make_bitvector(bits, t):
    """The vector of bits, plain for t = 0 else of t-bit RRR blocks."""
    return RrrBitVector(bits, t) if t else PlainBitVector(bits)


def read_payload(buf, t, m):
    """The vector of m bits of an index file's payload section, plain for t = 0 else of t-bit RRR blocks.

    The caller derives m. The section holds, plain, the m bits in
    ceil(m / 8) bytes, LSB first; RRR, the kind byte of each of the
    rrr_samples(m, t) samples, then every sample's bytes. A kind byte gives
    its sample's bytes: 0ccccccc a RRR sample of class bytes and 2c offset
    bytes, 10cccccc the c positions of its ones, 11cccccc of its zeros, two
    bytes each. The section's length is checked against m before anything
    of m's size is made. Raises EOFError or ValueError naming the failed
    check: a section shorter than the plain bytes or the RRR kind bytes
    that m gives ("payload truncated"), or longer than the plain bytes
    ("payload length"); the RRR samples' bytes over the uint32 limit,
    checked before they are copied ("rrr offset stream of 2^32 bits or
    more"); then the RRR vector's own checks (RrrBitVector._setup). The
    padding bits of the plain section's last byte are ignored: they are
    cleared, as a build leaves them.
    """
    if t:
        samples = rrr_samples(m, t)
        if len(buf) < samples:
            raise EOFError("payload truncated")
        if 8 * (len(buf) - samples) >= 1 << 32:
            raise ValueError("rrr offset stream of 2^32 bits or more")
        vector = RrrBitVector.__new__(RrrBitVector)
        vector._setup(t, m, np.frombuffer(buf, dtype=np.uint8, count=samples), memoryview(buf)[samples:])
        return vector
    if len(buf) < m + 7 >> 3:
        raise EOFError("payload truncated")
    if len(buf) > m + 7 >> 3:
        raise ValueError("payload length")
    vector = PlainBitVector.__new__(PlainBitVector)
    vector._setup(buf, m)
    return vector
