"""Text model, suffix array and BWT construction, plus brute-force oracles.

A text is stored over a dense code alphabet 0..sigma-1 where code 0 is a
sentinel that occurs exactly once, at the end, and is smaller than every
other symbol. Codes 1..sigma-1 map back to source bytes through an ascending
remap table so that byte patterns can be translated into code space.

The suffix array is prefix doubling over uint64 words that pack a sort key
above the suffix's position, each sorted in place (see suffix_array).
"""

import numpy as np


def code_translator(byte_for_code):
    """A function that maps pattern bytes to codes 1..sigma-1 through the
    remap table, or to None if some byte is not in the table."""
    lut = [0] * 256
    for code, byte in enumerate(byte_for_code, start=1):
        lut[byte] = code

    def translate(pattern):
        out = []
        for byte in bytes(pattern):
            code = lut[byte]
            if code == 0:
                return None
            out.append(code)
        return out

    return translate


class Text:
    __slots__ = ("data", "n", "sigma", "byte_for_code", "_translate")

    def __init__(self, data, sigma, byte_for_code):
        data = np.asarray(data)
        n = len(data)
        if n < 1:
            raise ValueError("empty text")
        if not 2 <= sigma <= 257:
            raise ValueError("sigma must be in 2..257")
        if int(data[-1]) != 0 or int(np.count_nonzero(data == 0)) != 1:
            raise ValueError("text must end with a unique sentinel code 0")
        if int(data.max()) >= sigma:
            raise ValueError("symbol code out of range")
        if len(byte_for_code) != sigma - 1:
            raise ValueError("remap table must cover codes 1..sigma-1")
        self.data = data.astype(np.uint8 if sigma <= 256 else np.uint16)
        self.n = n
        self.sigma = sigma
        self.byte_for_code = bytes(byte_for_code)
        self._translate = code_translator(self.byte_for_code)

    @classmethod
    def from_codes(cls, codes, sigma=None):
        """Build from symbol codes that do not yet include the sentinel."""
        codes = list(codes)
        if sigma is None:
            sigma = max(codes, default=1) + 1
        # synthetic remap: identity while it fits in a byte, else 0-based
        remap = bytes(range(1, sigma)) if sigma <= 256 else bytes(range(256))
        return cls(np.array(codes + [0]), sigma, remap)

    def translate(self, pattern):
        """Map raw pattern bytes to codes; None if some byte never occurs in the text."""
        return self._translate(pattern)

    def __eq__(self, other):
        return (
            isinstance(other, Text)
            and self.sigma == other.sigma
            and self.byte_for_code == other.byte_for_code
            and np.array_equal(self.data, other.data)
        )

    def __len__(self):
        return self.n


def build_text(raw):
    """Map raw bytes onto the dense code alphabet and append the sentinel."""
    raw = bytes(raw)
    if len(raw) == 0:
        raise ValueError("empty text")
    arr = np.frombuffer(raw, dtype=np.uint8)
    present = np.unique(arr)
    sigma = len(present) + 1
    lut = np.zeros(256, dtype=np.uint16)
    lut[present] = np.arange(1, sigma, dtype=np.uint16)
    data = np.zeros(len(raw) + 1, dtype=np.uint16)
    data[:-1] = lut[arr]
    return Text(data, sigma, present.tobytes())


def symbol_counts(t):
    """Occurrence count per code, length sigma."""
    return np.bincount(t.data, minlength=t.sigma).astype(np.int64)


def suffix_array(t):
    """Suffix order as int64 positions: a packed q-gram sort, then prefix doubling.

    A sort packs each suffix's key and position into one uint64, the position
    in the low B = n.bit_length() bits, and sorts it in place: one sort does
    the work of an argsort plus a sort of the keys. A group is a run of equal
    keys in sorted order; rank[i] is 1 + the slot of suffix i's group's first
    member.

    Stage 1 keys each suffix by its first q = (64 - B) // w symbols (w bits
    each, zeros past the end), so the ranks order the suffixes by their first
    h = q symbols. Each round then sorts by (rank[i], rank[i + h]), with 0
    past the end, which orders them by 2h symbols, and doubles h (Manber &
    Myers). While more than half the suffixes are in groups of two or more,
    a round keys all n suffixes in text order, from contiguous reads of
    rank, and gathers nothing through the SA. After that a round sorts only
    those groups' slots (Larsson & Sadakane, "Faster suffix sorting"); their
    members share an h-symbol prefix without the sentinel, so i + h < n.

    A round's key holds two ranks and a position, 3B bits, which fit in 64
    while n < 2^21. A longer text's rounds argsort the two ranks instead,
    and only over the unfinished slots: their keys come in group order,
    which argsorts faster than keys in text order. Index and rank arrays are
    uint32, and temporaries are dropped early, to keep the peak memory down.
    """
    n = t.n
    if n >= 2**32:
        raise ValueError("text too long: the suffix sort needs n < 2^32")
    b = n.bit_length()
    packed = 3 * b <= 64  # a round's key and position fit in one uint64
    w = (t.sigma - 1).bit_length()
    q = (64 - b) // w
    key = np.zeros(n, dtype=np.uint64)
    for j in range(min(q, n)):
        key <<= w
        key[: n - j] |= t.data[j:]

    def ordered(key, pos, fits=True):
        """pos and key in key order: sorted in place with pos in the key's
        low bits where both fit in 64 bits, else argsorted."""
        if not fits:
            order = key.argsort()
            return pos[order], key[order]
        key <<= b
        key |= pos
        key.sort()
        pos = key.astype(np.uint32)
        pos &= (1 << b) - 1
        key >>= b
        return pos, key

    rank = np.empty(n, dtype=np.uint32)
    slots = None  # None while a round keys every suffix in text order
    h = q
    while True:
        if slots is None:  # stage 1 or a text-order round: both fit
            sa, key = ordered(key, np.arange(n, dtype=np.uint32))
            pos = sa
        else:
            pos, key = ordered(key, sa[slots], packed)
            sa[slots] = pos
        m = len(key)
        head = np.empty(m + 1, dtype=bool)
        head[0] = head[m] = True
        np.not_equal(key[1:], key[:-1], out=head[1:m])
        del key
        ids = np.arange(1, n + 1, dtype=np.uint32) if slots is None else slots + 1
        ids *= head[:m]
        np.maximum.accumulate(ids, out=ids)
        rank[pos] = ids
        del ids, pos
        shared = ~(head[:m] & head[1:])
        del head
        left = int(np.count_nonzero(shared))
        if left == 0:
            return sa.astype(np.int64)
        # Stage 1 leaves 90% (stdlib-read) and 96% (markov-boost) of the 1 MB
        # benchmark texts' suffixes in shared groups, and the next rounds 63%
        # then 34%, and 80% then 37%. Text order in every round took 0.29 and
        # 0.22 s, unfinished slots only from stage 1 on 0.17 and 0.19 s, and
        # any switch between a quarter and three quarters 0.14-0.16 s.
        if slots is None and 2 * left > n and packed:
            del sa  # the next sort rebuilds it
            key = rank.astype(np.uint64)
            key <<= b
            key[: n - h] |= rank[h:]  # h < n, since two suffixes share h symbols
        else:
            slots = (np.arange(n, dtype=np.uint32) if slots is None else slots)[shared]
            i = sa[slots]
            key = rank[i].astype(np.uint64)
            key <<= b
            key |= rank[i + h]
            del i
        del shared
        h *= 2


class Bwt:
    """Last column of the sorted rotation matrix plus cumulative symbol counts.

    c has length sigma+1 with c[x] = number of symbols smaller than x and
    c[sigma] = n, so c[x+1]-c[x] is the count of symbol x.
    """

    __slots__ = ("l", "c", "sigma", "n", "byte_for_code")

    def __init__(self, l, c, sigma, byte_for_code=b""):
        self.l = np.asarray(l)
        self.c = [int(x) for x in c]
        self.sigma = sigma
        self.n = len(self.l)
        self.byte_for_code = bytes(byte_for_code)
        if len(self.c) != sigma + 1 or self.c[0] != 0 or self.c[sigma] != self.n:
            raise ValueError("inconsistent cumulative counts")

    @classmethod
    def from_sequence(cls, l, sigma=None, byte_for_code=b""):
        """Build directly from a last-column sequence, recomputing the counts."""
        l = np.asarray(l)
        if sigma is None:
            sigma = int(l.max()) + 1
        counts = np.bincount(l, minlength=sigma)
        c = np.zeros(sigma + 1, dtype=np.int64)
        np.cumsum(counts, out=c[1:])
        return cls(l, c.tolist(), sigma, byte_for_code)


def bwt(t, sa=None):
    """BWT of the text; pass its suffix array when the caller already has it."""
    if sa is None:
        sa = suffix_array(t)
    l = t.data[sa - 1]  # sa[i] = 0 reads index -1: the sentinel, the text's last symbol
    c = np.zeros(t.sigma + 1, dtype=np.int64)
    np.cumsum(symbol_counts(t), out=c[1:])
    return Bwt(l, c.tolist(), t.sigma, t.byte_for_code)


def inverse_bwt(b):
    """Rebuild the text by walking the last-to-first mapping backwards from the sentinel.

    A test oracle only: the walk is a Python loop with one step per symbol.
    """
    l = np.asarray(b.l, dtype=np.int64)
    n = len(l)
    if int(np.count_nonzero(l == 0)) != 1:
        raise ValueError("malformed BWT: expected exactly one sentinel")
    c = np.asarray(b.c, dtype=np.int64)
    order = np.argsort(l, kind="stable")
    occ = np.empty(n, dtype=np.int64)
    occ[order] = np.arange(n, dtype=np.int64) - c[l[order]]
    lf = (c[l] + occ).tolist()
    symbols = l.tolist()
    out = [0] * n
    start = int(np.nonzero(l == 0)[0][0])
    i = start
    for p in range(n - 1, -1, -1):
        out[p] = symbols[i]
        i = lf[i]
    if i != start:
        raise ValueError("malformed BWT: mapping does not close a full cycle")
    return Text(np.array(out), b.sigma, b.byte_for_code or bytes(range(1, b.sigma)))


def naive_count(t, pattern):
    """Occurrences of a code-space pattern in the text body, counted by direct scan."""
    pattern = list(pattern)
    m = len(pattern)
    if m == 0:
        return t.n
    if any(not 1 <= c < t.sigma for c in pattern):
        return 0
    if m > t.n - 1:
        return 0
    if t.sigma <= 256:
        hay = t.data[:-1].astype(np.uint8).tobytes()
        needle = bytes(pattern)
        count = 0
        at = hay.find(needle)
        while at >= 0:
            count += 1
            at = hay.find(needle, at + 1)
        return count
    windows = np.lib.stride_tricks.sliding_window_view(t.data[:-1], m)
    return int(np.count_nonzero(np.all(windows == np.asarray(pattern), axis=1)))


def naive_rank(s, c, j):
    """Occurrences of symbol c in s[0:j], counted by direct scan."""
    if not 0 <= j <= len(s):
        raise ValueError("rank position out of range")
    if isinstance(s, str):
        return s[:j].count(c)
    return int(np.count_nonzero(np.asarray(s)[:j] == c))
