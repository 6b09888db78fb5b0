"""Text model, suffix array and BWT construction, plus brute-force oracles.

A text is stored over a dense code alphabet 0..sigma-1 where code 0 is a
sentinel that occurs exactly once, at the end, and is smaller than every
other symbol. Codes 1..sigma-1 map back to source bytes through an ascending
remap table so that byte patterns can be translated into code space.

The suffix array is sorted in two stages. Stage 1 sorts every suffix by one
int64 key that packs its first q symbols, where q = 62 // w and w is the bit
length of sigma-1; the key order is the order of those q-symbol prefixes,
because the sentinel is unique and smallest. Stage 2 is prefix doubling
that only re-sorts the suffixes whose prefix is still shared with another
suffix (Larsson & Sadakane), which after stage 1 is a fraction of the text.
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
    """Suffix order as int64 positions: a packed q-gram sort, then doubling.

    Stage 1 packs each suffix's first q = 62 // w symbols (w bits each, zeros
    past the end) into one int64 and sorts these keys once. A group is a run
    of equal keys in that order; its id is the SA slot of its first member,
    so ids order the suffixes by their first h = q symbols.

    Stage 2 re-sorts only the slots of groups with two or more members, by
    group(i) * n + group(i + h), splits those groups where the key changes,
    doubles h and repeats until every group is a single suffix (Larsson &
    Sadakane, "Faster suffix sorting"). Members of such a group share an
    h-symbol prefix without the sentinel, so i + h < n. Index arrays are
    int32 while n < 2^31, and each round drops its temporaries early, to keep
    the peak memory down.
    """
    n = t.n
    index = np.int32 if n < 2**31 else np.int64
    w = (t.sigma - 1).bit_length()
    q = 62 // w
    key = np.zeros(n, dtype=np.int64)
    for j in range(q):
        key <<= w
        if j < n:
            key[: n - j] |= t.data[j:]
    sa = np.argsort(key).astype(index)
    key = key[sa]
    group = np.empty(n, dtype=index)
    slots = np.arange(n, dtype=index)  # the SA slots not yet final, ascending
    h = q
    while True:
        m = len(slots)
        head = np.empty(m + 1, dtype=bool)
        head[0] = head[m] = True
        np.not_equal(key[1:], key[:-1], out=head[1:m])
        del key
        ids = np.where(head[:m], slots, 0)
        np.maximum.accumulate(ids, out=ids)
        group[sa[slots]] = ids
        unsorted = ~(head[:m] & head[1:])
        del head
        slots = slots[unsorted]
        if len(slots) == 0:
            return sa.astype(np.int64)
        i = sa[slots]
        key = ids[unsorted].astype(np.int64)
        del ids, unsorted
        key *= n
        key += group[i + h]
        order = np.argsort(key)
        sa[slots] = i[order]
        del i, order
        key.sort()
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
    l = t.data[(sa - 1) % t.n]
    c = np.zeros(t.sigma + 1, dtype=np.int64)
    np.cumsum(symbol_counts(t), out=c[1:])
    return Bwt(l, c.tolist(), t.sigma, t.byte_for_code)


def inverse_bwt(b):
    """Rebuild the text by walking the last-to-first mapping backwards from the sentinel."""
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
