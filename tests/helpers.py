"""Shared generators and brute-force reference implementations for the tests."""

import numpy as np

from fmblock.bitio import pack_fields
from fmblock.bitrank import offset_width
from fmblock.textcore import Text

BANANA_ALPHABET = {"$": 0, "A": 1, "B": 2, "N": 3}


def codes_of(s, mapping=BANANA_ALPHABET):
    return [mapping[ch] for ch in s]


def random_codes(rng, n, sigma):
    return [rng.randrange(1, sigma) for _ in range(n)]


def random_text(rng, n, sigma):
    return Text.from_codes(random_codes(rng, n, sigma), sigma)


def random_bytes_text(rng, n, alphabet=b"ab"):
    return bytes(rng.choice(alphabet) for _ in range(n))


def markov2_codes(seed, n, sigma=8, peak=0.95):
    """Order-2 chain where each context strongly prefers one successor."""
    rng = np.random.default_rng(seed)
    pref = rng.integers(1, sigma, size=(sigma - 1, sigma - 1))
    u = rng.random(n)
    alt = rng.integers(1, sigma, size=n)
    out = np.empty(n, dtype=np.int64)
    a = b = 1
    for i in range(n):
        c = int(pref[a - 1, b - 1]) if u[i] < peak else int(alt[i])
        out[i] = c
        a, b = b, c
    return out.tolist()


def brute_suffix_array(data):
    seq = [int(x) for x in data]
    n = len(seq)
    return sorted(range(n), key=lambda i: seq[i:])


def check_suffix_array(data, sa):
    """Whether sa is data's suffix array, in O(n) numpy (Burkhardt & Kärkkäinen's
    checker): it must be a permutation in which each suffix is below the next
    by its first symbol, or by the slot of the suffix one position on."""
    data = np.asarray(data, dtype=np.int64)
    sa = np.asarray(sa, dtype=np.int64)
    n = len(data)
    if len(sa) != n or not np.array_equal(np.sort(sa), np.arange(n)):
        return False
    slot = np.empty(n + 1, dtype=np.int64)
    slot[sa] = np.arange(n)
    slot[n] = -1  # the empty suffix
    a, b = sa[:-1], sa[1:]
    first, then = data[a], data[b]
    return bool(np.all((first < then) | ((first == then) & (slot[a + 1] < slot[b + 1]))))


def brute_bwt(data):
    seq = [int(x) for x in data]
    n = len(seq)
    rows = sorted(range(n), key=lambda i: seq[i:] + seq[:i])
    return [seq[(i - 1) % n] for i in rows]


def canonical_codes(lengths):
    """{symbol: (length, code)} for {symbol: code length}, assigned in (length, symbol) order.

    The reference for the library's canonical codes: each code is the
    previous one plus one, shifted left by the step in length (DEFLATE's
    rule, RFC 1951 3.2.2), one symbol at a time in Python integers.
    """
    codes = {}
    code = prev = 0
    for length, sym in sorted((length, sym) for sym, length in lengths.items()):
        code <<= length - prev
        codes[sym] = (length, code)
        code += 1
        prev = length
    return codes


def brute_count(codes, pattern):
    """Quadratic overlapping-occurrence scan, independent of the library."""
    m = len(pattern)
    if m == 0 or m > len(codes):
        return 0
    return sum(1 for i in range(len(codes) - m + 1) if codes[i : i + m] == list(pattern))


def brute_h0(counts):
    import math

    counts = [c for c in counts if c > 0]
    n = sum(counts)
    return sum(c / n * math.log2(n / c) for c in counts)


def pattern_batch(rng, codes, sigma, extracted=80, adversarial=20, max_len=12):
    """Patterns that occur (substrings) plus ones that usually do not."""
    n = len(codes)
    out = []
    for _ in range(extracted):
        ln = rng.randint(1, min(max_len, max(1, n - 1)))
        if n > ln:
            at = rng.randrange(n - ln)
            out.append(codes[at : at + ln])
    for _ in range(adversarial):
        out.append([rng.randrange(1, sigma) for _ in range(rng.randint(1, 6))])
    out.append([])
    out.append([0])  # sentinel is never a legal pattern symbol
    out.append([sigma + 3])  # neither is an out-of-range code
    return out


def rrr_payload(t, m, blocks):
    """An RRR payload section of a vector of m bits, its blocks' (class, offset) pairs given, every sample stored as RRR.

    Written field by field from the format: one kind byte per sample of 32
    blocks (the blocks after the last given are class 0), its offset bytes
    over 2, then each sample's class bytes (two 4-bit classes a byte, the
    low one first, up to t = 15) and its offsets, padded to an even byte
    count.
    """
    kinds, body = bytearray(), bytearray()
    samples = -(-m // t) // 32 + 1
    blocks = list(blocks) + [(0, 0)] * (32 * samples - len(blocks))
    for s in range(0, len(blocks), 32):
        classes = [k for k, _ in blocks[s : s + 32]]
        offsets = pack_fields([off for _, off in blocks[s : s + 32]], [offset_width(t, k) for k in classes])
        offsets += bytes(len(offsets) % 2)
        kinds.append(len(offsets) // 2)
        body += bytes(lo | hi << 4 for lo, hi in zip(classes[0::2], classes[1::2])) if t <= 15 else bytes(classes)
        body += offsets
    return bytes(kinds + body)


def watch_load_ranks(monkeypatch, vector, cut):
    """Record the ranks of the vector class in a load, whose rank1_many ranks calls of at most cut positions with rank1.

    Returns (many, ranked): many gets each rank1_many call's positions, and
    ranked every position that rank1 or the numpy form (_rank1_many) ranks,
    called from rank1_many or not.
    """
    many, ranked = [], []
    rank1, rank1_many, numpy_ranks = vector.rank1, vector.rank1_many, vector._rank1_many
    monkeypatch.setattr(vector, "_SCALAR_RANKS", cut)
    monkeypatch.setattr(vector, "rank1", lambda self, j: ranked.append(j) or rank1(self, j))
    monkeypatch.setattr(vector, "_rank1_many", lambda self, j: ranked.extend(j.tolist()) or numpy_ranks(self, j))
    monkeypatch.setattr(vector, "rank1_many", lambda self, j: many.append(j.tolist()) or rank1_many(self, j))
    return many, ranked
