"""Empirical entropy of sequences and of sequence partitions.

h0/hk measure the zeroth- and k-th-order empirical entropy in bits per
symbol, with contexts taken cyclically so every position has a length-k
right context. Partition helpers split a sequence into blocks and sum
|block| * h0(block); splitting the BWT at context boundaries reproduces
n * hk(text) exactly, and that identity is what the verification commands
check numerically.
"""

from dataclasses import dataclass

import numpy as np

from .textcore import suffix_array

REL_TOL = 1e-9


def _as_symbols(x):
    if isinstance(x, str):
        x = x.encode("utf-8")
    if isinstance(x, (bytes, bytearray)):
        return np.frombuffer(bytes(x), dtype=np.uint8)
    return np.asarray(x)


def _counts_of(x):
    x = _as_symbols(x)
    if x.size == 0:
        raise ValueError("empty sequence")
    if x.dtype.kind in "iu" and 0 <= int(x.min()) and int(x.max()) <= 1 << 20:
        counts = np.bincount(x.astype(np.int64))
        return counts[counts > 0].astype(np.float64)
    return np.unique(x, return_counts=True)[1].astype(np.float64)


def _total_bits(counts):
    """n*H0 from raw symbol counts: n log n - sum c log c."""
    counts = np.asarray(counts, dtype=np.float64)
    counts = counts[counts > 0]
    n = counts.sum()
    if n == 0:
        return 0.0
    return float(n * np.log2(n) - (counts * np.log2(counts)).sum())


def h0(x):
    """Zeroth-order empirical entropy in bits per symbol."""
    counts = _counts_of(x)
    return _total_bits(counts) / counts.sum()


def _pair_ids(a, b):
    """Dense ids for the pairs (a[i], b[i]), numbered in sorted pair order."""
    key = a * (int(b.max()) + 1) + b
    if int(key.max()) < len(key):
        # few possible pairs: number the ones present without sorting
        present = np.bincount(key) > 0
        return (np.cumsum(present, dtype=np.int64) - 1)[key]
    return np.unique(key, return_inverse=True)[1].astype(np.int64)


def hk(t, k):
    """Order-k empirical entropy of the text, contexts taken cyclically.

    Works by building dense ids for every cyclic k-gram, then scoring each
    (symbol, following k-gram) pair against its context count. Independent
    of the suffix-array route used by context_partition.
    """
    if k < 0:
        raise ValueError("context order must be non-negative")
    data = t.data.astype(np.int64)
    n = t.n
    gram = np.zeros(n, dtype=np.int64)
    for _ in range(k):
        gram = _pair_ids(data, np.roll(gram, -1))
    ctx = np.roll(gram, -1)
    width = int(ctx.max()) + 1
    keys, counts_v = np.unique(data * width + ctx, return_counts=True)
    counts_w = np.bincount(gram)
    n_w = counts_w[keys % width].astype(np.float64)
    n_v = counts_v.astype(np.float64)
    return float((n_v * (np.log2(n_w) - np.log2(n_v))).sum() / n)


class Partition:
    """A split of positions 0..n into blocks, stored as interior boundaries."""

    def __init__(self, n, boundaries):
        boundaries = [int(b) for b in boundaries]
        if n < 1:
            raise ValueError("partition of an empty range")
        prev = 0
        for b in boundaries:
            if not prev < b < n:
                raise ValueError("boundaries must be strictly increasing inside (0, n)")
            prev = b
        self.n = n
        self.boundaries = boundaries

    @property
    def block_count(self):
        return len(self.boundaries) + 1

    def blocks(self):
        edges = [0] + self.boundaries + [self.n]
        return list(zip(edges[:-1], edges[1:]))


def context_partition(b, t, k, sa=None):
    """Split the BWT at the boundaries of equal length-k cyclic contexts.

    Rotation i sits at BWT position r when sa[r] = i, and its context is the
    k symbols starting at i; a block ends wherever adjacent rotations stop
    sharing that prefix.
    """
    if b.n != t.n:
        raise ValueError("BWT and text disagree on length")
    if k < 0:
        raise ValueError("context order must be non-negative")
    if sa is None:
        sa = suffix_array(t)
    n = t.n
    # the text repeated to n + k symbols, so that rotation i's symbol j, at
    # (i + j) % n, is padded[i + j]: one gather per context column
    padded = np.resize(t.data, n + k)
    diff = np.zeros(n - 1, dtype=bool)
    for j in range(k):
        column = padded[j:][sa]
        diff |= column[:-1] != column[1:]
    return Partition(n, (np.nonzero(diff)[0] + 1).tolist())


def fixed_partition(n, b):
    """Blocks of exactly b symbols, with a shorter final block if b does not divide n."""
    if b < 1:
        raise ValueError("block size must be >= 1")
    return Partition(n, list(range(b, n, b)))


def partition_entropy(x, partition):
    """Sum of |block| * h0(block) over the partition, in bits."""
    x = _as_symbols(x)
    if len(x) != partition.n:
        raise ValueError("partition does not cover the sequence")
    if x.dtype.kind in "iu" and 0 <= int(x.min()) and int(x.max()) < 4096:
        sigma = int(x.max()) + 1
        nblocks = partition.block_count
        edges = np.asarray([0, *partition.boundaries, len(x)], dtype=np.int64)
        ids = np.repeat(np.arange(nblocks, dtype=np.int64), np.diff(edges))
        counts = np.bincount(ids * sigma + x.astype(np.int64), minlength=nblocks * sigma)
        return counts_entropy(counts.reshape(nblocks, sigma))
    return sum(_total_bits(_counts_of(x[s:e])) for s, e in partition.blocks())


def counts_entropy(counts):
    """Sum of |block| * h0(block) in bits, from a (blocks, symbols) array of each block's symbol counts."""
    counts = np.asarray(counts, dtype=np.float64)
    sizes = counts.sum(axis=1)
    logs = np.where(counts > 0, np.log2(np.where(counts > 0, counts, 1.0)), 0.0)
    return float((sizes * np.log2(sizes)).sum() - (counts * logs).sum())


def pair_entropy_bits(a, b):
    """(a+b) log(a+b) - a log a - b log b, the two-part split cost in bits."""
    total = 0.0
    if a + b > 0:
        total = (a + b) * np.log2(a + b)
    if a > 0:
        total -= a * np.log2(a)
    if b > 0:
        total -= b * np.log2(b)
    return float(total)


@dataclass
class ConcatTerms:
    """Split cost of one concatenation: delta = |XY|H0(XY) - |X|H0(X) - |Y|H0(Y)."""

    delta: float
    length_split_bits: float
    symbol_split_bits: float


def concat_entropy_terms(x, y):
    """Entropy increase when two sequences are measured jointly instead of apart.

    The increase equals the cost of encoding the split point minus the cost
    already absorbed by the per-symbol splits, so
    0 <= delta = length_split_bits - symbol_split_bits <= length_split_bits <= |XY|.
    """
    x = _as_symbols(x)
    y = _as_symbols(y)
    if x.size == 0 or y.size == 0:
        raise ValueError("empty sequence")
    # dense ids over the symbols of both, so that cx[i] and cy[i] count one symbol
    ids = np.unique(np.concatenate([x, y]), return_inverse=True)[1]
    hi = int(ids.max()) + 1
    cx = np.bincount(ids[: x.size], minlength=hi).astype(np.float64)
    cy = np.bincount(ids[x.size :], minlength=hi).astype(np.float64)
    delta = _total_bits(cx + cy) - _total_bits(cx) - _total_bits(cy)
    length_split = pair_entropy_bits(float(x.size), float(y.size))
    symbol_split = sum(pair_entropy_bits(float(a), float(b)) for a, b in zip(cx, cy))
    return ConcatTerms(float(delta), length_split, float(symbol_split))


def verify_lemma3(x, partition, b):
    """Fixed-block entropy versus any partition plus (blocks-1)*b slack bits.

    Returns (lhs, rhs) with lhs = fixed-partition entropy at block size b and
    rhs = partition entropy + (partition.block_count - 1) * b; lhs <= rhs holds
    because each arbitrary-partition boundary can cut at most one fixed block
    in two, and a two-way cut of a block of <= b symbols costs at most b bits.
    """
    x = _as_symbols(x)
    lhs = partition_entropy(x, fixed_partition(len(x), b))
    rhs = partition_entropy(x, partition) + (partition.block_count - 1) * b
    return float(lhs), float(rhs)
