"""Backward-search count index over the BWT.

An index is the c array, the byte remap and one wavelet.WaveletTree of
the BWT: one Huffman-shaped tree per fixed-size block, over that block's
own local alphabet, all over one bitvector, with a row of symbol counts
at every block boundary. The ssa variants are the one-block case: the
block size is n, so there is one tree over the whole BWT and one all-zero
boundary row. The *_rrr variants swap the bitvector for the compressed
representation.
Counting never touches the text: the tree's rank over the last column
drives the backward search. count searches one pattern; count_many
searches many together, each step ranking both ends of every live range
in numpy (see WaveletTree.batch_rank), and gives the same counts.
"""

import functools
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import textcore
from .bitrank import RRR_BLOCK_SIZES
from .wavelet import WaveletTree

# patterns per chunk of count_many, which bounds its temporaries
_COUNT_CHUNK = 1 << 15
# live ranges at or below which count_many steps each in turn (see
# WaveletTree.narrow), and ranks at or below which its batch_rank finishes
# their paths with scalar ranks, so that a long pattern or a deep code left
# on its own does not pay a numpy round per code or level. A level round of
# 85 ranks costs about as much as 30 to 35 plain rank1s, or 35 to 45 scalar
# ranks of the RRR batch table (1 MB stdlib and markov texts, 2 cores), and
# tails of 4 to 32 counted the benchmark batch within noise of each other,
# for either use: one constant serves both
_SCALAR_TAIL = 8
# the least alphabet factor of default_block_size: below it a block's fixed
# tables (start, leaf, and a path entry, row and steps per symbol) cost more
# heap than smaller blocks save; README gives the sweep that chose 16
_MIN_SIGMA_FACTOR = 16


class IndexVariant(str, Enum):
    SSA = "ssa"
    SSA_RRR = "ssa_rrr"
    FIXED_BLOCK = "fixed_block"
    FIXED_BLOCK_RRR = "fixed_block_rrr"

    @property
    def fixed(self):
        return self in (IndexVariant.FIXED_BLOCK, IndexVariant.FIXED_BLOCK_RRR)

    @property
    def bitvector_backend(self):
        return "rrr" if self in (IndexVariant.SSA_RRR, IndexVariant.FIXED_BLOCK_RRR) else "plain"


def default_block_size(n, sigma):
    """max(sigma, _MIN_SIGMA_FACTOR) * ceil(log2 n)^2, clamped to n.

    The factor's floor keeps it at least min(n, 64): 16 * 2^2 = 64 from
    n = 3 on.
    """
    if n < 2:
        raise ValueError("text too short for an index")
    lg = (n - 1).bit_length()
    return min(n, max(sigma, _MIN_SIGMA_FACTOR) * lg * lg)


@dataclass
class SizeReport:
    """Index size broken into components, all in bits."""

    n: int
    variant: str
    wavelet_payload: int
    rank_directories: int
    boundary_occ: int
    codebooks: int
    c_array: int
    remap: int

    @property
    def total(self):
        return sum(self.components().values())

    @property
    def bits_per_symbol(self):
        return self.total / self.n

    def components(self):
        return {
            "wavelet_payload": self.wavelet_payload,
            "rank_directories": self.rank_directories,
            "boundary_occ": self.boundary_occ,
            "codebooks": self.codebooks,
            "c_array": self.c_array,
            "remap": self.remap,
        }


class BlockedFMIndex:
    """Count-only FM-index; construct through build_index or storage.deserialize.

    rrr_block_size is 0 for a plain variant, as its file's header stores it.
    build_phases maps each phase of build_index to its seconds; a loaded
    index has none.
    """

    def __init__(self, variant, n, sigma, c, blocks, block_size, byte_for_code, rrr_block_size):
        self.variant = IndexVariant(variant)
        self.n = n
        self.sigma = sigma
        self.c = [int(x) for x in c]
        self.blocks = blocks
        self.block_size = block_size
        self.byte_for_code = bytes(byte_for_code)
        self.rrr_block_size = rrr_block_size
        self.translate = textcore.code_translator(self.byte_for_code)
        self.build_phases = {}

    def rank_l(self, c, j):
        """Occurrences of code c in the first j BWT symbols."""
        return self.blocks.rank(c, j)

    def count_codes(self, pattern):
        """Backward search over a code-space pattern."""
        sigma = self.sigma
        for code in pattern:
            if not 1 <= code < sigma:
                return 0
        return self._count(pattern)

    def _count(self, pattern):
        """count_codes over codes in 1..sigma - 1."""
        if not pattern:
            return self.n
        # the rows that start with the last code; b = 0 ranks to 0
        b = self.c[pattern[-1]]
        e = b + self.rank_l(pattern[-1], self.n)
        found = self.blocks.narrow(reversed(pattern[:-1]), b, e, self.c)
        return found[1] - found[0] if found else 0

    def count(self, pattern):
        """Occurrences of a byte pattern in the indexed text."""
        codes = self.translate(pattern)
        if codes is None:
            return 0
        return self._count(codes)

    def count_many(self, patterns):
        """[self.count(p) for p in patterns], with every pattern's backward search run together.

        The patterns go _COUNT_CHUNK at a time, so that a batch of any size
        keeps the temporaries bounded. The blocks' batch_rank, and the
        tables it makes, wait for a chunk's first numpy round: a batch of
        _SCALAR_TAIL patterns or fewer makes none.
        """
        patterns = list(patterns)
        rank = functools.cache(lambda: self.blocks.batch_rank(_SCALAR_TAIL))
        counts = []
        for lo in range(0, len(patterns), _COUNT_CHUNK):
            counts += self._count_chunk(patterns[lo : lo + _COUNT_CHUNK], rank)
        return counts

    def _count_chunk(self, patterns, rank):
        """count_many of one chunk: a step ranks both ends of every live range at once.

        rank() gives the blocks' batch_rank. The codes of all patterns are one
        int64 array, each pattern's in turn. A range is live until it is empty
        or its pattern is consumed, and the last _SCALAR_TAIL live ones step
        in turn, as count does. Each live range's pattern, the position of
        its code of the last step, b and e are the four rows of one int64
        array, so that one fancy index drops every row of the ranges a step
        ends.
        """
        lut = np.zeros(256, dtype=np.int64)  # 0 for a byte the text lacks
        lut[np.frombuffer(self.byte_for_code, dtype=np.uint8)] = np.arange(1, self.sigma)
        codes = lut[np.frombuffer(b"".join(patterns), dtype=np.uint8)]
        lengths = np.array([len(p) for p in patterns], dtype=np.int64)
        ends = np.cumsum(lengths)
        begins = ends - lengths
        counts = np.where(lengths == 0, self.n, 0)
        live = lengths > 0
        live[np.searchsorted(ends, np.flatnonzero(codes == 0), side="right")] = False
        live = np.flatnonzero(live)
        c = np.array(self.c, dtype=np.int64)
        at = ends[live] - 1
        state = np.stack([live, at, c[codes[at]], c[codes[at] + 1]])
        while True:
            i, at, b, e = state
            done = at == begins[i]
            ended = state[:, done]
            counts[ended[0]] = ended[3] - ended[2]  # 0 where the range is empty
            state = state[:, ~done & (b < e)]
            if state.shape[1] <= _SCALAR_TAIL:
                for i, a, lo, hi in state.T.tolist():
                    rest = reversed(codes[begins[i] : a].tolist())
                    found = self.blocks.narrow(rest, lo, hi, self.c)
                    counts[i] = found[1] - found[0] if found else 0
                return counts.tolist()
            state[1] -= 1
            x = codes[state[1]]
            state[2:] = rank()(np.concatenate([x, x]), state[2:].ravel()).reshape(2, -1) + c[x]

    @property
    def counter_width(self):
        """Bits per boundary counter; must reach n."""
        return self.n.bit_length()

    def size_report(self):
        payload, directories, codebooks = self.blocks.size_bits()
        return SizeReport(
            n=self.n,
            variant=self.variant.value,
            wavelet_payload=payload,
            rank_directories=directories,
            # row 0 is all zeros, so the model does not charge for it
            boundary_occ=(len(self.blocks) - 1) * self.sigma * self.counter_width,
            codebooks=codebooks,
            c_array=64 * (self.sigma + 1),
            remap=8 * (self.sigma - 1),
        )


def build_index(t, variant, block_size=None, rrr_block_size=15):
    """Index a Text under the chosen variant.

    block_size applies to the fixed_block variants only and defaults to
    default_block_size(n, sigma); passing it with an ssa variant is an error.
    The ssa variants use one block of n symbols. rrr_block_size applies to
    the *_rrr variants only, and must be in bitrank's RRR_BLOCK_SIZES: a
    plain index carries 0, as its file does, and this one number names its
    trees' vector.
    """
    variant = IndexVariant(variant)
    if variant.bitvector_backend == "plain":
        rrr_block_size = 0
    elif rrr_block_size not in RRR_BLOCK_SIZES:
        raise ValueError(f"rrr block size must be in {RRR_BLOCK_SIZES[0]}..{RRR_BLOCK_SIZES[-1]}")
    if variant.fixed:
        bs = default_block_size(t.n, t.sigma) if block_size is None else int(block_size)
        if bs < 1:
            raise ValueError("block size must be >= 1")
        if bs >= 1 << 64:
            raise ValueError("block size must be below 2^64")
    elif block_size is not None:
        raise ValueError("block size applies to the fixed_block variants only")
    else:
        bs = t.n
    started = time.perf_counter()
    sa = textcore.suffix_array(t)
    sorted_at = time.perf_counter()
    b = textcore.bwt(t, sa)
    del sa
    transformed_at = time.perf_counter()
    # t.sigma, not the BWT's largest code plus one: a Text may lack its top codes
    blocks = WaveletTree(b.l, "huffman", rrr_block_size, bs, t.sigma)
    index = BlockedFMIndex(variant, t.n, t.sigma, b.c, blocks, bs, t.byte_for_code, rrr_block_size)
    index.build_phases = {
        "suffix_array": sorted_at - started,
        "bwt": transformed_at - sorted_at,
        "trees": time.perf_counter() - transformed_at,
    }
    return index
