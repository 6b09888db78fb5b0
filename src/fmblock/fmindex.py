"""Backward-search count index over the BWT.

Every index splits the BWT into fixed-size blocks, builds one
Huffman-shaped wavelet tree per block over that block's own local alphabet,
and derives from the trees a row of absolute rank snapshots at every block
boundary. The ssa variants are the one-block case: the block size is n, so
there is one tree over the whole BWT and one all-zero boundary row. The
*_rrr variants swap the node bitvectors for the compressed representation.
Counting never touches the text: rank over the last column drives the
backward search.
"""

from dataclasses import dataclass
from enum import Enum

from . import textcore
from .wavelet import WaveletTree


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
    """sigma * ceil(log2 n)^2, clamped to [64, n]."""
    if n < 2:
        raise ValueError("text too short for an index")
    lg = (n - 1).bit_length()
    return min(n, max(64, sigma * lg * lg))


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


def _boundary_rows(blocks, sigma):
    """Row i: occurrences of every code in the blocks before block i."""
    rows = [[0] * sigma]
    for wt in blocks[:-1]:
        running = list(rows[-1])
        for sym in wt.codes:
            running[sym] += wt.rank(sym, wt.length)
        rows.append(running)
    return rows


class BlockedFMIndex:
    """Count-only FM-index; construct through build_index or storage.deserialize."""

    def __init__(
        self,
        variant,
        n,
        sigma,
        c,
        blocks,
        block_size,
        byte_for_code,
        rrr_block_size=15,
    ):
        self.variant = IndexVariant(variant)
        self.n = n
        self.sigma = sigma
        self.c = [int(x) for x in c]
        self.blocks = blocks
        self.boundary_occ = _boundary_rows(blocks, sigma)
        self.block_size = block_size
        self.byte_for_code = bytes(byte_for_code)
        self.rrr_block_size = rrr_block_size
        self.translate = textcore.code_translator(self.byte_for_code)

    def rank_l(self, c, j):
        """Occurrences of code c in the first j BWT symbols."""
        if not 0 <= j <= self.n:
            raise ValueError("rank position out of range")
        if j == 0 or not 0 <= c < self.sigma:
            return 0
        # the block of position j - 1, so that j = n needs no special case
        bi = (j - 1) // self.block_size
        return self.boundary_occ[bi][c] + self.blocks[bi].rank(c, j - bi * self.block_size)

    def count_codes(self, pattern):
        """Backward search over a code-space pattern."""
        sigma = self.sigma
        for code in pattern:
            if not 1 <= code < sigma:
                return 0
        b, e = 0, self.n
        c = self.c
        for code in reversed(pattern):
            base = c[code]
            b = base + self.rank_l(code, b)
            e = base + self.rank_l(code, e)
            if b >= e:
                return 0
        return e - b

    def count(self, pattern):
        """Occurrences of a byte pattern in the indexed text."""
        codes = self.translate(pattern)
        if codes is None:
            return 0
        return self.count_codes(codes)

    @property
    def counter_width(self):
        """Bits per boundary counter; must reach n."""
        return self.n.bit_length()

    def size_report(self):
        return SizeReport(
            n=self.n,
            variant=self.variant.value,
            wavelet_payload=sum(wt.payload_bits for wt in self.blocks),
            rank_directories=sum(wt.directory_bits for wt in self.blocks),
            # row 0 is all zeros, so the model does not charge for it
            boundary_occ=(len(self.blocks) - 1) * self.sigma * self.counter_width,
            codebooks=sum(wt.codebook_bits for wt in self.blocks),
            c_array=64 * (self.sigma + 1),
            remap=8 * (self.sigma - 1),
        )


def build_index(t, variant, block_size=None, rrr_block_size=15):
    """Index a Text under the chosen variant.

    block_size applies to the fixed_block variants only and defaults to
    default_block_size(n, sigma); passing it with an ssa variant is an error.
    The ssa variants use one block of n symbols.
    """
    variant = IndexVariant(variant)
    backend = variant.bitvector_backend
    if variant.fixed:
        bs = default_block_size(t.n, t.sigma) if block_size is None else int(block_size)
        if bs < 1:
            raise ValueError("block size must be >= 1")
    elif block_size is not None:
        raise ValueError("block size applies to the fixed_block variants only")
    else:
        bs = t.n
    b = textcore.bwt(t)
    blocks = [
        WaveletTree(b.l[s : s + bs], "huffman", backend, rrr_block_size)
        for s in range(0, t.n, bs)
    ]
    return BlockedFMIndex(
        variant,
        t.n,
        t.sigma,
        b.c,
        blocks,
        bs,
        t.byte_for_code,
        rrr_block_size,
    )


def rank_l(index, c, j):
    return index.rank_l(c, j)


def count(index, pattern):
    return index.count(pattern)


def index_size_report(index):
    return index.size_report()
