"""Wavelet trees over the local alphabet of the indexed sequence.

Two shapes share one implementation: balanced trees assign every local
symbol a fixed-width code of ceil(log2 sigma_local) bits, Huffman trees
assign shorter codes to frequent symbols. A node stores one bitvector with
the current code bit of every element routed through it; rank descends the
tree turning a position into a position inside the child. Code bit 0 goes
left, 1 goes right, reading codes from the most significant bit.
"""

import heapq

import numpy as np

from .bitrank import make_bitvector


def balanced_codes(symbols, counts=None):
    """Fixed-width codes: the i-th smallest symbol gets code i."""
    symbols = sorted(symbols)
    width = max(1, (len(symbols) - 1).bit_length()) if len(symbols) > 1 else 0
    return {sym: (width, i) for i, sym in enumerate(symbols)}


def huffman_codes(symbols, counts):
    """Canonical-order Huffman codes.

    Ties are broken deterministically: among equal weights the pending tree
    created earliest wins, and leaves are seeded in ascending symbol order.
    The first of the two merged trees becomes the left (bit 0) child.
    """
    symbols = sorted(symbols)
    if len(symbols) == 1:
        return {symbols[0]: (0, 0)}
    heap = [(counts[sym], seq, sym) for seq, sym in enumerate(symbols)]
    heapq.heapify(heap)
    children = {}
    next_seq = len(symbols)
    while len(heap) > 1:
        fa, sa, a = heapq.heappop(heap)
        fb, sb, b = heapq.heappop(heap)
        merged = -len(children) - 1  # negative ids cannot collide with symbols
        children[merged] = (a, b)
        heapq.heappush(heap, (fa + fb, next_seq, merged))
        next_seq += 1
    codes = {}
    stack = [(heap[0][2], 0, 0)]
    while stack:
        node, length, code = stack.pop()
        if node in children:
            left, right = children[node]
            stack.append((left, length + 1, code << 1))
            stack.append((right, length + 1, (code << 1) | 1))
        else:
            codes[node] = (length, code)
    return codes


class _Node:
    __slots__ = ("bv", "zero", "one")

    def __init__(self, bv):
        self.bv = bv
        self.zero = None
        self.one = None


def _build_trie(codes):
    """Skeleton of internal nodes implied by the codes; leaves stay implicit."""
    root = _Node(None)
    for sym in sorted(codes):
        length, code = codes[sym]
        node = root
        for d in range(length):
            bit = (code >> (length - 1 - d)) & 1
            child = node.one if bit else node.zero
            if child is None:
                child = _Node(None)
                if bit:
                    node.one = child
                else:
                    node.zero = child
            node = child
        if node.zero is not None or node.one is not None:
            raise ValueError("codes are not prefix-free")
    return root


class WaveletTree:
    def __init__(self, x, shape="huffman", backend="plain", rrr_block_size=15):
        x = np.asarray(x, dtype=np.int64)
        if len(x) == 0:
            raise ValueError("empty sequence")
        if shape not in ("balanced", "huffman"):
            raise ValueError(f"unknown tree shape: {shape!r}")
        syms, counts = np.unique(x, return_counts=True)
        if int(syms[0]) < 0:
            raise ValueError("symbols must be non-negative")
        freq = {int(s): int(c) for s, c in zip(syms, counts)}
        make = balanced_codes if shape == "balanced" else huffman_codes
        codes = make(freq.keys(), freq)
        self.length = len(x)
        self.shape = shape
        self.backend = backend
        self.rrr_block_size = rrr_block_size
        self.codes = codes
        self._lens = np.zeros(int(syms[-1]) + 1, dtype=np.int64)
        self._codebits = np.zeros(int(syms[-1]) + 1, dtype=np.int64)
        for sym, (length, code) in codes.items():
            self._lens[sym] = length
            self._codebits[sym] = code
        self._root = _build_trie(codes)
        self._fill(self._root, x, 0)
        self._finish()

    def _fill(self, node, seq, depth):
        if node.zero is None and node.one is None:
            return
        bits = (self._codebits[seq] >> (self._lens[seq] - depth - 1)) & 1
        node.bv = make_bitvector(bits, self.backend, self.rrr_block_size)
        if node.zero is not None:
            self._fill(node.zero, seq[bits == 0], depth + 1)
        if node.one is not None:
            self._fill(node.one, seq[bits == 1], depth + 1)

    def _finish(self):
        """Precompute per-symbol root-to-leaf paths and the preorder node list."""
        self._paths = {}
        for sym, (length, code) in self.codes.items():
            path = []
            node = self._root
            for d in range(length):
                bit = (code >> (length - 1 - d)) & 1
                path.append((node.bv, bit))
                node = node.one if bit else node.zero
            self._paths[sym] = path
        self.nodes = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.bv is None:
                continue
            self.nodes.append(node)
            if node.one is not None:
                stack.append(node.one)
            if node.zero is not None:
                stack.append(node.zero)

    @classmethod
    def from_codebook(cls, codes, length, shape, backend, rrr_block_size, node_reader):
        """Rebuild a tree whose code assignment is already known.

        node_reader(nbits) must return a bitvector for the next node in
        preorder; child lengths are the parent's counts of zeros and ones
        (bv.ones), so an RRR node decodes no block while the tree is rebuilt.
        """
        wt = cls.__new__(cls)
        wt.length = length
        wt.shape = shape
        wt.backend = backend
        wt.rrr_block_size = rrr_block_size
        wt.codes = dict(codes)
        wt._root = _build_trie(wt.codes)

        def descend(node, nbits):
            if node.zero is None and node.one is None:
                return
            node.bv = node_reader(nbits)
            ones = node.bv.ones
            if node.zero is not None:
                descend(node.zero, nbits - ones)
            if node.one is not None:
                descend(node.one, ones)

        descend(wt._root, length)
        wt._finish()
        return wt

    def rank(self, c, r):
        """Occurrences of symbol c among the first r elements."""
        if not 0 <= r <= self.length:
            raise ValueError("rank position out of range")
        path = self._paths.get(c)
        if path is None:
            return 0
        q = r
        for bv, bit in path:
            q = bv.rank1(q) if bit else q - bv.rank1(q)
            if q == 0:
                return 0
        return q

    def access(self, i):
        """Symbol at position i, decoded by walking the tree."""
        if not 0 <= i < self.length:
            raise ValueError("position out of range")
        node = self._root
        length, code = 0, 0
        while node.zero is not None or node.one is not None:
            bit = node.bv.bit(i)
            r = node.bv.rank1(i)
            i = r if bit else i - r
            code = (code << 1) | bit
            length += 1
            node = node.one if bit else node.zero
        for sym, lc in self.codes.items():
            if lc == (length, code):
                return sym
        raise ValueError("decoded a code with no symbol")

    @property
    def local_alphabet(self):
        return sorted(self.codes)

    @property
    def code_length_bits(self):
        """Total code length over the sequence; equals the sum of node lengths."""
        return sum(node.bv.m for node in self.nodes)

    @property
    def payload_bits(self):
        return sum(node.bv.payload_bits for node in self.nodes)

    @property
    def directory_bits(self):
        return sum(node.bv.directory_bits for node in self.nodes)

    @property
    def codebook_bits(self):
        """16-bit alphabet size, then 16-bit symbol + 8-bit length + code bits each."""
        return 16 + sum(16 + 8 + length for length, _ in self.codes.values())

    def size_in_bits(self):
        return self.payload_bits + self.directory_bits + self.codebook_bits


def build_wt(x, shape="huffman", backend="plain", rrr_block_size=15):
    return WaveletTree(x, shape, backend, rrr_block_size)


def wt_rank(wt, c, r):
    return wt.rank(c, r)


def wt_size_in_bits(wt):
    return wt.size_in_bits()
