"""Wavelet trees over the local alphabet of the indexed sequence.

Two shapes share one implementation: balanced trees assign every local
symbol a fixed-width code of ceil(log2 sigma_local) bits, Huffman trees
assign shorter codes to frequent symbols. An internal node is a proper
prefix of some code and stores one bitvector with the next code bit of
every element routed through it. There is no trie: the nodes are kept as a
flat list in preorder, and each symbol keeps the bitvectors on its path, so
rank turns a position into a position inside the child node by node. Code
bit 0 goes left, 1 goes right, reading codes from the most significant bit.

A tree owns the layout of its two index-file sections: the codebook (u16
alphabet size, a u16 symbol and u8 code length per symbol in ascending
order, then the code values as fields of those lengths) and the payload,
every node's stored bits (see bitrank) in preorder.
"""

import heapq
import struct

import numpy as np

from .bitio import pack_fields, unpack_fields
from .bitrank import check_stored, make_bitvector, read_bitvector


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


def _internal_nodes(codes):
    """The proper prefixes (depth, prefix) of the codes, in preorder.

    Raises ValueError unless the codes are prefix-free: no two symbols may
    share a code, and no code may equal a proper prefix of another.
    """
    error = "codebook (codes are not prefix-free)"
    if len(set(codes.values())) != len(codes):
        raise ValueError(error)
    prefixes = {
        (depth, code >> (length - depth))
        for length, code in codes.values()
        for depth in range(length)
    }
    if not prefixes.isdisjoint(codes.values()):
        raise ValueError(error)
    maxlen = max(length for length, _ in codes.values())
    # padding a prefix to maxlen bits orders subtrees left to right; depth puts parents first
    return sorted(prefixes, key=lambda node: (node[1] << (maxlen - node[0]), node[0]))


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
        lens = np.zeros(int(syms[-1]) + 1, dtype=np.int64)
        codebits = np.zeros(int(syms[-1]) + 1, dtype=np.int64)
        for sym, (length, code) in codes.items():
            lens[sym] = length
            codebits[sym] = code

        def split(seq, depth):
            bits = (codebits[seq] >> (lens[seq] - depth - 1)) & 1
            bv = make_bitvector(bits, backend, rrr_block_size)
            return bv, seq[bits == 0], seq[bits == 1]

        self._assemble(codes, x, split)

    @classmethod
    def from_codebook(cls, codes, length, node_reader):
        """Rebuild a tree whose code assignment is already known.

        node_reader(nbits) must return a bitvector for the next node in
        preorder; child lengths are the parent's counts of zeros and ones
        (bv.ones), so an RRR node decodes no block while the tree is rebuilt.
        """
        wt = cls.__new__(cls)
        wt.length = length

        def split(nbits, depth):
            bv = node_reader(nbits)
            return bv, nbits - bv.ones, bv.ones

        wt._assemble(dict(codes), length, split)
        return wt

    def _assemble(self, codes, root_item, split):
        """Build the nodes in preorder, then every symbol's path.

        split(item, depth) builds the node that receives `item` (the
        elements routed through it, or their number) and returns the
        bitvector with the items of its 0 and 1 children. A path is a tuple
        of (bitvector, bit) steps, and the two steps of a node are shared by
        every path through it.
        """
        internal = _internal_nodes(codes)
        items = {(0, 0): root_item}
        steps = {}
        for depth, prefix in internal:
            bv, zero, one = split(items.pop((depth, prefix)), depth)
            steps[depth, prefix] = ((bv, 0), (bv, 1))
            items[depth + 1, prefix << 1] = zero
            items[depth + 1, prefix << 1 | 1] = one
        self.codes = codes
        self.nodes = [steps[node][0][0] for node in internal]
        self._paths = {
            sym: tuple(
                steps[depth, code >> (length - depth)][(code >> (length - 1 - depth)) & 1]
                for depth in range(length)
            )
            for sym, (length, code) in codes.items()
        }

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

    def symbol_count(self, c):
        """Occurrences of c, one of the tree's symbols: the size of its leaf."""
        if not self._paths[c]:
            return self.length
        bv, bit = self._paths[c][-1]
        return bv.ones if bit else bv.m - bv.ones

    @property
    def local_alphabet(self):
        return sorted(self.codes)

    @property
    def code_length_bits(self):
        """Total code length over the sequence; equals the sum of node lengths."""
        return sum(bv.m for bv in self.nodes)

    @property
    def payload_bits(self):
        return sum(bv.payload_bits for bv in self.nodes)

    @property
    def directory_bits(self):
        return sum(bv.directory_bits for bv in self.nodes)

    @property
    def codebook_bits(self):
        """16-bit alphabet size, then 16-bit symbol + 8-bit length + code bits each."""
        return 16 + sum(16 + 8 + length for length, _ in self.codes.values())

    def codebook_section(self):
        syms = sorted(self.codes)
        lengths, codes = zip(*(self.codes[sym] for sym in syms))
        head = b"".join(struct.pack("<HB", sym, length) for sym, length in zip(syms, lengths))
        return struct.pack("<H", len(syms)) + head + pack_fields(codes, lengths)

    def payload_section(self):
        """RRR offsets are copied as stored, not decoded."""
        bits = [bv.stored_bits() for bv in self.nodes]
        return np.packbits(np.concatenate(bits), bitorder="little").tobytes() if bits else b""

    def size_in_bits(self):
        return self.payload_bits + self.directory_bits + self.codebook_bits


def _parse_codebook(body, sigma):
    """The codes of a codebook section over symbols below sigma."""
    if len(body) < 2:
        raise ValueError("codebook header")
    (sigma_local,) = struct.unpack_from("<H", body, 0)
    if sigma_local < 1:
        raise ValueError("codebook alphabet size")
    head_len = 2 + 3 * sigma_local
    if len(body) < head_len:
        raise ValueError("codebook entries")
    entries = list(struct.iter_unpack("<HB", body[2:head_len]))
    prev = -1
    for sym, length in entries:
        if sym <= prev or sym >= sigma:
            raise ValueError("codebook symbols")
        if (length == 0) != (sigma_local == 1) or length > 64:
            raise ValueError("codebook code lengths")
        prev = sym
    lengths = [length for _, length in entries]
    try:
        values = unpack_fields(body, 8 * head_len, lengths)
    except EOFError:
        raise EOFError("codebook bits") from None
    if len(body) - head_len - (sum(lengths) + 7) // 8 > 0:
        raise ValueError("codebook length")
    return {sym: (length, code) for (sym, length), code in zip(entries, values.tolist())}


def read_trees(sections, lengths, sigma, backend, rrr_block_size):
    """The trees of (codebook, payload) sections; ValueError or EOFError names a failed check."""
    trees = []
    for (codebook, payload), length in zip(sections, lengths):
        pos = 0

        def node_reader(nbits):
            nonlocal pos
            bv, pos = read_bitvector(payload, pos, nbits, backend, rrr_block_size)
            return bv

        codes = _parse_codebook(codebook, sigma)
        trees.append(WaveletTree.from_codebook(codes, length, node_reader))
        if len(payload) - (pos + 7) // 8 > 0:
            raise ValueError("payload length")
    check_stored([bv for wt in trees for bv in wt.nodes])
    return trees


def build_wt(x, shape="huffman", backend="plain", rrr_block_size=15):
    return WaveletTree(x, shape, backend, rrr_block_size)


def wt_rank(wt, c, r):
    return wt.rank(c, r)


def wt_size_in_bits(wt):
    return wt.size_in_bits()
