"""Wavelet trees over the local alphabet of the indexed sequence.

Two shapes share one implementation: balanced trees assign every local
symbol a fixed-width code of ceil(log2 sigma_local) bits, Huffman trees
assign shorter codes to frequent symbols. Either way a tree is its code
lengths: codes are assigned canonically from them (canonical_codes), so at
every depth the leaves hold the lowest prefixes and the internal nodes the
rest. An internal node is a proper prefix of some code and holds the next
code bit of every element routed through it. There is no trie and no
object per node: the nodes' bits are concatenated level by level, in
prefix order within a level, into one bitvector per tree (see bitrank),
and each node keeps one signed int per child, a step shared by every
symbol's path through the node: positive toward the 1-child, zero or
negative toward the 0-child. rank turns a position in that vector into a
position in the child, node by node, with one rank1 per level and no early
exit. Every leaf starts at the end of the tree's last node (`leaf`), past
every node's start, so a path ends at leaf plus the rank. Under either
backend the nodes are joined bit to bit, so a tree's bits run from its
start to its leaf. Code bit 0 goes left, 1 goes right, reading codes from
the most significant bit.

There is one layout path (_read): a node reader over the tree's vector
(see bitrank's read_nodes) takes the nodes in order, each sized by its
parent's zero or one count, and hands back the leaf sizes, the symbol
counts. A built tree encodes its nodes' bits and reads them back through
a reader over its own vector; a loaded one through a reader over the
index's. All the trees of an index share one vector, each from its own
start (read_trees): a fresh word for plain trees, a fresh sample for RRR
ones. An index's trees are built one by one, then moved into that vector
through the reader a load uses.

A tree owns the layout of its two index-file sections: the codebook (u16
alphabet size, then a u16 symbol and u8 code length per symbol in
ascending order, and no code bits) and the payload, its vector as stored
(see bitrank).
"""

import heapq
import struct

import numpy as np

from .bitrank import _Nodes, make_bitvector, read_sections


def canonical_codes(lengths):
    """{symbol: (length, code)} for {symbol: code length}, assigned in (length, symbol) order.

    Each code is the previous one plus one, shifted left by the step in
    length (DEFLATE's rule, RFC 1951 3.2.2). Under Kraft equality the codes
    are prefix-free, and at every depth the leaves take the lowest prefixes
    and the internal nodes the rest.
    """
    codes = {}
    code = prev = 0
    for length, sym in sorted((length, sym) for sym, length in lengths.items()):
        code <<= length - prev
        codes[sym] = (length, code)
        code += 1
        prev = length
    return codes


def balanced_codes(symbols, counts=None):
    """Fixed-width codes: the i-th smallest symbol gets code i."""
    width = (len(symbols) - 1).bit_length()
    return canonical_codes(dict.fromkeys(symbols, width))


def huffman_codes(symbols, counts):
    """Canonical codes of Huffman code lengths.

    Ties are broken deterministically: among equal weights the pending tree
    created earliest wins, and leaves are seeded in ascending symbol order.
    A merge adds one to the length of every symbol of the two merged trees.
    """
    symbols = sorted(symbols)
    lengths = dict.fromkeys(symbols, 0)
    heap = [(counts[sym], seq, [sym]) for seq, sym in enumerate(symbols)]
    heapq.heapify(heap)
    seq = len(symbols)
    while len(heap) > 1:
        fa, _, a = heapq.heappop(heap)
        fb, _, b = heapq.heappop(heap)
        for sym in a + b:
            lengths[sym] += 1
        heapq.heappush(heap, (fa + fb, seq, a + b))
        seq += 1
    return canonical_codes(lengths)


def _internal_nodes(codes):
    """(depth, prefix) of every internal node, the codes' proper prefixes, in layout order."""
    return sorted({(depth, code >> (length - depth))
                   for length, code in codes.values() for depth in range(length)})


def _node_bits(x, codes, freq):
    """The internal nodes' bits of sequence x under codes, joined in layout order (see _read).

    The node at (depth, prefix) holds code bit `depth` of every element
    routed through it, in sequence order; its 0 elements go on to
    (depth + 1, prefix << 1) and its 1 elements to (depth + 1, prefix << 1 | 1).
    freq holds each symbol's count.
    """
    lens = np.zeros(max(codes) + 1, dtype=np.int64)
    codebits = np.zeros_like(lens)
    for sym, (length, code) in codes.items():
        lens[sym] = length
        codebits[sym] = code
    # [depth, symbol]: the code bit that the symbol's node at that depth holds
    shifts = np.maximum(lens - 1 - np.arange(lens.max())[:, None], 0)
    bit_at = ((codebits >> shifts) & 1).astype(np.uint8)
    bits = np.empty(sum(freq[sym] * length for sym, (length, _) in codes.items()), dtype=np.uint8)
    seqs = {(0, 0): x}
    end = 0
    for depth, prefix in _internal_nodes(codes):
        seq = seqs.pop((depth, prefix))
        node = bits[end : end + len(seq)]
        node[:] = bit_at[depth][seq]
        end += len(seq)
        one = node.view(bool)
        seqs[depth + 1, prefix << 1] = seq[~one]
        seqs[depth + 1, prefix << 1 | 1] = seq[one]
    return bits


class WaveletTree:
    __slots__ = ("length", "bits", "start", "leaf", "_paths")

    def __init__(self, x, shape="huffman", backend="plain", rrr_block_size=15):
        x = np.asarray(x)
        if len(x) == 0:
            raise ValueError("empty sequence")
        if shape not in ("balanced", "huffman"):
            raise ValueError(f"unknown tree shape: {shape!r}")
        syms, counts = np.unique(x, return_counts=True)
        if int(syms[0]) < 0:
            raise ValueError("symbols must be non-negative")
        x = x.astype(np.min_scalar_type(int(syms[-1])), copy=False)
        freq = {int(s): int(c) for s, c in zip(syms, counts)}
        make = balanced_codes if shape == "balanced" else huffman_codes
        codes = make(freq.keys(), freq)
        vector = make_bitvector(_node_bits(x, codes, freq), backend, rrr_block_size)
        self._read(codes, len(x), _Nodes(vector, 0, vector.m, 0), {})

    def _read(self, codes, length, nodes, ints):
        """Lay out the tree's nodes from a node reader, then build every symbol's path.

        nodes is a read_nodes reader over the tree's vector, whether a load
        parsed it or __init__ built it. The internal nodes are the codes'
        proper prefixes, read by depth and then prefix; a node's size is its
        parent's count of zeros or ones, from the one rank1 the reader makes
        at the parent's end, so an RRR node decodes at most one block. ints,
        a dict shared by the trees of one index, makes their equal steps one
        int object. Raises ValueError on a node of no bits, which a tree
        built from a sequence never has: the codebook then lists symbols the
        block does not hold.

        rank follows a position p in the vector, which starts at r plus the
        root's start s, the tree's start (0 for a tree with no node). Every
        leaf starts at the end of the last node, the tree's `leaf`, past
        every node's start. At a node with b ones before s, the child's
        start plus the child's share of the node's p - s elements before p
        is rank1(p) + step on bit 1 (step = s1 - b > 0) and p - rank1(p) -
        step on bit 0 (step = -(s0 - s + b) <= 0), where b, like rank1,
        counts from the tree's start. A path is a tuple of steps, and the two
        steps of a node are shared by every path through it, and through
        ints by every tree that has a step of the same value (trees of one
        block size repeat many); paths[c] is symbol c's path, None for a
        symbol the tree does not hold. A path ends at p = leaf plus the rank.

        Returns the leaf sizes {symbol: count}.
        """
        self.length = length
        sizes = {(0, 0): length}
        at = {}
        leaf = 0  # the end of the node read last
        for depth, prefix in _internal_nodes(codes):
            m = sizes.pop((depth, prefix))
            if not m:
                raise ValueError("empty node")
            start, base, ones = nodes.read(m)
            at[depth, prefix] = start, base
            sizes[depth + 1, prefix << 1] = m - ones
            sizes[depth + 1, prefix << 1 | 1] = ones
            leaf = start + m
        steps = {}
        for (depth, prefix), (start, base) in at.items():
            s0 = at.get((depth + 1, prefix << 1), (leaf,))[0]
            s1 = at.get((depth + 1, prefix << 1 | 1), (leaf,))[0]
            zero, one = start - base - s0, s1 - base
            steps[depth, prefix] = (ints.setdefault(zero, zero), ints.setdefault(one, one))
        self.bits = nodes.vector()
        self.start = at.get((0, 0), (0,))[0]
        self.leaf = leaf
        self._paths = [None] * (max(codes) + 1)
        for sym, (length, code) in codes.items():
            self._paths[sym] = tuple(
                steps[depth, code >> (length - depth)][(code >> (length - 1 - depth)) & 1]
                for depth in range(length)
            )
        return {sym: sizes[length, code] for sym, (length, code) in codes.items()}

    def rank(self, c, r):
        """Occurrences of symbol c among the first r elements."""
        if not 0 <= r <= self.length:
            raise ValueError("rank position out of range")
        paths = self._paths
        path = paths[c] if 0 <= c < len(paths) else None
        if path is None:
            return 0
        # bits.rank1 per level: binding it once per call measured 6-13% slower
        bits = self.bits
        p = r + self.start
        for step in path:
            p = bits.rank1(p) + step if step > 0 else p - bits.rank1(p) - step
        return p - self.leaf

    @property
    def codes(self):
        """{symbol: (code length, code)}, read off the signs of the symbol's path."""
        codes = {}
        for sym, path in self._items():
            code = 0
            for step in path:
                code = code << 1 | (step > 0)
            codes[sym] = (len(path), code)
        return codes

    @property
    def code_length_bits(self):
        """Total code length over the sequence: the nodes' bits, joined from the tree's start to its leaf."""
        return self.leaf - self.start

    def _items(self):
        """(symbol, path) for every symbol of the tree, in ascending order."""
        return [(sym, path) for sym, path in enumerate(self._paths) if path is not None]

    @property
    def payload_bits(self):
        """The bits of the tree's payload section: those from its start to its leaf, as stored."""
        return self.bits.tree_size(self.start, self.leaf)[0]

    @property
    def directory_bits(self):
        """The rank directory or samples of the tree's bits in its vector."""
        return self.bits.tree_size(self.start, self.leaf)[1]

    @property
    def codebook_bits(self):
        """16-bit alphabet size, then a 16-bit symbol and an 8-bit code length each."""
        return 16 + 24 * len(self._items())

    def codebook_section(self):
        items = self._items()
        entries = b"".join(struct.pack("<HB", sym, len(path)) for sym, path in items)
        return struct.pack("<H", len(items)) + entries

    def payload_section(self):
        """The tree's bits as its vector stores them: plain, the bits; RRR, m, class fields, offsets."""
        bits = self.bits.stored_bits(self.start, self.leaf)
        return np.packbits(bits, bitorder="little").tobytes()

    def size_in_bits(self):
        return self.payload_bits + self.directory_bits + self.codebook_bits


def _parse_codebook(body, sigma):
    """The canonical codes of a codebook section over symbols below sigma.

    The code lengths must meet Kraft's inequality with equality, as those of
    a Huffman tree do: a single symbol has length 0, and otherwise every
    internal node has two children.
    """
    if len(body) < 2:
        raise ValueError("codebook header")
    (sigma_local,) = struct.unpack_from("<H", body, 0)
    if sigma_local < 1:
        raise ValueError("codebook alphabet size")
    if len(body) < 2 + 3 * sigma_local:
        raise ValueError("codebook entries")
    if len(body) > 2 + 3 * sigma_local:
        raise ValueError("codebook length")
    entries = list(struct.iter_unpack("<HB", body[2:]))
    syms = [sym for sym, _ in entries]
    if syms != sorted(set(syms)) or syms[-1] >= sigma:
        raise ValueError("codebook symbols")
    lengths = dict(entries)
    if max(lengths.values()) > 64 or sum(1 << (64 - ln) for ln in lengths.values()) != 1 << 64:
        raise ValueError("codebook code lengths")
    return canonical_codes(lengths)


def read_trees(sections, lengths, sigma, backend, rrr_block_size):
    """The trees of (codebook, payload) sections, and their symbol counts, sigma per tree in turn.

    The trees share one vector, whose sections are all parsed, and an RRR
    one's fields checked, before any tree is read (see read_plain and
    read_rrr). A symbol's count is the size of its leaf, from the zero or
    one count of the last node on its path. ValueError or EOFError names a
    failed check.
    """
    readers = read_sections([payload for _, payload in sections], backend, rrr_block_size)
    ints = {}
    trees, counts = [], [0] * (len(sections) * sigma)
    for i, ((codebook, _), length, nodes) in enumerate(zip(sections, lengths, readers)):
        wt = WaveletTree.__new__(WaveletTree)
        for sym, size in wt._read(_parse_codebook(codebook, sigma), length, nodes, ints).items():
            counts[i * sigma + sym] = size
        trees.append(wt)
    return trees, counts


def build_wt(x, shape="huffman", backend="plain", rrr_block_size=15):
    return WaveletTree(x, shape, backend, rrr_block_size)
