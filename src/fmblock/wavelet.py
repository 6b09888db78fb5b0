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
start to its leaf. The plain trees of an index share one vector, each from
its own start (share_vector, read_trees); an RRR tree has its own, from 0.
Code bit 0 goes left, 1 goes right, reading codes from the most
significant bit.

A tree owns the layout of its two index-file sections: the codebook (u16
alphabet size, then a u16 symbol and u8 code length per symbol in
ascending order, and no code bits) and the payload, its vector as stored
(see bitrank).
"""

import heapq
import struct

import numpy as np

from .bitrank import make_bitvector, plain_directory_bits, read_plain, read_rrr


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
        self.length = len(x)
        lens = np.zeros(int(syms[-1]) + 1, dtype=np.int64)
        codebits = np.zeros(int(syms[-1]) + 1, dtype=np.int64)
        for sym, (length, code) in codes.items():
            lens[sym] = length
            codebits[sym] = code
        # every node's bits in one array, joined bit to bit
        bits = np.zeros(sum(freq[sym] * length for sym, (length, _) in codes.items()), dtype=np.uint8)
        at = [0, 0]  # where the next node starts, and the ones before it

        def split(seq, depth):
            shift = np.maximum(lens - depth - 1, 0)
            node = ((codebits >> shift) & 1).astype(np.uint8)[seq]
            start, base = at
            bits[start : start + len(node)] = node
            one = node.view(bool)
            at[0] = start + len(node)
            at[1] = base + int(np.count_nonzero(one))
            return start, at[0], base, seq[~one], seq[one]

        self._assemble(codes, x, split, {})
        self.bits = make_bitvector(bits, backend, rrr_block_size)

    @classmethod
    def from_payload(cls, codes, length, nodes, ints=None):
        """Rebuild a tree whose code assignment is already known.

        nodes is a read_nodes reader over the tree's payload section; child
        lengths are the parent's counts of zeros and ones, from one rank1 at
        the parent's end, so an RRR node decodes at most one block while the
        tree is rebuilt. ints, a dict shared by the trees of one index,
        makes their equal steps one int object.
        Raises ValueError on a node of no bits, which a tree built from a
        sequence never has: the codebook then lists symbols the block does
        not hold.
        """
        wt = cls.__new__(cls)
        wt.length = length

        def split(nbits, depth):
            if not nbits:
                raise ValueError("empty node")
            start, base, ones = nodes.read(nbits)
            return start, start + nbits, base, nbits - ones, ones

        wt._assemble(codes, length, split, {} if ints is None else ints)
        wt.bits = nodes.vector()
        return wt

    def _assemble(self, codes, root_item, split, ints):
        """Lay out the nodes level by level, then build every symbol's path.

        split(item, depth) lays out the node that receives `item` (the
        elements routed through it, or their number), which must hold at
        least one element, and returns its start s and end in the tree's
        vector, the ones b before s, and the items of its 0 and 1 children.

        rank follows a position p in the vector, which starts at r plus the
        root's s, the tree's start (0 for a tree with no node). Every leaf
        starts at the end of the last node, the tree's `leaf`, past every
        node's start. At a node, the child's start plus the child's share of
        the node's p - s elements before p is rank1(p) + step on bit 1
        (step = s1 - b > 0) and p - rank1(p) - step on bit 0 (step =
        -(s0 - s + b) <= 0), where b, like rank1, counts from the tree's
        start. A path is a tuple of steps, and the two steps of a node are
        shared by every path through it, and through ints by every tree that
        has a step of the same value (trees of one block size repeat many);
        paths[c] is symbol c's path, None for a symbol the tree does not
        hold. A path ends at p = leaf plus the rank.
        """
        # the internal nodes are the codes' proper prefixes, laid out by depth and then prefix
        internal = {(depth, code >> (length - depth)) for length, code in codes.values()
                    for depth in range(length)}
        items = {(0, 0): root_item}
        at = {}
        leaf = 0  # the end of the node laid out last
        for depth, prefix in sorted(internal):
            start, leaf, base, zero, one = split(items.pop((depth, prefix)), depth)
            at[depth, prefix] = start, base
            items[depth + 1, prefix << 1] = zero
            items[depth + 1, prefix << 1 | 1] = one
        steps = {}
        for (depth, prefix), (start, base) in at.items():
            s0 = at.get((depth + 1, prefix << 1), (leaf,))[0]
            s1 = at.get((depth + 1, prefix << 1 | 1), (leaf,))[0]
            zero, one = start - base - s0, s1 - base
            steps[depth, prefix] = (ints.setdefault(zero, zero), ints.setdefault(one, one))
        self.start = at.get((0, 0), (0,))[0]
        self.leaf = leaf
        self._paths = [None] * (max(codes) + 1)
        for sym, (length, code) in codes.items():
            self._paths[sym] = tuple(
                steps[depth, code >> (length - depth)][(code >> (length - 1 - depth)) & 1]
                for depth in range(length)
            )

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

    def symbol_counts(self):
        """{symbol: occurrences}, the sizes of the leaves.

        Follows every path, with two rank1 calls the first time it reaches a node.
        """
        rank1 = self.bits.rank1
        nodes = {}
        counts = {}
        for sym, path in self._items():
            s, m = self.start, self.length
            for step in path:
                if s not in nodes:
                    b = rank1(s)
                    nodes[s] = b, rank1(s + m) - b
                b, ones = nodes[s]
                s, m = (step + b, ones) if step > 0 else (s - b - step, m - ones)
            counts[sym] = m
        return counts

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
    def local_alphabet(self):
        return [sym for sym, _ in self._items()]

    @property
    def code_length_bits(self):
        """Total code length over the sequence; equals the sum of node lengths."""
        counts = self.symbol_counts()
        return sum(counts[sym] * len(path) for sym, path in self._items())

    def _items(self):
        """(symbol, path) for every symbol of the tree, in ascending order."""
        return [(sym, path) for sym, path in enumerate(self._paths) if path is not None]

    @property
    def payload_bits(self):
        """Plain: the tree's bits, from its start to the end of its last node, in a shared vector."""
        return self.leaf - self.start if self.bits.backend == "plain" else self.bits.payload_bits

    @property
    def directory_bits(self):
        if self.bits.backend == "plain":
            return plain_directory_bits(self.payload_bits)
        return self.bits.directory_bits

    @property
    def codebook_bits(self):
        """16-bit alphabet size, then a 16-bit symbol and an 8-bit code length each."""
        return 16 + 24 * len(self._items())

    def codebook_section(self):
        items = self._items()
        entries = b"".join(struct.pack("<HB", sym, len(path)) for sym, path in items)
        return struct.pack("<H", len(items)) + entries

    def payload_section(self):
        """The tree's vector as stored: plain, its bits; RRR, its class fields, then its offsets."""
        bv = self.bits
        bits = bv.to_bits(self.start, self.leaf) if bv.backend == "plain" else bv.stored_bits()
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
    """The trees of (codebook, payload) sections; ValueError or EOFError names a failed check.

    Plain trees share one vector, each from a fresh word (see read_plain);
    every RRR section is parsed and checked before any tree is read (see
    read_rrr).
    """
    payloads = [payload for _, payload in sections]
    readers = read_plain(payloads) if backend == "plain" else read_rrr(payloads, rrr_block_size)
    ints = {}
    return [
        WaveletTree.from_payload(_parse_codebook(codebook, sigma), length, nodes, ints)
        for (codebook, _), length, nodes in zip(sections, lengths, readers)
    ]


def share_vector(trees):
    """Plain trees built one by one, moved into one vector as read_trees lays them out.

    RRR trees are returned as they are.
    """
    if trees[0].bits.backend != "plain":
        return trees
    readers = read_plain([wt.payload_section() for wt in trees])
    ints = {}
    return [WaveletTree.from_payload(wt.codes, wt.length, nodes, ints) for wt, nodes in zip(trees, readers)]


def build_wt(x, shape="huffman", backend="plain", rrr_block_size=15):
    return WaveletTree(x, shape, backend, rrr_block_size)


def wt_rank(wt, c, r):
    return wt.rank(c, r)


def wt_size_in_bits(wt):
    return wt.size_in_bits()
