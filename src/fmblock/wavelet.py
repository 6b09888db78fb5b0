"""Wavelet trees over the local alphabet of the indexed sequence.

Two shapes share one implementation: balanced trees assign every local
symbol a fixed-width code of ceil(log2 sigma_local) bits, Huffman trees
assign shorter codes to frequent symbols. An internal node is a proper
prefix of some code and holds the next code bit of every element routed
through it. There is no trie and no object per node: the nodes' bits are
concatenated in preorder into one bitvector per tree (see bitrank), and
each symbol keeps one step per node on its path, so rank turns a position
in that vector into a position in the child node by node, with one rank1
per level. The plain trees of an index share one vector, each from its own
start (share_vector, read_trees). Code bit 0 goes left, 1 goes right,
reading codes from the most significant bit.

A tree owns the layout of its two index-file sections: the codebook (u16
alphabet size, a u16 symbol and u8 code length per symbol in ascending
order, then the code values as fields of those lengths) and the payload,
every node's stored bits (see bitrank) in preorder.
"""

import heapq
import struct

import numpy as np

from .bitio import pack_fields, unpack_fields
from .bitrank import check_stored, make_bitvector, plain_directory_bits, read_nodes, read_plain


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
    __slots__ = ("length", "bits", "start", "_paths")

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
        # every node's bits in one array, an RRR node from a fresh t-bit
        # block: at most t - 1 bits of padding for each of the nodes
        t = rrr_block_size if backend == "rrr" else 1
        code_bits = sum(freq[sym] * length for sym, (length, _) in codes.items())
        bits = np.zeros(code_bits + t * len(codes), dtype=np.uint8)
        at = [0, 0]  # where the next node starts, and the ones before it

        def split(seq, depth):
            shift = np.maximum(lens - depth - 1, 0)
            node = ((codebits >> shift) & 1).astype(np.uint8)[seq]
            start, base = at
            bits[start : start + len(node)] = node
            one = node.view(bool)
            at[0] = start + -(-len(node) // t) * t
            at[1] = base + int(np.count_nonzero(one))
            return start, base, seq[~one], seq[one]

        self._assemble(codes, x, split)
        self.bits = make_bitvector(bits[: at[0]], backend, rrr_block_size)

    @classmethod
    def from_payload(cls, codes, length, nodes):
        """Rebuild a tree whose code assignment is already known.

        nodes is a read_nodes reader over the tree's payload section; child
        lengths are the parent's counts of zeros and ones, so an RRR node
        decodes no block while the tree is rebuilt.
        """
        wt = cls.__new__(cls)
        wt.length = length

        def split(nbits, depth):
            start, base, ones = nodes.read(nbits)
            return start, base, nbits - ones, ones

        wt._assemble(codes, length, split)
        wt.bits = nodes.vector()
        return wt

    def _assemble(self, codes, root_item, split):
        """Lay out the nodes in preorder, then build every symbol's path.

        split(item, depth) lays out the node that receives `item` (the
        elements routed through it, or their number) and returns its start
        s in the tree's vector, the ones b before s, and the items of its 0
        and 1 children.

        rank follows a position p in the vector, which starts at r plus the
        root's s, the tree's start (0 for a tree with no node). At a node,
        the child's start plus the child's share of the node's p - s
        elements before p is rank1(p) + delta on bit 1 (delta = s1 - b) and
        p - rank1(p) + delta on bit 0 (delta = s0 - s + b), where b, like
        rank1, counts from the tree's start. A path is a tuple of
        (delta, bit, child start) steps, a leaf starting at 0, and the two
        steps of a node are shared by every path through it; paths[c] is
        symbol c's path, None for a symbol the tree does not hold.
        """
        internal = _internal_nodes(codes)
        items = {(0, 0): root_item}
        at = {}
        for depth, prefix in internal:
            start, base, zero, one = split(items.pop((depth, prefix)), depth)
            at[depth, prefix] = start, base
            items[depth + 1, prefix << 1] = zero
            items[depth + 1, prefix << 1 | 1] = one
        steps = {}
        for (depth, prefix), (start, base) in at.items():
            s0 = at.get((depth + 1, prefix << 1), (0,))[0]
            s1 = at.get((depth + 1, prefix << 1 | 1), (0,))[0]
            steps[depth, prefix] = ((s0 - start + base, 0, s0), (s1 - base, 1, s1))
        self.start = at.get((0, 0), (0,))[0]
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
        for delta, bit, child in path:
            p = bits.rank1(p) + delta if bit else p - bits.rank1(p) + delta
            if p == child:
                return 0
        return p

    def symbol_counts(self):
        """{symbol: occurrences}, the sizes of the leaves, with one rank1 per node."""
        counts = {}
        ones = {}  # (start, length) of a node -> its ones
        for sym, path in self._items():
            start, m = self.start, self.length
            for delta, bit, child in path:
                if (start, m) not in ones:
                    base = child - delta if bit else delta - child + start
                    ones[start, m] = self.bits.rank1(start + m) - base
                m = ones[start, m] if bit else m - ones[start, m]
                start = child
            counts[sym] = m
        return counts

    @property
    def codes(self):
        """{symbol: (code length, code)}, read off the bits of the symbol's path."""
        codes = {}
        for sym, path in self._items():
            code = 0
            for _, bit, _ in path:
                code = code << 1 | bit
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
        """Plain: the tree's bits, a slice of a vector that may hold other trees."""
        return self.code_length_bits if self.bits.backend == "plain" else self.bits.payload_bits

    @property
    def directory_bits(self):
        if self.bits.backend == "plain":
            return plain_directory_bits(self.payload_bits)
        return self.bits.directory_bits

    @property
    def codebook_bits(self):
        """16-bit alphabet size, then 16-bit symbol + 8-bit length + code bits each."""
        return 16 + sum(16 + 8 + len(path) for _, path in self._items())

    def codebook_section(self):
        by_symbol = self.codes
        syms = sorted(by_symbol)
        lengths, codes = zip(*(by_symbol[sym] for sym in syms))
        head = b"".join(struct.pack("<HB", sym, length) for sym, length in zip(syms, lengths))
        return struct.pack("<H", len(syms)) + head + pack_fields(codes, lengths)

    def payload_section(self):
        """Plain: the tree's bits. RRR: each node's class fields and offsets, copied as stored."""
        bv = self.bits
        if bv.backend == "plain":
            bits = bv.to_bits(self.start, self.start + self.payload_bits)
            return np.packbits(bits, bitorder="little").tobytes()
        # nodes lie in preorder, so each one ends where the next starts; the
        # root starts at 0, and a node of no bits shares its start with the
        # next and stores nothing
        starts = sorted({0} | {child for _, path in self._items() for _, _, child in path})
        bounds = [start // bv.t for start in starts] + [len(bv.block_classes())]
        return np.packbits(bv.stored_bits(bounds), bitorder="little").tobytes()

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
    """The trees of (codebook, payload) sections; ValueError or EOFError names a failed check.

    Plain trees share one vector, each from a fresh word (see read_plain).
    """
    payloads = [payload for _, payload in sections]
    if backend == "plain":
        readers = read_plain(payloads)
    else:
        # one at a time: an RRR reader holds its section unpacked to a byte per bit
        readers = (read_nodes(payload, backend, rrr_block_size) for payload in payloads)
    trees = []
    stored = []
    for (codebook, _), length, nodes in zip(sections, lengths, readers):
        wt = WaveletTree.from_payload(_parse_codebook(codebook, sigma), length, nodes)
        trees.append(wt)
        stored.append((wt.bits, nodes.ends))
    check_stored(stored)
    return trees


def share_vector(trees):
    """Plain trees built one by one, moved into one vector as read_trees lays them out.

    RRR trees are returned as they are.
    """
    if trees[0].bits.backend != "plain":
        return trees
    readers = read_plain([wt.payload_section() for wt in trees])
    return [WaveletTree.from_payload(wt.codes, wt.length, nodes) for wt, nodes in zip(trees, readers)]


def build_wt(x, shape="huffman", backend="plain", rrr_block_size=15):
    return WaveletTree(x, shape, backend, rrr_block_size)


def wt_rank(wt, c, r):
    return wt.rank(c, r)


def wt_size_in_bits(wt):
    return wt.size_in_bits()
