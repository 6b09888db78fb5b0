"""Wavelet trees over the local alphabet of the indexed sequence.

Two shapes share one implementation: balanced trees assign every local
symbol a fixed-width code of ceil(log2 sigma_local) bits, Huffman trees
assign shorter codes to frequent symbols. Either way a tree is its code
lengths: codes are assigned canonically from them (canonical_codes), so at
every depth the leaves hold the lowest prefixes and the internal nodes one
range above them. An internal node is a proper prefix of some code and
holds the next code bit of every element routed through it. There is no
trie and no object per node: the nodes' bits are concatenated level by
level, in prefix order within a level, into one bitvector (see bitrank).
Each node has one signed step per child, positive toward the 1-child, zero
or negative toward the 0-child, and a symbol's path is the steps of its
code. rank turns a position in the vector into a position in the child,
node by node, with one rank1 per level. Every leaf starts at the end of
the tree's last node (`leaf`), past every node's start, so a path ends at
leaf plus the rank. Under either backend the nodes are joined bit to bit,
so a tree's bits run from its start to its leaf. Code bit 0 goes left, 1
goes right, reading codes from the most significant bit.

All the trees of an index share one vector, each from its own start: a
fresh word for plain trees, a fresh sample for RRR ones. They also share
one set of flat path tables (Trees): one entry per (tree, symbol), one
array of every path's steps, and each tree's start, leaf and length, with
no Python object per tree, path or step. A WaveletTree is a view of one
tree's rows. A load runs no Python loop over trees or nodes: it parses
every tree's codebook section in one pass, with every tree's canonical
codes computed at once (_parse_codebooks), and there is one layout path
(_read): it reads every tree's nodes at once, one depth at a time, from
the vector and each tree's first bit and limit in it (see bitrank's
read_sections), each node sized by its parent's zero or one count, the
ends of a depth's nodes ranked in one call of the vector's rank1_many, and
hands back the leaf sizes, the symbol counts. A built tree lays out its
nodes' bits in the order _read reads them, level by level and each level
in prefix order, with one FIFO queue from the root (_node_bits), into a
vector of its own, and reads them back through the same path, as a
one-tree index, when its steps are first used; an index's trees are built
one by one, then moved into one vector as a load reads them (read_trees).

Trees.narrow takes one backward search's steps over the trees, one rank1
call per level. Trees.batch_rank ranks many (tree, symbol, position)
triples at once over views of the same tables, one level per round, each
round one call of the vector's batch rank1.

A tree owns the layout of its two index-file sections: the codebook (u16
alphabet size, then a u16 symbol and u8 code length per symbol in
ascending order, and no code bits) and the payload, its vector as stored
(see bitrank).
"""

import heapq
import struct
from array import array
from collections import deque

import numpy as np

from .bitrank import make_bitvector, read_sections


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


def _node_bits(x, counts, lens, codes):
    """The internal nodes' bits of sequence x, joined in layout order (see _read).

    counts, lens and codes hold each symbol's count, code length and code.
    A node holds code bit `depth` of every element routed through it, in
    sequence order. A FIFO queue from the root visits the nodes level by
    level, each level in prefix order, which is the order _read reads them
    in: a node's 0-elements, then its 1-elements, join the back of the
    queue as its children. A child with no elements (the missing 1-child
    of an incomplete balanced tree) and a leaf (its elements' codes end at
    its depth) hold no bits.
    """
    # [depth, symbol]: the code bit that the symbol's node at that depth holds
    shifts = np.maximum(lens - 1 - np.arange(lens.max())[:, None], 0)
    bit_at = ((codes >> shifts) & 1).astype(np.uint8)
    bits = np.empty(int(counts @ lens), dtype=np.uint8)
    queue = deque([(0, x)])
    end = 0
    while queue:
        depth, seq = queue.popleft()
        if not len(seq) or lens[seq[0]] == depth:
            continue
        node = bits[end : end + len(seq)]
        node[:] = bit_at[depth][seq]
        end += len(seq)
        one = node.view(bool)
        queue += (depth + 1, seq[~one]), (depth + 1, seq[one])
    return bits


def _table(values, small, large):
    """An array of the integers in values, of typecode small if they all fit it, else large."""
    fits = np.iinfo(small).min <= values.min(initial=0) and values.max(initial=0) <= np.iinfo(small).max
    code = small if fits else large
    return array(code, values.astype(code).tobytes())


class Trees:
    """The wavelet trees of one index, all over one vector, as flat path tables (see _read).

    paths holds one entry per (tree, symbol below sigma), tree by tree: 0
    for a symbol the tree does not hold, else where the symbol's path
    starts in steps, shifted left by 8, or'd with 128 and with the path's
    length. steps holds every path's steps in turn; starts, leaves and
    lengths hold each tree's start, leaf and number of elements. There is
    no object per tree: indexing gives a WaveletTree view of one, and
    narrow takes backward-search steps over them. A tree built from a
    sequence reads its steps from its nodes on first use (_nodes), as
    build_index only saves it.
    """

    __slots__ = ("bits", "sigma", "paths", "steps", "starts", "leaves", "lengths", "_nodes")

    def __getattr__(self, name):
        if name != "steps":
            raise AttributeError(name)
        self.steps = _read(*self._nodes)[0].steps
        return self.steps

    def __len__(self):
        return len(self.lengths)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        n = len(self.lengths)
        if not -n <= i < n:
            raise IndexError("tree index out of range")
        wt = WaveletTree.__new__(WaveletTree)
        wt._tables, wt._i = self, i % n
        return wt

    def narrow(self, codes, b, e, c, rows, size):
        """The backward-search range [b, e) after a step for each code in turn; None once it is empty.

        The trees are the blocks of size symbols of one sequence, rows[i *
        sigma + x] counts symbol x in the blocks before block i, and c[x]
        the symbols below x in all of them. 0 < b < e, and every code is in
        1..sigma - 1. A step ranks each end in the tree of its block, as
        WaveletTree.rank does, where b's block is that of position b - 1
        unless b starts e's block. In one block both ends go down the code's
        path together, and stop where they meet: the range is then empty.
        In two, each goes down its own, written out twice: a call or a loop
        per end measured 6-10% slower counts on small blocks.
        """
        sigma, paths, steps, starts, leaves = self.sigma, self.paths, self.steps, self.starts, self.leaves
        rank1 = self.bits.rank1
        for code in codes:
            j = (e - 1) // size
            i = j if b >= j * size else (b - 1) // size
            if i == j:
                at = j * sigma + code
                k = paths[at]
                if not k:
                    return None
                s = starts[j] - j * size
                b, e = b + s, e + s
                for step in steps[k >> 8 : (k >> 8) + (k & 127)]:
                    if step > 0:
                        b = rank1(b) + step
                        e = rank1(e) + step
                    else:
                        b = b - rank1(b) - step
                        e = e - rank1(e) - step
                    if b == e:
                        return None
                base = c[code] + rows[at] - leaves[j]
                b, e = base + b, base + e
                continue
            at = i * sigma + code
            k = paths[at]
            if k:
                b += starts[i] - i * size
                for step in steps[k >> 8 : (k >> 8) + (k & 127)]:
                    b = rank1(b) + step if step > 0 else b - rank1(b) - step
                b += c[code] + rows[at] - leaves[i]
            else:
                b = c[code] + rows[at]
            at = j * sigma + code
            k = paths[at]
            if k:
                e += starts[j] - j * size
                for step in steps[k >> 8 : (k >> 8) + (k & 127)]:
                    e = rank1(e) + step if step > 0 else e - rank1(e) - step
                e += c[code] + rows[at] - leaves[j]
            else:
                e = c[code] + rows[at]
            if b >= e:
                return None
        return b, e

    def batch_rank(self):
        """WaveletTree.rank over int64 arrays: a function of (trees, codes, r), over views of the tables.

        It gives the occurrences of codes[i] among the first r[i] elements
        of tree trees[i]; every code is below sigma. The ranks go down their
        paths together, one level per round, each round one call of the
        vector's batch_rank1: sorted by path length, longest first, the
        ranks still descending at a level are a prefix of them.
        """
        sigma = self.sigma
        paths = np.frombuffer(self.paths, dtype=self.paths.typecode)
        steps = np.frombuffer(self.steps, dtype=self.steps.typecode)
        starts = np.frombuffer(self.starts, dtype=np.int64)
        leaves = np.frombuffer(self.leaves, dtype=np.int64)
        rank1 = self.bits.batch_rank1()

        def rank(trees, codes, r):
            k = paths[trees * sigma + codes].astype(np.int64)
            order = np.argsort(-(k & 127).astype(np.int8), kind="stable")  # a radix sort, on int8
            k, trees = k[order], trees[order]
            lens = k & 127
            p = r[order] + starts[trees]
            first = k >> 8
            # at each level, the ranks whose paths are longer
            for d, live in enumerate((len(lens) - np.cumsum(np.bincount(lens))[:-1]).tolist()):
                step = steps[first[:live] + d]
                at = p[:live]
                ones = rank1(at)
                p[:live] = np.where(step > 0, ones + step, at - ones - step)
            ranks = np.empty_like(p)
            ranks[order] = np.where(k != 0, p - leaves[trees], 0)
            return ranks

        return rank


def _read(bits, firsts, limits, codebook, lengths, sigma):
    """The path tables of trees in one vector, and their symbol counts.

    Tree i's nodes are joined bit to bit in bits from firsts[i], and its
    payload section ends at limits[i] (see bitrank's read_sections);
    codebook holds the trees' canonical codes as _parse_codebooks gives
    them, lengths their element counts, and every symbol is below sigma. All
    trees are read at once, one depth at a time, with no Python loop over
    trees or nodes. From one canonical code to the next, the prefix at any
    depth shorter than both grows by at most one, so a tree's internal nodes
    at a depth are one range of prefixes: from that of its first code longer
    than the depth to that of its last code. Their children are, in prefix
    order, the tree's leaves of the next depth, one per code of that length
    in symbol order, then its internal nodes there, then, if the last code
    goes to the 0-child of its node at that depth, that node's 1-child,
    which is empty and not a node. A node's size is its parent's count of
    zeros or ones, and it starts where the node before it in its tree ended:
    so the ones of every node of a depth come from one call of
    bits.rank1_many, at their ends. Raises ValueError on a node of no bits,
    which a tree built from a sequence never has: the codebook then lists
    symbols the block does not hold; EOFError if a node runs past its tree's
    limit. Once every node is read, bits.trim checks and clears what follows
    each tree's last node.

    rank follows a position p in the vector, which starts at r plus the
    root's start s, the tree's start (its first bit for a tree with no
    node). Every leaf starts at the end of the last node, the tree's
    `leaf`, past every node's start. At a node with b ones before s, the
    child's start plus the child's share of the node's p - s elements
    before p is rank1(p) + step on bit 1 (step = s1 - b > 0) and p -
    rank1(p) - step on bit 0 (step = -(s0 - s + b) <= 0), where b, like
    rank1, counts from the tree's start. A symbol's path is its code's steps
    from the root, and ends at p = leaf plus the rank.

    Returns the tables and each tree's occurrences of every symbol, sigma
    per tree in turn.
    """
    ntrees = len(firsts)
    first = np.array(firsts, dtype=np.int64)
    limit = np.array(limits, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    tree, syms, lens, codes = codebook
    tables = Trees()
    tables.paths = _paths(codebook, ntrees, sigma)
    depth = int(lens.max())
    per_length = np.bincount(tree * (depth + 1) + lens, minlength=ntrees * (depth + 1)).reshape(ntrees, -1)
    last = np.cumsum(per_length.sum(axis=1)) - 1  # each tree's last code
    # [tree, depth]: whether the last code goes on to the 1-child of its node there
    shift = (lens[last][:, None] - 1 - np.arange(max(depth, 1))).clip(0).astype(np.uint64)
    last_bit = (codes[last][:, None] >> shift & np.uint64(1)).astype(bool)
    # the internal nodes of the depth being read, tree by tree: their tree and size
    at = np.flatnonzero(per_length[:, 0] == 0)
    size = lengths[at]
    leaf_sizes = [lengths[per_length[:, 0] == 1]]
    end, ones_end = first.copy(), np.zeros(ntrees, dtype=np.int64)
    last_at = np.zeros((ntrees, max(depth, 1)), dtype=np.int64)  # per depth, one past each tree's last node
    node_tree, node_start, node_base, node_child = [], [], [], []
    total = 0
    for level in range(depth):
        k = len(at)
        edge = np.ones(k + 1, dtype=bool)  # where each tree's nodes here start, and their end
        edge[1:-1] = at[1:] != at[:-1]
        lead = np.flatnonzero(edge)
        tail = lead[1:] - 1
        lead = lead[:-1]
        lead_at = np.repeat(lead, tail - lead + 1)
        before = np.cumsum(size) - size
        start = end[at] + before - before[lead_at]
        stop = start + size
        bad = (size == 0) | (stop > limit[at])
        if bad.any():
            raise ValueError("empty node") if size[np.argmax(bad)] == 0 else EOFError("payload truncated")
        rank = bits.rank1_many(stop)
        base = np.empty_like(rank)
        base[1:] = rank[:-1]
        base[lead] = ones_end[at[lead]]
        end[at[tail]], ones_end[at[tail]] = stop[tail], rank[tail]
        last_at[at[tail], level] = total + tail + 1
        node_tree.append(at)
        node_start.append(start)
        node_base.append(base)
        ones = rank - base
        child_size = np.repeat(size, 2)
        child_size[0::2] -= ones
        child_size[1::2] = ones
        # the children in prefix order: each tree's leaves, its internal nodes, then maybe an empty 1-child
        child_tree = np.repeat(at, 2)
        leaf = np.arange(2 * k) - 2 * np.repeat(lead_at, 2) < per_length[child_tree, level + 1]
        inner = ~leaf
        inner[2 * tail + 1] &= last_bit[at[tail], level]
        leaf_sizes.append(child_size[leaf])
        total += k
        node_child.append(np.where(inner, total + np.cumsum(inner) - 1, -1))
        at, size = child_tree[inner], child_size[inner]
    bits.trim(end, limit)
    tables.bits, tables.sigma = bits, sigma
    tables.starts = array("q", first.tobytes())
    tables.leaves = array("q", end.tobytes())
    tables.lengths = array("q", lengths.tobytes())
    counts = np.zeros(ntrees * sigma, dtype=np.int64)
    counts[(tree * sigma + syms)[np.lexsort((syms, tree, lens))]] = np.concatenate(leaf_sizes)
    # each node's two steps, from its children's starts
    empty = np.zeros(0, dtype=np.int64)
    node_tree, node_start, node_base, child = (
        np.concatenate([empty, *parts]) for parts in (node_tree, node_start, node_base, node_child)
    )
    child = child.reshape(-1, 2)
    child_start = np.where(child >= 0, node_start[child], end[node_tree][:, None])
    one = child_start[:, 1] - node_base
    zero = node_start - node_base - child_start[:, 0]
    # every path's steps, in the order of the entries: at each depth of a
    # code, its prefix's node and its next bit
    firsts = np.cumsum(lens) - lens
    entry = np.repeat(np.arange(len(lens)), lens)
    level = np.arange(len(entry)) - firsts[entry]
    below = codes[entry] >> (lens[entry] - 1 - level).astype(np.uint64)
    # a depth's last node has the last code's prefix there
    final = last[tree[entry]]
    final = codes[final] >> (lens[final] - 1 - level).astype(np.uint64)
    node = last_at[tree[entry], level] - 1 - ((final >> np.uint64(1)) - (below >> np.uint64(1))).astype(np.int64)
    tables.steps = _table(np.where(below & np.uint64(1), one[node], zero[node]), "i", "q")
    return tables, counts.tolist()


def _paths(codebook, ntrees, sigma):
    """The paths table (see Trees) of ntrees trees of a codebook as _parse_codebooks gives it."""
    tree, syms, lens, _ = codebook
    paths = np.zeros(ntrees * sigma, dtype=np.int64)
    paths[tree * sigma + syms] = (np.cumsum(lens) - lens) << 8 | 128 | lens
    return _table(paths, "I", "q")


class WaveletTree:
    """One tree: a view of its rows in its index's path tables (see Trees)."""

    __slots__ = ("_tables", "_i")

    def __init__(self, x, shape="huffman", backend="plain", rrr_block_size=15):
        x = np.asarray(x)
        if len(x) == 0:
            raise ValueError("empty sequence")
        if shape not in ("balanced", "huffman"):
            raise ValueError(f"unknown tree shape: {shape!r}")
        if int(x.min()) < 0:
            raise ValueError("symbols must be non-negative")
        counts = np.bincount(x)
        x = x.astype(np.min_scalar_type(len(counts) - 1), copy=False)
        make = balanced_codes if shape == "balanced" else huffman_codes
        codes = make(np.flatnonzero(counts).tolist(), counts.tolist())
        # the canonical order's symbols, code lengths and codes, then each symbol's length and code
        syms = np.fromiter(codes, dtype=np.int64, count=len(codes))
        lens, values = np.array(list(codes.values()), dtype=np.int64).T
        sym_lens, sym_codes = np.zeros((2, len(counts)), dtype=np.int64)
        sym_lens[syms], sym_codes[syms] = lens, values
        vector = make_bitvector(_node_bits(x, counts, sym_lens, sym_codes), backend, rrr_block_size)
        # the nodes fill the vector, so the tree starts at 0 and its leaf is m
        tables = self._tables = Trees()
        tables.bits, tables.sigma = vector, len(counts)
        tables.starts, tables.leaves, tables.lengths = (array("q", [v]) for v in (0, vector.m, len(x)))
        # its codebook in _parse_codebooks' form: a balanced tree's codes need
        # not meet Kraft's inequality with equality, so it is not parsed
        codebook = np.zeros_like(syms), syms, lens, values.astype(np.uint64)
        tables.paths = _paths(codebook, 1, tables.sigma)
        tables._nodes = vector, [0], [vector.m], codebook, [len(x)], tables.sigma
        self._i = 0

    @property
    def bits(self):
        return self._tables.bits

    @property
    def start(self):
        return self._tables.starts[self._i]

    @property
    def leaf(self):
        return self._tables.leaves[self._i]

    @property
    def length(self):
        return self._tables.lengths[self._i]

    def rank(self, c, r):
        """Occurrences of symbol c among the first r elements."""
        tables, i = self._tables, self._i
        if not 0 <= r <= tables.lengths[i]:
            raise ValueError("rank position out of range")
        if not 0 <= c < tables.sigma:
            return 0
        k = tables.paths[i * tables.sigma + c]
        if not k:
            return 0
        # bits.rank1 per level: binding it once per call measured 6-13% slower
        bits = tables.bits
        p = r + tables.starts[i]
        for step in tables.steps[k >> 8 : (k >> 8) + (k & 127)]:
            p = bits.rank1(p) + step if step > 0 else p - bits.rank1(p) - step
        return p - tables.leaves[i]

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
        """(symbol, path) for every symbol of the tree, in ascending order; a path is a tuple of steps."""
        steps = self._tables.steps
        return [(sym, tuple(steps[k >> 8 : (k >> 8) + (k & 127)])) for sym, k in enumerate(self._row()) if k]

    @property
    def payload_bits(self):
        """The bits of the tree's payload section: those from its start to its leaf, as stored."""
        return self.bits.tree_size(self.start, self.leaf)[0]

    @property
    def directory_bits(self):
        """The rank directory or samples of the tree's bits in its vector."""
        return self.bits.tree_size(self.start, self.leaf)[1]

    def _row(self):
        """The tree's path entries, one per symbol below sigma (see Trees)."""
        tables = self._tables
        return tables.paths[self._i * tables.sigma : (self._i + 1) * tables.sigma]

    @property
    def codebook_bits(self):
        """16-bit alphabet size, then a 16-bit symbol and an 8-bit code length each."""
        return 16 + 24 * sum(1 for k in self._row() if k)

    def codebook_section(self):
        row = self._row()
        row = np.frombuffer(row, dtype=row.typecode)
        entries = np.empty(np.count_nonzero(row), dtype=_ENTRY)
        entries["sym"] = np.flatnonzero(row)
        entries["len"] = row[entries["sym"]] & 127
        return struct.pack("<H", len(entries)) + entries.tobytes()

    def payload_section(self):
        """The tree's bits as its vector stores them: plain, the bits; RRR, m, class fields, offsets."""
        bits = self.bits.stored_bits(self.start, self.leaf)
        return np.packbits(bits, bitorder="little").tobytes()

    def size_in_bits(self):
        return self.payload_bits + self.directory_bits + self.codebook_bits


# a codebook entry: a u16 symbol and a u8 code length
_ENTRY = np.dtype([("sym", "<u2"), ("len", "u1")])
_ONE = np.uint64(1)


def _parse_codebooks(bodies, sigma):
    """The canonical codes of codebook sections over symbols below sigma, all parsed at once.

    The code lengths must meet Kraft's inequality with equality, as those of
    a Huffman tree do: a single symbol has length 0, and otherwise every
    internal node has two children. Each check runs over every section
    before the next, so a damaged section fails the check it fails alone:
    the header, the alphabet size, the entries against it, the symbols,
    then the code lengths. Raises ValueError naming the failed check.

    Returns the tree, symbol, code length (int64) and code (uint64) of
    every entry, in canonical (length, symbol) order per tree, tree by
    tree. In that order a code is its tree's sum of 2^(64 - length) over
    the codes before it, shifted right by 64 - length (canonical_codes'
    rule, with a one-symbol tree's code 0). The same running sums, in
    uint64, check Kraft equality exactly for lengths up to 64.
    """
    size = np.fromiter(map(len, bodies), dtype=np.int64, count=len(bodies))
    if (size < 2).any():
        raise ValueError("codebook header")
    raw = np.frombuffer(b"".join(bodies), dtype=np.uint8)
    at = np.cumsum(size) - size
    count = raw[at] | raw[at + 1].astype(np.int64) << 8
    if (count < 1).any():
        raise ValueError("codebook alphabet size")
    if (size < 2 + 3 * count).any():
        raise ValueError("codebook entries")
    if (size > 2 + 3 * count).any():
        raise ValueError("codebook length")
    body = np.ones(len(raw), dtype=bool)
    body[at] = body[at + 1] = False
    entries = raw[body].view(_ENTRY)
    tree = np.repeat(np.arange(len(bodies)), count)
    syms = entries["sym"].astype(np.int64)
    lens = entries["len"].astype(np.int64)
    same = tree[1:] == tree[:-1]
    if (syms >= sigma).any() or (same & (syms[1:] <= syms[:-1])).any():
        raise ValueError("codebook symbols")
    if (lens > 64).any():
        raise ValueError("codebook code lengths")
    order = np.argsort(tree * 65 + lens, kind="stable")
    syms, lens = syms[order], lens[order]
    shift = (64 - np.maximum(lens, 1)).astype(np.uint64)
    weight = _ONE << shift
    weight[lens == 0] = 0  # 2^64
    total = np.cumsum(weight)  # mod 2^64
    below = total - weight
    # each tree's sum is 2^64 exactly when it is 0 mod 2^64 and, code by code,
    # never passed 2^64: a weight is at most 2^63, so passing it makes the
    # running sum fall, unless the last weight reaches just 2^64
    if (below[np.cumsum(count) - count] != 0).any() or total[-1] != 0 or (same & (below[1:] <= below[:-1])).any():
        raise ValueError("codebook code lengths")
    codes = below >> shift
    return tree, syms, lens, codes


def read_trees(sections, lengths, sigma, backend, rrr_block_size):
    """The trees of (codebook, payload) sections, and their symbol counts, sigma per tree in turn.

    The trees share one vector, whose sections are all parsed, and an RRR
    one's fields checked, before any tree is read (see read_plain and
    read_rrr), and one set of path tables (see _read). A symbol's count is
    the size of its leaf, from the zero or one count of the last node on
    its path. ValueError or EOFError names a failed check.
    """
    codebooks, payloads = zip(*sections)
    bits, firsts, limits = read_sections(payloads, backend, rrr_block_size)
    return _read(bits, firsts, limits, _parse_codebooks(codebooks, sigma), lengths, sigma)


def build_wt(x, shape="huffman", backend="plain", rrr_block_size=15):
    return WaveletTree(x, shape, backend, rrr_block_size)
