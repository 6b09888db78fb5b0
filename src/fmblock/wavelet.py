"""Wavelet trees over the local alphabet of each block of a sequence.

Two shapes share one implementation: balanced trees assign every local
symbol a fixed-width code of ceil(log2 sigma_local) bits, Huffman trees
assign shorter codes to frequent symbols. Either way a tree is its code
lengths: codes are assigned canonically from them (_canonical), so at
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

A sequence's wavelet trees are one per fixed block of it (the ssa
variants are one block) and share one vector, each from its own start: a
fresh byte for plain trees, a fresh sample for RRR ones (see bitrank's
tree_firsts). They also share one set of flat tables (WaveletTree): one
path entry per (tree, symbol), one array of every path's steps, each
tree's start and leaf, the boundary rows, the symbol counts before each
block, and every symbol's total, with no Python object per tree, path or
step. A Block is a view of one tree's rows. WaveletTree.rank ranks over
the whole sequence: a symbol's row in the block, plus its rank in the
block's tree; at the sequence's end, the symbol's total, with no rank.

A build and a load share one layout path (_read): it reads every tree's
nodes at once, one depth at a time, from the vector and each tree's bit
count, which gives its first bit and its limit, each node sized by its
parent's zero or one count, the ends of a depth's nodes ranked in one
call of the vector's rank1_many, and sums the leaf sizes, the symbol
counts, into the boundary rows and the totals. Build and load make every tree's codes from its code
lengths at once, with one rule (_canonical), and place every tree in the
vector by one rule, from the trees' bit counts (bitrank's tree_firsts). A
build (WaveletTree(x, ...)) counts every block's symbols in one bincount,
takes Huffman code lengths per block (huffman_lengths) or ceil(log2 k)
bits for a balanced tree's k symbols, and writes each block's nodes' bits
in the order _read reads them, level by level and each level in prefix
order, with one FIFO queue from the root (_node_bits); one make_bitvector
call puts every tree's bits in one vector, and _read lays them out. A load
(read_trees) reads the payload section into one vector (see bitrank's
read_payload), parses and checks the codebooks section in one pass
(_parse_codebooks), and runs _read.

WaveletTree.narrow takes one backward search's steps: the two ends of a
step in one block go down the code's whole path in one call of the
vector's descend, and ends in two blocks one rank1 call per level each;
narrow alone then tests, once per step, whether the range is empty.
WaveletTree.batch_rank ranks many (symbol, position) pairs at once, one
level per round, each round one call of the vector's batch_rank1, until
few ranks still descend: those finish their paths one at a time with the
vector's rank1. It reads int64 tables of what a rank reads per (tree,
symbol) entry, made from the stored tables once per call, so that a rank
gathers its entry in one fancy index.

The trees own two index-file sections, each written whole (sections) and
read whole (read_trees): the codebooks, a u16 code count per tree in
block order, then every tree's entries in turn, a u16 symbol and a u8
code length per symbol in ascending order, and no code bits; and the
payload, their vector as stored (see bitrank).
"""

import heapq
from array import array
from collections import deque

import numpy as np

from .bitrank import make_bitvector, read_payload, tree_firsts


def huffman_lengths(weights):
    """Huffman code lengths of weights, in their order.

    Ties are broken deterministically: among equal weights the pending tree
    created earliest wins, and leaves are seeded in the order of weights.
    A merge adds one to the length of every leaf of the two merged trees.
    """
    lengths = [0] * len(weights)
    heap = [(w, i, [i]) for i, w in enumerate(weights)]
    heapq.heapify(heap)
    seq = len(weights)
    while len(heap) > 1:
        fa, _, a = heapq.heappop(heap)
        fb, _, b = heapq.heappop(heap)
        a += b
        for i in a:
            lengths[i] += 1
        heapq.heappush(heap, (fa + fb, seq, a))
        seq += 1
    return lengths


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


class WaveletTree:
    """A sequence's wavelet trees, one per block of block_size elements, over one vector (see _read).

    paths holds one entry per (tree, symbol below sigma), tree by tree: 0
    for a symbol the tree does not hold, else where the symbol's path
    starts in steps, shifted left by 8, or'd with 128 and with the path's
    length. steps holds every path's steps in turn; starts and leaves hold
    each tree's start and leaf; rows, from item i * sigma on, the
    occurrences of every symbol in the blocks before block i; totals, those
    in every block. There is no object per tree: len() is the number of
    trees and indexing gives a Block view of one. rank, narrow and
    batch_rank take positions in the whole sequence, and find the block of
    each.
    """

    __slots__ = ("bits", "n", "block_size", "sigma", "paths", "steps", "starts", "leaves", "rows", "totals")

    def __init__(self, x, shape="huffman", rrr_block_size=0, block_size=None, sigma=None):
        """The trees of x's blocks of block_size elements (by default one block), over symbols below sigma.

        sigma defaults to x's largest symbol plus one. Each block's tree has
        code lengths of the given shape from the block's own symbol counts,
        codes from them as a load's (_canonical), and its nodes' bits in
        layout order (_node_bits). One make_bitvector call puts every tree's
        bits in one vector, plain for rrr_block_size 0, else RRR, and _read
        lays them out as a load does.
        """
        x = np.asarray(x)
        if len(x) == 0:
            raise ValueError("empty sequence")
        if shape not in ("balanced", "huffman"):
            raise ValueError(f"unknown tree shape: {shape!r}")
        if int(x.min()) < 0:
            raise ValueError("symbols must be non-negative")
        top = int(x.max())
        self.sigma = sigma = top + 1 if sigma is None else sigma
        if top >= sigma:
            raise ValueError("symbols must be below sigma")
        self.n = n = len(x)
        if block_size is not None and block_size < 1:
            raise ValueError("block size must be >= 1")
        self.block_size = size = n if block_size is None else min(int(block_size), n)
        x = x.astype(np.min_scalar_type(sigma - 1), copy=False)
        # [tree, symbol]: the symbol's count in the tree's block (numpy reuses
        # the key's temporaries in place: one int64 array of n at a time)
        counts = np.bincount(np.arange(n) // size * sigma + x, minlength=-(-n // size) * sigma).reshape(-1, sigma)
        tree, syms = np.nonzero(counts)
        k = np.count_nonzero(counts, axis=1)  # each tree's symbols
        if shape == "balanced":
            lens = np.repeat(np.ceil(np.log2(k)).astype(np.int64), k)
        else:
            weights, ends = counts[tree, syms].tolist(), np.cumsum(k).tolist()
            lens = np.array([length for s, e in zip([0, *ends], ends) for length in huffman_lengths(weights[s:e])])
        tree, syms, lens, codes = codebook = _canonical(tree, syms, lens)
        # [length or code, tree, symbol]: the symbol's code length and code in the tree
        table = np.zeros((2, *counts.shape), dtype=np.int64)
        table[:, tree, syms] = lens, codes.astype(np.int64)
        parts = [_node_bits(x[s : s + size], counts[i], *table[:, i]) for i, s in enumerate(range(0, n, size))]
        del counts, table  # before _read makes its own tables
        ms = np.fromiter(map(len, parts), dtype=np.int64, count=len(parts))
        _read(self, make_bitvector(np.concatenate(parts), rrr_block_size, ms), ms, codebook)

    def __len__(self):
        return len(self.starts)

    def __getitem__(self, i):
        n = len(self.starts)
        if not -n <= i < n:
            raise IndexError("tree index out of range")
        return Block(self, i % n)

    def rank(self, c, j):
        """Occurrences of symbol c among the first j elements.

        They are c's row in the block of element j - 1 plus c's rank in that
        block's tree; at j = n, c's total, with no rank.
        """
        if not 0 <= j <= self.n:
            raise ValueError("rank position out of range")
        if j == 0 or not 0 <= c < self.sigma:
            return 0
        if j == self.n:
            return self.totals[c]
        i = (j - 1) // self.block_size
        at = i * self.sigma + c
        k = self.paths[at]
        if not k:
            return self.rows[at]
        # bits.rank1 per level: binding it once per call measured 6-13% slower
        bits = self.bits
        p = j - i * self.block_size + self.starts[i]
        for step in self.steps[k >> 8 : (k >> 8) + (k & 127)]:
            p = bits.rank1(p) + step if step > 0 else p - bits.rank1(p) - step
        return self.rows[at] + p - self.leaves[i]

    @property
    def code_length_bits(self):
        """Total code length over the sequence: every tree's bits, from its start to its leaf."""
        return int(self._ms().sum())

    def _ms(self):
        """Each tree's bits, from its start to its leaf, as int64."""
        return np.frombuffer(self.leaves, dtype=np.int64) - np.frombuffer(self.starts, dtype=np.int64)

    def sections(self):
        """The trees' two index-file sections, each made whole: the codebooks and the payload (see read_trees)."""
        paths = np.frombuffer(self.paths, dtype=self.paths.typecode).reshape(-1, self.sigma)
        tree, syms = np.nonzero(paths)
        entries = np.empty(len(syms), dtype=_ENTRY)
        entries["sym"], entries["len"] = syms, paths[tree, syms] & 127
        counts = np.count_nonzero(paths, axis=1).astype("<u2")
        return counts.tobytes() + entries.tobytes(), self.bits.payload(self._ms())

    def size_bits(self):
        """The trees' bits, all trees together: (payload, rank directories, codebooks).

        The payload and the codebooks as their sections store them, and the
        rank directories or samples as the vector holds them.
        """
        payload, directories = self.bits.stored_bits(self._ms())
        return payload, directories, 16 * len(self) + 24 * int(np.count_nonzero(self.paths))

    def narrow(self, codes, b, e, c):
        """The backward-search range [b, e) after a step for each code in turn; None once it is empty.

        c[x] counts the symbols below x in the sequence. 0 < b < e, and
        every code is in 1..sigma - 1. A step ranks each end as rank does,
        where b's block is that of position b - 1 unless b starts e's
        block. In one block both ends go down the code's path together, in
        one call of the vector's descend, which walks the whole path. In
        two, each goes down its own, written out twice: a call or a loop per
        end measured 6-10% slower counts on small blocks. Either way the
        range is tested for emptiness once, after the step, and only here.
        """
        sigma, paths, steps, starts, leaves = self.sigma, self.paths, self.steps, self.starts, self.leaves
        rows, size = self.rows, self.block_size
        rank1, descend = self.bits.rank1, self.bits.descend
        for code in codes:
            j = (e - 1) // size
            i = j if b >= j * size else (b - 1) // size
            if i == j:
                at = j * sigma + code
                k = paths[at]
                if k:
                    s = starts[j] - j * size
                    b, e = descend(steps[k >> 8 : (k >> 8) + (k & 127)], b + s, e + s)
                    base = c[code] + rows[at] - leaves[j]
                    b, e = base + b, base + e
                else:
                    b = e = c[code] + rows[at]
            else:
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

    def batch_rank(self, tail):
        """rank over int64 arrays: a function of (codes, j), over int64 tables made once per call.

        It gives the occurrences of codes[i] among the first j[i] elements;
        every code is below sigma. Each is a row plus a rank in a tree, as
        in rank, and the tree ranks go down their paths together, one level
        per round, each round one call of the vector's batch_rank1: sorted
        by path length, longest first, the ranks still descending at a
        level are a prefix of them. Once tail or fewer are, they finish
        their paths one at a time with the vector's rank1, as rank does:
        tail is where a numpy round stops paying for itself (see
        fmindex._SCALAR_TAIL).

        The tables, which live as long as the function does, hold per
        (tree, symbol) entry an int8 sort key, the negated path length, and,
        in the rows of one int64 array, what a rank reads of it: its path's
        length and first step, the tree's start less its block's first
        element, whether the tree holds the symbol (a one-symbol tree holds
        it with a path of length 0), and the symbol's row, less the tree's
        leaf where it holds it. So a rank gathers its entry in one fancy
        index, and the stored tables are converted once per batch_rank
        call, not per call of the function it returns.
        """
        sigma, size = self.sigma, self.block_size
        paths = np.frombuffer(self.paths, dtype=self.paths.typecode).astype(np.int64)
        lengths = paths & 127
        key = (-lengths).astype(np.int8)  # argsort sorts int8 by radix
        held = (paths != 0).astype(np.int64)
        tree = np.arange(len(paths)) // sigma
        starts = np.frombuffer(self.starts, dtype=np.int64)[tree]
        leaves = np.frombuffer(self.leaves, dtype=np.int64)[tree]
        rows = np.frombuffer(self.rows, dtype=self.rows.typecode)
        table = np.stack([lengths, paths >> 8, starts - tree * size, held, rows - held * leaves])
        steps = np.frombuffer(self.steps, dtype=self.steps.typecode)
        rank1 = self.bits.batch_rank1()
        scalar, path_steps = self.bits.rank1, self.steps

        def rank(codes, j):
            row = np.maximum(j - 1, 0) // size * sigma + codes  # block 0 for j = 0
            order = np.argsort(key[row], kind="stable")
            lens, first, shift, held, base = table[:, row[order]]
            p = j[order] + shift
            live = len(lens)
            for d, ended in enumerate(np.bincount(lens).tolist()[:-1]):
                live -= ended  # the ranks whose paths are longer than d
                if live <= tail:
                    deep = p[:live].tolist()
                    for i, (at, f, n) in enumerate(zip(deep, first[:live].tolist(), lens[:live].tolist())):
                        for step in path_steps[f + d : f + n]:
                            at = scalar(at) + step if step > 0 else at - scalar(at) - step
                        deep[i] = at
                    p[:live] = deep
                    break
                step = steps[first[:live] + d]
                at = p[:live]
                q = rank1(at) + step
                p[:live] = np.where(step > 0, q, at - q)
            ranks = np.empty_like(p)
            ranks[order] = base + held * p
            return ranks

        return rank


class Block:
    """One block's tree: a view of its rows in its sequence's WaveletTree."""

    __slots__ = ("_tree", "_i")

    def __init__(self, tree, i):
        self._tree, self._i = tree, i

    @property
    def bits(self):
        return self._tree.bits

    @property
    def start(self):
        return self._tree.starts[self._i]

    @property
    def leaf(self):
        return self._tree.leaves[self._i]

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

    def _items(self):
        """(symbol, path) for every symbol of the tree, in ascending order; a path is a tuple of steps."""
        tree, steps = self._tree, self._tree.steps
        row = tree.paths[self._i * tree.sigma : (self._i + 1) * tree.sigma]
        return [(sym, tuple(steps[k >> 8 : (k >> 8) + (k & 127)])) for sym, k in enumerate(row) if k]


def _read(wt, bits, ms, codebook):
    """Fill wt's path tables, boundary rows and symbol totals from its trees in one vector.

    wt holds its sequence's length n, block size and sigma. Tree i, of block
    i, has its ms[i] bits of nodes joined bit to bit in bits, from its first
    bit, which tree_firsts(ms, bits.t) gives it, to its limit, first + m;
    codebook holds the trees' canonical codes as _canonical gives them, and
    every symbol is below sigma. Every tree holds block_size elements but the last, which
    holds the rest. All trees are read at once, one depth at a time, with no
    Python loop over trees or nodes. From one canonical code to the next,
    the prefix at any depth shorter than both grows by at most one, so a
    tree's internal nodes at a depth are one range of prefixes: from that of
    its first code longer than the depth to that of its last code. Their
    children are, in prefix order, the tree's leaves of the next depth, one
    per code of that length in symbol order, then its internal nodes there,
    then, if the last code goes to the 0-child of its node at that depth,
    that node's 1-child, which is empty and not a node. A node's size is its
    parent's count of zeros or ones, and it starts where the node before it
    in its tree ended: so the ones of every node of a depth come from one
    call of bits.rank1_many, at their ends. Raises ValueError on a node of
    no bits, which a tree built from a sequence never has: the codebook then
    lists symbols the block does not hold; EOFError if a node runs past its
    tree's limit ("payload truncated"). Once every node is read, every
    tree's last node must end at its limit ("payload length").

    rank follows a position p in the vector, which starts at r plus the
    root's start s, the tree's start (its first bit for a tree with no
    node). Every leaf starts at the end of the last node, the tree's
    `leaf`, past every node's start. At a node with b ones before s, the
    child's start plus the child's share of the node's p - s elements
    before p is rank1(p) + step on bit 1 (step = s1 - b > 0) and p -
    rank1(p) - step on bit 0 (step = -(s0 - s + b) <= 0), where b counts
    as rank1 does, from the vector's start. rank1(p) - b counts the node's
    ones before p, so the steps' signs, and the codes they give, do not
    depend on it; each tree's root takes its b from the vector's tables
    (bits.tree_bases), with no rank1_many call. A symbol's path is its code's steps from the root, and ends at p
    = leaf plus the rank.

    A tree's occurrences of a symbol are the size of its leaf. The boundary
    rows sum them over the blocks before each block, and the totals, which
    rank returns at n, over every block.
    """
    sigma, ntrees = wt.sigma, len(ms)
    first = tree_firsts(ms, bits.t)
    limit = first + ms
    lengths = np.full(ntrees, wt.block_size, dtype=np.int64)
    lengths[-1] = wt.n - (ntrees - 1) * wt.block_size
    tree, syms, lens, codes = codebook
    path_at = np.cumsum(lens) - lens  # where each entry's path starts in steps
    paths = np.zeros(ntrees * sigma, dtype=np.int64)
    paths[tree * sigma + syms] = path_at << 8 | 128 | lens
    wt.paths = _table(paths, "I", "q")
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
    end, ones_end = first.copy(), bits.tree_bases(first)
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
    if (end != limit).any():
        raise ValueError("payload length")
    wt.bits = bits
    wt.starts = array("q", first.tobytes())
    wt.leaves = array("q", end.tobytes())
    counts = np.zeros((ntrees, sigma), dtype=np.int64)
    counts.flat[(tree * sigma + syms)[np.lexsort((syms, tree, lens))]] = np.concatenate(leaf_sizes)
    # every entry is at most n, so the rows and totals are 32-bit while n fits
    upto = np.cumsum(counts, axis=0)
    wt.rows, wt.totals = _table(upto - counts, "I", "q"), _table(upto[-1], "I", "q")
    # each node's two steps, from its children's starts: its step on bit b
    # at 2 * node + b. Each array is dropped once read, here and below, as
    # they would add to the load's peak
    del counts, upto, leaf_sizes
    empty = np.zeros(0, dtype=np.int64)
    node_tree, node_start, node_base, child = (
        np.concatenate([empty, *parts]) for parts in (node_tree, node_start, node_base, node_child)
    )
    del node_child
    child = child.reshape(-1, 2)
    node_steps = np.where(child >= 0, node_start[child], end[node_tree][:, None])
    node_steps[:, 0] = node_start - node_steps[:, 0]
    node_steps -= node_base[:, None]
    del node_tree, node_start, node_base, child
    # every path's steps, in the order of the entries: at each depth of a
    # code, its prefix's node and its next bit
    entry = np.repeat(np.arange(len(lens)), lens)
    level = np.arange(len(entry)) - path_at[entry]
    below = codes[entry] >> (lens[entry] - 1 - level).astype(np.uint64)
    # a depth's last node has the last code's prefix there
    final = last[tree[entry]]
    final = codes[final] >> (lens[final] - 1 - level).astype(np.uint64)
    node = last_at[tree[entry], level] - 1
    del entry, level
    final >>= np.uint64(1)
    final -= below >> np.uint64(1)
    node -= final.view(np.int64)
    del final
    node <<= 1
    node |= (below & np.uint64(1)).astype(np.int64)
    del below
    wt.steps = _table(node_steps.ravel()[node], "i", "q")


# a codebook entry: a u16 symbol and a u8 code length
_ENTRY = np.dtype([("sym", "<u2"), ("len", "u1")])
_ONE = np.uint64(1)


def _canonical(tree, syms, lens):
    """Every tree's canonical codes from its code lengths, all at once, as _read takes them.

    Entries come tree by tree, each tree's in ascending symbol order; the
    result is (tree, symbol, length as int64, code as uint64) in canonical
    (tree, length, symbol) order. There a code is the sum of 2^(64 - length)
    over its tree's codes before it, shifted right by 64 - length: the
    previous code plus one, shifted left by the step in length (DEFLATE's
    rule, RFC 1951 3.2.2), and a one-symbol tree's code is 0. The sum
    restarts at each tree, since a balanced tree's lengths need not meet
    Kraft's inequality with equality. Under equality the codes are
    prefix-free, and at every depth the leaves take the lowest prefixes and
    the internal nodes the rest. Lengths are at most 64.
    """
    order = np.argsort(tree * 65 + lens, kind="stable")
    tree, syms, lens = tree[order], syms[order], lens[order]
    shift = (64 - np.maximum(lens, 1)).astype(np.uint64)
    weight = _ONE << shift
    weight[lens == 0] = 0  # 2^64
    below = np.cumsum(weight) - weight  # mod 2^64
    below -= below[np.searchsorted(tree, tree)]  # from the tree's first code
    return tree, syms, lens, below >> shift


def _parse_codebooks(body, count, sigma):
    """The canonical codes of a codebooks section of count trees over symbols below sigma, parsed whole.

    The section holds a u16 code count per tree, then every tree's (u16
    symbol, u8 code length) entries in turn. The code lengths must meet
    Kraft's inequality with equality, as those of a Huffman tree do: a
    single symbol has length 0, and otherwise every internal node has two
    children. Each check runs over every tree before the next: the counts,
    the alphabet sizes, the entries against them, the symbols, then the
    code lengths. Raises ValueError naming the failed check. Returns
    _canonical's codes; each tree's running sums of 2^(64 - length) in
    uint64, its codes shifted back, check Kraft equality exactly for
    lengths up to 64.
    """
    if len(body) < 2 * count:
        raise ValueError("codebook header")
    sizes = np.frombuffer(body, dtype="<u2", count=count).astype(np.int64)
    if (sizes < 1).any():
        raise ValueError("codebook alphabet size")
    if len(body) < 2 * count + 3 * int(sizes.sum()):
        raise ValueError("codebook entries")
    if len(body) > 2 * count + 3 * int(sizes.sum()):
        raise ValueError("codebook length")
    entries = np.frombuffer(body, dtype=_ENTRY, offset=2 * count)
    tree = np.repeat(np.arange(count), sizes)
    syms = entries["sym"].astype(np.int64)
    lens = entries["len"].astype(np.int64)
    same = tree[1:] == tree[:-1]
    if (syms >= sigma).any() or (same & (syms[1:] <= syms[:-1])).any():
        raise ValueError("codebook symbols")
    if (lens > 64).any():
        raise ValueError("codebook code lengths")
    _, _, lens, codes = codebook = _canonical(tree, syms, lens)
    shift = (64 - np.maximum(lens, 1)).astype(np.uint64)
    below = codes << shift  # the tree's sum before each code
    total = (below + (_ONE << shift) * (lens > 0))[np.cumsum(sizes) - 1]  # mod 2^64
    # each tree's sum is 2^64 exactly when it is 0 mod 2^64 and, code by code,
    # never passed 2^64: a weight is at most 2^63, so passing it makes the
    # running sum fall, unless the last weight reaches just 2^64
    if (total != 0).any() or (same & (below[1:] <= below[:-1])).any():
        raise ValueError("codebook code lengths")
    return codebook


def read_trees(codebooks, payload, n, block_size, sigma, rrr_block_size):
    """The WaveletTree of a sequence of n symbols below sigma from its codebooks and payload sections.

    The payload is read into one vector, plain for rrr_block_size 0, and
    an RRR one's samples checked, before the codebooks are parsed (see
    bitrank's read_payload), and both before any tree is read. A
    symbol's count in a tree is the size of its leaf, from the zero or one
    count of the last node on its path (see _read). ValueError or EOFError
    names a failed check.
    """
    wt = WaveletTree.__new__(WaveletTree)
    wt.n, wt.block_size, wt.sigma = n, min(block_size, n), sigma
    count = -(-n // wt.block_size)
    bits, ms = read_payload(payload, rrr_block_size, count)
    _read(wt, bits, ms, _parse_codebooks(codebooks, count, sigma))
    return wt


def build_wt(x, shape="huffman", backend="plain", rrr_block_size=15):
    return WaveletTree(x, shape, rrr_block_size if backend == "rrr" else 0)
