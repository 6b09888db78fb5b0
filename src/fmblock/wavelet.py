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
leaf plus the rank. Code bit 0 goes left, 1 goes right, reading codes
from the most significant bit.

A sequence's wavelet trees are one per fixed block of it (the ssa
variants are one block) and share one vector, joined bit to bit in layout
order: tree by tree, each tree's nodes level by level, so a tree's bits
run from its start to its leaf, which is the next tree's start, and the
vector holds their M bits, the sum over every tree's codes of count times
code length. The vector knows nothing of trees (see bitrank). The trees
also share one set of flat tables (WaveletTree): one path entry per
(tree, symbol), one array of every path's steps, each tree's start and
leaf, the boundary rows, the symbol counts before each block, and every
symbol's total, with no Python object per tree, path or step. A Block is
a view of one tree's rows. WaveletTree.rank ranks over the whole
sequence: a symbol's row in the block, plus its rank in the block's tree;
at the sequence's end, the symbol's total, with no rank.

A build and a load share one layout path (_read): from every tree's
codes and each code's count in its block, in one pass over all trees,
with no walk down them, it lays out every node, sums the counts into the
boundary rows and the totals, and checks the vector against the counts
with one call of its rank1_many at every node's end. Build and load make
every tree's codes from its code lengths at once, with one rule
(_canonical), and place every node, and so every tree, in the vector by
the sums of its codes' counts. A build (WaveletTree(x, ...))
counts every block's symbols in one bincount, takes Huffman code lengths
per block (huffman_lengths) or ceil(log2 k) bits for a balanced tree's k
symbols, and writes each block's nodes' bits in layout order, level by
level and each level in prefix order, with one FIFO queue from the root
(_node_bits); one make_bitvector call puts every tree's bits in one
vector, and _read lays them out from the bincount's counts. A load
(read_trees) parses and checks the codebooks section in one pass
(_parse_codebooks), derives M from its counts and code lengths, reads the
payload section into one vector of M bits (see bitrank's read_payload),
and runs _read.

WaveletTree.narrow takes one backward search's steps: the two ends of a
step in one block go down the code's whole path in one call of the
vector's descend, and ends in two blocks one rank1 call per level each;
narrow alone then tests, once per step, whether the range is empty.
WaveletTree.batch_rank ranks many (symbol, position) pairs at once, one
level per round, each round one call of the rounds that the vector's
batch_rank1 returns, until few ranks still descend: those finish their
paths one at a time with the scalar form it returns beside them, over the
same table (the RRR one reads no sample). It reads int64 tables of what a
rank reads per (tree, symbol) entry, made from the stored tables once per
call, so that a rank gathers its entry in one fancy index.

The trees own two index-file sections, each written whole (sections) and
read whole (read_trees): the codebooks, one LSB-first bitstream of every
tree's presence map, a bit per symbol below sigma, in block order, then
per symbol it lists, tree by tree in ascending order, a 6-bit code length
and its count in the block, in as many bits as the block size has, and no
code bits; and the payload, their vector as stored (see bitrank), with no
bit count: M is the codebooks'.
"""

import heapq
from array import array
from collections import deque

import numpy as np

from .bitio import pack_fields, read_fields
from .bitrank import make_bitvector, read_payload


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
    level, each level in prefix order, which is the order _read lays them
    out in: a node's 0-elements, then its 1-elements, join the back of the
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
        weights = counts[tree, syms]
        k = np.count_nonzero(counts, axis=1)  # each tree's symbols
        if shape == "balanced":
            lens = np.repeat(np.ceil(np.log2(k)).astype(np.int64), k)
        else:
            each, ends = weights.tolist(), np.cumsum(k).tolist()
            lens = np.array([length for s, e in zip([0, *ends], ends) for length in huffman_lengths(each[s:e])])
        tree, syms, lens, codes, _ = codebook = _canonical(tree, syms, lens, weights)
        # [length or code, tree, symbol]: the symbol's code length and code in the tree
        table = np.zeros((2, *counts.shape), dtype=np.int64)
        table[:, tree, syms] = lens, codes.astype(np.int64)
        parts = [_node_bits(x[s : s + size], counts[i], *table[:, i]) for i, s in enumerate(range(0, n, size))]
        del counts, table  # before _read makes its own tables
        _read(self, make_bitvector(np.concatenate(parts), rrr_block_size), codebook)

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
        """Total code length over the sequence: the vector's bits, every tree's end to end."""
        return self.bits.m

    def sections(self):
        """The trees' two index-file sections, each made whole: the codebooks and the payload (see read_trees)."""
        paths = np.frombuffer(self.paths, dtype=self.paths.typecode).reshape(-1, self.sigma)
        tree, syms = np.nonzero(paths)
        entries = np.stack([paths[tree, syms] & 127, self.block_counts()[tree, syms]], axis=1).ravel()
        widths = np.full(paths.size + len(entries), self.block_size.bit_length())
        widths[: paths.size] = 1
        widths[paths.size :: 2] = _LENGTH_BITS
        return pack_fields(np.concatenate([(paths != 0).ravel(), entries]), widths), self.bits.payload()

    def size_bits(self):
        """The trees' bits, all trees together: (payload, rank directories, codebooks).

        The payload and the codebooks as their sections store them, and the
        rank directories or samples as the vector holds them.
        """
        payload, directories = self.bits.stored_bits()
        return payload, directories, 8 * _codebook_bytes(len(self), self.sigma, int(np.count_nonzero(self.paths)), self.block_size)

    def block_counts(self):
        """Each block's occurrences of every symbol, a (trees, sigma) int64 array.

        Consecutive boundary rows differenced, and the totals less the last
        row for the last block.
        """
        rows = np.frombuffer(self.rows, dtype=self.rows.typecode).astype(np.int64).reshape(-1, self.sigma)
        totals = np.frombuffer(self.totals, dtype=self.totals.typecode)
        return np.diff(rows, axis=0, append=totals[None])

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
        per round, each round one call of the rounds of the vector's
        batch_rank1: sorted by path length, longest first, the ranks still
        descending at a level are a prefix of them. Once tail or fewer are,
        they finish their paths one at a time, as rank does, with the scalar
        form that batch_rank1 returns beside its rounds: tail is where a
        numpy round stops paying for itself (see fmindex._SCALAR_TAIL).

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
        rank1, scalar = self.bits.batch_rank1()
        path_steps = self.steps

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


def _read(wt, bits, codebook):
    """Fill wt's path tables, boundary rows and symbol totals from its trees' codes and counts, in one pass.

    bits holds every node of every tree, joined bit to bit in layout order,
    tree i of block i after tree i - 1; codebook holds the trees' canonical
    codes and each code's count, at least 1, as _canonical gives them, every
    symbol below wt.sigma, and every tree at least one code. The counts
    route exactly the vector's m bits: a build's are its bits' own, and a
    load reads m bits for them (read_trees). The boundary rows sum the
    counts over the blocks before each block, and the totals, which rank
    returns at n, over every block.

    There is no walk down the trees and no Python loop over trees or
    nodes. A code passes one internal node at each depth below its length,
    its prefix there: one row per (code, depth), a path step. In layout
    order, tree by tree and depth by depth, a depth's rows are the tree's
    codes longer than it, which end its codes in canonical order, and
    come there in their prefixes' order (from one canonical code to the
    next, the prefix at any depth shorter than both grows by at most one):
    a run of rows of one prefix is a node. Its size and its ones (its
    codes with bit 1 at its depth) are sums of counts, its start and the
    ones before it prefix sums of those over every row before it, which
    are its place in the vector and the vector's ones there, as rank1
    counts them; a tree starts at its first row's. One call of
    bits.rank1_many at every node's end then checks the payload against
    the counts ("node ones"), so every node holds the ones, and each child
    the elements, that a walk by the payload's own ranks would find.

    rank follows a position p in the vector, which starts at r plus the
    root's start s, the tree's start (its first bit for a tree with no
    node). Every leaf starts at the end of the last node, the tree's
    `leaf`. At a node with b ones before s, the child's start plus the
    child's share of the node's p - s elements before p is rank1(p) + step
    on bit 1 (step = s1 - b > 0) and p - rank1(p) - step on bit 0 (step =
    -(s0 - s + b) <= 0). A child's start is that of the node of the code's
    next row, or the leaf after its last. A symbol's path is its code's
    steps from the root, and ends at p = leaf plus the rank.
    """
    tree, syms, lens, codes, counts = codebook
    sigma, ntrees = wt.sigma, int(tree[-1]) + 1
    path_at = np.cumsum(lens) - lens  # where each entry's path starts in steps
    paths = np.zeros(ntrees * sigma, dtype=np.int64)
    paths[tree * sigma + syms] = path_at << 8 | 128 | lens
    wt.paths = _table(paths, "I", "q")
    block = np.zeros((ntrees, sigma), dtype=np.int64)
    block[tree, syms] = counts
    # every entry is at most n, so the rows and totals are 32-bit while n fits
    upto = np.cumsum(block, axis=0)
    wt.rows, wt.totals = _table(upto - block, "I", "q"), _table(upto[-1], "I", "q")
    # Each array is dropped once read, here and below, as they would add to
    # the load's peak
    del paths, block, upto
    # the rows in layout order: per (tree, depth), the tree's entries longer
    # than the depth, which end its entries in canonical order
    depth, total = int(lens.max()), int(path_at[-1] + lens[-1])
    k = np.bincount(tree, minlength=ntrees)
    lead = np.cumsum(k) - k  # each tree's first entry
    shallow = np.bincount(tree * (depth + 1) + lens, minlength=ntrees * (depth + 1)).reshape(ntrees, -1)
    shallow = np.cumsum(shallow, axis=1)[:, :depth]  # [tree, depth]: its codes of at most depth bits
    deeper = (k[:, None] - shallow).ravel()
    run = np.cumsum(deeper) - deeper  # where each (tree, depth)'s rows start
    entry = np.repeat((lead[:, None] + shallow).ravel() - run, deeper) + np.arange(total)
    level = np.repeat(np.tile(np.arange(depth), ntrees), deeper)
    pos = path_at[entry] + level  # the row's step in steps
    # the code's bits down to the row's: its prefix, the row's node, then its bit there
    prefix = codes[entry] >> (lens[entry] - 1 - level).astype(np.uint64)
    del level
    bit = (prefix & _ONE).astype(np.int64)
    prefix >>= _ONE
    new = np.empty(total, dtype=bool)
    np.not_equal(prefix[1:], prefix[:-1], out=new[1:])
    new[run[deeper > 0]] = True
    node = np.cumsum(new) - 1
    first_row = np.flatnonzero(new)  # each node's
    del prefix, new, shallow, deeper, run
    # the bits, and the ones, of the rows before each row and at the end:
    # a row boundary's place in the vector, and the vector's ones before it
    routed, ones = np.zeros((2, total + 1), dtype=np.int64)
    np.cumsum(counts[entry], out=routed[1:])
    del entry
    bit *= routed[1:] - routed[:-1]
    np.cumsum(bit, out=ones[1:])
    end_row = np.append(first_row[1:], total)
    if (bits.rank1_many(routed[end_row]) != ones[end_row]).any():
        raise ValueError("node ones")
    start, base = routed[first_row], ones[first_row]
    # each tree's first row, as its first entry's path is its first step
    tree_row = path_at[lead]
    leaves = routed[np.append(tree_row[1:], total)]
    wt.bits = bits
    wt.starts = array("q", routed[tree_row].tobytes())
    wt.leaves = array("q", leaves.tobytes())
    del routed, ones, first_row, end_row
    # every path's steps, in the order of the entries: each step's node and
    # bit, and the start of its child, the next step's node, or the leaf
    at, step_bit = np.empty_like(node), np.empty_like(bit)
    at[pos], step_bit[pos] = node, bit
    del node, pos, bit
    s, b = start[at], base[at]
    del at
    child = np.empty_like(s)
    child[:-1] = s[1:]
    held = lens > 0
    child[(path_at + lens - 1)[held]] = leaves[tree[held]]
    wt.steps = _table(np.where(step_bit > 0, child - b, s - child - b), "i", "q")


_LENGTH_BITS = 6  # a codebook's code length field, up to 63: a 64-bit Huffman code needs a block of F(66) = 2.7e13 symbols
_ONE = np.uint64(1)


def _canonical(tree, syms, lens, counts):
    """Every tree's canonical codes from its code lengths, all at once, as _read takes them.

    Entries come tree by tree, each tree's in ascending symbol order, with
    each symbol's count in its block; the result is (tree, symbol, length
    as int64, code as uint64, count) in canonical (tree, length, symbol)
    order. There a code is the sum of 2^(64 - length) over its tree's codes
    before it, shifted right by 64 - length: the previous code plus one,
    shifted left by the step in length (DEFLATE's rule, RFC 1951 3.2.2),
    and a one-symbol tree's code is 0. The sum restarts at each tree, since
    a balanced tree's lengths need not meet Kraft's inequality with
    equality. Under equality the codes are prefix-free, and at every depth
    the leaves take the lowest prefixes and the internal nodes the rest.
    Lengths are at most 64.
    """
    order = np.argsort(tree * 65 + lens, kind="stable")
    tree, syms, lens, counts = tree[order], syms[order], lens[order], counts[order]
    shift = (64 - np.maximum(lens, 1)).astype(np.uint64)
    weight = _ONE << shift
    weight[lens == 0] = 0  # 2^64
    below = np.cumsum(weight) - weight  # mod 2^64
    below -= below[np.searchsorted(tree, tree)]  # from the tree's first code
    return tree, syms, lens, below >> shift, counts


def _codebook_bytes(trees, sigma, entries, block_size):
    """The codebooks section's bytes: a sigma-bit map per tree, then a code length and a count per entry, padded once."""
    return (trees * sigma + entries * (_LENGTH_BITS + block_size.bit_length()) + 7) >> 3


def _parse_codebooks(body, sigma, n, size):
    """The canonical codes and counts of a codebooks section of a sequence of n symbols below sigma, parsed whole.

    Every block holds size symbols but the last, which holds the rest, and
    the bit length w of size is the count width. The section is every
    block's sigma-bit presence map, bit s for symbol s, then per listed
    symbol a 6-bit code length and a w-bit count, LSB first. Each check
    runs over every block before the next: the section's size against the
    maps, before any array per block is made, the alphabet sizes, the
    section's size against the entries the maps list, the code lengths,
    which must meet Kraft's inequality with equality, as a Huffman tree's
    do (a single symbol has length 0), then the counts, each at least 1
    and a block's summing to its length. Raises ValueError naming the
    failed check. Returns _canonical's codes and counts; each tree's
    running sums of 2^(64 - length) in uint64, its codes shifted back,
    check Kraft equality exactly.
    """
    count, width = -(-n // size), size.bit_length()
    maps = count * sigma
    raw = np.frombuffer(body, dtype=np.uint8)
    if 8 * len(raw) < maps:
        raise ValueError("codebook entries")
    lengths = np.full(count, size, dtype=np.int64)
    lengths[-1] = n - (count - 1) * size
    present = np.unpackbits(raw, count=maps, bitorder="little").reshape(count, sigma)
    sizes = np.count_nonzero(present, axis=1)
    if (sizes < 1).any():
        raise ValueError("codebook alphabet size")
    entries = int(sizes.sum())
    held = _codebook_bytes(count, sigma, entries, size)
    if len(raw) < held:
        raise ValueError("codebook entries")
    if len(raw) > held:
        raise ValueError("codebook length")
    tree, syms = np.nonzero(present)
    words = np.zeros((held >> 3) + 2, dtype="<u8")  # the stream, then a spare word for read_fields
    words.view(np.uint8)[:held] = raw
    at = maps + (_LENGTH_BITS + width) * np.arange(entries)  # each entry's first bit
    # a count of 2^63 or more turns negative, and fails the counts' check
    counts = read_fields(words, at + _LENGTH_BITS, width).astype(np.int64)
    lens = read_fields(words, at, _LENGTH_BITS).astype(np.int64)
    _, _, lens, codes, _ = codebook = _canonical(tree, syms, lens, counts)
    shift = (64 - np.maximum(lens, 1)).astype(np.uint64)
    below = codes << shift  # the tree's sum before each code
    total = (below + (_ONE << shift) * (lens > 0))[np.cumsum(sizes) - 1]  # mod 2^64
    # each tree's sum is 2^64 exactly when it is 0 mod 2^64 and, code by code,
    # never passed 2^64: a weight is at most 2^63, so passing it makes the
    # running sum fall, unless the last weight reaches just 2^64
    same = tree[1:] == tree[:-1]
    if (total != 0).any() or (same & (below[1:] <= below[:-1])).any():
        raise ValueError("codebook code lengths")
    # a count is below 2^w, at most twice the block size, so a block's sum fits int64
    if (counts < 1).any() or (np.add.reduceat(counts, np.cumsum(sizes) - sizes) != lengths).any():
        raise ValueError("codebook counts")
    return codebook


def read_trees(codebooks, payload, n, block_size, sigma, rrr_block_size):
    """The WaveletTree of a sequence of n symbols below sigma from its codebooks and payload sections.

    The codebooks are parsed and checked first (_parse_codebooks), and
    their counts and code lengths give the payload's bit count M; the
    payload is then read into one vector of M bits, plain for
    rrr_block_size 0, and an RRR one's samples checked (see bitrank's
    read_payload), and both before any tree is read (see _read). Every
    block holds block_size symbols but the last, which holds the rest.
    ValueError or EOFError names a failed check.
    """
    wt = WaveletTree.__new__(WaveletTree)
    wt.n, wt.block_size, wt.sigma = n, min(block_size, n), sigma
    codebook = _parse_codebooks(codebooks, sigma, n, wt.block_size)
    _, _, lens, _, counts = codebook
    # n < 2^32 and every length below 64, so M fits int64
    _read(wt, read_payload(payload, rrr_block_size, int(counts @ lens)), codebook)
    return wt


def build_wt(x, shape="huffman", backend="plain", rrr_block_size=15):
    return WaveletTree(x, shape, rrr_block_size if backend == "rrr" else 0)
