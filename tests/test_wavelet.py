import heapq
import random
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmblock.bitrank import PlainBitVector, RrrBitVector
from fmblock.wavelet import (
    WaveletTree,
    _canonical,
    _node_bits,
    _parse_codebooks,
    build_wt,
    huffman_lengths,
    read_trees,
)
from helpers import brute_h0, canonical_codes, codes_of


def tree_bits(wt):
    return "".join(map(str, wt.bits.to_bits().tolist()))


def test_worked_example_tree():
    wt = build_wt(codes_of("ANNB$AA"), "huffman", "plain")
    # the three nodes in preorder, joined into one vector
    assert tree_bits(wt) == "0111100" + "0011" + "10"
    # most frequent symbol gets the shortest code
    assert wt[0].codes[codes_of("A")[0]] == (1, 0)
    assert wt.rank(codes_of("A")[0], 7) == 3
    assert wt.rank(codes_of("N")[0], 3) == 2
    assert wt.rank(codes_of("$")[0], 5) == 1
    # ranks whose position empties at a node before the leaf
    assert wt.rank(codes_of("B")[0], 3) == 0
    assert wt.rank(codes_of("$")[0], 4) == 0


def canonical(lengths):
    """{symbol: (length, code)} from _canonical, for {symbol: code length} of one tree."""
    syms = np.array(sorted(lengths), dtype=np.int64)
    lens = np.array([lengths[sym] for sym in syms.tolist()], dtype=np.int64)
    _, syms, lens, codes = _canonical(np.zeros_like(syms), syms, lens)
    return {sym: (length, code) for sym, length, code in zip(syms.tolist(), lens.tolist(), codes.tolist())}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=60))
def test_huffman_code_lengths_are_optimal_and_complete(weights):
    counts = dict(enumerate(weights))
    codes = canonical(dict(enumerate(huffman_lengths(weights))))
    # an optimal code costs the sum of the weights of all merges
    heap = list(weights)
    heapq.heapify(heap)
    merged = 0
    while len(heap) > 1:
        w = heapq.heappop(heap) + heapq.heappop(heap)
        merged += w
        heapq.heappush(heap, w)
    assert sum(counts[sym] * length for sym, (length, _) in codes.items()) == merged
    longest = max(length for length, _ in codes.values())
    assert sum(1 << (longest - length) for length, _ in codes.values()) == 1 << longest
    # canonical: in (length, symbol) order each code is the previous one plus one, shifted
    order = sorted(codes, key=lambda sym: (codes[sym][0], sym))
    for a, b in zip(order, order[1:]):
        (la, ca), (lb, cb) = codes[a], codes[b]
        assert cb == (ca + 1) << (lb - la)


def test_huffman_tie_breaks_are_deterministic():
    lengths = huffman_lengths([1, 1, 1, 1])
    # equal weights: earliest-created trees merge first, smallest symbol first
    assert canonical(dict(enumerate(lengths))) == {0: (2, 0), 1: (2, 1), 2: (2, 2), 3: (2, 3)}
    assert huffman_lengths([1, 1, 1, 1]) == lengths
    # the merged pair (weight 2) ties with both leaves of weight 2 and, created
    # last, waits: had it won the tie, the lengths would be 3, 3, 1, 2
    assert huffman_lengths([1, 1, 2, 2]) == [2, 2, 2, 2]


def test_ranks_match_scan_both_shapes_and_backends():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(1, 300)
        sigma = rng.choice([1, 2, 3, 9, 40])
        seq = [rng.randrange(sigma) for _ in range(n)]
        trees = [
            build_wt(seq, shape, backend, rrr_block_size=15)
            for shape in ("balanced", "huffman")
            for backend in ("plain", "rrr")
        ]
        for c in list(set(seq))[:6] + [sigma + 5]:
            for j in range(0, n + 1, max(1, n // 23)):
                want = seq[:j].count(c)
                for wt in trees:
                    assert wt.rank(c, j) == want


def test_rank_positions_partition_the_length():
    rng = random.Random(1)
    seq = [rng.randrange(7) for _ in range(200)]
    wt = build_wt(seq, "huffman", "plain")
    for j in (0, 3, 57, 200):
        assert sum(wt.rank(c, j) for c in set(seq)) == j


def test_single_symbol_sequence():
    wt = build_wt([5] * 40, "huffman", "plain")
    assert wt.bits.m == 0
    assert wt.rank(5, 17) == 17
    assert wt.rank(4, 17) == 0
    assert wt.code_length_bits == 0


def test_balanced_payload_is_exactly_fixed_width():
    rng = random.Random(2)
    for sigma in (2, 3, 5, 8, 26, 100):
        seq = [rng.randrange(sigma) for _ in range(500)]
        wt = build_wt(seq, "balanced", "plain")
        width = (len(set(seq)) - 1).bit_length()
        assert wt.code_length_bits == 500 * width
        # and its payload, after the tree's u32 bit count
        assert wt.size_bits()[0] == 32 + wt.code_length_bits


def test_huffman_payload_within_entropy_plus_one():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 400)
        sigma = rng.choice([2, 4, 30])
        seq = [int(rng.random() * rng.random() * sigma) for _ in range(n)]
        wt = build_wt(seq, "huffman", "plain")
        h = brute_h0(Counter(seq).values())
        assert wt.code_length_bits <= n * (h + 1) + 1e-9
        balanced = build_wt(seq, "balanced", "plain")
        assert wt.code_length_bits <= balanced.code_length_bits


def test_validation_errors():
    with pytest.raises(ValueError, match="empty"):
        build_wt([])
    for b in (0, -3):
        with pytest.raises(ValueError, match="block size must be >= 1"):
            WaveletTree([1, 2, 3], block_size=b)
    with pytest.raises(ValueError, match="shape"):
        build_wt([1], "fibonacci")
    with pytest.raises(ValueError, match="symbols must be non-negative"):
        build_wt([3, -1, 2])
    wt = build_wt([1, 2, 3])
    with pytest.raises(ValueError, match="out of range"):
        wt.rank(1, 4)


def test_codebook_reconstruction_round_trip():
    rng = random.Random(5)
    seq = [rng.randrange(9) for _ in range(257)]
    for backend in ("plain", "rrr"):
        wt = build_wt(seq, "huffman", backend)
        rebuilt = read_trees(*wt.sections(), len(seq), len(seq), 9, 15 if backend == "rrr" else 0)
        assert rebuilt[0].codes == wt[0].codes
        assert [rebuilt.rank(c, j) for c in range(9) for j in (0, 100, 257)] == [
            wt.rank(c, j) for c in range(9) for j in (0, 100, 257)
        ]


@pytest.mark.parametrize("backend,vector", [("plain", PlainBitVector), ("rrr", RrrBitVector)])
def test_reading_a_tree_makes_one_rank1_call_per_node(backend, vector, monkeypatch):
    # no scalar rank1 call: each node starts where the one before it ended, so
    # only its end is ranked, in one rank1_many call per depth with the ends of
    # every node there
    rng = random.Random(8)
    seq = [int(rng.random() ** 3 * 60) for _ in range(3000)]
    built = build_wt(seq, "huffman", backend)
    sections = built.sections()
    calls, many = [], []
    rank1, rank1_many = vector.rank1, vector.rank1_many
    monkeypatch.setattr(vector, "rank1", lambda self, j: calls.append(j) or rank1(self, j))
    monkeypatch.setattr(vector, "rank1_many", lambda self, j: many.append(j.tolist()) or rank1_many(self, j))
    loaded = read_trees(*sections, len(seq), len(seq), 60, 15 if backend == "rrr" else 0)
    monkeypatch.undo()
    assert calls == []
    # an RRR payload's padding check comes first, before any node is read: one position, the tree's limit
    rrr = backend == "rrr"
    if rrr:
        assert many.pop(0) == [loaded[0].leaf]
    depth = max(length for length, _ in built[0].codes.values())
    assert len(many) == depth
    # a Huffman tree over k symbols has k - 1 internal nodes, laid out level by
    # level: their ends rise from the tree's start to its leaf, each once
    ends = [j for level in many for j in level]
    assert len(ends) == len(Counter(seq)) - 1
    assert ends == sorted(set(ends)) and loaded[0].start < ends[0] and ends[-1] == loaded[0].leaf
    assert loaded.totals.tolist() == [Counter(seq)[c] for c in range(60)]
    assert [loaded.rank(c, len(seq)) for c in range(60)] == [built.rank(c, len(seq)) for c in range(60)]


def test_rrr_trees_lay_nodes_out_as_plain_trees_do():
    rng = random.Random(9)
    seq = [int(rng.random() ** 2 * 40) for _ in range(2000)]
    plain = build_wt(seq, "huffman", "plain")
    for t in (1, 3, 15, 17):
        rrr = build_wt(seq, "huffman", "rrr", t)
        assert (rrr[0].start, rrr[0].leaf, rrr[0]._items()) == (plain[0].start, plain[0].leaf, plain[0]._items())
        assert rrr.bits.to_bits().tolist() == plain.bits.to_bits().tolist()


def test_a_node_of_no_bits_is_rejected_at_load():
    def codebook(lengths):
        entries = b"".join(struct.pack("<HB", sym, length) for sym, length in sorted(lengths.items()))
        return struct.pack("<H", len(lengths)) + entries

    # symbol 0 (code 0) fills the block: a leaf of no elements loads, a node
    # of no bits does not; the root holds 8 zero bits
    root = struct.pack("<I", 8) + b"\0"
    wt = read_trees(codebook({0: 1, 1: 1}), root, 8, 8, 3, 0)
    assert (wt.rank(0, 8), wt.rank(1, 8)) == (8, 0) and wt.totals.tolist() == [8, 0, 0]
    with pytest.raises(ValueError, match="empty node"):
        read_trees(codebook({0: 1, 1: 2, 2: 2}), root, 8, 8, 3, 0)


def test_size_report_pieces():
    seq = codes_of("ANNB$AA")
    wt = build_wt(seq, "huffman", "plain")
    payload, directories, codebooks = wt.size_bits()
    m = wt.code_length_bits
    # the u32 bit count and the bits, stored in whole bytes; one 16-bit
    # counter per word the tree takes, with the spare word, and one 64-bit
    # rank for the one superblock
    assert (payload, directories) == (32 + m, 16 * (-(-m // 64) + 1) + 64)
    assert 8 * len(wt.sections()[1]) == 32 + 8 * -(-m // 8)
    # a 16-bit code count, then a 16-bit symbol and an 8-bit code length per symbol, and no code bits
    assert codebooks == 16 + 24 * len(wt[0].codes) == 8 * len(wt.sections()[0])
    assert wt.rank(codes_of("A")[0], 7) == 3


@st.composite
def layout_sequences(draw):
    """Sequences of one symbol, of up to 9 or 24 symbols, of symbols up to 2,000, or of Fibonacci weights."""
    kind = draw(st.sampled_from(["one", "small", "wide", "fibonacci"]))
    if kind == "one":
        return [draw(st.integers(0, 2000))] * draw(st.integers(1, 50))
    if kind == "fibonacci":
        # k Fibonacci weights give a Huffman code k - 1 deep, and every k here is above 17
        k = draw(st.integers(18, 21))
        weights = [1, 1]
        while len(weights) < k:
            weights.append(weights[-1] + weights[-2])
        syms = draw(st.lists(st.integers(0, 600), min_size=len(weights), max_size=len(weights), unique=True))
        seq = [sym for sym, w in zip(syms, weights) for _ in range(w)]
        draw(st.randoms(use_true_random=False)).shuffle(seq)
        return seq
    top = 2000 if kind == "wide" else draw(st.sampled_from([8, 23]))
    return draw(st.lists(st.integers(0, top), min_size=1, max_size=300))


def layout_by_depth(seq, codes):
    """The node bits of a tree, from its codes alone: per depth, the elements whose codes are
    longer, stably sorted by their prefix at that depth, each giving its code bit there."""
    lens = np.array([codes[x][0] for x in seq], dtype=np.int64)
    values = np.array([codes[x][1] for x in seq], dtype=np.int64)
    out = []
    for depth in range(int(lens.max())):
        deeper = lens > depth
        prefix = values[deeper] >> (lens[deeper] - depth)
        bit = values[deeper] >> (lens[deeper] - 1 - depth) & 1
        out.append(bit[np.argsort(prefix, kind="stable")])
    return np.concatenate([np.zeros(0, dtype=np.int64), *out]).tolist()


@settings(max_examples=80, deadline=None)
@given(layout_sequences(), st.sampled_from(["huffman", "balanced"]))
@example([0, 1, 2, 0, 2, 1, 1], "balanced")
@example([300, 301, 302, 303, 304, 300], "balanced")
def test_node_bits_equal_a_layout_by_depth(seq, shape):
    counts = np.bincount(seq)
    syms = np.flatnonzero(counts).tolist()
    if shape == "huffman":
        codes = canonical(dict(zip(syms, huffman_lengths(counts[syms].tolist()))))
    else:
        codes = canonical(dict.fromkeys(syms, (len(syms) - 1).bit_length()))
    lens, values = np.zeros((2, len(counts)), dtype=np.int64)
    for sym, (length, code) in codes.items():
        lens[sym], values[sym] = length, code
    want = layout_by_depth(seq, codes)
    assert _node_bits(np.array(seq), counts, lens, values).tolist() == want
    assert build_wt(seq, shape, "plain").bits.to_bits().tolist() == want


@st.composite
def sequences(draw):
    """Sequences over 1 to 40 symbols below 300, of length 1..700, mostly skewed."""
    alphabet = draw(st.lists(st.integers(0, 299), min_size=1, max_size=40, unique=True))
    n = draw(st.integers(1, 700))
    skew = draw(st.sampled_from([0.0, 1.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(len(alphabet)) ** (1 + 4 * skew)
    return np.array(alphabet)[rng.choice(len(alphabet), n, p=weights / weights.sum())]


@settings(max_examples=60, deadline=None)
@given(sequences(), st.sampled_from(["plain", "rrr"]), st.sampled_from([1, 3, 15, 16, 17, 63]))
@example(np.full(1, 0), "plain", 15)
@example(np.full(33, 299), "rrr", 1)
def test_built_and_loaded_trees_agree_at_every_node_boundary(seq, backend, t):
    wt = build_wt(seq, "huffman", backend, t)
    sections = wt.sections()
    sigma = int(seq.max()) + 1
    back = read_trees(*sections, len(seq), len(seq), sigma, t if backend == "rrr" else 0)
    assert back.totals.tolist() == np.bincount(seq, minlength=sigma).tolist()
    assert back.sections() == sections
    assert back.bits.to_bits().tolist() == wt.bits.to_bits().tolist()
    assert (back[0].start, back[0].leaf, back[0]._items()) == (wt[0].start, wt[0].leaf, wt[0]._items())
    at = sorted({0, len(seq), *range(1, len(seq), max(1, len(seq) // 37))})
    for c in [*np.unique(seq).tolist(), 300]:
        prefix = np.concatenate([[0], np.cumsum(seq == c)])
        want = prefix[at].tolist()
        assert [wt.rank(c, j) for j in at] == want
        assert [back.rank(c, j) for j in at] == want


@st.composite
def blocked_trees(draw):
    """A WaveletTree over blocks of b = 1, 2, n - 1, n or n + 1, with its sequence: n up to 150, 1 to 30 symbols."""
    sigma = draw(st.integers(1, 30))
    seq = np.array(draw(st.lists(st.integers(0, sigma - 1), min_size=1, max_size=150)))
    n = len(seq)
    b = draw(st.sampled_from([1, 2, max(n - 1, 1), n, n + 1]))
    shape = draw(st.sampled_from(["huffman", "balanced"]))
    t = draw(st.sampled_from([0, 1, 15, 16, 63]))  # 0: plain
    return WaveletTree(seq, shape, t, block_size=b), seq


@settings(max_examples=80, deadline=None)
@given(blocked_trees())
def test_rank_over_blocks_equals_a_scan(tree_seq):
    # every symbol up to sigma, which no block holds, at every position, by
    # rank and by batch_rank: a row of the block of position j - 1, plus a
    # rank in its tree; batch_rank's ranks go down every level in numpy
    # rounds (tail 0), or finish with scalar rank1s once 2 or fewer descend
    wt, seq = tree_seq
    n, sigma = len(seq), int(seq.max()) + 1
    assert len(wt) == -(-n // min(wt.block_size, n))
    ranks = [wt.batch_rank(0), wt.batch_rank(2)]
    at = np.arange(n + 1)
    for c in range(sigma + 1):
        prefix = np.concatenate([[0], np.cumsum(seq == c)]).tolist()
        assert [wt.rank(c, j) for j in range(n + 1)] == prefix
        if c < sigma:
            assert [rank(np.full(n + 1, c), at).tolist() for rank in ranks] == [prefix, prefix]


@st.composite
def kraft_trees(draw):
    """Code lengths of a full binary tree, {symbol: length}: one symbol of length 0, or up to 64 deep.

    A tree grows by splitting a leaf into two one level deeper; splitting the
    deepest leaf again and again reaches lengths from 33 to 64.
    """
    depths = [0]
    for _ in range(draw(st.integers(0, 70))):
        open_leaves = [i for i, d in enumerate(depths) if d < 64]
        deepest = max(open_leaves, key=lambda i: depths[i])
        i = deepest if draw(st.booleans()) else draw(st.sampled_from(open_leaves))
        depths[i] += 1
        depths.append(depths[i])
    syms = draw(st.lists(st.integers(0, 299), min_size=len(depths), max_size=len(depths), unique=True))
    return dict(zip(syms, depths))


def codebooks(trees):
    """The codebooks section of trees, each {symbol: code length}, or its (symbol, length) entries in order."""
    entries = [sorted(tree.items()) if isinstance(tree, dict) else tree for tree in trees]
    counts = struct.pack(f"<{len(entries)}H", *map(len, entries))
    return counts + b"".join(struct.pack("<HB", sym, length) for tree in entries for sym, length in tree)


def parse_error(trees, extra=b""):
    with pytest.raises(ValueError) as info:
        _parse_codebooks(codebooks(trees) + extra, len(trees), 300)
    return str(info.value)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(kraft_trees(), min_size=1, max_size=6),
    st.data(),
)
def test_codebooks_parsed_at_once_equal_canonical_codes_tree_by_tree(trees, data):
    tree, syms, lens, codes = _parse_codebooks(codebooks(trees), len(trees), 300)
    assert tree.tolist() == [i for i, lengths in enumerate(trees) for _ in lengths]
    got = list(zip(tree.tolist(), syms.tolist(), lens.tolist(), codes.tolist()))
    want = [
        (i, sym, length, code)
        for i, lengths in enumerate(trees)
        for sym, (length, code) in canonical_codes(lengths).items()
    ]
    assert got == want
    # a byte past the last entry, alone or after other trees
    assert parse_error(trees[:1], b"\0") == parse_error(trees, b"\0") == "codebook length"
    # breaking only the k-th tree fails the check that breaking it alone fails
    k = data.draw(st.integers(0, len(trees) - 1), label="k")
    lengths = trees[k]
    breaks = []
    if len(lengths) > 1:
        # the second entry takes the first one's symbol
        entries = sorted(lengths.items())
        breaks.append([entries[0], (entries[0][0], entries[1][1]), *entries[2:]])
    sym = data.draw(st.sampled_from(sorted(lengths)), label="lengthened")
    breaks.append({**lengths, sym: lengths[sym] + 1})
    if len(lengths) > 1:
        # every code one bit shorter: Kraft's sum is 2^65, 0 mod 2^64
        breaks.append({sym: length - 1 for sym, length in lengths.items()})
    for broken in breaks:
        alone = parse_error([broken])
        assert alone in ("codebook symbols", "codebook code lengths")
        assert parse_error(trees[:k] + [broken] + trees[k + 1 :]) == alone


def test_a_one_symbol_tree_and_a_64_deep_tree_parse_together():
    # a caterpillar: lengths 1, 2, ..., 63, 64, 64, whose Kraft sum is 2^64
    # only when taken exactly, past any float
    deep = {sym: min(sym + 1, 64) for sym in range(65)}
    tree, syms, lens, codes = _parse_codebooks(codebooks([{5: 0}, deep]), 2, 300)
    assert list(zip(tree.tolist(), syms.tolist(), lens.tolist(), codes.tolist())) == [(0, 5, 0, 0)] + [
        (1, sym, length, code) for sym, (length, code) in canonical_codes(deep).items()
    ]
    assert codes[-1] == 2**64 - 1
    assert parse_error([{5: 0}, {**deep, 64: 65}]) == "codebook code lengths"
    assert parse_error([{**deep, 63: 63}]) == "codebook code lengths"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 299), min_size=1, max_size=40, unique=True), min_size=1, max_size=6))
def test_canonical_codes_of_balanced_trees_equal_the_reference(alphabets):
    # fixed-width codes, ceil(log2 k) bits for k symbols, fall short of Kraft
    # equality unless k is a power of two: a build assigns their codes with
    # the load's rule all the same, each tree's sum from 0, though a load
    # rejects them
    trees = [dict.fromkeys(alphabet, (len(alphabet) - 1).bit_length()) for alphabet in alphabets]
    tree = np.repeat(np.arange(len(trees)), [len(lengths) for lengths in trees])
    syms = np.array([sym for lengths in trees for sym in sorted(lengths)], dtype=np.int64)
    lens = np.array([lengths[sym] for lengths in trees for sym in sorted(lengths)], dtype=np.int64)
    got = list(zip(*(a.tolist() for a in _canonical(tree, syms, lens))))
    want = [
        (i, sym, length, code)
        for i, lengths in enumerate(trees)
        for sym, (length, code) in canonical_codes(lengths).items()
    ]
    assert got == want
    # the i-th smallest symbol gets code i
    assert [code for _, _, _, code in got] == [i for alphabet in alphabets for i in range(len(alphabet))]
    if any(len(alphabet) & (len(alphabet) - 1) for alphabet in alphabets):
        assert parse_error(trees) == "codebook code lengths"
    else:
        assert _parse_codebooks(codebooks(trees), len(trees), 300)[3].tolist() == [code for *_, code in want]
