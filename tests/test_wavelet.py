import heapq
import random
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmblock.bitrank import PlainBitVector, RrrBitVector, read_nodes
from fmblock.wavelet import (
    WaveletTree,
    build_wt,
    huffman_codes,
    read_trees,
    share_vector,
    wt_rank,
    wt_size_in_bits,
)
from helpers import brute_h0, codes_of


def tree_bits(wt):
    return "".join(map(str, wt.bits.to_bits().tolist()))


def test_worked_example_tree():
    wt = build_wt(codes_of("ANNB$AA"), "huffman", "plain")
    # the three nodes in preorder, joined into one vector
    assert tree_bits(wt) == "0111100" + "0011" + "10"
    # most frequent symbol gets the shortest code
    assert wt.codes[codes_of("A")[0]] == (1, 0)
    assert wt.rank(codes_of("A")[0], 7) == 3
    assert wt.rank(codes_of("N")[0], 3) == 2
    assert wt.rank(codes_of("$")[0], 5) == 1
    # ranks whose position empties at a node before the leaf
    assert wt.rank(codes_of("B")[0], 3) == 0
    assert wt.rank(codes_of("$")[0], 4) == 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=60))
def test_huffman_code_lengths_are_optimal_and_complete(weights):
    counts = dict(enumerate(weights))
    codes = huffman_codes(counts.keys(), counts)
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
    counts = {0: 1, 1: 1, 2: 1, 3: 1}
    codes = huffman_codes(counts.keys(), counts)
    # equal weights: earliest-created trees merge first, smallest symbol first
    assert codes == {0: (2, 0), 1: (2, 1), 2: (2, 2), 3: (2, 3)}
    rebuilt = huffman_codes(counts.keys(), counts)
    assert rebuilt == codes


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
        assert wt.payload_bits == wt.code_length_bits


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
    with pytest.raises(ValueError, match="shape"):
        build_wt([1], "fibonacci")
    wt = build_wt([1, 2, 3])
    with pytest.raises(ValueError, match="out of range"):
        wt.rank(1, 4)


def test_codebook_reconstruction_round_trip():
    rng = random.Random(5)
    seq = [rng.randrange(9) for _ in range(257)]
    for backend in ("plain", "rrr"):
        wt = build_wt(seq, "huffman", backend)
        nodes = read_nodes(wt.payload_section(), backend)
        rebuilt = WaveletTree.from_payload(wt.codes, wt.length, nodes)
        assert [rebuilt.rank(c, j) for c in range(9) for j in (0, 100, 257)] == [
            wt.rank(c, j) for c in range(9) for j in (0, 100, 257)
        ]


@pytest.mark.parametrize("backend,vector", [("plain", PlainBitVector), ("rrr", RrrBitVector)])
def test_symbol_counts_make_at_most_two_rank1_calls_per_node(backend, vector, monkeypatch):
    rng = random.Random(7)
    seq = [int(rng.random() ** 3 * 60) for _ in range(3000)]
    built = build_wt(seq, "huffman", backend)
    (loaded,) = read_trees([(built.codebook_section(), built.payload_section())], [len(seq)], 60, backend, 15)
    calls = []
    rank1 = vector.rank1
    monkeypatch.setattr(vector, "rank1", lambda self, j: calls.append(j) or rank1(self, j))
    for wt in (built, loaded, *share_vector([built])):
        calls.clear()
        assert wt.symbol_counts() == Counter(seq)
        # a Huffman tree over k symbols has k - 1 internal nodes
        assert 0 < len(calls) <= 2 * (len(Counter(seq)) - 1)


@pytest.mark.parametrize("backend,vector", [("plain", PlainBitVector), ("rrr", RrrBitVector)])
def test_reading_a_tree_makes_one_rank1_call_per_node(backend, vector, monkeypatch):
    # each node starts where the one before it ended, so only its end is ranked
    rng = random.Random(8)
    seq = [int(rng.random() ** 3 * 60) for _ in range(3000)]
    built = build_wt(seq, "huffman", backend)
    # an RRR section's padding check, before any node is read, is not counted
    nodes = read_nodes(built.payload_section(), backend)
    calls = []
    rank1 = vector.rank1
    monkeypatch.setattr(vector, "rank1", lambda self, j: calls.append(j) or rank1(self, j))
    loaded = WaveletTree.from_payload(built.codes, len(seq), nodes)
    # a Huffman tree over k symbols has k - 1 internal nodes
    assert len(calls) == len(Counter(seq)) - 1
    assert calls == sorted(set(calls))
    monkeypatch.undo()
    assert [loaded.rank(c, len(seq)) for c in range(60)] == [built.rank(c, len(seq)) for c in range(60)]


def test_rrr_trees_lay_nodes_out_as_plain_trees_do():
    rng = random.Random(9)
    seq = [int(rng.random() ** 2 * 40) for _ in range(2000)]
    plain = build_wt(seq, "huffman", "plain")
    for t in (1, 3, 15, 17):
        rrr = build_wt(seq, "huffman", "rrr", t)
        assert (rrr.start, rrr.leaf, rrr._paths) == (plain.start, plain.leaf, plain._paths)
        assert rrr.bits.to_bits().tolist() == plain.bits.to_bits().tolist()


def test_a_node_of_no_bits_is_rejected_at_load():
    def codebook(lengths):
        entries = b"".join(struct.pack("<HB", sym, length) for sym, length in sorted(lengths.items()))
        return struct.pack("<H", len(lengths)) + entries

    # symbol 0 (code 0) fills the block: a leaf of no elements loads, a node of no bits does not
    (wt,) = read_trees([(codebook({0: 1, 1: 1}), b"\0")], [8], 3, "plain", 15)
    assert (wt.rank(0, 8), wt.rank(1, 8)) == (8, 0)
    with pytest.raises(ValueError, match="empty node"):
        read_trees([(codebook({0: 1, 1: 2, 2: 2}), b"\0")], [8], 3, "plain", 15)


def test_size_report_pieces():
    seq = codes_of("ANNB$AA")
    wt = build_wt(seq, "huffman", "plain")
    assert wt_size_in_bits(wt) == wt.payload_bits + wt.directory_bits + wt.codebook_bits
    # a 16-bit symbol and an 8-bit code length per symbol, and no code bits
    assert wt.codebook_bits == 16 + 24 * len(wt.codes) == 8 * len(wt.codebook_section())
    assert wt_rank(wt, codes_of("A")[0], 7) == 3


@st.composite
def sequences(draw):
    """Sequences over up to 40 symbols below 300, of length 1..700, mostly skewed."""
    alphabet = draw(st.lists(st.integers(0, 299), min_size=2, max_size=40, unique=True))
    n = draw(st.integers(1, 700))
    skew = draw(st.sampled_from([0.0, 1.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(len(alphabet)) ** (1 + 4 * skew)
    return np.array(alphabet)[rng.choice(len(alphabet), n, p=weights / weights.sum())]


@settings(max_examples=60, deadline=None)
@given(sequences(), st.sampled_from(["plain", "rrr"]), st.sampled_from([1, 3, 15, 16, 17, 63]))
def test_built_and_loaded_trees_agree_at_every_node_boundary(seq, backend, t):
    wt = build_wt(seq, "huffman", backend, t)
    sections = (wt.codebook_section(), wt.payload_section())
    (back,) = read_trees([sections], [len(seq)], int(seq.max()) + 1, backend, t)
    assert (back.codebook_section(), back.payload_section()) == sections
    assert back.bits.to_bits().tolist() == wt.bits.to_bits().tolist()
    at = sorted({0, len(seq), *range(1, len(seq), max(1, len(seq) // 37))})
    for c in [*np.unique(seq).tolist(), 300]:
        prefix = np.concatenate([[0], np.cumsum(seq == c)])
        want = prefix[at].tolist()
        assert [wt.rank(c, j) for j in at] == want
        assert [back.rank(c, j) for j in at] == want
        if c in wt.codes:
            assert wt.symbol_counts()[c] == back.symbol_counts()[c] == want[-1]
