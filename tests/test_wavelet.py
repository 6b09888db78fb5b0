import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmblock.bitrank import read_nodes
from fmblock.wavelet import (
    WaveletTree,
    build_wt,
    huffman_codes,
    read_trees,
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


@pytest.mark.parametrize(
    "codes",
    [
        {1: (1, 0b0), 2: (2, 0b01), 3: (1, 0b1)},  # a code extends an earlier symbol's code
        {1: (2, 0b01), 2: (1, 0b0), 3: (1, 0b1)},  # a code is a prefix of a later one
        {1: (1, 0b0), 2: (1, 0b0), 3: (1, 0b1)},  # two symbols share a code
    ],
    ids=["extends-earlier", "prefix-of-later", "duplicate"],
)
def test_codes_that_are_not_prefix_free_are_rejected(codes):
    class NoNodes:
        def read(self, nbits):
            raise AssertionError("no node may be read")

    with pytest.raises(ValueError, match="prefix-free"):
        WaveletTree.from_payload(codes, 10, NoNodes())


def test_size_report_pieces():
    seq = codes_of("ANNB$AA")
    wt = build_wt(seq, "huffman", "plain")
    assert wt_size_in_bits(wt) == wt.payload_bits + wt.directory_bits + wt.codebook_bits
    assert wt.codebook_bits == 16 + sum(16 + 8 + ln for ln, _ in wt.codes.values())
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
