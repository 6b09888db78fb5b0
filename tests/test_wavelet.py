import random
from collections import Counter

import pytest

from fmblock.wavelet import WaveletTree, build_wt, huffman_codes, wt_rank, wt_size_in_bits
from helpers import brute_h0, codes_of


def node_bits(wt):
    return ["".join(map(str, n.to_bits().tolist())) for n in wt.nodes]


def test_worked_example_tree():
    wt = build_wt(codes_of("ANNB$AA"), "huffman", "plain")
    assert node_bits(wt) == ["0111100", "0011", "10"]
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
    assert wt.nodes == []
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
        nodes = iter(wt.nodes)

        def reader(nbits):
            node = next(nodes)
            assert node.m == nbits
            return node

        rebuilt = WaveletTree.from_codebook(wt.codes, wt.length, "huffman", backend, 15, reader)
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
    def reader(nbits):
        raise AssertionError("no node may be read")

    with pytest.raises(ValueError, match="prefix-free"):
        WaveletTree.from_codebook(codes, 10, "huffman", "plain", 15, reader)


def test_size_report_pieces():
    seq = codes_of("ANNB$AA")
    wt = build_wt(seq, "huffman", "plain")
    assert wt_size_in_bits(wt) == wt.payload_bits + wt.directory_bits + wt.codebook_bits
    assert wt.codebook_bits == 16 + sum(16 + 8 + ln for ln, _ in wt.codes.values())
    assert wt_rank(wt, codes_of("A")[0], 7) == 3
