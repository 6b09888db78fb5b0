import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmblock.textcore import (
    Bwt,
    Text,
    build_text,
    bwt,
    inverse_bwt,
    naive_count,
    naive_rank,
    suffix_array,
    symbol_counts,
)
from helpers import (
    brute_bwt,
    brute_count,
    brute_suffix_array,
    check_suffix_array,
    codes_of,
    markov2_codes,
    random_codes,
    random_text,
)


def test_build_text_maps_bytes_to_dense_codes():
    t = build_text(b"BANANA")
    assert t.n == 7
    assert t.sigma == 4
    assert t.byte_for_code == b"ABN"
    assert t.data.tolist() == [2, 1, 3, 1, 3, 1, 0]


def test_build_text_rejects_empty_input():
    with pytest.raises(ValueError, match="empty text"):
        build_text(b"")


def test_text_invariants_are_checked():
    with pytest.raises(ValueError):
        Text(np.array([1, 2]), 3, b"ab")  # no sentinel
    with pytest.raises(ValueError):
        Text(np.array([0, 1, 0]), 2, b"a")  # two sentinels
    with pytest.raises(ValueError):
        Text(np.array([5, 0]), 3, b"ab")  # code out of range


def test_translate_and_unknown_bytes():
    t = build_text(b"BANANA")
    assert t.translate(b"ANA") == [1, 3, 1]
    assert t.translate(b"BANANAZ") is None
    assert t.translate(b"") == []


def test_suffix_array_worked_example():
    t = build_text(b"BANANA")
    assert suffix_array(t).tolist() == [6, 5, 3, 1, 0, 4, 2]


def test_suffix_array_matches_brute_force():
    rng = random.Random(0)
    for _ in range(80):
        t = random_text(rng, rng.randint(1, 200), rng.choice([2, 3, 5, 26]))
        assert suffix_array(t).tolist() == brute_suffix_array(t.data)


def test_suffix_array_single_sentinel():
    t = Text.from_codes([], 2)
    assert suffix_array(t).tolist() == [0]


def assert_suffix_order(codes, sigma):
    t = Text.from_codes(codes, sigma)
    sa = suffix_array(t)
    assert sa.dtype == np.int64
    assert np.array_equal(np.sort(sa), np.arange(t.n))
    assert sa.tolist() == brute_suffix_array(t.data)


# the packed first stage holds q = (64 - B) // w symbols, B the bit length of n
# and w that of sigma-1: below n = 64, q = 58-63 at sigma 2, 19-21 at sigma 8,
# 8-9 at sigma 97 and 6-7 at sigma 257
SIGMAS = st.sampled_from([2, 3, 8, 97, 256, 257])


@st.composite
def coded(draw, lengths):
    sigma = draw(SIGMAS)
    codes = draw(st.lists(st.integers(1, sigma - 1), max_size=lengths))
    return codes, sigma


@settings(max_examples=300, deadline=None)
@given(coded(lengths=300))
def test_suffix_array_property_random_texts(case):
    assert_suffix_order(*case)


@settings(max_examples=200, deadline=None)
@given(coded(lengths=8), st.integers(0, 300))
def test_suffix_array_property_unary_and_periodic_texts(case, n):
    period, sigma = case
    codes = (period * n)[:n] if period else [sigma - 1] * n
    assert_suffix_order(codes, sigma)


@settings(max_examples=200, deadline=None)
@given(coded(lengths=60), st.integers(2, 12), st.lists(st.integers(0, 10**6), max_size=4))
def test_suffix_array_property_repeated_blocks_with_edits(case, copies, edits):
    # copies of a block share long prefixes, so more than half the suffixes
    # outlast stage 1, as on the benchmark texts, and the rounds in text order run
    block, sigma = case
    codes = block * copies
    for at in edits:
        if codes:
            codes[at % len(codes)] = 1 + at % (sigma - 1)
    assert_suffix_order(codes, sigma)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_suffix_array_property_texts_shorter_than_the_packed_window(data):
    sigma = data.draw(SIGMAS)
    # the window at n = 1, so that the longest texts pass the window at their n
    q = 63 // (sigma - 1).bit_length()
    codes = data.draw(st.lists(st.integers(1, sigma - 1), max_size=q))
    assert_suffix_order(codes, sigma)


def test_suffix_array_extreme_alphabets():
    rng = random.Random(4)
    for sigma in (2, 257):
        for n in (0, 1, 5, 56, 57, 58, 61, 62, 63, 200):
            assert_suffix_order(random_codes(rng, n, sigma), sigma)
            assert_suffix_order([sigma - 1] * n, sigma)


def test_check_suffix_array_rejects_a_wrong_order():
    t = build_text(b"MISSISSIPPI")
    sa = suffix_array(t)
    assert check_suffix_array(t.data, sa)
    swapped = sa.copy()
    swapped[[4, 5]] = swapped[[5, 4]]
    assert not check_suffix_array(t.data, swapped)
    assert not check_suffix_array(t.data, np.zeros(t.n, dtype=np.int64))


@pytest.mark.parametrize("n", [2**21 - 1, 2**21])
def test_suffix_array_on_both_sides_of_the_packed_round_key(n):
    # below n = 2^21 a round packs two ranks and a position in 64 bits; from
    # there on it argsorts the two ranks. A random binary text leaves most
    # suffixes sharing stage 1's 21 symbols, so both sides run their rounds
    codes = np.random.default_rng(n).integers(1, 3, n - 1)
    t = Text(np.append(codes, 0), 3, b"ab")
    assert check_suffix_array(t.data, suffix_array(t))


def _fibonacci_word(n):
    a, b = [1], [1, 2]
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


PEAK_TEXTS = {
    "fibonacci": lambda n: (_fibonacci_word(n), 3),
    "markov": lambda n: (markov2_codes(3, n, 8), 8),
    "random": lambda n: (np.random.default_rng(0).integers(1, 3, n).tolist(), 3),
}


# the tracemalloc peak, in bytes per symbol, of the argsort-based sort that
# the packed sort replaced, on each of these texts at n = 2^18
@pytest.mark.parametrize("name, before", [("fibonacci", 36.26), ("markov", 32.61), ("random", 21.26)])
def test_suffix_array_peak_memory_per_symbol(name, before):
    t = Text.from_codes(*PEAK_TEXTS[name](2**18 - 1))
    tracemalloc.start()
    try:
        sa = suffix_array(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check_suffix_array(t.data, sa)
    assert peak <= before * t.n


def test_bwt_worked_example():
    t = build_text(b"BANANA")
    b = bwt(t)
    assert b.l.tolist() == codes_of("ANNB$AA")
    assert b.c == [0, 1, 4, 5, 7]


def test_bwt_matches_rotation_sort():
    rng = random.Random(1)
    for _ in range(60):
        t = random_text(rng, rng.randint(1, 120), rng.choice([2, 4, 10]))
        b = bwt(t)
        assert b.l.tolist() == brute_bwt(t.data)
        counts = symbol_counts(t)
        assert b.c == [int(counts[:x].sum()) for x in range(t.sigma + 1)]
        assert sorted(b.l.tolist()) == sorted(t.data.tolist())


def test_bwt_rejects_inconsistent_counts():
    with pytest.raises(ValueError, match="inconsistent"):
        Bwt([1, 0], [0, 1], 2)


def test_inverse_bwt_worked_example():
    t = build_text(b"BANANA")
    assert inverse_bwt(bwt(t)) == t


def test_inverse_bwt_round_trip_random():
    rng = random.Random(2)
    for _ in range(60):
        t = random_text(rng, rng.randint(0, 150), rng.choice([2, 3, 7, 26]))
        assert inverse_bwt(bwt(t)) == t


def test_inverse_bwt_rejects_malformed_input():
    with pytest.raises(ValueError, match="malformed BWT"):
        inverse_bwt(Bwt.from_sequence([1, 1], sigma=2))
    with pytest.raises(ValueError, match="malformed BWT"):
        inverse_bwt(Bwt.from_sequence([0, 1, 0], sigma=2))


def test_naive_count_worked_examples():
    t = build_text(b"BANANA")
    assert naive_count(t, t.translate(b"ANA")) == 2
    assert naive_count(t, t.translate(b"BANANA")) == 1
    assert naive_count(t, t.translate(b"A")) == 3
    assert naive_count(t, []) == t.n
    assert naive_count(t, [9]) == 0
    assert naive_count(t, [0]) == 0  # the sentinel is not part of any pattern


def test_naive_count_counts_overlaps():
    t = build_text(b"AAAA")
    assert naive_count(t, [1, 1]) == 3


def test_naive_count_matches_quadratic_scan():
    rng = random.Random(3)
    for _ in range(40):
        sigma = rng.choice([2, 3, 4])
        t = random_text(rng, rng.randint(1, 60), sigma)
        codes = t.data[:-1].tolist()
        for _ in range(30):
            ln = rng.randint(1, 5)
            p = [rng.randrange(1, sigma) for _ in range(ln)]
            assert naive_count(t, p) == brute_count(codes, p)


def test_naive_rank():
    l = codes_of("ANNB$AA")
    assert naive_rank(l, 1, 7) == 3
    assert naive_rank(l, 3, 3) == 2
    assert naive_rank(l, 1, 0) == 0
    assert naive_rank("ANNB$AA", "A", 6) == 2
    with pytest.raises(ValueError, match="out of range"):
        naive_rank(l, 1, 8)


def test_large_alphabet_uses_wide_codes():
    raw = bytes(range(256)) * 2
    t = build_text(raw)
    assert t.sigma == 257
    assert t.data.dtype == np.uint16
    assert inverse_bwt(bwt(t)) == t
