import random
from collections import Counter

import numpy as np
import pytest

from fmblock.entropy import (
    Partition,
    _pair_ids,
    concat_entropy_terms,
    context_partition,
    fixed_partition,
    h0,
    hk,
    pair_entropy_bits,
    partition_entropy,
    verify_lemma3,
)
from fmblock.textcore import Text, build_text, bwt
from helpers import brute_h0, random_text

REL = 1e-9


def close(a, b, rel=REL):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def test_h0_worked_values():
    t = build_text(b"BANANA")
    assert abs(h0(t.data) - 1.8424) < 1e-4
    assert h0([7] * 50) == 0.0
    assert close(h0([0, 1] * 32), 1.0)
    assert close(h0("AB" * 8), 1.0)
    with pytest.raises(ValueError, match="empty"):
        h0([])


def test_h0_counts_negative_symbols():
    assert h0([-1, 0]) == 1.0


def test_h0_matches_direct_formula():
    rng = random.Random(0)
    for _ in range(50):
        seq = [rng.randrange(rng.choice([2, 5, 30])) for _ in range(rng.randint(1, 400))]
        assert close(h0(seq), brute_h0(Counter(seq).values()))


def test_hk_order_zero_equals_h0():
    rng = random.Random(1)
    for _ in range(20):
        t = random_text(rng, rng.randint(1, 200), rng.choice([2, 4, 26]))
        assert close(hk(t, 0), h0(t.data))


def test_hk_is_non_increasing_in_k():
    rng = random.Random(2)
    for _ in range(15):
        t = random_text(rng, rng.randint(10, 300), rng.choice([2, 3, 8]))
        values = [hk(t, k) for k in range(5)]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + REL


def test_hk_known_structured_text():
    # alternating symbols: one-symbol context pins the successor exactly
    t = Text.from_codes([1, 2] * 50, 3)
    assert close(hk(t, 0), h0(t.data))
    assert hk(t, 1) < 0.2
    with pytest.raises(ValueError, match="non-negative"):
        hk(t, -1)


def test_pair_ids_number_pairs_in_sorted_order_on_both_paths():
    # small keys take the bincount path, keys of n or more the sorting path
    rng = np.random.default_rng(6)
    for b_hi in (3, 40, 10_000):
        a = rng.integers(0, 7, 300)
        b = rng.integers(0, b_hi, 300)
        want = np.unique(a * (int(b.max()) + 1) + b, return_inverse=True)[1]
        assert np.array_equal(_pair_ids(a, b), want), b_hi


def test_partition_validation_and_blocks():
    p = Partition(7, [3, 6])
    assert p.blocks() == [(0, 3), (3, 6), (6, 7)]
    assert p.block_count == 3
    assert p.block_sizes() == [3, 3, 1]
    with pytest.raises(ValueError):
        Partition(7, [0])
    with pytest.raises(ValueError):
        Partition(7, [7])
    with pytest.raises(ValueError):
        Partition(7, [4, 4])


def test_fixed_partition_shapes():
    assert fixed_partition(7, 3).blocks() == [(0, 3), (3, 6), (6, 7)]
    assert fixed_partition(7, 7).blocks() == [(0, 7)]
    assert fixed_partition(7, 100).blocks() == [(0, 7)]
    assert fixed_partition(7, 1).block_count == 7
    with pytest.raises(ValueError, match="block size"):
        fixed_partition(7, 0)


def test_context_partition_worked_example():
    t = build_text(b"BANANA")
    b = bwt(t)
    assert context_partition(b, t, 1).boundaries == [1, 4, 5]
    assert context_partition(b, t, 0).block_count == 1
    assert context_partition(b, t, 3).block_count <= min(4**3, 7)


def test_context_partition_block_count_bound():
    rng = random.Random(3)
    for _ in range(20):
        sigma = rng.choice([2, 3, 5])
        t = random_text(rng, rng.randint(1, 150), sigma)
        b = bwt(t)
        for k in range(4):
            part = context_partition(b, t, k)
            assert part.block_count <= min(sigma**k if k else 1, t.n)


def test_partition_entropy_values():
    assert partition_entropy([1, 1, 2, 2], Partition(4, [2])) == 0.0
    assert close(partition_entropy([1, 1, 2, 2], Partition(4, [])), 4.0)
    seq = [1, 2, 1, 2, 2]
    total = partition_entropy(seq, Partition(5, []))
    assert close(total, 5 * h0(seq))
    with pytest.raises(ValueError, match="cover"):
        partition_entropy(seq, Partition(4, []))


def test_partition_entropy_matrix_path_matches_generic():
    rng = random.Random(4)
    seq = [rng.randrange(6) for _ in range(500)]
    cuts = sorted(rng.sample(range(1, 500), 17))
    p = Partition(500, cuts)
    fast = partition_entropy(seq, p)
    slow = sum((e - s) * h0(seq[s:e]) for s, e in p.blocks())
    assert close(fast, slow)


def test_context_split_equals_order_k_entropy():
    # the dual-route identity: BWT split by contexts vs direct k-gram statistics
    rng = random.Random(5)
    for _ in range(25):
        t = random_text(rng, rng.randint(2, 250), rng.choice([2, 4, 26]))
        b = bwt(t)
        for k in range(4):
            lhs = partition_entropy(b.l, context_partition(b, t, k))
            rhs = t.n * hk(t, k)
            assert close(lhs, rhs), (t.n, k)


def test_concat_terms_worked_pair():
    terms = concat_entropy_terms([1, 1], [2, 2])
    assert terms.delta == 4.0
    assert terms.length_split_bits == 4.0
    assert terms.symbol_split_bits == 0.0


def test_concat_terms_count_both_sides_over_one_symbol_range():
    assert concat_entropy_terms([-1, -1], [2, 2]).delta == 4.0


def test_concat_terms_identical_halves_cost_nothing():
    terms = concat_entropy_terms([1, 2, 3], [1, 2, 3])
    assert abs(terms.delta) <= REL
    assert close(terms.length_split_bits, terms.symbol_split_bits)


def test_concat_chain_of_inequalities():
    rng = random.Random(6)
    for _ in range(400):
        sigma = rng.choice([2, 3, 8])
        x = [rng.randrange(sigma) for _ in range(rng.randint(1, 80))]
        y = [rng.randrange(sigma) for _ in range(rng.randint(1, 80))]
        terms = concat_entropy_terms(x, y)
        slack = REL * max(1.0, terms.length_split_bits)
        assert -slack <= terms.delta
        assert close(terms.delta, terms.length_split_bits - terms.symbol_split_bits)
        assert terms.delta <= terms.length_split_bits + slack
        assert terms.length_split_bits <= len(x) + len(y) + slack


def test_pair_entropy_edge_cases():
    assert pair_entropy_bits(0, 0) == 0.0
    assert pair_entropy_bits(3, 0) == 0.0
    assert close(pair_entropy_bits(1, 1), 2.0)


def test_lemma3_bound_holds():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 300)
        seq = [rng.randrange(rng.choice([2, 4, 9])) for _ in range(n)]
        cut_count = rng.randint(0, min(8, n - 1))
        cuts = sorted(rng.sample(range(1, n), cut_count))
        part = Partition(n, cuts)
        b = rng.randint(1, n)
        lhs, rhs = verify_lemma3(seq, part, b)
        assert lhs <= rhs + REL * max(1.0, abs(rhs))


def test_lemma3_single_block_baseline():
    seq = [1, 2, 1, 1, 2, 2, 1]
    lhs, rhs = verify_lemma3(seq, Partition(7, []), 3)
    assert close(rhs, 7 * h0(seq))
    assert lhs <= rhs + REL


def test_refining_a_partition_never_increases_entropy():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(3, 200)
        seq = [rng.randrange(4) for _ in range(n)]
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(6, n - 1))))
        coarse = Partition(n, cuts)
        extra = rng.choice([x for x in range(1, n) if x not in cuts])
        fine = Partition(n, sorted(cuts + [extra]))
        ec = partition_entropy(seq, coarse)
        ef = partition_entropy(seq, fine)
        assert ef <= ec + REL * max(1.0, ec)
