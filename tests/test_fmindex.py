import random

import pytest

from fmblock.fmindex import (
    IndexVariant,
    build_index,
    count,
    default_block_size,
    index_size_report,
    rank_l,
)
from fmblock.textcore import Text, build_text, bwt, naive_count, naive_rank
from helpers import codes_of, pattern_batch, random_codes

ALL_VARIANTS = list(IndexVariant)


def test_variant_flags():
    assert IndexVariant.SSA.bitvector_backend == "plain"
    assert IndexVariant.SSA_RRR.bitvector_backend == "rrr"
    assert not IndexVariant.SSA_RRR.fixed
    assert IndexVariant.FIXED_BLOCK.fixed
    assert IndexVariant("fixed_block_rrr") is IndexVariant.FIXED_BLOCK_RRR


def test_default_block_size():
    assert default_block_size(2**20, 4) == 1600
    assert default_block_size(100, 2) == 98
    assert default_block_size(100, 200) == 100  # clamped to n
    assert default_block_size(10**6, 1) == 400
    assert default_block_size(65, 1) == 64  # clamped up
    with pytest.raises(ValueError):
        default_block_size(1, 2)


def test_worked_example_blocks_and_boundaries():
    t = build_text(b"BANANA")
    ix = build_index(t, "fixed_block", block_size=3)
    assert ix.block_size == 3
    assert [wt.local_alphabet for wt in ix.blocks] == [
        codes_of("AN"),
        codes_of("$AB"),
        codes_of("A"),
    ]
    assert ix.boundary_occ == [[0, 0, 0, 0], [0, 1, 0, 2], [1, 2, 1, 2]]


def test_worked_example_counts_all_variants():
    t = build_text(b"BANANA")
    for variant in ALL_VARIANTS:
        ix = build_index(t, variant, 3 if variant.fixed else None)
        assert ix.count(b"ANA") == 2
        assert ix.count(b"NA") == 2
        assert ix.count(b"BANANA") == 1
        assert ix.count(b"NAB") == 0
        assert ix.count(b"") == 7
        assert ix.count(b"Z") == 0


def test_rank_l_exhaustive_small_texts():
    rng = random.Random(0)
    for _ in range(12):
        sigma = rng.choice([2, 3, 6])
        t = Text.from_codes(random_codes(rng, rng.randint(1, 80), sigma), sigma)
        l = bwt(t).l.tolist()
        for variant in ALL_VARIANTS:
            ix = build_index(t, variant, rng.choice([1, 2, 3, 7, None]) if variant.fixed else None)
            for c in range(sigma + 1):
                for j in range(t.n + 1):
                    assert ix.rank_l(c, j) == naive_rank(l, c, j)


def test_rank_l_validation():
    ix = build_index(build_text(b"BANANA"), "ssa")
    with pytest.raises(ValueError, match="out of range"):
        ix.rank_l(1, 8)
    assert ix.rank_l(99, 5) == 0
    assert rank_l(ix, 1, 7) == 3


def test_counts_match_naive_across_variants():
    rng = random.Random(1)
    for _ in range(15):
        sigma = rng.choice([2, 4, 26])
        codes = random_codes(rng, rng.randint(2, 600), sigma)
        t = Text.from_codes(codes, sigma)
        patterns = pattern_batch(rng, codes, sigma, extracted=25, adversarial=10)
        expected = [naive_count(t, p) for p in patterns]
        for variant in ALL_VARIANTS:
            ix = build_index(t, variant)
            assert [ix.count_codes(p) for p in patterns] == expected


def test_block_size_of_text_length_collapses_to_one_block():
    t = build_text(b"mississippi river bank")
    whole = build_index(t, "fixed_block", block_size=t.n)
    single = build_index(t, "ssa")
    assert len(whole.blocks) == 1
    for p in (b"si", b"is", b"ss", b"river", b"bank", b"x"):
        assert whole.count(p) == single.count(p) == naive_count(t, t.translate(p) or [99])


def test_sentinel_and_out_of_range_codes_count_zero():
    ix = build_index(build_text(b"BANANA"), "fixed_block", 3)
    assert ix.count_codes([0]) == 0
    assert ix.count_codes([1, 0]) == 0
    assert ix.count_codes([17]) == 0
    assert ix.count_codes([-1]) == 0


def test_block_size_rejected_for_whole_text_variants():
    t = build_text(b"BANANA")
    with pytest.raises(ValueError, match="fixed_block"):
        build_index(t, "ssa", block_size=3)
    with pytest.raises(ValueError, match=">= 1"):
        build_index(t, "fixed_block", block_size=0)


def test_size_report_components_and_total():
    t = build_text(b"BANANA" * 40)
    for variant in ALL_VARIANTS:
        ix = build_index(t, variant, 16 if variant.fixed else None)
        rep = index_size_report(ix)
        assert rep.total == sum(rep.components().values())
        assert rep.c_array == 64 * (t.sigma + 1)
        assert rep.remap == 8 * (t.sigma - 1)
        assert rep.boundary_occ == (len(ix.blocks) - 1) * t.sigma * t.n.bit_length()
        assert rep.bits_per_symbol == rep.total / t.n


def test_payload_bounded_by_blockwise_entropy_plus_one():
    rng = random.Random(3)
    codes = random_codes(rng, 2000, 5)
    t = Text.from_codes(codes, 5)
    ix = build_index(t, "fixed_block", 128)
    from fmblock.entropy import fixed_partition, partition_entropy

    l = bwt(t).l
    blockwise = partition_entropy(l, fixed_partition(t.n, 128))
    total_code_bits = sum(wt.code_length_bits for wt in ix.blocks)
    assert total_code_bits <= blockwise + t.n + 1e-6


def test_count_via_module_function_and_bytes():
    t = build_text(b"abracadabra")
    ix = build_index(t, "ssa_rrr")
    assert count(ix, b"bra") == 2
    assert count(ix, b"abracadabra") == 1
    assert count(ix, b"q") == 0
