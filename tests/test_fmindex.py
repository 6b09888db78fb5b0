import io
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmblock import bitrank, fmindex, wavelet
from fmblock.bitrank import RrrBitVector
from fmblock.fmindex import IndexVariant, build_index, default_block_size
from fmblock.storage import deserialize, serialize
from fmblock.textcore import Text, build_text, bwt, naive_count, naive_rank
from helpers import brute_count, codes_of, pattern_batch, random_codes

ALL_VARIANTS = list(IndexVariant)


def test_variant_flags():
    assert IndexVariant.SSA.bitvector_backend == "plain"
    assert IndexVariant.SSA_RRR.bitvector_backend == "rrr"
    assert not IndexVariant.SSA_RRR.fixed
    assert IndexVariant.FIXED_BLOCK.fixed
    assert IndexVariant("fixed_block_rrr") is IndexVariant.FIXED_BLOCK_RRR


def test_default_block_size():
    # below the alphabet factor's floor of 16, the floor: ceil(log2 n) = 20
    assert default_block_size(2**20, 4) == 6400
    assert default_block_size(10**6, 8) == 6400  # the markov-boost text
    assert default_block_size(10**6, 1) == 6400
    # at and above it, sigma
    assert default_block_size(10**6, 16) == 6400
    assert default_block_size(10**6, 17) == 6800
    assert default_block_size(10**6, 97) == 38800  # the stdlib-read text
    # clamped to n, below the floor and above it
    assert default_block_size(100, 2) == 100
    assert default_block_size(100, 200) == 100
    assert default_block_size(2, 1) == 2
    # the floor keeps every block at least 64 long, or the whole text
    assert default_block_size(3, 1) == 3
    assert all(default_block_size(n, 1) >= min(n, 64) for n in range(2, 5000))
    with pytest.raises(ValueError):
        default_block_size(1, 2)


def test_worked_example_blocks_and_boundaries():
    t = build_text(b"BANANA")
    ix = build_index(t, "fixed_block", block_size=3)
    assert ix.block_size == 3
    assert [sorted(wt.codes) for wt in ix.blocks] == [
        codes_of("AN"),
        codes_of("$AB"),
        codes_of("A"),
    ]
    assert ix.blocks.rows.tolist() == [0, 0, 0, 0] + [0, 1, 0, 2] + [1, 2, 1, 2]


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
    assert ix.rank_l(1, 7) == 3


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


def test_block_size_the_header_cannot_hold_is_rejected():
    # the file stores the block size as a u64
    t = build_text(b"BANANA")
    with pytest.raises(ValueError, match="2\\^64"):
        build_index(t, "fixed_block", block_size=1 << 64)
    ix = build_index(t, "fixed_block_rrr", block_size=(1 << 64) - 1)
    sink = io.BytesIO()
    serialize(ix, sink)
    back = deserialize(sink.getvalue())
    assert back.block_size == (1 << 64) - 1 and len(back.blocks) == 1
    assert back.count(b"ANA") == 2


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("rrr_t", [-1, 0, 64])
def test_a_bad_rrr_block_size_is_rejected_before_the_suffix_sort(variant, rrr_t, monkeypatch):
    # an RRR variant rejects it before any expensive work; a plain one
    # carries 0 whatever it is given, as its file does
    monkeypatch.setattr(fmindex.textcore, "suffix_array", mock.Mock(side_effect=AssertionError("suffix_array")))
    t = build_text(b"BANANA")
    if variant.bitvector_backend == "rrr":
        with pytest.raises(ValueError, match="^rrr block size must be in 1\\.\\.63$"):
            build_index(t, variant, rrr_block_size=rrr_t)
    else:
        monkeypatch.undo()
        assert build_index(t, variant, rrr_block_size=rrr_t).rrr_block_size == 0


def test_size_report_components_and_total():
    t = build_text(b"BANANA" * 40)
    for variant in ALL_VARIANTS:
        ix = build_index(t, variant, 16 if variant.fixed else None)
        rep = ix.size_report()
        assert rep.total == sum(rep.components().values())
        assert rep.c_array == 64 * (t.sigma + 1)
        assert rep.remap == 8 * (t.sigma - 1)
        assert rep.boundary_occ == (len(ix.blocks) - 1) * t.sigma * t.n.bit_length()
        assert rep.bits_per_symbol == rep.total / t.n


def test_an_rrr_size_report_charges_4_bytes_per_sample_and_the_superblock_bases():
    # the rank directories of an RRR index are its vector's tables: a u32
    # entry per sample of the one vector of every tree and one for the
    # samples' end, and a 64-bit rank and a 32-bit stream element per
    # superblock
    t = Text.from_codes(random_codes(random.Random(4), 30_000, 6), 6)
    for variant, block_size in (("ssa_rrr", None), ("fixed_block_rrr", 700)):
        ix = build_index(t, variant, block_size)
        bits = ix.blocks.bits
        samples = bitrank.rrr_samples(bits.m, bits.t)
        supers = (samples >> bitrank._superblock_log(bits.t)) + 1
        assert (bits._entries.itemsize, len(bits._entries), len(bits._ranks), len(bits._bases)) == (4, samples + 1, supers, supers)
        assert ix.size_report().rank_directories == 8 * (4 * (samples + 1) + (8 + 4) * supers)


def test_payload_bounded_by_blockwise_entropy_plus_one():
    rng = random.Random(3)
    codes = random_codes(rng, 2000, 5)
    t = Text.from_codes(codes, 5)
    ix = build_index(t, "fixed_block", 128)
    from fmblock.entropy import fixed_partition, partition_entropy

    l = bwt(t).l
    blockwise = partition_entropy(l, fixed_partition(t.n, 128))
    assert ix.blocks.code_length_bits <= blockwise + t.n + 1e-6


def test_count_via_module_function_and_bytes():
    t = build_text(b"abracadabra")
    ix = build_index(t, "ssa_rrr")
    assert ix.count(b"bra") == 2
    assert ix.count(b"abracadabra") == 1
    assert ix.count(b"q") == 0


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_two_end_steps_counts_and_block_edges_match_scans(data):
    # every variant at block sizes 1, 2, 7 and n (the ssa variants are the one-block case)
    variant = data.draw(st.sampled_from(ALL_VARIANTS), label="variant")
    sigma = data.draw(st.sampled_from([2, 3, 5, 9]), label="sigma")
    codes = data.draw(st.lists(st.integers(1, sigma - 1), min_size=1, max_size=90), label="codes")
    t = Text.from_codes(codes, sigma)
    size = data.draw(st.sampled_from([1, 2, 7, t.n]), label="block size") if variant.fixed else None
    ix = build_index(t, variant, size)
    l = bwt(t).l.tolist()
    size = ix.block_size
    # one backward-search step from any range 0 < b < e <= n: both ends ranked in one
    # descent within a block, each in its own tree across blocks; None once it is empty
    for _ in range(12):
        b = data.draw(st.integers(1, t.n - 1), label="b")
        e = data.draw(st.integers(b + 1, t.n), label="e")
        code = data.draw(st.integers(1, sigma - 1), label="code")
        want = (ix.c[code] + naive_rank(l, code, b), ix.c[code] + naive_rank(l, code, e))
        assert ix.blocks.narrow([code], b, e, ix.c) == (want if want[0] < want[1] else None)
    # counts, of substrings and of patterns that mostly do not occur
    patterns = [codes[i : i + k] for i in range(0, len(codes), 3) for k in (1, 2, 5)]
    patterns += data.draw(st.lists(st.lists(st.integers(0, sigma + 1), max_size=6), max_size=8), label="patterns")
    for pattern in patterns:
        assert ix.count_codes(pattern) == naive_count(t, pattern)
    # every block at its edges, for every code, the sentinel 0 and codes >= sigma: the
    # scan count or 0, never an entry of the next block's row in the flat tables
    for i in range(len(ix.blocks)):
        block = l[i * size : (i + 1) * size]
        for c in range(sigma + 3):
            for r in (0, len(block)):
                assert ix.blocks.rank(c, i * size + r) - ix.blocks.rank(c, i * size) == naive_rank(block, c, r)
                assert ix.rank_l(c, i * size + r) == (naive_rank(l, c, i * size + r) if c < sigma else 0)


@pytest.mark.parametrize("variant", [IndexVariant.SSA_RRR, IndexVariant.FIXED_BLOCK_RRR])
@pytest.mark.parametrize("t", [1, 15, 16, 63])
def test_one_block_steps_across_rrr_samples_count_as_the_scan(variant, t, monkeypatch):
    # a 6,000-symbol text, in one tree or in blocks of 3,000 symbols, so that each
    # tree spans several RRR samples at every block size t (3 at t = 63) and the
    # ends of a step in one tree are often in different samples; descend is
    # watched to see that they are
    rng = random.Random(t)
    codes = random_codes(rng, 6000, 5)
    text = Text.from_codes(codes, 5)
    ix = build_index(text, variant, text.n // 2 if variant.fixed else None, t)
    apart = []
    descend = RrrBitVector.descend
    monkeypatch.setattr(
        RrrBitVector,
        "descend",
        lambda v, steps, b, e: apart.append(b // t >> 5 != e // t >> 5) or descend(v, steps, b, e),
    )
    patterns = [codes[i : i + k] for i in range(0, len(codes), 97) for k in (2, 3, 6, 12)]
    patterns += [random_codes(rng, k, 5) for k in (2, 4, 6, 8) for _ in range(10)]
    for pattern in patterns:
        assert ix.count_codes(pattern) == naive_count(text, pattern), pattern
    assert sum(apart) >= 10 and not all(apart)


def test_a_symbol_absent_from_a_block_ranks_zero_there_and_counts_in_the_next():
    ix = build_index(build_text(b"BANANA"), "fixed_block", 3)
    a, b, n = codes_of("ABN")
    # the BWT is A N N | B $ A | A: block 0 holds A and N, block 1 the sentinel, A and B
    assert sorted(ix.blocks[0].codes) == [a, n] and sorted(ix.blocks[1].codes) == [0, a, b]
    assert [ix.blocks.rank(b, r) for r in range(4)] == [0, 0, 0, 0]
    assert [ix.rank_l(b, j) for j in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]
    # b = 3 starts block 1, so the step ranks both ends there: one A in rows 3..5, no N
    assert ix.blocks.narrow([a], 3, 6, ix.c) == (ix.c[a] + 1, ix.c[a] + 2)
    assert ix.blocks.narrow([n], 3, 6, ix.c) is None
    assert ix.count(b"BA") == 1 and ix.count(b"AB") == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_count_many_equals_count_and_the_scan(data):
    # every variant at block sizes 1, 2, 3 (where nearly every step's ends fall
    # in two blocks), n - 1 and n, and every RRR block size class: 1, the
    # table's 15 and 16, and the enumerative 17 and 63; with the scalar tail
    # off, every range steps in numpy rounds to the end
    variant = data.draw(st.sampled_from(ALL_VARIANTS), label="variant")
    raw = data.draw(st.binary(min_size=1, max_size=120).map(lambda b: bytes(97 + x % 4 for x in b)), label="text")
    size = data.draw(st.sampled_from([1, 2, 3, len(raw), len(raw) + 1]), label="block size") if variant.fixed else None
    t = data.draw(st.sampled_from([1, 15, 16, 17, 63]), label="rrr block size")
    ix = build_index(build_text(raw), variant, size, t)
    windows = st.tuples(st.integers(0, len(raw)), st.integers(0, 12)).map(lambda w: raw[w[0] : w[0] + w[1]])
    extra = st.sampled_from([b"", b"e", b"ae", b"a" * (len(raw) + 1), raw + raw[:1]])
    patterns = data.draw(st.lists(st.one_of(windows, extra, st.binary(max_size=5)), max_size=40), label="patterns")
    patterns += patterns[:3]  # duplicates
    tail = data.draw(st.sampled_from([0, fmindex._SCALAR_TAIL]), label="scalar tail")
    with mock.patch.object(fmindex, "_SCALAR_TAIL", tail):
        got = ix.count_many(patterns)
        assert ix.count_many([]) == []
    assert got == [ix.count(p) for p in patterns]
    assert got == [brute_count(list(raw), list(p)) if p else ix.n for p in patterns]


def test_count_many_keeps_memory_bounded_in_chunks():
    # a batch longer than one chunk counts each chunk on its own, in input order
    ix = build_index(build_text(b"abracadabra"), "fixed_block_rrr", 2)
    patterns = [b"a", b"bra", b"", b"zz", b"cad"] * 7
    with mock.patch.object(fmindex, "_COUNT_CHUNK", 4), mock.patch.object(fmindex, "_SCALAR_TAIL", 0):
        assert ix.count_many(patterns) == [5, 2, ix.n, 0, 1] * 7


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_count_many_of_a_few_patterns_makes_no_batch_table(variant, monkeypatch):
    # _SCALAR_TAIL patterns or fewer step in turn from the first step, so no
    # numpy round runs and the vector makes no batch table
    ix = build_index(build_text(b"abracadabra" * 30), variant, 40 if variant.fixed else None)
    for name in ("PlainBitVector", "RrrBitVector"):
        monkeypatch.setattr(getattr(bitrank, name), "batch_rank1", mock.Mock(side_effect=AssertionError(name)))
    patterns = [b"abra", b"cad", b"", b"zz", b"a", b"racadabraa", b"dabra", b"b"][: fmindex._SCALAR_TAIL]
    assert ix.count_many(patterns) == [ix.count(p) for p in patterns]


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("t", [15, 16, 17, 63])
def test_count_many_finishes_deep_paths_with_scalar_ranks(variant, t, monkeypatch):
    # symbol counts 1, 1, 2, 3, 5, ..., 144 make Huffman codes up to about 12
    # bits, deeper than the scalar tail: a step of a batch wider than the tail
    # ranks the shallow levels in numpy rounds, and once few ranks still
    # descend, they finish their paths with the vector's rank1
    fib = [1, 1]
    while len(fib) < 12:
        fib.append(fib[-1] + fib[-2])
    codes = [c for c, k in enumerate(fib, 1) for _ in range(k)]
    rng = random.Random(t)
    rng.shuffle(codes)
    text = Text.from_codes(codes, 13)
    ix = build_index(text, variant, text.n // 2 if variant.fixed else None, t)
    vector = type(ix.blocks.bits)
    step, calls = [], []  # the rounds and the scalar ranks of the step being ranked, then of each step
    batch_rank1, rank1, batch_rank = vector.batch_rank1, vector.rank1, wavelet.WaveletTree.batch_rank

    def watched_batch_rank1(v):
        rounds = batch_rank1(v)
        return lambda j: step.append("round") or rounds(j)

    def watched_batch_rank(wt, tail):
        rank = batch_rank(wt, tail)

        def watched(x, j):
            step.clear()
            ranks = rank(x, j)
            calls.append(list(step))
            return ranks

        return watched

    monkeypatch.setattr(vector, "batch_rank1", watched_batch_rank1)
    monkeypatch.setattr(vector, "rank1", lambda v, j: step.append("rank1") or rank1(v, j))
    monkeypatch.setattr(wavelet.WaveletTree, "batch_rank", watched_batch_rank)
    patterns = [bytes(p) for p in pattern_batch(rng, codes, 13, extracted=60, adversarial=20)]
    got = ix.count_many(patterns)
    monkeypatch.undo()
    assert got == [ix.count(p) for p in patterns]
    assert got == [naive_count(text, p) for p in patterns]
    # some step has numpy rounds, then scalar ranks, and never a round after them
    assert any("round" in s and "rank1" in s for s in calls)
    assert all("round" not in s[s.index("rank1") :] for s in calls if "rank1" in s)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_a_build_makes_one_vector_and_parses_no_section(variant, monkeypatch):
    # every block's tree goes into one vector in one make_bitvector call, of
    # every tree's bits joined, and is laid out as a load lays it out, with
    # no payload read and no codebook parsed
    calls = []
    make = wavelet.make_bitvector
    monkeypatch.setattr(wavelet, "make_bitvector", lambda *args: calls.append(args) or make(*args))
    for name in ("read_payload", "_parse_codebooks"):
        monkeypatch.setattr(wavelet, name, mock.Mock(side_effect=AssertionError(name)))
    t = build_text(b"fixed block compression boosting " * 20)
    ix = build_index(t, variant, 50 if variant.fixed else None)
    monkeypatch.undo()
    assert len(calls) == 1
    assert len(ix.blocks) == (-(-t.n // 50) if variant.fixed else 1)
    bits, t = calls[0]
    assert t == ix.rrr_block_size and len(bits) == ix.blocks.bits.m == sum(wt.leaf - wt.start for wt in ix.blocks)
    assert ix.count(b"block") == 20 and ix.count_many([b"boost", b"blocks"]) == [20, 0]
