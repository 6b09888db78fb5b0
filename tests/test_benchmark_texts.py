import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from fmblock.fmindex import IndexVariant, build_index
from fmblock.storage import deserialize, serialize
from fmblock.textcore import build_text, bwt, inverse_bwt, suffix_array
from helpers import check_suffix_array


def benchmark_inputs():
    """perfbench/inputs.py, the benchmark's texts and oracle counts, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


# the default block sizes, and block size 64: hundreds of trees per text;
# RRR there also at t = 1, 16 (a class per byte) and 63 (enumerative offsets),
# and ssa_rrr at those t: one tree over many samples, so count's one-tree
# descents meet every class layout with their ends in different samples
BUILDS = (
    [(v, None, 15) for v in IndexVariant]
    + [(v, 64, 15) for v in IndexVariant if v.fixed]
    + [(IndexVariant.FIXED_BLOCK_RRR, 64, t) for t in (1, 16, 63)]
    + [(IndexVariant.SSA_RRR, None, t) for t in (1, 16, 63)]
)


@pytest.mark.parametrize("workload", ["stdlib-read", "markov-boost"])
def test_batch_counts_equal_point_counts_on_the_benchmark_texts(workload):
    mix = benchmark_inputs().prepare(workload, 1, 30_000, 300, 100)
    patterns = [p for _, p in mix.patterns] + mix.batch
    text = build_text(mix.raw)
    for variant, block_size, t in BUILDS:
        built = build_index(text, variant, block_size, t)
        sink = io.BytesIO()
        serialize(built, sink)
        loaded = deserialize(sink.getvalue())
        # the loaded copy saves the built index's bytes
        again = io.BytesIO()
        serialize(loaded, again)
        assert again.getvalue() == sink.getvalue(), (variant, block_size, t)
        for index in (built, loaded):
            got = index.count_many(patterns)
            assert got == [index.count(p) for p in patterns], (variant, block_size, t)
            assert got == mix.expected + mix.batch_expected, (variant, block_size, t)


# the sha256 of each variant's index of the markov-boost text (1 MB, seeded)
# at its default block size; the stdlib-read text is left out, since it is a
# slice of the installed Python's own sources
MARKOV_DIGESTS = {
    "ssa": "9c682c2d324d639f71e2aabbc034d3a508f70ae5c4d2970f6a8eea35a5fa53a8",
    "ssa_rrr": "873b9c62fcacc9a03a6b368a04b34a004d64bb4db27af3a0d02432490c4f40cb",
    "fixed_block": "a1e7b8479c907577818ec3b121c23cb1cefd0a5969255752ce1175e26924fc0f",
    "fixed_block_rrr": "67abd72872577f7ca5c0c3f0f5de6cfeb13d501c3894f178b283e4de20b9161f",
}


@pytest.fixture(scope="module")
def markov_text():
    return build_text(benchmark_inputs().markov_text(1_000_000))


@pytest.mark.parametrize("variant", list(MARKOV_DIGESTS))
def test_saved_bytes_of_the_markov_benchmark_text_are_pinned(markov_text, variant):
    sink = io.BytesIO()
    serialize(build_index(markov_text, variant), sink)
    assert hashlib.sha256(sink.getvalue()).hexdigest() == MARKOV_DIGESTS[variant]


@pytest.mark.parametrize("workload", ["stdlib-read", "markov-boost"])
def test_suffix_array_of_the_full_benchmark_texts(workload):
    # the benchmark's own text, at its default 1 MB, as perfbench/inputs.prepare makes it
    inputs = benchmark_inputs()
    raw = inputs.markov_text(1_000_000) if workload == "markov-boost" else inputs.stdlib_slice(1_000_000)
    text = build_text(raw)
    sa = suffix_array(text)
    assert check_suffix_array(text.data, sa)
    assert inverse_bwt(bwt(text, sa)) == text
