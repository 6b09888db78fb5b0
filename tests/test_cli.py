import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from fmblock import entropy, fmindex, storage, textcore
from fmblock.cli import main
from fmblock.fmindex import build_index
from fmblock.textcore import build_text
from helpers import markov2_codes


def kv(out):
    pairs = {}
    for line in out.splitlines():
        if "=" in line and "," not in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            pairs[key] = value
    return pairs


@pytest.fixture
def banana(tmp_path):
    text = tmp_path / "banana.txt"
    text.write_bytes(b"BANANA")
    return text


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_writes_index_and_reports(banana, tmp_path, capsys):
    idx = tmp_path / "banana.idx"
    code, out, _ = run(capsys, "build", banana, "-o", idx, "--variant", "fixed", "--block-size", 3)
    assert code == 0
    got = kv(out)
    assert got["n"] == "7"
    assert got["sigma"] == "4"
    assert got["variant"] == "fixed_block"
    assert got["block_size"] == "3"
    assert idx.stat().st_size == int(got["index_bytes"])
    assert float(got["build_seconds"]) >= 0.0


@pytest.mark.parametrize("variant", ["ssa", "fixed-rrr"])
def test_build_prints_each_phase_within_build_seconds(banana, tmp_path, capsys, variant):
    code, out, _ = run(capsys, "build", banana, "-o", tmp_path / "b.idx", "--variant", variant)
    assert code == 0
    got = kv(out)
    phases = ["suffix_array", "bwt", "trees"]  # the phases of build_index
    for name in ["build", "text", *phases, "serialize"]:
        assert float(got[f"{name}_seconds"]) >= 0.0
    # each figure is printed rounded to the microsecond
    inside = sum(float(got[f"{name}_seconds"]) for name in phases)
    assert inside <= float(got["build_seconds"]) + 2e-6


def test_build_default_block_size_is_reported(banana, tmp_path, capsys):
    idx = tmp_path / "a.idx"
    code, out, _ = run(capsys, "build", banana, "-o", idx, "--variant", "fixed-rrr")
    assert code == 0
    assert kv(out)["block_size"] == "7"  # clamped to n for a tiny file


def test_build_missing_input_is_user_error(tmp_path, capsys):
    code, out, err = run(capsys, "build", tmp_path / "nope.txt", "-o", tmp_path / "x.idx")
    assert code == 1
    assert "cannot read" in err
    assert out == ""


def test_build_block_size_with_whole_text_variant_errors(banana, tmp_path, capsys):
    code, _, err = run(capsys, "build", banana, "-o", tmp_path / "x.idx",
                       "--variant", "ssa", "--block-size", 8)
    assert code == 1
    assert "fixed" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("build", "{text}", "-o", "{out}", "--variant", "fixed-rrr", "--rrr-block-size", 64),
         "--rrr-block-size"),
        (("build", "{text}", "-o", "{out}", "--block-size", 0), "--block-size"),
        (("build", "{text}", "-o", "{out}", "--variant", "fixed", "--block-size", 1 << 64), "--block-size"),
        (("bench", "{out}", "{text}", "--patterns", 0), "--patterns"),
        (("bench", "{out}", "{text}", "--repeats", 0), "--repeats"),
        (("bench", "{out}", "{text}", "--length", 0), "--length"),
        (("entropy", "{text}", "-k", -1), "-k"),
    ],
    ids=["rrr-block-size", "block-size", "block-size-above-u64", "patterns", "repeats", "length", "entropy-k"],
)
def test_bad_arguments_fail_before_any_reading(tmp_path, capsys, argv, flag):
    # the input files do not exist: a user error must be reported before reading them
    paths = {"text": tmp_path / "missing.txt", "out": tmp_path / "missing.idx"}
    code, out, err = run(capsys, *[str(a).format(**paths) for a in argv])
    assert code == 1
    assert flag in err and "cannot read" not in err
    assert out == ""
    assert not paths["out"].exists()


def test_count_patterns_inline_and_from_file(banana, tmp_path, capsys):
    idx = tmp_path / "banana.idx"
    run(capsys, "build", banana, "-o", idx, "--variant", "ssa")
    code, out, _ = run(capsys, "count", idx, "-p", "ANA", "-p", "NAB", "-p", "BANANA")
    assert code == 0
    assert out.splitlines() == ["ANA\t2", "NAB\t0", "BANANA\t1"]

    plist = tmp_path / "patterns.txt"
    plist.write_bytes(b"A\nNA\nZZZ\n")
    code, out, _ = run(capsys, "count", idx, "--patterns-file", plist)
    assert code == 0
    assert out.splitlines() == ["A\t3", "NA\t2", "ZZZ\t0"]


def test_count_prints_every_line_in_input_order(tmp_path, capsys):
    # a many-block fixed_block_rrr index, and more patterns than the scalar tail:
    # each line is the pattern and index.count of it, in the order given, for
    # the -p patterns first, then the file's, an empty line (n) and a byte the
    # text lacks (0) among them
    raw = bytes(random.Random(4).choice(b"acgt") for _ in range(3000))
    text = tmp_path / "t.txt"
    text.write_bytes(raw)
    idx = tmp_path / "t.idx"
    code, _, _ = run(capsys, "build", text, "-o", idx, "--variant", "fixed-rrr", "--block-size", 64)
    assert code == 0
    ix = storage.load_index(idx)
    assert len(ix.blocks) > 40
    inline = [b"acg", b"tt"]
    listed = [raw[i : i + k] for i in range(0, 2800, 97) for k in (3, 9, 40)] + [b"", b"acxg", b"ga"]
    plist = tmp_path / "patterns.txt"
    plist.write_bytes(b"\n".join(listed) + b"\n")
    code, out, err = run(capsys, "count", idx, "-p", "acg", "-p", "tt", "--patterns-file", plist)
    assert code == 0 and err == ""
    patterns = inline + listed
    assert out.splitlines() == [f"{p.decode()}\t{ix.count(p)}" for p in patterns]
    assert f"\t{ix.n}" in out and "acxg\t0" in out
    code, out, err = run(capsys, "count", idx)
    assert code == 1 and out == "" and "no patterns given" in err


def test_count_pattern_of_a_non_utf8_byte_counts_that_byte(tmp_path, capsys):
    # on POSIX, an argv byte that is not UTF-8 reaches main as a surrogate escape
    text = tmp_path / "t.txt"
    text.write_bytes(b"a\xffb\xff\xffc")
    idx = tmp_path / "t.idx"
    run(capsys, "build", text, "-o", idx, "--variant", "ssa")
    ix = storage.load_index(idx)
    code, out, err = run(capsys, "count", idx, "-p", "\udcff")
    assert code == 0 and err == ""
    count = ix.count(b"\xff")
    assert count == 3 and out == f"\ufffd\t{count}\n"


def test_count_without_patterns_is_user_error(banana, tmp_path, capsys):
    idx = tmp_path / "banana.idx"
    run(capsys, "build", banana, "-o", idx)
    code, _, err = run(capsys, "count", idx)
    assert code == 1
    assert "pattern" in err


def test_count_on_corrupt_index_is_user_error(tmp_path, capsys):
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"NOTANIDX" + b"\x00" * 40)
    code, _, err = run(capsys, "count", bad, "-p", "A")
    assert code == 1
    assert "unsupported format" in err


def test_stats_components_sum_to_total(banana, tmp_path, capsys):
    idx = tmp_path / "banana.idx"
    run(capsys, "build", banana, "-o", idx, "--variant", "fixed", "--block-size", 3)
    code, out, err = run(capsys, "stats", idx)
    assert code == 0
    got = kv(out)
    # the size components; the entropy figures beside them are not parts of the index
    parts = [k for k in got if k.endswith("_bits") and k not in ("total_bits", "block_h0_bits", "h0_bits")]
    assert sum(int(got[k]) for k in parts) == int(got["total_bits"])
    assert "bits/sym" in err  # human-readable table goes to stderr


@pytest.mark.parametrize("variant", ["ssa", "fixed-rrr"])
def test_stats_reports_file_and_heap_bytes(banana, tmp_path, capsys, variant):
    idx = tmp_path / "banana.idx"
    run(capsys, "build", banana, "-o", idx, "--variant", variant)
    code, out, _ = run(capsys, "stats", idx)
    assert code == 0
    got = kv(out)
    assert 0 < int(got["file_bytes"]) == idx.stat().st_size
    assert 0 < int(got["heap_bytes"])


@pytest.mark.parametrize("variant", ["ssa", "fixed-rrr"])
def test_stats_reports_the_load_time_last(banana, tmp_path, capsys, variant):
    idx = tmp_path / "banana.idx"
    run(capsys, "build", banana, "-o", idx, "--variant", variant)
    code, out, _ = run(capsys, "stats", idx)
    assert code == 0
    lines = out.splitlines()
    # a new key after every earlier line, which stay as they were; an RRR
    # index's sample kinds come between the heap and the load time
    kinds = 3 if variant == "fixed-rrr" else 0
    assert lines[-2 - kinds].startswith("heap_bytes=") and lines[-1].startswith("load_seconds=")
    assert 0 < float(kv(out)["load_seconds"]) < 60


@pytest.mark.parametrize("variant", ["ssa", "ssa-rrr", "fixed-rrr"])
def test_stats_counts_the_sample_kinds_of_an_rrr_index(tmp_path, capsys, variant):
    # an order-2 Markov text's nodes hold long runs of one bit, so some
    # samples are stored as the positions of their few ones or zeros
    text = tmp_path / "markov.txt"
    text.write_bytes(bytes(96 + c for c in markov2_codes(3, 20_000)))
    idx = tmp_path / "markov.idx"
    run(capsys, "build", text, "-o", idx, "--variant", variant)
    code, out, _ = run(capsys, "stats", idx)
    assert code == 0
    got = kv(out)
    kinds = {key: int(value) for key, value in got.items() if key.startswith("rrr_samples_")}
    if variant == "ssa":
        assert kinds == {}
        return
    assert list(kinds) == ["rrr_samples_rrr", "rrr_samples_ones", "rrr_samples_zeros"]
    assert sum(kinds.values()) == len(storage.load_index(idx).blocks.bits._entries) - 1
    assert kinds["rrr_samples_ones"] + kinds["rrr_samples_zeros"] > 0


@pytest.mark.parametrize("variant", ["fixed", "ssa"])
def test_stats_prints_the_block_entropy_bound_beside_the_index(tmp_path, capsys, variant):
    raw = bytes(96 + c for c in markov2_codes(5, 20_000))
    text = tmp_path / "markov.txt"
    text.write_bytes(raw)
    idx = tmp_path / "markov.idx"
    sized = ("--block-size", 1500) if variant == "fixed" else ()
    run(capsys, "build", text, "-o", idx, "--variant", variant, *sized)
    code, out, _ = run(capsys, "stats", idx)
    assert code == 0
    got = kv(out)
    t = build_text(raw)
    b = int(got["block_size"])
    assert b == (1500 if variant == "fixed" else t.n)
    assert int(got["blocks"]) == -(-t.n // b)
    l = textcore.bwt(t, textcore.suffix_array(t)).l
    block_h0 = entropy.partition_entropy(l, entropy.fixed_partition(t.n, b))
    assert float(got["block_h0_bits"]) == pytest.approx(block_h0, rel=1e-9, abs=1e-6)
    assert float(got["h0_bits"]) == pytest.approx(t.n * entropy.h0(t.data), rel=1e-9, abs=1e-6)
    if variant == "ssa":
        assert got["block_h0_bits"] == got["h0_bits"]
    else:
        # the order-2 text's blocks compress below its H0
        assert float(got["block_h0_bits"]) < 0.8 * float(got["h0_bits"])


def test_stats_heap_bytes_under_an_outer_tracemalloc_session(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_bytes(bytes(random.Random(8).choice(b"abcdefgh") for _ in range(30_000)))
    idx = tmp_path / "t.idx"
    run(capsys, "build", text, "-o", idx, "--variant", "ssa")
    code, out, _ = run(capsys, "stats", idx)
    alone = int(kv(out)["heap_bytes"])
    assert code == 0 and alone > 0 and not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        ballast = bytearray(1 << 20)
        code, out, _ = run(capsys, "stats", idx)
        # the caller's session keeps running, and its megabyte is not the index's
        assert code == 0 and tracemalloc.is_tracing()
    finally:
        tracemalloc.stop()
    assert len(ballast) == 1 << 20
    assert abs(int(kv(out)["heap_bytes"]) - alone) < alone // 2


def test_bench_is_deterministic_per_seed(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_bytes(b"abracadabra alakazam " * 300)
    idx = tmp_path / "t.idx"
    run(capsys, "build", text, "-o", idx, "--variant", "fixed-rrr")
    args = ("bench", idx, text, "--patterns", 64, "--length", 5, "--seed", 7, "--repeats", 2)
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    got1, got2 = kv(out1), kv(out2)
    assert got1["counts_sum"] == got2["counts_sum"]
    # the same patterns in one count_many batch, checked against the point counts
    assert float(got1["batch_mean_us"]) > 0
    assert float(got1["batch_speedup"]) == pytest.approx(float(got1["mean_us"]) / float(got1["batch_mean_us"]), rel=0.01)
    assert got1["patterns"] == "64"
    # csv row: variant,b,bits_per_symbol,mean_us
    row = out1.splitlines()[-1].split(",")
    assert row[0] == "fixed_block_rrr"
    assert int(row[1]) > 0
    assert float(row[2]) > 0


@pytest.mark.parametrize("flag", ["fixed", "ssa-rrr"])
def test_bench_json_is_one_object_with_the_text_output_s_fields(tmp_path, capsys, flag):
    text = tmp_path / "t.txt"
    text.write_bytes(b"abracadabra alakazam " * 300)
    idx = tmp_path / "t.idx"
    run(capsys, "build", text, "-o", idx, "--variant", flag)
    args = ("bench", idx, text, "--patterns", 40, "--length", 6, "--seed", 5, "--repeats", 1)
    code, out, _ = run(capsys, *args, "--json")
    assert code == 0 and len(out.splitlines()) == 1
    record = json.loads(out)
    assert sorted(record) == sorted([
        "patterns", "length", "seed", "repeats", "counts_sum", "mean_us", "median_us", "p99_us",
        "batch_mean_us", "batch_speedup", "variant", "block_size", "bits_per_symbol",
    ])
    assert record["batch_speedup"] == pytest.approx(record["mean_us"] / record["batch_mean_us"], rel=0.01)
    # the deterministic fields are the text output's of the same seed
    code, text_out, _ = run(capsys, *args)
    got = kv(text_out)
    variant, block_size, bits_per_symbol, _ = text_out.splitlines()[-1].split(",")
    assert code == 0
    assert [record[k] for k in ("patterns", "length", "seed", "repeats", "counts_sum")] == [
        int(got[k]) for k in ("patterns", "length", "seed", "repeats", "counts_sum")
    ]
    assert (record["variant"], record["block_size"], f"{record['bits_per_symbol']:.4f}") == (
        variant, int(block_size), bits_per_symbol,
    )


def test_one_process_runs_each_command_as_a_fresh_one_does(banana, tmp_path, capsys):
    # the parser is built once per process: a usage error, a count and a user
    # error in turn print and exit as each does in a process of its own
    idx = tmp_path / "banana.idx"
    run(capsys, "build", banana, "-o", idx)
    usage = ("count", idx, "--no-such-flag")
    count = ("count", idx, "-p", "AN", "-p", "NA")
    error = ("count", idx, "--patterns-file", tmp_path / "missing.txt")
    script = "import sys; from fmblock.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    fresh = [subprocess.run([sys.executable, "-c", script, *map(str, argv)], capture_output=True, text=True, env=env) for argv in (usage, count, error)]
    with pytest.raises(SystemExit) as exited:
        main([str(a) for a in usage])
    captured = capsys.readouterr()
    assert (exited.value.code, captured.out, captured.err) == (fresh[0].returncode, fresh[0].stdout, fresh[0].stderr)
    assert fresh[0].returncode == 2 and "unrecognized arguments" in fresh[0].stderr
    for argv, alone in zip((count, error), fresh[1:]):
        assert run(capsys, *argv) == (alone.returncode, alone.stdout, alone.stderr)
    assert fresh[1].stdout == "AN\t2\nNA\t2\n" and fresh[2].returncode == 1


def test_bench_alternates_its_point_and_batch_passes(tmp_path, capsys, monkeypatch):
    text = tmp_path / "t.txt"
    text.write_bytes(b"abracadabra alakazam " * 30)
    idx = tmp_path / "t.idx"
    run(capsys, "build", text, "-o", idx, "--variant", "ssa")
    calls = []
    count, count_many = fmindex.BlockedFMIndex.count, fmindex.BlockedFMIndex.count_many
    monkeypatch.setattr(fmindex.BlockedFMIndex, "count", lambda self, p: calls.append("point") or count(self, p))
    monkeypatch.setattr(fmindex.BlockedFMIndex, "count_many", lambda self, ps: calls.append("batch") or count_many(self, ps))
    code, _, _ = run(capsys, "bench", idx, text, "--patterns", 5, "--length", 3, "--repeats", 3)
    assert code == 0
    # each repeat counts every pattern on its own, then all of them in one batch
    assert calls == (["point"] * 5 + ["batch"]) * 3


def test_bench_exits_2_when_the_batch_counts_differ(tmp_path, capsys, monkeypatch):
    text = tmp_path / "t.txt"
    text.write_bytes(b"abracadabra alakazam " * 30)
    idx = tmp_path / "t.idx"
    run(capsys, "build", text, "-o", idx, "--variant", "ssa")
    monkeypatch.setattr(fmindex.BlockedFMIndex, "count_many", lambda self, patterns: [0] * len(patterns))
    code, _, err = run(capsys, "bench", idx, text, "--patterns", 8, "--length", 3, "--repeats", 1)
    assert code == 2
    assert "batch counts" in err


def test_bench_pattern_longer_than_text_is_user_error(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_bytes(b"short")
    idx = tmp_path / "t.idx"
    run(capsys, "build", text, "-o", idx)
    code, _, err = run(capsys, "bench", idx, text, "--length", 99)
    assert code == 1
    assert "length" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("count", "{idx}"), "pattern"),
        (("count", "{idx}", "--patterns-file", "{missing}"), "cannot read"),
        (("bench", "{idx}", "{missing}"), "cannot read"),
        (("bench", "{idx}", "{short}", "--length", 50), "length"),
    ],
    ids=["no-patterns", "missing-patterns-file", "missing-text", "short-text"],
)
def test_user_errors_exit_before_the_index_is_loaded(tmp_path, capsys, monkeypatch, argv, message):
    short = tmp_path / "short.txt"
    short.write_bytes(b"short")
    idx = tmp_path / "short.idx"
    run(capsys, "build", short, "-o", idx)
    loads = []
    real = storage.load_index

    def counted(path):
        loads.append(path)
        return real(path)

    monkeypatch.setattr(storage, "load_index", counted)
    paths = {"idx": idx, "short": short, "missing": tmp_path / "missing.txt"}
    code, out, err = run(capsys, *[str(a).format(**paths) for a in argv])
    assert code == 1
    assert message in err
    assert out == ""
    assert loads == []


def test_entropy_values_and_monotonicity(banana, capsys):
    code, out, _ = run(capsys, "entropy", banana, "-k", 3)
    assert code == 0
    got = kv(out)
    assert got["n"] == "7"
    assert got["sigma"] == "4"
    assert abs(float(got["H0"]) - 1.8424) < 1e-4
    values = [float(got[f"H{k}"]) for k in range(4)]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_verify_bounds_passes_on_real_text(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_bytes(b"to be or not to be that is the question " * 20)
    code, out, _ = run(capsys, "verify-bounds", text, "-k", 2, "--block-size", 64)
    assert code == 0
    got = kv(out)
    assert got["identity"] == "PASS"
    assert got["bound"] == "PASS"
    assert float(got["identity_residual"]) <= 1e-9
    assert float(got["fixed_bits"]) <= float(got["bound_bits"]) + 1e-6


def test_verify_bounds_sorts_suffixes_once(banana, capsys, monkeypatch):
    calls = []
    real = textcore.suffix_array

    def counted(t):
        calls.append(t.n)
        return real(t)

    # entropy binds the name at import, so both bindings are replaced
    monkeypatch.setattr(textcore, "suffix_array", counted)
    monkeypatch.setattr(entropy, "suffix_array", counted)
    code, out, _ = run(capsys, "verify-bounds", banana, "-k", 2, "--block-size", 2)
    assert code == 0
    assert kv(out)["identity"] == "PASS"
    assert calls == [7]


def test_verify_bounds_bad_arguments(banana, capsys):
    code, _, err = run(capsys, "verify-bounds", banana, "-k", -1)
    assert code == 1
    code, _, err = run(capsys, "verify-bounds", banana, "--block-size", 0)
    assert code == 1


def test_cli_matches_library_counts(tmp_path, capsys):
    raw = b"compressed self index " * 50
    text = tmp_path / "t.txt"
    text.write_bytes(raw)
    idx = tmp_path / "t.idx"
    run(capsys, "build", text, "-o", idx, "--variant", "ssa-rrr")
    ix = build_index(build_text(raw), "ssa_rrr")
    code, out, _ = run(capsys, "count", idx, "-p", "essed", "-p", "index", "-p", "zzz")
    assert code == 0
    got = dict(line.split("\t") for line in out.splitlines())
    for pattern, value in got.items():
        assert int(value) == ix.count(pattern.encode())


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_build_to_an_output_that_cannot_be_written_fails_before_reading(
    banana, tmp_path, capsys, monkeypatch, where
):
    out = tmp_path / "no" / "such" / "x.idx" if where == "missing-dir" else tmp_path
    monkeypatch.setattr(textcore, "build_text", lambda raw: pytest.fail("the text was indexed"))
    code, stdout, err = run(capsys, "build", banana, "-o", out)
    assert code == 1
    assert err.startswith(f"error: cannot write {str(out)!r}:") and "internal error" not in err
    assert stdout == ""


def test_build_leaves_an_output_it_could_not_fill_as_it_was(banana, tmp_path, capsys):
    idx = tmp_path / "banana.idx"
    code, _, _ = run(capsys, "build", tmp_path / "missing.txt", "-o", idx)
    assert code == 1 and not idx.exists()
    idx.write_bytes(b"keep")
    code, _, _ = run(capsys, "build", tmp_path / "missing.txt", "-o", idx)
    assert code == 1 and idx.read_bytes() == b"keep"
    code, _, _ = run(capsys, "build", banana, "-o", idx, "--variant", "ssa")
    assert code == 0 and storage.load_index(idx).count(b"ANA") == 2
