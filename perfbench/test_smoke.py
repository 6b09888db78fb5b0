"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY = run.Scale(text_bytes=30_000, patterns=60, batch=20)
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


def _find_count(raw, pattern):
    count, at = 0, raw.find(pattern)
    while at >= 0:
        count, at = count + 1, raw.find(pattern, at + 1)
    return count


@pytest.fixture(scope="module")
def mods():
    return run.load_fmblock()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(mods, workload):
    result, _, _ = run.run_benchmark(mods, workload, 1, 0, False, TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_counters_repeat(mods, workload, monkeypatch):
    gone = ("textcore", "no_such_function", "textcore.gone")
    with monkeypatch.context() as patch:
        patch.setattr(tracing, "TARGETS", tracing.TARGETS + (gone,))
        first, _, tracer = run.run_benchmark(mods, workload, 1, 0, True, TINY)
    assert tracer.missing == ["textcore.no_such_function"]
    second, _, _ = run.run_benchmark(mods, workload, 1, 0, True, TINY)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    counters = [k for k, v in first["metrics"].items() if v["unit"] in ("count", "bit/sym")]
    assert len(counters) > 50
    for name in counters + ["fmindex.early_exit_share"]:
        assert first["metrics"][name] == second["metrics"][name], name


def test_wrong_oracle_value_is_reported_as_failure(mods, monkeypatch):
    def tampered(*args):
        made = inputs.prepare(*args)
        made.expected[0] += 1
        made.batch_expected[0] += 1
        return made

    monkeypatch.setattr(run, "prepare", tampered)
    result, _, _ = run.run_benchmark(mods, "markov-boost", 1, 0, False, TINY)
    # one wrong point count and one wrong CLI line per variant, per read pass
    assert not result["correct"]
    assert result["failed"] == 2 * len(run.VARIANTS) * run.MIN_PASSES


def test_oracle_agrees_with_a_find_scan():
    raw = inputs.stdlib_slice(20_000) + b"    aaaa abab ababab \x00\x00"
    oracle = inputs.Oracle(raw)
    patterns = [raw[i : i + n] for i in range(0, 19_000, 997) for n in (1, 2, 5, 8, 9, 20, 50)]
    patterns += [b"  ", b"    ", b"aa", b"abab", b"\x00", b"\x00\x00", b"zzzzqqqq", raw[-30:]]
    for pattern in patterns:
        assert oracle.count(pattern) == _find_count(raw, pattern), pattern


def test_markov_text_matches_the_test_helper():
    sys.path.insert(0, str(ROOT / "tests"))
    from helpers import markov2_codes

    assert inputs.markov_text(5000) == bytes(markov2_codes(inputs.MARKOV_TEXT_SEED, 5000))


def test_patterns_follow_the_seed_and_the_cli_batch_has_no_line_breaks():
    a = inputs.prepare("stdlib-read", 3, 30_000, 60, 40)
    b = inputs.prepare("stdlib-read", 3, 30_000, 60, 40)
    c = inputs.prepare("stdlib-read", 4, 30_000, 60, 40)
    assert a == b and a.patterns != c.patterns and a.sha256 == c.sha256
    assert sum(kind == "absent" for kind, _ in a.patterns) == 6
    assert all(n == 0 for (kind, _), n in zip(a.patterns, a.expected) if kind == "absent")
    assert not any(byte in p for p in a.batch for byte in b"\r\n")


def test_fails_without_the_program_sources():
    alone = HERE / "work" / "alone"
    shutil.rmtree(alone, ignore_errors=True)
    try:
        shutil.copytree(HERE, alone / "perfbench", ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", alone)
        cmd = [sys.executable, "perfbench/run.py", "--workload", "stdlib-read", "--seed", "1", "--seconds", "1"]
        done = subprocess.run(cmd, cwd=alone, capture_output=True, text=True, timeout=60)
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(alone, ignore_errors=True)
