#!/usr/bin/env python3
"""fmblock benchmark: one closed-loop client driving the public API in-process.

    python3 perfbench/run.py --workload stdlib-read --seed 1 --seconds 15 --trace 0

A run makes its inputs from the seed, then builds and saves all four index
variants, repeats read passes (load, point counts, CLI batch) for --seconds,
and runs verify-bounds; every answer is checked against an oracle that never
touches the index. With --trace 0 the last stdout line holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced pass.
perfbench/README.md says what each metric means.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from inputs import prepare  # noqa: E402
from tracing import Tracer  # noqa: E402

VARIANTS = ("ssa", "ssa_rrr", "fixed_block", "fixed_block_rrr")
PATTERN_KINDS = ("len5", "len20", "len50", "absent")
WORKLOADS = ("stdlib-read", "markov-boost")
VERIFY_ARGS = ["-k", "2", "--block-size", "1024"]
SWEEP_VARIANTS = ("fixed_block", "fixed_block_rrr")
SWEEP_BLOCK_SIZES = (2048, 8192, 32768, 131072)
SWEEP_PATTERNS = 200
HEAP_MODULES = ("bitrank", "bitio", "wavelet", "storage")
HEAP_TIMEOUT_S = 120
MODULES = ("bitrank", "cli", "entropy", "fmindex", "storage", "textcore", "wavelet")
# Interpreter-bound timings are scaled to the speed at which calibration_ns()
# takes CALIBRATION_NS (see README: "Calibrated timings").
CALIBRATION_NS = 750_000
CALIBRATE_EVERY = 25  # patterns counted between calibrations
SETUPS = 3  # setup_s is the median of this many set-ups
MIN_PASSES = 3  # count_us_p99 takes each pattern's median pass, which needs three to drop a slow one
_CALIBRATION_WORDS = [(i * 0x9E3779B97F4A7C15) & ((1 << 64) - 1) for i in range(64)]


def calibration_ns():
    """Time of a fixed pure-Python loop of masked popcounts; it uses nothing from fmblock.

    The best of three runs, so that a moment off the CPU does not count.
    """
    best = None
    for _ in range(3):
        start = perf_counter_ns()
        total = 0
        for i in range(3000):
            total += (_CALIBRATION_WORDS[i & 63] & ((1 << (i & 63)) - 1)).bit_count()
        elapsed = perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


@dataclass(frozen=True)
class Scale:
    text_bytes: int = 1_000_000
    patterns: int = 1000  # point-count patterns per read pass
    batch: int = 200  # CLI batch patterns per read pass


def load_fmblock():
    """The fmblock modules from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import fmblock

    if Path(fmblock.__file__).resolve().parent != (SRC / "fmblock").resolve():
        raise ImportError(f"fmblock was imported from {fmblock.__file__}, not from {SRC}")
    return {name: __import__(f"fmblock.{name}", fromlist=[name]) for name in MODULES}


class Run:
    """The inputs, files, samples and failure count of one benchmark run."""

    def __init__(self, inputs, mods, workdir):
        self.inputs = inputs
        self.m = mods
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = defaultdict(list)  # build.<v>, load.<v>, cli.<v>, verify, read: seconds
        self.latency = {v: [[] for _ in inputs.patterns] for v in VARIANTS}  # us per count, per pattern
        self.early_exits = [0, 0]  # traced counts that stopped before the pattern's end, all counts
        self.indexes = {}
        self.file_bytes = {}
        self.n = None
        self.peak_rss_mb = None
        self.pending = []  # (target list, raw time) awaiting the next calibration
        self.calibration = calibration_ns()
        self.index_path = {v: workdir / f"{v}.idx" for v in VARIANTS}
        self.text_path = workdir / "text.bin"
        self.text_path.write_bytes(inputs.raw)
        self.batch_path = workdir / "batch.txt"
        self.batch_path.write_bytes(b"\n".join(inputs.batch) + b"\n")

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def timed(self, target, raw):
        self.pending.append((target, raw))

    def calibrate(self):
        """Store the pending times scaled to the nominal interpreter speed.

        The factor comes from the calibration loops timed just before and
        just after them, so a slow stretch of the machine scales out.
        """
        now = calibration_ns()
        factor = CALIBRATION_NS / ((self.calibration + now) / 2)
        self.calibration = now
        for target, raw in self.pending:
            target.append(raw * factor)
        self.pending.clear()

    def label(self, phase, variant=""):
        if self.tracer is not None:
            self.tracer.label = (phase, variant)


def build_phase(run):
    """build_text, build_index and save_index for each variant."""
    m = run.m
    for v in VARIANTS:
        run.label("build", v)
        try:
            start = perf_counter()
            text = m["textcore"].build_text(run.inputs.raw)
            index = m["fmindex"].build_index(text, v)
            m["storage"].save_index(index, run.index_path[v])
            run.samples[f"build.{v}"].append(perf_counter() - start)
            run.n = index.n
            run.file_bytes[v] = os.path.getsize(run.index_path[v])
            run.check(True, "")
        except Exception as exc:  # a failed build is a failed operation, not a crash
            run.check(False, f"build {v}: {exc!r}")
    if run.peak_rss_mb is None:
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _count(run, v, index, pattern, want, latency):
    """One checked, timed index.count call; its calibrated time in us goes to latency."""
    tracer = run.tracer
    before = tracer.calls("fmindex.rank_l", "count", v) if tracer else 0
    try:
        start = perf_counter_ns()
        c = index.count(pattern)
        run.timed(latency, (perf_counter_ns() - start) / 1000)
    except Exception as exc:  # counted as a failed operation below
        c = exc
    run.check(c == want, f"count {v} b={index.block_size} {pattern!r}: got {c!r}, oracle {want}")
    if tracer:
        run.early_exits[0] += tracer.calls("fmindex.rank_l", "count", v) - before < 2 * len(pattern)
        run.early_exits[1] += 1
    return c


def _cli(run, argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.m["cli"].main(argv)
    except (Exception, SystemExit) as exc:  # the CLI must return a code, never raise
        code = repr(exc)
    return code, out.getvalue().split("\n")[:-1]


def read_phase(run):
    """load_index per variant, point counts, then the CLI batch per variant.

    Each pattern is counted on the four variants in turn, so that every
    variant's samples spread over the whole pass and drifts in machine speed
    hit all of them alike.
    """
    start = perf_counter()
    run.calibrate()
    indexes = {}
    for v in VARIANTS:
        run.label("load", v)
        try:
            t0 = perf_counter()
            indexes[v] = run.m["storage"].load_index(run.index_path[v])
            run.timed(run.samples[f"load.{v}"], perf_counter() - t0)
            run.check(True, "")
        except Exception as exc:  # a failed load is a failed operation
            run.check(False, f"load {v}: {exc!r}")
        run.calibrate()
    run.indexes.update(indexes)
    counts = {v: [] for v in indexes}
    for i, ((_, pattern), want) in enumerate(zip(run.inputs.patterns, run.inputs.expected)):
        for v, index in indexes.items():
            run.label("count", v)
            counts[v].append(_count(run, v, index, pattern, want, run.latency[v][i]))
        if i % CALIBRATE_EVERY == CALIBRATE_EVERY - 1:
            run.calibrate()
    run.calibrate()
    run.check(
        len(counts) == len(VARIANTS) and all(c == counts[VARIANTS[0]] for c in counts.values()),
        "the four variants disagree on some count",
    )
    expected = run.inputs.batch_expected
    for v in VARIANTS:
        run.label("cli", v)
        t0 = perf_counter()
        code, lines = _cli(run, ["count", str(run.index_path[v]), "--patterns-file", str(run.batch_path)])
        run.timed(run.samples[f"cli.{v}"], perf_counter() - t0)
        run.calibrate()
        run.check(code == 0, f"cli count {v}: exit {code}")
        run.check(len(lines) == len(expected), f"cli count {v}: {len(lines)} lines for {len(expected)} patterns")
        # lines match patterns by order: the CLI prints patterns decoded with replacement
        for i, want in enumerate(expected):
            got = lines[i].rsplit("\t", 1)[-1] if i < len(lines) else None
            run.check(got == str(want), f"cli count {v} line {i}: got {got!r}, oracle {want}")
    run.samples["read"].append(perf_counter() - start)


def verify_phase(run):
    """verify-bounds at k = 2, b = 1024 on the workload text; both checks must PASS."""
    run.label("verify")
    start = perf_counter()
    code, lines = _cli(run, ["verify-bounds", str(run.text_path), *VERIFY_ARGS])
    run.samples["verify"].append(perf_counter() - start)
    run.check(
        code == 0 and "identity=PASS" in lines and "bound=PASS" in lines,
        f"verify-bounds: exit {code}, {[x for x in lines if x.endswith(('PASS', 'FAIL'))]}",
    )


def run_untraced(run, seconds):
    """Build once, repeat read passes for the given seconds, verify once."""
    build_phase(run)
    start = perf_counter()
    passes = 0
    while passes < MIN_PASSES or perf_counter() - start < seconds:
        read_phase(run)
        passes += 1
    verify_phase(run)


def probe_heap(run):
    """Retained heap per variant, each from its own fresh tracemalloc process."""
    procs = {}
    out = {}
    try:
        for v in VARIANTS:
            cmd = [sys.executable, str(HERE / "heapprobe.py"), str(SRC), str(run.index_path[v])]
            procs[v] = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for v, proc in procs.items():
            try:
                stdout, stderr = proc.communicate(timeout=HEAP_TIMEOUT_S)
                if proc.returncode == 0:
                    out[v] = json.loads(stdout.splitlines()[-1])
            except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
                stderr = repr(exc)
            run.check(v in out, f"heap probe {v}: {stderr.strip()[-300:]}")
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return out


def sweep(run):
    """Model size and median count time of the fixed-block variants over block sizes."""
    m, inputs = run.m, run.inputs
    checks = list(zip(inputs.patterns, inputs.expected))[:SWEEP_PATTERNS]
    out = {}
    for v in SWEEP_VARIANTS:
        for b in SWEEP_BLOCK_SIZES:
            try:
                text = m["textcore"].build_text(inputs.raw)
                index = m["fmindex"].build_index(text, v, b)
                bps = index.size_report().bits_per_symbol
            except Exception as exc:  # counted as a failed operation
                run.check(False, f"sweep build {v} b={b}: {exc!r}")
                continue
            lat = []
            run.calibrate()
            for i, ((_, pattern), want) in enumerate(checks):
                _count(run, v, index, pattern, want, lat)
                if i % CALIBRATE_EVERY == CALIBRATE_EVERY - 1:
                    run.calibrate()
            run.calibrate()
            out[v, b] = (bps, _median(lat))
    return out


class Metrics(dict):
    def put(self, name, value, unit):
        if value is not None:
            self[name] = {"value": float(value), "unit": unit}


def _median(values):
    return statistics.median(values) if values else None


def _sum_medians(run, prefix):
    values = [run.samples[f"{prefix}.{v}"] for v in VARIANTS]
    return sum(statistics.median(x) for x in values) if all(values) else None


def end_to_end(run, setup_times, heap):
    out = Metrics()
    out.put("setup_s", _median(setup_times), "s")
    per_pattern = []
    for v in VARIANTS:
        out.put(f"count_us_p50.{v}", _median([x for times in run.latency[v] for x in times]), "us")
        per_pattern += [statistics.median(times) for times in run.latency[v] if times]
    p99 = statistics.quantiles(per_pattern, n=100)[98] if len(per_pattern) > 1 else None
    out.put("count_us_p99", p99, "us")
    out.put("load_s", _sum_medians(run, "load"), "s")
    cli_s = _sum_medians(run, "cli")
    out.put("batch_qps", len(run.inputs.batch) * len(VARIANTS) / cli_s if cli_s else None, "1/s")
    out.put("build_s", _sum_medians(run, "build"), "s")
    if len(run.file_bytes) == len(VARIANTS):
        out.put("file_bps", sum(run.file_bytes.values()) * 8 / run.n, "bit/sym")
    for v in VARIANTS:
        if v in heap:
            out.put(f"heap_bps.{v}", heap[v]["retained"] * 8 / heap[v]["n"], "bit/sym")
    out.put("peak_rss_mb", run.peak_rss_mb, "MB")
    out.put("verify_s", _median(run.samples["verify"]), "s")
    return out


TOTAL, SELF = 1, 2  # fields of Tracer.get(): [calls, total ns, self ns]


def _per_call(acc, field, scale):
    calls = acc[0]
    return acc[field] / calls / scale if calls else None


def _ratio(a, b):
    return a / b if b else None


def per_layer(run, tracer, untraced_p50, overhead_pct, sweep_out, heap):
    out = Metrics()
    get = tracer.get
    put = out.put
    put("textcore.build_text_s", _per_call(get("textcore.build_text", "build"), TOTAL, 1e9), "s")
    put("textcore.bwt_s", _per_call(get("textcore.bwt", "build"), SELF, 1e9), "s")
    put("textcore.suffix_array_s", _per_call(get("textcore.suffix_array", "build"), SELF, 1e9), "s")
    put("textcore.suffix_array_calls", get("textcore.suffix_array")[0] or None, "count")
    put("bitrank.rank1_ns.plain", _per_call(get("bitrank.rank1.plain", "count"), SELF, 1), "ns")
    put("bitrank.rank1_ns.rrr", _per_call(get("bitrank.rank1.rrr", "count"), SELF, 1), "ns")
    put("bitrank.build_s", get("bitrank.build", "build")[SELF] / 1e9 or None, "s")
    put("wavelet.build_s", get("wavelet.build", "build")[SELF] / 1e9 or None, "s")
    for v in VARIANTS:
        counts = get("fmindex.count", "count", v)[0]
        rank1 = get("bitrank.rank1.plain", "count", v)[0] + get("bitrank.rank1.rrr", "count", v)[0]
        put(f"bitrank.rank1_per_pattern.{v}", _ratio(rank1, counts), "count")
        put(f"wavelet.rank_ns.{v}", _per_call(get("wavelet.rank", "count", v), SELF, 1), "ns")
        put(f"fmindex.rank_l_ns.{v}", _per_call(get("fmindex.rank_l", "count", v), SELF, 1), "ns")
        put(f"fmindex.rank_l_per_pattern.{v}", _ratio(get("fmindex.rank_l", "count", v)[0], counts), "count")
        put(f"storage.serialize_s.{v}", _per_call(get("storage.serialize", "build", v), TOTAL, 1e9), "s")
        put(f"storage.deserialize_s.{v}", _per_call(get("storage.deserialize", "load", v), TOTAL, 1e9), "s")
        put(f"cli.count_s.{v}", _per_call(get("cli.main", "cli", v), TOTAL, 1e9), "s")
        if v in run.file_bytes:
            put(f"storage.file_bps.{v}", run.file_bytes[v] * 8 / run.n, "bit/sym")
        for kind in PATTERN_KINDS:
            put(f"fmindex.count_us_p50.{kind}.{v}", untraced_p50.get((kind, v)), "us")
        if v in heap:
            by_module = heap[v]["by_module"]
            for module in HEAP_MODULES:
                put(f"heap.{module}_bps.{v}", by_module.get(module, 0) * 8 / heap[v]["n"], "bit/sym")
        try:
            index = run.indexes[v]
            put(f"wavelet.depth_max.{v}", max(length for wt in index.blocks for length, _ in wt.codes.values()), "count")
            report = index.size_report()
            put(f"fmindex.model_bps.{v}", report.bits_per_symbol, "bit/sym")
            for part, field in (("payload", "wavelet_payload"), ("directories", "rank_directories"),
                                ("boundary", "boundary_occ"), ("codebooks", "codebooks")):
                put(f"fmindex.{part}_bps.{v}", getattr(report, field) / report.n, "bit/sym")
        except (KeyError, AttributeError, TypeError, ValueError) as exc:
            print(f"structure metrics for {v} missing: {exc!r}", file=sys.stderr)
    put("fmindex.early_exit_share", _ratio(*run.early_exits), "ratio")
    for (v, b), (bps, p50) in sweep_out.items():
        put(f"fmindex.sweep_bps.{v}.b{b}", bps, "bit/sym")
        put(f"fmindex.sweep_count_us_p50.{v}.b{b}", p50, "us")
    put("storage.load_rank_l_calls", get("fmindex.rank_l", "load")[0] or None, "count")
    for fn in ("hk", "context_partition", "partition_entropy", "verify_lemma3"):
        put(f"entropy.{fn}_s", _per_call(get(f"entropy.{fn}", "verify"), SELF, 1e9), "s")
    put("cli.load_share", _ratio(get("storage.deserialize", "cli")[TOTAL], get("cli.main", "cli")[TOTAL]), "ratio")
    put("trace.overhead_pct", overhead_pct, "%")
    return out


def traced_run(run):
    """Build traced; read untraced, then traced; verify traced; sweep and heap untraced."""
    tracer = Tracer()
    run.tracer = tracer
    tracer.install(run.m)
    try:
        build_phase(run)
    finally:
        tracer.uninstall()
    run.tracer = None
    read_phase(run)
    kinds = [kind for kind, _ in run.inputs.patterns]
    untraced_p50 = {
        (kind, v): _median([x[0] for k, x in zip(kinds, run.latency[v]) if k == kind and x])
        for v in VARIANTS
        for kind in PATTERN_KINDS
    }
    run.tracer = tracer
    tracer.install(run.m)
    try:
        read_phase(run)
        verify_phase(run)
    finally:
        tracer.uninstall()
        run.tracer = None
    untraced_s, traced_s = run.samples["read"]
    overhead_pct = (traced_s - untraced_s) / untraced_s * 100
    return tracer, untraced_p50, overhead_pct, sweep(run)


def run_benchmark(mods, workload, seed, seconds, trace, scale=Scale()):
    """One run; returns (result dict for the last stdout line, input hash, tracer or None)."""
    setup_times, hashes = [], set()
    for _ in range(1 if trace else SETUPS):
        start = perf_counter()
        inputs = prepare(workload, seed, scale.text_bytes, scale.patterns, scale.batch)
        setup_times.append(perf_counter() - start)
        hashes.add(inputs.sha256)
    (HERE / "work").mkdir(exist_ok=True)
    workdir = HERE / "work" / f"{workload}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir()
    tracer = None
    try:
        run = Run(inputs, mods, workdir)
        run.check(len(hashes) == 1, "repeated set-ups made different inputs")
        if trace:
            tracer, untraced_p50, overhead_pct, sweep_out = traced_run(run)
            metrics = per_layer(run, tracer, untraced_p50, overhead_pct, sweep_out, probe_heap(run))
        else:
            run_untraced(run, seconds)
            metrics = end_to_end(run, setup_times, probe_heap(run))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in run.problems:
        print(f"failed: {problem}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": dict(metrics),
    }
    return result, inputs.sha256, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        mods = load_fmblock()
    except ImportError as exc:
        print(f"error: cannot import fmblock from {SRC}: {exc}", file=sys.stderr)
        return 2
    result, sha256, tracer = run_benchmark(mods, args.workload, args.seed, args.seconds, bool(args.trace))
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    (HERE / "out").mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "input_sha256": sha256, "python": sys.version.split()[0], "result": result}
    (HERE / "out" / f"run-{stamp}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(HERE / "out" / f"spans-{stamp}.json")
        if tracer.missing:
            print(f"not traced, names missing: {', '.join(tracer.missing)}", file=sys.stderr)
    print(f"input_sha256={sha256}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
