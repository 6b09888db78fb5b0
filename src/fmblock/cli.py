"""Command line front end.

Subcommands: build, count, stats, bench, entropy, verify-bounds. Results go
to stdout as key=value lines (plus a small table for stats and a CSV row for
bench, or one JSON object from bench --json); diagnostics go to stderr. Exit
codes: 0 success, 1 bad input or usage, 2 a verification or internal
invariant failure.
"""

import argparse
import functools
import gc
import json
import os
import random
import statistics
import sys
import time
import tracemalloc

from . import entropy as ent
from . import storage, textcore
from .bitrank import RRR_BLOCK_SIZES
from .fmindex import IndexVariant, build_index

VARIANT_BY_FLAG = {
    "ssa": IndexVariant.SSA,
    "ssa-rrr": IndexVariant.SSA_RRR,
    "fixed": IndexVariant.FIXED_BLOCK,
    "fixed-rrr": IndexVariant.FIXED_BLOCK_RRR,
}


class CliError(Exception):
    pass


def _read_file(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path!r}: {exc}") from exc


def _load_index(path):
    try:
        return storage.load_index(path)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc)) from exc


def _require(ok, message):
    if not ok:
        raise CliError(message)


def _build_text(path):
    raw = _read_file(path)
    if not raw:
        raise CliError(f"{path!r} is empty, nothing to index")
    return textcore.build_text(raw)


def cmd_build(args):
    variant = VARIANT_BY_FLAG[args.variant]
    if args.block_size is not None:
        _require(variant.fixed, "--block-size applies to the fixed variants only")
        _require(args.block_size >= 1, "--block-size must be >= 1")
        _require(args.block_size < 1 << 64, "--block-size must be below 2^64")
    _require(args.rrr_block_size in RRR_BLOCK_SIZES, f"--rrr-block-size must be in {RRR_BLOCK_SIZES[0]}..{RRR_BLOCK_SIZES[-1]}")
    # opened before the text is read, so that an output that cannot be written
    # fails before any work; appending truncates nothing until the index is built
    created = not os.path.exists(args.output)
    try:
        out = open(args.output, "ab", buffering=0)  # unbuffered: a failed write raises in serialize
    except OSError as exc:
        raise CliError(f"cannot write {args.output!r}: {exc}") from exc
    written = None
    try:
        with out:
            started = time.perf_counter()
            t = _build_text(args.text)
            built_text_at = time.perf_counter()
            index = build_index(t, variant, args.block_size, args.rrr_block_size)
            built_at = time.perf_counter()
            try:
                out.truncate(0)
                written = storage.serialize(index, out)
            except OSError as exc:
                raise CliError(f"cannot write {args.output!r}: {exc}") from exc
            serialize_seconds = time.perf_counter() - built_at
    finally:
        if written is None and created:
            os.remove(args.output)
    report = index.size_report()
    print(f"n={index.n}")
    print(f"sigma={index.sigma}")
    print(f"variant={index.variant.value}")
    print(f"block_size={index.block_size}")
    # build_seconds times build_index, whose phases are suffix_array, bwt and trees
    print(f"build_seconds={built_at - built_text_at:.6f}")
    print(f"text_seconds={built_text_at - started:.6f}")
    for phase, seconds in index.build_phases.items():
        print(f"{phase}_seconds={seconds:.6f}")
    print(f"serialize_seconds={serialize_seconds:.6f}")
    print(f"bits_per_symbol={report.bits_per_symbol:.4f}")
    print(f"index_bytes={written}")
    return 0


def _patterns_from_args(args):
    # argv's bytes, as the OS gave them: a non-UTF-8 byte arrives as a surrogate escape
    patterns = [os.fsencode(p) for p in args.pattern or []]
    if args.patterns_file:
        patterns.extend(_read_file(args.patterns_file).splitlines())
    if not patterns:
        raise CliError("no patterns given; use --pattern or --patterns-file")
    return patterns


def cmd_count(args):
    patterns = _patterns_from_args(args)
    index = _load_index(args.index)
    for pattern, count in zip(patterns, index.count_many(patterns)):
        print(f"{pattern.decode('utf-8', 'replace')}\t{count}")
    return 0


def cmd_stats(args):
    # the heap the loaded index holds, measured as perfbench/heapprobe.py does; a
    # caller's tracing session is left running, and its memory is not counted
    gc.collect()
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        started = time.perf_counter()
        index = _load_index(args.index)
        load_seconds = time.perf_counter() - started
        gc.collect()
        heap_bytes = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not outer:
            tracemalloc.stop()
    report = index.size_report()
    rows = list(report.components().items()) + [("total", report.total)]
    width = max(len(name) for name, _ in rows)
    for name, bits in rows:
        print(f"{name:<{width}}  {bits:>14}  {bits / report.n:10.4f} bits/sym", file=sys.stderr)
    print(f"n={report.n}")
    print(f"variant={report.variant}")
    for name, bits in report.components().items():
        print(f"{name}_bits={bits}")
    print(f"total_bits={report.total}")
    print(f"bits_per_symbol={report.bits_per_symbol:.4f}")
    # the paper's bound beside the index: the sum over blocks of |B| H0(B)
    # against n H0 of the whole BWT, both from the index's symbol counts
    counts = index.blocks.block_counts()
    print(f"block_size={index.block_size}")
    print(f"blocks={len(counts)}")
    print(f"block_h0_bits={ent.counts_entropy(counts):.6f}")
    print(f"h0_bits={ent.counts_entropy([counts.sum(axis=0)]):.6f}")
    print(f"file_bytes={os.path.getsize(args.index)}")
    print(f"heap_bytes={heap_bytes}")
    if index.rrr_block_size:
        for kind, count in index.blocks.bits.sample_kinds().items():
            print(f"rrr_samples_{kind}={count}")
    # the load above, timed under tracemalloc, which slows it
    print(f"load_seconds={load_seconds:.6f}")
    return 0


def cmd_bench(args):
    for name in ("patterns", "length", "repeats"):
        _require(getattr(args, name) >= 1, f"--{name} must be >= 1")
    raw = _read_file(args.text)
    if len(raw) < args.length:
        raise CliError("text shorter than the requested pattern length")
    index = _load_index(args.index)
    rng = random.Random(args.seed)
    patterns = []
    for _ in range(args.patterns):
        at = rng.randrange(len(raw) - args.length + 1)
        patterns.append(raw[at : at + args.length])

    def run_once():
        times = []
        total = 0
        for pattern in patterns:
            t0 = time.perf_counter_ns()
            total += index.count(pattern)
            times.append(time.perf_counter_ns() - t0)
        return times, total

    # each repeat times a point-count pass, then the same patterns in one
    # batch, so that a drift in machine speed hits both sides alike; the
    # best of each side is kept
    runs = []
    counts_sum = None
    batch_ns = None
    for _ in range(args.repeats):
        times, total = run_once()
        if counts_sum is None:
            counts_sum = total
        elif counts_sum != total:
            raise AssertionError("pattern counts changed between repeats")
        runs.append(times)
        t0 = time.perf_counter_ns()
        total = sum(index.count_many(patterns))
        elapsed = time.perf_counter_ns() - t0
        if total != counts_sum:
            raise AssertionError("batch counts differ from the point counts")
        batch_ns = elapsed if batch_ns is None else min(batch_ns, elapsed)
    best = min(runs, key=sum)
    mean_us = sum(best) / len(best) / 1000.0
    batch_mean_us = batch_ns / len(patterns) / 1000.0
    median_us = statistics.median(best) / 1000.0
    p99_us = sorted(best)[min(len(best) - 1, int(0.99 * len(best)))] / 1000.0
    report = index.size_report()
    if args.json:
        record = {
            "patterns": args.patterns,
            "length": args.length,
            "seed": args.seed,
            "repeats": args.repeats,
            "counts_sum": counts_sum,
            "mean_us": round(mean_us, 3),
            "median_us": round(median_us, 3),
            "p99_us": round(p99_us, 3),
            "batch_mean_us": round(batch_mean_us, 3),
            "batch_speedup": round(mean_us / batch_mean_us, 2),
            "variant": index.variant.value,
            "block_size": index.block_size,
            "bits_per_symbol": round(report.bits_per_symbol, 4),
        }
        print(json.dumps(record))
        return 0
    print(f"patterns={args.patterns}")
    print(f"length={args.length}")
    print(f"seed={args.seed}")
    print(f"repeats={args.repeats}")
    print(f"counts_sum={counts_sum}")
    print(f"mean_us={mean_us:.3f}")
    print(f"median_us={median_us:.3f}")
    print(f"p99_us={p99_us:.3f}")
    print(f"batch_mean_us={batch_mean_us:.3f}")
    print(f"batch_speedup={mean_us / batch_mean_us:.2f}")
    print("csv=variant,b,bits_per_symbol,mean_us")
    print(
        f"{index.variant.value},{index.block_size},"
        f"{report.bits_per_symbol:.4f},{mean_us:.3f}"
    )
    return 0


def cmd_entropy(args):
    _require(args.max_k >= 0, "-k must be >= 0")
    t = _build_text(args.text)
    print(f"n={t.n}")
    print(f"sigma={t.sigma}")
    print(f"H0={ent.h0(t.data):.6f}")
    for k in range(1, args.max_k + 1):
        print(f"H{k}={ent.hk(t, k):.6f}")
    return 0


def cmd_verify_bounds(args):
    k = args.k
    _require(k >= 0, "context order must be non-negative")
    b = 1024 if args.block_size is None else args.block_size
    _require(b >= 1, "block size must be >= 1")
    t = _build_text(args.text)
    sa = textcore.suffix_array(t)
    bw = textcore.bwt(t, sa)
    part = ent.context_partition(bw, t, k, sa)
    lhs1 = ent.partition_entropy(bw.l, part)
    rhs1 = t.n * ent.hk(t, k)
    residual = abs(lhs1 - rhs1) / max(1.0, abs(rhs1))
    ok1 = residual <= ent.REL_TOL
    lhs3, rhs3 = ent.verify_lemma3(bw.l, part, b)
    slack = ent.REL_TOL * max(1.0, abs(rhs3))
    ok3 = lhs3 <= rhs3 + slack
    print(f"n={t.n}")
    print(f"sigma={t.sigma}")
    print(f"k={k}")
    print(f"block_size={b}")
    print(f"context_blocks={part.block_count}")
    print(f"context_bits={lhs1:.6f}")
    print(f"n_hk_bits={rhs1:.6f}")
    print(f"identity_residual={residual:.3e}")
    print(f"identity={'PASS' if ok1 else 'FAIL'}")
    print(f"fixed_bits={lhs3:.6f}")
    print(f"bound_bits={rhs3:.6f}")
    print(f"fixed_overhead_bits={lhs3 - (rhs3 - (part.block_count - 1) * b):.6f}")
    print(f"overhead_bound_bits={(part.block_count - 1) * b}")
    print(f"bound={'PASS' if ok3 else 'FAIL'}")
    if not (ok1 and ok3):
        print("bound verification failed", file=sys.stderr)
        return 2
    return 0


@functools.cache  # 0.7 ms a build, and a parse leaves the parser as it was: one per process
def build_parser():
    parser = argparse.ArgumentParser(
        prog="fmblock",
        description="Compressed full-text count index and entropy toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="index a file and save the result")
    p.add_argument("text", help="file to index")
    p.add_argument("-o", "--output", required=True, help="index file to write")
    p.add_argument("--variant", choices=sorted(VARIANT_BY_FLAG), default="fixed")
    p.add_argument("--block-size", type=int, default=None)
    p.add_argument("--rrr-block-size", type=int, default=15)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("count", help="count pattern occurrences with a saved index")
    p.add_argument("index")
    p.add_argument("-p", "--pattern", action="append", help="literal pattern, repeatable")
    p.add_argument("--patterns-file", help="file with one pattern per line")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("stats", help="size breakdown of a saved index")
    p.add_argument("index")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bench", help="time count queries over sampled patterns")
    p.add_argument("index")
    p.add_argument("text", help="file the index was built from, used to sample patterns")
    p.add_argument("--patterns", type=int, default=10000)
    p.add_argument("--length", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--json", action="store_true", help="print one JSON object instead of key=value lines")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("entropy", help="order-0..k entropy of a file")
    p.add_argument("text")
    p.add_argument("-k", "--max-k", type=int, default=0)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("verify-bounds", help="check the partition-entropy identities on a file")
    p.add_argument("text")
    p.add_argument("-k", type=int, default=1)
    p.add_argument("--block-size", type=int, default=None)
    p.set_defaults(func=cmd_verify_bounds)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # invariant violations and bugs, not user input
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
