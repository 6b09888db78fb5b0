#!/usr/bin/env python3
"""Summarise benchmark runs, or compare a set of runs with a parent's.

    python3 perfbench/compare.py RUNS...                    # median and spread per metric
    python3 perfbench/compare.py RUNS... --against PARENT...

RUNS are run records (perfbench/out/run-*.json) or directories holding them.
For each workload and metric it prints the median and the spread, the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median. With --against it also prints how much worse the
median is than the parent's, as a share of the parent's median.

Runs whose input hashes differ measured different texts (the stdlib slice
depends on the installed Python), so they are never compared: the workload
is refused and the exit status is 2. Otherwise the status is 1 when an
end-to-end metric's worsening, or its spread (setup_s excepted), exceeds
its bound in BENCHMARK.json, else 0.
"""

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    records = []
    for path in map(Path, paths):
        files = sorted(path.glob("run-*.json")) if path.is_dir() else [path]
        records += [json.loads(f.read_text()) for f in files]
    return records


def summary(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def by_metric(records):
    out = {}
    for record in records:
        for name, metric in record["result"]["metrics"].items():
            out.setdefault(name, []).append(metric["value"])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("runs", nargs="+")
    parser.add_argument("--against", nargs="+", default=[])
    args = parser.parse_args(argv)
    bench = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    change, parent = load(args.runs), load(args.against)
    status = 0
    for workload, trace in sorted({(r["workload"], r["trace"]) for r in change}):
        ours = [r for r in change if (r["workload"], r["trace"]) == (workload, trace)]
        theirs = [r for r in parent if (r["workload"], r["trace"]) == (workload, trace)]
        hashes = {r["input_sha256"] for r in ours + theirs}
        if len(hashes) > 1:
            print(f"{workload}: refused, the runs measured different inputs: {sorted(hashes)}")
            status = 2
            continue
        print(f"{workload} trace={trace}: {len(ours)} runs" + (f" against {len(theirs)}" if theirs else ""))
        parent_values = by_metric(theirs)
        for name, values in by_metric(ours).items():
            median, spread = summary(values)
            spec = bench.get(name) if trace == 0 else None
            line = f"  {name:44s} median {median:14.6g}  spread {spread:6.3f}"
            # set-up time is gated on its median only: its spread is not held to the bound
            flagged = spec is not None and name != "setup_s" and spread > spec["bound"]
            if name in parent_values:
                base = statistics.median(parent_values[name])
                lower = spec is None or spec["better"] == "lower"
                worse = ((median - base) if lower else (base - median)) / abs(base) if base else 0.0
                line += f"  parent {base:14.6g}  worse by {worse:+.3f}"
                flagged |= spec is not None and worse > spec["bound"]
            if spec is not None:
                line += f"  bound {spec['bound']}"
            print(line + ("  <-- exceeds bound" if flagged else ""))
            if flagged:
                status = max(status, 1)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
