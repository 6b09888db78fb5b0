"""The heap a loaded index retains, by the source line that allocated it.

Run from the repository root:

  python tools/heap_lines.py INDEX [--lines N]

It loads INDEX twice under tracemalloc, in this fresh interpreter, after
fmblock and numpy are imported: once first, and once more after the first
index is dropped. It prints one row per allocation line, largest first
(the N largest, 40 by default, then the rest as one row): the bytes the
first load retains there, the bytes the second retains, and their
difference, which is what a first load fills for good, such as a module's
cached tables, then the totals, in bytes and in bits per symbol of the
indexed text. The first load's total is what perfbench's heap probe
measures.
"""

import argparse
import gc
import os
import pathlib
import sys
import tracemalloc

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _where(frame):
    """A frame's file and line, the file relative to src/ when it is the package's, else by its name."""
    path = pathlib.Path(frame.filename)
    try:
        name = path.resolve().relative_to(_SRC.resolve()).as_posix()
    except ValueError:
        name = path.name
    return f"{name}:{frame.lineno}"


def retained_by_line(load, path):
    """The bytes load(path) retains, as {file:line: bytes}, and the loaded index; tracing is started and stopped here."""
    gc.collect()
    tracemalloc.start()
    try:
        index = load(path)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    lines = {}
    for stat in snapshot.statistics("lineno"):
        where = _where(stat.traceback[0])
        lines[where] = lines.get(where, 0) + stat.size
    return lines, index


def measure(path):
    """(first, second, n): the two loads' {file:line: bytes}, and the index's text length."""
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))
    from fmblock import storage

    first, index = retained_by_line(storage.load_index, path)
    n = index.n
    del index
    second, _ = retained_by_line(storage.load_index, path)
    return first, second, n


def report(first, second, n, lines=40):
    """The printed table, as a list of rows of text."""
    keys = sorted(set(first) | set(second), key=lambda k: (-first.get(k, 0), -second.get(k, 0), k))
    rows = [(k, first.get(k, 0), second.get(k, 0)) for k in keys]
    shown, rest = rows[:lines], rows[lines:]
    if rest:
        shown.append((f"({len(rest)} more lines)", sum(r[1] for r in rest), sum(r[2] for r in rest)))
    total = ("total", sum(first.values()), sum(second.values()))
    width = max(len(r[0]) for r in [*shown, total])
    out = [f"{'line':<{width}}  {'first':>10}  {'second':>10}  {'first-second':>12}"]
    for where, a, b in [*shown, total]:
        out.append(f"{where:<{width}}  {a:>10,}  {b:>10,}  {a - b:>12,}")
    out.append(f"{'bit/sym':<{width}}  {8 * total[1] / n:>10.4f}  {8 * total[2] / n:>10.4f}  {8 * (total[1] - total[2]) / n:>12.4f}")
    return out


def main(argv):
    parser = argparse.ArgumentParser(prog="heap_lines", description="A loaded index's retained heap by allocation line.")
    parser.add_argument("index", help="an index file, as fmblock build writes it")
    parser.add_argument("--lines", type=int, default=40, help="the largest lines to print, then the rest as one row")
    args = parser.parse_args(argv[1:])
    if not os.path.isfile(args.index):
        parser.error(f"no such file: {args.index}")
    first, second, n = measure(args.index)
    print(f"{args.index}: n = {n:,}")
    print("\n".join(report(first, second, n, args.lines)))


if __name__ == "__main__":
    try:
        main(sys.argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (| head): point stdout at devnull, so that
        # the flush at exit writes nothing more, and exit as a finished run
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
