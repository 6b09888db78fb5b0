import importlib.util
import pathlib
import subprocess
import sys

from fmblock.fmindex import build_index
from fmblock.storage import save_index
from fmblock.textcore import build_text

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "heap_lines.py"
_SPEC = importlib.util.spec_from_file_location("heap_lines", _PATH)
heap_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(heap_lines)


def test_the_report_lists_the_largest_lines_then_the_rest_and_the_totals():
    first = {"a.py:1": 800, "b.py:2": 100, "c.py:3": 20, "d.py:4": 4}
    second = {"a.py:1": 800, "b.py:2": 36, "e.py:5": 8}
    rows = heap_lines.report(first, second, 64, lines=2)
    assert rows[0].split() == ["line", "first", "second", "first-second"]
    assert [row.split() for row in rows[1:]] == [
        ["a.py:1", "800", "800", "0"],
        ["b.py:2", "100", "36", "64"],
        ["(3", "more", "lines)", "24", "8", "16"],
        ["total", "924", "844", "80"],
        ["bit/sym", "115.5000", "105.5000", "10.0000"],
    ]


def test_a_first_load_holds_the_decode_table_and_a_second_does_not(tmp_path):
    # in a fresh interpreter, an RRR index's first load makes the t = 15
    # decode table, which a second load finds made: it shows as the
    # difference of the two, on the table's line in bitrank
    idx = tmp_path / "t.idx"
    save_index(build_index(build_text(b"abracadabra, a cadabra " * 200), "ssa_rrr"), idx)
    out = subprocess.run([sys.executable, str(_PATH), str(idx), "--lines", "1000"], capture_output=True, text=True, check=True).stdout
    head, table = out.splitlines()[0], [line.split() for line in out.splitlines()[2:]]
    assert head.endswith("n = 4,601")
    rows = {row[0]: [int(x.replace(",", "")) for x in row[1:]] for row in table[:-1]}
    total = rows.pop("total")
    assert total[:2] == [sum(r[0] for r in rows.values()), sum(r[1] for r in rows.values())]
    decode = [where for where, (a, b, _) in rows.items() if where.startswith("fmblock/bitrank.py") and a - b >= 19_816]
    assert decode, rows
    assert total[0] > total[1] > 0


def test_a_reader_that_stops_early_gets_no_traceback(tmp_path):
    # as under "| head": the tool's output pipe is closed by its reader, here
    # before the tool writes its first line, so that the write fails every
    # time; the tool exits 0 with nothing on stderr
    idx = tmp_path / "t.idx"
    save_index(build_index(build_text(b"abracadabra " * 50), "ssa"), idx)
    with subprocess.Popen([sys.executable, str(_PATH), str(idx)], stdout=subprocess.PIPE, stderr=subprocess.PIPE) as tool:
        tool.stdout.close()
        err = tool.stderr.read()
        assert tool.wait(timeout=60) == 0
    assert err == b""
