"""Physical and code-only line counts of the package's modules.

Code-only lines are those that are not blank, not a comment and not part of
a docstring (a module's, class's or function's first statement, when it is a
string). Run from the repository root:

  python tools/src_lines.py [directory]

It prints one row per module of src/fmblock (or of the given directory),
then the totals.
"""

import ast
import io
import pathlib
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers of every module, class and function docstring in an ast."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source):
    """(physical, code-only) lines of Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else pathlib.Path(__file__).resolve().parent.parent / "src" / "fmblock")
    rows = [(path.name, *count(path.read_text())) for path in sorted(root.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  physical  code")
    for name, physical, code in rows:
        print(f"{name:<{width}}  {physical:>8,}  {code:>4,}")


if __name__ == "__main__":
    main(sys.argv)
