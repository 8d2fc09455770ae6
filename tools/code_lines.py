"""Count the code lines of the pmetraj package, docstrings and comments
excluded.

    python3 tools/code_lines.py [DIR]

prints, for each module of DIR (default: src/pmetraj of this checkout),
the lines that hold code, then their total.  A line holds code when a
token other than a comment or a line break starts on it or spans it
(every line of a multi-line string counts), and it is not part of a
docstring: the string that opens a module, class or function body.  Blank
lines and comment-only lines do not count.  To count another revision,
extract its package and pass the directory:

    git archive REV src/pmetraj | tar -x -C /tmp/rev
    python3 tools/code_lines.py /tmp/rev/src/pmetraj

Only the standard library is used (ast and tokenize).
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that hold no code.
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source):
    """The line numbers of every docstring in source."""
    lines = set()
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of lines of source that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv):
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "pmetraj"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
