"""Count the code lines of the pmetraj package, docstrings and comments
excluded.

    python3 tools/code_lines.py [DIR] [--against REV]

prints, for each module of DIR (default: src/pmetraj of this checkout),
the lines that hold code, then their total.  A line holds code when a
token other than a comment or a line break starts on it or spans it
(every line of a multi-line string counts), and it is not part of a
docstring: the string that opens a module, class or function body.  Blank
lines and comment-only lines do not count.

With --against REV, the package of the git revision REV (a commit, a
branch, HEAD) is counted beside it: `git archive` extracts REV's
src/pmetraj into a temporary directory (package_at, which
tools/settable_values.py shares), and each module's count at REV and
in DIR is printed, "-" where a side has no such module, then both totals
and the change in the total.

Only the standard library and git are used (ast, tokenize, tarfile).
"""
import argparse
import ast
import contextlib
import io
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/pmetraj"

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


def counts(root):
    """{module file name: code lines} of the modules in root."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(Path(root).glob("*.py"))}


@contextlib.contextmanager
def package_at(rev):
    """The package directory of the git revision rev, extracted with `git
    archive` into a temporary directory that is removed on exit.  A bad rev
    raises subprocess.CalledProcessError."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, PACKAGE], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        yield Path(tmp, PACKAGE)


def main(argv):
    parser = argparse.ArgumentParser(description="Count the code lines of each module.")
    parser.add_argument("dir", nargs="?", default=ROOT / PACKAGE,
                        help="the package directory (default: src/pmetraj here)")
    parser.add_argument("--against", metavar="REV",
                        help="also count the package at this git revision")
    args = parser.parse_args(argv)
    tree = counts(args.dir)
    if args.against is None:
        for name, count in tree.items():
            print(f"{count:6d}  {name}")
        print(f"{sum(tree.values()):6d}  total")
        return 0
    try:
        with package_at(args.against) as package:
            before = counts(package)
    except subprocess.CalledProcessError as exc:
        print(f"error: git archive {args.against}: {exc.stderr.decode().strip()}",
              file=sys.stderr)
        return 2
    print(f"{'at REV':>6}  {'tree':>6}  module ({args.against} against the tree)")
    for name in sorted(before.keys() | tree.keys()):
        print(f"{before.get(name, '-'):>6}  {tree.get(name, '-'):>6}  {name}")
    total_before, total_tree = sum(before.values()), sum(tree.values())
    print(f"{total_before:6d}  {total_tree:6d}  total")
    print(f"change in the total: {total_tree - total_before:+d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
