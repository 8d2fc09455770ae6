"""Count the settable values of the pmetraj package: the parameters that
have a default and the fields of its dataclasses.

    python3 tools/settable_values.py [--against REV]

prints, for each module of src/pmetraj in this checkout, the parameters
with a default value in every function and method, private ones and
lambdas included (positional and keyword-only alike), and the fields of
every class decorated with @dataclass or @dataclasses.dataclass (each
annotated name of its body, ClassVar included), then both totals. Each
is a value a caller can set, so a change of design shows in them as code
lines show in tools/code_lines.py.

With --against REV, the package of the git revision REV is counted beside
it, extracted by code_lines.package_at: each module's counts at REV and in
the tree are printed, "-" where a side has no such module, then both
totals and the change in each.

Only the standard library and git are used.
"""
import argparse
import ast
import subprocess
import sys
from pathlib import Path

from code_lines import PACKAGE, ROOT, package_at

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def settable_values(source):
    """(parameters with a default, dataclass fields) of source."""
    defaults = fields = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, FUNCTIONS):
            defaults += len(node.args.defaults)
            defaults += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields += sum(isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                          for stmt in node.body)
    return defaults, fields


def counts(root):
    """{module file name: (defaults, fields)} of the modules in root."""
    return {path.name: settable_values(path.read_text(encoding="utf-8"))
            for path in sorted(Path(root).glob("*.py"))}


def _totals(table):
    return tuple(sum(row[k] for row in table.values()) for k in (0, 1))


def main(argv):
    parser = argparse.ArgumentParser(description="Count the settable values of each module.")
    parser.add_argument("--against", metavar="REV",
                        help="also count the package at this git revision")
    args = parser.parse_args(argv)
    tree = counts(ROOT / PACKAGE)
    if args.against is None:
        print(f"{'defaults':>8}  {'fields':>6}  module")
        for name, (defaults, fields) in tree.items():
            print(f"{defaults:8d}  {fields:6d}  {name}")
        print(f"{_totals(tree)[0]:8d}  {_totals(tree)[1]:6d}  total")
        return 0
    try:
        with package_at(args.against) as package:
            before = counts(package)
    except subprocess.CalledProcessError as exc:
        print(f"error: git archive {args.against}: {exc.stderr.decode().strip()}",
              file=sys.stderr)
        return 2
    print(f"{'defaults':>14}  {'fields':>14}")
    print(f"{'at REV':>6}  {'tree':>6}  {'at REV':>6}  {'tree':>6}  module "
          f"({args.against} against the tree)")
    for name in sorted(before.keys() | tree.keys()):
        rev, now = before.get(name, ("-", "-")), tree.get(name, ("-", "-"))
        print(f"{rev[0]:>6}  {now[0]:>6}  {rev[1]:>6}  {now[1]:>6}  {name}")
    (d_rev, f_rev), (d_now, f_now) = _totals(before), _totals(tree)
    print(f"{d_rev:6d}  {d_now:6d}  {f_rev:6d}  {f_now:6d}  total")
    print(f"change in the totals: defaults {d_now - d_rev:+d}, fields {f_now - f_rev:+d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
