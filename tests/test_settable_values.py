import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import in_git_checkout

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "settable_values.py"


def _tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout


def test_settable_values_counts_defaults_and_dataclass_fields(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOL.parent))
    import settable_values
    source = '''
import dataclasses
from dataclasses import dataclass, field

@dataclass(frozen=True)
class A:
    x: int
    y: float = 1.0
    z: list = field(default_factory=list)
    w = 3  # not annotated: not a field
    def method(self, k=1, *, j=2, i): return lambda q=0: q

@dataclasses.dataclass
class B:
    v: int

class C:
    u: int = 0  # not a dataclass

def _private(a, b=None, *args, c=None, **kw): pass
'''
    assert settable_values.settable_values(source) == (5, 4)


def test_settable_values_on_the_tree_prints_the_module_totals():
    out = _tool()
    rows = re.findall(r"^ *(\d+) +(\d+)  (\S+\.py)$", out, re.MULTILINE)
    assert "newton.py" in {name for _, _, name in rows}, out
    total = re.search(r"^ *(\d+) +(\d+)  total$", out, re.MULTILINE)
    assert total, out
    assert tuple(map(int, total.groups())) == (sum(int(d) for d, _, _ in rows),
                                               sum(int(f) for _, f, _ in rows))


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout with a commit")
def test_settable_values_against_head_prints_both_sides_and_the_change():
    tree = re.search(r"^ *(\d+) +(\d+)  total$", _tool(), re.MULTILINE).groups()
    out = _tool("--against", "HEAD")
    total = re.search(r"^ *(\d+) +(\d+) +(\d+) +(\d+)  total$", out, re.MULTILINE)
    assert total, out
    d_rev, d_now, f_rev, f_now = map(int, total.groups())
    assert (str(d_now), str(f_now)) == tree
    assert d_rev > 0 and f_rev > 0
    assert f"change in the totals: defaults {d_now - d_rev:+d}, fields {f_now - f_rev:+d}" in out
    assert re.search(r"^ *\d+ +\d+ +\d+ +\d+  newton\.py$", out, re.MULTILINE), out
