import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _in_git_checkout():
    try:
        return subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                              capture_output=True).returncode == 0
    except OSError:  # no git
        return False


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout with a commit")
def test_code_lines_against_head_prints_both_totals_and_the_change():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"),
                          "--against", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout
    total = re.search(r"^ *(\d+) +(\d+)  total$", out, re.MULTILINE)
    assert total, out
    before, tree = map(int, total.groups())
    assert before > 0 and tree > 0
    assert f"change in the total: {tree - before:+d}" in out
    assert re.search(r"^ *\d+ +\d+  newton\.py$", out, re.MULTILINE), out
