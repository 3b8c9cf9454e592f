"""bench/ab.py runs: the working tree against its own HEAD prints every key."""

import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_ab_against_head_prints_its_keys_and_ordered_quartiles():
    if subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                      capture_output=True).returncode != 0:
        pytest.skip("bench/ab.py loads a revision from git, and this tree has none")
    run = subprocess.run([sys.executable, str(ROOT / "bench" / "ab.py"), "--rev", "HEAD",
                          "--ops", "3"],
                         cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "rev HEAD ops 3 rounds 8 seed 1"
    # the ratios' sizes depend on the machine's speed, so only their form is checked
    for line, key in zip(lines[1:3], ("wall", "p50")):
        match = re.fullmatch(rf"{key} (\S+) quartiles (\S+) (\S+)", line)
        assert match, line
        median, q1, q3 = map(float, match.groups())
        assert math.isfinite(q3) and 0.0 < q1 <= median <= q3
    assert re.fullmatch(r"faster [0-3] of 3", lines[3])
    assert len(lines) == 4
