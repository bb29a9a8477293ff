"""tests/pair_probe.py reaches into the routes' memos and the set-up
probe's data, so a renamed memo or datum list would break it where no
other test looks: one pass of it must exit 0 and print its two rows, each
a new-chamber, a warm and a fill time, with the new-chamber and warm times
above zero."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROWS = ("b3_kernel, median pair", "sweep_cold, sum of 45 pairs")


def test_one_pass_prints_both_rows():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    res = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "pair_probe.py"), "1"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "median of 1 passes, wall microseconds"
    assert lines[1].split() == ["workload", "new", "warm", "fill"]
    assert len(lines) == 2 + len(ROWS)
    number = r"(-?\d+\.\d)"
    for line, name in zip(lines[2:], ROWS):
        match = re.fullmatch(rf"{re.escape(name)} +{number} +{number} +{number}", line)
        assert match, line
        new, warm, _ = map(float, match.groups())
        assert new > 0 and warm > 0, line
