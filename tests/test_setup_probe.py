"""tests/setup_probe.py wraps set-up functions by name, so a renamed one
would break it where no other test looks: one pass of it must exit 0 and
print a row for every stage and for "other", and every stage, each a
millisecond or more of set-up, must read above 0.0 ms: a stage whose
functions set-up no longer calls reads 0.0."""

import os
import re
import subprocess
import sys
from pathlib import Path

import setup_probe

ROOT = Path(__file__).resolve().parents[1]


def test_one_pass_prints_every_stage():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    res = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "setup_probe.py"), "1"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("45 data, median of 1 passes")
    rows = res.stdout.splitlines()[2:]
    names = [("  of which " if level else "") + label for label, level, _ in setup_probe.STAGES]
    assert len(rows) == len(names) + 1
    for row, name in zip(rows, names + ["other"]):
        match = re.fullmatch(rf"{re.escape(name)} +(-?\d+\.\d) +-?\d+%", row)
        assert match, row
        assert name == "other" or float(match.group(1)) > 0, row
