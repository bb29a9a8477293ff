"""The reports are byte-identical across interpreters only as far as the
platform's libm and CPython's float and complex arithmetic agree: the unit
phases rest on cos being even and sin odd, and the transform route's
pairing of w with -w on the complex product's symmetry under conjugation
(distributions.d_tilde_gh).  So the golden digests are checked again under
each other interpreter on PATH: tests/test_report_digests.py, run as a
script under it, must report every digest matching and no unit phase
differing.  An interpreter that is not on PATH, or whose command does not
start (a version manager's shim for a version that is not selected), is
skipped."""

import os
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tests" / "test_report_digests.py"


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_report_digests_under_other_interpreters(version):
    command = shutil.which(f"python{version}")
    if command is None:
        pytest.skip(f"python{version} is not on PATH")
    probe = subprocess.run(
        [command, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
        capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0 or probe.stdout.strip() != version:
        pytest.skip(f"python{version} does not start")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [command, str(SCRIPT)], capture_output=True, text=True, timeout=600, cwd=ROOT, env=env
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "7/7 digests match and 0 unit phases differ" in run.stdout
