"""tests/gc_probe.py drives a copy of the benchmark's pass runner and wraps
its run_scenario by name, so a renamed runner function would break it where
no other test looks: one probe of b3_kernel must exit 0, print the
generation-0 count at each of the workload's nine pair starts, and place
every collection it prints."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PLACES = re.compile(
    r"before the scenarios|after the scenarios|set-up of b3_kernel(, pair 0)?"
    r"|warm pair [1-8] of b3_kernel|between pairs \d and \d of b3_kernel|after the pairs of b3_kernel"
)


def test_one_probe_of_b3_kernel_places_every_collection():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    res = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "gc_probe.py"), "b3_kernel", "--seed", "4242"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "workload b3_kernel, seed 4242, one pass"
    assert re.fullmatch(r"thresholds \d+ \d+ \d+", lines[1])
    assert lines[2] == "generation-0 count at each pair start"
    counts = re.fullmatch(r"  b3_kernel:((?: \d+)+)", lines[3])
    assert counts and len(counts.group(1).split()) == 9, lines[3]
    assert lines[4] == "collections: generation, wall ms, where"
    assert len(lines) > 5
    for line in lines[5:]:
        match = re.fullmatch(r"  ([012]) (\d+\.\d{3}) (.*)", line)
        assert match and PLACES.fullmatch(match.group(3)), line
