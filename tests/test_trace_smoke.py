"""One traced pass of the benchmark's pass runner on a shipped scenario.
test_trace_names.py only resolves the traced entry points; this runs their
wrappers and the tracer's observe hooks, which read the diagrams handed to
delta_i and delta_iii, and checks that the set-up still goes through the
names the tracer patches.  No span file is asked for and no bytecode is
written, so the pass leaves no file behind."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_pass_runs_clean():
    text = (ROOT / "src" / "endotransfer" / "scenarios" / "sp4_endoscopy.scn").read_text(
        encoding="utf-8"
    )
    plan = {
        "scenarios": [
            {"name": "sp4_endoscopy", "text": text, "samples": 2, "seed": 0, "cli_samples": 1}
        ],
        "trace": 1,
    }
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "pass_runner.py")],
        input=json.dumps(plan),
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    (result,) = out["results"]
    assert result["refused"] is None and result["error"] is None
    assert result["problems"] == []
    assert result["verdicts"] == [True, True]
    layers = out["layers"]
    for name in (
        "endoscopy.delta_i_calls",
        "endoscopy.delta_iii_calls",
        "distributions.verify_identity_calls",
        "distributions.d_gh_s",
        "distributions.d_tilde_gh_s",
        "rootdata.build_root_datum_s",
        "rootdata.enumerate_weyl_s",
        "realform.real_weyl_group_s",
        "endoscopy.engine_init_s",
    ):
        assert layers[name] > 0, name
