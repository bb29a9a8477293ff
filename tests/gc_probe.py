"""Where the garbage collector runs in one benchmark pass.

Run from the repository root:

    PYTHONPATH=src:tests python3 tests/gc_probe.py WORKLOAD [--seed SEED]

WORKLOAD is one of perfbench/workloads.py's (shipped, b3_kernel,
sweep_cold), SEED the run seed perfbench/run.py would take (default 4242).
The workload's pass plan is built as run.py builds it, and one pass runs in
a fresh interpreter through a copy of perfbench/pass_runner.py, with its
hostclock.py and tracing.py, in a temporary directory that also holds the
bytecode cache; nothing under perfbench/ is written.  The pass runs twice
and the second is reported, so that it loads its modules from a warm
cache, as the harness's passes after its first do.

Before the pass, a gc.callbacks hook is installed that writes the
generation and the start and end of each collection into preallocated
arrays, and a wrapper around the harness's pair timer reads the
generation-0 count as each pair starts.  The probe then prints:

- the thresholds of the three generations;
- for each scenario, the generation-0 count at each of its pair starts;
- for each collection, its generation, its wall time in milliseconds and
  where it fell: before or after the scenarios, in a scenario's set-up
  (the build and its first pair, which the harness counts as set-up),
  in warm pair k of scenario s, between two pairs, or after the pairs.

The probe is not the harness: its hook and wrapper allocate a few objects
of their own, so they shift the generation-0 counts by a few.  Near a
threshold it can place a collection one pair away from where the harness
meets it, so read it beside the harness's pair_ms_tail for the same seed:
a collection of generation 1 or 2 inside a warm pair is what moves that
tail.  On b3_kernel with the row-table images, for one, the probe places
the first generation-1 collection in pair 0, while the harness's
pair_ms_tail shows it in a warm pair.  Not collected by pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
COPIED = ("pass_runner.py", "hostclock.py", "tracing.py")
SLOTS = 1 << 16

# Run in the child interpreter, with the copied pass runner as argv[1] and
# the plan on stdin.  The runner is compiled from source, as the harness
# runs it as a script, but not run as __main__, so that the probe can wrap
# its run_scenario.  The pass result goes to a buffer, and one JSON line of
# what the hooks recorded to stdout.
CHILD = """
import gc, io, json, sys, time
from array import array

path = sys.argv[1]
with open(path, encoding="utf-8") as f:
    source = f.read()
pass_runner = {"__name__": "pass_runner", "__file__": path}
exec(compile(source, path, "exec"), pass_runner)

SLOTS = %d
gen = array("b", bytes(SLOTS))
begin = array("d", bytes(8 * SLOTS))
end = array("d", bytes(8 * SLOTS))
filled = array("q", [0, 0])


def hook(phase, info):
    n = filled[0]
    if n < SLOTS:
        if phase == "start":
            gen[n] = info["generation"]
            begin[n] = time.perf_counter()
        else:
            end[n] = time.perf_counter()
            filled[0] = n + 1
    elif phase == "stop":
        filled[1] += 1


counts = array("q", bytes(8 * SLOTS))
pairs = array("q", [0])
scenarios = []
run_scenario = pass_runner["run_scenario"]


def probed_scenario(mods, host, clock, tracer, item):
    # main() has wrapped verify_identity in its pair timer by now; the
    # count is read just outside the timer, once per pair.
    verify = mods["verify"]
    if not hasattr(verify.verify_identity, "probed"):
        inner = verify.verify_identity

        def probed(*args, **kwargs):
            k = pairs[0]
            if k < SLOTS:
                counts[k] = gc.get_count()[0]
                pairs[0] = k + 1
            return inner(*args, **kwargs)

        probed.probed = True
        verify.verify_identity = probed
    first = pairs[0]
    t0 = time.perf_counter()
    try:
        return run_scenario(mods, host, clock, tracer, item)
    finally:
        scenarios.append((item["name"], t0, time.perf_counter(), list(clock.spans), first, pairs[0]))


pass_runner["run_scenario"] = probed_scenario
gc.callbacks.append(hook)
stdout, sys.stdout = sys.stdout, io.StringIO()
try:
    pass_runner["main"]()
finally:
    gc.callbacks.remove(hook)
    sys.stdout = stdout
n = filled[0]
print(json.dumps({
    "thresholds": gc.get_threshold(),
    "collections": [[gen[k], begin[k], end[k]] for k in range(n)],
    "dropped": filled[1],
    "counts": list(counts[:pairs[0]]),
    "scenarios": scenarios,
}))
""" % SLOTS


def plan(workload: str, seed: int) -> dict:
    """The pass plan perfbench/run.py hands its pass runner, untraced."""
    # Some workloads read the package to write their scenario texts.
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    sys.dont_write_bytecode = True
    import workloads
    items = workloads.WORKLOADS[workload][0](seed, ROOT)
    return {
        "scenarios": [
            {"name": it["name"], "text": it["text"], "samples": it["samples"], "seed": it["seed"],
             "cli_samples": it.get("cli_samples", it["samples"])}
            for it in items
        ],
        "trace": False,
        "span_file": None,
    }


def run_pass(workload: str, seed: int) -> dict:
    """The hooks' record of the second of two passes: the first fills the
    bytecode cache, as the harness's earlier passes fill its own, since
    compiling a module on import allocates far more than loading it."""
    text = json.dumps(plan(workload, seed))
    with tempfile.TemporaryDirectory(prefix="gc_probe_") as tmp:
        for name in COPIED:
            shutil.copy(BENCH / name, Path(tmp) / name)
        # The harness's child environment (perfbench/run.py, child_env),
        # with the cache in the temporary directory.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONPYCACHEPREFIX"] = str(Path(tmp) / "pycache")
        for name in ("PYTHONDONTWRITEBYTECODE", "ENDOTRANSFER_TOL"):
            env.pop(name, None)
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", CHILD, str(Path(tmp) / "pass_runner.py")],
                input=text, capture_output=True, text=True, env=env, cwd=ROOT, timeout=600,
            )
            if proc.returncode != 0:
                raise SystemExit(f"pass exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def place(t: float, scenarios) -> str:
    """Where a collection that started at t fell."""
    for name, start, stop, spans, _, _ in scenarios:
        if not start <= t < stop:
            continue
        if not spans or t < spans[0][1]:
            return f"set-up of {name}" + (", pair 0" if spans and t >= spans[0][0] else "")
        for k, (a, b) in enumerate(spans[1:], 1):
            if a <= t < b:
                return f"warm pair {k} of {name}"
            if t < a:
                return f"between pairs {k - 1} and {k} of {name}"
        return f"after the pairs of {name}"
    first = min((s[1] for s in scenarios), default=t)
    return "before the scenarios" if t < first else "after the scenarios"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=("shipped", "b3_kernel", "sweep_cold"))
    parser.add_argument("--seed", type=int, default=4242)
    args = parser.parse_args(argv)
    r = run_pass(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, one pass")
    print("thresholds " + " ".join(map(str, r["thresholds"])))
    print("generation-0 count at each pair start")
    for name, _, _, _, first, last in r["scenarios"]:
        print(f"  {name}: " + " ".join(map(str, r["counts"][first:last])))
    print("collections: generation, wall ms, where")
    for generation, begin, end in r["collections"]:
        print(f"  {generation} {1e3 * (end - begin):.3f} {place(begin, r['scenarios'])}")
    if r["dropped"]:
        print(f"  {r['dropped']} more not recorded (slots full)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
