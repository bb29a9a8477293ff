"""Benchmark of endotransfer's verify path.

    python3 perfbench/run.py --workload shipped --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ./src.  A
pass is one fresh interpreter running the workload's scenarios in-process
(pass_runner.py), then one ``endotransfer verify --format machine``
subprocess per scenario that has "cli" set.  One process runs at a time.
A run makes the workload's minimum number of passes, then more while the
next one is expected to end within --seconds; each scenario's and each
warm pair's time is its median over the passes.  Gated times are in
reference seconds, corrected for the speed of the host (hostclock.py).

--trace 0 prints the end-to-end metrics.  --trace 1 makes one untraced pass
and one traced pass, prints the per-layer metrics, and checks that both
passes give the same reports and verdicts.  --workload all runs every
workload in turn.  Every metric is also printed as a table, by name and
unit, before the final JSON line.  WORKLOADS.md describes the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.pycache_prefix = str(OUT / "pycache")

import workloads  # noqa: E402
from hostclock import HostClock, calibration  # noqa: E402

TOLERANCE = "1e-12"
CHILD_TIMEOUT_S = 170
CLI_TIMEOUT_S = 60
# Each CLI call is timed at least this many times per run, in extra rounds
# within a pass where the workload makes fewer passes: start-up and import
# track the host's speed less closely than the in-process work does.
CLI_TIMINGS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "pairs_per_s": "1/s",
    "cli_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    """Children import ./src and cache bytecode under perfbench/out, as an
    installed package would, whatever the caller's environment says."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    for name in ("PYTHONDONTWRITEBYTECODE", "ENDOTRANSFER_TOL"):
        env.pop(name, None)
    return env


def calibrate() -> float:
    """Median time of three calibration chunks; it tracks the speed of the
    host."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        calibration()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def source_fingerprint() -> str:
    """Hash of the program and of the benchmark that drives it."""
    h = hashlib.sha256()
    for f in sorted([*SRC.rglob("*"), *HERE.glob("*.py")]):
        if f.suffix in (".py", ".scn"):
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def run_pass(items, trace: bool, span_file=None) -> dict:
    plan = {
        "scenarios": [
            {"name": it["name"], "text": it["text"], "samples": it["samples"], "seed": it["seed"],
             "cli_samples": cli_samples(it)}
            for it in items
        ],
        "trace": trace,
        "span_file": str(span_file) if span_file else None,
    }
    proc = subprocess.run(
        [sys.executable, str(HERE / "pass_runner.py")],
        input=json.dumps(plan),
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass runner exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_samples(item) -> int:
    return item.get("cli_samples", item["samples"])


def run_cli(items, results, rounds: int) -> tuple[list, list[str]]:
    """One `endotransfer verify` subprocess per scenario that has "cli" set,
    in turn, for `rounds` rounds, run through cli_clock.py, which calibrates
    the host inside it; this process calibrates before and after.  Returns
    each scenario's median time over the rounds in reference seconds (None
    where not run) and the disagreements with the in-process run: the same
    text, pair count and seed must give the same report bytes."""
    work = OUT / f"cli-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    host = HostClock()
    problems = []
    times = [[] for _ in items]
    try:
        for it, res, it_times in [x for _ in range(rounds) for x in zip(items, results, times)]:
            if not it.get("cli", True):
                continue
            samples = cli_samples(it)
            path = it.get("path")
            if path is None:
                path = work / f"{it['name']}.scn"
                path.write_text(it["text"], encoding="utf-8")
            marks = work / f"{it['name']}.marks.json"
            cmd = [sys.executable, str(HERE / "cli_clock.py"), str(marks), "verify", str(path),
                   "--samples", str(samples), "--seed", str(it["seed"]),
                   "--tol", TOLERANCE, "--format", "machine"]
            host.mark()
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=ROOT,
                                  timeout=CLI_TIMEOUT_S)
            t1 = time.perf_counter()
            host.mark()
            if marks.exists():
                host.merge(json.loads(marks.read_text()))
                marks.unlink()
            it_times.append(host.span(t0, t1)[1])
            if res["refused"] is not None:
                expected_code = 2
            elif res["error"] is not None:
                expected_code = proc.returncode  # the in-process run raised too
            else:
                expected_code = 0 if all(res["verdicts"]) else 1
            if proc.returncode != expected_code:
                problems.append(f"{it['name']}: cli exit {proc.returncode}, expected {expected_code}")
            if res.get("cli_sha256") and hashlib.sha256(proc.stdout).hexdigest() != res["cli_sha256"]:
                problems.append(f"{it['name']}: cli report differs from the in-process report")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return [statistics.median(t) if t else None for t in times], problems


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten values beyond it, and its
    value (nearest rank)."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return 100.0, v[-1]
    return 100.0 * (n - 10) / n, v[n - 11]


def summarize(items, p: dict) -> dict:
    """Per-pass values from one pass runner result."""
    res = p["results"]
    warm = [t for r in res for t in r["pair_ref_s"][1:] if r["error"] is None]
    attempted = sum(len(r["pair_s"]) for r in res if r["refused"] is None)
    errors = sum(1 for r in res if r["error"] is not None)
    attempted += sum(1 for r in res if r["error"] is not None and not r["pair_s"])
    verdicts = []
    for r in res:
        if r["refused"] is not None:
            verdicts.append(f"{r['name']}=REFUSED")
        elif r["error"] is not None:
            verdicts.append(f"{r['name']}=ERROR")
        else:
            verdicts.append(f"{r['name']}={'PASS' if all(r['verdicts']) else 'FAIL'}")
    digest = hashlib.sha256(
        "\n".join([r.get("sha256") or "-" for r in res] + verdicts).encode()
    ).hexdigest()
    problems = [f"{r['name']}: {x}" for r in res for x in r.get("problems", [])]
    for it, verdict in zip(items, verdicts):
        if it["expect_pass"] and not verdict.endswith("=PASS"):
            problems.append(f"the identity must hold here, got {verdict}")
    return {
        "setup_v": [r["setup_ref_s"] for r in res],
        "run_v": [r["run_ref_s"] for r in res],
        "run_wall_v": [r["run_s"] for r in res],
        "warm": warm,
        "slowdowns": p["slowdowns"],
        "peak_rss_mb": p["peak_rss_mb"],
        "attempted": attempted,
        "failed": errors,
        "bad_verdicts": sum(v is False for r in res for v in r["verdicts"]),
        "refused": sum(1 for r in res if r["refused"] is not None),
        "report_bytes": sum(r.get("report_bytes", 0) for r in res),
        "digest": digest,
        "verdicts": verdicts,
        "problems": problems,
        "errors": [f"{r['name']}: {r['error']}" for r in res if r["error"] is not None],
    }


def fail_share(s: dict) -> float:
    """Failing verdicts and errors over attempted pairs, for one pass."""
    return (s["bad_verdicts"] + s["failed"]) / s["attempted"] if s["attempted"] else 0.0


def full_pass(items, cli_rounds: int) -> dict:
    p = run_pass(items, trace=False)
    s = summarize(items, p)
    s["cli_v"], cli_problems = run_cli(items, p["results"], cli_rounds)
    s["problems"] += cli_problems
    return s


def median(vectors) -> list:
    """Elementwise median over passes.  Every pass repeats the same
    computation (same texts, same seeds)."""
    return [None if None in vals else statistics.median(vals) for vals in zip(*vectors)]


def end_to_end(passes) -> tuple[dict, dict, float, int]:
    """Each scenario's set-up, run and CLI time and each warm pair's time
    is taken as its median over the passes; sums, the median and the tail
    are then taken over scenarios and pairs.  Returns the end-to-end
    metrics, the pair-time percentiles, the tail percentile and the warm
    pair count.

    The percentiles are not end-to-end metrics: each rests on the few pairs
    near its rank, so they spread between runs by more than the sums and
    pairs_per_s, which average over the whole pass."""
    warm = median([p["warm"] for p in passes]) or [0.0]
    pct, tail_s = tail(warm)
    cli = [t for t in median([p["cli_v"] for p in passes]) if t is not None]
    e2e = {
        "setup_s": sum(median([p["setup_v"] for p in passes])),
        "run_s": sum(median([p["run_v"] for p in passes])),
        "pairs_per_s": len(warm) / sum(warm) if sum(warm) else 0.0,
        "cli_s": sum(cli),
        "peak_rss_mb": min(p["peak_rss_mb"] for p in passes),
    }
    pairs = {"pair_ms_p50": 1e3 * statistics.median(warm), "pair_ms_tail": 1e3 * tail_s}
    return e2e, pairs, pct, len(warm)


def import_time() -> float:
    code = "import time; t = time.perf_counter(); import endotransfer.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=CLI_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def check_digest_store(workload: str, seed: int, digest: str) -> list[str]:
    """Flag a run whose digest differs from an earlier run of the same
    workload, seed and source tree in this checkout."""
    OUT.mkdir(exist_ok=True)
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{workload}:{seed}:{source_fingerprint()}"
    if key in known and known[key] != digest:
        return [f"report digest {digest[:16]} differs from an earlier run with seed {seed} ({known[key][:16]})"]
    known[key] = digest
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(store)
    return []


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    generate, min_passes = workloads.WORKLOADS[workload]
    cli_rounds = -(-CLI_TIMINGS // min_passes)
    calib_start = calibrate()
    items = generate(seed, ROOT)
    start = time.perf_counter()
    passes = [full_pass(items, cli_rounds)]
    while not trace:
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
        passes.append(full_pass(items, cli_rounds))
    problems = [x for p in passes for x in p["problems"]]
    if len({p["digest"] for p in passes}) > 1:
        problems.append("passes with the same seed gave different reports")
    e2e, pairs, tail_pct, warm_pairs = end_to_end(passes)
    first = passes[0]
    layers = {}
    if trace:
        OUT.mkdir(exist_ok=True)
        traced_raw = run_pass(items, trace=True, span_file=OUT / f"spans-{workload}-{seed}.csv")
        traced = summarize(items, traced_raw)
        if (traced["digest"], traced["verdicts"]) != (first["digest"], first["verdicts"]):
            problems.append("the traced pass changed the reports or verdicts")
        layers = traced_raw["layers"]
        layers.update({
            "trace.run_s": sum(traced["run_wall_v"]),
            "trace.overhead_s": sum(traced["run_wall_v"]) - sum(first["run_wall_v"]),
            "scenario.refused": first["refused"],
            "verify.fail_share": fail_share(first),
            "verify.report_bytes": first["report_bytes"],
            **pairs,
            "cli.import_s": import_time(),
        })
    problems += check_digest_store(workload, seed, first["digest"])
    calib_end = calibrate()
    layers["host.calib_s"] = calib_start
    layers["host.calib_end_s"] = calib_end
    layers["host.slowdown"] = statistics.median(x for p in passes for x in p["slowdowns"])
    return {
        "workload": workload,
        "passes": len(passes),
        "warm_pairs": warm_pairs,
        "tail_pct": tail_pct,
        "e2e": e2e,
        "pairs": pairs,
        "layers": layers,
        "first": first,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": problems,
    }


def layer_unit(name: str) -> str:
    if "_ms_" in name:
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_pair"):
        return "count/pair"
    if name.endswith(("_ratio", "_share", "slowdown")):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def print_table(r: dict) -> None:
    f = r["first"]
    print(f"== {r['workload']}: median of {r['passes']} pass(es), {r['warm_pairs']} warm pairs, "
          f"pair_ms_tail is p{r['tail_pct']:.4g}")
    for k, unit in END_TO_END_UNITS.items():
        print(f"  {k:<44} {r['e2e'][k]:>16.6g} {unit}")
    for k, v in r["pairs"].items():
        print(f"  {k:<44} {v:>16.6g} ms")
    for k in sorted(set(r["layers"]) - set(r["pairs"])):
        print(f"  {k:<44} {r['layers'][k]:>16.6g} {layer_unit(k)}")
    print(f"  fail share {fail_share(f):.4g} ({f['bad_verdicts']} failing verdicts, {f['failed']} errors, "
          f"{f['attempted']} pairs), {f['refused']} refused, digest {f['digest'][:16]}")
    for line in f["errors"] + r["problems"]:
        print(f"  ! {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "endotransfer" / "__init__.py").is_file():
        print(f"no endotransfer package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    runs = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    metrics = {}
    for r in runs:
        print_table(r)
        values = r["layers"] if args.trace else r["e2e"]
        for k, v in values.items():
            unit = layer_unit(k) if args.trace else END_TO_END_UNITS[k]
            name = k if len(runs) == 1 else f"{r['workload']}.{k}"
            metrics[name] = {"value": v, "unit": unit}
    result = {
        "correct": not any(r["problems"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
