"""One measured pass of a workload, in a fresh interpreter.

Reads a JSON pass plan on stdin and prints one JSON result line.  The plan
holds only scenario texts and, for each scenario, the pair count and seed
handed to ``run_verify`` and the pair count the CLI will be given.  Each
scenario goes text -> parse_scenario -> build_scenario -> run_verify ->
emit_report(machine) -> parse_machine_report, one pair after another on one
thread.  The build_root_datum cache is cleared before each scenario, so
every build starts cold.

Every time is returned twice: in wall seconds and in reference seconds
(hostclock.py).  The host is calibrated before and after each scenario
and, untraced, every 50 ms while it runs; traced, only before and after,
so that no calibration falls inside a span.

With ``trace`` set, the wrappers of ``tracing.LAYERS`` are installed first
and the layer totals are returned with the result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from hostclock import HostClock  # noqa: E402


def _modules():
    from endotransfer import distributions, endoscopy, rootdata, scenario, tits, verify

    return {
        "distributions": distributions,
        "endoscopy": endoscopy,
        "rootdata": rootdata,
        "scenario": scenario,
        "tits": tits,
        "verify": verify,
    }


class PairClock:
    """Records the start and end of each verify_identity call made by
    run_verify.

    Installed outermost, so with tracing on it also times the wrappers.
    An exception is recorded and re-raised unchanged."""

    def __init__(self, verify_module):
        self.spans: list[tuple[float, float]] = []
        self.verdicts: list[bool] = []
        self.error: str | None = None
        inner = verify_module.verify_identity

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                report = inner(*args, **kwargs)
            except Exception as e:
                self.spans.append((t0, time.perf_counter()))
                self.error = f"{type(e).__name__}: {e}"
                raise
            self.spans.append((t0, time.perf_counter()))
            self.verdicts.append(bool(report.passed))
            return report

        verify_module.verify_identity = timed

    def reset(self):
        self.spans, self.verdicts, self.error = [], [], None


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _round_trip_problems(report, text, parsed) -> list[str]:
    """The parsed machine report must give back the in-memory values
    bit-exactly, and every PASS must be within the tolerance."""
    problems = []
    if len(parsed["records"]) != len(report.records):
        return ["record count differs after parse_machine_report"]
    for rec, back in zip(report.records, parsed["records"]):
        r = rec.report
        if (back.lhs, back.rhs, back.abs_error, back.termwise_max) != (
            r.lhs, r.rhs, r.abs_error, r.termwise_max
        ):
            problems.append(f"pair {rec.index}: values differ after round trip")
        if r.passed and not (r.abs_error <= report.tolerance and r.termwise_max <= report.tolerance):
            problems.append(f"pair {rec.index}: PASS outside the tolerance")
    status = "PASS" if report.all_passed else "FAIL"
    if parsed.get("status") != status or parsed.get("summary.total") != str(len(report.records)):
        problems.append("summary lines disagree with the records")
    return problems


def run_scenario(mods, host, clock, tracer, item) -> dict:
    scenario, verify = mods["scenario"], mods["verify"]
    mods["rootdata"].build_root_datum.cache_clear()
    clock.reset()
    out = {"name": item["name"], "refused": None, "error": None}
    host.mark()
    if not tracer:
        host.start()
    root = tracer.open(tracing.ROOT_SPAN) if tracer else None
    t0 = time.perf_counter()
    t_built = None
    try:
        try:
            built = scenario.build_scenario(scenario.parse_scenario(item["text"]))
        except scenario.ScenarioError as e:
            out["refused"] = str(e)
            return out
        t_built = time.perf_counter()
        try:
            report = verify.run_verify(built, item["samples"], item["seed"])
        except Exception as e:
            out["error"] = clock.error or f"{type(e).__name__}: {e}"
            return out
        text = verify.emit_report(report, "machine")
        parsed = verify.parse_machine_report(text)
    except Exception as e:
        out["error"] = f"{type(e).__name__}: {e}"
        return out
    finally:
        # A refused or failed scenario still reports the time it took.
        t_end = time.perf_counter()
        if tracer:
            tracer.close(root, tracing.ROOT_SPAN)
        if not tracer:
            host.stop()
        host.mark()
        pairs = [host.span(a, b) for a, b in clock.spans]
        build = host.span(t0, t_built or t_end)
        first = pairs[0] if pairs else (0.0, 0.0)
        out["pair_s"] = [raw for raw, _ in pairs]
        out["pair_ref_s"] = [ref for _, ref in pairs]
        out["verdicts"] = list(clock.verdicts)
        out["run_s"], out["run_ref_s"] = host.span(t0, t_end)
        out["setup_s"] = build[0] + first[0]
        out["setup_ref_s"] = build[1] + first[1]
    out["sha256"] = _sha(text)
    out["report_bytes"] = len(text.encode("utf-8"))
    # The report `verify --samples cli_samples` must print: run_verify draws
    # the pairs in order from its seed, so it holds the first records.
    # This is bookkeeping, so it calls past the tracing wrapper.
    n = item["cli_samples"]
    short = dataclasses.replace(report, samples=n, records=report.records[:n])
    emit = getattr(verify.emit_report, "__wrapped__", verify.emit_report)
    out["cli_sha256"] = _sha(emit(short, "machine"))
    out["problems"] = _round_trip_problems(report, text, parsed)
    return out


def layer_metrics(tracer: tracing.Tracer) -> dict:
    selfs, calls = tracer.self_times()
    m: dict[str, float] = {}
    for _, _, span, self_name, calls_name in tracing.LAYERS:
        if self_name:
            m[self_name] = selfs.get(span, 0.0)
        if calls_name:
            m[calls_name] = calls.get(span, 0)
    pairs = calls.get(tracing.PAIR_SPAN, 0)
    kernel_incl = tracer.inclusive("distributions.kernel")
    m["distributions.kernel_terms"] = tracer.kernel_terms
    m["distributions.kernel_terms_per_s"] = tracer.kernel_terms / kernel_incl if kernel_incl else 0.0
    rf = calls.get("endoscopy.relative_factor", 0)
    m["endoscopy.relative_factor_calls_per_pair"] = rf / pairs if pairs else 0.0
    m["endoscopy.weight_useful_ratio"] = len(tracer.weights) / rf if rf else 0.0
    m["endoscopy.delta_i_distinct_w"] = len(tracer.delta_i_w)
    m["endoscopy.delta_iii_distinct_w"] = len(tracer.delta_iii_w)
    m["trace.uncovered_s"] = selfs.get(tracing.ROOT_SPAN, 0.0)
    m["trace.spans"] = len(tracer.start)
    m["trace.span_cost_s"] = len(tracer.start) * tracing.span_cost()
    m["trace.layer_self_sum_s"] = sum(v for k, v in selfs.items() if k != tracing.ROOT_SPAN)
    return m


def main() -> int:
    plan = json.loads(sys.stdin.read())
    mods = _modules()
    tracer = None
    if plan["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer, mods)
    host = HostClock()
    clock = PairClock(mods["verify"])
    results = []
    for i, item in enumerate(plan["scenarios"]):
        if tracer:
            tracer.scenario_index = i
        results.append(run_scenario(mods, host, clock, tracer, item))
    out = {
        "results": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "slowdowns": host.slowdowns,
    }
    if tracer:
        out["layers"] = layer_metrics(tracer)
        if plan.get("span_file"):
            tracer.write(plan["span_file"])
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
