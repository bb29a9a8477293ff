"""Wall time of a pair in new Weyl chambers, of the same pair warm, and
their difference: the chamber-memo fill.

Run from the repository root:

    PYTHONPATH=src:tests python3 tests/pair_probe.py [PASSES]

Two workloads are probed: the B3 datum of tests/test_report_digests.py
(alpha3 noncompact, s = (+1, +1, -1), |W| = 48), at nine pairs drawn by
verify.sample_regular_vector, and the 45 data of rank <= 3 with -1 in W of
tests/setup_probe.py, at one pair each.  Each scenario is set up, and its
pair table built, before anything is timed.

A pair is timed as verify_identity, both routes and their pairing, once
with the routes' chamber memos emptied just before ("new chambers") and
once again right after ("warm"), which reads what the first call filled.
Each row prints, in wall microseconds, the median over PASSES passes
(default 15) of its per-pass figure: for B3 the median over its pairs, for
the 45 data the sum over them, as a cold sweep takes one new-chamber pair
of each.  "fill" is new chambers minus warm.  Not collected by pytest.
"""

from __future__ import annotations

import random
import statistics
import sys
import time

from endotransfer.distributions import verify_identity
from endotransfer.endoscopy import EllipticElement
from endotransfer.scenario import build_scenario, parse_scenario
from endotransfer.verify import sample_regular_vector

from setup_probe import _data
from test_report_digests import B3_TEXT

PASSES = 15
B3_PAIRS = 9


def _empty_memos(scenario) -> None:
    table = scenario.table
    table.g_memo.clear()
    for memo in table.h_memo:
        memo.clear()


def _pairs(scenario, seed: int, count: int):
    rng = random.Random(seed)
    return [
        (EllipticElement(sample_regular_vector(scenario, rng)), EllipticElement(sample_regular_vector(scenario, rng)))
        for _ in range(count)
    ]


def _times(scenario, x_h, x_g) -> tuple[float, float]:
    """Wall seconds of the pair in new chambers, then warm."""
    _empty_memos(scenario)
    t0 = time.perf_counter()
    verify_identity(scenario, x_h, x_g)
    t1 = time.perf_counter()
    verify_identity(scenario, x_h, x_g)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1


def _cases() -> list[tuple[str, list]]:
    """(workload, [(scenario, x_h, x_g), ...]), every table built."""
    b3 = build_scenario(parse_scenario(B3_TEXT))
    sweep = [build_scenario(parse_scenario(text)) for text in _data()]
    cases = [
        ("b3_kernel", [(b3, *pair) for pair in _pairs(b3, 9, B3_PAIRS)]),
        ("sweep_cold", [(sc, *_pairs(sc, seed, 1)[0]) for seed, sc in enumerate(sweep)]),
    ]
    for _, items in cases:
        for sc, x_h, x_g in items:
            verify_identity(sc, x_h, x_g)
    return cases


def main() -> int:
    passes = int(sys.argv[1]) if len(sys.argv) > 1 else PASSES
    cases = _cases()
    rows = {name: ([], []) for name, _ in cases}
    for _ in range(passes):
        for name, items in cases:
            times = [_times(*item) for item in items]
            new, warm = rows[name]
            if name == "b3_kernel":
                new.append(statistics.median(t for t, _ in times))
                warm.append(statistics.median(t for _, t in times))
            else:
                new.append(sum(t for t, _ in times))
                warm.append(sum(t for _, t in times))
    print(f"median of {passes} passes, wall microseconds")
    print(f"{'workload':<36} {'new':>9} {'warm':>9} {'fill':>9}")
    labels = {"b3_kernel": "b3_kernel, median pair", "sweep_cold": "sweep_cold, sum of 45 pairs"}
    for name, (new, warm) in rows.items():
        a, b = statistics.median(new), statistics.median(warm)
        print(f"{labels[name]:<36} {1e6 * a:>9.1f} {1e6 * b:>9.1f} {1e6 * (a - b):>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
