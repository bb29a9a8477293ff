"""Wall time of each set-up stage over the 45 data of rank <= 3 with -1 in
W, and over the b3_kernel datum alone.

Run from the repository root:

    PYTHONPATH=src:tests python3 tests/setup_probe.py [PASSES]

The 45 data are those of the benchmark's cold sweep: each Cartan type of
oracles.TYPES but C2 (the same matrix as B2), the first simple grading of G
whose compact roots number |Phi+| - rank (the split real form's count),
every nontrivial s, H quasi-split (every simple root noncompact) and the
base point (1/2, 2/3, 3/4, ...) on both sides, as tests/conftest.py builds
them.  The b3_kernel datum is B3_TEXT of tests/test_report_digests.py.
Each datum is written as a scenario text and set up as the loader and
verify set it up, with a cold build_root_datum cache: parse_scenario,
build_scenario, the pair table and the first pair of run_verify.

Each stage is timed by a wrapper around the functions it names, inclusive
of what they call; the rows marked "of which" are parts of the row above
them, and count only the calls made inside it.  "reflection table of G"
is the permutation of every root's reflection, which G's datum builds from
its closure (rootdata._build_reflection_table).  The real Weyl closure is
G's alone: the loader leaves W_real(H) to its first read, which set-up and
verify do not make.  "Cayley table and group laws" is what the engine
reads from W's right Cayley table: W_H with its positions in W
(weyl_subgroup), w^{-1} and w^{-2} (WeylGroup.inverses) and -w
(WeylGroup.left_rows); the table itself is built by the search of
enumerate_weyl's row.  A pass sets up every datum of a table once, and each
row prints the median over the passes of its per-pass sum, with its share
of the median set-up time: in wall milliseconds over PASSES passes
(default 15) for the 45 data, in wall microseconds over 10 * PASSES passes
for the b3_kernel datum.  "other" is what no row names: build_scenario's
own checks, build_endoscopic_datum beyond H's datum, and the bookkeeping of
the wrappers.  Not collected by pytest.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import time
from functools import wraps

from endotransfer import distributions, endoscopy, rootdata, scenario
from endotransfer.endoscopy import TransferFactorEngine
from endotransfer.realform import build_grading
from endotransfer.rootdata import WeylGroup, build_root_datum
from endotransfer.verify import run_verify

from oracles import TYPES, scenario_text
from test_report_digests import B3_TEXT

PASSES = 15

# (label, level, [(owner, attribute), ...]): level 1 rows are parts of the
# level 0 row above them.
STAGES = (
    ("parse_scenario", 0, [(scenario, "parse_scenario")]),
    ("root closure with RootDatum.__init__, G and H", 0,
     [(scenario, "build_root_datum"), (endoscopy, "build_sub_datum")]),
    ("reflection table of G", 1, [(rootdata, "_build_reflection_table")]),
    ("build_grading with _check_grading", 0, [(scenario, "build_grading")]),
    ("real Weyl closure, G", 0, [(scenario, "real_weyl_group")]),
    ("TransferFactorEngine.__init__", 0, [(TransferFactorEngine, "__init__")]),
    ("enumerate_weyl, G", 1, [(endoscopy, "enumerate_weyl")]),
    ("Cayley table and group laws", 1,
     [(endoscopy, "weyl_subgroup"), (WeylGroup, "inverses"), (WeylGroup, "left_rows")]),
    ("base diagram: regularity and search", 1,
     [(endoscopy, "require_regular"), (endoscopy, "_minimal_diagram")]),
    ("make_scenario (two Sides)", 0, [(scenario, "make_scenario")]),
    ("transfer_table", 0, [(TransferFactorEngine, "transfer_table")]),
    ("group_products and row_table", 0,
     [(TransferFactorEngine, "group_products"), (distributions, "row_table")]),
    ("first pair beyond its table", 0, []),
)


def _data() -> list[str]:
    """The scenario texts of the 45 data."""
    texts = []
    for g_type in TYPES:
        if g_type == "C2":
            continue
        g = build_root_datum(g_type)
        target = len(g.positive_roots) - g.rank
        grades = next(
            gr for gr in itertools.product((0, 1), repeat=g.rank)
            if len(build_grading(g, gr).compact_roots) == target
        )
        for signs in itertools.product((1, -1), repeat=g.rank):
            if all(s == 1 for s in signs):
                continue
            h_rank = len(endoscopy.build_endoscopic_datum(g, signs).h_datum.simple_roots)
            texts.append(scenario_text(g_type, grades, signs, h_rank))
    return texts


def _instrument(totals: dict[str, float]) -> None:
    """Wrap every function a stage names so that it adds its wall time to
    the stage's total; a call inside another of the same stage adds none,
    and a call of an "of which" stage adds only inside the stage above."""
    for label, level, targets in STAGES:
        active = [0]
        # The active count of the stage a call must be inside of to count.
        within = outer if level else [1]
        if not level:
            outer = active
        for owner, name in targets:
            original = getattr(owner, name)

            def timed(*args, _original=original, _label=label, _active=active, _within=within, **kwargs):
                if _active[0] or not _within[0]:
                    return _original(*args, **kwargs)
                _active[0] += 1
                t0 = time.perf_counter()
                try:
                    return _original(*args, **kwargs)
                finally:
                    totals[_label] += time.perf_counter() - t0
                    _active[0] -= 1

            setattr(owner, name, wraps(original)(timed))


def _pass(texts: list[str], totals: dict[str, float]) -> float:
    """Set up every datum once; the set-up's wall time."""
    total = 0.0
    for seed, text in enumerate(texts):
        build_root_datum.cache_clear()
        t0 = time.perf_counter()
        sc = scenario.build_scenario(scenario.parse_scenario(text))
        t1 = time.perf_counter()
        sc.table
        t2 = time.perf_counter()
        run_verify(sc, 1, seed)
        t3 = time.perf_counter()
        totals["first pair beyond its table"] += t3 - t2
        total += t3 - t0
    return total


def _table(title: str, texts: list[str], passes: int, unit: str, totals: dict[str, float]) -> None:
    """Print the stage table of the data, unit "ms" or "us"."""
    scale = {"ms": 1e3, "us": 1e6}[unit]
    labels = [label for label, _, _ in STAGES]
    samples = {label: [] for label in labels + ["other", "set-up"]}
    for _ in range(passes):
        for label in labels:
            totals[label] = 0.0
        setup = _pass(texts, totals)
        for label in labels:
            samples[label].append(totals[label])
        top = sum(totals[label] for label, level, _ in STAGES if level == 0)
        samples["other"].append(setup - top)
        samples["set-up"].append(setup)
    setup = statistics.median(samples["set-up"])
    print(f"{title}, median of {passes} passes; set-up {scale * setup:.1f} {unit} a pass")
    print(f"{'stage':<52} {unit:>7} {'share':>6}")
    levels = {label: level for label, level, _ in STAGES}
    for label in labels + ["other"]:
        value = statistics.median(samples[label])
        name = ("  of which " if levels.get(label) else "") + label
        print(f"{name:<52} {scale * value:>7.1f} {value / setup:>6.0%}")


def main() -> int:
    passes = int(sys.argv[1]) if len(sys.argv) > 1 else PASSES
    texts = _data()
    totals = dict.fromkeys([label for label, _, _ in STAGES], 0.0)
    _instrument(totals)
    _table(f"{len(texts)} data", texts, passes, "ms", totals)
    print()
    _table("b3_kernel datum", [B3_TEXT], 10 * passes, "us", totals)
    return 0


if __name__ == "__main__":
    sys.exit(main())
