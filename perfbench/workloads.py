"""Workload generators.  Each turns a seed into scenario texts and the
pair count and run_verify seed of each scenario; nothing else reaches the
program.  WORKLOADS.md records the parameters and why each was chosen.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

# A run makes the minimum number of passes in WORKLOADS, then more while
# the next one is expected to end within --seconds.  Each pass repeats the
# same computation; each scenario's and each warm pair's time is its median
# over the passes.
# The first pair of a scenario fills the per-w caches and counts as
# set-up; the others are warm.
#
# shipped: 5 files x 40 warm pairs = 200 warm pairs, tail p95.
SHIPPED_PAIRS = 41
# b3_kernel: 8 warm pairs, tail p100; few enough that four passes fit in
# 35 s, so that the median set-up and CLI times rest on four samples.  The
# CLI verifies one pair, which is set-up dominated.
B3_PAIRS = 9
B3_CLI_PAIRS = 1
# sweep_cold: 45 data x 1 warm pair = 45 warm pairs, tail p77.8.  The CLI
# runs the datum with s = (-1, ..., -1) of each of the nine types.
SWEEP_PAIRS = 2
SWEEP_TYPES = ("A1", "A1xA1", "B2", "G2", "A1xA1xA1", "A1xB2", "A1xG2", "B3", "C3")


def _seeds(seed: int, n: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(n)]


def base_point(rank: int) -> str:
    """The base point rule: coordinates 1/2, 2/3, 3/4, ... on both sides."""
    return ", ".join(f"{k + 1}/{k + 2}" for k in range(rank))


def scenario_text(name, g_type, grading_g, signs, grading_h_count) -> str:
    grade = {0: "compact", 1: "noncompact"}
    lines = [f"name = {name}", f"g_type = {g_type}", "form_scale = 1", "", "[grading_g]"]
    lines += [f"alpha{i + 1} = {grade[g]}" for i, g in enumerate(grading_g)]
    lines += ["", "[s_character]"]
    lines += [f"alpha{i + 1} = {s:+d}" for i, s in enumerate(signs)]
    lines += ["", "[grading_h]"]
    lines += [f"alpha{i + 1} = noncompact" for i in range(grading_h_count)]
    point = base_point(len(signs))
    lines += ["", "[base_point]", f"x_h = {point}", f"x_g = {point}", ""]
    return "\n".join(lines)


def split_count_grading(g_type: str) -> tuple[int, ...]:
    """First simple-root grading, compact before noncompact and alpha1
    varying slowest, whose compact roots number |Phi+| - rank, the count of
    the split real form."""
    from endotransfer import build_grading, build_root_datum

    datum = build_root_datum(g_type)
    target = len(datum.positive_roots) - datum.rank
    for grades in itertools.product((0, 1), repeat=datum.rank):
        if len(build_grading(datum, grades).compact_roots) == target:
            return grades
    raise ValueError(f"{g_type} has no grading with {target} compact roots")


def h_simple_count(g_type: str, signs) -> int:
    from endotransfer import build_endoscopic_datum, build_root_datum

    return len(build_endoscopic_datum(build_root_datum(g_type), signs).h_datum.simple_roots)


def sign_name(signs) -> str:
    return "".join("+" if s == 1 else "-" for s in signs)


def shipped(seed: int, root: Path) -> list[dict]:
    files = sorted((root / "src" / "endotransfer" / "scenarios").glob("*.scn"))
    return [
        {
            "name": f.stem,
            "path": str(f.relative_to(root)),
            "text": f.read_text(encoding="utf-8"),
            "samples": SHIPPED_PAIRS,
            "seed": s,
            "expect_pass": True,
        }
        for f, s in zip(files, _seeds(seed, len(files)))
    ]


B3_GRADING_G = (0, 0, 1)  # alpha1, alpha2 compact; alpha3 noncompact
B3_SIGNS = (1, 1, -1)


def b3_kernel(seed: int, root: Path) -> list[dict]:
    text = scenario_text(
        "b3_kernel", "B3", B3_GRADING_G, B3_SIGNS, h_simple_count("B3", B3_SIGNS)
    )
    return [
        {"name": "b3_kernel", "text": text, "samples": B3_PAIRS, "cli_samples": B3_CLI_PAIRS,
         "seed": _seeds(seed, 1)[0], "expect_pass": True}
    ]


def sweep_cold(seed: int, root: Path) -> list[dict]:
    data = []
    for g_type in SWEEP_TYPES:
        grading = split_count_grading(g_type)
        rank = len(grading)
        for signs in itertools.product((1, -1), repeat=rank):
            if all(s == 1 for s in signs):
                continue
            name = f"{g_type}_{sign_name(signs)}"
            text = scenario_text(name, g_type, grading, signs, h_simple_count(g_type, signs))
            data.append({"name": name, "text": text, "samples": SWEEP_PAIRS, "expect_pass": False,
                         "cli": all(s == -1 for s in signs)})
    for item, s in zip(data, _seeds(seed, len(data))):
        item["seed"] = s
    return data


WORKLOADS = {
    # name: (generator, minimum passes per run)
    "shipped": (shipped, 3),
    "b3_kernel": (b3_kernel, 3),
    "sweep_cold": (sweep_cold, 1),
}
