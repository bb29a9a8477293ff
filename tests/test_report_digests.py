"""Golden digests of the machine reports of the shipped scenarios, of one
rank-3 datum and of the nine data the cold sweep verifies through its CLI.

Each digest is the SHA-256 of emit_report(run_verify(scenario, 20, 4),
"machine"); those of the shipped files were taken before the records
stopped being dataclasses, that of B3 before the pair table became one
record, that of the nine sweep data before the term pairing read its
terms from the routes.  A report that changes in any byte fails here; a
change meant to move a digest records the old and new value in CHANGES.md.

Run as a script, with the package on the path and the standard library
alone, it checks every digest, and the bits of the unit phases against the
literal exponential (oracles.unit_phase_mismatches), and exits 1 naming
each mismatch; that is how the reports are compared across interpreters
that have no pytest:

    PYTHONPATH=src python tests/test_report_digests.py
"""

import hashlib
import platform
import sys

from endotransfer.scenario import build_scenario, load_builtin, parse_scenario
from endotransfer.verify import emit_report, run_verify

from oracles import unit_phase_mismatches

try:
    import pytest
except ModuleNotFoundError:  # run as a script

    class pytest:
        class mark:
            @staticmethod
            def parametrize(_names, _values):
                return lambda test: test

DIGESTS = {
    "sl2_compact": "66134ff1233aa15ded1f1a6717994714d4b87b3fcebd877c79ed89370e3dd794",
    "sl2_endoscopy": "e638712f63987598c8b1ad6e6b6327cd2cb335a03d45d45b2ae25ae0c5be5a4b",
    "sl2xsl2_double": "e18ca7019e5ceaa2c553814ad62e250bd691108fcefae6a32ed0558b5dd3293b",
    "sl2xsl2_mixed": "72b5675a3fa06a25f1a09c0618f3b053263e3b8921626bbe74fa4836f9995385",
    "sp4_endoscopy": "3dda056cb0e1625b3860398b0e07597cca101bcd0a4794408542df5e4d1eee33",
}


def digest(*scenarios) -> str:
    """The SHA-256 of the scenarios' machine reports, one after another."""
    out = hashlib.sha256()
    for scenario in scenarios:
        out.update(emit_report(run_verify(scenario, 20, 4), "machine").encode("utf-8"))
    return out.hexdigest()


def built(text: str):
    return build_scenario(parse_scenario(text))


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_machine_report_digest(name):
    assert digest(load_builtin(name)) == DIGESTS[name]


# B3 with alpha3 noncompact and s = (+1, +1, -1): |W| = 48, |W_H| = 24.
B3_TEXT = """\
name = b3_kernel
g_type = B3
form_scale = 1

[grading_g]
alpha1 = compact
alpha2 = compact
alpha3 = noncompact

[s_character]
alpha1 = +1
alpha2 = +1
alpha3 = -1

[grading_h]
alpha1 = noncompact
alpha2 = noncompact
alpha3 = noncompact

[base_point]
x_h = 1/2, 2/3, 3/4
x_g = 1/2, 2/3, 3/4
"""
B3_DIGEST = "412b7de0030a7aada1204e01fc6be642e9f97f6331d1c75311d9f59ce2a95c87"


def test_rank_3_machine_report_digest():
    assert digest(built(B3_TEXT)) == B3_DIGEST


# The nine data the cold sweep verifies through its CLI: each of its types
# with s = (-1, ..., -1), its split-count grading and H quasi-split.  B2, G2,
# A1xB2, A1xG2, B3 and C3 fail all 20 pairs, so the digest pins failing
# reports too.  Making Delta_I Delta_II Delta_III the canonical transfer
# factor (ROADMAP item 1) turns those pairs into passes and moves this
# digest by design.  The digest is one SHA-256 over the nine reports in
# this order.
SWEEP_TEXTS = (
    """\
name = A1_-
g_type = A1
form_scale = 1

[grading_g]
alpha1 = noncompact

[s_character]
alpha1 = -1

[grading_h]

[base_point]
x_h = 1/2
x_g = 1/2
""",
    """\
name = A1xA1_--
g_type = A1xA1
form_scale = 1

[grading_g]
alpha1 = noncompact
alpha2 = noncompact

[s_character]
alpha1 = -1
alpha2 = -1

[grading_h]

[base_point]
x_h = 1/2, 2/3
x_g = 1/2, 2/3
""",
    """\
name = B2_--
g_type = B2
form_scale = 1

[grading_g]
alpha1 = compact
alpha2 = noncompact

[s_character]
alpha1 = -1
alpha2 = -1

[grading_h]
alpha1 = noncompact

[base_point]
x_h = 1/2, 2/3
x_g = 1/2, 2/3
""",
    """\
name = G2_--
g_type = G2
form_scale = 1

[grading_g]
alpha1 = compact
alpha2 = noncompact

[s_character]
alpha1 = -1
alpha2 = -1

[grading_h]
alpha1 = noncompact
alpha2 = noncompact

[base_point]
x_h = 1/2, 2/3
x_g = 1/2, 2/3
""",
    """\
name = A1xA1xA1_---
g_type = A1xA1xA1
form_scale = 1

[grading_g]
alpha1 = noncompact
alpha2 = noncompact
alpha3 = noncompact

[s_character]
alpha1 = -1
alpha2 = -1
alpha3 = -1

[grading_h]

[base_point]
x_h = 1/2, 2/3, 3/4
x_g = 1/2, 2/3, 3/4
""",
    """\
name = A1xB2_---
g_type = A1xB2
form_scale = 1

[grading_g]
alpha1 = noncompact
alpha2 = compact
alpha3 = noncompact

[s_character]
alpha1 = -1
alpha2 = -1
alpha3 = -1

[grading_h]
alpha1 = noncompact

[base_point]
x_h = 1/2, 2/3, 3/4
x_g = 1/2, 2/3, 3/4
""",
    """\
name = A1xG2_---
g_type = A1xG2
form_scale = 1

[grading_g]
alpha1 = noncompact
alpha2 = compact
alpha3 = noncompact

[s_character]
alpha1 = -1
alpha2 = -1
alpha3 = -1

[grading_h]
alpha1 = noncompact
alpha2 = noncompact

[base_point]
x_h = 1/2, 2/3, 3/4
x_g = 1/2, 2/3, 3/4
""",
    """\
name = B3_---
g_type = B3
form_scale = 1

[grading_g]
alpha1 = compact
alpha2 = compact
alpha3 = noncompact

[s_character]
alpha1 = -1
alpha2 = -1
alpha3 = -1

[grading_h]
alpha1 = noncompact
alpha2 = noncompact
alpha3 = noncompact

[base_point]
x_h = 1/2, 2/3, 3/4
x_g = 1/2, 2/3, 3/4
""",
    """\
name = C3_---
g_type = C3
form_scale = 1

[grading_g]
alpha1 = compact
alpha2 = noncompact
alpha3 = compact

[s_character]
alpha1 = -1
alpha2 = -1
alpha3 = -1

[grading_h]
alpha1 = noncompact
alpha2 = noncompact

[base_point]
x_h = 1/2, 2/3, 3/4
x_g = 1/2, 2/3, 3/4
""",
)
SWEEP_DIGEST = "1810c2bb36372cfaa7cc39a9c419e7bfdc3f508d8455cdfcc893f2e5ce38d325"


def test_failing_sweep_reports_digest():
    assert digest(*map(built, SWEEP_TEXTS)) == SWEEP_DIGEST


def main() -> int:
    checks = [(name, digest(load_builtin(name)), DIGESTS[name]) for name in sorted(DIGESTS)]
    checks += [
        ("b3_kernel", digest(built(B3_TEXT)), B3_DIGEST),
        ("sweep", digest(*map(built, SWEEP_TEXTS)), SWEEP_DIGEST),
    ]
    bad = [name for name, got, want in checks if got != want]
    for name in bad:
        print(f"digest mismatch: {name}", file=sys.stderr)
    phases = unit_phase_mismatches()
    for scale, p, got, want in phases:
        print(f"unit phase mismatch: scale {scale!r}, phase {p!r}: {got!r} != {want!r}", file=sys.stderr)
    print(
        f"{len(checks) - len(bad)}/{len(checks)} digests match and {len(phases)} unit phases differ"
        f" under Python {platform.python_version()}"
    )
    return 1 if bad or phases else 0


if __name__ == "__main__":
    sys.exit(main())
