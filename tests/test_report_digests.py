"""Golden digests of the machine reports of the shipped scenarios and of
one rank-3 datum.

Each digest is the SHA-256 of emit_report(run_verify(scenario, 20, 4),
"machine"); those of the shipped files were taken before the records
stopped being dataclasses, that of B3 before the pair table became one
record.  A report that changes in any byte fails here; a change meant to
move a digest records the old and new value in CHANGES.md.
"""

import hashlib

import pytest

from endotransfer.scenario import build_scenario, load_builtin, parse_scenario
from endotransfer.verify import emit_report, run_verify

DIGESTS = {
    "sl2_compact": "66134ff1233aa15ded1f1a6717994714d4b87b3fcebd877c79ed89370e3dd794",
    "sl2_endoscopy": "e638712f63987598c8b1ad6e6b6327cd2cb335a03d45d45b2ae25ae0c5be5a4b",
    "sl2xsl2_double": "e18ca7019e5ceaa2c553814ad62e250bd691108fcefae6a32ed0558b5dd3293b",
    "sl2xsl2_mixed": "72b5675a3fa06a25f1a09c0618f3b053263e3b8921626bbe74fa4836f9995385",
    "sp4_endoscopy": "3dda056cb0e1625b3860398b0e07597cca101bcd0a4794408542df5e4d1eee33",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_machine_report_digest(name):
    text = emit_report(run_verify(load_builtin(name), 20, 4), "machine")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[name]


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
    scenario = build_scenario(parse_scenario(B3_TEXT))
    text = emit_report(run_verify(scenario, 20, 4), "machine")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == B3_DIGEST
