"""Endoscopic transfer lands in stable orbital integrals on H, so the H side
of the identity cannot depend on H's real form.  The transform route sums
over W and W_H alone: for u' in W_real(H) and w' in W_H, det(u')
[D/pi](w' x_h) = [D/pi](u' w' x_h), so the sum over W_real(H) is
|W_real(H)| equal copies of the sum over W_H.  [grading_h] still sets
gamma_H, prefactor_H and W_real(H), but gamma_H prefactor_H, as an eighth
root, depends on H's rank and |Phi+_H| alone.

Every difference is scaled by max(1, |value|), as verify's consistency
check scales its own: a value that nearly cancels keeps the absolute
rounding of its terms."""

import itertools
import random

import pytest

from endotransfer import distributions
from endotransfer.endoscopy import EllipticElement
from endotransfer.scenario import build_scenario, builtin_scenario_path, parse_scenario
from endotransfer.verify import run_verify, sample_regular_vector

from oracles import LiteralRoutes
from test_report_digests import B3_TEXT

SHIPPED = ("sl2_compact", "sl2_endoscopy", "sl2xsl2_double", "sl2xsl2_mixed", "sp4_endoscopy")


def _text(name: str) -> str:
    return B3_TEXT if name == "b3_kernel" else builtin_scenario_path(name).read_text(encoding="utf-8")


def _close(got: complex, want: complex) -> bool:
    return abs(got - want) <= 1e-14 * max(1.0, abs(want))


@pytest.mark.parametrize("name,samples", [(name, 41) for name in SHIPPED] + [("b3_kernel", 9)])
def test_h_real_form_moves_no_verdict(name, samples):
    """Under every simple grading of H, gamma_H prefactor_H is the file's
    own, and each pair has the points and the verdict it has under the
    file's own grading, and an rhs within 1e-14."""
    config = parse_scenario(_text(name))
    scenario = build_scenario(config)
    constant = scenario.h_side.gamma * scenario.h_side.prefactor
    want = run_verify(scenario, samples, 3).records
    for grades in itertools.product((0, 1), repeat=len(config.grading_h)):
        config.grading_h = list(grades)
        scenario = build_scenario(config)
        assert scenario.h_side.gamma * scenario.h_side.prefactor == constant, grades
        got = run_verify(scenario, samples, 3).records
        for a, b in zip(got, want):
            assert (a.x_h, a.x_g, a.report.passed) == (b.x_h, b.x_g, b.report.passed), (grades, a.index)
            assert _close(a.report.rhs, b.report.rhs), (grades, a.index, a.report.rhs, b.report.rhs)


@pytest.mark.parametrize("grades,order", [((0, 0, 0), 24), ((0, 1, 0), 6)])
def test_stable_sum_matches_the_sum_over_real_weyl_h(grades, order):
    """On the B3 datum with H graded so that |W_real(H)| is 24 or 6, not a
    power of two, d_tilde_gh's sum over W_H matches the term-by-term sum
    over W, W_H and W_real(H) of oracles.LiteralRoutes."""
    config = parse_scenario(B3_TEXT)
    config.grading_h = list(grades)
    scenario = build_scenario(config)
    assert len(scenario.engine.real_weyl_h) == order
    oracle = LiteralRoutes(build_scenario(config), config.form_scale)
    rng = random.Random(11)
    for _ in range(2):
        x_h = EllipticElement(sample_regular_vector(scenario, rng))
        x_g = EllipticElement(sample_regular_vector(scenario, rng))
        got = distributions.d_tilde_gh(scenario, x_h, x_g).value
        want = oracle.d_tilde_gh(x_h, x_g)
        assert _close(got, want), (x_h, x_g, got, want)
