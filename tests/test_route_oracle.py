"""The routes read per-scenario tables and regroup each sum by its side's
group law.  The literal regrouped routes of oracles.GroupedRoutes must give
the same reports to the last bit; against the term-by-term routes of
oracles.LiteralRoutes the term pairing and the verdicts must be equal and
the route values equal up to the rounding of a different summation order."""

import cmath
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from endotransfer import distributions
from endotransfer.distributions import verify_identity
from endotransfer.endoscopy import EllipticElement
from endotransfer.record import Record
from endotransfer.scenario import build_scenario, builtin_scenario_path, parse_scenario
from endotransfer.verify import PairRecord, RunReport, emit_report, run_verify, sample_regular_vector

from oracles import GroupedRoutes, LiteralRoutes, unit_phase_mismatches

# B3 with s = (+1, +1, -1), alpha1 and alpha2 compact: the kernel-bound datum
# (|W| = 48, |W_H| = 24), whose routes run 4896 kernel terms per pair.
B3_KERNEL = """
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

# G2 with s = (+1, -1): every pair fails the identity (Delta is not constant
# on rational classes here), and the failing reports must not move either.
G2_FAILING = """
name = g2_failing
g_type = G2
form_scale = 1

[grading_g]
alpha1 = compact
alpha2 = noncompact

[s_character]
alpha1 = +1
alpha2 = -1

[grading_h]
alpha1 = noncompact
alpha2 = noncompact

[base_point]
x_h = 1/2, 2/3
x_g = 1/2, 2/3
"""

# Two data of the cold sweep (split-count grading, base point 1/2, 2/3, 3/4),
# whose group laws are acted on by real Weyl groups of orders 8 and 2 (C3)
# and 4 and 1 (A1xG2).
C3_SWEEP = """
name = C3_-+-
g_type = C3
form_scale = 1

[grading_g]
alpha1 = compact
alpha2 = noncompact
alpha3 = compact

[s_character]
alpha1 = -1
alpha2 = +1
alpha3 = -1

[grading_h]
alpha1 = noncompact
alpha2 = noncompact

[base_point]
x_h = 1/2, 2/3, 3/4
x_g = 1/2, 2/3, 3/4
"""

A1XG2_SWEEP = """
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
"""

# B4 with s = (+1, +1, +1, -1) and the split-count grading (alpha4 the one
# noncompact simple root): the rank-4 datum, with |W| |W_H| = 73,728.
B4_SPLIT = """
name = b4_split
g_type = B4
form_scale = 1

[grading_g]
alpha1 = compact
alpha2 = compact
alpha3 = compact
alpha4 = noncompact

[s_character]
alpha1 = +1
alpha2 = +1
alpha3 = +1
alpha4 = -1

[grading_h]
alpha1 = noncompact
alpha2 = noncompact
alpha3 = noncompact
alpha4 = noncompact

[base_point]
x_h = 1/2, 2/3, 3/4, 4/5
x_g = 1/2, 2/3, 3/4, 4/5
"""

SHIPPED = ("sl2_endoscopy", "sl2_compact", "sl2xsl2_mixed", "sl2xsl2_double", "sp4_endoscopy")
GENERATED = {
    "b3_kernel": B3_KERNEL,
    "g2_failing": G2_FAILING,
    "c3_sweep": C3_SWEEP,
    "a1xg2_sweep": A1XG2_SWEEP,
}
CASES = [(name, 4) for name in SHIPPED] + [
    ("b3_kernel", 2),
    ("g2_failing", 3),
    ("c3_sweep", 2),
    ("a1xg2_sweep", 2),
]


def _text(name: str) -> str:
    if name in GENERATED:
        return GENERATED[name]
    return builtin_scenario_path(name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name,samples", CASES)
def test_routes_match_literal_oracle_bit_for_bit(name, samples):
    config = parse_scenario(_text(name))
    scenario = build_scenario(config)
    oracle = GroupedRoutes(build_scenario(config), config.form_scale)
    seed = 11
    got = run_verify(scenario, samples, seed)

    rng = random.Random(seed)
    records = []
    for rec in got.records:
        x_h = EllipticElement(sample_regular_vector(scenario, rng))
        x_g = EllipticElement(sample_regular_vector(scenario, rng))
        want = oracle.verify_identity(x_h, x_g)
        assert rec.report == want
        assert repr(rec.report) == repr(want)  # signed zeros too
        records.append(PairRecord(rec.index, x_h.floats(), x_g.floats(), want))
    want_run = RunReport(
        scenario=got.scenario,
        samples=samples,
        seed=seed,
        tolerance=got.tolerance,
        records=tuple(records),
        base_x_h=got.base_x_h,
        base_x_g=got.base_x_g,
    )
    assert emit_report(got, "machine").encode() == emit_report(want_run, "machine").encode()


@pytest.mark.parametrize("name,samples", CASES)
def test_routes_agree_with_term_by_term_oracle(name, samples):
    """The regrouping changes only the order in which each route sums its
    terms: the pairing and the verdict are those of the term-by-term
    routes exactly, and each route value is theirs within 64 ulp of the
    sum of |term|."""
    config = parse_scenario(_text(name))
    scenario = build_scenario(config)
    oracle = LiteralRoutes(build_scenario(config), config.form_scale)
    eng = scenario.engine
    rng = random.Random(11)
    for _ in range(samples):
        x_h = EllipticElement(sample_regular_vector(scenario, rng))
        x_g = EllipticElement(sample_regular_vector(scenario, rng))
        got = verify_identity(scenario, x_h, x_g)
        want = oracle.verify_identity(x_h, x_g)
        g_terms = distributions.d_gh(scenario, x_h, x_g).terms
        h_terms = distributions.d_tilde_gh(scenario, x_h, x_g).terms
        got_pairs = [(g_terms[k], h_terms[e.inverse]) for k, e in enumerate(scenario.table.entries)]
        want_pairs = [
            (oracle.explicit_term(w, x_h, x_g, "G"), oracle.explicit_term(eng.inverse_of(w), x_h, x_g, "H"))
            for w in eng.weyl_g
        ]
        assert repr(got_pairs) == repr(want_pairs)
        assert got.termwise_max == want.termwise_max and got.passed == want.passed
        lhs_size, rhs_size = oracle.term_sizes(x_h, x_g)
        assert abs(got.lhs - want.lhs) <= 64 * 2.0**-52 * lhs_size
        assert abs(got.rhs - want.rhs) <= 64 * 2.0**-52 * rhs_size


def test_exact_points_match_literal_oracle():
    config = parse_scenario(_text("sp4_endoscopy"))
    scenario = build_scenario(config)
    oracle = GroupedRoutes(scenario, config.form_scale)
    x_h = EllipticElement((F(3, 2), F(-2, 7)))
    x_g = EllipticElement((F(5, 3), F(1, 5)))
    assert repr(verify_identity(scenario, x_h, x_g)) == repr(oracle.verify_identity(x_h, x_g))


def test_zero_phase_matches_literal_oracle():
    """On sl2xsl2_double, B(x_h, x_g) is exactly 0.0 at these points, so the
    identity's image meets x_g at a zero phase: the routes' unit phase
    there must have the literal exponential's bits, signed zeros too."""
    config = parse_scenario(_text("sl2xsl2_double"))
    scenario = build_scenario(config)
    oracle = GroupedRoutes(scenario, config.form_scale)
    x_h = EllipticElement((F(1, 2), F(1, 2)))
    x_g = EllipticElement((F(3, 4), F(-3, 4)))
    assert oracle.bform(x_h.floats(), x_g.floats()) == 0.0
    assert repr(verify_identity(scenario, x_h, x_g)) == repr(oracle.verify_identity(x_h, x_g))


def test_unit_phases_match_literal_exponential():
    """Side.exponentials gives the bits of cmath.exp(1j * -(scale * p)) at
    every contraction p of oracles.unit_phase_mismatches, among them the
    exact 0.0 of the image u = (1, 2) against B v = (2, -1): both parts,
    and the sign of each zero."""
    assert unit_phase_mismatches() == []


class _CountingCmath:
    """Stands in for the distributions module's cmath and counts its rect
    and exp calls."""

    def __init__(self):
        self.rect_calls = 0
        self.exp_calls = 0

    def rect(self, r, phi):
        self.rect_calls += 1
        return cmath.rect(r, phi)

    def exp(self, z):
        self.exp_calls += 1
        return cmath.exp(z)


def test_routes_compute_each_distinct_exponential_once(monkeypatch):
    """On the b3_kernel datum d_gh takes one exponential per z in W, the
    products u w (u in W_real(G), w in W) grouped, and d_tilde_gh one per w
    in W and z in W_H, the products u' w' (u' in W_real(H), w' in W_H)
    grouped: fewer than the terms of either route."""
    scenario = build_scenario(parse_scenario(B3_KERNEL))
    eng = scenario.engine
    rng = random.Random(5)
    x_h = EllipticElement(sample_regular_vector(scenario, rng))
    x_g = EllipticElement(sample_regular_vector(scenario, rng))
    assert len(eng.real_weyl_g) > 1 and len(eng.real_weyl_h) > 1

    counter = _CountingCmath()
    monkeypatch.setattr(distributions, "cmath", counter)
    distributions.d_gh(scenario, x_h, x_g)
    assert counter.rect_calls == len(eng.weyl_g) == 48
    counter.rect_calls = 0
    distributions.d_tilde_gh(scenario, x_h, x_g)
    assert counter.rect_calls == len(eng.weyl_g) * len(eng.weyl_h) == 1152
    assert counter.exp_calls == 0


def test_pair_computes_each_exponential_once(monkeypatch):
    """One whole verify_identity on the b3_kernel datum takes the routes'
    exponentials and no more: |W| for d_gh and |W| |W_H| for d_tilde_gh,
    since the term pairing reads each route's own."""
    scenario = build_scenario(parse_scenario(B3_KERNEL))
    eng = scenario.engine
    rng = random.Random(5)
    x_h = EllipticElement(sample_regular_vector(scenario, rng))
    x_g = EllipticElement(sample_regular_vector(scenario, rng))

    counter = _CountingCmath()
    monkeypatch.setattr(distributions, "cmath", counter)
    verify_identity(scenario, x_h, x_g)
    assert counter.rect_calls == len(eng.weyl_g) + len(eng.weyl_g) * len(eng.weyl_h) == 1200
    assert counter.exp_calls == 0


@pytest.mark.parametrize("name", SHIPPED + tuple(GENERATED))
def test_pair_builds_no_record_per_w(monkeypatch, name):
    """A warm verify_identity constructs the two routes' KernelValues and
    its IdentityReport, and no record per Weyl element: the same three on
    B3 (|W| = 48) and G2 (|W| = 12) as on A1 (|W| = 2)."""
    scenario = build_scenario(parse_scenario(_text(name)))
    rng = random.Random(5)
    x_h = EllipticElement(sample_regular_vector(scenario, rng))
    x_g = EllipticElement(sample_regular_vector(scenario, rng))
    verify_identity(scenario, x_h, x_g)  # builds the pair table

    built = []
    init = Record.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Record, "__init__", counting_init)
    verify_identity(scenario, x_h, x_g)
    assert sorted(built) == ["IdentityReport", "KernelValue", "KernelValue"]


def test_rank_4_pair_keeps_no_batch_of_w_and_z(monkeypatch):
    """On B4_SPLIT, |W| = 384 and |W_H| = 192.  One pair takes
    |W| + |W| |W_H| unit phases, and since no list of |W| |W_H| exponentials
    is built, its allocation peak stays under 1 MB: for a pair in chambers
    already seen, and for one in new chambers, which adds one key to each of
    the routes' memos."""
    scenario = build_scenario(parse_scenario(B4_SPLIT))
    eng = scenario.engine
    assert (len(eng.weyl_g), len(eng.weyl_h)) == (384, 192)
    rng = random.Random(5)
    x_h = EllipticElement(sample_regular_vector(scenario, rng))
    x_g = EllipticElement(sample_regular_vector(scenario, rng))
    verify_identity(scenario, x_h, x_g)  # builds the pair table

    def peak_of(x_h, x_g) -> int:
        tracemalloc.start()
        try:
            verify_identity(scenario, x_h, x_g)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_of(x_h, x_g) < 1_000_000

    # Images under an element other than 1 lie in other chambers.
    def moved(k: int, x: EllipticElement) -> EllipticElement:
        return EllipticElement(eng.weyl_g[k].act(x.coords))

    table = scenario.table
    memos = (table.g_memo, *table.h_memo)
    keys = [len(memo) for memo in memos]
    assert peak_of(moved(1, x_h), moved(1, x_g)) < 1_000_000
    assert [len(memo) for memo in memos] == [k + 1 for k in keys]

    counter = _CountingCmath()
    monkeypatch.setattr(distributions, "cmath", counter)
    verify_identity(scenario, x_h, x_g)
    assert counter.rect_calls == 384 + 73_728
    counter.rect_calls = 0
    verify_identity(scenario, moved(2, x_h), moved(2, x_g))
    assert counter.rect_calls == 384 + 73_728
    assert counter.exp_calls == 0
