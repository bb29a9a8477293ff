"""Acceptance suite: the end-to-end checks the package must satisfy.

Each criterion prints one PASS/FAIL line.  Criterion 6 asserts the literal
eighth-root bookkeeping identity between the two Weil-constant/prefactor
products; for scenarios whose positive-root counts differ in parity between
the two groups this identity fails by a sign (the parity-corrected version,
which is what the term pairing actually uses, holds everywhere and is
checked by criterion 6b).  The failure is intrinsic to the stated constant
identity, not to the implementation: criteria 1 and 2 pin the same constants
through the verified identity.  See notes in the repository history.
"""

import random
import time
from fractions import Fraction

import pytest

from endotransfer.cohomology import CohomologyClass, RealTorus, TorusPoint, cocycle_class, h1, kappa_from_s, tate_nakayama_pair
from endotransfer.distributions import explicit_term, rossmann_kernel, verify_identity
from endotransfer.endoscopy import EllipticElement
from endotransfer.scenario import load_builtin
from endotransfer.verify import run_verify, sample_regular_vector

from oracles import (
    ADatum,
    BruteForceH1,
    LiteralSetup,
    delta_ii_ratio_check,
    transfer_factor,
    weil_prefactor_balanced_invariant,
    weil_prefactor_sides,
)
from test_cohomology import involution_zoo

SHIPPED = (
    "sl2_endoscopy",
    "sl2_compact",
    "sl2xsl2_mixed",
    "sl2xsl2_double",
    "sp4_endoscopy",
)

TOL = 1e-12


def _line(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {status} {detail}")
    return passed


def test_criterion_1_identity_sl2_thousand_pairs():
    t0 = time.perf_counter()
    scenario = load_builtin("sl2_endoscopy")
    report = run_verify(scenario, 1000, 42, TOL)
    elapsed = time.perf_counter() - t0
    ok = report.all_passed and elapsed < 5.0
    assert _line(
        "criterion 1 (identity, 1000 pairs, <5s)",
        ok,
        f"max_err={report.max_abs_error:.2e} time={elapsed:.2f}s",
    )


@pytest.mark.parametrize("name", SHIPPED)
def test_criterion_2_termwise_exchange(name):
    scenario = load_builtin(name)
    eng = scenario.engine
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(30):
        x_h = EllipticElement(sample_regular_vector(scenario, rng))
        x_g = EllipticElement(sample_regular_vector(scenario, rng))
        for w in eng.weyl_g:
            lhs = explicit_term(scenario, w, x_h, x_g, "G")
            rhs = explicit_term(scenario, eng.inverse_of(w), x_h, x_g, "H")
            worst = max(worst, abs(lhs - rhs))
    assert _line(f"criterion 2 (termwise exchange, {name})", worst <= TOL, f"max={worst:.2e}")


@pytest.mark.parametrize("name", SHIPPED)
def test_criterion_3_delta_ii_ratio_law(name):
    scenario = load_builtin(name)
    rng = random.Random(99)
    ok = True
    for _ in range(100):
        x_h = EllipticElement(sample_regular_vector(scenario, rng))
        x_g = EllipticElement(sample_regular_vector(scenario, rng))
        for w in scenario.engine.weyl_g:
            ok = ok and delta_ii_ratio_check(scenario, x_h, x_g, w).passed
    assert _line(f"criterion 3 (middle-factor ratio law, {name})", ok)


@pytest.mark.parametrize("name", SHIPPED)
def test_criterion_4_kernel_properties(name):
    scenario = load_builtin(name)
    side = scenario.g_side
    rng = random.Random(7)
    bound = len(side.real_weyl) + 1e-9
    ok = True
    for _ in range(10_000):
        x = EllipticElement(sample_regular_vector(scenario, rng))
        y = EllipticElement(sample_regular_vector(scenario, rng))
        kxy = rossmann_kernel(side, x, y).value
        if abs(kxy - rossmann_kernel(side, y, x).value) > TOL:
            ok = False
            break
        if abs(kxy) > bound:
            ok = False
            break
        w = side.real_weyl[rng.randrange(len(side.real_weyl))]
        moved = EllipticElement(w.act(x.coords))
        if abs(rossmann_kernel(side, moved, y).value - kxy) > TOL:
            ok = False
            break
    assert _line(f"criterion 4 (kernel symmetry/invariance/bound, {name})", ok)


def test_criterion_5_cohomology_oracle_27_lattices():
    count = 0
    ok = True
    for sigma in involution_zoo():
        torus = RealTorus(len(sigma), sigma)
        group = h1(torus)
        oracle = BruteForceH1(sigma)
        if group.order != oracle.order:
            ok = False
            break
        classes = {}
        for nu in sorted(oracle.cocycles):
            point = TorusPoint.from_signs([1 if b == 0 else -1 for b in nu])
            classes[nu] = cocycle_class(torus, point, group).coordinates
        for nu1 in classes:
            for nu2 in classes:
                if (classes[nu1] == classes[nu2]) != oracle.same_class(nu1, nu2):
                    ok = False
        for xhat in oracle.fixed_half_characters():
            kap = kappa_from_s(xhat, torus)
            for nu, coords in classes.items():
                cls = CohomologyClass(torus, group, coords)
                if tate_nakayama_pair(cls, kap) != oracle.pairing(nu, xhat):
                    ok = False
        count += 1
    assert _line("criterion 5 (cohomology vs brute-force oracle)", ok and count == 27, f"lattices={count}")


@pytest.mark.parametrize("name", SHIPPED)
def test_criterion_6_weil_prefactor_match_literal(name):
    """gamma_psi(g) * prefactor(G) = gamma_psi(h) * prefactor(H), compared
    symbolically as eighth roots.  Known to fail by a sign exactly when the
    positive-root counts of the two groups have different parity (here: the
    rank-one endoscopy and the mixed product); see the module docstring."""
    scenario = load_builtin(name)
    lhs, rhs = weil_prefactor_sides(scenario)
    ok = lhs.k == rhs.k
    _line(f"criterion 6 (gamma*prefactor match, {name})", ok, f"lhs={lhs} rhs={rhs}")
    assert ok, (
        f"eighth-root products differ for {name}: {lhs} vs {rhs}; "
        "the parity-corrected invariant (criterion 6b) holds"
    )


@pytest.mark.parametrize("name", SHIPPED)
def test_criterion_6b_weil_prefactor_parity_corrected(name):
    scenario = load_builtin(name)
    lhs, rhs = weil_prefactor_balanced_invariant(scenario)
    assert _line(f"criterion 6b (parity-corrected constant match, {name})", lhs.k == rhs.k)


def test_criterion_7_normalization_independence():
    rng = random.Random(123)
    ok = True
    for _ in range(5):
        c = complex(rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0))
        base = load_builtin("sl2_endoscopy")
        scaled = load_builtin("sl2_endoscopy", base_value=c)
        for _ in range(10):
            x_h = EllipticElement(sample_regular_vector(base, rng))
            x_g = EllipticElement(sample_regular_vector(base, rng))
            r0 = verify_identity(base, x_h, x_g, TOL)
            r1 = verify_identity(scaled, x_h, x_g, TOL)
            scale = max(1.0, abs(c))
            ok = ok and (r0.passed == r1.passed)
            ok = ok and abs(r1.lhs - c * r0.lhs) <= TOL * scale
            ok = ok and abs(r1.rhs - c * r0.rhs) <= TOL * scale
    assert _line("criterion 7 (base normalization independence)", ok)


def test_criterion_8_orbit_counts():
    endo = load_builtin("sl2_endoscopy").engine
    comp = load_builtin("sl2_compact").engine
    xg = EllipticElement((Fraction(1),))
    xh = EllipticElement((Fraction(1),))
    ok = (
        len(endo.stable_orbit_representatives(xg)) == 2
        and len(endo.matching_h_orbits(xg)) == 2
        and len(comp.stable_orbit_representatives(xg)) == 1
        and len(comp.matching_h_orbits(xg)) == 1
        and endo.stable_class_size_h(xh) == 1
        and comp.stable_class_size_h(xh) == 1
    )
    assert _line("criterion 8 (orbit counts)", ok)


@pytest.mark.parametrize("name", SHIPPED)
def test_criterion_9_a_datum_independence(name):
    """The literal factor (oracles.LiteralSetup) on 20 seeded a-data is the
    engine's, which takes none."""
    scenario = load_builtin(name)
    eng = scenario.engine
    literal = LiteralSetup(eng)
    rng = random.Random(55)
    rank = eng.g_datum.rank
    x_h = EllipticElement(tuple(Fraction(3 * k + 4, 3 * k + 3) for k in range(rank)))
    targets = [EllipticElement(tuple(w.act(x_h.coords))) for w in eng.weyl_g]
    baseline = [transfer_factor(eng, x_h, t) for t in targets]
    ok = True
    for _ in range(20):
        ratios = tuple(
            (r, Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 12)))
            for r in eng.g_datum.positive_roots
        )
        values = [transfer_factor(literal, x_h, t, ADatum(ratios)) for t in targets]
        ok = ok and values == baseline
    assert _line(f"criterion 9 (a-datum independence, {name})", ok)
