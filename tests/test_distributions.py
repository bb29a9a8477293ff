import cmath
import math
import random
from fractions import Fraction

import pytest

from endotransfer.distributions import (
    KernelValue,
    d_gh,
    d_tilde_gh,
    explicit_term,
    rossmann_kernel,
    verify_identity,
)
from endotransfer.endoscopy import EllipticElement, EndoscopyError
from endotransfer.scenario import load_builtin
from endotransfer.verify import sample_regular_vector

from oracles import (
    LiteralRoutes,
    delta_ii_ratio_check,
    discriminant_sqrt,
    pi_positive,
    weil_prefactor_balanced_invariant,
    weil_prefactor_sides,
)


def _rand_regular(scenario, rng):
    return EllipticElement(sample_regular_vector(scenario, rng))


def test_discriminant_and_pi_examples():
    sc = load_builtin("sl2_endoscopy")
    datum = sc.g_side.datum
    x = EllipticElement((Fraction(1),))  # <alpha, v> = 2
    assert discriminant_sqrt(datum, x) == 2.0
    assert abs(pi_positive(datum, x) - 2j) < 1e-15
    flipped = EllipticElement((Fraction(-1),))
    assert abs(pi_positive(datum, flipped) + 2j) < 1e-15
    # Weyl moves leave the discriminant unchanged
    sc2 = load_builtin("sp4_endoscopy")
    datum2 = sc2.g_side.datum
    y = EllipticElement((0.8, 0.3))
    for w in sc2.engine.weyl_g:
        moved = EllipticElement(w.act(y.coords))
        assert abs(discriminant_sqrt(datum2, moved) - discriminant_sqrt(datum2, y)) < 1e-12


def test_pi_positive_a2_phase():
    from endotransfer.rootdata import build_root_datum

    d = build_root_datum("A2")
    x = EllipticElement((Fraction(3), Fraction(1)))
    val = pi_positive(d, x)
    # i^3 times a real product: purely imaginary
    assert abs(val.real) < 1e-12


def test_rossmann_kernel_sl2r_unimodular():
    sc = load_builtin("sl2_endoscopy")
    rng = random.Random(3)
    for _ in range(50):
        x = _rand_regular(sc, rng)
        y = _rand_regular(sc, rng)
        k = rossmann_kernel(sc.g_side, x, y)
        assert abs(abs(k.value) - 1.0) < 1e-12
        assert len(k.terms) == 1


def test_rossmann_kernel_su2_sine_form():
    sc = load_builtin("sl2_compact")
    side = sc.g_side
    x = EllipticElement((0.7,))
    y = EllipticElement((0.4,))
    k = rossmann_kernel(side, x, y)
    b = LiteralRoutes(sc, sc.form_scale).bform(x.floats(), y.floats())
    expected = complex(side.prefactor) * side.d_over_pi(x) * side.d_over_pi(y) * (
        cmath.exp(-1j * b) - cmath.exp(1j * b)
    )
    assert abs(k.value - expected) < 1e-13
    # pure sine modulus
    assert abs(abs(k.value) - 2 * abs(math.sin(b))) < 1e-12


def test_rossmann_kernel_symmetry_and_invariance():
    rng = random.Random(4)
    for name in ("sl2_endoscopy", "sl2_compact", "sp4_endoscopy"):
        sc = load_builtin(name)
        for _ in range(25):
            x = _rand_regular(sc, rng)
            y = _rand_regular(sc, rng)
            kxy = rossmann_kernel(sc.g_side, x, y).value
            kyx = rossmann_kernel(sc.g_side, y, x).value
            assert abs(kxy - kyx) < 1e-12
            for w in sc.g_side.real_weyl:
                moved = EllipticElement(w.act(x.coords))
                assert abs(rossmann_kernel(sc.g_side, moved, y).value - kxy) < 1e-12
            assert abs(kxy) <= len(sc.g_side.real_weyl) + 1e-12


def test_kernel_value_is_sum_of_terms():
    sc = load_builtin("sp4_endoscopy")
    rng = random.Random(5)
    x, y = _rand_regular(sc, rng), _rand_regular(sc, rng)
    k = rossmann_kernel(sc.g_side, x, y)
    assert abs(k.value - sum(t for _, t in k.terms)) < 1e-14
    assert all(abs(abs(t) - 1.0) < 1e-12 for _, t in k.terms)


def test_d_gh_trivial_datum_matches_stable_sum():
    """With H = G the transfer route is the plain stable sum of kernels."""
    sc = load_builtin("sl2_compact")
    rng = random.Random(6)
    xh = _rand_regular(sc, rng)
    xg = _rand_regular(sc, rng)
    val = d_gh(sc, EllipticElement(xh.coords), xg).value
    eng = sc.engine
    expected = complex(0.0)
    for rep in eng.stable_orbit_representatives(EllipticElement(xh.coords)):
        expected += rossmann_kernel(sc.g_side, rep, xg).value
    expected *= complex(sc.g_side.gamma)
    assert abs(val - expected) < 1e-12


def test_d_tilde_torus_side_is_pure_exponentials():
    """For a torus endoscopic group the inner kernel is a single exponential."""
    sc = load_builtin("sl2_endoscopy")
    rng = random.Random(7)
    xh = EllipticElement(sample_regular_vector(sc, rng))
    xg = _rand_regular(sc, rng)
    eng = sc.engine
    total = complex(0.0)
    for w in eng.weyl_g:
        pulled = EllipticElement(w.act(xg.coords))
        diagram_w = eng.inverse_of(w)
        from endotransfer.endoscopy import Diagram

        weight = eng.relative_factor(Diagram(eng.datum, diagram_w, pulled, xg)) * eng.base_value
        phase = -LiteralRoutes(sc, sc.form_scale).bform(xh.floats(), pulled.floats())
        total += weight * cmath.exp(1j * phase)
    total *= complex(sc.h_side.gamma)
    assert abs(total - d_tilde_gh(sc, xh, xg).value) < 1e-12


def test_routes_agree_when_h_equals_g():
    sc = load_builtin("sl2_compact")
    rng = random.Random(8)
    for _ in range(20):
        xh = EllipticElement(sample_regular_vector(sc, rng))
        xg = _rand_regular(sc, rng)
        lhs = d_gh(sc, xh, xg).value
        rhs = d_tilde_gh(sc, xh, xg).value
        assert abs(lhs - rhs) < 1e-12


def test_verify_identity_random_pairs_all_scenarios():
    rng = random.Random(9)
    for name in (
        "sl2_endoscopy",
        "sl2_compact",
        "sl2xsl2_mixed",
        "sl2xsl2_double",
        "sp4_endoscopy",
    ):
        sc = load_builtin(name)
        for _ in range(10):
            xh = EllipticElement(sample_regular_vector(sc, rng))
            xg = _rand_regular(sc, rng)
            report = verify_identity(sc, xh, xg, 1e-12)
            assert report.passed, f"{name}: error {report.abs_error}"
            assert report.abs_error == abs(report.lhs - report.rhs)


def test_verify_identity_rejects_wall_input():
    sc = load_builtin("sl2_endoscopy")
    wall = EllipticElement((1e-13,))
    with pytest.raises(EndoscopyError):
        verify_identity(sc, EllipticElement((1.0,)), wall)


def test_termwise_exchange_pairs_w_with_inverse():
    rng = random.Random(10)
    for name in ("sl2_endoscopy", "sp4_endoscopy"):
        sc = load_builtin(name)
        eng = sc.engine
        xh = EllipticElement(sample_regular_vector(sc, rng))
        xg = _rand_regular(sc, rng)
        for w in eng.weyl_g:
            lhs = explicit_term(sc, w, xh, xg, "G")
            rhs = explicit_term(sc, eng.inverse_of(w), xh, xg, "H")
            assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("side", ["g", "h", "", "GH"])
def test_explicit_term_refuses_an_unknown_side(side):
    """Only "G" and "H" name a route; "g" would otherwise read the H-term."""
    sc = load_builtin("sp4_endoscopy")
    rng = random.Random(12)
    xh = EllipticElement(sample_regular_vector(sc, rng))
    xg = _rand_regular(sc, rng)
    with pytest.raises(ValueError, match=f"side must be \"G\" or \"H\", got {side!r}"):
        explicit_term(sc, sc.engine.weyl_g[1], xh, xg, side)


def test_explicit_terms_sum_to_routes():
    """The closed-form expansion agrees with each route's evaluator."""
    rng = random.Random(11)
    for name in ("sl2_endoscopy", "sl2xsl2_double", "sp4_endoscopy"):
        sc = load_builtin(name)
        eng = sc.engine
        xh = EllipticElement(sample_regular_vector(sc, rng))
        xg = _rand_regular(sc, rng)
        lhs_sum = sum(explicit_term(sc, w, xh, xg, "G") for w in eng.weyl_g)
        rhs_sum = sum(explicit_term(sc, w, xh, xg, "H") for w in eng.weyl_g)
        assert abs(lhs_sum - d_gh(sc, xh, xg).value) < 1e-11
        assert abs(rhs_sum - d_tilde_gh(sc, xh, xg).value) < 1e-11


def test_delta_ii_ratio_check_examples():
    sc = load_builtin("sl2_endoscopy")
    eng = sc.engine
    xh = EllipticElement((Fraction(1),))
    xg = EllipticElement((Fraction(2),))
    rep_id = delta_ii_ratio_check(sc, xh, xg, eng.weyl_g[0])
    assert rep_id.passed and rep_id.lhs_ratio == 1
    rep_s = delta_ii_ratio_check(sc, xh, xg, eng.weyl_g[1])
    assert rep_s.passed and rep_s.lhs_ratio == -1

    triv = load_builtin("sl2_compact")
    rep = delta_ii_ratio_check(triv, xh, xg, triv.engine.weyl_g[1])
    assert rep.passed and rep.lhs_ratio == 1 and rep.rhs_product == 1


def test_delta_ii_ratio_check_randomized():
    rng = random.Random(12)
    for name in ("sl2xsl2_mixed", "sp4_endoscopy"):
        sc = load_builtin(name)
        for _ in range(25):
            xh = EllipticElement(sample_regular_vector(sc, rng))
            xg = _rand_regular(sc, rng)
            for w in sc.engine.weyl_g:
                assert delta_ii_ratio_check(sc, xh, xg, w).passed


def test_normalization_independence():
    from endotransfer.scenario import load_builtin as load

    rng = random.Random(13)
    base = load("sl2_endoscopy")
    for _ in range(5):
        c = complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0))
        scaled = load("sl2_endoscopy", base_value=c)
        xh = EllipticElement(sample_regular_vector(base, rng))
        xg = EllipticElement(sample_regular_vector(base, rng))
        r0 = verify_identity(base, xh, xg)
        r1 = verify_identity(scaled, xh, xg)
        assert r0.passed == r1.passed
        assert abs(r1.lhs - c * r0.lhs) < 1e-12 * max(1.0, abs(c))
        assert abs(r1.rhs - c * r0.rhs) < 1e-12 * max(1.0, abs(c))


def test_weil_prefactor_balance():
    """The product gamma * prefactor, corrected by the positive-root-count
    parity, agrees between the two sides in every scenario; the uncorrected
    product agrees exactly when the parities match."""
    for name, parity_match in (
        ("sl2_endoscopy", False),
        ("sl2_compact", True),
        ("sl2xsl2_mixed", False),
        ("sl2xsl2_double", True),
        ("sp4_endoscopy", True),
    ):
        sc = load_builtin(name)
        bal_g, bal_h = weil_prefactor_balanced_invariant(sc)
        assert bal_g.k == bal_h.k
        raw_g, raw_h = weil_prefactor_sides(sc)
        assert (raw_g.k == raw_h.k) == parity_match


def test_routes_vanish_for_ambient_wall_h_regular_element():
    """An endoscopic-side element on an ambient wall (but regular for the
    endoscopic system) matches no diagram: both routes return zero, read
    no pair table and leave the routes' memos empty."""
    sc = load_builtin("sp4_endoscopy")
    xh = EllipticElement((Fraction(0), Fraction(1)))  # on the long-root wall
    xg = EllipticElement((Fraction(1), Fraction(1, 3)))
    assert d_gh(sc, xh, xg) == KernelValue(complex(0.0), ())
    assert d_tilde_gh(sc, xh, xg) == KernelValue(complex(0.0), ())
    report = verify_identity(sc, xh, xg)
    assert report.lhs == report.rhs == 0 and report.passed
    assert "table" not in vars(sc)
    assert sc.table.g_memo == {} and sc.table.h_memo == ({}, {})

    torus_side = load_builtin("sl2_endoscopy")
    wall = EllipticElement((Fraction(0),))
    target = EllipticElement((Fraction(1),))
    assert d_gh(torus_side, wall, target).value == 0
