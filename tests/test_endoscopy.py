import itertools
import random
from fractions import Fraction

import pytest

from endotransfer.cohomology import CohomologyClass, elliptic_torus, h1, kappa_over, tate_nakayama_pair
from endotransfer.endoscopy import (
    Diagram,
    EllipticElement,
    EndoscopyError,
    build_diagram,
    build_endoscopic_datum,
    require_regular,
)
from endotransfer.rootdata import build_root_datum, enumerate_weyl
from endotransfer.scenario import load_builtin

from oracles import (
    CAYLEY,
    IDENT,
    N_S,
    TYPES,
    ADatum,
    LiteralSetup,
    compact_point_coordinate,
    e_compact,
    e_split,
    m_close,
    m_conj,
    m_inv,
    m_mul,
    is_elliptic_datum,
    transfer_factor,
)


# -- endoscopic data -------------------------------------------------------

def test_a1_nontrivial_datum_is_torus():
    d = build_root_datum("A1")
    datum = build_endoscopic_datum(d, [-1])
    assert datum.h_roots == ()
    assert len(enumerate_weyl(datum.h_datum)) == 1


def test_trivial_character_gives_h_equal_g():
    d = build_root_datum("C2")
    datum = build_endoscopic_datum(d, [1, 1])
    assert set(datum.h_roots) == set(d.roots)
    assert len(enumerate_weyl(datum.h_datum)) == len(enumerate_weyl(d))


def test_product_datum_componentwise():
    d = build_root_datum("A1xA1")
    datum = build_endoscopic_datum(d, [-1, 1])
    assert len(datum.h_roots) == 2  # one A1 factor survives
    assert all(r[0] == 0 for r in datum.h_roots)


def test_c2_short_root_datum():
    d = build_root_datum("C2")
    datum = build_endoscopic_datum(d, [1, -1])
    assert len(datum.h_roots) == 4
    assert len(enumerate_weyl(datum.h_datum)) == 4  # A1 x A1
    # the short-root subsystem is not closed on the root side: its coroots are
    coroots = {d.coroot(r) for r in datum.h_roots}
    sums_inside = [
        tuple(a + b for a, b in zip(r1, r2))
        for r1 in datum.h_roots
        for r2 in datum.h_roots
    ]
    assert any(d.is_root(s) and s not in datum.h_roots for s in sums_inside)
    assert _coroots_closed(d, datum.h_roots)


def _coroots_closed(d, h_roots) -> bool:
    """Whether the coroots of h_roots are symmetric and closed inside the
    coroots of d: no sum of two of them is a coroot of d outside them."""
    h_coroots = {d.coroot(r) for r in h_roots}
    if any(tuple(-x for x in c) not in h_coroots for c in h_coroots):
        return False
    sums = {tuple(x + y for x, y in zip(a, b)) for a in h_coroots for b in h_coroots}
    return sums.isdisjoint(set(d.coroots) - h_coroots)


def test_h_coroots_are_symmetric_and_closed_in_g():
    """H's coroots, cut out by the parity of <2 xhat_s, coroot>, which is
    additive on coroots, are symmetric and closed inside G's for every
    nontrivial s of every type."""
    for g_type in TYPES:
        d = build_root_datum(g_type)
        for signs in itertools.product((1, -1), repeat=d.rank):
            if all(s == 1 for s in signs):
                continue
            datum = build_endoscopic_datum(d, signs)
            assert _coroots_closed(d, datum.h_roots), (g_type, signs)


def test_coroot_closedness_rejects_doctored_subsystem():
    d = build_root_datum("C2")
    # long roots only, dropping one pair: negation fails first
    one_sided = tuple(r for r in d.roots if d.coroot(r) == (1, 1))
    assert not _coroots_closed(d, one_sided)
    # a symmetric but non-closed coroot set: the two long-coroot pairs
    # (their sum e1+e2-type coroot is again a coroot of C2 but excluded)
    longs = tuple(r for r in d.roots if d.coroot(r) in ((1, 0), (-1, 0), (0, 1), (0, -1)))
    assert not _coroots_closed(d, longs)


def test_weyl_embedding_is_injective_subgroup():
    for name in ("sl2xsl2_mixed", "sp4_endoscopy"):
        sc = load_builtin(name)
        eng = sc.engine
        g_mats = {w.matrix for w in eng.weyl_g}
        h_mats = {w.matrix for w in eng.weyl_h}
        assert h_mats <= g_mats
        assert len(h_mats) == len(eng.weyl_h)


def test_embedding_equivariance():
    sc = load_builtin("sp4_endoscopy")
    eng = sc.engine
    x = (Fraction(5, 7), Fraction(2, 9))
    for u in eng.weyl_h:
        # the torus identification is the identity on coordinates, so
        # equivariance is the statement that u acts the same on both sides
        assert u.act(x) == u.act(x)
    # and the subsystem positivity is inherited
    for beta in eng.datum.h_datum.positive_roots:
        assert eng.g_datum.is_positive(beta)


def test_ellipticity_check_with_split_involution():
    """Every datum of rank <= 3 is elliptic for the compact Cartan's -1;
    for the split involution, exactly those whose H has the full rank."""
    for g_type in TYPES:
        d = build_root_datum(g_type)
        split = tuple(tuple(int(i == j) for j in range(d.rank)) for i in range(d.rank))
        for signs in itertools.product((1, -1), repeat=d.rank):
            datum = build_endoscopic_datum(d, signs)
            assert is_elliptic_datum(d, datum.h_roots), (g_type, signs)
            full_rank = len(datum.h_datum.simple_roots) == d.rank
            assert is_elliptic_datum(d, datum.h_roots, split) == full_rank, (g_type, signs)


# -- diagrams ---------------------------------------------------------------

def test_diagram_identity_and_reflection():
    sc = load_builtin("sl2_endoscopy")
    eng = sc.engine
    xh = EllipticElement((Fraction(2),))
    same = EllipticElement((Fraction(2),))
    flipped = EllipticElement((Fraction(-2),))
    d1 = build_diagram(eng.datum, eng.weyl_g, xh, same)
    assert d1 is not None and d1.w.is_identity()
    d2 = build_diagram(eng.datum, eng.weyl_g, xh, flipped)
    assert d2 is not None and d2.w.word == (0,)
    off = EllipticElement((Fraction(3),))
    assert build_diagram(eng.datum, eng.weyl_g, xh, off) is None


def test_diagram_rejects_non_regular():
    sc = load_builtin("sl2_endoscopy")
    eng = sc.engine
    wall = EllipticElement((Fraction(0),))
    with pytest.raises(EndoscopyError):
        build_diagram(eng.datum, eng.weyl_g, wall, wall)
    near_wall = EllipticElement((1e-12,))
    with pytest.raises(EndoscopyError):
        require_regular(eng.g_datum, near_wall)


# -- factors ----------------------------------------------------------------

def test_delta_ii_single_factor_signs():
    sc = load_builtin("sl2_endoscopy")
    eng = sc.engine
    xh = EllipticElement((Fraction(1),))
    pos = Diagram(eng.datum, eng.weyl_g[0], xh, EllipticElement((Fraction(1),)))
    neg = Diagram(eng.datum, eng.weyl_g[1], xh, EllipticElement((Fraction(-1),)))
    assert eng.delta_ii(pos) == 1
    assert eng.delta_ii(neg) == -1


def test_delta_ii_trivial_character_empty_product():
    sc = load_builtin("sl2_compact")
    eng = sc.engine
    xh = EllipticElement((Fraction(1),))
    d = Diagram(eng.datum, eng.weyl_g[0], xh, EllipticElement((Fraction(1),)))
    assert eng.delta_ii(d) == 1


def test_delta_i_trivial_kappa_gives_plus_one():
    sc = load_builtin("sl2_compact")
    eng = sc.engine
    for w in eng.weyl_g:
        xh = EllipticElement((Fraction(1),))
        d = Diagram(eng.datum, w, xh, EllipticElement(tuple(w.act(xh.coords))))
        assert eng.delta_i(d) == 1
        assert eng.delta_iii(d, eng.base_diagram) == 1


def test_delta_iii_base_is_plus_one():
    for name in ("sl2_endoscopy", "sl2xsl2_mixed", "sp4_endoscopy"):
        eng = load_builtin(name).engine
        assert eng.delta_iii(eng.base_diagram, eng.base_diagram) == 1


def test_first_and_third_factor_depend_only_on_identification():
    sc = load_builtin("sl2_endoscopy")
    eng = sc.engine
    w = eng.weyl_g[1]
    for val in (Fraction(1), Fraction(7, 3), Fraction(1, 5)):
        xh = EllipticElement((val,))
        d = Diagram(eng.datum, w, xh, EllipticElement(tuple(w.act(xh.coords))))
        assert eng.delta_i(d) == eng.delta_i(
            Diagram(eng.datum, w, EllipticElement((Fraction(1),)),
                    EllipticElement(tuple(w.act((Fraction(1),))))))
        assert eng.delta_iii(d, eng.base_diagram) == eng.delta_iii(
            Diagram(eng.datum, w, EllipticElement((Fraction(1),)),
                    EllipticElement(tuple(w.act((Fraction(1),))))),
            eng.base_diagram,
        )


def test_transfer_factor_classical_sl2_signs():
    sc = load_builtin("sl2_endoscopy")
    eng = sc.engine
    xh = EllipticElement((Fraction(3, 2),))
    assert transfer_factor(eng, xh, EllipticElement((Fraction(3, 2),))) == 1
    assert transfer_factor(eng, xh, EllipticElement((Fraction(-3, 2),))) == -1
    assert transfer_factor(eng, xh, EllipticElement((Fraction(4),))) == 0


def test_transfer_factor_base_pair_is_one():
    for name in ("sl2_endoscopy", "sl2xsl2_mixed", "sl2xsl2_double", "sp4_endoscopy"):
        eng = load_builtin(name).engine
        base = eng.base_diagram
        assert transfer_factor(eng, base.x_h, base.x_g) == 1


def test_stable_conjugacy_character_property():
    """Delta(x_h, w x) / Delta(x_h, x) equals the pairing of the stable
    invariant of (x, w x) with the endoscopic character, for every w."""
    for name in ("sl2_endoscopy", "sl2xsl2_mixed", "sl2xsl2_double", "sp4_endoscopy"):
        sc = load_builtin(name)
        eng = sc.engine
        rank = eng.g_datum.rank
        xh = EllipticElement(tuple(Fraction(2 * k + 3, 2 * k + 2) for k in range(rank)))
        base_g = EllipticElement(tuple(xh.coords))
        den = transfer_factor(eng, xh, base_g)
        torus = elliptic_torus(rank)
        kappa = kappa_over(eng.two_xhat_s, 2, torus)
        group = h1(torus)
        for w in eng.weyl_g:
            num = transfer_factor(eng, xh, EllipticElement(tuple(w.act(xh.coords))))
            inv_vec = eng.stable_invariant_class(w)
            cls = CohomologyClass(torus, group, group.reduce(inv_vec))
            assert num / den == tate_nakayama_pair(cls, kappa)


def test_transfer_factor_constant_on_rational_orbits():
    for name in ("sl2_compact", "sp4_endoscopy"):
        sc = load_builtin(name)
        eng = sc.engine
        rank = eng.g_datum.rank
        xh = EllipticElement(tuple(Fraction(k + 2, k + 1) for k in range(rank)))
        for w in eng.weyl_g:
            xg = EllipticElement(tuple(w.act(xh.coords)))
            val = transfer_factor(eng, xh, xg)
            for wr in eng.real_weyl_g:
                moved = EllipticElement(tuple(wr.act(xg.coords)))
                assert transfer_factor(eng, xh, moved) == val


def test_transfer_factor_stable_under_in_chamber_motion():
    sc = load_builtin("sp4_endoscopy")
    eng = sc.engine
    xh = EllipticElement((1.0, 0.35))
    xg = EllipticElement((1.0, 0.35))
    v0 = transfer_factor(eng, xh, xg)
    nudged = EllipticElement((1.0 + 1e-6, 0.35 - 1e-6))
    # same chamber pattern but no exact diagram: factor becomes 0
    assert transfer_factor(eng, xh, nudged) == 0
    # moving both points together keeps the diagram and the value
    xh2 = EllipticElement((1.0 + 1e-6, 0.35 - 1e-6))
    assert transfer_factor(eng, xh2, nudged) == v0


def test_a_datum_independence_exact():
    """The literal factor on 20 seeded a-data is the engine's, which takes
    none."""
    rng = random.Random(17)
    for name in ("sl2_endoscopy", "sl2xsl2_mixed", "sp4_endoscopy"):
        sc = load_builtin(name)
        eng = sc.engine
        literal = LiteralSetup(eng)
        rank = eng.g_datum.rank
        xh = EllipticElement(tuple(Fraction(2 * k + 3, 2 * k + 2) for k in range(rank)))
        targets = [EllipticElement(tuple(w.act(xh.coords))) for w in eng.weyl_g]
        baseline = [transfer_factor(eng, xh, t) for t in targets]
        for _ in range(20):
            ratios = tuple(
                (r, Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)))
                for r in eng.g_datum.positive_roots
            )
            a = ADatum(ratios)
            values = [transfer_factor(literal, xh, t, a) for t in targets]
            assert values == baseline


def test_a_datum_validation():
    d = build_root_datum("A1")
    with pytest.raises(EndoscopyError):
        ADatum(((tuple(d.positive_roots[0]), Fraction(0)),))
    a = ADatum.default(d)
    alpha = d.positive_roots[0]
    assert a.ratio(alpha) == 1
    assert a.ratio(tuple(-x for x in alpha)) == -1


# -- orbit enumeration -------------------------------------------------------

def test_orbit_counts_sl2_and_su2():
    endo = load_builtin("sl2_endoscopy").engine
    xg = EllipticElement((Fraction(1),))
    xh = EllipticElement((Fraction(1),))
    assert len(endo.stable_orbit_representatives(xg)) == 2
    assert len(endo.matching_h_orbits(xg)) == 2
    assert endo.stable_class_size_h(xh) == 1

    comp = load_builtin("sl2_compact").engine
    assert len(comp.stable_orbit_representatives(xg)) == 1
    assert len(comp.matching_h_orbits(xg)) == 1
    assert comp.stable_class_size_h(xh) == 1


def test_h_stable_class_sizes():
    assert load_builtin("sl2xsl2_mixed").engine.stable_class_size_h(
        EllipticElement((Fraction(1), Fraction(1, 2)))
    ) == 2
    assert load_builtin("sp4_endoscopy").engine.stable_class_size_h(
        EllipticElement((Fraction(1), Fraction(1, 3)))
    ) == 2


def test_orbit_representatives_partition_stable_class():
    eng = load_builtin("sp4_endoscopy").engine
    xg = EllipticElement((Fraction(1), Fraction(1, 3)))
    reps = eng.stable_orbit_representatives(xg)
    # distinct modulo the real Weyl group, and their real-Weyl orbits cover W xg
    real_orbits = set()
    for rep in reps:
        for wr in eng.real_weyl_g:
            real_orbits.add(tuple(wr.act(rep.coords)))
    full = {tuple(w.act(xg.coords)) for w in eng.weyl_g}
    assert real_orbits == full
    assert len(reps) * len(eng.real_weyl_g) == len(full)


# -- the rank-one matrix oracle ---------------------------------------------

def test_matrix_oracle_cayley_twist():
    """The compact-Cartan realization constant: c^{-1} sigma(c) = t_q n(s)
    with t_q = e(-coroot/4), i.e. e(-rho_check/2)."""
    q = m_mul(m_inv(CAYLEY), m_conj(CAYLEY))
    t_q = m_mul(q, m_inv(N_S))
    assert m_close(t_q, e_split(Fraction(-1, 4)))


def test_matrix_oracle_splitting_cocycle():
    """b(sigma) = g* n(omega) sigma(g*)^{-1} and tau = a_sigma b in matrices:
    the base diagram's cocycle value is the central point e(1/2) = -I, whose
    class is nontrivial, matching delta_I(base) = -1 against a nontrivial
    character."""
    b1 = m_mul(m_mul(CAYLEY, N_S), m_inv(m_conj(CAYLEY)))
    assert m_close(b1, e_compact(Fraction(1, 4)))
    a_sigma = e_compact(Fraction(1, 4))  # coroot tensor i
    tau = m_mul(a_sigma, b1)
    assert m_close(tau, ((-1, 0), (0, -1)))
    z = compact_point_coordinate(tau)
    assert abs(z + 1) < 1e-12
    # -1 is not of the boundary form |u|^2 > 0, so the class is nonzero
    assert z.real < 0

    eng = load_builtin("sl2_endoscopy").engine
    assert eng.delta_i(eng.base_diagram) == -1


def test_matrix_oracle_reflection_diagram_cocycle():
    """The reflection diagram g*_s = c n(s) has the same cocycle value, so
    the first factor agrees on the two diagrams: on the literal path, and
    in the package, where it is the same at every diagram."""
    g_s = m_mul(CAYLEY, N_S)
    sigma_gs = m_conj(g_s)
    b_s = m_mul(m_mul(g_s, N_S), m_inv(sigma_gs))
    b_1 = m_mul(m_mul(CAYLEY, N_S), m_inv(m_conj(CAYLEY)))
    assert m_close(b_s, b_1)

    eng = load_builtin("sl2_endoscopy").engine
    xh = EllipticElement((Fraction(1),))
    refl = Diagram(eng.datum, eng.weyl_g[1], xh, EllipticElement((Fraction(-1),)))
    literal = LiteralSetup(eng)
    assert literal.delta_i(refl) == literal.delta_i(eng.base_diagram) == eng.delta_i(refl)


def test_matrix_oracle_stable_invariant():
    """inv(X, sX) computed from an honest conjugating matrix: g = i*diag(1,-1)
    carries the rotation generator to its negative and g^{-1} sigma(g) = -I,
    a nontrivial class; the package stable invariant matches."""
    g = ((1j, 0), (0, -1j))
    x = ((0, 1.7), (-1.7, 0))
    moved = m_mul(m_mul(g, x), m_inv(g))
    assert m_close(moved, ((0, -1.7), (1.7, 0)))
    q = m_mul(m_inv(g), m_conj(g))
    assert m_close(q, ((-1, 0), (0, -1)))

    eng = load_builtin("sl2_endoscopy").engine
    s = eng.weyl_g[1]
    inv_vec = eng.stable_invariant_class(s)
    assert tuple(x % 2 for x in inv_vec) == (1,)
    torus = elliptic_torus(eng.g_datum.rank)
    group = h1(torus)
    cls = CohomologyClass(torus, group, group.reduce(inv_vec))
    kappa = kappa_over(eng.two_xhat_s, 2, torus)
    assert tate_nakayama_pair(cls, kappa) == -1
