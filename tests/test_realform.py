import cmath
import itertools

import pytest

from endotransfer.realform import (
    COMPACT,
    NONCOMPACT,
    EighthRoot,
    GradingError,
    RealFormGrading,
    _check_grading,
    build_grading,
    dimension_profile,
    gamma_psi,
    prefactor,
    preserves_grading,
    real_weyl_group,
    signature,
    weil_constant,
)
from endotransfer.rootdata import build_root_datum, enumerate_weyl

from oracles import TYPES, pairwise_grading_refuses


def test_sl2r_grading_dimensions():
    # one noncompact root: k = so(2), p two-dimensional
    d = build_root_datum("A1")
    g = build_grading(d, [NONCOMPACT])
    p = dimension_profile(g)
    assert (p.dim_k, p.dim_g_over_k) == (1, 2)
    assert p.dim_g == 3 and p.dim_g_over_t == 2


def test_su2_grading_dimensions():
    d = build_root_datum("A1")
    g = build_grading(d, [COMPACT])
    p = dimension_profile(g)
    assert (p.dim_k, p.dim_g_over_k) == (3, 0)


def test_c2_grading_counts_additive():
    d = build_root_datum("C2")
    g = build_grading(d, [COMPACT, NONCOMPACT])
    p = dimension_profile(g)
    assert p.dim_k == 2 + len(g.compact_roots)
    assert p.dim_k + p.dim_g_over_k == p.dim_g
    # the symplectic real form: exactly the short simple root pair is compact
    assert len(g.compact_roots) == 2
    # long-root-compact variant from the additive extension
    g2 = build_grading(d, [NONCOMPACT, COMPACT])
    assert len(g2.compact_roots) == 4


def test_grading_symmetric_and_additive():
    d = build_root_datum("C2")
    g = build_grading(d, [NONCOMPACT, NONCOMPACT])
    for r in d.roots:
        assert g.grade_of(tuple(-x for x in r)) == g.grade_of(r)
    for a in d.roots:
        for b in d.roots:
            s = tuple(x + y for x, y in zip(a, b))
            if d.is_root(s):
                assert g.grade_of(s) == (g.grade_of(a) + g.grade_of(b)) % 2


@pytest.mark.parametrize("g_type", TYPES)
def test_grading_check_refuses_what_the_pairwise_check_refuses(g_type):
    """_check_grading, additive on the sums with a simple root, refuses
    exactly the gradings that the check on every pair of roots refuses: each
    simple grading, and each with the grade of one root beta flipped, of
    beta alone (not symmetric) or of beta and -beta together."""
    d = build_root_datum(g_type)
    outcomes = set()
    for grades in itertools.product((0, 1), repeat=d.rank):
        grade = build_grading(d, grades).grade
        flips = [()] + [
            flip for beta in d.positive_roots for flip in ((beta,), (beta, tuple(-x for x in beta)))
        ]
        for flip in flips:
            flipped = dict(grade)
            for r in flip:
                flipped[r] ^= 1
            grading = RealFormGrading(d, flipped)
            try:
                _check_grading(grading)
                refused = False
            except GradingError:
                refused = True
            assert refused == pairwise_grading_refuses(grading), (grades, flip)
            outcomes.add((len(flip), refused))
    assert (0, False) in outcomes and (1, True) in outcomes
    if g_type not in ("A1", "A1xA1", "A1xA1xA1"):
        assert (2, True) in outcomes


def test_real_weyl_group_sl2r_trivial_su2_full():
    d = build_root_datum("A1")
    sl2r = build_grading(d, [NONCOMPACT])
    su2 = build_grading(d, [COMPACT])
    assert len(real_weyl_group(sl2r)) == 1
    assert len(real_weyl_group(su2)) == 2


def test_real_weyl_group_identity_extras_no_change():
    d = build_root_datum("A1")
    g = build_grading(d, [NONCOMPACT])
    ident = enumerate_weyl(d)[0]
    assert real_weyl_group(g, (ident,)) == real_weyl_group(g)


def test_real_weyl_group_rejects_bad_extra():
    d = build_root_datum("A1xA1")
    g = build_grading(d, [NONCOMPACT, COMPACT])
    swapless = d.element_from_word((0,))  # reflection in the noncompact factor
    # no Weyl element of A1xA1 moves a root to the other factor, so every
    # element preserves this grading, the noncompact reflection included
    assert preserves_grading(g, swapless)
    w = d.element_from_word((0, 1))  # the reflections of both factors
    assert preserves_grading(g, w)
    assert len(real_weyl_group(g, (swapless,))) == 4
    # build a fake grading-violating generator on C2
    c2 = build_root_datum("C2")
    gc = build_grading(c2, [COMPACT, NONCOMPACT])
    sref = c2.element_from_word((1,))  # reflection in the noncompact long root
    assert not preserves_grading(gc, sref)
    with pytest.raises(GradingError):
        real_weyl_group(gc, (sref,))


def test_real_weyl_group_stabilizes_grading_and_is_subgroup():
    c2 = build_root_datum("C2")
    g = build_grading(c2, [COMPACT, NONCOMPACT])
    rw = real_weyl_group(g)
    mats = {w.matrix for w in enumerate_weyl(c2)}
    assert len(rw) == 2
    for w in rw:
        assert w.matrix in mats
        assert preserves_grading(g, w)


def test_weil_constant_values():
    assert complex(weil_constant(0, 0)) == 1
    assert abs(complex(weil_constant(2, 1)) - cmath.exp(1j * cmath.pi / 4)) < 1e-15
    assert abs(complex(weil_constant(0, 3)) - cmath.exp(-3j * cmath.pi / 4)) < 1e-15


def test_weil_constant_conjugate_inverse_symmetry():
    for p in range(4):
        for q in range(4):
            assert (weil_constant(p, q) * weil_constant(q, p)).k == 0


def test_prefactor_values():
    d = build_root_datum("A1")
    sl2r = dimension_profile(build_grading(d, [NONCOMPACT]))
    su2 = dimension_profile(build_grading(d, [COMPACT]))
    assert abs(complex(prefactor(sl2r)) - 1j) < 1e-15       # (-i)(-1) = i
    assert abs(complex(prefactor(su2)) - (-1j)) < 1e-15     # (-i)(+1)


def test_prefactor_trivial_torus():
    from endotransfer.realform import DimensionProfile

    torus = DimensionProfile(dim_g=1, dim_t=1, dim_k=1, dim_g_over_t=0, dim_g_over_k=0)
    assert complex(prefactor(torus)) == 1


def test_gamma_signatures():
    d = build_root_datum("A1")
    assert signature(build_grading(d, [NONCOMPACT])) == (2, 1)
    assert signature(build_grading(d, [COMPACT])) == (0, 3)
    assert gamma_psi(build_grading(d, [NONCOMPACT])).k == 1


def test_eighth_root_arithmetic():
    a = EighthRoot(3)
    b = EighthRoot(7)
    assert (a * b).k == 2
    assert abs(complex(EighthRoot(4)) + 1) < 1e-15


def test_prefactor_rejects_odd_dimensions():
    from endotransfer.realform import DimensionProfile

    bad = DimensionProfile(dim_g=4, dim_t=1, dim_k=2, dim_g_over_t=3, dim_g_over_k=1)
    with pytest.raises(GradingError):
        prefactor(bad)
