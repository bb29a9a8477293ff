"""The engine's exact set-up -- delta(w) = 0 after the check on the simple
reflections, w^{-1} along the reversed word, delta_I and delta_III as
parities of integer dot products on X_*/2X_* -- must equal the literal per-w
Fraction path of oracles.LiteralSetup on every nontrivial character of ten
Cartan types of rank <= 3, and on a-data with negative and non-unit ratios.
The two factors must also equal the pairings the cohomology module computes
through cocycle_class and tate_nakayama_pair, which the engine no longer calls."""

import itertools
import random
from fractions import Fraction

import pytest

from endotransfer import cohomology, distributions, endoscopy, realform, scenario, verify
from endotransfer.cohomology import (
    TorusPoint,
    cocycle_class,
    elliptic_torus,
    h1,
    kappa_over,
    tate_nakayama_pair,
)
from endotransfer.endoscopy import (
    ADatum,
    Diagram,
    EndoscopyError,
    EllipticElement,
    TransferFactorEngine,
    build_endoscopic_datum,
)
from endotransfer.lattice import mat_vec, transpose
from endotransfer.realform import build_grading, real_weyl_group
from endotransfer.rootdata import RootDatum, build_root_datum, enumerate_weyl, weyl_inverse
from endotransfer.scenario import build_scenario, parse_scenario

from oracles import TYPES, LiteralSetup, literal_weyl_inverse


def _engine(g_type, signs, grades=None):
    """All roots noncompact unless the simple grades are given; base point
    (1/2, 2/3, 3/4, ...) on both sides."""
    g = build_root_datum(g_type)
    datum = build_endoscopic_datum(g, signs)
    grading_g = build_grading(g, [1] * g.rank if grades is None else grades)
    grading_h = build_grading(datum.h_datum, [1] * len(datum.h_datum.simple_roots))
    point = tuple(Fraction(k + 1, k + 2) for k in range(g.rank))
    return TransferFactorEngine(
        datum,
        grading_g,
        grading_h,
        real_weyl_group(grading_g),
        real_weyl_group(grading_h),
        EllipticElement(point),
        EllipticElement(point),
    )


def _entries(table):
    return [(e.w.word, e.inverse, e.sign, e.roots) for e in table]


@pytest.mark.parametrize("g_type", TYPES)
def test_setup_matches_literal_path(g_type):
    g = build_root_datum(g_type)
    a = ADatum.default(g)
    zero = (0,) * g.rank
    for signs in itertools.product((1, -1), repeat=g.rank):
        if all(s == 1 for s in signs):
            continue
        eng = _engine(g_type, signs)
        literal = LiteralSetup(eng)
        for w in eng.weyl_g:
            assert literal.tits_delta(w) == zero, (signs, w.word)
            inv = weyl_inverse(g, w)
            expected = literal_weyl_inverse(g, w)
            assert (inv.matrix, inv.word) == (expected.matrix, expected.word), w.word
        assert _entries(eng.transfer_table()) == _entries(literal.transfer_table(a)), signs


def _a_datum(g, seed):
    """Seeded ratios of either sign and of magnitude 1, 2, 1/3 or 5/2."""
    rng = random.Random(seed)
    sizes = (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(5, 2))
    return ADatum(tuple((r, rng.choice((1, -1)) * rng.choice(sizes)) for r in g.positive_roots))


@pytest.mark.parametrize("seed", (11, 12, 13))
@pytest.mark.parametrize("g_type", ("C2", "G2", "B3"))
def test_setup_matches_literal_path_on_other_a_data(g_type, seed):
    """Negative ratios move delta_I's phases; non-unit ones give the
    literal path's point magnitudes, which on the compact Cartan cannot
    move the class.  delta_I delta_II does not depend on the a-datum, so
    the literal table on these a-data is the engine's table, which reads
    the default one."""
    g = build_root_datum(g_type)
    a = _a_datum(g, seed)
    ratios = [r for _, r in a.ratios]
    assert any(r < 0 for r in ratios) and any(abs(r) != 1 for r in ratios)
    for signs in itertools.product((1, -1), repeat=g.rank):
        if all(s == 1 for s in signs):
            continue
        eng = _engine(g_type, signs)
        assert _entries(LiteralSetup(eng).transfer_table(a)) == _entries(eng.transfer_table()), signs


@pytest.mark.parametrize("g_type", ("B4", "C4", "D4"))
def test_delta_iii_on_rank_4_against_other_bases(g_type):
    """delta_III against a base diagram other than the base point's, on
    rank 4, where the coweights modulo the coroots, which the literal
    doubled torus divides out, are Z/2 (B4, C4) or (Z/2)^2 (D4): twelve
    seeded w for every nontrivial s, each against a seeded random b."""
    g = build_root_datum(g_type)
    rng = random.Random(g_type)
    for signs in itertools.product((1, -1), repeat=g.rank):
        if all(s == 1 for s in signs):
            continue
        eng = _engine(g_type, signs)
        literal = LiteralSetup(eng)
        x_h = eng.base_diagram.x_h

        def diagram(w):
            return Diagram(eng.datum, w, x_h, EllipticElement(w.act(x_h.coords)))

        for _ in range(12):
            d, b = diagram(rng.choice(eng.weyl_g)), diagram(rng.choice(eng.weyl_g))
            assert eng.delta_iii(d, b) == literal.delta_iii(d, b), (signs, d.w.word, b.w.word)


def _cohomology_delta_i(d, w, a, two_xhat, torus, group):
    """delta_I through the cohomology layer: the class of the splitting
    cocycle e(P / 4), P = w 2 rho_check + 2 rho_check + 2 (w beta)^vee over
    the beta > 0 with a(w beta) < 0, paired with w . xhat_s = (w^{-1})^T xhat_s."""
    two_rho = _two_rho_check(d)
    phases = [x + y for x, y in zip(w.act(two_rho), two_rho)]
    for beta in d.positive_roots:
        alpha = d.root_image(w.matrix, beta)
        if a.ratio(alpha) < 0:
            phases = [p + 2 * c for p, c in zip(phases, d.coroot(alpha))]
    back = weyl_inverse(d, w)
    kappa = kappa_over(mat_vec(transpose(back.matrix), two_xhat), 2, torus)
    return tate_nakayama_pair(cocycle_class(torus, TorusPoint.over(phases, 4), group), kappa)


def _cohomology_delta_iii(d, w, b, two_xhat, torus, group):
    """delta_III through the cohomology layer: the class of e((b^{-2} 2
    rho_check - w^{-2} 2 rho_check) / 4) paired with xhat_s."""
    two_rho = _two_rho_check(d)

    def back_twice(v):
        u = weyl_inverse(d, v)
        return u.act(u.act(two_rho))

    point = TorusPoint.over([x - y for x, y in zip(back_twice(b), back_twice(w))], 4)
    return tate_nakayama_pair(cocycle_class(torus, point, group), kappa_over(two_xhat, 2, torus))


def _two_rho_check(d):
    return tuple(sum(col) for col in zip(*(d.coroot(r) for r in d.positive_roots)))


@pytest.mark.parametrize("g_type", TYPES)
def test_factors_are_the_cohomology_pairings(g_type):
    """The engine's parities on X_*/2X_* equal the Tate-Nakayama pairings
    that cohomology computes on the elliptic torus through cocycle_class and
    h1: delta_I for every w on the default a-datum and on a seeded one with
    negative ratios, delta_III for every w against the base diagram and
    against a seeded other one, for every nontrivial s."""
    g = build_root_datum(g_type)
    torus = elliptic_torus(g.rank)
    group = h1(torus)
    a_data = (ADatum.default(g), _a_datum(g, 11))
    assert any(r < 0 for _, r in a_data[1].ratios)
    rng = random.Random(g_type)
    for signs in itertools.product((1, -1), repeat=g.rank):
        if all(s == 1 for s in signs):
            continue
        eng = _engine(g_type, signs)
        two_xhat = tuple(1 if s == -1 else 0 for s in signs)
        x_h = eng.base_diagram.x_h

        def diagram(w):
            return Diagram(eng.datum, w, x_h, EllipticElement(w.act(x_h.coords)))

        base, other = eng.base_diagram, diagram(rng.choice(eng.weyl_g))
        for w in eng.weyl_g:
            dw = diagram(w)
            for a in a_data:
                expected = _cohomology_delta_i(g, w, a, two_xhat, torus, group)
                assert eng.delta_i(dw, a) == expected, (signs, w.word, a is a_data[0])
            for b in (base, other):
                expected = _cohomology_delta_iii(g, w, b.w, two_xhat, torus, group)
                assert eng.delta_iii(dw, b) == expected, (signs, w.word, b.w.word)


def test_transfer_table_makes_no_cohomology_calls(monkeypatch):
    """On B3, s = (+1, +1, -1), alpha1 and alpha2 compact, one table build
    evaluates delta_I once, at the base, since under the default a-datum it
    is the same for every w (test_delta_i_is_the_same_for_every_w), and
    delta_III once per w, |W| = 48 calls, as integer parities: no class is
    classified and nothing is paired in the cohomology layer."""
    calls = {name: 0 for name in ("delta_i", "delta_iii", "cocycle_class", "tate_nakayama_pair", "h1")}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    eng = _engine("B3", (1, 1, -1), grades=(0, 0, 1))
    assert len(eng.weyl_g) == 48
    for name in ("delta_i", "delta_iii"):
        monkeypatch.setattr(TransferFactorEngine, name, counted(name, getattr(TransferFactorEngine, name)))
    for module in (endoscopy, cohomology):
        for name in ("cocycle_class", "tate_nakayama_pair", "h1"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    eng.transfer_table()
    assert calls == {"delta_i": 1, "delta_iii": 48, "cocycle_class": 0, "tate_nakayama_pair": 0, "h1": 0}


@pytest.mark.parametrize("g_type", TYPES)
def test_delta_i_is_the_same_for_every_w(g_type):
    """Under the default a-datum P = 2 w 2 rho_check, so delta_I(w) =
    (-1)^<2 xhat_s, 2 rho_check> for every w: each w's value equals the
    base's, for every nontrivial s, which lets the table evaluate it once."""
    g = build_root_datum(g_type)
    a = ADatum.default(g)
    for signs in itertools.product((1, -1), repeat=g.rank):
        if all(s == 1 for s in signs):
            continue
        eng = _engine(g_type, signs)
        base = eng.base_diagram
        expected = eng.delta_i(base, a)
        for w in eng.weyl_g:
            diagram = Diagram(eng.datum, w, base.x_h, EllipticElement(w.act(base.x_h.coords)))
            assert eng.delta_i(diagram, a) == expected, (signs, w.word)


@pytest.mark.parametrize("g_type", TYPES)
def test_permutations_are_the_root_images(g_type):
    """The root permutation that enumerate_weyl gives each w, which the
    engine reads, is the literal one, roots[j] -> root_image(w's matrix,
    roots[j]), for G and for the endoscopic group of every nontrivial s;
    the engine's -1, found by its key, and its positions of w^{-1} agree
    with the matrices."""
    g = build_root_datum(g_type)
    for signs in itertools.product((1, -1), repeat=g.rank):
        if all(s == 1 for s in signs):
            continue
        eng = _engine(g_type, signs)
        for d, group in ((g, eng.weyl_g), (eng.datum.h_datum, enumerate_weyl(eng.datum.h_datum))):
            index = {r: j for j, r in enumerate(d.roots)}
            assert len(group.perms) == len(group)
            for w, perm in zip(group, group.perms):
                assert perm == tuple(index[d.root_image(w.matrix, r)] for r in d.roots), w.word
        assert eng.omega.matrix == g.minus_one_element().matrix
        for k, w in enumerate(eng.weyl_g):
            assert eng.weyl_g[eng._inverse[k]].matrix == weyl_inverse(g, w).matrix


B3_TEXT = """\
name = b3
g_type = B3
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


def test_b3_setup_call_counts(monkeypatch):
    """One cold B3 scenario build and its pair table do matrix work only
    for what is new: each element of the four Weyl groups has its matrix
    read once from its root permutation (matrix_of), and no element is
    folded from its word by rank-one updates (times_reflection).  The Tits
    check folds on root permutations, so it makes no update and no
    root_image call; no word is read from a matrix, and delta_I is
    evaluated once.

    Set-up keeps what it derives: with two pairs of run_verify besides,
    the loader's phase bound is the one verify's precision floor reads
    (one phase_bound call), the base delta_II is read from x_g's mask (no
    root_signs call), and each Side reads gamma and its prefactor from one
    dimension profile (two dimension_profile calls).  Each function is
    counted under every module name it is looked up by."""
    calls = dict.fromkeys(
        ("times_reflection", "matrix_of", "root_image", "reduced_word", "delta_i",
         "phase_bound", "root_signs", "dimension_profile"),
        0,
    )

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for owner, name in (
        (RootDatum, "times_reflection"),
        (RootDatum, "matrix_of"),
        (RootDatum, "root_image"),
        (RootDatum, "reduced_word"),
        (TransferFactorEngine, "delta_i"),
        (scenario, "phase_bound"),
        (verify, "phase_bound"),
        (endoscopy, "root_signs"),
        (distributions, "dimension_profile"),
        (realform, "dimension_profile"),
    ):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    build_root_datum.cache_clear()
    sc = build_scenario(parse_scenario(B3_TEXT))
    assert len(sc.table.entries) == 48
    verify.run_verify(sc, 2, 5)
    eng = sc.engine
    groups = (eng.weyl_g, eng.weyl_h, eng.real_weyl_g, eng.real_weyl_h)
    assert [len(g) for g in groups] == [48, 24, 6, 4]
    assert calls == {
        "times_reflection": 0,
        "matrix_of": sum(len(g) for g in groups),
        "root_image": 0,
        "reduced_word": 0,
        "delta_i": 1,
        "phase_bound": 1,
        "root_signs": 0,
        "dimension_profile": 2,
    }


def test_factors_refuse_a_class_that_is_not_integral(monkeypatch):
    """The class (1 - sigma) x of each factor's cocycle is P / 2 or (b^{-2}
    2 rho_check - w^{-2} 2 rho_check) / 2; an odd coordinate, here from a
    2 rho_check or a w . 2 rho_check off by a simple coroot, must stop the
    factor by name instead of flooring to a parity."""
    eng = _engine("B2", (1, -1))
    a = ADatum.default(eng.g_datum)
    x_h = eng.base_diagram.x_h
    s1 = eng.weyl_g[1]
    assert s1.word == (0,)
    reflection = Diagram(eng.datum, s1, x_h, EllipticElement(s1.act(x_h.coords)))
    two_rho = eng.two_rho_check
    monkeypatch.setattr(eng, "two_rho_check", (two_rho[0] + 1,) + two_rho[1:])
    with pytest.raises(EndoscopyError, match="delta_I"):
        eng.delta_i(reflection, a)
    monkeypatch.setattr(eng, "two_rho_check", two_rho)
    eng.delta_i(reflection, a)

    # s1 s2 has order 4, so (s1 s2)^{-2} = -1 and its image of 2 rho_check
    # differs from the identity's, against which the base diagram pairs.
    rotation = next(w for w in eng.weyl_g if w.word == (0, 1))
    turned = Diagram(eng.datum, rotation, x_h, EllipticElement(rotation.act(x_h.coords)))
    eng.delta_iii(turned)
    images = list(eng._two_rho_images)
    images[0] = (images[0][0] + 1,) + images[0][1:]
    monkeypatch.setattr(eng, "_two_rho_images", tuple(images))
    with pytest.raises(EndoscopyError, match="delta_III"):
        eng.delta_iii(turned)


def test_engine_refuses_nonzero_delta_of_a_simple_reflection(monkeypatch):
    """delta(w) is 0, and left out of delta_I and delta_III, only because
    every n_i commutes with n(omega); a product off by a sign must stop the
    engine.  The check folds omega's word onto n_i, and n_i onto n(omega)."""
    fold = endoscopy.tits_fold

    def off_by_a_sign(datum, eps, matrix, word):
        eps, matrix = fold(datum, eps, matrix, word)
        if len(word) > 1:
            eps = ((eps[0] + 1) % 2,) + eps[1:]
        return eps, matrix

    monkeypatch.setattr(endoscopy, "tits_fold", off_by_a_sign)
    with pytest.raises(EndoscopyError, match="does not commute"):
        _engine("B2", (1, -1))
