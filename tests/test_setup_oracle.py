"""The engine's exact set-up -- delta(w) = 0 after the check on the simple
reflections, w^{-1} along the reversed word, delta_I and delta_III on
integer numerators over fixed denominators -- must equal the literal per-w
Fraction path of oracles.LiteralSetup on every nontrivial character of ten
Cartan types of rank <= 3, and on a-data with negative and non-unit ratios."""

import itertools
import random
from fractions import Fraction

import pytest

from endotransfer import endoscopy
from endotransfer.endoscopy import (
    ADatum,
    Diagram,
    EndoscopyError,
    EllipticElement,
    TransferFactorEngine,
    build_endoscopic_datum,
)
from endotransfer.realform import build_grading, real_weyl_group
from endotransfer.rootdata import build_root_datum, weyl_inverse

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


def test_transfer_table_goes_through_the_cohomology_layer(monkeypatch):
    """On B3, s = (+1, +1, -1), alpha1 and alpha2 compact, one table build
    classifies and pairs exactly once per w for delta_I and once for
    delta_III: 2 |W| = 96 calls of each."""
    calls = {"cocycle_class": 0, "tate_nakayama_pair": 0}

    def counted(name):
        original = getattr(endoscopy, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    eng = _engine("B3", (1, 1, -1), grades=(0, 0, 1))
    assert len(eng.weyl_g) == 48
    for name in calls:
        monkeypatch.setattr(endoscopy, name, counted(name))
    eng.transfer_table()
    assert calls == {"cocycle_class": 96, "tate_nakayama_pair": 96}


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
