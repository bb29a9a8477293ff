"""The engine's exact set-up -- delta(w) = 0 after the check on the simple
reflections, w^{-1} along the reversed word -- must equal the literal per-w
path of oracles.LiteralSetup on every nontrivial character of ten Cartan
types of rank <= 3."""

import itertools
from fractions import Fraction

import pytest

from endotransfer import endoscopy
from endotransfer.endoscopy import (
    ADatum,
    EndoscopyError,
    EllipticElement,
    TransferFactorEngine,
    build_endoscopic_datum,
)
from endotransfer.realform import build_grading, real_weyl_group
from endotransfer.rootdata import build_root_datum, weyl_inverse

from oracles import LiteralSetup, literal_weyl_inverse

TYPES = ("A1", "A1xA1", "B2", "C2", "G2", "A1xA1xA1", "A1xB2", "A1xG2", "B3", "C3")


def _engine(g_type, signs):
    """All roots noncompact; base point (1/2, 2/3, 3/4, ...) on both sides."""
    g = build_root_datum(g_type)
    datum = build_endoscopic_datum(g, signs)
    grading_g = build_grading(g, [1] * g.rank)
    grading_h = build_grading(datum.h_datum, [1] * len(datum.h_datum.simple_roots))
    point = tuple(Fraction(k + 1, k + 2) for k in range(g.rank))
    return TransferFactorEngine(
        datum,
        grading_g,
        grading_h,
        real_weyl_group(grading_g),
        real_weyl_group(grading_h),
        EllipticElement(point, "H"),
        EllipticElement(point, "G"),
    )


def _entries(table):
    return [(e.w.word, e.inverse, e.sign, e.roots) for e in table.entries]


@pytest.mark.parametrize("g_type", TYPES)
def test_setup_matches_literal_path(g_type):
    g = build_root_datum(g_type)
    a = ADatum.default(g)
    for signs in itertools.product((1, -1), repeat=g.rank):
        if all(s == 1 for s in signs):
            continue
        eng = _engine(g_type, signs)
        literal = LiteralSetup(eng)
        for w in eng.weyl_g:
            assert eng.tits_delta(w) == literal.tits_delta(w), (signs, w.word)
            inv = weyl_inverse(g, w)
            expected = literal_weyl_inverse(g, w)
            assert (inv.matrix, inv.word) == (expected.matrix, expected.word), w.word
        assert _entries(eng.transfer_table(a)) == _entries(literal.transfer_table(a)), signs


def test_engine_refuses_nonzero_delta_of_a_simple_reflection(monkeypatch):
    """tits_delta is 0 only because every n_i^{-1} n(omega) n_i is n(omega);
    a product off by a sign must stop the engine."""
    multiply = endoscopy.tits_multiply

    def off_by_a_sign(datum, a, b):
        out = multiply(datum, a, b)
        n = datum.rank
        if out.w.matrix == tuple(tuple(-int(i == j) for j in range(n)) for i in range(n)):
            out = type(out)((1,) + out.eps[1:], out.w)
        return out

    monkeypatch.setattr(endoscopy, "tits_multiply", off_by_a_sign)
    with pytest.raises(EndoscopyError, match="does not commute"):
        _engine("B2", (1, -1))
