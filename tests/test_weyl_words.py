"""The Weyl words, orders and Tits products that the package builds with
O(n^2) reflection updates must equal those of generic matrix products
(oracles.LiteralWords): the order of W and of the real Weyl groups fixes
the routes' summation order, and so the report bytes.  Checked on the ten
Cartan types of rank <= 3 with -1 in W and on B4, C4 and D4, for G and for
the endoscopic group of every character (its real Weyl groups at rank <= 3
only)."""

import itertools

import pytest

from endotransfer.endoscopy import build_endoscopic_datum
from endotransfer.realform import build_grading, real_weyl_group
from endotransfer.rootdata import (
    build_root_datum,
    enumerate_weyl,
    weyl_inverse,
)
from endotransfer.tits import TitsElement, fold, inverse as tits_inverse, multiply, n_of

from oracles import TYPES, LiteralWords

WORD_TYPES = TYPES + ("B4", "C4", "D4")


def _key(group):
    return [(w.word, w.matrix) for w in group]


def _check_group(datum) -> None:
    """enumerate_weyl, reduced_word, element_from_word, weyl_inverse and
    root_image against the literal copies."""
    literal = LiteralWords(datum)
    group = enumerate_weyl(datum)
    assert _key(group) == _key(literal.enumerate_weyl())
    for w in group:
        word = literal.reduced_word(w.matrix)
        assert datum.reduced_word(w.matrix) == word
        assert _key([datum.element_from_word(w.word)]) == [(word, w.matrix)]
        assert _key([weyl_inverse(datum, w)]) == _key([literal.weyl_inverse(w)])
        for beta in datum.roots:
            assert datum.root_image(w.matrix, beta) == literal.act_on_root(w, beta), (w.word, beta)


def _check_real_weyl_groups(datum, gradings) -> None:
    """real_weyl_group's closure against the literal closure of the same
    compact reflections, without extras and with every simple reflection
    that preserves the grading as an extra."""
    literal = LiteralWords(datum)
    simple = [literal.element_from_matrix(m) for m in literal.reflections]
    for grades in gradings:
        grading = build_grading(datum, grades)
        gens = tuple(
            literal.element_from_matrix(literal.reflection(root))
            for root in grading.compact_roots
            if root in literal.positive
        )
        assert _key(real_weyl_group(grading)) == _key(literal.closure(gens)), grades
        extras = tuple(
            s for s in simple
            if all(grading.grade[literal.act_on_root(s, r)] == grading.grade[r] for r in datum.roots)
        )
        assert _key(real_weyl_group(grading, extras)) == _key(literal.closure(gens + extras)), grades


def _gradings(k):
    """Every simple grading at rank <= 3; at rank 4, where the closures are
    large, all noncompact and each with one compact simple root."""
    if k <= 3:
        return tuple(itertools.product((0, 1), repeat=k))
    return ((1,) * k,) + tuple(tuple(int(j != i) for j in range(k)) for i in range(k))


@pytest.mark.parametrize("g_type", WORD_TYPES)
def test_words_and_orders_match_matrix_products(g_type):
    g = build_root_datum(g_type)
    _check_group(g)
    _check_real_weyl_groups(g, _gradings(g.rank))
    for signs in itertools.product((1, -1), repeat=g.rank):
        if all(s == 1 for s in signs):
            continue
        h = build_endoscopic_datum(g, signs).h_datum
        _check_group(h)
        if g.rank <= 3:
            _check_real_weyl_groups(h, _gradings(len(h.simple_roots)))


@pytest.mark.parametrize("g_type", WORD_TYPES)
def test_tits_products_match_the_word_walking_fold(g_type):
    """multiply against the fold that walks w's word and multiplies
    matrices, on every product of two of the simple lifts n_i and n(omega),
    on the engine's n_i^{-1} n(omega) n_i, and, at rank <= 3, on n(w) times
    each lift for every w, with a torus part."""
    d = build_root_datum(g_type)
    literal = LiteralWords(d)
    omega = d.minus_one_element()
    lifts = [n_of(d, d.simple_reflection(i)) for i in range(d.rank)] + [n_of(d, omega)]
    for a, b in itertools.product(lifts, repeat=2):
        assert multiply(d, a, b) == literal.tits_multiply(a, b)
    for w in enumerate_weyl(d) if d.rank <= 3 else ():
        for b in lifts:
            a = TitsElement(tuple(x % 2 for x in w.matrix[0]), w)
            assert multiply(d, a, b) == literal.tits_multiply(a, b), (w.word, b.w.word)
    for n_i in lifts[:-1]:
        left = tits_inverse(d, n_i)
        middle = literal.tits_multiply(left, lifts[-1])
        assert multiply(d, left, lifts[-1]) == middle
        assert multiply(d, middle, n_i) == literal.tits_multiply(middle, n_i)



@pytest.mark.parametrize("g_type", ("B4", "C4", "D4", "G2"))
def test_permutation_fold_matches_the_matrix_fold(g_type):
    """tits.fold on root permutations against the literal fold on matrices,
    for every w and letter i, with the torus part of w's first row: the
    same eps, and the permutation of the same element."""
    d = build_root_datum(g_type)
    literal = LiteralWords(d)
    for w in enumerate_weyl(d):
        eps = tuple(x % 2 for x in w.matrix[0])
        for i in range(d.rank):
            want_eps, want = literal._fold_generator(eps, w, i)
            assert fold(d, eps, d.permutation(w.matrix), (i,)) == (want_eps, d.permutation(want.matrix)), (w.word, i)
