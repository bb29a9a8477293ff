"""The set-up reads its structures from data that already exists: Weyl
matrices from root permutations, H's datum from G's roots and coroots, and
the per-w lookups of the engine from its permutations and row table.
These guards recompute each from its definition:

* every element of enumerate_weyl and of closure (the real Weyl groups):
  its matrix is the fold of its word, its determinant is (-1)^(length of
  its word), and its permutation is the one read root by root from its
  matrix; for G of every _CARTAN type, for H of every nontrivial s of the
  ten oracles.TYPES and of B4, C4 and D4;
* the engine's positions of w^{-1} and w^{-2}, its images of 2 rho_check,
  the positions of W_H in W, and every field of the pair table, against
  oracles.LiteralSetup, on the 330 data of tests/conftest.py;
* build_sub_datum refuses a root set that is not a closed subsystem."""

import itertools

import pytest

from endotransfer.endoscopy import build_endoscopic_datum
from endotransfer.lattice import det_int
from endotransfer.realform import build_grading, real_weyl_group
from endotransfer.rootdata import _CARTAN, RootDatumError, build_root_datum, build_sub_datum, enumerate_weyl

from oracles import TYPES, LiteralSetup, matrices_from_rows


def _check_elements(datum, group, perms=None) -> None:
    for k, w in enumerate(group):
        assert w.matrix == datum.word_matrix(w.word), w.word
        assert det_int(w.matrix) == (-1) ** len(w.word), w.word
        perm = datum.permutation(w.matrix)
        assert perm == (perms[k] if perms is not None else datum.word_permutation(w.word)), w.word


def _check_datum(datum, gradings) -> None:
    group = enumerate_weyl(datum)
    assert len(group.perms) == len(group)
    _check_elements(datum, group, group.perms)
    for grades in gradings:
        _check_elements(datum, real_weyl_group(build_grading(datum, grades)))


def _gradings(k):
    """Every simple grading up to rank 3; at rank 4 all noncompact and
    each with one compact simple root."""
    if k <= 3:
        return tuple(itertools.product((0, 1), repeat=k))
    return ((1,) * k,) + tuple(tuple(int(j != i) for j in range(k)) for i in range(k))


@pytest.mark.parametrize("g_type", sorted(_CARTAN))
def test_g_elements_match_their_words(g_type):
    g = build_root_datum(g_type)
    _check_datum(g, _gradings(g.rank))


@pytest.mark.parametrize("g_type", TYPES + ("B4", "C4", "D4"))
def test_h_elements_match_their_words(g_type):
    """H's elements have their matrices read from G's root permutations;
    the closures of H at rank 4 are left to the quasi-split grading."""
    g = build_root_datum(g_type)
    for signs in itertools.product((1, -1), repeat=g.rank):
        if all(s == 1 for s in signs):
            continue
        h = build_endoscopic_datum(g, signs).h_datum
        k = len(h.simple_roots)
        _check_datum(h, _gradings(k) if g.rank <= 3 else ((1,) * k,))


def test_engine_lookups_and_pair_table_match_the_literal_ones(scenarios):
    """The literal transfer entries depend on the datum alone, not on the
    gradings, so each is recomputed once per character s."""
    _, data = scenarios
    entries = {}
    for (grades, signs), sc in data:
        eng = sc.engine
        literal = LiteralSetup(eng)
        lookups = (eng._inverse, eng._inverse_square, eng._two_rho_images, eng.h_positions)
        assert lookups == literal.literal_lookups(), (grades, signs)
        if signs not in entries:
            entries[signs] = literal.literal_entries()
        table = sc.table
        assert tuple((e.w, e.inverse, e.sign, e.roots, e.length) for e in table.entries) == entries[signs], signs
        fields = (matrices_from_rows(table.g_rows), matrices_from_rows(table.h_rows), table.g_law, table.h_law)
        assert fields == literal.literal_matrices_and_laws(), (grades, signs)


def _literal_closure(g, roots):
    """The roots reached from the indecomposable positive ones of the set
    by their reflections, s_beta gamma = gamma - <gamma, beta^vee> beta,
    breadth-first: the set is a closed subsystem exactly when it is this."""
    positive = [r for r in roots if g.is_positive(r)]
    simple = [
        a for a in positive
        if not any(tuple(x - y for x, y in zip(a, b)) in positive for b in positive if b != a)
    ]
    reached = set(simple) | {tuple(-x for x in a) for a in simple}
    frontier = list(reached)
    while frontier:
        new = []
        for gamma in frontier:
            for beta in simple:
                p = sum(x * c for x, c in zip(gamma, g.coroot(beta)))
                image = tuple(x - p * b for x, b in zip(gamma, beta))
                if image not in reached:
                    reached.add(image)
                    new.append(image)
        frontier = new
    return reached


@pytest.mark.parametrize("g_type", ("A2", "B2", "G2", "A1xA1", "A1xB2"))
def test_build_sub_datum_refuses_every_set_that_is_not_closed(g_type):
    """Every symmetric set of roots, and each with one root of a pair
    +-alpha left out: build_sub_datum builds the set, with G's coroots,
    exactly when it is its literal closure, and refuses it otherwise."""
    g = build_root_datum(g_type)
    positive = g.positive_roots
    for chosen in itertools.product((False, True), repeat=len(positive)):
        pairs = [(r, tuple(-x for x in r)) for r, keep in zip(positive, chosen) if keep]
        sets = [[r for pair in pairs for r in pair]]
        sets += [[r for pair in pairs for r in pair if pair is not cut or r != left] for cut in pairs for left in cut]
        for roots in sets:
            if set(roots) == _literal_closure(g, roots):
                h = build_sub_datum(g, tuple(roots), "sub")
                assert h.roots == tuple(sorted(roots))
                assert h.coroots == tuple(g.coroot(r) for r in h.roots)
            else:
                with pytest.raises(RootDatumError, match="not closed|linearly dependent"):
                    build_sub_datum(g, tuple(roots), "sub")
