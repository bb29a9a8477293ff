"""The root tables set-up reads by position, against their definitions.

For every root beta of each ambient datum (the types of oracles.TYPES, B4,
C4 and D4) and of every H of the 330 data of tests/conftest.py:

* the permutation reflection_permutation reads from the ambient's
  reflection table must be the literal reflection of the ambient's roots,
  s_beta gamma = gamma - <gamma, beta^vee> beta, computed here;
* the coefficients simple_root_coefficients gives must be beta's exact
  coordinates over the simple roots, (R R^T)^{-1} R beta by Fraction
  elimination (oracles.coordinate_map_rational).  An ambient's come from
  its closure, over 1.

The check must catch a table in which one entry of one reflection that is
not simple, and so is built from others, is changed.
"""

from fractions import Fraction

import pytest

from endotransfer.lattice import mat_vec
from endotransfer.rootdata import build_root_datum

from oracles import TYPES, coordinate_map_rational

AMBIENT_TYPES = TYPES + ("B4", "C4", "D4")


def literal_reflection(ambient, beta) -> tuple[int, ...]:
    """s_beta as a permutation of the ambient's roots, root by root."""
    coroot = ambient.coroot(beta)
    position = {r: j for j, r in enumerate(ambient.roots)}
    out = []
    for gamma in ambient.roots:
        p = sum(g * c for g, c in zip(gamma, coroot))
        out.append(position[tuple(g - p * b for g, b in zip(gamma, beta))])
    return tuple(out)


def reflection_problems(datum, reflection) -> list:
    """The roots of datum whose reflection(beta), a permutation of the
    ambient's roots, is not the literal one."""
    return [beta for beta in datum.roots if reflection(beta) != literal_reflection(datum.ambient, beta)]


def coefficient_problems(datum) -> list:
    """The roots of datum whose coefficients are not their exact
    coordinates over the simple roots."""
    p, den = coordinate_map_rational(datum.simple_roots)
    bad = []
    for beta in datum.roots:
        coefficients, d = datum.simple_root_coefficients(beta)
        if tuple(Fraction(c, d) for c in coefficients) != tuple(Fraction(x, den) for x in mat_vec(p, beta)):
            bad.append(beta)
    return bad


@pytest.mark.parametrize("g_type", AMBIENT_TYPES)
def test_ambient_tables_match_their_definitions(g_type):
    g = build_root_datum(g_type)
    assert g.ambient is g
    assert reflection_problems(g, g.reflection_permutation) == []
    assert coefficient_problems(g) == []
    assert all(g.simple_root_coefficients(beta)[1] == 1 for beta in g.roots)


def test_h_tables_match_their_definitions(scenarios):
    g_type, data = scenarios
    for key, sc in data:
        h = sc.engine.datum.h_datum
        assert h.ambient is sc.engine.g_datum, key
        assert reflection_problems(h, h.reflection_permutation) == [], key
        assert coefficient_problems(h) == [], key


@pytest.mark.parametrize("g_type", ("B3", "G2", "D4"))
def test_a_changed_entry_of_a_built_reflection_is_caught(g_type):
    g = build_root_datum(g_type)
    beta = next(r for r in g.positive_roots if r not in g.simple_roots)
    perm = list(g.reflection_permutation(beta))
    perm[-1] = (perm[-1] + 1) % len(perm)
    moved = tuple(perm)

    def reflection(root):
        return moved if root == beta else g.reflection_permutation(root)

    assert reflection_problems(g, reflection) == [beta]
