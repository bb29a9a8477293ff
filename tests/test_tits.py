import random

import pytest

from endotransfer.rootdata import RootDatumError, WeylElement, build_root_datum, enumerate_weyl
from endotransfer.tits import TitsElement, inverse, multiply, n_of, torus_part


def test_generator_square_is_coroot_sign():
    for label in ("A1", "A2", "C2", "G2"):
        d = build_root_datum(label)
        for i in range(len(d.simple_roots)):
            n_i = n_of(d, d.simple_reflection(i))
            sq = multiply(d, n_i, n_i)
            assert sq.w.is_identity()
            assert sq.eps == tuple(x % 2 for x in d.simple_coroots[i])


def test_braid_relations():
    a2 = build_root_datum("A2")
    n0, n1 = n_of(a2, a2.simple_reflection(0)), n_of(a2, a2.simple_reflection(1))
    lhs = multiply(a2, multiply(a2, n0, n1), n0)
    rhs = multiply(a2, multiply(a2, n1, n0), n1)
    assert lhs == rhs

    c2 = build_root_datum("C2")
    m0, m1 = n_of(c2, c2.simple_reflection(0)), n_of(c2, c2.simple_reflection(1))
    lhs = multiply(c2, multiply(c2, multiply(c2, m0, m1), m0), m1)
    rhs = multiply(c2, multiply(c2, multiply(c2, m1, m0), m1), m0)
    assert lhs == rhs


def test_longest_element_square():
    # n(w0)^2 = (-1)^{2 rho_check} for -1-acting longest elements
    for label in ("A1", "C2", "A1xA1"):
        d = build_root_datum(label)
        w0 = d.minus_one_element()
        sq = multiply(d, n_of(d, w0), n_of(d, w0))
        two_rho = [0] * d.rank
        for r in d.positive_roots:
            for j, x in enumerate(d.coroot(r)):
                two_rho[j] += x
        assert sq.w.is_identity()
        assert sq.eps == tuple(x % 2 for x in two_rho)


def test_associativity_randomized():
    rng = random.Random(5)
    d = build_root_datum("C2")
    group = enumerate_weyl(d)
    for _ in range(40):
        a = TitsElement(tuple(rng.randint(0, 1) for _ in range(2)), rng.choice(group))
        b = TitsElement(tuple(rng.randint(0, 1) for _ in range(2)), rng.choice(group))
        c = TitsElement(tuple(rng.randint(0, 1) for _ in range(2)), rng.choice(group))
        assert multiply(d, multiply(d, a, b), c) == multiply(d, a, multiply(d, b, c))


def test_inverse_roundtrip():
    rng = random.Random(6)
    for label in ("A2", "C2"):
        d = build_root_datum(label)
        group = enumerate_weyl(d)
        for _ in range(30):
            a = TitsElement(tuple(rng.randint(0, 1) for _ in range(d.rank)), rng.choice(group))
            ainv = inverse(d, a)
            prod = multiply(d, a, ainv)
            assert prod.w.is_identity() and all(x == 0 for x in prod.eps)
            prod2 = multiply(d, ainv, a)
            assert prod2.w.is_identity() and all(x == 0 for x in prod2.eps)


def test_torus_part_moves_by_weyl_action():
    d = build_root_datum("C2")
    group = enumerate_weyl(d)
    for w in group:
        for vec in ((1, 0), (0, 1), (1, 1)):
            lhs = multiply(d, n_of(d, w), torus_part(d, vec))
            moved = tuple(x % 2 for x in w.act(vec))
            rhs = multiply(d, torus_part(d, moved), n_of(d, w))
            assert lhs == rhs


def test_multiply_refuses_an_element_outside_w():
    """The diagram automorphism of D4 that swaps the last two simple coroots
    permutes the roots but is not in W, so no product with it is in W."""
    d = build_root_datum("D4")
    swap = WeylElement(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)), ())
    for i in range(d.rank):
        with pytest.raises(RootDatumError, match="does not define a Weyl element"):
            multiply(d, TitsElement((0,) * d.rank, swap), n_of(d, d.simple_reflection(i)))
