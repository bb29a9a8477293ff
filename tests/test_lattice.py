import random
from fractions import Fraction
from math import gcd

import pytest

from endotransfer.lattice import (
    coordinate_map,
    det_int,
    gf2_basis,
    gf2_reduce,
    hermite_normal_form,
    identity,
    integer_kernel,
    inverse_over,
    mat_int,
    mat_mul,
    mat_vec,
    transpose,
)

from oracles import coordinate_map_rational, det_rational, in_lattice, invert_rational, solve_rational


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return mat_int([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def test_hnf_transform_is_unimodular_and_consistent():
    rng = random.Random(1)
    for _ in range(50):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        h, u = hermite_normal_form(a)
        assert mat_mul(u, a) == h
        assert det_int(u) in (1, -1)


def test_gf2_basis_and_reduce_against_enumeration():
    """gf2_basis spans what its input spans, in reduced echelon form sorted
    by decreasing pivot, and gf2_reduce gives the least element of each
    coset; both checked by enumerating the span of seeded bit sets."""
    rng = random.Random(2)
    for _ in range(60):
        width = rng.randint(1, 7)
        vectors = [rng.randrange(1 << width) for _ in range(rng.randint(0, 6))]
        span = {0}
        for v in vectors:
            span |= {s ^ v for s in span}
        basis = gf2_basis(vectors)
        pivots = [b.bit_length() - 1 for b in basis]
        assert pivots == sorted(set(pivots), reverse=True) and 1 << len(basis) == len(span)
        assert all(b >> p & 1 == 0 for b in basis for p in pivots if p != b.bit_length() - 1)
        reached = {0}
        for b in basis:
            reached |= {s ^ b for s in reached}
        assert reached == span
        for v in range(1 << width):
            assert gf2_reduce(v, basis) == min(v ^ s for s in span)


def test_integer_kernel_members_and_saturation():
    rng = random.Random(3)
    for _ in range(50):
        a = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 4))
        ker = integer_kernel(a)
        for row in ker:
            assert all(x == 0 for x in mat_vec(a, row))
        # saturated: any rational kernel vector with integer entries is in the span
        if ker:
            coeffs = [Fraction(rng.randint(-2, 2)) for _ in ker]
            combo = [
                sum(c * row[i] for c, row in zip(coeffs, ker)) for i in range(len(a[0]))
            ]
            assert in_lattice(ker, combo)


def test_solve_rational_and_inverse():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 4)
        while True:
            a = random_matrix(rng, n, n)
            if det_int(a) != 0:
                break
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        b = mat_vec(a, x)
        sol = solve_rational(a, b)
        assert sol == tuple(x)
        inv = invert_rational(a)
        assert mat_mul(inv, a) == tuple(tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n))


def test_solve_rational_inconsistent_returns_none():
    a = ((1, 0), (1, 0))
    assert solve_rational(a, (1, 2)) is None


def test_transpose_and_identity_edges():
    assert transpose(()) == ()
    assert identity(0) == ()
    assert identity(2) == ((1, 0), (0, 1))


def _random_square(rng, n, singular):
    """A seeded n x n integer matrix with some zero entries; a singular one
    has a row that is a combination of the others (zero at n = 1)."""
    a = [[rng.randint(-5, 5) if rng.random() < 0.8 else 0 for _ in range(n)] for _ in range(n)]
    if singular:
        i = rng.randrange(n)
        a[i] = [0] * n
        for j in range(n):
            if j != i:
                c = rng.randint(-2, 2)
                a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    return mat_int(a)


def test_integer_kernel_matches_the_fraction_reference():
    """inverse_over, det_int and coordinate_map against the Fraction
    elimination of tests/oracles.py, on seeded matrices of size 1-8, every
    fourth of them singular, and on square and non-square R."""
    rng = random.Random(8)
    singular_seen = 0
    for k in range(240):
        n = 1 + k % 8
        a = _random_square(rng, n, singular=k % 4 == 3)
        det = det_rational(a)
        assert det_int(a) == det
        if det == 0:
            singular_seen += 1
            with pytest.raises(ValueError, match="singular"):
                inverse_over(a)
            with pytest.raises(ValueError, match="singular"):
                coordinate_map(a)
            continue
        inv, den = inverse_over(a)
        expected = invert_rational(a)
        assert den > 0 and gcd(den, *(x for row in inv for x in row)) == 1
        assert tuple(tuple(Fraction(x, den) for x in row) for row in inv) == expected
        assert mat_mul(a, inv) == tuple(tuple(den * int(i == j) for j in range(n)) for i in range(n))
        for rows in (a, a[: rng.randint(1, n)]):
            assert coordinate_map(rows) == coordinate_map_rational(rows)
    assert singular_seen >= 60


def test_coordinate_map_refuses_dependent_rows():
    with pytest.raises(ValueError, match="singular"):
        coordinate_map(((1, 2, 3), (2, 4, 6)))
    with pytest.raises(ValueError, match="square"):
        inverse_over(((1, 2),))
    assert inverse_over(()) == ((), 1)
    assert det_int(()) == 1
