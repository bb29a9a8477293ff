import itertools
import random
from fractions import Fraction

import pytest

from endotransfer.cohomology import (
    CohomologyClass,
    CohomologyError,
    RealTorus,
    TorusPoint,
    cocycle_class,
    elliptic_torus,
    galois_act,
    h1,
    is_cocycle,
    kappa_from_s,
    quotient_torus_lattice,
    tate_nakayama_pair,
)

from oracles import BruteForceH1, boundary


def _conj(sigma, u, uinv):
    n = len(sigma)
    a = tuple(
        tuple(sum(u[i][k] * sigma[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )
    return tuple(
        tuple(sum(a[i][k] * uinv[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def involution_zoo():
    """27 involution lattices of rank <= 3: canonical forms and unimodular
    conjugates of them."""
    one = ((1,),)
    minus = ((-1,),)
    swap = ((0, 1), (1, 0))
    nswap = ((0, -1), (-1, 0))

    def diag(*entries):
        n = len(entries)
        return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))

    def block(a, b):
        na, nb = len(a), len(b)
        out = []
        for i in range(na):
            out.append(tuple(a[i]) + tuple(0 for _ in range(nb)))
        for i in range(nb):
            out.append(tuple(0 for _ in range(na)) + tuple(b[i]))
        return tuple(out)

    canonical = [
        one, minus,
        diag(1, 1), diag(1, -1), diag(-1, -1), swap,
        diag(1, 1, 1), diag(1, 1, -1), diag(1, -1, -1), diag(-1, -1, -1),
        block(swap, one), block(swap, minus),
    ]
    u2 = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 1), (1, 1)))
    u2inv = (((1, -1), (0, 1)), ((1, 0), (-1, 1)), ((1, -1), (-1, 2)))
    u3 = (
        ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 1, 1), (0, 0, 1)),
        ((1, 0, 1), (0, 1, 0), (0, 0, 1)),
    )
    u3inv = (
        ((1, -1, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 1, -1), (0, 0, 1)),
        ((1, 0, -1), (0, 1, 0), (0, 0, 1)),
    )
    zoo = list(canonical)
    for sigma in (diag(1, -1), swap):
        for u, uinv in zip(u2, u2inv):
            zoo.append(_conj(sigma, u, uinv))
    for sigma in (block(swap, one), block(swap, minus), diag(1, -1, -1)):
        for u, uinv in zip(u3, u3inv):
            zoo.append(_conj(sigma, u, uinv))
    assert len(zoo) == 27
    return zoo


def test_h1_textbook_examples():
    assert h1(RealTorus(1, ((1,),))).divisors == ()          # split: trivial
    assert h1(elliptic_torus(1)).divisors == (2,)            # circle: Z/2
    assert h1(RealTorus(2, ((0, 1), (1, 0)))).divisors == () # complex torus


def test_cocycle_class_examples():
    t = elliptic_torus(1)
    group = h1(t)
    ident = TorusPoint.one(1)
    assert cocycle_class(t, ident, group).is_zero()
    minus = TorusPoint.from_signs([-1])
    assert not cocycle_class(t, minus, group).is_zero()
    # componentwise on a product torus
    t2 = elliptic_torus(2)
    g2 = h1(t2)
    point = TorusPoint.from_signs([-1, 1])
    cls = cocycle_class(t2, point, g2)
    assert cls.coordinates.count(0) == 1 and cls.coordinates.count(1) == 1


def test_cocycle_condition_enforced():
    # e(1/3) violates t * sigma(t) = 1 on the elliptic torus: (1 - sigma) x = 2/3
    with pytest.raises(CohomologyError):
        cocycle_class(elliptic_torus(1), TorusPoint([Fraction(1, 3)]))
    # while e(1/4) is a genuine (boundary) cocycle on the split torus
    split = RealTorus(1, ((1,),))
    assert cocycle_class(split, TorusPoint([Fraction(1, 4)])).is_zero()


def test_boundary_invariance_randomized():
    rng = random.Random(9)
    t = elliptic_torus(2)
    group = h1(t)
    base = TorusPoint.from_signs([-1, -1])
    cls0 = cocycle_class(t, base, group).coordinates
    for _ in range(25):
        phases = tuple(Fraction(rng.randint(0, 7), 8) for _ in range(2))
        s = TorusPoint(phases)
        shifted = base * boundary(t, s)
        assert is_cocycle(t, shifted)
        assert cocycle_class(t, shifted, group).coordinates == cls0


def test_pairing_examples():
    t = elliptic_torus(1)
    group = h1(t)
    zero = cocycle_class(t, TorusPoint.one(1), group)
    nonzero = cocycle_class(t, TorusPoint.from_signs([-1]), group)
    kap = kappa_from_s([Fraction(1, 2)], t)
    trivial = kappa_from_s([Fraction(0)], t)
    assert tate_nakayama_pair(zero, kap) == 1
    assert tate_nakayama_pair(nonzero, kap) == -1
    assert tate_nakayama_pair(nonzero, trivial) == 1


def test_pairing_bimultiplicative():
    t = elliptic_torus(2)
    group = h1(t)
    kap = kappa_from_s([Fraction(1, 2), Fraction(1, 2)], t)
    classes = [
        CohomologyClass(t, group, coords)
        for coords in itertools.product(*(range(d) for d in group.divisors))
    ]
    for a in classes:
        for b in classes:
            coords = tuple((x + y) % d for x, y, d in zip(a.coordinates, b.coordinates, group.divisors))
            a_plus_b = CohomologyClass(t, group, coords)
            assert tate_nakayama_pair(a_plus_b, kap) == tate_nakayama_pair(a, kap) * tate_nakayama_pair(b, kap)


def test_quotient_torus_examples():
    t = elliptic_torus(1)
    same = quotient_torus_lattice(t, [])
    assert same.torus.involution == t.involution
    assert h1(same.torus).divisors == h1(t).divisors

    half = quotient_torus_lattice(t, [(Fraction(1, 2),)])
    assert half.basis == ((Fraction(1, 2),),)
    assert half.torus.involution == ((-1,),)

    # antidiagonal center embedding for the rank-one simply connected datum
    t2 = elliptic_torus(2)
    anti = quotient_torus_lattice(t2, [(Fraction(1, 2), Fraction(1, 2))])
    det = anti.basis[0][0] * anti.basis[1][1] - anti.basis[0][1] * anti.basis[1][0]
    assert abs(det) == Fraction(1, 2)  # index-2 enlargement of Z^2


def test_quotient_torus_rejects_bad_subgroups():
    t = RealTorus(2, ((1, 0), (0, -1)))
    with pytest.raises(CohomologyError):
        quotient_torus_lattice(t, [(Fraction(1, 3), Fraction(0))])  # not closed: 1/3 alone
    # sigma-unstable set on a swap torus
    sw = RealTorus(2, ((0, 1), (1, 0)))
    with pytest.raises(CohomologyError):
        quotient_torus_lattice(sw, [(Fraction(1, 2), Fraction(0))])


def test_quotient_torus_closure_detection():
    t = elliptic_torus(1)
    # {0, 1/3} is not closed; {0, 1/3, 2/3} is
    with pytest.raises(CohomologyError):
        quotient_torus_lattice(t, [(Fraction(1, 3),)])
    ok = quotient_torus_lattice(t, [(Fraction(1, 3),), (Fraction(2, 3),)])
    assert ok.basis == ((Fraction(1, 3),),)


def test_kappa_validation():
    t = elliptic_torus(1)
    with pytest.raises(CohomologyError):
        kappa_from_s([Fraction(1, 3)], t)  # not order 2
    sw = RealTorus(2, ((0, 1), (1, 0)))
    # (1/2, 0) is not Galois-fixed on the swap torus; (1/2, 1/2) is
    with pytest.raises(CohomologyError):
        kappa_from_s([Fraction(1, 2), Fraction(0)], sw)
    kappa_from_s([Fraction(1, 2), Fraction(1, 2)], sw)


def test_h1_exponent_two_on_zoo():
    """The premise of computing H^1 over GF(2): 2K lies in im(1 - sigma),
    K = ker(1 + sigma), with the witness (1 - sigma) k = 2k for every row k
    of the kernel basis, so twice every row is the zero class."""
    for sigma in involution_zoo():
        torus = RealTorus(len(sigma), sigma)
        group = h1(torus)
        for row in group.kernel_basis:
            double = tuple(2 * x for x in row)
            assert torus.one_minus_sigma(row) == double, sigma
            assert group.reduce(double) == (0,) * len(group.divisors), sigma


def _check_against_oracle(sigma):
    """h1, cocycle_class and the pairing against the sign-point oracle:
    order, class equality, pairing table, and the representative/reduce
    round trip on every class."""
    torus = RealTorus(len(sigma), sigma)
    group = h1(torus)
    oracle = BruteForceH1(sigma)
    assert group.order == oracle.order, f"order mismatch for {sigma}"

    sign_points = sorted(oracle.cocycles)
    classes = {}
    for nu in sign_points:
        point = TorusPoint.from_signs([1 if b == 0 else -1 for b in nu])
        assert is_cocycle(torus, point)
        classes[nu] = cocycle_class(torus, point, group).coordinates
    # the class map matches the oracle equivalence exactly
    for nu1 in sign_points:
        for nu2 in sign_points:
            assert (classes[nu1] == classes[nu2]) == oracle.same_class(nu1, nu2)
    # every class is hit by a sign point
    assert len(set(classes.values())) == group.order

    for xhat in oracle.fixed_half_characters():
        kap = kappa_from_s(xhat, torus)
        for nu in sign_points:
            cls = CohomologyClass(torus, group, classes[nu])
            assert tate_nakayama_pair(cls, kap) == oracle.pairing(nu, xhat)

    n = len(sigma)
    for coords in itertools.product(*(range(d) for d in group.divisors)):
        lam = group.representative(coords)
        assert all(lam[i] + sum(sigma[i][j] * lam[j] for j in range(n)) == 0 for i in range(n))
        assert group.reduce(lam) == coords
    return torus, group


def test_brute_force_oracle_agreement_full_zoo():
    """All 27 involution lattices of the zoo against the oracle."""
    for sigma in involution_zoo():
        _check_against_oracle(sigma)


def test_oracle_pairing_nondegenerate_on_circle_product():
    oracle = BruteForceH1(((-1, 0), (0, -1)))
    reps = [nu for nu in oracle.cocycles]
    chars = oracle.fixed_half_characters()
    # classes separated by characters
    for nu1 in reps:
        for nu2 in reps:
            if not oracle.same_class(nu1, nu2):
                assert any(oracle.pairing(nu1, x) != oracle.pairing(nu2, x) for x in chars)


def test_galois_act_exactness():
    sw = RealTorus(2, ((0, 1), (1, 0)))
    p = TorusPoint((Fraction(1, 3), Fraction(1, 5)))
    q = galois_act(sw, p)
    assert q.phases == (Fraction(4, 5), Fraction(2, 3))


def test_kappa_triviality_detection():
    t = elliptic_torus(1)
    group = h1(t)
    assert kappa_from_s([Fraction(0)], t).is_trivial_on(group)
    assert not kappa_from_s([Fraction(1, 2)], t).is_trivial_on(group)
