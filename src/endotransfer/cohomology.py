"""Galois cohomology of real tori and the finite duality pairing.

A real torus is modelled by its cocharacter lattice Z^n together with the
integer involution sigma giving the Galois action.  Points of T(C) carry
exact coordinates: each coordinate is e^{2 pi i theta} with theta a rational
phase, so every computation in this module is exact.

H^1(R, T) is computed on the lattice as ker(1 + sigma) / im(1 - sigma); the
class of a cocycle t = e(x + iy) is the image of (1 - sigma) x.  Phases and
character vectors are held as integer numerators over one common
denominator, so the per-class work is integer arithmetic; Fractions appear
where points and characters are built from them or read back.  The duality
pairing evaluates a class lambda against a character vector xhat as
exp(2 pi i <xhat, lambda>); this sign convention is fixed here once and is
echoed in every report header.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .lattice import (
    IntMat,
    IntVec,
    common_denominator,
    coordinate_map,
    coordinates,
    dot,
    hermite_normal_form,
    identity,
    integer_kernel,
    inverse_over,
    mat_int,
    mat_mul,
    mat_vec,
    smith_normal_form,
    transpose,
)
from .record import Record, set_attribute

DUALITY_CONVENTION = "pairing(<class>, <character>) = exp(2*pi*i*<xhat,lambda>)"


class CohomologyError(ValueError):
    pass


class RealTorus(Record):
    _fields = ("lattice_rank", "involution")
    __slots__ = _fields + ("_rows", "_cols")

    def __init__(self, lattice_rank: int, involution: IntMat):
        if len(involution) != lattice_rank:
            raise CohomologyError("involution size does not match the rank")
        if mat_mul(involution, involution) != identity(lattice_rank):
            raise CohomologyError("involution does not square to the identity")
        super().__init__(lattice_rank, involution)
        set_attribute(self, "_rows", _nonzero_entries(involution))
        set_attribute(self, "_cols", _nonzero_entries(transpose(involution)))

    def one_minus_sigma(self, v: Sequence[int]) -> IntVec:
        """(1 - sigma) v."""
        return tuple(x - sum(e * v[k] for k, e in row) for x, row in zip(v, self._rows))


def _nonzero_entries(m: IntMat) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each row of m, its nonzero entries as (column, entry) pairs."""
    return tuple(tuple((k, e) for k, e in enumerate(row) if e) for row in m)


def elliptic_torus(rank: int) -> RealTorus:
    minus = tuple(tuple(-1 if i == j else 0 for j in range(rank)) for i in range(rank))
    return RealTorus(rank, minus)


class TorusPoint(Record):
    """Exact point of the compact torus (S^1)^n in T(C): coordinate j is e(phases[j]).

    The phases are kept as integer numerators over one common denominator,
    reduced mod 1 and to lowest terms: the fields numerators and
    denominator."""

    __slots__ = _fields = ("numerators", "denominator")

    def __init__(self, phases: Sequence[Fraction]):
        self._fill(*common_denominator(phases))

    @classmethod
    def over(cls, numerators: Sequence[int], denominator: int) -> "TorusPoint":
        """The point with phases numerators[j] / denominator."""
        point = cls.__new__(cls)
        point._fill(numerators, denominator)
        return point

    def _fill(self, numerators, denominator) -> None:
        g = gcd(denominator, *numerators)
        den = denominator // g
        super().__init__(tuple(x // g % den for x in numerators), den)

    @property
    def phases(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.denominator) for x in self.numerators)

    @staticmethod
    def from_signs(signs: Sequence[int]) -> "TorusPoint":
        return TorusPoint.over([1 if s < 0 else 0 for s in signs], 2)

    @staticmethod
    def one(rank: int) -> "TorusPoint":
        return TorusPoint.over((0,) * rank, 1)

    def __mul__(self, other: "TorusPoint") -> "TorusPoint":
        den = lcm(self.denominator, other.denominator)
        a, b = den // self.denominator, den // other.denominator
        return TorusPoint.over([a * x + b * y for x, y in zip(self.numerators, other.numerators)], den)

    def inverse(self) -> "TorusPoint":
        return TorusPoint.over([-x for x in self.numerators], self.denominator)


def galois_act(torus: RealTorus, t: TorusPoint) -> TorusPoint:
    """sigma_T(t)_j = prod_k conj(t_k)^{sigma[j][k]}."""
    return TorusPoint.over([-sum(e * t.numerators[k] for k, e in row) for row in torus._rows], t.denominator)


def is_cocycle(torus: RealTorus, t: TorusPoint) -> bool:
    """t * sigma(t) = 1: (1 - sigma) x is integral."""
    return not any(v % t.denominator for v in torus.one_minus_sigma(t.numerators))


class H1Group(Record):
    """ker(1 + sigma)/im(1 - sigma) in canonical Smith coordinates.

    h1 builds, once, the maps every class goes through: kernel vector ->
    kernel coordinates -> Smith coordinates, and back through one lattice
    representative per generator.  The fields: kernel_basis, whose rows
    are a basis of ker(1 + sigma) in Z^n; divisors, the elementary divisors
    > 1 (each equals 2); _to_kernel, coordinate_map(kernel_basis);
    _class_rows, the columns of the Smith transform q at the divisor slots;
    and _generators, lattice representatives of the unit classes."""

    __slots__ = _fields = ("torus", "kernel_basis", "divisors", "_to_kernel", "_class_rows", "_generators")

    @property
    def order(self) -> int:
        out = 1
        for d in self.divisors:
            out *= d
        return out

    def reduce(self, lam: IntVec) -> tuple[int, ...]:
        """Canonical coordinates of a kernel vector modulo im(1 - sigma)."""
        if not self.kernel_basis:
            if any(x != 0 for x in lam):
                raise CohomologyError("vector is not in ker(1 + sigma)")
            return ()
        coords = coordinates(self.kernel_basis, self._to_kernel, lam)
        den = self._to_kernel[1]
        if coords is None or any(c % den for c in coords):
            raise CohomologyError("vector is not in ker(1 + sigma)")
        coords = tuple(c // den for c in coords)
        return tuple(dot(row, coords) % d for row, d in zip(self._class_rows, self.divisors))

    def representative(self, coords: Sequence[int]) -> IntVec:
        """A lattice representative of the class with the given coordinates."""
        out = [0] * self.torus.lattice_rank
        for c, g in zip(coords, self._generators):
            if c:
                for j, x in enumerate(g):
                    out[j] += c * x
        return tuple(out)


class CohomologyClass(Record):
    __slots__ = _fields = ("torus", "group", "coordinates")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coordinates)


def h1(torus: RealTorus) -> H1Group:
    n = torus.lattice_rank
    one_plus = tuple(
        tuple((1 if i == j else 0) + torus.involution[i][j] for j in range(n)) for i in range(n)
    )
    one_minus = tuple(
        tuple((1 if i == j else 0) - torus.involution[i][j] for j in range(n)) for i in range(n)
    )
    kernel = integer_kernel(one_plus)
    k = len(kernel)
    if k == 0:
        return H1Group(torus, kernel, (), ((), 1), (), ())
    to_kernel = coordinate_map(kernel)
    # relations: columns (1 - sigma) e_i expressed in kernel coordinates
    relations = []
    for col in transpose(one_minus):
        coords = coordinates(kernel, to_kernel, col)
        if coords is None or any(c % to_kernel[1] for c in coords):
            raise CohomologyError("im(1 - sigma) is not inside ker(1 + sigma)")
        relations.append(tuple(c // to_kernel[1] for c in coords))
    d, _, q = smith_normal_form(mat_int(relations))
    diag = [d[i][i] if i < len(d) else 0 for i in range(k)]
    if any(x == 0 for x in diag):
        raise CohomologyError("H^1 is not finite; involution is inconsistent")
    positions = tuple(i for i, x in enumerate(diag) if abs(x) > 1)
    divisors = tuple(abs(diag[i]) for i in positions)
    if any(dv != 2 for dv in divisors):
        raise CohomologyError("H^1 has an elementary divisor different from 2")
    # A class's Smith coordinates are its kernel coordinates times q; the
    # generator at slot p has kernel coordinates e_p q^{-1}.
    class_rows = tuple(tuple(q[j][p] for j in range(k)) for p in positions)
    qinv, den = inverse_over(q)
    generators = []
    for p in positions:
        lam = mat_vec(transpose(kernel), qinv[p])
        if any(x % den for x in lam):
            raise CohomologyError("non-integral representative")
        generators.append(tuple(x // den for x in lam))
    return H1Group(torus, kernel, divisors, to_kernel, class_rows, tuple(generators))


def cocycle_class(torus: RealTorus, t: TorusPoint, group: Optional[H1Group] = None) -> CohomologyClass:
    """Class of a 1-cocycle; rejects points violating t * sigma(t) = 1."""
    if not is_cocycle(torus, t):
        raise CohomologyError("point does not satisfy the cocycle condition")
    if group is None:
        group = h1(torus)
    lam = torus.one_minus_sigma(t.numerators)
    return CohomologyClass(torus, group, group.reduce(tuple(v // t.denominator for v in lam)))


class DualComponentCharacter(Record):
    """Class in pi_0 of the sigma^T-fixed points of the dual torus,
    represented by the character vector xhat = numerators / denominator."""

    __slots__ = _fields = ("torus", "numerators", "denominator")

    def __init__(self, torus: RealTorus, numerators: IntVec, denominator: int):
        moved = (sum(e * numerators[k] for k, e in col) for col in torus._cols)
        if any((a - b) % denominator for a, b in zip(moved, numerators)):
            raise CohomologyError("character vector is not Galois-fixed in pi_0")
        super().__init__(torus, numerators, denominator)

    def is_trivial_on(self, group: H1Group) -> bool:
        gens = [group.representative(_unit(i, len(group.divisors))) for i in range(len(group.divisors))]
        return all(_pair_value(self, g) == 1 for g in gens)


def _unit(i: int, n: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def _pair_value(kappa: DualComponentCharacter, lam: Sequence[int]) -> int:
    r = dot(kappa.numerators, lam)
    if 2 * r % kappa.denominator:
        raise CohomologyError("pairing value is not a sign; incompatible data")
    return 1 if r % kappa.denominator == 0 else -1


def tate_nakayama_pair(cls: CohomologyClass, kappa: DualComponentCharacter) -> int:
    """Duality pairing in {+1, -1}; DUALITY_CONVENTION fixes the sign."""
    if kappa.torus != cls.torus:
        raise CohomologyError("class and character live on different tori")
    lam = cls.group.representative(cls.coordinates)
    return _pair_value(kappa, lam)


def kappa_from_s(xhat: Sequence[Fraction], torus: RealTorus) -> DualComponentCharacter:
    """Component-group character of the dual torus attached to an order-2
    character vector; validates the Galois-fixedness of the class."""
    return kappa_over(*common_denominator(xhat), torus)


def kappa_over(numerators: Sequence[int], denominator: int, torus: RealTorus) -> DualComponentCharacter:
    """kappa_from_s of the vector numerators / denominator."""
    if any(2 * x % denominator for x in numerators):
        raise CohomologyError("character must have order dividing 2")
    return DualComponentCharacter(torus, tuple(numerators), denominator)


class QuotientTorus(Record):
    """Enlarged-lattice torus T' together with the basis of the new
    cocharacter lattice written in the coordinates of the old one: the
    integer rows over one denominator, basis vector i being rows[i] /
    denominator."""

    __slots__ = _fields = ("torus", "rows", "denominator")

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.denominator) for x in row) for row in self.rows)


def quotient_torus_lattice(
    torus: RealTorus, subgroup: Sequence[Sequence[Fraction]]
) -> QuotientTorus:
    """Torus with cocharacter lattice enlarged by a finite central subgroup.

    The subgroup is given by rational cocharacter-space points modulo the
    lattice; it must be closed under addition and stable under sigma.  Both
    are checked on integer numerators over the points' common denominator.
    """
    n = torus.lattice_rank
    flat, denom = common_denominator(x for p in subgroup for x in p)
    pset = {tuple(x % denom for x in flat[k:k + n]) for k in range(0, len(flat), n)}
    pset.add((0,) * n)
    for p in pset:
        if tuple(x % denom for x in mat_vec(torus.involution, p)) not in pset:
            raise CohomologyError("subgroup is not sigma-stable")
        for q in pset:
            if tuple((a + b) % denom for a, b in zip(p, q)) not in pset:
                raise CohomologyError("subgroup is not closed under the group law")
    rows = [tuple(denom if j == i else 0 for j in range(n)) for i in range(n)]
    rows.extend(pset)
    # The lattice contains denom * Z^n, so its echelon form leads with n nonzero rows.
    h, _ = hermite_normal_form(mat_int(rows))
    basis_rows = h[:n]
    sigma_new = _conjugate_involution(torus.involution, basis_rows, coordinate_map(basis_rows))
    return QuotientTorus(RealTorus(n, sigma_new), basis_rows, denom)


def _conjugate_involution(sigma: IntMat, rows: IntMat, to_new: tuple[IntMat, int]) -> IntMat:
    """Involution in the new basis rows / d: column i of sigma' holds the
    coordinates of sigma(rows[i] / d), which are those of sigma(rows[i])
    over the rows."""
    den = to_new[1]
    cols = []
    for row in rows:
        sol = coordinates(rows, to_new, mat_vec(sigma, row))
        if sol is None or any(x % den for x in sol):
            raise CohomologyError("involution does not preserve the enlarged lattice")
        cols.append(tuple(x // den for x in sol))
    return transpose(cols)
