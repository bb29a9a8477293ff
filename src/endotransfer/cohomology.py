"""Galois cohomology of real tori and the finite duality pairing.

A real torus is modelled by its cocharacter lattice Z^n together with the
integer involution sigma giving the Galois action.  Points of T(C) carry
exact coordinates: each coordinate is e^{2 pi i theta} with theta a rational
phase, so every computation in this module is exact.

H^1(R, T) is computed on the lattice as ker(1 + sigma) / im(1 - sigma); the
class of a cocycle t = e(x + iy) is the image of (1 - sigma) x.  The group
is killed by 2, since (1 - sigma) x = 2x for every x in ker(1 + sigma), so it
is an F_2-space and is computed by elimination over GF(2).  Phases and
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
    gf2_basis,
    gf2_reduce,
    hermite_normal_form,
    identity,
    integer_kernel,
    mat_int,
    mat_mul,
    mat_vec,
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
    """ker(1 + sigma)/im(1 - sigma) as an F_2-space.

    h1 builds, once, the maps every class goes through: kernel vector ->
    kernel coordinates mod 2 -> their reduction modulo the image of
    1 - sigma, read at the free slots.  The fields: kernel_basis, whose
    rows K_i are a basis of ker(1 + sigma) in Z^n; _to_kernel,
    coordinate_map(kernel_basis); _relations, the reduced echelon basis
    (lattice.gf2_basis) of the kernel coordinates mod 2 of the columns of
    1 - sigma, bit i for K_i; and _free, the slots i that are no pivot of
    it.  The class of K_i, i the j-th free slot, is the j-th unit class."""

    __slots__ = _fields = ("torus", "kernel_basis", "_to_kernel", "_relations", "_free")

    @property
    def divisors(self) -> tuple[int, ...]:
        """The orders of the cyclic factors: one 2 per free slot."""
        return (2,) * len(self._free)

    @property
    def order(self) -> int:
        return 1 << len(self._free)

    @property
    def generators(self) -> tuple[IntVec, ...]:
        """Lattice representatives of the unit classes, in order."""
        return tuple(self.kernel_basis[i] for i in self._free)

    def reduce(self, lam: IntVec) -> tuple[int, ...]:
        """Canonical coordinates of a kernel vector modulo im(1 - sigma)."""
        bits = gf2_reduce(_kernel_parities(self.kernel_basis, self._to_kernel, lam), self._relations)
        return tuple(bits >> i & 1 for i in self._free)

    def representative(self, coords: Sequence[int]) -> IntVec:
        """A lattice representative of the class with the given coordinates."""
        out = [0] * self.torus.lattice_rank
        for c, g in zip(coords, self.generators):
            if c:
                for j, x in enumerate(g):
                    out[j] += c * x
        return tuple(out)


def _kernel_parities(kernel: IntMat, to_kernel: tuple[IntMat, int], lam: Sequence[int]) -> int:
    """The coordinates of lam over the kernel basis mod 2, as a bit set.
    CohomologyError when lam is not in ker(1 + sigma)."""
    if not kernel:
        if any(lam):
            raise CohomologyError("vector is not in ker(1 + sigma)")
        return 0
    coords = coordinates(kernel, to_kernel, lam)
    den = to_kernel[1]
    if coords is None or any(c % den for c in coords):
        raise CohomologyError("vector is not in ker(1 + sigma)")
    return sum(1 << i for i, c in enumerate(coords) if c // den % 2)


class CohomologyClass(Record):
    __slots__ = _fields = ("torus", "group", "coordinates")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coordinates)


def h1(torus: RealTorus) -> H1Group:
    n = torus.lattice_rank
    sigma = torus.involution
    kernel = integer_kernel(tuple(tuple(int(i == j) + sigma[i][j] for j in range(n)) for i in range(n)))
    to_kernel = coordinate_map(kernel) if kernel else ((), 1)
    # (1 + sigma)(1 - sigma) = 0 and 2K lies in im(1 - sigma), so H^1 is
    # K/2K modulo the columns (1 - sigma) e_j of 1 - sigma.
    relations = gf2_basis(_kernel_parities(kernel, to_kernel, torus.one_minus_sigma(e)) for e in identity(n))
    pivots = {b.bit_length() - 1 for b in relations}
    free = tuple(i for i in range(len(kernel)) if i not in pivots)
    return H1Group(torus, kernel, to_kernel, relations, free)


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
        return all(_pair_value(self, g) == 1 for g in group.generators)


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
