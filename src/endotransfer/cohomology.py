"""Galois cohomology of real tori and the finite duality pairing.

A real torus is modelled by its cocharacter lattice Z^n together with the
integer involution sigma giving the Galois action.  Points of T(C) carry
exact coordinates: each coordinate is m * e^{2 pi i theta} with m a positive
rational and theta a rational phase, so every computation in this module is
exact.

H^1(R, T) is computed on the lattice as ker(1 + sigma) / im(1 - sigma); the
class of a cocycle t = e(x + iy) is the image of (1 - sigma) x.  The duality
pairing evaluates a class lambda against a character vector xhat as
exp(2 pi i <xhat, lambda>); this sign convention is fixed here once and is
echoed in every report header.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .lattice import (
    FracVec,
    IntMat,
    IntVec,
    coordinate_map,
    coordinates,
    dot,
    hermite_normal_form,
    identity,
    integer_kernel,
    invert_rational,
    mat_int,
    mat_mul,
    mat_vec,
    smith_normal_form,
    transpose,
    vec_frac,
    vec_int,
)

DUALITY_CONVENTION = "pairing(<class>, <character>) = exp(2*pi*i*<xhat,lambda>)"


class CohomologyError(ValueError):
    pass


@dataclass(frozen=True)
class RealTorus:
    lattice_rank: int
    involution: IntMat

    def __post_init__(self):
        if len(self.involution) != self.lattice_rank:
            raise CohomologyError("involution size does not match the rank")
        if mat_mul(self.involution, self.involution) != identity(self.lattice_rank):
            raise CohomologyError("involution does not square to the identity")


def elliptic_torus(rank: int) -> RealTorus:
    minus = tuple(tuple(-1 if i == j else 0 for j in range(rank)) for i in range(rank))
    return RealTorus(rank, minus)


@dataclass(frozen=True)
class TorusPoint:
    """Exact point of T(C): coordinate j is magnitudes[j] * e(phases[j])."""

    magnitudes: tuple[Fraction, ...]
    phases: tuple[Fraction, ...]

    def __post_init__(self):
        if any(m <= 0 for m in self.magnitudes):
            raise CohomologyError("magnitudes must be positive rationals")
        object.__setattr__(self, "phases", tuple(p % 1 for p in self.phases))

    @staticmethod
    def from_signs(signs: Sequence[int]) -> "TorusPoint":
        phases = [Fraction(1, 2) if s < 0 else Fraction(0) for s in signs]
        return TorusPoint(tuple(Fraction(1) for _ in signs), tuple(phases))

    @staticmethod
    def from_phases(phases: Sequence[Fraction]) -> "TorusPoint":
        return TorusPoint(tuple(Fraction(1) for _ in phases), vec_frac(phases))

    @staticmethod
    def one(rank: int) -> "TorusPoint":
        return TorusPoint(tuple(Fraction(1) for _ in range(rank)), tuple(Fraction(0) for _ in range(rank)))

    def __mul__(self, other: "TorusPoint") -> "TorusPoint":
        return TorusPoint(
            tuple(a * b for a, b in zip(self.magnitudes, other.magnitudes)),
            tuple(a + b for a, b in zip(self.phases, other.phases)),
        )

    def inverse(self) -> "TorusPoint":
        return TorusPoint(
            tuple(1 / m for m in self.magnitudes),
            tuple(-p for p in self.phases),
        )

    def is_one(self) -> bool:
        return all(m == 1 for m in self.magnitudes) and all(p == 0 for p in self.phases)


def galois_act(torus: RealTorus, t: TorusPoint) -> TorusPoint:
    """sigma_T(t)_j = prod_k conj(t_k)^{sigma[j][k]}."""
    sigma = torus.involution
    mags = []
    phases = []
    for j in range(torus.lattice_rank):
        m = Fraction(1)
        ph = Fraction(0)
        for k in range(torus.lattice_rank):
            e = sigma[j][k]
            if e:
                m *= t.magnitudes[k] ** e
                ph += -t.phases[k] * e
        mags.append(m)
        phases.append(ph)
    return TorusPoint(tuple(mags), tuple(phases))


def is_cocycle(torus: RealTorus, t: TorusPoint) -> bool:
    return (t * galois_act(torus, t)).is_one()


def boundary(torus: RealTorus, s: TorusPoint) -> TorusPoint:
    """The coboundary s * sigma(s)^{-1}."""
    return s * galois_act(torus, s).inverse()


@dataclass(frozen=True)
class H1Group:
    """ker(1 + sigma)/im(1 - sigma) in canonical Smith coordinates.

    h1 builds, once, the maps every class goes through: kernel vector ->
    kernel coordinates -> Smith coordinates, and back through one lattice
    representative per generator."""

    torus: RealTorus
    kernel_basis: IntMat               # rows: basis of ker(1 + sigma) in Z^n
    divisors: tuple[int, ...]          # elementary divisors > 1 (each equals 2)
    _to_kernel: tuple[IntMat, int]     # coordinate_map(kernel_basis)
    _class_rows: IntMat                # columns of the Smith transform q at the divisor slots
    _generators: IntMat                # lattice representatives of the unit classes

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
        if coords is None or any(c.denominator != 1 for c in coords):
            raise CohomologyError("vector is not in ker(1 + sigma)")
        coords = vec_int(coords)
        return tuple(dot(row, coords) % d for row, d in zip(self._class_rows, self.divisors))

    def representative(self, coords: Sequence[int]) -> IntVec:
        """A lattice representative of the class with the given coordinates."""
        return tuple(
            sum(c * g[j] for c, g in zip(coords, self._generators))
            for j in range(self.torus.lattice_rank)
        )


@dataclass(frozen=True)
class CohomologyClass:
    torus: RealTorus
    group: H1Group
    coordinates: tuple[int, ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coordinates)

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        if other.torus != self.torus:
            raise CohomologyError("classes on different tori")
        coords = tuple(
            (a + b) % d for a, b, d in zip(self.coordinates, other.coordinates, self.group.divisors)
        )
        return CohomologyClass(self.torus, self.group, coords)


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
        if coords is None or any(c.denominator != 1 for c in coords):
            raise CohomologyError("im(1 - sigma) is not inside ker(1 + sigma)")
        relations.append(vec_int(coords))
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
    qinv = invert_rational(q)
    generators = []
    for p in positions:
        lam = mat_vec(transpose(kernel), qinv[p])
        if any(x.denominator != 1 for x in lam):
            raise CohomologyError("non-integral representative")
        generators.append(vec_int(lam))
    return H1Group(torus, kernel, divisors, to_kernel, class_rows, tuple(generators))


def cocycle_class(torus: RealTorus, t: TorusPoint, group: Optional[H1Group] = None) -> CohomologyClass:
    """Class of a 1-cocycle; rejects points violating t * sigma(t) = 1."""
    if not is_cocycle(torus, t):
        raise CohomologyError("point does not satisfy the cocycle condition")
    if group is None:
        group = h1(torus)
    x = t.phases
    one_minus_x = tuple(
        x[i] - sum(torus.involution[i][j] * x[j] for j in range(torus.lattice_rank))
        for i in range(torus.lattice_rank)
    )
    if any(v.denominator != 1 for v in one_minus_x):
        raise CohomologyError("cocycle phases are not half-integral against sigma")
    lam = vec_int(one_minus_x)
    return CohomologyClass(torus, group, group.reduce(lam))


@dataclass(frozen=True)
class DualComponentCharacter:
    """Class in pi_0 of the sigma^T-fixed points of the dual torus,
    represented by an exact character vector xhat."""

    torus: RealTorus
    xhat: FracVec

    def __post_init__(self):
        sigma_t = transpose(self.torus.involution)
        moved = mat_vec(sigma_t, self.xhat)
        diff = tuple(a - b for a, b in zip(moved, self.xhat))
        if any(d.denominator != 1 for d in diff):
            raise CohomologyError("character vector is not Galois-fixed in pi_0")

    def is_trivial_on(self, group: H1Group) -> bool:
        gens = [group.representative(_unit(i, len(group.divisors))) for i in range(len(group.divisors))]
        return all(_pair_value(self.xhat, g) == 1 for g in gens)


def _unit(i: int, n: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def _pair_value(xhat: FracVec, lam: Sequence[int]) -> int:
    r = dot(xhat, lam)
    doubled = 2 * r
    if doubled.denominator != 1:
        raise CohomologyError("pairing value is not a sign; incompatible data")
    return 1 if r.denominator == 1 else -1


def tate_nakayama_pair(cls: CohomologyClass, kappa: DualComponentCharacter) -> int:
    """Duality pairing in {+1, -1}; DUALITY_CONVENTION fixes the sign."""
    if kappa.torus != cls.torus:
        raise CohomologyError("class and character live on different tori")
    lam = cls.group.representative(cls.coordinates)
    return _pair_value(kappa.xhat, lam)


def kappa_from_s(xhat: Sequence[Fraction], torus: RealTorus) -> DualComponentCharacter:
    """Component-group character of the dual torus attached to an order-2
    character vector; validates the Galois-fixedness of the class."""
    xhat = vec_frac(xhat)
    if any((2 * x).denominator != 1 for x in xhat):
        raise CohomologyError("character must have order dividing 2")
    return DualComponentCharacter(torus, xhat)


@dataclass(frozen=True)
class QuotientTorus:
    """Enlarged-lattice torus T' together with the basis of the new
    cocharacter lattice written in the coordinates of the old one."""

    torus: RealTorus
    basis: tuple[FracVec, ...]      # rows: new basis vectors in old coordinates
    _to_new: tuple[IntMat, int]     # coordinate_map(basis)

    def to_new_coordinates(self, v_old: Sequence[Fraction]) -> FracVec:
        sol = coordinates(self.basis, self._to_new, vec_frac(v_old))
        if sol is None:
            raise CohomologyError("vector is outside the span of the lattice")
        return sol

    def functional_to_new(self, f_old: Sequence[Fraction]) -> FracVec:
        """Pull a functional through: <f_new, v_new> = <f_old, v_old>."""
        return tuple(dot(f_old, row) for row in self.basis)


def quotient_torus_lattice(
    torus: RealTorus, subgroup: Sequence[Sequence[Fraction]]
) -> QuotientTorus:
    """Torus with cocharacter lattice enlarged by a finite central subgroup.

    The subgroup is given by rational cocharacter-space points modulo the
    lattice; it must be closed under addition and stable under sigma.
    """
    n = torus.lattice_rank
    pts = [tuple(Fraction(x) % 1 for x in p) for p in subgroup]
    pset = {tuple(x % 1 for x in p) for p in pts}
    pset.add(tuple(Fraction(0) for _ in range(n)))
    for p in pset:
        moved = tuple(x % 1 for x in mat_vec(torus.involution, p))
        if moved not in pset:
            raise CohomologyError("subgroup is not sigma-stable")
        for q in pset:
            s = tuple((a + b) % 1 for a, b in zip(p, q))
            if s not in pset:
                raise CohomologyError("subgroup is not closed under the group law")
    denom = 1
    for p in pset:
        for x in p:
            denom = denom * x.denominator // gcd(denom, x.denominator)
    rows = []
    for i in range(n):
        rows.append(tuple(denom if j == i else 0 for j in range(n)))
    for p in pset:
        rows.append(tuple(int(x * denom) for x in p))
    # The lattice contains denom * Z^n, so its echelon form leads with n nonzero rows.
    h, _ = hermite_normal_form(mat_int(rows))
    basis = tuple(tuple(Fraction(x, denom) for x in h[i]) for i in range(n))
    to_new = coordinate_map(basis)
    sigma_new = _conjugate_involution(torus.involution, basis, to_new)
    return QuotientTorus(RealTorus(n, sigma_new), basis, to_new)


def _conjugate_involution(
    sigma: IntMat, basis: tuple[FracVec, ...], to_new: tuple[IntMat, int]
) -> IntMat:
    """Involution in the new basis: columns of sigma' = coords of sigma(b_i)."""
    cols = []
    for row in basis:
        sol = coordinates(basis, to_new, mat_vec(sigma, row))
        if sol is None or any(x.denominator != 1 for x in sol):
            raise CohomologyError("involution does not preserve the enlarged lattice")
        cols.append(vec_int(sol))
    return transpose(mat_int(cols))
