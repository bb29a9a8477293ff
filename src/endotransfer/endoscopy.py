"""Elliptic endoscopic data, diagrams, and the transfer factor.

The group G is split simply connected and all scenarios live on one compact
Cartan, realized on the cocharacter lattice with Galois acting by -1.  An
endoscopic datum is cut out by an order-2 character s of the coroot lattice;
the endoscopic group H has roots {alpha : s(coroot(alpha)) = +1}, a closed
subsystem on the coroot side, with Weyl group included in W^G on the nose.

Transfer factors are normalized relative to a base diagram.  The cocycle
constructions fix these auxiliary choices, recorded in every report:

* canonical reflection representatives n(w) built from the pinning;
* the compact-Cartan realization with torus twist t_q = e(-rho_check / 2);
* the duality pairing sign of cohomology.DUALITY_CONVENTION.

Individual values of the first and third factor depend on these choices;
their product against the middle factor does not, and is pinned by the
stable-conjugacy invariant (tested against an independent matrix model).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence, Union

from .cohomology import (
    CohomologyError,
    QuotientTorus,
    RealTorus,
    TorusPoint,
    cocycle_class,
    elliptic_torus,
    h1,
    kappa_over,
    quotient_torus_lattice,
    tate_nakayama_pair,
)
from .lattice import (
    FracVec,
    IntVec,
    dot,
    inverse_over,
    mat_vec,
    transpose,
    vec_frac,
)
from .realform import RealFormGrading
from .rootdata import (
    RootDatum,
    RootDatumError,
    WeylElement,
    build_sub_datum,
    enumerate_weyl,
    right_coset_representatives,
    weyl_inverse,
)
from .tits import inverse as tits_inverse, multiply as tits_multiply, n_of

WALL_EPS = 1e-9

Coords = tuple[Union[Fraction, float], ...]


class EndoscopyError(ValueError):
    pass


@dataclass(frozen=True)
class EndoscopicDatum:
    g_datum: RootDatum
    s_simple_signs: tuple[int, ...]
    xhat_s: FracVec                      # functional with e^{2 pi i <xhat,coroot>} = s
    h_roots: tuple[IntVec, ...]
    h_datum: RootDatum

    def s_value(self, coroot: IntVec) -> int:
        r = dot(self.xhat_s, coroot)
        if (2 * r).denominator != 1:
            raise EndoscopyError("character is not of order 2 on this coroot")
        return 1 if r.denominator == 1 else -1


@dataclass(frozen=True)
class EllipticElement:
    """X = i v on the compact Cartan, for either group of the pair."""

    coords: Coords

    def is_exact(self) -> bool:
        return all(isinstance(c, Fraction) for c in self.coords)

    def floats(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self.coords)


@dataclass(frozen=True)
class ADatum:
    """a_alpha = i * ratio(alpha) on positive roots; a(-alpha) = -a(alpha)."""

    ratios: tuple[tuple[IntVec, Fraction], ...]

    def __post_init__(self):
        for _, r in self.ratios:
            if r == 0:
                raise EndoscopyError("a-datum ratio must be nonzero")
        object.__setattr__(self, "_map", dict(self.ratios))

    def ratio(self, root: IntVec) -> Fraction:
        if root in self._map:
            return self._map[root]
        neg = tuple(-x for x in root)
        if neg in self._map:
            return -self._map[neg]
        raise EndoscopyError(f"no a-datum value for root {root}")

    @staticmethod
    def default(datum: RootDatum) -> "ADatum":
        return ADatum(tuple((r, Fraction(1)) for r in datum.positive_roots))


@dataclass(frozen=True)
class Diagram:
    datum: EndoscopicDatum
    w: WeylElement
    x_h: EllipticElement
    x_g: EllipticElement


@dataclass(frozen=True)
class WeylWeight:
    """The relative transfer factor of the diagrams (w, x_h, x_g), split
    into a sign fixed by the scenario and root signs at x_g:

        relative_factor(diagram) = sign * root_signs(roots, x_g).

    sign is delta_I(w) delta_I(base) delta_III(w, base) delta_II(base) for
    the default a-datum; roots are the positive roots outside w Phi_H;
    inverse is the position of w^{-1} in the ambient Weyl group.
    """

    w: WeylElement
    inverse: int
    sign: int
    roots: tuple[IntVec, ...]

    def factor(self, coords: Coords) -> int:
        return self.sign * root_signs(self.roots, coords)


class TransferTable:
    """One WeylWeight per element of the ambient Weyl group, in its order."""

    def __init__(self, entries: tuple[WeylWeight, ...]):
        self.entries = entries
        self._position = {e.w.matrix: i for i, e in enumerate(entries)}

    def entry(self, w: WeylElement) -> WeylWeight:
        return self.entries[self._position[w.matrix]]


def build_endoscopic_datum(g_datum: RootDatum, s_simple_signs: Sequence[int]) -> EndoscopicDatum:
    if len(s_simple_signs) != len(g_datum.simple_roots):
        raise EndoscopyError("one sign per simple coroot is required")
    if any(s not in (1, -1) for s in s_simple_signs):
        raise EndoscopyError("character signs must be +1 or -1")
    xhat = tuple(Fraction(1, 2) if s == -1 else Fraction(0) for s in s_simple_signs)

    def s_value(coroot: IntVec) -> int:
        r = dot(vec_frac(xhat), coroot)
        return 1 if r.denominator == 1 else -1

    h_roots = tuple(r for r in g_datum.roots if s_value(g_datum.coroot(r)) == 1)
    _check_coroot_closed(g_datum, h_roots)
    h_label = f"{g_datum.cartan_label}|s={''.join('+' if s == 1 else '-' for s in s_simple_signs)}"
    h_datum = build_sub_datum(g_datum, h_roots, h_label)
    return EndoscopicDatum(
        g_datum=g_datum,
        s_simple_signs=tuple(int(s) for s in s_simple_signs),
        xhat_s=vec_frac(xhat),
        h_roots=h_roots,
        h_datum=h_datum,
    )


def _check_coroot_closed(g_datum: RootDatum, h_roots: tuple[IntVec, ...]) -> None:
    """Closedness of the coroot system of H inside the coroots of G."""
    h_coroots = {g_datum.coroot(r) for r in h_roots}
    all_coroots = {g_datum.coroot(r) for r in g_datum.roots}
    for a in h_coroots:
        neg = tuple(-x for x in a)
        if neg not in h_coroots:
            raise EndoscopyError("endoscopic coroot system is not symmetric")
        for b in h_coroots:
            s = tuple(x + y for x, y in zip(a, b))
            if s in all_coroots and s not in h_coroots:
                raise EndoscopyError("endoscopic coroot system is not closed")


def build_diagram(
    datum: EndoscopicDatum,
    weyl_group: tuple[WeylElement, ...],
    x_h: EllipticElement,
    x_g: EllipticElement,
) -> Optional[Diagram]:
    """Diagram with the minimal Weyl element w satisfying w . eta(x_h) = x_g,
    or None when the orbits do not match (the factor is then zero)."""
    require_regular(datum.g_datum, x_h)
    require_regular(datum.g_datum, x_g)
    exact = x_h.is_exact() and x_g.is_exact()
    target = x_g.coords
    for w in weyl_group:
        image = w.act(x_h.coords)
        if exact:
            if tuple(image) == tuple(target):
                return Diagram(datum, w, x_h, x_g)
        else:
            scale = max(1.0, max(abs(float(t)) for t in target))
            if all(abs(float(a) - float(b)) <= 1e-9 * scale for a, b in zip(image, target)):
                return Diagram(datum, w, x_h, x_g)
    return None


def require_regular(g_datum: RootDatum, x: EllipticElement) -> None:
    for alpha in g_datum.positive_roots:
        val = dot(alpha, x.coords)
        if x.is_exact():
            if val == 0:
                raise EndoscopyError(f"element is on the wall of root {alpha}")
        else:
            norm = max(1.0, sum(float(c) * float(c) for c in x.coords) ** 0.5)
            if abs(float(val)) < WALL_EPS * norm:
                raise EndoscopyError(f"element is numerically on the wall of root {alpha}")


def a_signs(roots: Sequence[IntVec], a: ADatum) -> int:
    """Product of the signs of the a-datum ratios over the given roots."""
    out = 1
    for alpha in roots:
        out *= sign_of(a.ratio(alpha))
    return out


def root_signs(roots: Sequence[IntVec], coords: Coords) -> int:
    """Product of the signs of <alpha, v> over the given roots."""
    out = 1
    for alpha in roots:
        value = sum(map(mul, alpha, coords))
        if not value > 0:
            if value == 0:
                raise EndoscopyError("sign of zero requested; regularity leak")
            out = -out
    return out


def sign_of(value) -> int:
    if value == 0:
        raise EndoscopyError("sign of zero requested; regularity leak")
    return 1 if value > 0 else -1


class TransferFactorEngine:
    """Evaluates the normalized transfer factor for one endoscopic scenario.

    Carries the ambient Weyl group, both real Weyl groups, the base diagram,
    and the exact cohomological data entering the first and third factors:
    2 rho_check and 2 xhat_s as integer vectors, and w^{-1} with its
    transpose for every w, which moves the functional xhat_s, w . f =
    (w^{-1})^T f; roots move by RootDatum.root_image.  The factors then
    work on integer numerators over fixed denominators.
    """

    def __init__(
        self,
        datum: EndoscopicDatum,
        grading_g: RealFormGrading,
        grading_h: RealFormGrading,
        real_weyl_g: tuple[WeylElement, ...],
        real_weyl_h: tuple[WeylElement, ...],
        base_x_h: EllipticElement,
        base_x_g: EllipticElement,
        base_value: complex = 1.0,
    ):
        self.datum = datum
        self.g_datum = datum.g_datum
        self.grading_g = grading_g
        self.grading_h = grading_h
        self.weyl_g = enumerate_weyl(self.g_datum)
        self.weyl_h = enumerate_weyl(datum.h_datum)
        self.real_weyl_g = real_weyl_g
        self.real_weyl_h = real_weyl_h
        self.base_value = base_value

        omega = self.g_datum.minus_one_element()
        if omega is None:
            raise EndoscopyError(
                "the split form has no compact Cartan (-1 is not in the Weyl group); "
                "scenario is not elliptic"
            )
        self.omega = omega
        self.two_rho_check = _sum_positive_coroots(self.g_datum)
        self.two_xhat_s = tuple(int(2 * x) for x in datum.xhat_s)
        self._inverse = {}
        for w in self.weyl_g:
            inv = weyl_inverse(self.g_datum, w)
            self._inverse[w.matrix] = (inv, transpose(inv.matrix))
        self.torus = elliptic_torus(self.g_datum.rank)
        self._h1 = h1(self.torus)
        self._check_tits_central()
        self._u = None
        self._u_h1 = None

        self.base_diagram = build_diagram(datum, self.weyl_g, base_x_h, base_x_g)
        if self.base_diagram is None or not self.base_diagram.w.is_identity():
            raise EndoscopyError("base point does not admit an identity diagram")

    # -- auxiliary lattice data -------------------------------------------

    def _check_tits_central(self) -> None:
        """Check, by the literal product n_i^{-1} n(omega) n_i, that n(omega)
        commutes with every n_i.

        Conjugation by n(w0) sends n_i to n_{i*}, where i -> i* is the diagram
        automorphism -w0.  Here w0 = omega = -1, so i* = i and every product
        must be n(omega) itself.  n(w) is a product of the n_i, so then
        delta(w) in n(w)^{-1} n(omega) n(w) = (-1)^{delta(w)} n(omega) is 0
        for every w, and delta_I and delta_III leave it out."""
        d = self.g_datum
        n_omega = n_of(d, self.omega)
        for i in range(len(d.simple_roots)):
            n_i = n_of(d, d.simple_reflection(i))
            lhs = tits_multiply(d, tits_multiply(d, tits_inverse(d, n_i), n_omega), n_i)
            if lhs.w != self.omega:
                raise EndoscopyError("minus-one element is not central in the Weyl group")
            if any(lhs.eps):
                raise EndoscopyError(f"n(omega) does not commute with the Tits lift n_{i}")

    def _u_torus(self) -> QuotientTorus:
        if self._u is None:
            n = self.g_datum.rank
            big = elliptic_torus(2 * n)
            reps = _coweight_classes(self.g_datum)
            subgroup = [tuple(list(p) + [(-x) % 1 for x in p]) for p in reps]
            self._u = quotient_torus_lattice(big, subgroup)
            self._u_h1 = h1(self._u.torus)
        return self._u

    # -- the three factors ---------------------------------------------------

    def kappa_for(self, w: WeylElement):
        return kappa_over(self._act_on_functional(w, self.two_xhat_s), 2, self.torus)

    def inverse_of(self, w: WeylElement) -> WeylElement:
        return self._inverse[w.matrix][0]

    def _act_on_functional(self, w: WeylElement, f: IntVec) -> IntVec:
        """w . f = (w^{-1})^T f for an integer functional f."""
        return mat_vec(self._inverse[w.matrix][1], f)

    def delta_i(self, diagram: Diagram, a: ADatum) -> int:
        """Pairing of the splitting-cocycle class with the transported
        endoscopic character; exact, via the cohomology layer.  The value
        depends only on the torus identification, that is on w.  The phases
        are numerators over 4: (w rho_check + rho_check)/2, plus coroot/2 for
        every root w beta, beta > 0, of negative ratio; delta(w) = 0 adds
        nothing (see _check_tits_central)."""
        d = self.g_datum
        w = diagram.w
        w_two_rho = w.act(self.two_rho_check)
        phases = [x + y for x, y in zip(w_two_rho, self.two_rho_check)]
        mags = None

        for beta in d.positive_roots:
            alpha = d.root_image(w.matrix, beta)
            r = a.ratio(alpha)
            coroot = d.coroot(alpha)
            if r < 0:
                for j in range(d.rank):
                    phases[j] += 2 * coroot[j]
            if r != 1 and r != -1:
                mag = abs(r)
                if mags is None:
                    mags = [Fraction(1)] * d.rank
                for j in range(d.rank):
                    mags[j] *= mag ** coroot[j]

        tau = TorusPoint.over(phases, 4, mags)
        cls = cocycle_class(self.torus, tau, self._h1)
        return tate_nakayama_pair(cls, self.kappa_for(w))

    def delta_ii_roots(self, w: WeylElement) -> tuple[IntVec, ...]:
        """The positive roots outside w Phi_H, over which delta_II runs."""
        h_image = {self.g_datum.root_image(w.matrix, beta) for beta in self.datum.h_roots}
        return tuple(alpha for alpha in self.g_datum.positive_roots if alpha not in h_image)

    def delta_ii(self, diagram: Diagram, a: ADatum) -> int:
        """Sign product over positive roots outside the image of H."""
        roots = self.delta_ii_roots(diagram.w)
        return root_signs(roots, diagram.x_g.coords) * a_signs(roots, a)

    def delta_iii(self, diagram: Diagram, base: Optional[Diagram] = None) -> int:
        """Duality pairing on the doubled torus of the two diagrams.  The
        value depends only on the two torus identifications."""
        if base is None:
            base = self.base_diagram
        if base.datum is not self.datum or diagram.datum is not self.datum:
            raise EndoscopyError("diagrams come from different endoscopic data")
        u = self._u_torus()
        slot, f = self._delta_iii_half(diagram.w, +1)
        base_slot, base_f = self._delta_iii_half(base.w, -1)
        point = TorusPoint.over(*u.to_new_coordinates(slot + base_slot, 4))
        cls = cocycle_class(u.torus, point, self._u_h1)
        kappa_u = kappa_over(*u.functional_to_new(f + base_f, 2), u.torus)
        return tate_nakayama_pair(cls, kappa_u)

    def _delta_iii_half(self, w: WeylElement, sign: int) -> tuple[IntVec, IntVec]:
        """One diagram's half of the doubled-torus point, as numerators over
        4 of -sign * w^{-1} rho_check / 2 (delta(w) = 0), and of the
        character, as numerators over 2 of w . xhat_s."""
        rho_back = self.inverse_of(w).act(self.two_rho_check)
        slot = tuple(-sign * rb for rb in rho_back)
        return slot, self._act_on_functional(w, self.two_xhat_s)

    # -- normalized transfer factor ---------------------------------------

    def transfer_table(self) -> TransferTable:
        """The pair-independent part of relative_factor for every w of
        weyl_g, taken from the factors at the diagram (w, x_h, w x_h) of
        the base point's x_h.  delta_I and delta_III depend on w alone, so
        that diagram is taken in floats.  delta_I delta_II does not depend
        on the a-datum (Langlands-Shelstad 1987, section 3), so the table
        is that of the default one."""
        a = ADatum.default(self.g_datum)
        base = self.base_diagram
        position = {w.matrix: i for i, w in enumerate(self.weyl_g)}
        x_h = EllipticElement(base.x_h.floats())
        diagrams = [
            Diagram(self.datum, w, x_h, EllipticElement(w.act(x_h.coords)))
            for w in self.weyl_g
        ]
        d1 = [self.delta_i(diagram, a) for diagram in diagrams]
        # delta_I depends on w alone, so the base diagram takes its w's value.
        base_sign = d1[position[base.w.matrix]] * self.delta_ii(base, a)
        entries = []
        for diagram, d1_w in zip(diagrams, d1):
            roots = self.delta_ii_roots(diagram.w)
            # delta_II's root signs at x_g cancel against the route's, and
            # its a-signs are +1 for the default a-datum.
            sign = d1_w * base_sign * self.delta_iii(diagram, base)
            inverse = position[self.inverse_of(diagram.w).matrix]
            entries.append(WeylWeight(diagram.w, inverse, sign, roots))
        return TransferTable(tuple(entries))

    def transfer_factor(
        self,
        x_h: EllipticElement,
        x_g: EllipticElement,
        a: Optional[ADatum] = None,
    ):
        """Normalized factor: base_value on the base diagram, 0 off-orbit."""
        diagram = build_diagram(self.datum, self.weyl_g, x_h, x_g)
        if diagram is None:
            return 0
        return self.relative_factor(diagram, a) * self.base_value

    def relative_factor(self, diagram: Diagram, a: Optional[ADatum] = None) -> int:
        if a is None:
            a = ADatum.default(self.g_datum)
        base = self.base_diagram
        value = (
            self.delta_i(diagram, a)
            * self.delta_i(base, a)
            * self.delta_ii(diagram, a)
            * self.delta_ii(base, a)
            * self.delta_iii(diagram, base)
        )
        return value  # each factor is +-1, so ratios are products

    # -- orbit enumeration ---------------------------------------------------

    def stable_orbit_representatives(self, x_g: EllipticElement) -> tuple[EllipticElement, ...]:
        require_regular(self.g_datum, x_g)
        reps = right_coset_representatives(self.weyl_g, self.real_weyl_g)
        return tuple(EllipticElement(w.act(x_g.coords)) for w in reps)

    def matching_h_orbits(self, x_g: EllipticElement) -> tuple[EllipticElement, ...]:
        require_regular(self.g_datum, x_g)
        reps = right_coset_representatives(self.weyl_g, self.real_weyl_h)
        return tuple(EllipticElement(w.act(x_g.coords)) for w in reps)

    def stable_class_size_h(self, x_h: EllipticElement) -> int:
        require_regular(self.g_datum, x_h)
        return len(self.weyl_h) // len(self.real_weyl_h)

    # -- independent stable-conjugacy invariant ----------------------------

    def stable_invariant_class(self, w: WeylElement) -> IntVec:
        """Lattice vector of the class inv(X, w X) in H^1 of the Cartan:
        rho_check - w(rho_check) + delta'(w) with n(omega) n(w) n(omega)^{-1}
        = (-1)^{delta'} n(w)."""
        d = self.g_datum
        lhs = tits_multiply(
            d,
            tits_multiply(d, n_of(d, self.omega), n_of(d, w)),
            tits_inverse(d, n_of(d, self.omega)),
        )
        if lhs.w != w:
            raise EndoscopyError("minus-one element is not central in the Weyl group")
        w_two_rho = w.act(self.two_rho_check)
        doubled = [x - y + 2 * e for x, y, e in zip(self.two_rho_check, w_two_rho, lhs.eps)]
        if any(x % 2 for x in doubled):
            raise EndoscopyError("stable invariant is not integral")
        return tuple(x // 2 for x in doubled)


def _sum_positive_coroots(datum: RootDatum) -> IntVec:
    """2 rho_check, the sum of the positive coroots."""
    return tuple(sum(col) for col in zip(*(datum.coroot(r) for r in datum.positive_roots)))


def _coweight_classes(datum: RootDatum) -> list[FracVec]:
    """Representatives of the coweight lattice modulo the coroot lattice,
    sorted.  The fundamental coweights are the columns of the inverse of
    the simple-root matrix; the classes are found on their numerators over
    its denominator d."""
    try:
        inverse, d = inverse_over(datum.simple_roots)
    except ValueError:
        raise EndoscopyError("simple roots are degenerate")
    coweights = transpose(inverse)
    seen = {(0,) * datum.rank}
    frontier = list(seen)
    while frontier:
        new = []
        for p in frontier:
            for cw in coweights:
                q = tuple((a + b) % d for a, b in zip(p, cw))
                if q not in seen:
                    seen.add(q)
                    new.append(q)
        frontier = new
    return sorted(tuple(Fraction(x, d) for x in p) for p in seen)
