"""Elliptic endoscopic data, diagrams, and the transfer factor.

The group G is split simply connected and all scenarios live on one compact
Cartan, realized on the cocharacter lattice with Galois acting by -1.  An
endoscopic datum is cut out by an order-2 character s of the coroot lattice;
the endoscopic group H has roots {alpha : s(coroot(alpha)) = +1}, a closed
subsystem on the coroot side, with Weyl group included in W^G on the nose.

Transfer factors are normalized relative to a base diagram.  The first and
third factor are Tate-Nakayama pairings on H^1(R, T) of the compact Cartan T
itself; the third pairs kappa = xhat_s with the single class b^{-2} rho_check
- w^{-2} rho_check of the diagram's Weyl element w and the base's b.  The
cocycle constructions fix these auxiliary choices, recorded in every report:

* canonical reflection representatives n(w) built from the pinning;
* the compact-Cartan realization with torus twist t_q = e(-rho_check / 2);
* the duality pairing sign of cohomology.DUALITY_CONVENTION.

Individual values of the first and third factor depend on these choices;
their product against the middle factor does not, and is pinned by the
stable-conjugacy invariant (tested against an independent matrix model).
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Optional, Sequence, Union

from .cohomology import (
    CohomologyError,
    RealTorus,
    TorusPoint,
    cocycle_class,
    elliptic_torus,
    h1,
    kappa_over,
    tate_nakayama_pair,
)
# Unused here: perfbench/tracing.py wraps endoscopy.quotient_torus_lattice,
# so the name stays until that layer is dropped.
from .cohomology import quotient_torus_lattice  # noqa: F401
from .lattice import FracVec, IntVec, dot, dot_in_order, mat_vec, transpose, vec_frac
from .realform import RealFormGrading
from .record import Record, set_attribute
from .rootdata import (
    RootDatum,
    RootDatumError,
    WeylElement,
    build_sub_datum,
    enumerate_weyl,
    right_coset_representatives,
)
from .tits import fold as tits_fold, inverse as tits_inverse, multiply as tits_multiply, n_of

WALL_EPS = 1e-9

Coords = tuple[Union[Fraction, float], ...]


class EndoscopyError(ValueError):
    pass


class EndoscopicDatum(Record):
    __slots__ = _fields = ("g_datum", "s_simple_signs", "xhat_s", "h_roots", "h_datum")

    def __init__(
        self,
        g_datum: RootDatum,
        s_simple_signs: tuple[int, ...],
        xhat_s: FracVec,                     # functional with e^{2 pi i <xhat,coroot>} = s
        h_roots: tuple[IntVec, ...],
        h_datum: RootDatum,
    ):
        set_attribute(self, "g_datum", g_datum)
        set_attribute(self, "s_simple_signs", s_simple_signs)
        set_attribute(self, "xhat_s", xhat_s)
        set_attribute(self, "h_roots", h_roots)
        set_attribute(self, "h_datum", h_datum)


class EllipticElement(Record):
    """X = i v on the compact Cartan, for either group of the pair."""

    __slots__ = _fields = ("coords",)

    def __init__(self, coords: Coords):
        set_attribute(self, "coords", coords)

    def is_exact(self) -> bool:
        return all(isinstance(c, Fraction) for c in self.coords)

    def floats(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self.coords)


class ADatum(Record):
    """a_alpha = i * ratio(alpha) on positive roots; a(-alpha) = -a(alpha)."""

    _fields = ("ratios",)
    __slots__ = _fields + ("_map",)

    def __init__(self, ratios: tuple[tuple[IntVec, Fraction], ...]):
        for _, r in ratios:
            if r == 0:
                raise EndoscopyError("a-datum ratio must be nonzero")
        set_attribute(self, "ratios", ratios)
        set_attribute(self, "_map", dict(ratios))

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


class Diagram(Record):
    __slots__ = _fields = ("datum", "w", "x_h", "x_g")

    def __init__(self, datum: EndoscopicDatum, w: WeylElement, x_h: EllipticElement, x_g: EllipticElement):
        set_attribute(self, "datum", datum)
        set_attribute(self, "w", w)
        set_attribute(self, "x_h", x_h)
        set_attribute(self, "x_g", x_g)


class WeylWeight(Record):
    """The relative transfer factor of the diagrams (w, x_h, x_g), split
    into a sign fixed by the scenario and root signs at x_g:

        relative_factor(diagram) = sign * root_signs(roots, x_g).

    sign is delta_I(w) delta_I(base) delta_III(w, base) delta_II(base) for
    the default a-datum; roots are the positive roots outside w Phi_H;
    inverse is the position of w^{-1} in the ambient Weyl group.

    The routes take every root-sign product from the mask of positive roots
    of G negative at a point, which require_regular returns (bit k for the
    k-th positive root).  sign<alpha, w x> = sign<w^{-1} alpha, x>, so the
    product over a set S of roots at w x is (-1)^(parity + |mask & neg(x)|),
    mask holding the positive roots +-w^{-1} alpha and parity counting the
    alpha in S with w^{-1} alpha < 0.  at is the mask of roots itself (at x);
    moved and h_moved are (mask, parity) of roots and of Phi+_H at w x;
    length is the parity of Phi+_G at w x, whose mask holds every bit.
    """

    __slots__ = _fields = ("w", "inverse", "sign", "roots", "at", "moved", "h_moved", "length")

    def __init__(
        self,
        w: WeylElement,
        inverse: int,
        sign: int,
        roots: tuple[IntVec, ...],
        at: int,
        moved: tuple[int, int],
        h_moved: tuple[int, int],
        length: int,
    ):
        set_attribute(self, "w", w)
        set_attribute(self, "inverse", inverse)
        set_attribute(self, "sign", sign)
        set_attribute(self, "roots", roots)
        set_attribute(self, "at", at)
        set_attribute(self, "moved", moved)
        set_attribute(self, "h_moved", h_moved)
        set_attribute(self, "length", length)

    def weight_at(self, negative: int) -> int:
        """The factor at the diagram (w, w^{-1} x, x), from x's mask."""
        return self.sign * parity_sign((self.at & negative).bit_count())

    def weight_moved(self, negative: int) -> int:
        """The factor at the diagram (w, x, w x), from x's mask."""
        mask, parity = self.moved
        return self.sign * parity_sign(parity + (mask & negative).bit_count())

    def h_sign(self, negative: int) -> int:
        """The sign of the product of <beta, w x> over Phi+_H, from x's mask."""
        mask, parity = self.h_moved
        return parity_sign(parity + (mask & negative).bit_count())

    def g_sign(self, negative: int) -> int:
        """The sign of the product of <alpha, w x> over Phi+_G, from x's mask."""
        return parity_sign(self.length + negative.bit_count())


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


def require_regular(g_datum: RootDatum, x: EllipticElement) -> int:
    """The positive roots of g_datum negative at x, as a mask with bit k for
    the k-th; EndoscopyError when x is on the wall of one, or, for a float
    point, within WALL_EPS * max(1, |x|) of it."""
    coords = x.coords
    if x.is_exact():
        margin = None
    else:
        floats = x.floats()
        margin = WALL_EPS * max(1.0, dot_in_order(floats, floats) ** 0.5)
    negative = 0
    for k, alpha in enumerate(g_datum.positive_roots):
        val = dot_in_order(alpha, coords)
        if margin is None:
            if val == 0:
                raise EndoscopyError(f"element is on the wall of root {alpha}")
        elif abs(float(val)) < margin:
            raise EndoscopyError(f"element is numerically on the wall of root {alpha}")
        if val < 0:
            negative |= 1 << k
    return negative


def parity_sign(n: int) -> int:
    """(-1)^n."""
    return -1 if n & 1 else 1


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
        self._position = {w: k for k, w in enumerate(self.weyl_g)}
        self._root_sets()
        self._perms = _root_permutations(self.g_datum, self.weyl_g)
        by_perm = {p: k for k, p in enumerate(self._perms)}
        self._inverse = tuple(by_perm[_inverse_permutation(p)] for p in self._perms)
        self._inverse_t = tuple(transpose(self.weyl_g[k].matrix) for k in self._inverse)
        self.h_positions = tuple(self._position[w] for w in self.weyl_h)
        self.torus = elliptic_torus(self.g_datum.rank)
        self._h1 = h1(self.torus)
        self._kappa_s = kappa_over(self.two_xhat_s, 2, self.torus)
        self._check_tits_central()

        self.base_diagram = build_diagram(datum, self.weyl_g, base_x_h, base_x_g)
        if self.base_diagram is None or not self.base_diagram.w.is_identity():
            raise EndoscopyError("base point does not admit an identity diagram")

    # -- auxiliary lattice data -------------------------------------------

    def _root_sets(self) -> None:
        """Indices into g_datum.roots of the simple roots, the positive
        roots and H's roots, the positive ones among the latter (Phi+_H =
        Phi_H n Phi+_G), and for each root the bit of the positive root
        +-it with 1 when it is negative."""
        d = self.g_datum
        index = {r: j for j, r in enumerate(d.roots)}
        self._simple_index = tuple(index[r] for r in d.simple_roots)
        self._positive_index = tuple(index[r] for r in d.positive_roots)
        self._h_index = tuple(index[r] for r in self.datum.h_roots)
        self._h_positive_index = tuple(index[r] for r in self.datum.h_datum.positive_roots)
        bit = {r: k for k, r in enumerate(d.positive_roots)}
        self._bits = tuple(
            (bit[r], 0) if r in bit else (bit[tuple(-x for x in r)], 1) for r in d.roots
        )

    def _check_tits_central(self) -> None:
        """Check that n(omega) n_i = n_i n(omega) for every i, folding n_i
        onto n(omega) and omega's reduced word onto n_i.

        Conjugation by n(w0) sends n_i to n_{i*}, where i -> i* is the diagram
        automorphism -w0.  Here w0 = omega = -1, so i* = i and every n_i must
        commute with n(omega).  n(w) is a product of the n_i, so then
        delta(w) in n(w)^{-1} n(omega) n(w) = (-1)^{delta(w)} n(omega) is 0
        for every w, and delta_I and delta_III leave it out."""
        d = self.g_datum
        zero = (0,) * d.rank
        for i in range(len(d.simple_roots)):
            left = tits_fold(d, zero, self.omega.matrix, (i,))
            right = tits_fold(d, zero, d.simple_reflection(i).matrix, self.omega.word)
            if left[1] != right[1]:
                raise EndoscopyError("minus-one element is not central in the Weyl group")
            if left[0] != right[0]:
                raise EndoscopyError(f"n(omega) does not commute with the Tits lift n_{i}")

    # -- the three factors ---------------------------------------------------

    def kappa_for(self, w: WeylElement):
        return kappa_over(self._act_on_functional(w, self.two_xhat_s), 2, self.torus)

    def inverse_of(self, w: WeylElement) -> WeylElement:
        return self.weyl_g[self._inverse[self._position[w]]]

    def _act_on_functional(self, w: WeylElement, f: IntVec) -> IntVec:
        """w . f = (w^{-1})^T f for an integer functional f."""
        return mat_vec(self._inverse_t[self._position[w]], f)

    def delta_i(self, diagram: Diagram, a: ADatum) -> int:
        """Pairing of the splitting-cocycle class with the transported
        endoscopic character; exact, via the cohomology layer.  The value
        depends only on the torus identification, that is on w.  The phases
        are numerators over 4: (w rho_check + rho_check)/2, plus coroot/2 for
        every root w beta, beta > 0, of negative ratio; delta(w) = 0 adds
        nothing (see _check_tits_central).  The ratios' magnitudes would give
        the point magnitudes, which on this torus (sigma = -1) always pass
        the cocycle test and never reach the class, so they are left out."""
        d = self.g_datum
        w = diagram.w
        w_two_rho = w.act(self.two_rho_check)
        phases = [x + y for x, y in zip(w_two_rho, self.two_rho_check)]

        perm = self._perms[self._position[w]]
        for j in self._positive_index:
            alpha = d.roots[perm[j]]
            if a.ratio(alpha) < 0:
                coroot = d.coroot(alpha)
                for i in range(d.rank):
                    phases[i] += 2 * coroot[i]

        tau = TorusPoint.over(phases, 4)
        cls = cocycle_class(self.torus, tau, self._h1)
        return tate_nakayama_pair(cls, self.kappa_for(w))

    def delta_ii_roots(self, w: WeylElement) -> tuple[IntVec, ...]:
        """The positive roots outside w Phi_H, over which delta_II runs."""
        roots = self.g_datum.roots
        return tuple(roots[j] for j in self._outside_h(self._position[w]))

    def _outside_h(self, k: int) -> tuple[int, ...]:
        """Indices of the positive roots outside w Phi_H, w = weyl_g[k]."""
        perm = self._perms[k]
        h_image = {perm[j] for j in self._h_index}
        return tuple(j for j in self._positive_index if j not in h_image)

    def delta_ii(self, diagram: Diagram, a: ADatum) -> int:
        """Sign product over positive roots outside the image of H."""
        roots = self.delta_ii_roots(diagram.w)
        return root_signs(roots, diagram.x_g.coords) * a_signs(roots, a)

    def delta_iii(self, diagram: Diagram, base: Optional[Diagram] = None) -> int:
        """kappa = xhat_s paired with the class b^{-2} rho_check - w^{-2}
        rho_check on T, w and b the diagrams' Weyl elements: on the doubled
        torus of the two diagrams the point is (-w^{-1} rho_check / 2,
        b^{-1} rho_check / 2) and the character (w . xhat_s, b . xhat_s),
        and w . f = (w^{-1})^T f.  The value depends only on w and b."""
        if base is None:
            base = self.base_diagram
        if base.datum is not self.datum or diagram.datum is not self.datum:
            raise EndoscopyError("diagrams come from different endoscopic data")
        w_back, b_back = self.inverse_of(diagram.w), self.inverse_of(base.w)
        b_rho = b_back.act(b_back.act(self.two_rho_check))
        w_rho = w_back.act(w_back.act(self.two_rho_check))
        point = TorusPoint.over([x - y for x, y in zip(b_rho, w_rho)], 4)
        return tate_nakayama_pair(cocycle_class(self.torus, point, self._h1), self._kappa_s)

    # -- normalized transfer factor ---------------------------------------

    def transfer_table(self) -> tuple[WeylWeight, ...]:
        """The pair-independent part of relative_factor for every w of
        weyl_g, in its order, taken from the factors at the diagram (w, x_h,
        w x_h) of the base point's x_h.  delta_I and delta_III depend on w
        alone, so that diagram is taken in floats.  delta_I delta_II does not depend
        on the a-datum (Langlands-Shelstad 1987, section 3), so the table
        is that of the default one."""
        a = ADatum.default(self.g_datum)
        base = self.base_diagram
        x_h = EllipticElement(base.x_h.floats())
        diagrams = [
            Diagram(self.datum, w, x_h, EllipticElement(w.act(x_h.coords)))
            for w in self.weyl_g
        ]
        d1 = [self.delta_i(diagram, a) for diagram in diagrams]
        # delta_I depends on w alone, so the base diagram takes its w's value.
        base_sign = d1[self._position[base.w]] * self.delta_ii(base, a)
        roots = self.g_datum.roots
        entries = []
        for k, (diagram, d1_w) in enumerate(zip(diagrams, d1)):
            outside = self._outside_h(k)
            # delta_II's root signs at x_g cancel against the route's, and
            # its a-signs are +1 for the default a-datum.
            sign = d1_w * base_sign * self.delta_iii(diagram, base)
            inverse = self._inverse[k]
            back = self._perms[inverse]
            entries.append(WeylWeight(
                diagram.w,
                inverse,
                sign,
                tuple(roots[j] for j in outside),
                at=sum(1 << self._bits[j][0] for j in outside),
                moved=self._pullback(back, outside),
                h_moved=self._pullback(back, self._h_positive_index),
                length=self._pullback(back, self._positive_index)[1],
            ))
        return tuple(entries)

    def group_products(
        self, group: Sequence[int], real: Sequence[WeylElement]
    ) -> tuple[tuple[int, ...], ...]:
        """Left multiplication by real on group, a subgroup of weyl_g given
        by positions in it: for each u of real, in its order, the row whose
        k-th entry is the index in group of u w, w = weyl_g[group[k]].
        Each element is keyed by its images of the simple roots, which fix
        it, so one product costs rank lookups: p_uw = p_u o p_w."""
        perms = self._perms
        keys = [tuple(perms[k][j] for j in self._simple_index) for k in group]
        index = {key: i for i, key in enumerate(keys)}
        rows = []
        for u in real:
            p = perms[self._position[u]]
            rows.append(tuple(index[tuple(p[j] for j in key)] for key in keys))
        return tuple(rows)

    def _pullback(self, back: tuple[int, ...], indices) -> tuple[int, int]:
        """(mask, parity) of the roots with these indices at w x, where back
        is w^{-1}'s root permutation: the bits of the positive roots
        +-w^{-1} alpha, and the parity of the count of w^{-1} alpha < 0."""
        mask = parity = 0
        for j in indices:
            bit, negative = self._bits[back[j]]
            mask |= 1 << bit
            parity ^= negative
        return mask, parity

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


def _root_permutations(datum: RootDatum, weyl: tuple[WeylElement, ...]) -> list[tuple[int, ...]]:
    """For each element of weyl, in its order, the permutation p of
    datum.roots with w . roots[j] = roots[p[j]].  weyl is enumerate_weyl's:
    every w but the first, the identity, is w' s_i for the earlier w' whose
    word is w's word without its last letter i, so p_w = p_w' o p_{s_i}."""
    index = {r: j for j, r in enumerate(datum.roots)}
    simple = []
    for i in range(len(datum.simple_roots)):
        s_i = datum.simple_reflection(i).matrix
        simple.append(tuple(index[datum.root_image(s_i, r)] for r in datum.roots))
    position: dict[tuple[int, ...], int] = {}
    perms: list[tuple[int, ...]] = []
    for k, w in enumerate(weyl):
        if w.word:
            parent = perms[position[w.word[:-1]]]
            perms.append(tuple(parent[j] for j in simple[w.word[-1]]))
        else:
            perms.append(tuple(range(len(datum.roots))))
        position[w.word] = k
    return perms


def _inverse_permutation(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for j, image in enumerate(p):
        out[image] = j
    return tuple(out)


def _sum_positive_coroots(datum: RootDatum) -> IntVec:
    """2 rho_check, the sum of the positive coroots."""
    return tuple(sum(col) for col in zip(*(datum.coroot(r) for r in datum.positive_roots)))
