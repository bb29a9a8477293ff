"""Elliptic endoscopic data, diagrams, and the transfer factor.

The group G is split simply connected and all scenarios live on one compact
Cartan, realized on the cocharacter lattice with Galois acting by -1.  An
endoscopic datum is cut out by an order-2 character s of the coroot lattice;
the endoscopic group H has roots {alpha : s(coroot(alpha)) = +1}, a closed
subsystem on the coroot side, with Weyl group included in W^G on the nose.

Transfer factors are normalized relative to a base diagram.  The first and
third factor are Tate-Nakayama pairings on H^1(R, T) of the compact Cartan T
itself.  There sigma = -1 on X_*, so H^1(R, T) = X_*/2X_*: the class of a
cocycle e(x) is (1 - sigma) x = 2x mod 2X_*, and its pairing with a character
kappa = xhat is (-1)^<2 xhat, 2x> (Langlands-Shelstad 1987, section 3).  So
each factor is the parity of one integer dot product, taken from the Weyl
element's root permutation; the third pairs xhat_s with the single class
b^{-2} rho_check - w^{-2} rho_check of the diagram's Weyl element w and the
base's b.  The module cohomology computes the same pairings through
cocycle_class and tate_nakayama_pair on any real torus; the tests check the
factors against it, and it is the engine of endotransfer h1.  The cocycle
constructions fix these auxiliary choices, recorded in every report:

* canonical reflection representatives n(w) built from the pinning;
* the compact-Cartan realization with torus twist t_q = e(-rho_check / 2);
* the duality pairing sign of cohomology.DUALITY_CONVENTION.

Individual values of the first and third factor depend on these choices;
their product against the middle factor does not, and is pinned by the
stable-conjugacy invariant (tested against an independent matrix model).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, itemgetter, mul
from typing import Optional, Sequence, Union

# Unused here: perfbench/tracing.py wraps these names in this module, so they
# stay until its cohomology layers are dropped.
from .cohomology import cocycle_class, h1, quotient_torus_lattice, tate_nakayama_pair  # noqa: F401
from .lattice import IntVec, column_table, common_denominator, dot, dot_in_order, images_in_order
from .realform import RealFormGrading
from .record import Record, set_attribute
from .rootdata import (
    RootDatum,
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
    """The endoscopic datum of G given by the signs of s on the simple
    coroots.  xhat_s is the functional with e^{2 pi i <xhat_s, coroot>} = s
    on every coroot; h_roots and h_datum are the roots and the root datum
    of H."""

    __slots__ = _fields = ("g_datum", "s_simple_signs", "xhat_s", "h_roots", "h_datum")


class EllipticElement(Record):
    """X = i v on the compact Cartan, for either group of the pair."""

    __slots__ = _fields = ("coords",)

    def is_exact(self) -> bool:
        return all(isinstance(c, Fraction) for c in self.coords)

    def floats(self) -> tuple[float, ...]:
        return tuple(map(float, self.coords))


class ADatum(Record):
    """a_alpha = i * ratio(alpha) on positive roots; a(-alpha) = -a(alpha).
    negative holds the roots, of either sign, whose ratio is negative."""

    _fields = ("ratios",)
    __slots__ = _fields + ("_map", "negative")

    def __init__(self, ratios: tuple[tuple[IntVec, Fraction], ...]):
        for _, r in ratios:
            if r == 0:
                raise EndoscopyError("a-datum ratio must be nonzero")
        super().__init__(ratios)
        set_attribute(self, "_map", dict(ratios))
        set_attribute(self, "negative", frozenset(
            root if r < 0 else tuple(-x for x in root) for root, r in ratios
        ))

    def ratio(self, root: IntVec) -> Fraction:
        if root in self._map:
            return self._map[root]
        neg = tuple(-x for x in root)
        if neg in self._map:
            return -self._map[neg]
        raise EndoscopyError(f"no a-datum value for root {root}")

    @staticmethod
    def default(datum: RootDatum) -> "ADatum":
        one = Fraction(1)
        return ADatum(tuple([(r, one) for r in datum.positive_roots]))


class Diagram(Record):
    __slots__ = _fields = ("datum", "w", "x_h", "x_g")


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

    def weight_at(self, negative: int) -> int:
        """The factor at the diagram (w, w^{-1} x, x), from x's mask."""
        return -self.sign if (self.at & negative).bit_count() & 1 else self.sign

    def weight_moved(self, negative: int) -> int:
        """The factor at the diagram (w, x, w x), from x's mask."""
        mask, parity = self.moved
        return -self.sign if (parity + (mask & negative).bit_count()) & 1 else self.sign

    def h_sign(self, negative: int) -> int:
        """The sign of the product of <beta, w x> over Phi+_H, from x's mask."""
        mask, parity = self.h_moved
        return -1 if (parity + (mask & negative).bit_count()) & 1 else 1

    def g_sign(self, negative: int) -> int:
        """The sign of the product of <alpha, w x> over Phi+_G, from x's mask."""
        return -1 if (self.length + negative.bit_count()) & 1 else 1


def build_endoscopic_datum(g_datum: RootDatum, s_simple_signs: Sequence[int]) -> EndoscopicDatum:
    if len(s_simple_signs) != len(g_datum.simple_roots):
        raise EndoscopyError("one sign per simple coroot is required")
    if any(s not in (1, -1) for s in s_simple_signs):
        raise EndoscopyError("character signs must be +1 or -1")
    two_xhat = tuple(1 if s == -1 else 0 for s in s_simple_signs)
    # s(coroot) = (-1)^<2 xhat_s, coroot>
    h_roots = tuple([r for r, c in zip(g_datum.roots, g_datum.coroots) if not sum(map(mul, two_xhat, c)) & 1])
    _check_coroot_closed(g_datum, h_roots)
    h_label = f"{g_datum.cartan_label}|s={''.join('+' if s == 1 else '-' for s in s_simple_signs)}"
    h_datum = build_sub_datum(g_datum, h_roots, h_label)
    return EndoscopicDatum(
        g_datum=g_datum,
        s_simple_signs=tuple(int(s) for s in s_simple_signs),
        xhat_s=tuple(Fraction(x, 2) for x in two_xhat),
        h_roots=h_roots,
        h_datum=h_datum,
    )


def _check_coroot_closed(g_datum: RootDatum, h_roots: tuple[IntVec, ...]) -> None:
    """Closedness of the coroot system of H inside the coroots of G."""
    h_coroots = {g_datum.coroot(r) for r in h_roots}
    others = set(g_datum.coroots) - h_coroots
    for a in h_coroots:
        if tuple([-x for x in a]) not in h_coroots:
            raise EndoscopyError("endoscopic coroot system is not symmetric")
        for b in h_coroots:
            if tuple(map(add, a, b)) in others:
                raise EndoscopyError("endoscopic coroot system is not closed")


def build_diagram(
    datum: EndoscopicDatum,
    weyl_group: tuple[WeylElement, ...],
    x_h: EllipticElement,
    x_g: EllipticElement,
) -> Optional[Diagram]:
    """Diagram with the minimal Weyl element w satisfying w . eta(x_h) = x_g,
    or None when the orbits do not match (the factor is then zero).  Exact
    points are compared in integers: with x_h = h / h_den and x_g = g /
    g_den over common denominators, w x_h = x_g is g_den w h = h_den g."""
    require_regular(datum.g_datum, x_h)
    require_regular(datum.g_datum, x_g)
    return _minimal_diagram(datum, weyl_group, x_h, x_g)


def _minimal_diagram(datum, weyl_group, x_h, x_g) -> Optional[Diagram]:
    """build_diagram's search, for points already found regular."""
    if x_h.is_exact() and x_g.is_exact():
        h, h_den = common_denominator(x_h.coords)
        g, g_den = common_denominator(x_g.coords)
        target = tuple([h_den * x for x in g])
        for w in weyl_group:
            if tuple([g_den * sum(map(mul, row, h)) for row in w.matrix]) == target:
                return Diagram(datum, w, x_h, x_g)
        return None
    target = x_g.coords
    scale = max(1.0, max(abs(float(t)) for t in target))
    for w in weyl_group:
        image = w.act(x_h.coords)
        if all(abs(float(a) - float(b)) <= 1e-9 * scale for a, b in zip(image, target)):
            return Diagram(datum, w, x_h, x_g)
    return None


def require_regular(g_datum: RootDatum, x: EllipticElement) -> int:
    """The positive roots of g_datum negative at x, as a mask with bit k for
    the k-th; EndoscopyError when x is on the wall of one, or, for a float
    point, within WALL_EPS * max(1, |x|) of it.  An exact point is read as
    integer numerators over its common denominator."""
    negative = 0
    if x.is_exact():
        numerators, _ = common_denominator(x.coords)
        for k, alpha in enumerate(g_datum.positive_roots):
            val = dot(alpha, numerators)
            if val == 0:
                raise EndoscopyError(f"element is on the wall of root {alpha}")
            if val < 0:
                negative |= 1 << k
        return negative
    floats = x.floats()
    margin = WALL_EPS * max(1.0, dot_in_order(floats, floats) ** 0.5)
    for k, alpha in enumerate(g_datum.positive_roots):
        val = dot_in_order(alpha, x.coords)
        if abs(float(val)) < margin:
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
    and the exact data entering the first and third factors: 2 rho_check and
    2 xhat_s as integer vectors, the root permutation of every w with the
    position of w^{-1}, w . 2 rho_check for every w, and for every root the
    parity of <2 xhat_s, its coroot>.  The factors are then parities of
    integer dot products on X_*/2X_*.
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

        self.two_rho_check = _vector_sum(self.g_datum.coroot(r) for r in self.g_datum.positive_roots)
        self.two_xhat_s = tuple(int(2 * x) for x in datum.xhat_s)
        self._position = {w: k for k, w in enumerate(self.weyl_g)}
        self._root_sets()
        self._perms = perms = self.weyl_g.perms
        # An element is fixed by its images of the simple roots, its key.
        key = self.g_datum.key
        by_key = {key(p): k for k, p in enumerate(perms)}
        self._keys = tuple(by_key)
        minus_one = by_key.get(key(self._negation))
        if minus_one is None:
            raise EndoscopyError(
                f"-1 in the Weyl group: {self.g_datum.cartan_label} has no Weyl element acting by -1, "
                "and the transfer factor is normalized through n(omega) with omega = -1"
            )
        self.omega = self.weyl_g[minus_one]
        # w^{-1} sends alpha_j to the root that w sends to alpha_j.
        simple = self._simple_index
        self._inverse = tuple(by_key[tuple([p.index(j) for j in simple])] for p in perms)
        # w^2 has the permutation p o p, and the position of w^{-2} is that
        # of its inverse.
        self._inverse_square = tuple(
            self._inverse[by_key[tuple([p[p[j]] for j in simple])]] for p in perms
        )
        # The column table of W's matrices, which the pair table reads too,
        # gives w 2 rho_check for every w at once.
        self.g_columns = column_table([w.matrix for w in self.weyl_g])
        self._two_rho_images = tuple(zip(*images_in_order(self.g_columns, self.two_rho_check)))
        self.h_positions = tuple(self._position[w] for w in self.weyl_h)
        self._check_tits_central()

        # build_diagram's checks, keeping x_g's mask: at the base diagram,
        # whose w is 1, delta_II is read from it (transfer_table).
        try:
            require_regular(self.g_datum, base_x_h)
            self._base_negative = require_regular(self.g_datum, base_x_g)
        except EndoscopyError as e:
            raise EndoscopyError(f"regularity/base diagram: {e}") from None
        self.base_diagram = _minimal_diagram(datum, self.weyl_g, base_x_h, base_x_g)
        if self.base_diagram is None or not self.base_diagram.w.is_identity():
            raise EndoscopyError("regularity/base diagram: base point does not admit an identity diagram")

    # -- auxiliary lattice data -------------------------------------------

    def _root_sets(self) -> None:
        """Indices into g_datum.roots of the simple roots, the positive
        roots and the positive roots of H (Phi+_H = Phi_H n Phi+_G), the
        root permutation of -1, for each root the bit of the positive root
        +-it with 1 when it is negative, and for each root the parity of
        <2 xhat_s, its coroot>, which is 1 exactly off Phi_H."""
        d = self.g_datum
        index = d._index
        self._negation = tuple(index[tuple(-x for x in r)] for r in d.roots)
        self._simple_index = d._simple_index
        self._positive_index = tuple(index[r] for r in d.positive_roots)
        self._h_positive_index = tuple(index[r] for r in self.datum.h_datum.positive_roots)
        bit = {j: k for k, j in enumerate(self._positive_index)}
        self._bits = tuple(
            (bit[j], 0) if j in bit else (bit[minus], 1) for j, minus in enumerate(self._negation)
        )
        two_xhat = self.two_xhat_s
        self._s_parity = tuple([sum(map(mul, two_xhat, c)) & 1 for c in d.coroots])

    def _check_tits_central(self) -> None:
        """Check that n(omega) n_i = n_i n(omega) for every i, folding on root
        permutations n_i onto n(omega) and omega's reduced word onto n_i.

        Conjugation by n(w0) sends n_i to n_{i*}, where i -> i* is the diagram
        automorphism -w0.  Here w0 = omega = -1, so i* = i and every n_i must
        commute with n(omega).  n(w) is a product of the n_i, so then
        delta(w) in n(w)^{-1} n(omega) n(w) = (-1)^{delta(w)} n(omega) is 0
        for every w, and delta_I and delta_III leave it out."""
        d = self.g_datum
        zero = (0,) * d.rank
        omega = self._perms[self._position[self.omega]]
        for i, s in enumerate(d._reflections):
            left = tits_fold(d, zero, omega, (i,))
            right = tits_fold(d, zero, s, self.omega.word)
            if left[1] != right[1]:
                raise EndoscopyError("minus-one element is not central in the Weyl group")
            if left[0] != right[0]:
                raise EndoscopyError(f"n(omega) does not commute with the Tits lift n_{i}")

    # -- the three factors ---------------------------------------------------

    def inverse_of(self, w: WeylElement) -> WeylElement:
        return self.weyl_g[self._inverse[self._position[w]]]

    def delta_i(self, diagram: Diagram, a: ADatum) -> int:
        """Pairing of the splitting-cocycle class with the transported
        endoscopic character.  The value depends only on the torus
        identification, that is on w.  The cocycle is e(P / 4) with
        P = w 2 rho_check + 2 rho_check + 2 (w beta)^vee summed over the
        beta > 0 with a(w beta) < 0; delta(w) = 0 adds nothing (see
        _check_tits_central), and the ratios' magnitudes, which on this
        torus (sigma = -1) always pass the cocycle test, never reach the
        class.  Its class is P / 2 in X_*/2X_*, and the character is
        w . xhat_s = (w^{-1})^T xhat_s, whose i-th coordinate doubled is
        <2 xhat_s, (w^{-1} alpha_i)^vee>: the value is (-1)^<(w^{-1})^T
        2 xhat_s, P / 2>."""
        k = self._position[diagram.w]
        doubled = [x + y for x, y in zip(self._two_rho_images[k], self.two_rho_check)]
        perm = self._perms[k]
        roots, coroots = self.g_datum.roots, self.g_datum.coroots
        for j in self._positive_index:
            if roots[perm[j]] in a.negative:
                for i, c in enumerate(coroots[perm[j]]):
                    doubled[i] += 2 * c
        back = self._perms[self._inverse[k]]
        moved = [self._s_parity[back[j]] for j in self._simple_index]
        return _half_pairing("delta_I", moved, doubled)

    def delta_ii_roots(self, w: WeylElement) -> tuple[IntVec, ...]:
        """The positive roots outside w Phi_H, over which delta_II runs."""
        roots = self.g_datum.roots
        back = self._perms[self._inverse[self._position[w]]]
        return tuple(roots[j] for j in self._outside_h(back))

    def _outside_h(self, back: tuple[int, ...]) -> list[int]:
        """Indices of the positive roots outside w Phi_H, from w^{-1}'s root
        permutation: alpha is in w Phi_H exactly when w^{-1} alpha is in
        Phi_H, where <2 xhat_s, coroot> is even."""
        parity = self._s_parity
        return [j for j in self._positive_index if parity[back[j]]]

    def delta_ii(self, diagram: Diagram, a: ADatum) -> int:
        """Sign product over positive roots outside the image of H."""
        roots = self.delta_ii_roots(diagram.w)
        return root_signs(roots, diagram.x_g.coords) * a_signs(roots, a)

    def delta_iii(self, diagram: Diagram, base: Optional[Diagram] = None) -> int:
        """kappa = xhat_s paired with the class b^{-2} rho_check - w^{-2}
        rho_check on T, w and b the diagrams' Weyl elements: the value is
        (-1)^<2 xhat_s, (b^{-2} 2 rho_check - w^{-2} 2 rho_check) / 2>.  It
        depends only on w and b."""
        if base is None:
            base = self.base_diagram
        if base.datum is not self.datum or diagram.datum is not self.datum:
            raise EndoscopyError("diagrams come from different endoscopic data")
        images, square = self._two_rho_images, self._inverse_square
        b_rho = images[square[self._position[base.w]]]
        w_rho = images[square[self._position[diagram.w]]]
        return _half_pairing("delta_III", self.two_xhat_s, [x - y for x, y in zip(b_rho, w_rho)])

    # -- normalized transfer factor ---------------------------------------

    def transfer_table(self) -> tuple[WeylWeight, ...]:
        """The pair-independent part of relative_factor for every w of
        weyl_g, in its order, taken from the factors at the diagram (w, x_h,
        w x_h) of the base point's x_h.  delta_III depends on w alone, so
        it is handed w's diagram without its points.  delta_I delta_II does
        not depend on the a-datum (Langlands-Shelstad 1987, section 3), so
        the table is that of the default one.  There delta_I is the same for
        every w: a(w beta) < 0 exactly when w beta < 0, so P = w 2 rho_check
        + 2 rho_check + 2 (w beta)^vee over the beta > 0 with w beta < 0 is
        2 w 2 rho_check, and the value is (-1)^<2 xhat_s, 2 rho_check>; it
        is evaluated once, at the base.

        The masks are read in one pass over each w's positions: a positive
        root alpha outside w Phi_H sets its own bit in at, and in moved the
        bit of +-w^{-1} alpha, whose sign the parity counts.  The parity of
        Phi+_G at w x counts the alpha > 0 with w^{-1} alpha < 0, so it is
        that of the length of w, the length of its reduced word.  The base
        diagram's w is 1, the first of weyl_g, so delta_II there is the
        parity of the first at against x_g's mask (a-signs are +1)."""
        a = ADatum.default(self.g_datum)
        base = self.base_diagram
        d1 = self.delta_i(base, a)
        datum, delta_iii, outside_h = self.datum, self.delta_iii, self._outside_h
        roots, perms, inverses = self.g_datum.roots, self._perms, self._inverse
        h_positive = self._h_positive_index
        # Each root's bit in a mask, and whether it is negative.
        bits = [1 << bit for bit, _ in self._bits]
        negative = [n for _, n in self._bits]
        entries = []
        for k, w in enumerate(self.weyl_g):
            inverse = inverses[k]
            back = perms[inverse]
            outside = outside_h(back)
            at = mask = parity = 0
            for j in outside:
                at |= bits[j]
                j = back[j]
                mask |= bits[j]
                parity ^= negative[j]
            if not k:
                base_sign = d1 * parity_sign((at & self._base_negative).bit_count())
            # delta_II's root signs at x_g cancel against the route's, and
            # its a-signs are +1 for the default a-datum.
            sign = d1 * base_sign * delta_iii(Diagram(datum, w, None, None), base)
            h_mask = h_parity = 0
            for j in h_positive:
                j = back[j]
                h_mask |= bits[j]
                h_parity ^= negative[j]
            entries.append(WeylWeight(
                w, inverse, sign, tuple([roots[j] for j in outside]), at,
                (mask, parity), (h_mask, h_parity), len(w.word) & 1,
            ))
        return tuple(entries)

    def group_products(
        self, group: Sequence[int], real: Sequence[WeylElement]
    ) -> tuple[tuple[int, ...], ...]:
        """Left multiplication by real on group, a subgroup of weyl_g given
        by positions in it: for each u of real, in its order, the row whose
        k-th entry is the index in group of u w, w = weyl_g[group[k]].
        Each element is keyed by its images of the simple roots, which fix
        it, so one product costs rank lookups: p_uw = p_u o p_w, read by
        one itemgetter per key (a rank-1 key is then a bare position, in
        the index as in every product)."""
        perms = self._perms
        getters = [itemgetter(*self._keys[k]) for k in group]
        identity = perms[0]  # weyl_g starts with the identity
        index = {get(identity): i for i, get in enumerate(getters)}
        rows = []
        for u in real:
            p = perms[self._position[u]]
            rows.append(tuple([index[get(p)] for get in getters]))
        return tuple(rows)

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


def _half_pairing(factor: str, functional: Sequence[int], doubled: Sequence[int]) -> int:
    """(-1)^<functional, doubled / 2>, the pairing of a class of X_*/2X_*
    with a character given by twice its vector; EndoscopyError naming the
    factor when doubled / 2, the class (1 - sigma) x of its cocycle, is not
    integral."""
    if any([x & 1 for x in doubled]):
        raise EndoscopyError(
            f"{factor}: (1 - sigma) x = {tuple(doubled)} / 2 is not integral; not a cocycle"
        )
    return parity_sign(sum(map(mul, functional, [x >> 1 for x in doubled])))


def _vector_sum(vectors) -> IntVec:
    """The sum of one or more integer vectors."""
    return tuple(map(sum, zip(*vectors)))

