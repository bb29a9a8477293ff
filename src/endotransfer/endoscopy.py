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
each factor is the parity of one integer dot product.  The first pairs
xhat_s with 2 rho_check, the same at every diagram; the third pairs xhat_s
with the single class b^{-2} rho_check - w^{-2} rho_check of the diagram's
Weyl element w and the base's b.  The first and second factor are those of
the a-datum whose ratios are all 1: their product does not depend on the
a-datum (same section), so the engine takes none.  The module cohomology
computes the same pairings through cocycle_class and tate_nakayama_pair on
any real torus; the tests check the factors against it, and it is the
engine of endotransfer h1.  The cocycle constructions fix these auxiliary
choices, recorded in every report:

* canonical reflection representatives n(w) built from the pinning;
* the compact-Cartan realization with torus twist t_q = e(-rho_check / 2);
* the duality pairing sign of cohomology.DUALITY_CONVENTION.

Individual values of the first and third factor depend on these choices;
their product against the middle factor does not, and is pinned by the
stable-conjugacy invariant (tested against an independent matrix model).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import mul, sub
from typing import Callable, Optional, Sequence, Union

# Unused here: perfbench/tracing.py wraps these names in this module, so they
# stay until its cohomology layers are dropped.
from .cohomology import cocycle_class, h1, quotient_torus_lattice, tate_nakayama_pair  # noqa: F401
from .lattice import IntVec, common_denominator, dot, dot_in_order, row_images, row_table
from .realform import RealFormGrading
from .record import Record
from .rootdata import (
    RootDatum,
    WeylElement,
    build_sub_datum,
    enumerate_weyl,
    right_coset_representatives,
    weyl_subgroup,
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


class Diagram(Record):
    __slots__ = _fields = ("datum", "w", "x_h", "x_g")


def negative_entries(signs: tuple[int, tuple[int, ...]], negative: int) -> int:
    """One sign of the transfer table (TransferFactorEngine.transfer_table)
    for every element of W at once, at a point of mask negative: the
    elements whose sign is -1 there, as bit k for the k-th.

    The routes take every root-sign product from the mask of positive roots
    of G negative at a point, which require_regular returns (bit k for the
    k-th positive root).  sign<alpha, w x> = sign<w^{-1} alpha, x>, so the
    product over a set S of roots at w x is (-1)^(parity + |mask & neg(x)|),
    mask holding the positive roots +-w^{-1} alpha and parity counting the
    alpha in S with w^{-1} alpha < 0.  That is linear over GF(2) in the
    point's mask, so signs = (start, columns) gives it for every w:
    start holds the bits at a point whose mask is 0, and columns[b] the
    bits of the entries whose mask holds the b-th positive root, XORed in
    when that root is negative at the point."""
    bits, columns = signs
    for column in columns:
        if not negative:
            break
        if negative & 1:
            bits ^= column
        negative >>= 1
    return bits


def build_endoscopic_datum(g_datum: RootDatum, s_simple_signs: Sequence[int]) -> EndoscopicDatum:
    """The endoscopic datum of the character s with these signs on the
    simple coroots.  H's roots are those whose coroot has even parity
    <2 xhat_s, coroot>.  That parity is additive on coroots, so H's
    coroots are symmetric and closed inside G's by construction;
    build_sub_datum checks the root side."""
    if len(s_simple_signs) != len(g_datum.simple_roots):
        raise EndoscopyError("one sign per simple coroot is required")
    if any(s not in (1, -1) for s in s_simple_signs):
        raise EndoscopyError("character signs must be +1 or -1")
    two_xhat = tuple(1 if s == -1 else 0 for s in s_simple_signs)
    # s(coroot) = (-1)^<2 xhat_s, coroot>
    h_roots = tuple([r for r, c in zip(g_datum.roots, g_datum.coroots) if not sum(map(mul, two_xhat, c)) & 1])
    h_label = f"{g_datum.cartan_label}|s={''.join('+' if s == 1 else '-' for s in s_simple_signs)}"
    h_datum = build_sub_datum(g_datum, h_roots, h_label)
    return EndoscopicDatum(
        g_datum=g_datum,
        s_simple_signs=tuple(int(s) for s in s_simple_signs),
        xhat_s=tuple(Fraction(x, 2) for x in two_xhat),
        h_roots=h_roots,
        h_datum=h_datum,
    )


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


class TransferFactorEngine:
    """Evaluates the normalized transfer factor for one endoscopic scenario.

    Carries the ambient Weyl group, both real Weyl groups, the base diagram,
    and the exact data entering the first and third factors: 2 rho_check and
    2 xhat_s as integer vectors, the root permutation of every w with the
    position of w^{-1}, w . 2 rho_check for every w, and for every root the
    parity of <2 xhat_s, its coroot>.  The factors are then parities of
    integer dot products on X_*/2X_*.  negated holds the position of
    omega w = -w for every w, which the transform route pairs w with.

    Every group law of set-up is read by position from W's right Cayley
    table (WeylGroup.table: 144 ints on B3, 1,536 on B4, 4,608 on F4):
    W_H with its positions in W (weyl_subgroup), the positions of w^{-1},
    w^{-2} and -w, and the pair table's group law of G (group_products).

    real_weyl_h is a function of no arguments that closes W_real(H), called
    on the first read of real_weyl_h: no route reads it.
    """

    def __init__(
        self,
        datum: EndoscopicDatum,
        grading_g: RealFormGrading,
        grading_h: RealFormGrading,
        real_weyl_g: tuple[WeylElement, ...],
        real_weyl_h: Callable[[], tuple[WeylElement, ...]],
        base_x_h: EllipticElement,
        base_x_g: EllipticElement,
        base_value: complex = 1.0,
    ):
        self.datum = datum
        self.g_datum = datum.g_datum
        self.grading_g = grading_g
        self.grading_h = grading_h
        self.weyl_g = group = enumerate_weyl(self.g_datum)
        self.weyl_h = weyl_subgroup(group, datum.h_datum)
        self.real_weyl_g = real_weyl_g
        self._close_real_weyl_h = real_weyl_h
        self.base_value = base_value

        self.two_rho_check = _vector_sum(self.g_datum.coroot(r) for r in self.g_datum.positive_roots)
        self.two_xhat_s = tuple(int(2 * x) for x in datum.xhat_s)
        self._position = {w: k for k, w in enumerate(group)}
        self._root_sets()
        self._perms = group.perms
        # -1, when W holds it, is its longest element, which the search
        # finds last.
        if self._perms[-1] != self._negation:
            raise EndoscopyError(
                f"-1 in the Weyl group: {self.g_datum.cartan_label} has no Weyl element acting by -1, "
                "and the transfer factor is normalized through n(omega) with omega = -1"
            )
        self.omega = group[-1]
        self._inverse, self._inverse_square = group.inverses()
        (self.negated,) = group.left_rows((len(group) - 1,))
        # The row table of W's matrices, which the pair table reads too,
        # gives w 2 rho_check for every w at once.
        self.g_rows = row_table([w.matrix for w in group])
        self._two_rho_images = tuple(zip(*row_images(self.g_rows, self.two_rho_check)))
        self.h_positions = self.weyl_h.positions
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

    @cached_property
    def real_weyl_h(self) -> tuple[WeylElement, ...]:
        """W_real(H), closed on first read."""
        return self._close_real_weyl_h()

    # -- auxiliary lattice data -------------------------------------------

    def _root_sets(self) -> None:
        """Indices into g_datum.roots of the simple roots and the positive
        roots, the root permutation of -1, for each root the bit of the
        positive root +-it with 1 when it is negative, and for each root the
        parity of <2 xhat_s, its coroot>, which is 1 exactly off Phi_H."""
        d = self.g_datum
        index = d._index
        self._negation = tuple(index[tuple(-x for x in r)] for r in d.roots)
        self._positive_index = tuple(index[r] for r in d.positive_roots)
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

    def delta_i(self, diagram: Diagram) -> int:
        """Pairing of the splitting-cocycle class with the transported
        endoscopic character: (-1)^<2 xhat_s, 2 rho_check>, the same at
        every diagram.  The cocycle is e(P / 4) with P = w 2 rho_check +
        2 rho_check + 2 (w beta)^vee summed over the beta > 0 with
        a(w beta) < 0 (delta(w) = 0 adds nothing, see _check_tits_central).
        Delta_I Delta_II does not depend on the a-datum (Langlands-Shelstad
        1987, section 3), so the engine takes the one whose ratios are all
        1, where a(w beta) < 0 exactly when w beta < 0.  The positive
        roots are the w beta > 0 and the -w beta with w beta < 0, so
        2 rho_check is w 2 rho_check - 2 (w beta)^vee summed over the
        beta > 0 with w beta < 0, and P = 2 w 2 rho_check.  The class P / 2 = w 2 rho_check paired with
        w . xhat_s = (w^{-1})^T xhat_s is (-1)^<2 xhat_s, 2 rho_check>."""
        return parity_sign(sum(map(mul, self.two_xhat_s, self.two_rho_check)))

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

    def delta_ii(self, diagram: Diagram) -> int:
        """Sign product at x_g over the positive roots outside the image of
        H.  At the a-datum of delta_i, whose ratios are all 1, the a-signs
        are +1."""
        return root_signs(self.delta_ii_roots(diagram.w), diagram.x_g.coords)

    def delta_iii(self, diagram: Diagram, base: Optional[Diagram] = None) -> int:
        """kappa = xhat_s paired with the class b^{-2} rho_check - w^{-2}
        rho_check on T, w and b the diagrams' Weyl elements: the value is
        (-1)^<2 xhat_s, (b^{-2} 2 rho_check - w^{-2} 2 rho_check) / 2>.  It
        depends only on w and b."""
        if base is None:
            base = self.base_diagram
        if base.datum is not self.datum or diagram.datum is not self.datum:
            raise EndoscopyError("diagrams come from different endoscopic data")
        signs, position = self._delta_iii_signs, self._position
        return signs[position[diagram.w]] * signs[position[base.w]]

    @cached_property
    def _delta_iii_signs(self) -> tuple[int, ...]:
        """delta_III against the identity for every w, in the order of
        weyl_g: (-1)^<2 xhat_s, (2 rho_check - w^{-2} 2 rho_check) / 2>, or
        EndoscopyError naming delta_III when a class is not integral.  Its
        value against a base b is the product of w's and b's: the class
        b^{-2} 2 rho_check - w^{-2} 2 rho_check is w's class against the
        identity minus b's, and a sign is its own inverse.  w's class
        depends on w^{-2} alone, which takes fewer values than w (12 on B3,
        of 48), so each class is paired once, in the order of weyl_g."""
        two_xhat, two_rho, images = self.two_xhat_s, self.two_rho_check, self._two_rho_images
        signs = {}
        for u in dict.fromkeys(self._inverse_square):
            doubled = tuple(map(sub, two_rho, images[u]))
            if any([x & 1 for x in doubled]):
                raise EndoscopyError(f"delta_III: (1 - sigma) x = {doubled} / 2 is not integral; not a cocycle")
            # An even class pairs to an even integer, whose bit 1 is the
            # parity of the pairing with the class halved.
            signs[u] = -1 if sum(map(mul, two_xhat, doubled)) & 2 else 1
        return tuple(map(signs.__getitem__, self._inverse_square))

    # -- normalized transfer factor ---------------------------------------

    def transfer_table(self) -> dict[str, Union[int, tuple[int, tuple[int, ...]]]]:
        """The pair-independent part of relative_factor for every w_k of
        weyl_g, as the sign columns the routes read (negative_entries).
        relative_factor at (w, x_h, x_g) is the root signs at x_g of the
        positive roots outside w Phi_H times

            sign(w) = delta_III(w, base) delta_II(base),

        taken from the factors at the diagram (w, x_h, w x_h) of the base
        point's x_h; delta_I is the same at every diagram (delta_i), so it
        drops out.  delta_III depends on w alone, so it is read by
        position from _delta_iii_signs, w's sign times the base's, as
        delta_iii reads it.  The base diagram's w is 1, the first of
        weyl_g, so delta_II there is the sign of x_g's mask on the
        positive roots outside Phi_H.

        The routes read four signs at a point x, keyed by name:

            weight_at     the factor at (w, w^{-1} x, x): sign(w) times the
                          signs at x of the roots outside w Phi_H, for the
                          entry of w_k^{-1} at bit k, the weight the
                          transform route reads for w_k;
            weight_moved  the factor at (w, x, w x): sign(w) times those
                          roots' signs at w x;
            h_sign        the sign of prod <beta, w x> over Phi+_H;
            g_sign        the sign of prod <alpha, w x> over Phi+_G,
                          (-1)^(length + |neg(x)|).

        The sign columns are read root by root, with no loop over W: the
        images w_0 alpha, w_1 alpha, ... of a positive root alpha, one byte
        each, mapped through a table of b"0" and b"1" over the roots, spell
        a binary number whose bit k is w_k's.  alpha is outside w Phi_H
        exactly when w^{-1} alpha is off Phi_H, so

            weight_at     alpha's column has bit k when w_k alpha is off
                          Phi_H, alpha being outside w_k^{-1} Phi_H;
            h_sign        alpha's column has bit k when w_k alpha is in
                          Phi_H, +-w_k alpha in Phi+_H: the complement;
            weight_moved  w^{-1} takes the roots outside w Phi_H onto
                          those off Phi_H, so alpha's column is all of W
                          when alpha is off Phi_H and empty otherwise.

        A start is the sign at a point of mask 0, where a root of the
        product is negative at w x when w^{-1} makes it negative.
        weight_at's is sign(w_k^{-1}) at bit k, its roots being positive
        there; weight_moved's is sign(w) times the parity of the -w^{-1}
        alpha, that is of the beta > 0 off Phi_H with w beta < 0; h_sign's
        is the parity of the gamma > 0 with w gamma in -Phi+_H.  Such a
        parity is the XOR over its roots of the number whose bit k says
        that w_k sends the root to a negative one (in Phi_H for h_sign).
        Every positive root is in the mask of Phi+_G, so g_sign is kept as
        its start alone: the length bits, bit k the parity of Phi+_G at w_k
        x for a point of mask 0, the gamma > 0 with w_k gamma < 0, that is
        the length of w_k's reduced word.  A point with |neg(x)| odd
        complements them."""
        base_outside = sum([1 << self._bits[j][0] for j in self._outside_h(self._perms[0])])
        base_sign = parity_sign((base_outside & self._base_negative).bit_count())
        # delta_III(w, base) is w's sign against the identity times the
        # base's (_delta_iii_signs), read by position.  delta_II's root
        # signs at x_g cancel against the route's.
        iii = self._delta_iii_signs
        sign = base_sign * iii[self._position[self.base_diagram.w]]
        flipped = [k for k, t in enumerate(iii) if sign * t < 0]
        positive, off_h = self._positive_index, self._s_parity
        negative = [n for _, n in self._bits]

        # A translation table: each root's flag as the digit b"0" or b"1".
        def digits(flags):
            return bytes([b"01"[f] for f in flags]).ljust(256, b"0")

        outside, below = digits(off_h), digits(negative)
        below_in_h = digits([n & ~p for n, p in zip(negative, off_h)])
        # Each root's images under w_{|W|-1}, ..., w_1, w_0, so that w_0's
        # digit comes last; a root system within WEYL_ORDER_CAP has fewer
        # than 256 roots.
        images = tuple(zip(*reversed(self._perms)))
        at_columns = []
        lengths = moved_start = h_start = 0
        for j in positive:
            column = bytes(images[j])
            at_columns.append(int(column.translate(outside), 2))
            sent_below = int(column.translate(below), 2)
            lengths ^= sent_below
            if off_h[j]:
                moved_start ^= sent_below
            h_start ^= int(column.translate(below_in_h), 2)
        every = (1 << len(iii)) - 1
        inverse = self._inverse
        return {
            "weight_moved": (
                moved_start ^ sum([1 << k for k in flipped]),
                tuple([every if off_h[j] else 0 for j in positive]),
            ),
            "g_sign": lengths,
            "weight_at": (sum([1 << inverse[k] for k in flipped]), tuple(at_columns)),
            "h_sign": (h_start, tuple([every ^ column for column in at_columns])),
        }

    def group_products(self) -> tuple[tuple[int, ...], ...]:
        """Left multiplication by W_real(G) on W: for each u of real_weyl_g,
        in its order, the row whose k-th entry is the position of u w_k in
        weyl_g, read from W's table (WeylGroup.left_rows)."""
        position = self._position
        return self.weyl_g.left_rows([position[u] for u in self.real_weyl_g])

    def relative_factor(self, diagram: Diagram) -> int:
        """delta_I delta_II delta_III at diagram relative to the base
        diagram.  Each factor is +-1, so the ratio is a product, and
        delta_I is the same at both, so it drops out."""
        base = self.base_diagram
        return self.delta_ii(diagram) * self.delta_ii(base) * self.delta_iii(diagram, base)

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


def _vector_sum(vectors) -> IntVec:
    """The sum of one or more integer vectors."""
    return tuple(map(sum, zip(*vectors)))

