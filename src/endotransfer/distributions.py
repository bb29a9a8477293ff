"""Weyl-sum kernels of Fourier-transformed orbital integrals and the
two-route identity check between the endoscopic sum and its transform.

The two routes are independent summation structures.  The transfer route
sums the ambient kernel over W and W_real(G) against transfer-factor
weights, regrouped by G's group law (PairTable.g_law) so that each element
of W takes one exponential.  The transform route is H's stable sum, over W
and W_H: det(u') [D/pi](w' x_h) = [D/pi](u' w' x_h) for u' in W_real(H)
and w' in W_H, so a sum over W_real(H) would add |W_real(H)| equal copies
of it.  Neither reads anything the other computes for a pair, and neither
uses the invariance of the factors under W_real(G) or W_H, or the
W-invariance of B.  Both take their Weyl images from the row tables of W
and W_H in the scenario's pair table.  Each route returns its value with
its closed-form w-terms, built from its own exponentials and signs: the
transfer route's exponential of z = w, the transform route's of z = 1
against w x_g.  The term-by-term comparison pairs the w-term of the first
route with the w^{-1}-term of the second, each carrying its own Weil
constant and dimension prefactor; it computes nothing of either route
again, and keeps only the largest difference.

Signs are computed once per Weyl chamber.  Every weight, [D/pi] sign and
coefficient a route multiplies in is read from require_regular's mask of
the positive roots negative at x_h or x_g, and a regular point's mask
names its chamber.  So each route keeps them in its own memo on the pair
table, filled from its own sign columns the first time a chamber is seen:
d_gh's, folded over G's group law, under (mask of x_h, parity of x_g's
mask), d_tilde_gh's under x_h's mask and under x_g's.  A pair in
chambers already seen computes its images, form products, unit phases and
sums, and nothing else.  The memos hold at most one entry per chamber (two
for d_gh's key): about 0.76 MB on B3 and 45 MB on B4 once every chamber
is visited (PairTable).  Each product the memos keep is taken in the order
and association the pair would take it, so a warm pair gives the bits of a
cold one.

A fill is a few lookups.  Each sign it needs is linear over GF(2) in the
point's mask, so the table keeps, per sign kind, one |W|-bit integer per
positive root (endoscopy.negative_entries): the signs of all w at once are
the XOR of the columns of the roots negative at the point.  The sign of
[D/pi](w x_h) on G reads every root, so it keeps only its start, w's
length bits, complemented at a point whose mask is odd.  Two such bit
rows, spread into hex digits, give each w a digit 0-3 (one alone gives a
binary digit), and each front is read from a dict of at most four values,
computed once per scenario (EllipticScenario.chamber_values) with the
operands, in the order, that the pair's own term would take.  d_gh's fold
multiplies each distinct (value, det) once and adds the products in the
order of W_real(G).  d_gh reads the kinds weight_moved and g_sign,
d_tilde_gh weight_at and h_sign; neither reads the other's.

Weyl images come from the pair table's row tables (lattice.row_table):
over W, row i of w's matrix takes |W|/|W_(i)| values, 6, 12 and 8 of 48 on
B3, so a pass takes one dot per distinct row and gathers each element's
coordinates in C, each with dot_in_order's operands, in its order, on the
element's own row.  The rows are integers, and m * x has the bits of
float(m) * x, so an exact or mixed x_g reads the same rows and stays exact
until it meets the form.  The transform route applies B to the images of
the leads (below) alone (Side.form_points).

Every unit phase exp(-i scale p) of either route is one expression over
a point tuple: with the image u and B v each padded with 0.0 to MAX_RANK
(rootdata's rank cap, 4) coordinates,

    rect(1.0, 0.0 - scale * ((((0.0 + a0*b0) + a1*b1) + a2*b2) + a3*b3))

for u = (a0, a1, a2, a3) and B v = (b0, b1, b2, b3).  The padding keeps
every bit of the contraction sum_i u_i (B v)_i accumulated in order from
0.0 over the point's own rank: every float operation keeps its operands
and its left-to-right order, a padded term is 0.0 * 0.0 = +0.0, and a
partial sum that starts at 0.0 + is never -0.0 (an exact zero sum of two
floats is -0.0 only when both are), so adding +0.0 to it changes no bit.
cmath.rect(1.0, 0.0 - scale * p) gives the bits of cmath.exp(1j *
-(scale * p)), signed zeros included: the real part of 1j * t is a zero,
so exp takes e^0 = 1.0 and returns (cos t, sin t) with t = 0.0 + t, and
0.0 - scale * p turns a zero phase into +0.0 as that sum does.

The transform route takes the unit phases of w and -w = omega w in one loop
(the loader requires omega = -1 in W).  For the first of the two in the
order of W, the lead, the loop over z takes each phase e once and adds
c_z e to the lead's inner sum and conj(c_z) e to a second sum; the inner
sum of -w is the second with sigma(x) = 0.0 - x on its imaginary part, and
its phase at z = 1 is the lead's with sigma on the imaginary part.  These
are the bits of -w's own loop:

- The images satisfy p(-w) = sigma(p(w)).  The matrix of -w is w's
  negated, so each product of a row with the point is negated (a padded
  term stays the integer 0); a sum from 0 is never -0.0,
  so the sum of negated terms is sigma of the sum, +0.0 where that is a
  zero.  B is linear, B(u, -v) = -B(u, v), so the same holds for B -w x_g,
  for each contraction p, and for 0.0 - scale * p.
- cos is even and sin odd in the platform's libm, so rect gives -w the
  lead's phase with sigma on its imaginary part: the conjugate, except
  that at a zero phase both are (1.0, +0.0).
- CPython's complex product gives c (a, -d) the real part of conj(c) (a, d)
  and its imaginary part negated, term by term, up to the sign of a zero
  part.
- A sum that starts at +0.0 takes no sign from a zero term, so it keeps
  sigma: -w's inner sum has the real part of the second sum and sigma of
  its imaginary part.

So sigma is taken, not .conjugate() alone, which would give -0.0 where
the direct loop gives +0.0 at a zero phase.  The route takes it as
.conjugate() + 0j, one call and one sum: -x + 0.0 is 0.0 - x for every x,
and a real part that is never -0.0 keeps its bits under + 0.0.  The
argument uses only the linearity of B: no W-invariance of B, no
invariance of the factors, and nothing of d_gh.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat

from .endoscopy import (
    EllipticElement,
    EndoscopyError,
    TransferFactorEngine,
    negative_entries,
    parity_sign,
    require_regular,
)
from .lattice import dot_in_order, row_images, row_table
from .realform import EighthRoot, RealFormGrading, dimension_profile, prefactor, weil_constant
from .record import MutableRecord, Record, set_attribute
from .rootdata import MAX_RANK, RootDatum, WeylElement
# Unused here: perfbench/tracing.py wraps this name in this module, so it
# stays until that layer is dropped.
from .rootdata import weyl_sign  # noqa: F401


class KernelValue(Record):
    """A Weyl sum with its terms: rossmann_kernel's (w, term) pairs over the
    real Weyl group, or a route's w-terms in the order of W."""

    __slots__ = _fields = ("value", "terms")


class IdentityReport(Record):
    __slots__ = _fields = ("lhs", "rhs", "abs_error", "termwise_max", "passed")


class Side:
    """Evaluation data for one group of the pair (ambient or endoscopic).

    The invariant form is held as floats, the datum's float_form, and each
    real Weyl element with its determinant, so that kernel evaluation does
    no exact arithmetic.  det w is (-1)^k for any word of k reflections
    that gives w, such as the element's own word.  real_weyl is given as a
    function of no arguments, called on the first read of real_weyl or
    weyl_table: the H side's is the engine's W_real(H), which no route
    reads.  gamma and the prefactor are read from one dimension profile,
    gamma at the form's signature (dim g/k, dim k).
    """

    def __init__(self, datum: RootDatum, grading: RealFormGrading, real_weyl, form, form_scale):
        self.datum = datum
        self.grading = grading
        self._real_weyl = real_weyl
        # Each row padded with the integer 0 to MAX_RANK entries, for
        # form_points; form_image's pairing stops at the point's rank.
        self._form = tuple(row + (0,) * (MAX_RANK - len(row)) for row in form)
        self._scale = float(form_scale)
        self.profile = profile = dimension_profile(grading)
        self.gamma: EighthRoot = weil_constant(profile.dim_g_over_k, profile.dim_k)
        self.prefactor: EighthRoot = prefactor(profile)
        self._gamma = complex(self.gamma)
        self._prefactor = complex(self.prefactor)
        self._d_over_pi_unit = complex(EighthRoot(-2 * len(datum.positive_roots)))

    @cached_property
    def real_weyl(self) -> tuple[WeylElement, ...]:
        return tuple(self._real_weyl())

    @cached_property
    def weyl_table(self) -> tuple[tuple[WeylElement, int], ...]:
        """Each element of real_weyl with its determinant."""
        return tuple([(w, parity_sign(len(w.word))) for w in self.real_weyl])

    def form_image(self, v) -> tuple[float, ...]:
        """B v before the scale: each row of the form paired with v."""
        v = tuple(map(float, v))
        return tuple(dot_in_order(row, v) for row in self._form)

    def form_points(self, table, v):
        """B u before the scale for the image u = M_k v of each matrix of a
        row table, as padded point tuples (padded_points): coordinate i is
        (((0 + b_i0 u_0) + b_i1 u_1) + b_i2 u_2) + b_i3 u_3, form_image's
        sum, over the form's row and u padded with the integer 0, which
        changes no bit (lattice.row_images).  An exact u_j meets the float
        form at a float multiply, which converts it as form_image does."""
        images = row_images(table, v)
        pad = MAX_RANK - len(images)
        columns = []
        for b0, b1, b2, b3 in self._form:
            columns.append([
                (((0 + b0 * c0) + b1 * c1) + b2 * c2) + b3 * c3
                for c0, c1, c2, c3 in zip(*images, *repeat(repeat(0), pad))
            ])
        return padded_points(columns)

    def d_over_pi(self, x: EllipticElement) -> complex:
        """D^{1/2}(X)/pi(X) on the compact Cartan: (-i)^m sign(prod <alpha,v>),
        the sign read from require_regular's mask of negative roots."""
        return self.d_over_pi_at(parity_sign(require_regular(self.datum, x).bit_count()))

    def d_over_pi_at(self, sign: int) -> complex:
        """D^{1/2}/pi at a point where prod <alpha, v> over the positive
        roots has this sign."""
        return self._d_over_pi_unit * sign

    def exponentials(self, columns, bv) -> list[complex]:
        """exp(-i B(u, v)) for each image u of the image columns (columns[i][k]
        coordinate i of the k-th), given B v from form_image: one expression
        per image, over u and B v zero-padded to MAX_RANK coordinates (see
        the module docstring).  An exact image coordinate meets the float at
        a float multiply, which converts it as float() does."""
        b0, b1, b2, b3 = chain(bv, repeat(0.0, MAX_RANK - len(bv)))
        scale = self._scale
        rect = cmath.rect
        return [
            rect(1.0, 0.0 - scale * ((((0.0 + a0 * b0) + a1 * b1) + a2 * b2) + a3 * b3))
            for a0, a1, a2, a3 in padded_points(columns)
        ]


def padded_points(columns, *leading):
    """The points of image columns (columns[i][k] coordinate i of the k-th),
    each a flat tuple of the k-th item of each leading sequence, then its
    coordinates, then 0.0 up to MAX_RANK of them."""
    return zip(*leading, *columns, *repeat(repeat(0.0), MAX_RANK - len(columns)))


class PairTable(Record):
    """Everything a pair reads besides its two points, fixed per scenario.

    inverse holds the position of w^{-1} for every w of W, in the order of
    weyl_g, by which the terms of the two routes are paired.  g_rows and
    h_rows are the row tables (lattice.row_table) of the integer matrices
    of W and of W_H, in the order of weyl_g and of weyl_h, from which the
    routes take every image of a point.  g_law is G's group law, which d_gh
    regroups by: for the r-th element u of W_real(G), the row whose k-th
    entry is the position of u w_k in W.  d_tilde_gh, H's stable sum, needs
    no group law.

    Four attributes besides the fields are derived at set-up.  signs is
    the transfer table, the engine's sign columns
    (TransferFactorEngine.transfer_table, endoscopy.negative_entries),
    keyed by the sign they give: weight_moved and h_sign of w_k at bit k,
    weight_at of w_k^{-1} at bit k, and g_sign as w_k's length bit alone;
    a table built without them serves no route.  leads and partners pair
    each w of W with -w, from negated, the position of -w for every w
    (TransferFactorEngine.negated): for each pair, the position of the
    first of the two in the order of W, the lead, and of the other, |W|/2
    of each.  d_tilde_gh takes the unit phases of a lead and reads its
    partner's from them; a table built without negated serves no
    d_tilde_gh.  lead_rows is the row table of the leads' matrices, from
    which d_tilde_gh takes B w x_g for the leads (Side.form_points).

    Every sign a route multiplies in is read from require_regular's mask of
    a point, and a regular point's mask names its Weyl chamber, so each
    route keeps what it computes from the masks in a memo of its own,
    filled the first time a chamber is seen; a pair in chambers already
    seen computes only its phases.  g_memo, d_gh's, maps (mask of x_h,
    parity of x_g's mask) to the folded multiplicities and the term fronts.
    h_memo, d_tilde_gh's, is two dicts: x_h's mask to the coefficients
    prefactor [D/pi](z x_h) of the z in W_H with the sign of [D/pi](x_h),
    and x_g's mask to the products weight(w^{-1}) [D/pi](w x_g) with the
    term fronts for either sign of [D/pi](x_h).  Neither memo is a field.

    The memos grow to at most one key per chamber in each dict, two in
    g_memo, and hold 2|W| complex numbers under a key of g_memo, |W_H| or
    3|W| under one of h_memo: at most about 280|W|^2 + 40|W||W_H| bytes on
    CPython, 0.76 MB on B3 (|W| = 48) and 45 MB on B4 (|W| = 384), which a
    run reaches only after pairs in both parities of every one of B4's 384
    chambers, at about 10 ms a pair (2-core x86-64 host, CPython 3.11).
    The sign columns are 3(|Phi+| + 1) integers of |W| bits and the length
    bits, 1.4 KB on B3 and 2.9 KB on B4 with their tuples; inverse is the
    engine's own tuple (TransferFactorEngine._inverse).  The row tables
    hold 26, 22 and 19 distinct rows on B3 and 80, 72 and 61 on B4 (W,
    W_H, the leads), and their gathers one index per element and
    coordinate: 9.4 KB on B3 and 43 KB on B4.  The pairing's two tuples
    hold |W| entries, 0.5 KB on B3 and 6.6 KB on B4 with their integers."""

    _fields = ("inverse", "g_rows", "h_rows", "g_law")
    __slots__ = _fields + ("signs", "leads", "partners", "lead_rows", "g_memo", "h_memo")

    def __init__(self, inverse, g_rows, h_rows, g_law, *, signs=None, negated=()):
        super().__init__(inverse, g_rows, h_rows, g_law)
        set_attribute(self, "signs", signs)
        leads = tuple([k for k, minus in enumerate(negated) if k < minus])
        set_attribute(self, "leads", leads)
        set_attribute(self, "partners", tuple([negated[k] for k in leads]))
        # Each element of W as its padded rows, gathered from g_rows.
        weyl = [*zip(*[pick(rows) for rows, pick in g_rows])]
        set_attribute(self, "lead_rows", row_table([weyl[k] for k in leads]))
        set_attribute(self, "g_memo", {})
        set_attribute(self, "h_memo", ({}, {}))


class EllipticScenario(MutableRecord):
    """A fully assembled elliptic verification scenario.  Its pair table,
    chamber values and phase bound are cached_property values, kept in the
    instance's __dict__; the loader sets the phase bound it checks
    form_scale against."""

    _fields = ("name", "engine", "g_side", "h_side", "form_scale")

    def __init__(
        self,
        name: str,
        engine: TransferFactorEngine,
        g_side: Side,
        h_side: Side,
        form_scale: Fraction = Fraction(1),
    ):
        self.name = name
        self.engine = engine
        self.g_side = g_side
        self.h_side = h_side
        self.form_scale = form_scale

    @cached_property
    def table(self) -> PairTable:
        """The scenario's pair table, built on the first pair."""
        eng = self.engine
        return PairTable(
            eng._inverse,
            eng.g_rows,
            row_table([w.matrix for w in eng.weyl_h]),
            eng.group_products(),
            signs=eng.transfer_table(),
            negated=eng.negated,
        )

    @cached_property
    def chamber_values(self) -> tuple:
        """The values the chamber fills read by sign digit (SIGN_DIGITS),
        which depend on the scenario alone, each computed once with the
        operands, in the order, that the pair's own term would take: d_gh's
        fronts and terms for each parity of x_g's mask (_g_chamber),
        d_tilde_gh's fronts by the h_sign digit of an element of W_H
        (_h_chamber), and its products with the term fronts for either sign
        of [D/pi](x_h) (_x_g_chamber)."""
        base = self.engine.base_value
        g, h = self.g_side, self.h_side
        g_values = {}
        for parity in (0, 1):
            d_y = g.d_over_pi_at(parity_sign(parity))
            front = g._gamma * g._prefactor * d_y
            fronts, terms = {}, {}
            for digit, sign, g_sign in SIGN_DIGITS:
                weight, d_x = sign * base, g.d_over_pi_at(g_sign)
                fronts[digit] = weight * (g._prefactor * d_x) * d_y
                terms[digit] = front * weight * d_x
            g_values[parity] = fronts, terms
        h_fronts = {"0": h._prefactor * h.d_over_pi_at(1), "1": h._prefactor * h.d_over_pi_at(-1)}
        plus = h._gamma * h._prefactor * h.d_over_pi_at(1)
        minus = h._gamma * h._prefactor * h.d_over_pi_at(-1)
        products, plus_fronts, minus_fronts = {}, {}, {}
        for digit, sign, h_sign in SIGN_DIGITS:
            weight, d_y = sign * base, h.d_over_pi_at(h_sign)
            products[digit] = weight * d_y
            plus_fronts[digit] = plus * weight * d_y
            minus_fronts[digit] = minus * weight * d_y
        return g_values, h_fronts, (products, {1: plus_fronts, -1: minus_fronts})

    @cached_property
    def phase_bound(self) -> float:
        """verify.phase_bound at the base points, computed on first use."""
        # verify imports this module, so its function is looked up here.
        from .verify import phase_bound

        base = self.engine.base_diagram
        return phase_bound(self.engine.g_datum, (base.x_h.coords, base.x_g.coords))


def make_scenario(
    name: str,
    engine: TransferFactorEngine,
    form_scale=Fraction(1),
) -> EllipticScenario:
    g = engine.g_datum
    h = engine.datum.h_datum
    g_side = Side(g, engine.grading_g, lambda: engine.real_weyl_g, g.float_form, form_scale)
    h_side = Side(h, engine.grading_h, lambda: engine.real_weyl_h, g.float_form, form_scale)
    return EllipticScenario(
        name=name, engine=engine, g_side=g_side, h_side=h_side, form_scale=Fraction(form_scale)
    )


def rossmann_kernel(side: Side, x: EllipticElement, y: EllipticElement) -> KernelValue:
    """Normalized Fourier kernel of the orbital integral:
    prefactor * [D/pi](x) [D/pi](y) * sum over the real Weyl group of
    det(w) exp(-i B(w u, v)); the form convention is <iu, iv> = -B(u, v)."""
    front = side._prefactor * side.d_over_pi(x) * side.d_over_pi(y)
    images = row_images(row_table([w.matrix for w in side.real_weyl]), x.floats())
    phases = side.exponentials(images, side.form_image(y.floats()))
    terms = []
    total = complex(0.0)
    for (w, det), phase in zip(side.weyl_table, phases):
        contrib = front * det * phase
        terms.append((w, contrib))
        total += contrib
    return KernelValue(total, tuple(terms))


def pair_masks(scenario: EllipticScenario, x_h: EllipticElement, x_g: EllipticElement):
    """require_regular's masks (of x_h, of x_g) for the ambient system; None
    when x_h sits on an ambient wall: H-regular elements there match no
    diagram, so both sums vanish, and x_g is not looked at."""
    g = scenario.engine.g_datum
    try:
        neg_h = require_regular(g, x_h)
    except EndoscopyError:
        require_regular(scenario.engine.datum.h_datum, x_h)
        return None
    return neg_h, require_regular(g, x_g)


def _digits(size: int, low: int, high: int) -> str:
    """For each k < size, in order, the hex digit bit k of low plus twice
    bit k of high: a binary numeral read in base 16 puts each bit in a
    digit of its own."""
    spread = int(f"{low:b}", 16) | int(f"{high:b}", 16) << 1
    return f"{spread:0{size}x}"[::-1]


# Each digit _digits writes, with the signs its low and high bits stand for.
SIGN_DIGITS = (("0", 1, 1), ("1", -1, 1), ("2", 1, -1), ("3", -1, -1))


def _fold(law, weyl_table, values, digits) -> list[complex]:
    """d_gh's multiplicities c_z = sum over u w = z of values[digits[w]] *
    det(u), for z in W, each summed over u in the order of W_real(G); each
    product is taken once per value and det."""
    counts = [complex(0.0)] * len(digits)
    by_det = {}
    for (_, det), row in zip(weyl_table, law):
        terms = by_det.get(det)
        if terms is None:
            products = {}
            for digit, value in values.items():
                products[digit] = value * det
            # [*map(...)] takes its list from CPython's free list, where
            # list(map(...)) allocates one that counts towards a collection.
            terms = by_det[det] = [*map(products.__getitem__, digits)]
        for z, term in zip(row, terms):
            counts[z] += term
    return counts


def _g_chamber(scenario: EllipticScenario, neg_h: int, parity: int):
    """d_gh's memo entry under (mask of x_h, parity of x_g's mask): the
    multiplicities folded over g_law and the term fronts.  The weight of
    every w is read from the sign columns, the sign of [D/pi](w x_h) from
    the length bits, and each front from the at most four values they
    select (EllipticScenario.chamber_values)."""
    table, side = scenario.table, scenario.g_side
    size = len(table.inverse)
    weights = negative_entries(table.signs["weight_moved"], neg_h)
    g_signs = table.signs["g_sign"]
    if neg_h.bit_count() & 1:
        # Every positive root is in every mask of Phi+_G.
        g_signs ^= (1 << size) - 1
    digits = _digits(size, weights, g_signs)
    fronts, terms = scenario.chamber_values[0][parity]
    return _fold(table.g_law, side.weyl_table, fronts, digits), [*map(terms.__getitem__, digits)]


def _h_chamber(scenario: EllipticScenario, neg_h: int):
    """d_tilde_gh's memo entry under x_h's mask: the coefficient
    prefactor [D/pi](z x_h) of each z in W_H, read from the h_sign digits
    of the elements of W_H, and the sign of [D/pi](x_h)."""
    table = scenario.table
    # One sign kind: its binary digits, bit k the k-th.
    digits = f"{negative_entries(table.signs['h_sign'], neg_h):0{len(table.inverse)}b}"[::-1]
    fronts = scenario.chamber_values[1]
    # The table's first entry is the identity's.
    return (
        [fronts[digits[k]] for k in scenario.engine.h_positions],
        -1 if digits[0] == "1" else 1,
    )


def _x_g_chamber(scenario: EllipticScenario, neg_g: int):
    """d_tilde_gh's memo entry under x_g's mask: for every w, the product
    weight(w^{-1}) [D/pi](w x_g), and the term fronts for each sign of
    [D/pi](x_h), which x_g's chamber does not fix."""
    table = scenario.table
    weights = negative_entries(table.signs["weight_at"], neg_g)
    digits = _digits(len(table.inverse), weights, negative_entries(table.signs["h_sign"], neg_g))
    products, by_sign = scenario.chamber_values[2]
    return [*map(products.__getitem__, digits)], {
        sign: [*map(fronts.__getitem__, digits)] for sign, fronts in by_sign.items()
    }


def d_gh(
    scenario: EllipticScenario, x_h: EllipticElement, x_g: EllipticElement, masks=None
) -> KernelValue:
    """Transfer route: Weyl-group sum of ambient kernels with factor weights.

    The terms weight(w) [D/pi](w x_h) [D/pi](x_g) det(u) exp(-i B(u w x_h,
    x_g)) over w in W and u in W_real(G) are regrouped by z = u w, the
    product of G's group law, so each z takes one exponential; the images
    z x_h come from one pass over W's row table.
    Weights and [D/pi] at w x_h come from the masks of x_h and x_g,
    pair_masks' (taken here when not given).  They fix the multiplicities
    of the z and the term fronts, which the table's g_memo keeps under x_h's
    mask and the parity of x_g's (_g_chamber): a pair in a chamber seen
    before reads them there.

    The value comes with the route's closed-form w-terms, in the order of
    W: gamma prefactor [D/pi](x_g) weight(w) [D/pi](w x_h) times the
    exponential of z = w; no terms when x_h sits on an ambient wall."""
    if masks is None:
        masks = pair_masks(scenario, x_h, x_g)
        if masks is None:
            return KernelValue(complex(0.0), ())
    neg_h, neg_g = masks
    table = scenario.table
    side = scenario.g_side
    key = neg_h, neg_g.bit_count() & 1
    chamber = table.g_memo.get(key)
    if chamber is None:
        chamber = table.g_memo[key] = _g_chamber(scenario, *key)
    counts, fronts = chamber
    images = row_images(table.g_rows, x_h.floats())
    phases = side.exponentials(images, side.form_image(x_g.coords))
    total = complex(0.0)
    for count, phase in zip(counts, phases):
        total += count * phase
    terms = tuple(front * phase for front, phase in zip(fronts, phases))
    return KernelValue(side._gamma * total / len(scenario.engine.real_weyl_g), terms)


def d_tilde_gh(
    scenario: EllipticScenario, x_h: EllipticElement, x_g: EllipticElement, masks=None
) -> KernelValue:
    """Transform route: doubled endoscopic sum against pulled-back elements.

    The inner kernels are H's stable sum (module docstring): each z of W_H
    takes the coefficient c_z = prefactor [D/pi](z x_h), the total is
    divided by |W_H| alone, and each w takes one exponential per z.
    The images z x_h come from one pass over W_H's row table, and B w x_g
    for the leads of the table's pairing of w with -w from one over the
    leads' row table, then one over B (Side.form_points); an exact or mixed
    x_g reads the same integer rows and stays exact until it meets the
    form.  The images z x_h are turned
    into flat tuples (coefficient c_z of z, its conjugate, then z x_h
    zero-padded to MAX_RANK coordinates), and B w x_g into padded point
    tuples.  For each lead w, one loop over z
    takes each unit phase e as the one expression of the module docstring
    and adds c_z e to w's inner sum and conj(c_z) e to -w's, whose
    imaginary part then takes 0.0 - x: |W| |W_H| / 2 unit phases, with the
    bits of a loop for each w (the module docstring says why).  No list of
    exponentials and no list per coordinate is built.  z = 1, the first
    element of W_H, is taken apart for the terms, and -w takes w's phase
    there with 0.0 - x on the imaginary part.  One pass in the order of W
    then sums the inner sums against the products.
    Weights and [D/pi] at moved points come from
    the masks of x_h and x_g, pair_masks' (taken here when not given).  The
    table's h_memo keeps what they fix: under x_h's mask the coefficients
    of the z and the sign of [D/pi](x_h) (_h_chamber), under x_g's the
    per-w products weight(w^{-1}) [D/pi](w x_g) and the term fronts for
    either sign (_x_g_chamber); a pair in chambers seen before reads them
    there.

    The value comes with the route's closed-form w-terms, in the order of
    W: gamma prefactor [D/pi](x_h) weight(w^{-1}) [D/pi](w x_g), the weight
    the table entry of w^{-1} at x_g, times w's exponential of z = 1, the
    first element of W_H; no terms when x_h sits on an ambient wall."""
    if masks is None:
        masks = pair_masks(scenario, x_h, x_g)
        if masks is None:
            return KernelValue(complex(0.0), ())
    neg_h, neg_g = masks
    eng = scenario.engine
    table = scenario.table
    side = scenario.h_side
    at_h, at_g = table.h_memo
    h_chamber = at_h.get(neg_h)
    if h_chamber is None:
        h_chamber = at_h[neg_h] = _h_chamber(scenario, neg_h)
    counts, sign = h_chamber
    g_chamber = at_g.get(neg_g)
    if g_chamber is None:
        g_chamber = at_g[neg_g] = _x_g_chamber(scenario, neg_g)
    products, by_sign = g_chamber
    (count_one, bar_one, o0, o1, o2, o3), *rest = padded_points(
        row_images(table.h_rows, x_h.floats()), counts, map(complex.conjugate, counts)
    )
    scale = side._scale
    rect = cmath.rect
    fronts = by_sign[sign]
    inners, terms = [None] * len(products), [None] * len(products)
    for lead, partner, (b0, b1, b2, b3) in zip(
        table.leads, table.partners, side.form_points(table.lead_rows, x_g.coords)
    ):
        one = rect(1.0, 0.0 - scale * ((((0.0 + o0 * b0) + o1 * b1) + o2 * b2) + o3 * b3))
        inner = 0j + count_one * one
        bar = 0j + bar_one * one
        for count, conj, a0, a1, a2, a3 in rest:
            e = rect(1.0, 0.0 - scale * ((((0.0 + a0 * b0) + a1 * b1) + a2 * b2) + a3 * b3))
            inner += count * e
            bar += conj * e
        inners[lead] = inner
        terms[lead] = fronts[lead] * one
        # -w's: conjugate() + 0j is sigma on the imaginary part (module docstring).
        inners[partner] = bar.conjugate() + 0j
        terms[partner] = fronts[partner] * (one.conjugate() + 0j)
    total = complex(0.0)
    for product, inner in zip(products, inners):
        total += product * inner
    return KernelValue(side._gamma * total / len(eng.weyl_h), tuple(terms))


def explicit_term(
    scenario: EllipticScenario, w: WeylElement, x_h: EllipticElement, x_g: EllipticElement, side: str
) -> complex:
    """Single-exponential w-term of the closed-form expansion of either
    route: side "G" reads it from d_gh's terms, side "H" from d_tilde_gh's;
    any other side is refused, as is a w outside the Weyl group.  x_h on an ambient wall is refused, as x_g
    is."""
    routes = {"G": d_gh, "H": d_tilde_gh}
    if side not in routes:
        raise ValueError(f'side must be "G" or "H", got {side!r}')
    route = routes[side]
    eng = scenario.engine
    try:
        position = eng.weyl_g.index(w)
    except ValueError:
        raise ValueError(
            f"w with matrix {w.matrix} is not in the Weyl group of {eng.g_datum.cartan_label}"
        ) from None
    g = eng.g_datum
    masks = require_regular(g, x_h), require_regular(g, x_g)
    return route(scenario, x_h, x_g, masks).terms[position]


def require_tolerance(tolerance: float) -> None:
    """ValueError unless 0 <= tolerance < inf: inf would pass every pair
    and nan fail every pair, each without a message."""
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be a nonnegative finite number, got {tolerance!r}")


def verify_identity(
    scenario: EllipticScenario,
    x_h: EllipticElement,
    x_g: EllipticElement,
    tolerance: float = 1e-12,
) -> IdentityReport:
    """Both routes, their difference, and the largest difference of the w
    vs w^{-1} pairing of the terms each route returns with its value.  The
    masks of x_h and x_g are taken once, for both routes; a tolerance
    outside 0 <= tol < inf is refused."""
    require_tolerance(tolerance)
    masks = pair_masks(scenario, x_h, x_g)
    regular = masks is not None
    termwise_max = 0.0
    lhs = rhs = lhs_sum = rhs_sum = complex(0.0)
    if regular:
        g_route = d_gh(scenario, x_h, x_g, masks)
        h_route = d_tilde_gh(scenario, x_h, x_g, masks)
        lhs, rhs, g_terms, h_terms = g_route.value, h_route.value, g_route.terms, h_route.terms
        termwise_max = max(
            (abs(t_lhs - h_terms[inverse]) for inverse, t_lhs in zip(scenario.table.inverse, g_terms)),
            default=0.0,
        )
        for t_lhs in g_terms:
            lhs_sum += t_lhs
        # The H-terms of the pairing, summed in the order of the Weyl group.
        for t_rhs in h_terms:
            rhs_sum += t_rhs
    abs_error = abs(lhs - rhs)
    consistent = (
        abs(lhs_sum - lhs) <= 64 * max(tolerance, 1e-15) * max(1.0, abs(lhs))
        and abs(rhs_sum - rhs) <= 64 * max(tolerance, 1e-15) * max(1.0, abs(rhs))
        if regular
        else True
    )
    passed = abs_error <= tolerance and termwise_max <= tolerance and consistent
    return IdentityReport(lhs, rhs, abs_error, termwise_max, passed)
