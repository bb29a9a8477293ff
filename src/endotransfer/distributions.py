"""Weyl-sum kernels of Fourier-transformed orbital integrals and the
two-route identity check between the endoscopic sum and its transform.

The two routes are independent summation structures.  The transfer route
sums the ambient kernel over W and W_real(G) against transfer-factor
weights; the transform route runs the doubled sum over W, W_H and
W_real(H).  Each regroups its terms by the group law of its own side
(PairTable.g_law or h_law), so that each group element takes one
exponential; neither reads the other's group law or anything the other
computes for a pair, and neither uses the invariance of the factors under
W_real(G) or W_H, or the W-invariance of B.  Both take their Weyl images
from the column tables of W and W_H in the scenario's pair table.  Each
route returns its value with its closed-form w-terms, built from its own
exponentials and signs: the transfer route's exponential of z = w, the
transform route's of z = 1 against w x_g.  The term-by-term comparison
pairs the w-term of the first route with the w^{-1}-term of the second,
each carrying its own Weil constant and dimension prefactor; it computes
nothing of either route again, and keeps only the largest difference.

Signs are computed once per Weyl chamber.  Every weight, [D/pi] sign and
folded multiplicity a route multiplies in is read from require_regular's
mask of the positive roots negative at x_h or x_g, and a regular point's
mask names its chamber.  So each route keeps them in its own memo on the
pair table, filled from its own sign columns and group law the first time
a chamber is seen: d_gh's under (mask of x_h, parity of x_g's mask),
d_tilde_gh's under x_h's mask and under x_g's.  A pair in chambers already
seen computes its images, form products, unit phases and sums, and nothing
else.  The memos hold at most one entry per chamber (two for d_gh's key):
about 0.76 MB on B3 and 45 MB on B4 once every chamber is visited
(PairTable).  Each product the memos keep is taken in the order and
association the pair would take it, so a warm pair gives the bits of a
cold one.

A fill is a few lookups.  Each sign it needs is linear over GF(2) in the
point's mask, so the table keeps, per sign kind, one |W|-bit integer per
positive root (endoscopy.negative_entries): the signs of all w at once are
the XOR of the columns of the roots negative at the point.  Two such bit
rows, spread into hex digits, give each w a digit 0-3 (one alone gives a
binary digit), and each front is read from a dict of at most four values,
each computed once with the operands, in the order, that the pair's own
term would take.  The fold
multiplies each distinct (value, det) once and adds the products in the
order of the real Weyl group.  d_gh reads the kinds weight_moved and
g_sign, d_tilde_gh weight_at and h_sign; neither reads the other's.

Weyl images of float points are taken over float copies of the column
tables (PairTable.g_floats and h_floats): a small integer converts to a
double exactly, so float(m) * x has the bits of m * x, and the sums from
the integer 0 are the same sums.  An exact or mixed x_g still goes through
the integer table of W, so its images stay exact until they meet the form.

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
from .lattice import column_table, dot_in_order, images_in_order
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

    The invariant form is held as floats, and each real Weyl element with
    its determinant, so that kernel evaluation does no exact arithmetic.
    det w is (-1)^k for any word of k reflections that gives w, such as
    the element's own word.  gamma and the prefactor are read from one
    dimension profile, gamma at the form's signature (dim g/k, dim k).
    """

    def __init__(self, datum: RootDatum, grading: RealFormGrading, real_weyl, form, form_scale):
        self.datum = datum
        self.grading = grading
        self.real_weyl = tuple(real_weyl)
        self.weyl_table = tuple([(w, parity_sign(len(w.word))) for w in self.real_weyl])
        self._form = tuple(tuple(float(b) for b in row) for row in form)
        self._scale = float(form_scale)
        self.profile = profile = dimension_profile(grading)
        self.gamma: EighthRoot = weil_constant(profile.dim_g_over_k, profile.dim_k)
        self.prefactor: EighthRoot = prefactor(profile)
        self._gamma = complex(self.gamma)
        self._prefactor = complex(self.prefactor)
        self._d_over_pi_unit = complex(EighthRoot(-2 * len(datum.positive_roots)))

    def form_image(self, v) -> tuple[float, ...]:
        """B v before the scale: each row of the form paired with v."""
        v = tuple(map(float, v))
        return tuple(dot_in_order(row, v) for row in self._form)

    def form_columns(self, columns) -> list[list[float]]:
        """B u before the scale for every u of the image columns, as image
        columns: coordinate i of each is form_image's row i paired with u,
        accumulated left to right from 0 over all u at once.  An exact
        coordinate of u meets the float form at a float multiply, which
        converts it as form_image does."""
        out = []
        for row in self._form:
            acc = [0] * len(columns[0])
            for b, column in zip(row, columns):
                acc = [a + b * c for a, c in zip(acc, column)]
            out.append(acc)
        return out

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

    entries holds the engine's transfer table, one WeylWeight per element
    of W in the order of weyl_g.  g_columns and h_columns are the column
    tables (lattice.column_table) of the integer matrices of W and of W_H,
    in the order of weyl_g and of weyl_h.  g_law and h_law are the group
    laws each route regroups by: for the r-th element u of the side's real
    Weyl group, the row whose k-th entry is the index of u w_k in the
    side's Weyl group (W for G, W_H for H), both in that group's order.

    Three attributes besides the fields are derived at set-up.  signs
    holds the sign columns of the entries (endoscopy.negative_entries),
    keyed by the sign they give: weight_moved, g_sign and h_sign of the
    k-th entry at bit k, weight_at of the entry of w_k^{-1} at bit k
    (TransferFactorEngine.transfer_table); a table built without them
    serves no route.  g_floats and h_floats are float copies of the column
    tables, which the routes read for the images of float points.

    Every sign a route multiplies in is read from require_regular's mask of
    a point, and a regular point's mask names its Weyl chamber, so each
    route keeps what it computes from the masks in a memo of its own,
    filled the first time a chamber is seen; a pair in chambers already
    seen computes only its phases.  g_memo, d_gh's, maps (mask of x_h,
    parity of x_g's mask) to the folded multiplicities and the term fronts.
    h_memo, d_tilde_gh's, is two dicts: x_h's mask to the multiplicities
    folded over h_law with the sign of [D/pi](x_h), and x_g's mask to the
    products weight(w^{-1}) [D/pi](w x_g) with the term fronts for either
    sign of [D/pi](x_h).  Neither memo is a field.

    The memos grow to at most one key per chamber in each dict, two in
    g_memo, and hold 2|W| complex numbers under a key of g_memo, |W_H| or
    3|W| under one of h_memo: at most about 280|W|^2 + 40|W||W_H| bytes on
    CPython, 0.76 MB on B3 (|W| = 48) and 45 MB on B4 (|W| = 384), which a
    run reaches only after pairs in both parities of every one of B4's 384
    chambers, at about 34 ms a pair.  The sign columns are 4(|Phi+| + 1)
    integers of |W| bits, 1.6 KB on B3 and 3.2 KB on B4 with their tuples;
    the float tables take about 32 bytes per matrix entry over W and W_H,
    22 KB on B3 and 0.30 MB on B4."""

    _fields = ("entries", "g_columns", "h_columns", "g_law", "h_law")
    __slots__ = _fields + ("signs", "g_floats", "h_floats", "g_memo", "h_memo")

    def __init__(self, entries, g_columns, h_columns, g_law, h_law, *, signs=None):
        super().__init__(entries, g_columns, h_columns, g_law, h_law)
        set_attribute(self, "signs", signs)
        set_attribute(self, "g_floats", float_columns(g_columns))
        set_attribute(self, "h_floats", float_columns(h_columns))
        set_attribute(self, "g_memo", {})
        set_attribute(self, "h_memo", ({}, {}))


def float_columns(columns):
    """A column table with every entry turned into a float."""
    return tuple([tuple([tuple(map(float, entries)) for entries in row]) for row in columns])


class EllipticScenario(MutableRecord):
    """A fully assembled elliptic verification scenario.  Its pair table and
    phase bound are cached_property values, kept in the instance's
    __dict__; the loader sets the phase bound it checks form_scale against."""

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
        entries, signs = eng.transfer_table()
        return PairTable(
            entries,
            eng.g_columns,
            column_table([w.matrix for w in eng.weyl_h]),
            eng.group_products(range(len(eng.weyl_g)), eng.real_weyl_g),
            eng.group_products(eng.h_positions, eng.real_weyl_h),
            signs=signs,
        )

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
    g_side = Side(g, engine.grading_g, engine.real_weyl_g, g.invariant_form, form_scale)
    h_side = Side(h, engine.grading_h, engine.real_weyl_h, g.invariant_form, form_scale)
    return EllipticScenario(
        name=name, engine=engine, g_side=g_side, h_side=h_side, form_scale=Fraction(form_scale)
    )


def rossmann_kernel(side: Side, x: EllipticElement, y: EllipticElement) -> KernelValue:
    """Normalized Fourier kernel of the orbital integral:
    prefactor * [D/pi](x) [D/pi](y) * sum over the real Weyl group of
    det(w) exp(-i B(w u, v)); the form convention is <iu, iv> = -B(u, v)."""
    front = side._prefactor * side.d_over_pi(x) * side.d_over_pi(y)
    columns = column_table([w.matrix for w in side.real_weyl])
    images = images_in_order(columns, x.floats())
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
    """The multiplicities c_z = sum over u w = z of values[digits[w]] *
    det(u), for z in the side's Weyl group, each summed over u in the real
    Weyl group's order; each product is taken once per value and det."""
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
    multiplicities folded over g_law and the term fronts.  The weight and
    the sign of [D/pi](w x_h) of every w are read from the sign columns,
    and each front from the at most four values they select."""
    eng, table, side = scenario.engine, scenario.table, scenario.g_side
    weights = negative_entries(table.signs["weight_moved"], neg_h)
    digits = _digits(len(table.entries), weights, negative_entries(table.signs["g_sign"], neg_h))
    d_y = side.d_over_pi_at(parity_sign(parity))
    front = side._gamma * side._prefactor * d_y
    fronts, terms = {}, {}
    for digit, sign, g_sign in SIGN_DIGITS:
        weight, d_x = sign * eng.base_value, side.d_over_pi_at(g_sign)
        fronts[digit] = weight * (side._prefactor * d_x) * d_y
        terms[digit] = front * weight * d_x
    return _fold(table.g_law, side.weyl_table, fronts, digits), [*map(terms.__getitem__, digits)]


def _h_chamber(scenario: EllipticScenario, neg_h: int):
    """d_tilde_gh's memo entry under x_h's mask: the multiplicities folded
    over h_law and the sign of [D/pi](x_h), read from the h_sign digits of
    the elements of W_H."""
    eng, table, side = scenario.engine, scenario.table, scenario.h_side
    # One sign kind: its binary digits, bit k the k-th.
    digits = f"{negative_entries(table.signs['h_sign'], neg_h):0{len(table.entries)}b}"[::-1]
    fronts = {"0": side._prefactor * side.d_over_pi_at(1), "1": side._prefactor * side.d_over_pi_at(-1)}
    # The table's first entry is the identity's.
    return (
        _fold(table.h_law, side.weyl_table, fronts, [*map(digits.__getitem__, eng.h_positions)]),
        -1 if digits[0] == "1" else 1,
    )


def _x_g_chamber(scenario: EllipticScenario, neg_g: int):
    """d_tilde_gh's memo entry under x_g's mask: for every w, the product
    weight(w^{-1}) [D/pi](w x_g), and the term fronts for each sign of
    [D/pi](x_h), which x_g's chamber does not fix."""
    eng, table, side = scenario.engine, scenario.table, scenario.h_side
    weights = negative_entries(table.signs["weight_at"], neg_g)
    digits = _digits(len(table.entries), weights, negative_entries(table.signs["h_sign"], neg_g))
    plus = side._gamma * side._prefactor * side.d_over_pi_at(1)
    minus = side._gamma * side._prefactor * side.d_over_pi_at(-1)
    products, plus_fronts, minus_fronts = {}, {}, {}
    for digit, sign, h_sign in SIGN_DIGITS:
        weight, d_y = sign * eng.base_value, side.d_over_pi_at(h_sign)
        products[digit] = weight * d_y
        plus_fronts[digit] = plus * weight * d_y
        minus_fronts[digit] = minus * weight * d_y
    return [*map(products.__getitem__, digits)], {
        1: [*map(plus_fronts.__getitem__, digits)],
        -1: [*map(minus_fronts.__getitem__, digits)],
    }


def d_gh(
    scenario: EllipticScenario, x_h: EllipticElement, x_g: EllipticElement, masks=None
) -> KernelValue:
    """Transfer route: Weyl-group sum of ambient kernels with factor weights.

    The terms weight(w) [D/pi](w x_h) [D/pi](x_g) det(u) exp(-i B(u w x_h,
    x_g)) over w in W and u in W_real(G) are regrouped by z = u w, the
    product of G's group law, so each z takes one exponential; the images
    z x_h come from one pass over the float copy of W's column table.
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
    images = images_in_order(table.g_floats, x_h.floats())
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

    The inner kernels' terms [D/pi](w' x_h) det(u') exp(-i B(u' w' x_h,
    w x_g)) over w' in W_H and u' in W_real(H) are regrouped by z = u' w',
    the product of H's group law; each w then takes one exponential per z.
    The images z x_h come from one pass over W_H's column table, and
    B w x_g for every w from a pass over W's, then one over B; a float
    point reads the float copies of the tables, an exact or mixed x_g the
    integer one.  The images z x_h are turned into flat tuples (multiplicity of z,
    then z x_h zero-padded to MAX_RANK coordinates), and B w x_g into
    padded point tuples.  For each w, one loop over z takes each unit phase
    as the one expression of the module docstring and adds it, times the
    multiplicity of z, to the inner sum: no list of exponentials and no
    list per coordinate is built.  z = 1, the first element of W_H, is
    taken apart for its term.  Weights and [D/pi] at moved points come from
    the masks of x_h and x_g, pair_masks' (taken here when not given).  The
    table's h_memo keeps what they fix: under x_h's mask the multiplicities
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
    (count_one, o0, o1, o2, o3), *rest = padded_points(
        images_in_order(table.h_floats, x_h.floats()), counts
    )
    x = x_g.coords
    columns = table.g_floats if all([type(c) is float for c in x]) else table.g_columns
    moved = side.form_columns(images_in_order(columns, x))
    scale = side._scale
    rect = cmath.rect
    terms = []
    total = complex(0.0)
    for product, front, (b0, b1, b2, b3) in zip(products, by_sign[sign], padded_points(moved)):
        one = rect(1.0, 0.0 - scale * ((((0.0 + o0 * b0) + o1 * b1) + o2 * b2) + o3 * b3))
        inner = complex(0.0)
        inner += count_one * one
        for count, a0, a1, a2, a3 in rest:
            inner += count * rect(1.0, 0.0 - scale * ((((0.0 + a0 * b0) + a1 * b1) + a2 * b2) + a3 * b3))
        total += product * inner
        terms.append(front * one)
    return KernelValue(side._gamma * total / (len(eng.real_weyl_h) * len(eng.weyl_h)), tuple(terms))


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
            (abs(t_lhs - h_terms[entry.inverse]) for entry, t_lhs in zip(scenario.table.entries, g_terms)),
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
