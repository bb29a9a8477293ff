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
pair table, filled from its own table columns and group law the first time
a chamber is seen: d_gh's under (mask of x_h, parity of x_g's mask),
d_tilde_gh's under x_h's mask and under x_g's.  A pair in chambers already
seen computes its images, form products, unit phases and sums, and nothing
else.  The memos hold at most one entry per chamber (two for d_gh's key):
about 0.76 MB on B3 and 45 MB on B4 once every chamber is visited
(PairTable).  Each product the memos keep is taken in the order and
association the pair would take it, so a warm pair gives the bits of a
cold one.

Every unit phase exp(-i scale p) is cmath.rect(1.0, 0.0 - scale * p),
which gives the bits of cmath.exp(1j * -(scale * p)), signed zeros
included: the real part of 1j * t is a zero, so exp takes e^0 = 1.0 and
returns (cos t, sin t) with t = 0.0 + t, and 0.0 - scale * p turns a zero
phase into +0.0 as that sum does.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import cached_property

from .endoscopy import (
    EllipticElement,
    EndoscopyError,
    TransferFactorEngine,
    parity_sign,
    require_regular,
)
from .lattice import column_table, dot_in_order, images_in_order
from .realform import EighthRoot, RealFormGrading, dimension_profile, prefactor, weil_constant
from .record import MutableRecord, Record, set_attribute
from .rootdata import RootDatum, WeylElement
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
        coordinate i of the k-th), given B v from form_image.  The
        contractions sum_i u_i (B v)_i are taken a coordinate at a time over
        all images, each accumulated in order from 0.0.  An exact image
        coordinate meets the float at a float multiply, which converts it as
        float() does."""
        phases = [0.0] * len(columns[0])
        for column, b in zip(columns, bv):
            phases = [p + c * b for p, c in zip(phases, column)]
        scale = self._scale
        rect = cmath.rect
        return [rect(1.0, 0.0 - scale * p) for p in phases]


class PairTable(Record):
    """Everything a pair reads besides its two points, fixed per scenario.

    entries holds the engine's transfer table, one WeylWeight per element
    of W in the order of weyl_g.  g_columns and h_columns are the column
    tables (lattice.column_table) of the integer matrices of W and of W_H,
    in the order of weyl_g and of weyl_h.  g_law and h_law are the group
    laws each route regroups by: for the r-th element u of the side's real
    Weyl group, the row whose k-th entry is the index of u w_k in the
    side's Weyl group (W for G, W_H for H), both in that group's order.

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
    chambers, at about 34 ms a pair."""

    _fields = ("entries", "g_columns", "h_columns", "g_law", "h_law")
    __slots__ = _fields + ("g_memo", "h_memo")

    def __init__(self, entries, g_columns, h_columns, g_law, h_law):
        super().__init__(entries, g_columns, h_columns, g_law, h_law)
        set_attribute(self, "g_memo", {})
        set_attribute(self, "h_memo", ({}, {}))


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
        return PairTable(
            eng.transfer_table(),
            eng.g_columns,
            column_table([w.matrix for w in eng.weyl_h]),
            eng.group_products(range(len(eng.weyl_g)), eng.real_weyl_g),
            eng.group_products(eng.h_positions, eng.real_weyl_h),
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


def _fold(law, weyl_table, fronts) -> list[complex]:
    """The multiplicities c_z = sum over u w = z of fronts[w] * det(u), for
    z in the side's Weyl group, each summed over u in the real Weyl group's
    order."""
    counts = [complex(0.0)] * len(fronts)
    for (_, det), row in zip(weyl_table, law):
        for front, z in zip(fronts, row):
            counts[z] += front * det
    return counts


def d_gh(
    scenario: EllipticScenario, x_h: EllipticElement, x_g: EllipticElement, masks=None
) -> KernelValue:
    """Transfer route: Weyl-group sum of ambient kernels with factor weights.

    The terms weight(w) [D/pi](w x_h) [D/pi](x_g) det(u) exp(-i B(u w x_h,
    x_g)) over w in W and u in W_real(G) are regrouped by z = u w, the
    product of G's group law, so each z takes one exponential; the images
    z x_h come from one pass over W's column table.  Weights and
    [D/pi] at w x_h come from the masks of x_h and x_g, pair_masks' (taken
    here when not given).  They fix the multiplicities of the z and the
    term fronts, which the table's g_memo keeps under x_h's mask and the
    parity of x_g's: a pair in a chamber seen before reads them there.

    The value comes with the route's closed-form w-terms, in the order of
    W: gamma prefactor [D/pi](x_g) weight(w) [D/pi](w x_h) times the
    exponential of z = w; no terms when x_h sits on an ambient wall."""
    if masks is None:
        masks = pair_masks(scenario, x_h, x_g)
        if masks is None:
            return KernelValue(complex(0.0), ())
    neg_h, neg_g = masks
    eng = scenario.engine
    table = scenario.table
    side = scenario.g_side
    key = neg_h, neg_g.bit_count() & 1
    chamber = table.g_memo.get(key)
    if chamber is None:
        d_y = side.d_over_pi_at(parity_sign(key[1]))
        factors = [
            (entry.weight_moved(neg_h) * eng.base_value, side.d_over_pi_at(entry.g_sign(neg_h)))
            for entry in table.entries
        ]
        fronts = [weight * (side._prefactor * d_x) * d_y for weight, d_x in factors]
        front = side._gamma * side._prefactor * d_y
        chamber = table.g_memo[key] = (
            _fold(table.g_law, side.weyl_table, fronts),
            [front * weight * d_x for weight, d_x in factors],
        )
    counts, fronts = chamber
    images = images_in_order(table.g_columns, x_h.floats())
    phases = side.exponentials(images, side.form_image(x_g.coords))
    total = complex(0.0)
    for count, phase in zip(counts, phases):
        total += count * phase
    terms = tuple(front * phase for front, phase in zip(fronts, phases))
    return KernelValue(side._gamma * total / len(eng.real_weyl_g), terms)


def d_tilde_gh(
    scenario: EllipticScenario, x_h: EllipticElement, x_g: EllipticElement, masks=None
) -> KernelValue:
    """Transform route: doubled endoscopic sum against pulled-back elements.

    The inner kernels' terms [D/pi](w' x_h) det(u') exp(-i B(u' w' x_h,
    w x_g)) over w' in W_H and u' in W_real(H) are regrouped by z = u' w',
    the product of H's group law; each w then takes one exponential per z.
    The images z x_h come from one pass over W_H's column table, and
    B w x_g for every w from a pass over W's, then one over B.  For each w,
    the contractions of the images with B w x_g are taken as
    Side.exponentials takes them, and the last coordinate, the exponential
    and the inner sum over z run in one loop, which keeps no list of
    exponentials.
    Weights and [D/pi] at moved points come from the masks of x_h and x_g,
    pair_masks' (taken here when not given).  The table's h_memo keeps what
    they fix: under x_h's mask the multiplicities of the z and the sign of
    [D/pi](x_h), under x_g's the per-w products weight(w^{-1}) [D/pi](w x_g)
    and the term fronts for either sign; a pair in chambers seen before
    reads them there.

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
    entries = table.entries
    at_h, at_g = table.h_memo
    h_chamber = at_h.get(neg_h)
    if h_chamber is None:
        fronts = [
            side._prefactor * side.d_over_pi_at(entries[k].h_sign(neg_h)) for k in eng.h_positions
        ]
        # The table's first entry is the identity's.
        h_chamber = at_h[neg_h] = (
            _fold(table.h_law, side.weyl_table, fronts), entries[0].h_sign(neg_h)
        )
    counts, sign = h_chamber
    g_chamber = at_g.get(neg_g)
    if g_chamber is None:
        # The term fronts for each sign of [D/pi](x_h), which x_g's chamber
        # does not fix.
        plus = side._gamma * side._prefactor * side.d_over_pi_at(1)
        minus = side._gamma * side._prefactor * side.d_over_pi_at(-1)
        products, plus_fronts, minus_fronts = [], [], []
        for entry in entries:
            weight = entries[entry.inverse].weight_at(neg_g) * eng.base_value
            d_y = side.d_over_pi_at(entry.h_sign(neg_g))
            products.append(weight * d_y)
            plus_fronts.append(plus * weight * d_y)
            minus_fronts.append(minus * weight * d_y)
        g_chamber = at_g[neg_g] = products, {1: plus_fronts, -1: minus_fronts}
    products, by_sign = g_chamber
    images = images_in_order(table.h_columns, x_h.floats())
    head, last = images[:-1], images[-1]
    zeros = [0.0] * len(last)
    moved = side.form_columns(images_in_order(table.g_columns, x_g.coords))
    scale = side._scale
    rect = cmath.rect
    terms = []
    total = complex(0.0)
    for product, front, bv in zip(products, by_sign[sign], zip(*moved)):
        phases = zeros
        for column, b in zip(head, bv):
            phases = [p + c * b for p, c in zip(phases, column)]
        b = bv[-1]
        # z = 1, the first element of W_H, is taken apart for its term.
        inner_terms = zip(counts, phases, last)
        count, p, c = next(inner_terms)
        one = rect(1.0, 0.0 - scale * (p + c * b))
        inner = complex(0.0)
        inner += count * one
        for count, p, c in inner_terms:
            inner += count * rect(1.0, 0.0 - scale * (p + c * b))
        total += product * inner
        terms.append(front * one)
    return KernelValue(side._gamma * total / (len(eng.real_weyl_h) * len(eng.weyl_h)), tuple(terms))


def explicit_term(
    scenario: EllipticScenario, w: WeylElement, x_h: EllipticElement, x_g: EllipticElement, side: str
) -> complex:
    """Single-exponential w-term of the closed-form expansion of either
    route: side "G" reads it from d_gh's terms, side "H" from d_tilde_gh's.
    x_h on an ambient wall is refused, as x_g is."""
    g = scenario.engine.g_datum
    route = d_gh if side == "G" else d_tilde_gh
    masks = require_regular(g, x_h), require_regular(g, x_g)
    return route(scenario, x_h, x_g, masks).terms[scenario.engine.weyl_g.index(w)]


def verify_identity(
    scenario: EllipticScenario,
    x_h: EllipticElement,
    x_g: EllipticElement,
    tolerance: float = 1e-12,
) -> IdentityReport:
    """Both routes, their difference, and the largest difference of the w
    vs w^{-1} pairing of the terms each route returns with its value.  The
    masks of x_h and x_g are taken once, for both routes."""
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
