"""Weyl-sum kernels of Fourier-transformed orbital integrals and the
two-route identity check between the endoscopic sum and its transform.

The two routes are independent summation structures.  The transfer route
sums the ambient kernel over W and W_real(G) against transfer-factor
weights; the transform route runs the doubled sum over W, W_H and
W_real(H).  Each regroups its terms by the group law of its own side
(GroupLaw), so that each group element takes one exponential; neither reads
the other's table, and neither uses the invariance of the factors under
W_real(G) or W_H, or the W-invariance of B.  The term-by-term comparison
pairs the w-term of the first route with the w^{-1}-term of the second,
each carrying its own Weil constant and dimension prefactor.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .endoscopy import (
    ADatum,
    Diagram,
    EllipticElement,
    EndoscopyError,
    TransferFactorEngine,
    TransferTable,
    parity_sign,
    require_regular,
    sign_of,
)
from .lattice import dot
from .realform import (
    DimensionProfile,
    EighthRoot,
    RealFormGrading,
    dimension_profile,
    gamma_psi,
    prefactor,
)
from .rootdata import RootDatum, WeylElement, weyl_sign


@dataclass(frozen=True)
class KernelValue:
    value: complex
    terms: tuple[tuple[WeylElement, complex], ...]


@dataclass(frozen=True)
class TermComparison:
    word: tuple[int, ...]
    lhs_term: complex
    rhs_term: complex
    abs_error: float


@dataclass(frozen=True)
class IdentityReport:
    lhs: complex
    rhs: complex
    abs_error: float
    termwise: tuple[TermComparison, ...]
    termwise_max: float
    passed: bool


@dataclass(frozen=True)
class RatioCheckReport:
    word: tuple[int, ...]
    lhs_ratio: int
    rhs_product: int
    restriction_ok: bool

    @property
    def passed(self) -> bool:
        return self.lhs_ratio == self.rhs_product and self.restriction_ok


class Side:
    """Evaluation data for one group of the pair (ambient or endoscopic).

    The invariant form is held as floats, and each real Weyl element with
    its float matrix and determinant, so that kernel evaluation does no
    exact arithmetic.  The side's group law, which its route regroups by,
    is built by build_law on first use.
    """

    def __init__(
        self, datum: RootDatum, grading: RealFormGrading, real_weyl, form, form_scale, build_law
    ):
        self.datum = datum
        self.grading = grading
        self.real_weyl = tuple(real_weyl)
        self.weyl_table = tuple(
            (w, tuple(tuple(float(x) for x in row) for row in w.matrix), weyl_sign(w))
            for w in self.real_weyl
        )
        self._form = tuple(tuple(float(b) for b in row) for row in form)
        self._scale = float(form_scale)
        self._build_law = build_law
        self.profile = dimension_profile(grading)
        self.gamma: EighthRoot = gamma_psi(grading)
        self.prefactor: EighthRoot = prefactor(self.profile)
        self._prefactor = complex(self.prefactor)
        self._d_over_pi_unit = complex(EighthRoot(-2 * len(datum.positive_roots)))

    @cached_property
    def law(self) -> "GroupLaw":
        """The side's GroupLaw, built on first use."""
        return self._build_law()

    def form_image(self, v) -> tuple[float, ...]:
        """B v before the scale: each row of the form paired with v."""
        v = tuple(map(float, v))
        return tuple(sum(map(mul, row, v)) for row in self._form)

    def d_over_pi(self, x: EllipticElement) -> complex:
        """D^{1/2}(X)/pi(X) on the compact Cartan: (-i)^m sign(prod <alpha,v>),
        the sign read from require_regular's mask of negative roots."""
        return self.d_over_pi_at(parity_sign(require_regular(self.datum, x).bit_count()))

    def d_over_pi_at(self, sign: int) -> complex:
        """D^{1/2}/pi at a point where prod <alpha, v> over the positive
        roots has this sign."""
        return self._d_over_pi_unit * sign

    def exponentials(self, images, bv) -> list[complex]:
        """exp(-i B(u, v)) for each float image u, given B v from form_image;
        or, with images B v from form_image and u as bv, for each v.  The
        contractions sum_i u_i (B v)_i are taken a coordinate at a time over
        all images, each accumulated in order from 0.0."""
        phases = [0.0] * len(images)
        for column, b in zip(zip(*images), bv):
            phases = [p + c * b for p, c in zip(phases, column)]
        scale = self._scale
        return [cmath.exp(1j * -(scale * p)) for p in phases]


@dataclass(frozen=True)
class GroupLaw:
    """A side's Weyl group W_S (W for G, W_H for H) under left
    multiplication by its real Weyl group: the float matrix of each element
    of W_S, in its order, and for the r-th real Weyl element u the row
    products[r], whose k-th entry is the index of u w_k in W_S."""

    matrices: tuple[tuple[tuple[float, ...], ...], ...]
    products: tuple[tuple[int, ...], ...]


def group_law(engine: TransferFactorEngine, group, real_weyl) -> GroupLaw:
    """The GroupLaw of the subgroup of weyl_g at the positions group."""
    matrices = tuple(
        tuple(tuple(float(x) for x in row) for row in engine.weyl_g[k].matrix) for k in group
    )
    return GroupLaw(matrices, engine.group_products(group, real_weyl))


def _apply(matrix, u) -> tuple[float, ...]:
    """The float matrix applied to the float vector u."""
    return tuple(sum(map(mul, row, u)) for row in matrix)


@dataclass
class EllipticScenario:
    """A fully assembled elliptic verification scenario."""

    name: str
    engine: TransferFactorEngine
    g_side: Side
    h_side: Side
    form_scale: Fraction = Fraction(1)

    @property
    def weyl_g(self):
        return self.engine.weyl_g

    @property
    def weyl_h(self):
        return self.engine.weyl_h

    @cached_property
    def transfer_table(self) -> TransferTable:
        """The routes' per-w transfer data, built on first use."""
        return self.engine.transfer_table()


def make_scenario(
    name: str,
    engine: TransferFactorEngine,
    form_scale=Fraction(1),
) -> EllipticScenario:
    g = engine.g_datum
    h = engine.datum.h_datum
    g_side = Side(
        g, engine.grading_g, engine.real_weyl_g, g.invariant_form, form_scale,
        lambda: group_law(engine, range(len(engine.weyl_g)), engine.real_weyl_g),
    )
    h_side = Side(
        h, engine.grading_h, engine.real_weyl_h, g.invariant_form, form_scale,
        lambda: group_law(engine, engine.h_positions, engine.real_weyl_h),
    )
    return EllipticScenario(
        name=name, engine=engine, g_side=g_side, h_side=h_side, form_scale=Fraction(form_scale)
    )


def rossmann_kernel(side: Side, x: EllipticElement, y: EllipticElement) -> KernelValue:
    """Normalized Fourier kernel of the orbital integral:
    prefactor * [D/pi](x) [D/pi](y) * sum over the real Weyl group of
    det(w) exp(-i B(w u, v)); the form convention is <iu, iv> = -B(u, v)."""
    front = side._prefactor * side.d_over_pi(x) * side.d_over_pi(y)
    u = x.floats()
    images = [_apply(matrix, u) for _, matrix, _ in side.weyl_table]
    phases = side.exponentials(images, side.form_image(y.floats()))
    terms = []
    total = complex(0.0)
    for (w, _, det), phase in zip(side.weyl_table, phases):
        contrib = front * det * phase
        terms.append((w, contrib))
        total += contrib
    return KernelValue(total, tuple(terms))


def _gstar_negative(scenario: EllipticScenario, x_h: EllipticElement):
    """require_regular's mask of x_h for the ambient system, or None when
    x_h sits on an ambient wall: H-regular elements there match no diagram,
    so both sums vanish."""
    try:
        return require_regular(scenario.engine.g_datum, x_h)
    except EndoscopyError:
        require_regular(scenario.engine.datum.h_datum, x_h)
        return None


def _fold(law: GroupLaw, weyl_table, fronts) -> list[complex]:
    """The multiplicities c_z = sum over u w = z of fronts[w] * det(u), for
    z in the side's Weyl group, each summed over u in the real Weyl group's
    order."""
    counts = [complex(0.0)] * len(law.matrices)
    for (_, _, det), row in zip(weyl_table, law.products):
        for front, z in zip(fronts, row):
            counts[z] += front * det
    return counts


def d_gh(scenario: EllipticScenario, x_h: EllipticElement, x_g: EllipticElement) -> complex:
    """Transfer route: Weyl-group sum of ambient kernels with factor weights.

    The terms weight(w) [D/pi](w x_h) [D/pi](x_g) det(u) exp(-i B(u w x_h,
    x_g)) over w in W and u in W_real(G) are regrouped by z = u w, the
    product of G's group law, so each z takes one exponential.  Weights and
    [D/pi] at w x_h come from the masks of x_h and x_g."""
    neg_h = _gstar_negative(scenario, x_h)
    if neg_h is None:
        return complex(0.0)
    neg_g = require_regular(scenario.engine.g_datum, x_g)
    eng = scenario.engine
    side = scenario.g_side
    d_y = side.d_over_pi_at(parity_sign(neg_g.bit_count()))
    fronts = [
        entry.weight_moved(neg_h) * eng.base_value
        * (side._prefactor * side.d_over_pi_at(entry.g_sign(neg_h))) * d_y
        for entry in scenario.transfer_table.entries
    ]
    law = side.law
    counts = _fold(law, side.weyl_table, fronts)
    u = x_h.floats()
    images = [_apply(matrix, u) for matrix in law.matrices]
    total = complex(0.0)
    for count, phase in zip(counts, side.exponentials(images, side.form_image(x_g.coords))):
        total += count * phase
    gamma = complex(side.gamma)
    return gamma * total / len(eng.real_weyl_g)


def d_tilde_gh(scenario: EllipticScenario, x_h: EllipticElement, x_g: EllipticElement) -> complex:
    """Transform route: doubled endoscopic sum against pulled-back elements.

    The inner kernels' terms [D/pi](w' x_h) det(u') exp(-i B(u' w' x_h,
    w x_g)) over w' in W_H and u' in W_real(H) are regrouped by z = u' w',
    the product of H's group law, once per pair; each w then takes one
    exponential per z.  Weights and [D/pi] at moved points come from the
    masks of x_h and x_g."""
    neg_h = _gstar_negative(scenario, x_h)
    if neg_h is None:
        return complex(0.0)
    neg_g = require_regular(scenario.engine.g_datum, x_g)
    eng = scenario.engine
    side = scenario.h_side
    entries = scenario.transfer_table.entries
    fronts = [
        side._prefactor * side.d_over_pi_at(entries[k].h_sign(neg_h)) for k in eng.h_positions
    ]
    law = side.law
    counts = _fold(law, side.weyl_table, fronts)
    u = x_h.floats()
    images = [_apply(matrix, u) for matrix in law.matrices]
    nu = x_g.coords
    total = complex(0.0)
    for entry in entries:
        weight = entries[entry.inverse].weight_at(neg_g) * eng.base_value
        d_y = side.d_over_pi_at(entry.h_sign(neg_g))
        bv = side.form_image(entry.w.act(nu))
        inner = complex(0.0)
        for count, phase in zip(counts, side.exponentials(images, bv)):
            inner += count * phase
        total += weight * d_y * inner
    gamma = complex(side.gamma)
    return gamma * total / (len(eng.real_weyl_h) * len(eng.weyl_h))


def _terms(
    scenario: EllipticScenario, side: str, x_h: EllipticElement, x_g: EllipticElement,
    neg_h: int, neg_g: int,
) -> list[complex]:
    """The w-terms of the closed-form expansion of one route, for w in the
    order of W, from the masks of x_h and x_g.  Side "G" gives the transfer
    route's gamma prefactor [D/pi](x_g) weight(w) [D/pi](w x_h) exp(-i B(w
    x_h, x_g)); side "H" the transform route's gamma prefactor [D/pi](x_h)
    weight(w^{-1}) [D/pi](w x_g) exp(-i B(x_h, w x_g)), its weight the table
    entry of w^{-1} at x_g.  Each side takes its exponentials in one batch:
    images w x_h against B x_g, or B w x_g against x_h."""
    entries = scenario.transfer_table.entries
    base_value = scenario.engine.base_value
    if side == "G":
        s = scenario.g_side
        front = complex(s.gamma) * complex(s.prefactor) * s.d_over_pi_at(parity_sign(neg_g.bit_count()))
        images = [tuple(map(float, e.w.act(x_h.coords))) for e in entries]
        phases = s.exponentials(images, s.form_image(x_g.coords))
        return [
            front * (e.weight_moved(neg_h) * base_value) * s.d_over_pi_at(e.g_sign(neg_h)) * phase
            for e, phase in zip(entries, phases)
        ]
    s = scenario.h_side
    # The table's first entry is the identity's.
    front = complex(s.gamma) * complex(s.prefactor) * s.d_over_pi_at(entries[0].h_sign(neg_h))
    images = [s.form_image(e.w.act(x_g.coords)) for e in entries]
    phases = s.exponentials(images, x_h.floats())
    return [
        front * (entries[e.inverse].weight_at(neg_g) * base_value) * s.d_over_pi_at(e.h_sign(neg_g))
        * phase
        for e, phase in zip(entries, phases)
    ]


def explicit_term(
    scenario: EllipticScenario, w: WeylElement, x_h: EllipticElement, x_g: EllipticElement, side: str
) -> complex:
    """Single-exponential w-term of the closed-form expansion of either route."""
    g = scenario.engine.g_datum
    terms = _terms(scenario, side, x_h, x_g, require_regular(g, x_h), require_regular(g, x_g))
    return terms[scenario.transfer_table.index(w)]


def verify_identity(
    scenario: EllipticScenario,
    x_h: EllipticElement,
    x_g: EllipticElement,
    tolerance: float = 1e-12,
) -> IdentityReport:
    """Both routes, their difference, and the w vs w^{-1} term pairing."""
    lhs = d_gh(scenario, x_h, x_g)
    rhs = d_tilde_gh(scenario, x_h, x_g)
    abs_error = abs(lhs - rhs)

    comparisons = []
    lhs_sum = complex(0.0)
    rhs_sum = complex(0.0)
    neg_h = _gstar_negative(scenario, x_h)
    regular = neg_h is not None
    if regular:
        neg_g = require_regular(scenario.engine.g_datum, x_g)
        g_terms = _terms(scenario, "G", x_h, x_g, neg_h, neg_g)
        h_terms = _terms(scenario, "H", x_h, x_g, neg_h, neg_g)
        for entry, t_lhs in zip(scenario.transfer_table.entries, g_terms):
            t_rhs = h_terms[entry.inverse]
            comparisons.append(
                TermComparison(entry.w.word, t_lhs, t_rhs, abs(t_lhs - t_rhs))
            )
            lhs_sum += t_lhs
        # The H-terms of the pairing, summed in the order of the Weyl group.
        for t_rhs in h_terms:
            rhs_sum += t_rhs
    termwise_max = max((c.abs_error for c in comparisons), default=0.0)
    consistent = (
        abs(lhs_sum - lhs) <= 64 * max(tolerance, 1e-15) * max(1.0, abs(lhs))
        and abs(rhs_sum - rhs) <= 64 * max(tolerance, 1e-15) * max(1.0, abs(rhs))
        if regular
        else True
    )
    passed = abs_error <= tolerance and termwise_max <= tolerance and consistent
    return IdentityReport(
        lhs=lhs,
        rhs=rhs,
        abs_error=abs_error,
        termwise=tuple(comparisons),
        termwise_max=termwise_max,
        passed=passed,
    )


def delta_ii_ratio_check(
    scenario: EllipticScenario,
    x_h: EllipticElement,
    x_g: EllipticElement,
    w: WeylElement,
) -> RatioCheckReport:
    """Exact sign identity between the middle-factor ratio of the paired
    terms and the root-sign mismatch product, plus the root-restriction
    value identities on the endoscopic subsystem."""
    eng = scenario.engine
    d = eng.g_datum
    a = ADatum.default(d)

    target = EllipticElement(w.act(x_h.coords))
    d1 = Diagram(eng.datum, w, x_h, target)
    winv = eng.inverse_of(w)
    pulled = EllipticElement(winv.act(x_g.coords))
    d2 = Diagram(eng.datum, w, pulled, x_g)
    lhs_ratio = eng.delta_ii(d1, a) * eng.delta_ii(d2, a)

    h_image = {d.root_image(w.matrix, beta) for beta in eng.datum.h_roots}
    rhs = 1
    for alpha in d.positive_roots:
        if alpha in h_image:
            continue
        rhs *= sign_of(dot(alpha, target.coords)) * sign_of(dot(alpha, x_g.coords))

    restriction_ok = True
    for beta in eng.datum.h_roots:
        alpha = d.root_image(w.matrix, beta)
        lhs_1 = dot(alpha, target.coords)
        rhs_1 = dot(beta, x_h.coords)
        lhs_2 = dot(beta, pulled.coords)
        rhs_2 = dot(alpha, x_g.coords)
        if x_h.is_exact() and x_g.is_exact():
            ok = lhs_1 == rhs_1 and lhs_2 == rhs_2
        else:
            ok = (
                abs(float(lhs_1) - float(rhs_1)) <= 1e-9
                and abs(float(lhs_2) - float(rhs_2)) <= 1e-9
            )
        restriction_ok = restriction_ok and ok

    return RatioCheckReport(w.word, lhs_ratio, rhs, restriction_ok)


def weil_prefactor_sides(scenario: EllipticScenario) -> tuple[EighthRoot, EighthRoot]:
    """gamma_psi * prefactor for the two sides, as exact eighth roots."""
    g = scenario.g_side
    h = scenario.h_side
    return g.gamma * g.prefactor, h.gamma * h.prefactor


def weil_prefactor_balanced_invariant(scenario: EllipticScenario) -> tuple[EighthRoot, EighthRoot]:
    """The sharp constant identity: gamma * prefactor * (-1)^{#pos roots}
    equals (-i)^{rank/2-ish} on both sides.  This is the version that the
    term pairing actually uses; both sides agree for every elliptic datum."""
    g_val, h_val = weil_prefactor_sides(scenario)
    m_g = len(scenario.g_side.datum.positive_roots)
    m_h = len(scenario.h_side.datum.positive_roots)
    return g_val * EighthRoot(4 * m_g), h_val * EighthRoot(4 * m_h)
