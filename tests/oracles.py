"""Independent oracles used by the test suite.

Nothing here imports the package's normal-form or cocycle machinery: the
cohomology oracle enumerates sign points directly, and the rank-one matrix
oracle works with literal 2x2 complex matrices.  The route oracles take
their transfer factors from the engine and recompute everything else, term
by term or regrouped by literal group products;
the set-up oracle is the engine with its per-w set-up done literally, in
Fractions, without the package's cohomology layer.  The Fraction
elimination is the reference for the package's integer kernel, and
LiteralWords, with generic matrix products, for its Weyl words and orders.

The helpers at the end of this module only tests call: the normalized
transfer factor, the coboundary, the Delta_II ratio check and the literal
Weil-constant products.  They are built on the package's public API.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import random
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from endotransfer.cohomology import elliptic_torus, galois_act
from endotransfer.endoscopy import (
    Diagram,
    EllipticElement,
    EndoscopyError,
    TransferFactorEngine,
    build_diagram,
    parity_sign,
    root_signs,
)
from endotransfer.lattice import dot, identity, integer_kernel, mat_int, mat_mul, transpose
from endotransfer.realform import EighthRoot
from endotransfer.record import Record, set_attribute
from endotransfer.rootdata import WEYL_ORDER_CAP, RootDatumError, WeylElement
from endotransfer.tits import TitsElement, inverse as tits_inverse, multiply as tits_multiply, n_of

Sign = tuple[int, ...]  # vectors over GF(2)

# Cartan types of rank <= 3 with -1 in the Weyl group.
TYPES = ("A1", "A1xA1", "B2", "C2", "G2", "A1xA1xA1", "A1xB2", "A1xG2", "B3", "C3")


def in_order(terms):
    """The terms summed left to right from the integer 0.  sum() of floats
    is compensated from Python 3.12 on, so it would round differently from
    the package's contractions there."""
    total = 0
    for t in terms:
        total = total + t
    return total


def sign_of(value) -> int:
    """The sign of a nonzero value."""
    if value == 0:
        raise EndoscopyError("sign of zero requested; regularity leak")
    return 1 if value > 0 else -1


def is_elliptic_datum(g_datum, h_roots, involution=None) -> bool:
    """[Z_Hhat^Gamma]^0 is trivial: no nonzero Galois-fixed rational
    direction orthogonal to every coroot of H.  The default involution is
    the compact Cartan's -1, for which sigma^T - 1 = -2 and the check
    holds on every datum."""
    n = g_datum.rank
    if involution is None:
        involution = tuple(tuple(-1 if i == j else 0 for j in range(n)) for i in range(n))
    # (sigma^T - 1) vhat = 0 and <vhat, coroot> = 0 for all h-coroots
    sigma_t = transpose(involution)
    stacked = [tuple(sigma_t[i][j] - (1 if i == j else 0) for j in range(n)) for i in range(n)]
    stacked.extend(tuple(g_datum.coroot(r)) for r in h_roots)
    return not integer_kernel(mat_int(stacked))


def _gf2_row_reduce(rows: list[Sign]) -> list[Sign]:
    basis: list[Sign] = []
    for row in rows:
        cur = row
        for b in basis:
            pivot = next(i for i, x in enumerate(b) if x)
            if cur[pivot]:
                cur = tuple((x + y) % 2 for x, y in zip(cur, b))
        if any(cur):
            basis.append(cur)
            basis.sort(key=lambda r: next(i for i, x in enumerate(r) if x))
    return basis


def gf2_span_contains(basis: list[Sign], v: Sign) -> bool:
    cur = v
    for b in basis:
        pivot = next(i for i, x in enumerate(b) if x)
        if cur[pivot]:
            cur = tuple((x + y) % 2 for x, y in zip(cur, b))
    return not any(cur)


class BruteForceH1:
    """H^1 of a real torus by enumerating 2-torsion points.

    Cocycles: sign vectors nu with (-1)^nu * sigma((-1)^nu) = 1, checked by
    plain +-1 arithmetic.  Boundaries: sign parts of s sigma(s)^{-1} for s
    running over the quarter-integer phase grid, which suffices because the
    elementary divisors of 1 + sigma divide 2.
    """

    def __init__(self, sigma: tuple[tuple[int, ...], ...]):
        self.sigma = sigma
        self.n = len(sigma)
        self.cocycles = self._cocycles()
        self.boundaries = self._boundaries()
        self.boundary_basis = _gf2_row_reduce(sorted(self.boundaries))
        cocycle_basis = _gf2_row_reduce(sorted(self.cocycles))
        self.dim = len(cocycle_basis) - len(self.boundary_basis)
        assert self.dim >= 0

    def _sigma_on_signs(self, nu: Sign) -> Sign:
        out = []
        for j in range(self.n):
            total = sum(self.sigma[j][k] * nu[k] for k in range(self.n))
            out.append(total % 2)
        return tuple(out)

    def _cocycles(self) -> set[Sign]:
        out = set()
        for nu in itertools.product((0, 1), repeat=self.n):
            if all((a + b) % 2 == 0 for a, b in zip(nu, self._sigma_on_signs(nu))):
                out.add(nu)
        return out

    def _boundaries(self) -> set[Sign]:
        grid = [Fraction(k, 4) for k in range(4)]
        out = set()
        for xi in itertools.product(grid, repeat=self.n):
            phases = []
            for j in range(self.n):
                ph = xi[j] + sum(self.sigma[j][k] * xi[k] for k in range(self.n))
                phases.append(ph % 1)
            if all((2 * p).denominator == 1 for p in phases):
                out.add(tuple(int(2 * p) % 2 for p in phases))
        return out

    @property
    def order(self) -> int:
        return 2 ** self.dim

    def same_class(self, nu1: Sign, nu2: Sign) -> bool:
        diff = tuple((a + b) % 2 for a, b in zip(nu1, nu2))
        return gf2_span_contains(self.boundary_basis, diff)

    def is_boundary(self, nu: Sign) -> bool:
        return gf2_span_contains(self.boundary_basis, nu)

    def pairing(self, nu: Sign, xhat: tuple[Fraction, ...]) -> int:
        """exp(2 pi i <xhat, (1 - sigma) nu / 2>) evaluated directly."""
        lam = []
        for j in range(self.n):
            val = Fraction(nu[j]) - sum(self.sigma[j][k] * Fraction(nu[k]) for k in range(self.n))
            lam.append(val / 2)
        r = sum(x * l for x, l in zip(xhat, lam))
        if (2 * r).denominator != 1:
            raise AssertionError("pairing is not a sign")
        return 1 if r.denominator == 1 else -1

    def fixed_half_characters(self) -> list[tuple[Fraction, ...]]:
        sigma_t = tuple(tuple(self.sigma[k][j] for k in range(self.n)) for j in range(self.n))
        out = []
        for bits in itertools.product((0, 1), repeat=self.n):
            xhat = tuple(Fraction(b, 2) for b in bits)
            moved = tuple(
                sum(sigma_t[j][k] * xhat[k] for k in range(self.n)) for j in range(self.n)
            )
            if all((a - b).denominator == 1 for a, b in zip(moved, xhat)):
                out.append(xhat)
        return out


# ---------------------------------------------------------------------------
# Fraction elimination: the reference for the package's integer kernel
# ---------------------------------------------------------------------------


def solve_rational(a, b):
    """One exact solution of a x = b, or None if inconsistent.

    Free variables are set to zero, so the result is deterministic.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [[Fraction(x) for x in a[i]] + [Fraction(b[i])] for i in range(rows)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append((r, c))
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if m[i][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for row, col in pivots:
        x[col] = m[row][cols]
    return tuple(x)


def invert_rational(a):
    """Exact inverse by Gauss-Jordan elimination of [a | 1]."""
    n = len(a)
    m = [[Fraction(x) for x in a[i]] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        m[c], m[pivot] = m[pivot], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[c])]
    return tuple(tuple(row[n:]) for row in m)


def det_rational(a) -> int:
    """Determinant by Fraction elimination."""
    n = len(a)
    m = [list(map(Fraction, row)) for row in a]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    assert det.denominator == 1
    return int(det)


def coordinate_map_rational(rows):
    """(R R^T)^{-1} R by Fraction elimination, as an integer matrix over the
    least common denominator of its entries."""
    p = mat_mul(invert_rational(mat_mul(rows, transpose(rows))), rows)
    den = lcm(*(Fraction(x).denominator for row in p for x in row))
    return mat_int(tuple(x * den for x in row) for row in p), den


def in_lattice(basis_rows, v) -> bool:
    """Whether v lies in the integer row-span of the linearly independent
    basis_rows."""
    if not basis_rows:
        return all(Fraction(x) == 0 for x in v)
    sol = solve_rational(transpose(basis_rows), v)
    if sol is None:
        return False
    return all(x.denominator == 1 for x in sol)


# ---------------------------------------------------------------------------
# rank-one matrix model
# ---------------------------------------------------------------------------

Mat = tuple[tuple[complex, complex], tuple[complex, complex]]


def m_mul(a: Mat, b: Mat) -> Mat:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


def m_inv(a: Mat) -> Mat:
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return ((a[1][1] / det, -a[0][1] / det), (-a[1][0] / det, a[0][0] / det))


def m_conj(a: Mat) -> Mat:
    return tuple(tuple(x.conjugate() for x in row) for row in a)


def m_close(a: Mat, b: Mat, tol: float = 1e-12) -> bool:
    return all(abs(a[i][j] - b[i][j]) <= tol for i in range(2) for j in range(2))


SQRT2 = 2 ** 0.5
CAYLEY: Mat = ((1 / SQRT2, 1j / SQRT2), (1j / SQRT2, 1 / SQRT2))
N_S: Mat = ((0, 1), (-1, 0))
IDENT: Mat = ((1, 0), (0, 1))


def e_split(x: Fraction) -> Mat:
    """Point of the diagonal torus with coroot-coordinate phase x."""
    import cmath

    z = cmath.exp(2j * cmath.pi * float(x))
    return ((z, 0), (0, 1 / z))


def e_compact(x: Fraction) -> Mat:
    """Same point moved to the rotation torus by the Cayley element."""
    return m_mul(m_mul(CAYLEY, e_split(x)), m_inv(CAYLEY))


def compact_point_coordinate(t: Mat) -> complex:
    """Inverse of e_compact up to the torus identification: the z-coordinate
    of c^{-1} t c on the diagonal."""
    d = m_mul(m_mul(m_inv(CAYLEY), t), CAYLEY)
    assert abs(d[0][1]) < 1e-9 and abs(d[1][0]) < 1e-9
    return d[0][0]


# ---------------------------------------------------------------------------
# discriminant and root product
# ---------------------------------------------------------------------------


def discriminant_sqrt(datum, x) -> float:
    """|D(X)|^{1/2} on the compact Cartan: the product of |<alpha, v>| over
    the positive roots; EndoscopyError when a factor is zero."""
    out = 1.0
    for alpha in datum.positive_roots:
        val = float(sum(a * c for a, c in zip(alpha, x.coords)))
        if val == 0.0:
            raise EndoscopyError("zero discriminant factor; element is not regular")
        out *= abs(val)
    return out


def pi_positive(datum, x) -> complex:
    """pi(X), the product of <alpha, X> = i <alpha, v> over the positive
    roots."""
    out = complex(1.0)
    for alpha in datum.positive_roots:
        out *= 1j * float(sum(a * c for a, c in zip(alpha, x.coords)))
    return out


# ---------------------------------------------------------------------------
# literal routes
# ---------------------------------------------------------------------------


class LiteralRoutes:
    """The two routes and their pairing written out term by term, with no
    precomputation: each kernel term takes its Weyl sign from an exact
    determinant, the form is read as Fractions and converted on every call,
    and every term asks the engine for its full relative factor.

    The package's routes read per-scenario tables instead; they must agree
    with this oracle to the last bit, term by term.
    """

    def __init__(self, scenario, form_scale):
        self.sc = scenario
        self.eng = scenario.engine
        self.form = scenario.g_side.datum.invariant_form
        self.scale = float(form_scale)

    def bform(self, u, v) -> float:
        out = 0.0
        for i, row in enumerate(self.form):
            ui = float(u[i])
            if ui:
                out += ui * in_order(float(b) * float(x) for b, x in zip(row, v))
        return self.scale * out

    @staticmethod
    def d_over_pi(side, coords) -> complex:
        prod_sign = 1
        for alpha in side.datum.positive_roots:
            prod_sign *= sign_of(sum(a * x for a, x in zip(alpha, coords)))
        m = len(side.datum.positive_roots)
        return complex(EighthRoot(-2 * m)) * prod_sign

    def kernel_terms(self, side, x, y) -> list[complex]:
        from endotransfer.lattice import det_int

        front = complex(side.prefactor) * self.d_over_pi(side, x.coords) * self.d_over_pi(side, y.coords)
        u = x.floats()
        v = y.floats()
        return [
            front * det_int(w.matrix) * cmath.exp(1j * -self.bform(w.act(u), v))
            for w in side.real_weyl
        ]

    def kernel(self, side, x, y) -> complex:
        total = complex(0.0)
        for term in self.kernel_terms(side, x, y):
            total += term
        return total

    def weight(self, w, x_h, x_g):
        from endotransfer.endoscopy import Diagram

        return self.eng.relative_factor(Diagram(self.eng.datum, w, x_h, x_g)) * self.eng.base_value

    def regular(self, x_h) -> bool:
        from endotransfer.endoscopy import EndoscopyError, require_regular

        try:
            require_regular(self.eng.g_datum, x_h)
            return True
        except EndoscopyError:
            require_regular(self.eng.datum.h_datum, x_h)
            return False

    def d_gh(self, x_h, x_g) -> complex:
        from endotransfer.endoscopy import EllipticElement, require_regular

        if not self.regular(x_h):
            return complex(0.0)
        require_regular(self.eng.g_datum, x_g)
        total = complex(0.0)
        for w in self.eng.weyl_g:
            target = EllipticElement(tuple(w.act(x_h.coords)))
            weight = self.weight(w, x_h, target)
            if weight == 0:
                continue
            total += weight * self.kernel(self.sc.g_side, target, x_g)
        return complex(self.sc.g_side.gamma) * total / len(self.eng.real_weyl_g)

    def d_tilde_gh(self, x_h, x_g) -> complex:
        from endotransfer.endoscopy import EllipticElement, require_regular

        if not self.regular(x_h):
            return complex(0.0)
        require_regular(self.eng.g_datum, x_g)
        total = complex(0.0)
        for w in self.eng.weyl_g:
            pulled = EllipticElement(tuple(w.act(x_g.coords)))
            weight = self.weight(self.eng.inverse_of(w), pulled, x_g)
            if weight == 0:
                continue
            inner = complex(0.0)
            for wp in self.eng.weyl_h:
                moved = EllipticElement(tuple(wp.act(x_h.coords)))
                inner += self.kernel(self.sc.h_side, moved, pulled)
            total += weight * inner
        return complex(self.sc.h_side.gamma) * total / (len(self.eng.real_weyl_h) * len(self.eng.weyl_h))

    def term_sizes(self, x_h, x_g) -> tuple[float, float]:
        """The sums of |term| over the terms of d_gh and of d_tilde_gh, each
        term times its route's gamma over its normalization: the scale of
        the rounding that a different summation order of a route can move."""
        from endotransfer.endoscopy import EllipticElement

        if not self.regular(x_h):
            return 0.0, 0.0
        g, h = self.sc.g_side, self.sc.h_side
        lhs = rhs = 0.0
        for w in self.eng.weyl_g:
            target = EllipticElement(tuple(w.act(x_h.coords)))
            weight = self.weight(w, x_h, target)
            lhs += sum(abs(weight * t) for t in self.kernel_terms(g, target, x_g))
            pulled = EllipticElement(tuple(w.act(x_g.coords)))
            weight = self.weight(self.eng.inverse_of(w), pulled, x_g)
            for wp in self.eng.weyl_h:
                moved = EllipticElement(tuple(wp.act(x_h.coords)))
                rhs += sum(abs(weight * t) for t in self.kernel_terms(h, moved, pulled))
        return (
            lhs * abs(complex(g.gamma)) / len(self.eng.real_weyl_g),
            rhs * abs(complex(h.gamma)) / (len(self.eng.real_weyl_h) * len(self.eng.weyl_h)),
        )

    @staticmethod
    def image(w, x) -> tuple[float, ...]:
        """The floats of the exact image w x, at which a G-term takes its
        phase."""
        from endotransfer.endoscopy import EllipticElement

        return EllipticElement(tuple(w.act(x.coords))).floats()

    def explicit_term(self, w, x_h, x_g, side: str) -> complex:
        from endotransfer.endoscopy import EllipticElement

        if side == "G":
            s = self.sc.g_side
            target = EllipticElement(tuple(w.act(x_h.coords)))
            weight = self.weight(w, x_h, target)
            phase = -self.bform(self.image(w, x_h), x_g.floats())
            return (
                complex(s.gamma) * complex(s.prefactor) * self.d_over_pi(s, x_g.coords)
                * weight * self.d_over_pi(s, target.coords) * cmath.exp(1j * phase)
            )
        s = self.sc.h_side
        pulled = EllipticElement(tuple(w.act(x_g.coords)))
        weight = self.weight(self.eng.inverse_of(w), pulled, x_g)
        phase = -self.bform(x_h.floats(), pulled.floats())
        return (
            complex(s.gamma) * complex(s.prefactor) * self.d_over_pi(s, x_h.coords)
            * weight * self.d_over_pi(s, pulled.coords) * cmath.exp(1j * phase)
        )

    def verify_identity(self, x_h, x_g, tolerance: float = 1e-12):
        from endotransfer.distributions import IdentityReport

        lhs = self.d_gh(x_h, x_g)
        rhs = self.d_tilde_gh(x_h, x_g)
        abs_error = abs(lhs - rhs)
        errors = []
        lhs_sum = complex(0.0)
        rhs_sum = complex(0.0)
        regular = self.regular(x_h)
        if regular:
            for w in self.eng.weyl_g:
                t_lhs = self.explicit_term(w, x_h, x_g, "G")
                t_rhs = self.explicit_term(self.eng.inverse_of(w), x_h, x_g, "H")
                errors.append(abs(t_lhs - t_rhs))
                lhs_sum += t_lhs
            for w in self.eng.weyl_g:
                rhs_sum += self.explicit_term(w, x_h, x_g, "H")
        termwise_max = max(errors, default=0.0)
        consistent = (
            abs(lhs_sum - lhs) <= 64 * max(tolerance, 1e-15) * max(1.0, abs(lhs))
            and abs(rhs_sum - rhs) <= 64 * max(tolerance, 1e-15) * max(1.0, abs(rhs))
            if regular
            else True
        )
        passed = abs_error <= tolerance and termwise_max <= tolerance and consistent
        return IdentityReport(lhs, rhs, abs_error, termwise_max, passed)


class GroupedRoutes(LiteralRoutes):
    """The two routes as the package groups them, written out literally:
    the transfer route regrouped by G's group law, and the transform route
    as H's stable sum over W_H alone.  Each product z = u w of u in
    W_real(G) and w in W is found by the integer matrix product and a
    search of W, each determinant is an exact one, each weight the engine's
    full relative factor, and each z x_h the product of z's matrix with x_h
    in floats.  The term pairing is LiteralRoutes', its G-term of w taking
    its phase at this float image w x_h, as d_gh's exponential of z = w
    does.

    The package's routes read the group-law and row tables instead; they
    must agree with this oracle to the last bit.
    """

    @staticmethod
    def fold(side, group, fronts) -> list[complex]:
        """c_z = sum over u w = z of fronts[w] * det(u), for z in group, each
        summed over u in the order of the side's real Weyl group."""
        from endotransfer.lattice import det_int

        counts = [complex(0.0)] * len(group)
        for u in side.real_weyl:
            det = det_int(u.matrix)
            for front, w in zip(fronts, group):
                product = mat_mul(u.matrix, w.matrix)
                z = next(k for k, v in enumerate(group) if v.matrix == product)
                counts[z] += front * det
        return counts

    @staticmethod
    def image(z, x) -> tuple[float, ...]:
        u = x.floats()
        return tuple(in_order(float(m) * c for m, c in zip(row, u)) for row in z.matrix)

    def d_gh(self, x_h, x_g) -> complex:
        from endotransfer.endoscopy import EllipticElement, require_regular

        if not self.regular(x_h):
            return complex(0.0)
        require_regular(self.eng.g_datum, x_g)
        s = self.sc.g_side
        group = self.eng.weyl_g
        d_y = self.d_over_pi(s, x_g.coords)
        fronts = []
        for w in group:
            target = EllipticElement(tuple(w.act(x_h.coords)))
            front_x = complex(s.prefactor) * self.d_over_pi(s, target.coords)
            fronts.append(self.weight(w, x_h, target) * front_x * d_y)
        total = complex(0.0)
        for count, z in zip(self.fold(s, group, fronts), group):
            total += count * cmath.exp(1j * -self.bform(self.image(z, x_h), x_g.floats()))
        return complex(s.gamma) * total / len(self.eng.real_weyl_g)

    def d_tilde_gh(self, x_h, x_g) -> complex:
        from endotransfer.endoscopy import EllipticElement, require_regular

        if not self.regular(x_h):
            return complex(0.0)
        require_regular(self.eng.g_datum, x_g)
        s = self.sc.h_side
        group = self.eng.weyl_h
        # H's stable sum: u' in W_real(H) gives det(u') [D/pi](w' x_h) =
        # [D/pi](u' w' x_h), so the W_real(H) sum is |W_real(H)| equal
        # copies of the sum over W_H, and is divided out.
        counts = [
            complex(s.prefactor) * self.d_over_pi(s, tuple(z.act(x_h.coords))) for z in group
        ]
        total = complex(0.0)
        for w in self.eng.weyl_g:
            pulled = EllipticElement(tuple(w.act(x_g.coords)))
            weight = self.weight(self.eng.inverse_of(w), pulled, x_g)
            d_y = self.d_over_pi(s, pulled.coords)
            inner = complex(0.0)
            for count, z in zip(counts, group):
                inner += count * cmath.exp(1j * -self.bform(self.image(z, x_h), pulled.coords))
            total += weight * d_y * inner
        return complex(s.gamma) * total / len(group)


def bits(z: complex) -> tuple:
    """Every bit of z: the hex of both parts and the sign of each, so that
    signed zeros count."""
    return (z.real.hex(), z.imag.hex(), math.copysign(1.0, z.real), math.copysign(1.0, z.imag))


# Contractions at which the unit phases are checked: signed zeros,
# subnormals, the smallest normal, huge values and seeded random phases.
UNIT_PHASE_POINTS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0, 0.5, math.pi, -math.pi, 1e-17, 1e16,
)
UNIT_PHASE_SCALES = (1.0, 0.5, 3.0, 1e-300)


# Image and form coordinates of the padding batches: signed zeros, and
# values whose products cancel, as 1 * 2 + 2 * -1, to an exact zero that a
# signed-zero product then meets.
PADDING_IMAGE_COORDS = (0.0, -0.0, 1.0, 2.0)
PADDING_FORM_COORDS = (-0.0, 2.0, -1.0)


def unit_phase_mismatches() -> list[tuple]:
    """(scale, contraction, got, want) wherever Side.exponentials' unit
    phase differs in any bit from the literal cmath.exp(1j * -(scale * p)),
    p = dot_in_order(u, B v), the contraction sum_i u_i (B v)_i taken in
    order from 0 with no padding.  Rank-one batches put each point of
    UNIT_PHASE_POINTS and 2000 seeded random phases in as contractions; the
    rank-two image u = (1, 2) against B v = (2, -1) contracts to exactly
    0.0; a rank-three batch mixes random images.

    The padding batches, at each rank 1 to MAX_RANK, take every image u
    with coordinates in PADDING_IMAGE_COORDS against every B v with
    coordinates in PADDING_FORM_COORDS, so that partial sums cancel to an
    exact zero and meet 0.0 and -0.0 products.  There the contraction of u
    and B v zero-padded to MAX_RANK coordinates, accumulated from 0.0 as the
    routes take it, must also have the bits of p, signed zeros included:
    a mismatch reports it as (scale, p, padded contraction, p)."""
    from endotransfer import build_root_datum
    from endotransfer.distributions import Side
    from endotransfer.lattice import dot_in_order
    from endotransfer.realform import build_grading
    from endotransfer.rootdata import MAX_RANK

    datum = build_root_datum("A1")
    grading = build_grading(datum, (0,))
    rng = random.Random(20)
    randoms = [rng.uniform(-100.0, 100.0) for _ in range(1000)]
    randoms += [rng.uniform(-1e-6, 1e-6) for _ in range(1000)]
    batches = [
        ([list(UNIT_PHASE_POINTS) + randoms], (1.0,)),
        ([[1.0], [2.0]], (2.0, -1.0)),
        ([[rng.uniform(-3.0, 3.0) for _ in range(200)] for _ in range(3)], (0.25, -1.5, 2.0)),
    ]
    for rank in range(1, MAX_RANK + 1):
        columns = [list(c) for c in zip(*itertools.product(PADDING_IMAGE_COORDS, repeat=rank))]
        batches += [(columns, bv) for bv in itertools.product(PADDING_FORM_COORDS, repeat=rank)]
    bad = []
    for scale in UNIT_PHASE_SCALES:
        side = Side(datum, grading, tuple, datum.float_form, scale)
        for columns, bv in batches:
            pad = (0.0,) * (MAX_RANK - len(bv))
            for u, got in zip(zip(*columns), side.exponentials(columns, bv)):
                p = dot_in_order(u, bv)
                padded = 0.0
                for a, b in zip(u + pad, bv + pad):
                    padded = padded + a * b
                if bits(complex(padded)) != bits(complex(p)):
                    bad.append((scale, p, padded, p))
                want = cmath.exp(1j * -(scale * p))
                if bits(got) != bits(want):
                    bad.append((scale, p, got, want))
    return bad


# ---------------------------------------------------------------------------
# the transfer table entry by entry, decoded from its sign columns, and the
# routes' chamber-memo fills taken entry by entry, from each entry's own
# masks, with a product per (u, w) in d_gh's fold: the reference for the
# fills from the table's sign columns
# ---------------------------------------------------------------------------

# One entry of the transfer table: w; the position of w^{-1}; sign(w) of
# TransferFactorEngine.transfer_table; the positive roots outside w Phi_H,
# in their order, and their mask at; (mask, parity) of those roots at w x
# (moved) and of Phi+_H at w x (h_moved), as endoscopy.negative_entries
# reads them; and the parity of w's length.  LiteralSetup.transfer_table
# fills the first four fields alone.
TableEntry = namedtuple("TableEntry", "w inverse sign roots at moved h_moved length", defaults=(None,) * 4)


def _column_mask(columns, k: int) -> int:
    """The mask of the positive roots whose sign column holds bit k."""
    mask = 0
    for b, column in enumerate(columns):
        if column >> k & 1:
            mask |= 1 << b
    return mask


def decode_table(engine, signs, inverse) -> tuple[TableEntry, ...]:
    """The transfer table's entries, rebuilt from its sign columns, the
    positions of w^{-1} and W: for the k-th element w_k, sign(w_k) < 0 is
    bit w_k^{-1} of weight_at's start; at is the weight_at columns at that
    bit, and roots the positive roots at its bits; moved is the
    weight_moved columns at bit k, with the parity of its start bit k
    XOR (sign < 0); h_moved the h_sign columns and start at bit k; and
    length bit k of the length bits (g_sign)."""
    positive = engine.g_datum.positive_roots
    at_start, at_columns = signs["weight_at"]
    moved_start, moved_columns = signs["weight_moved"]
    h_start, h_columns = signs["h_sign"]
    entries = []
    for k, w in enumerate(engine.weyl_g):
        i = inverse[k]
        negative = at_start >> i & 1
        at = _column_mask(at_columns, i)
        entries.append(TableEntry(
            w,
            i,
            -1 if negative else 1,
            tuple([alpha for b, alpha in enumerate(positive) if at >> b & 1]),
            at,
            (_column_mask(moved_columns, k), (moved_start >> k & 1) ^ negative),
            (_column_mask(h_columns, k), h_start >> k & 1),
            signs["g_sign"] >> k & 1,
        ))
    return tuple(entries)


def table_entries(scenario) -> tuple[TableEntry, ...]:
    """The entries of the scenario's pair table (decode_table)."""
    table = scenario.table
    return decode_table(scenario.engine, table.signs, table.inverse)


def weight_at(entry, negative: int) -> int:
    """The factor at the diagram (w, w^{-1} x, x), from x's mask."""
    return -entry.sign if (entry.at & negative).bit_count() & 1 else entry.sign


def weight_moved(entry, negative: int) -> int:
    """The factor at the diagram (w, x, w x), from x's mask."""
    mask, parity = entry.moved
    return -entry.sign if (parity + (mask & negative).bit_count()) & 1 else entry.sign


def h_sign(entry, negative: int) -> int:
    """The sign of the product of <beta, w x> over Phi+_H, from x's mask."""
    mask, parity = entry.h_moved
    return -1 if (parity + (mask & negative).bit_count()) & 1 else 1


def g_sign(entry, negative: int) -> int:
    """The sign of the product of <alpha, w x> over Phi+_G, from x's mask."""
    return -1 if (entry.length + negative.bit_count()) & 1 else 1


def entry_fold(law, weyl_table, fronts) -> list[complex]:
    """c_z = sum over u w = z of fronts[w] * det(u), over u in order."""
    counts = [complex(0.0)] * len(fronts)
    for (_, det), row in zip(weyl_table, law):
        for front, z in zip(fronts, row):
            counts[z] += front * det
    return counts


def entry_g_chamber(scenario, entries, neg_h: int, parity: int):
    """d_gh's memo entry under (mask of x_h, parity of x_g's mask), from
    these entries of the table."""
    eng, table, side = scenario.engine, scenario.table, scenario.g_side
    d_y = side.d_over_pi_at(parity_sign(parity))
    factors = [
        (weight_moved(entry, neg_h) * eng.base_value, side.d_over_pi_at(g_sign(entry, neg_h)))
        for entry in entries
    ]
    fronts = [weight * (side._prefactor * d_x) * d_y for weight, d_x in factors]
    front = side._gamma * side._prefactor * d_y
    return (
        entry_fold(table.g_law, side.weyl_table, fronts),
        [front * weight * d_x for weight, d_x in factors],
    )


def entry_h_chamber(scenario, entries, neg_h: int):
    """d_tilde_gh's memo entry under x_h's mask: prefactor [D/pi](z x_h)
    for each z in W_H, with no fold, and the sign of [D/pi](x_h)."""
    eng, side = scenario.engine, scenario.h_side
    fronts = [side._prefactor * side.d_over_pi_at(h_sign(entries[k], neg_h)) for k in eng.h_positions]
    return fronts, h_sign(entries[0], neg_h)


def entry_x_g_chamber(scenario, entries, neg_g: int):
    """d_tilde_gh's memo entry under x_g's mask."""
    eng, side = scenario.engine, scenario.h_side
    plus = side._gamma * side._prefactor * side.d_over_pi_at(1)
    minus = side._gamma * side._prefactor * side.d_over_pi_at(-1)
    products, plus_fronts, minus_fronts = [], [], []
    for entry in entries:
        weight = weight_at(entries[entry.inverse], neg_g) * eng.base_value
        d_y = side.d_over_pi_at(h_sign(entry, neg_g))
        products.append(weight * d_y)
        plus_fronts.append(plus * weight * d_y)
        minus_fronts.append(minus * weight * d_y)
    return products, {1: plus_fronts, -1: minus_fronts}


# ---------------------------------------------------------------------------
# literal Weyl words: generic matrix products, as before the O(n^2) updates
# ---------------------------------------------------------------------------


class LiteralWords:
    """Weyl words, orders and the Tits fold written with generic matrix
    products: a reflection's matrix comes from its formula, each step
    multiplies by the simple reflection's matrix, the image of a root walks
    the word, and positivity comes from Fraction coefficients over the
    simple roots.  The package's words, orders and products must equal
    these exactly, since the order of W and of the real Weyl groups fixes
    the routes' summation order."""

    def __init__(self, datum):
        self.datum = datum
        self.one = identity(datum.rank)
        self.root_of = dict(zip(datum.coroots, datum.roots))
        self.coroot_of = dict(zip(datum.roots, datum.coroots))
        self.reflections = [self.reflection(alpha) for alpha in datum.simple_roots]
        columns = tuple(zip(*datum.simple_roots))
        self.positive = set()
        for r in datum.roots:
            coeffs = solve_rational(columns, r)
            if all(c >= 0 for c in coeffs) and any(c > 0 for c in coeffs):
                self.positive.add(r)

    def reflection(self, root):
        """s(v) = v - <root, v> coroot, so M[r][c] = d_rc - root[c] coroot[r]."""
        coroot = self.coroot_of[root]
        n = self.datum.rank
        return tuple(tuple(int(r == c) - root[c] * coroot[r] for c in range(n)) for r in range(n))

    def reduced_word(self, matrix):
        suffix = []
        current = matrix
        guard = 0
        while current != self.one:
            guard += 1
            if guard > 10 * WEYL_ORDER_CAP:
                raise RootDatumError("matrix does not define a Weyl element")
            for i in range(len(self.reflections)):
                image = self.root_of[tuple(
                    sum(a * c for a, c in zip(row, self.datum.simple_coroots[i])) for row in current
                )]
                if image not in self.positive:
                    suffix.append(i)
                    current = mat_mul(current, self.reflections[i])
                    break
            else:
                raise RootDatumError("matrix does not define a Weyl element")
        return tuple(reversed(suffix))

    def element_from_matrix(self, matrix):
        return WeylElement(mat_int(matrix), self.reduced_word(mat_int(matrix)))

    def enumerate_weyl(self):
        ident = WeylElement(self.one, ())
        seen = {ident.matrix: ident}
        order = [ident]
        frontier = [ident]
        while frontier:
            new = []
            for w in sorted(frontier, key=lambda e: (e.word, e.matrix)):
                for i, g in enumerate(self.reflections):
                    cand = WeylElement(mat_mul(w.matrix, g), w.word + (i,))
                    if cand.matrix not in seen:
                        seen[cand.matrix] = cand
                        new.append(cand)
            order.extend(sorted(new, key=lambda e: (e.word, e.matrix)))
            frontier = new
        return tuple(order)

    def weyl_inverse(self, w):
        word = tuple(reversed(w.word))
        matrix = self.one
        for i in word:
            matrix = mat_mul(matrix, self.reflections[i])
        if mat_mul(w.matrix, matrix) != self.one:
            raise RootDatumError("the word of the Weyl element does not give its matrix")
        return WeylElement(matrix, word)

    def closure(self, generators):
        ident = WeylElement(self.one, ())
        seen = {ident.matrix: ident}
        frontier = [ident]
        while frontier:
            new = []
            for w in frontier:
                for g in generators:
                    cand = WeylElement(mat_mul(w.matrix, g.matrix), w.word + g.word)
                    if cand.matrix not in seen:
                        cand = self.element_from_matrix(cand.matrix)
                        seen[cand.matrix] = cand
                        new.append(cand)
            frontier = new
        return tuple(sorted(seen.values(), key=lambda e: (len(e.word), e.word, e.matrix)))

    def act_on_root(self, w, f):
        out = f
        for i in reversed(w.word):
            alpha, coalpha = self.datum.simple_roots[i], self.datum.simple_coroots[i]
            pairing = sum(x * c for x, c in zip(out, coalpha))
            out = tuple(x - pairing * a for x, a in zip(out, alpha))
        return out

    def _fold_generator(self, eps, w, i):
        """Right-multiply (eps, n(w)) by n_i."""
        image = self.act_on_root(w, self.datum.simple_roots[i])
        target = WeylElement(mat_mul(w.matrix, self.reflections[i]), w.word + (i,))
        if image in self.positive:
            return eps, target
        shorter = self.element_from_matrix(target.matrix)
        sign_vec = shorter.act(self.datum.simple_coroots[i])
        return tuple((a + b) % 2 for a, b in zip(eps, sign_vec)), shorter

    def tits_multiply(self, a, b):
        moved = a.w.act(b.eps)
        eps = tuple((x + y) % 2 for x, y in zip(a.eps, moved))
        w = a.w
        for i in self.element_from_matrix(b.w.matrix).word:
            eps, w = self._fold_generator(eps, w, i)
        return TitsElement(eps, self.element_from_matrix(w.matrix))


def pairwise_grading_refuses(grading) -> bool:
    """The grading check on every pair of roots: True when the grade is not
    symmetric under negation, or not additive on a sum of two roots that is
    a root."""
    datum, grade = grading.datum, grading.grade
    if any(grade[r] != grade[tuple(-x for x in r)] for r in datum.roots):
        return True
    for a in datum.roots:
        for b in datum.roots:
            s = tuple(x + y for x, y in zip(a, b))
            if datum.is_root(s) and grade[s] != (grade[a] + grade[b]) % 2:
                return True
    return False


# ---------------------------------------------------------------------------
# literal per-w set-up
# ---------------------------------------------------------------------------


class ADatum(Record):
    """a_alpha = i * ratio(alpha) on positive roots; a(-alpha) = -a(alpha).
    Delta_I Delta_II does not depend on it (Langlands-Shelstad 1987,
    section 3): the engine's factors are those of default, whose ratios are
    all 1, and LiteralSetup's take any.  A frozen record, so tests can key
    and compare a-data; tests/test_records.py holds it to the contract of
    the package's records."""

    _fields = ("ratios",)
    __slots__ = _fields + ("_map",)

    def __init__(self, ratios):
        if any(r == 0 for _, r in ratios):
            raise EndoscopyError("a-datum ratio must be nonzero")
        super().__init__(ratios)
        set_attribute(self, "_map", dict(ratios))

    def ratio(self, root):
        if root in self._map:
            return self._map[root]
        neg = tuple(-x for x in root)
        if neg in self._map:
            return -self._map[neg]
        raise EndoscopyError(f"no a-datum value for root {root}")

    @staticmethod
    def default(datum) -> "ADatum":
        return ADatum(tuple((r, Fraction(1)) for r in datum.positive_roots))


def literal_weyl_inverse(datum, w) -> WeylElement:
    """w^{-1} from the inverse of its matrix by rational elimination."""
    inv = invert_rational(w.matrix)
    if any(Fraction(x).denominator != 1 for row in inv for x in row):
        raise RootDatumError("matrix is not unimodular")
    return WeylElement(tuple(tuple(int(x) for x in row) for row in inv), tuple(reversed(w.word)))


@functools.lru_cache(maxsize=None)
def literal_tits_delta(datum, omega, w) -> tuple[int, ...]:
    """delta(w) from the product n(w)^{-1} n(omega) n(w)."""
    lhs = tits_multiply(
        datum,
        tits_multiply(datum, tits_inverse(datum, n_of(datum, w)), n_of(datum, omega)),
        n_of(datum, w),
    )
    if lhs.w != omega:
        raise EndoscopyError("minus-one element is not central in the Weyl group")
    return lhs.eps


def literal_act_on_functional(datum, w, f) -> tuple[Fraction, ...]:
    """w . f, one simple reflection of w's word at a time, in Fractions."""
    out = tuple(Fraction(x) for x in f)
    for i in reversed(w.word):
        pairing = sum(x * c for x, c in zip(out, datum.simple_coroots[i]))
        out = tuple(x - pairing * a for x, a in zip(out, datum.simple_roots[i]))
    return out


def literal_pairing(sigma, magnitudes, phases, xhat) -> int:
    """The class of the point (magnitudes, phases) paired with xhat, in
    Fractions, after the checks of the cohomology layer: t sigma(t) = 1,
    (1 - sigma) x integral, xhat of order 2 and Galois-fixed in pi_0.

    The pairing is exp(2 pi i <xhat, (1 - sigma) x>) with no H^1 reduction:
    the class's representative differs from (1 - sigma) x by some
    (1 - sigma) y, y integral, and <xhat, (1 - sigma) y> =
    <(1 - sigma^T) xhat, y> is an integer for a Galois-fixed xhat."""
    n = len(sigma)
    for j in range(n):
        m = magnitudes[j]
        for k in range(n):
            if sigma[j][k]:
                m *= magnitudes[k] ** sigma[j][k]
        if m != 1:
            raise AssertionError("magnitudes violate the cocycle condition")
    lam = [phases[i] - sum(sigma[i][k] * phases[k] for k in range(n)) for i in range(n)]
    if any(v.denominator != 1 for v in lam):
        raise AssertionError("(1 - sigma) x is not integral")
    if any((2 * x).denominator != 1 for x in xhat):
        raise AssertionError("character is not of order 2")
    moved = [sum(sigma[k][j] * xhat[k] for k in range(n)) for j in range(n)]
    if any((a - b).denominator != 1 for a, b in zip(moved, xhat)):
        raise AssertionError("character is not Galois-fixed in pi_0")
    r = sum(x * v for x, v in zip(xhat, lam))
    if (2 * r).denominator != 1:
        raise AssertionError("pairing is not a sign")
    return 1 if r.denominator == 1 else -1


def literal_coweight_classes(coweights) -> list[tuple[Fraction, ...]]:
    """Representatives in [0, 1)^n of the coweight lattice modulo the
    cocharacter lattice, closed under addition from the fundamental
    coweights."""
    seen = {(Fraction(0),) * len(coweights)}
    frontier = list(seen)
    while frontier:
        new = []
        for p in frontier:
            for cw in coweights:
                q = tuple((a + b) % 1 for a, b in zip(p, cw))
                if q not in seen:
                    seen.add(q)
                    new.append(q)
        frontier = new
    return sorted(seen)


def literal_doubled_basis(datum) -> tuple[tuple[Fraction, ...], ...]:
    """A basis of the cocharacter lattice of the doubled torus (T x T)/Z,
    Z the classes (p, -p) of literal_coweight_classes: (omega_i, -omega_i)
    for the fundamental coweights, the columns of the inverse of the
    simple-root matrix, and (0, e_j).  A point (x, y) of the
    lattice has x in the coweight lattice and x + y integral, so it is
    sum c_i (omega_i, -omega_i) + (0, x + y); every class must lie in it."""
    n = datum.rank
    coweights = transpose(invert_rational(datum.simple_roots))
    basis = tuple(tuple(cw) + tuple(-x for x in cw) for cw in coweights)
    basis += tuple((Fraction(0),) * n + tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    for p in literal_coweight_classes(coweights):
        if not in_lattice(basis, p + tuple(-x for x in p)):
            raise AssertionError(f"coweight class {p} is outside the doubled lattice")
    return basis


class LiteralSetup(TransferFactorEngine):
    """The engine of a scenario with its per-w set-up as it was written in
    Fractions: delta(w) from the triple product for each w, w^{-1} by
    rational elimination, w acting along its word, delta_III on the doubled
    torus of literal_doubled_basis with coordinates by elimination over its
    basis, and the pairings of literal_pairing.  delta_I, delta_II and
    delta_III, relative_factor and the transfer table are frozen copies;
    the rest (Weyl groups, base diagram) is the engine's, so the two
    transfer tables must agree entry by entry.  delta_I, delta_II,
    relative_factor and the transfer table take an a-datum (ADatum), the
    default one when none is given: the engine's take none.
    literal_lookups, literal_entries and literal_matrices_and_laws
    recompute from matrices and words what the engine and the pair table
    read by lookup from root permutations.
    """

    def __init__(self, engine: TransferFactorEngine):
        base = engine.base_diagram
        super().__init__(
            engine.datum,
            engine.grading_g,
            engine.grading_h,
            engine.real_weyl_g,
            lambda: engine.real_weyl_h,
            base.x_h,
            base.x_g,
            engine.base_value,
        )
        d = self.g_datum
        coroots = [d.coroot(r) for r in d.positive_roots]
        self.rho = tuple(Fraction(sum(c[j] for c in coroots), 2) for j in range(d.rank))
        self.u_basis = literal_doubled_basis(d)
        # The doubled torus's -1, in its basis: column i holds the
        # coordinates of -basis[i].
        columns = [self._u_coordinates(tuple(-x for x in b)) for b in self.u_basis]
        self.u_sigma = tuple(tuple(int(c[i]) for c in columns) for i in range(len(columns)))
        self.words = LiteralWords(d)
        # The Galois action on the cocharacters of the compact Cartan, -1.
        self.sigma = elliptic_torus(d.rank).involution

    def _u_coordinates(self, v):
        sol = solve_rational(transpose(self.u_basis), v)
        if sol is None:
            raise AssertionError("vector is outside the span of the doubled torus's lattice")
        return sol

    def tits_delta(self, w):
        return literal_tits_delta(self.g_datum, self.omega, w)

    def kappa_for(self, w):
        return literal_act_on_functional(self.g_datum, w, self.datum.xhat_s)

    def delta_i(self, diagram, a=None):
        a = a or ADatum.default(self.g_datum)
        d = self.g_datum
        w = diagram.w
        phases = [Fraction(0)] * d.rank
        mags = [Fraction(1)] * d.rank
        w_rho = w.act(self.rho)
        w_delta = w.act(self.tits_delta(w))
        for j in range(d.rank):
            phases[j] += Fraction(w_rho[j] + self.rho[j], 2) + Fraction(w_delta[j], 2)
        for beta in d.positive_roots:
            alpha = self.words.act_on_root(w, beta)
            r = a.ratio(alpha)
            coroot = d.coroot(alpha)
            if r < 0:
                for j in range(d.rank):
                    phases[j] += Fraction(coroot[j], 2)
            mag = abs(r)
            if mag != 1:
                for j in range(d.rank):
                    mags[j] *= mag ** coroot[j]
        return literal_pairing(self.sigma, mags, phases, self.kappa_for(w))

    def delta_ii_roots(self, w):
        d = self.g_datum
        h_image = {self.words.act_on_root(w, beta) for beta in self.datum.h_roots}
        return tuple(alpha for alpha in d.positive_roots if alpha not in h_image)

    def delta_ii(self, diagram, a=None):
        a = a or ADatum.default(self.g_datum)
        roots = self.delta_ii_roots(diagram.w)
        out = root_signs(roots, diagram.x_g.coords)
        for alpha in roots:
            out *= sign_of(a.ratio(alpha))
        return out

    def relative_factor(self, diagram, a=None):
        base = self.base_diagram
        return (
            self.delta_i(diagram, a)
            * self.delta_i(base, a)
            * self.delta_ii(diagram, a)
            * self.delta_ii(base, a)
            * self.delta_iii(diagram, base)
        )

    def delta_iii(self, diagram, base=None):
        if base is None:
            base = self.base_diagram
        slot, f = self._delta_iii_half(diagram.w, +1)
        base_slot, base_f = self._delta_iii_half(base.w, -1)
        x_new = self._u_coordinates(slot + base_slot)
        f_new = tuple(sum(x * b for x, b in zip(f + base_f, row)) for row in self.u_basis)
        return literal_pairing(self.u_sigma, (Fraction(1),) * len(x_new), x_new, f_new)

    def _delta_iii_half(self, w, sign):
        d = self.g_datum
        rho_back = literal_weyl_inverse(d, w).act(self.rho)
        delta_vec = self.tits_delta(w)
        slot = tuple(
            sign * (-Fraction(rho_back[j]) / 2 + Fraction(delta_vec[j], 2)) for j in range(d.rank)
        )
        return slot, self.kappa_for(w)

    def transfer_table(self, a=None):
        a = a or ADatum.default(self.g_datum)
        base = self.base_diagram
        position = {w.matrix: i for i, w in enumerate(self.weyl_g)}
        diagrams = [
            Diagram(self.datum, w, base.x_h, EllipticElement(tuple(w.act(base.x_h.coords))))
            for w in self.weyl_g
        ]
        d1 = [self.delta_i(diagram, a) for diagram in diagrams]
        base_sign = d1[position[base.w.matrix]] * self.delta_ii(base, a)
        entries = []
        for diagram, d1_w in zip(diagrams, d1):
            roots = self.delta_ii_roots(diagram.w)
            sign = (
                d1_w
                * base_sign
                * self.delta_iii(diagram, base)
                * self.delta_ii(diagram, a)
                * root_signs(roots, diagram.x_g.coords)
            )
            inverse = position[literal_weyl_inverse(self.g_datum, diagram.w).matrix]
            entries.append(TableEntry(diagram.w, inverse, sign, roots))
        return tuple(entries)

    def literal_lookups(self):
        """The engine's per-w lookups recomputed from matrices and words:
        the position in weyl_g of w^{-1} (rational inverse) and of w^{-2}
        (its matrix squared), w . 2 rho_check as the sum of the coroots of
        w alpha over alpha > 0 (each root walked along w's word), and the
        position in weyl_g of each element of weyl_h."""
        d = self.g_datum
        position = {w.matrix: k for k, w in enumerate(self.weyl_g)}
        inverse = tuple(position[literal_weyl_inverse(d, w).matrix] for w in self.weyl_g)
        inverse_square = tuple(
            position[literal_product(self.weyl_g[k].matrix, self.weyl_g[k].matrix)] for k in inverse
        )
        two_rho_images = tuple(
            tuple(
                sum(column)
                for column in zip(*(d.coroot(self.words.act_on_root(w, alpha)) for alpha in d.positive_roots))
            )
            for w in self.weyl_g
        )
        h_positions = tuple(position[w.matrix] for w in self.weyl_h)
        return inverse, inverse_square, two_rho_images, h_positions

    def literal_entries(self):
        """The pair table's entries from their definitions: (w, inverse,
        sign, roots) of transfer_table on the default a-datum, and the
        parity of w's length, read from a reduced word of its matrix."""
        return tuple(
            (e.w, e.inverse, e.sign, e.roots, len(self.words.reduced_word(e.w.matrix)) & 1)
            for e in self.transfer_table()
        )

    def literal_matrices_and_laws(self):
        """The pair table's other fields from their definitions: the
        matrices of W and W_H, which its row tables hold, and G's group law
        from matrix products, row u holding the position of u w for each w
        of W."""
        position = {w.matrix: k for k, w in enumerate(self.weyl_g)}
        law = tuple(
            tuple(position[literal_product(u.matrix, w.matrix)] for w in self.weyl_g)
            for u in self.real_weyl_g
        )
        return tuple(w.matrix for w in self.weyl_g), tuple(w.matrix for w in self.weyl_h), law


def matrices_from_rows(rows) -> tuple:
    """Each element's matrix from a row table (lattice.row_table): its rows
    as the table's gathers pick them, the padding cut off."""
    return tuple(tuple(row[: len(rows)] for row in m) for m in zip(*[pick(r) for r, pick in rows]))


def literal_product(a, b):
    """The matrix product a b by its definition, entry by entry."""
    n, m = len(b), len(b[0])
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(m)) for i in range(len(a)))


# -- helpers only tests call ------------------------------------------------


def transfer_factor(engine: TransferFactorEngine, x_h, x_g, a=None):
    """Normalized factor: base_value on the base diagram, 0 off-orbit.  An
    a-datum a needs a LiteralSetup for engine."""
    diagram = build_diagram(engine.datum, engine.weyl_g, x_h, x_g)
    if diagram is None:
        return 0
    factor = engine.relative_factor(diagram) if a is None else engine.relative_factor(diagram, a)
    return factor * engine.base_value


def boundary(torus, s):
    """The coboundary s * sigma(s)^{-1}."""
    return s * galois_act(torus, s).inverse()


@dataclass(frozen=True)
class RatioCheckReport:
    word: tuple[int, ...]
    lhs_ratio: int
    rhs_product: int
    restriction_ok: bool

    @property
    def passed(self) -> bool:
        return self.lhs_ratio == self.rhs_product and self.restriction_ok


def delta_ii_ratio_check(scenario, x_h, x_g, w) -> RatioCheckReport:
    """Exact sign identity between the middle-factor ratio of the paired
    terms and the root-sign mismatch product, plus the root-restriction
    value identities on the endoscopic subsystem."""
    eng = scenario.engine
    d = eng.g_datum

    target = EllipticElement(w.act(x_h.coords))
    d1 = Diagram(eng.datum, w, x_h, target)
    winv = eng.inverse_of(w)
    pulled = EllipticElement(winv.act(x_g.coords))
    d2 = Diagram(eng.datum, w, pulled, x_g)
    lhs_ratio = eng.delta_ii(d1) * eng.delta_ii(d2)

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


def weil_prefactor_sides(scenario) -> tuple[EighthRoot, EighthRoot]:
    """gamma_psi * prefactor for the two sides, as exact eighth roots."""
    g = scenario.g_side
    h = scenario.h_side
    return g.gamma * g.prefactor, h.gamma * h.prefactor


def weil_prefactor_balanced_invariant(scenario) -> tuple[EighthRoot, EighthRoot]:
    """The sharp constant identity: gamma * prefactor * (-1)^{#pos roots}
    equals (-i)^{rank/2-ish} on both sides.  This is the version that the
    term pairing actually uses; both sides agree for every elliptic datum."""
    g_val, h_val = weil_prefactor_sides(scenario)
    m_g = len(scenario.g_side.datum.positive_roots)
    m_h = len(scenario.h_side.datum.positive_roots)
    return g_val * EighthRoot(4 * m_g), h_val * EighthRoot(4 * m_h)


def closed_form_table(scenario) -> tuple[int, ...]:
    """The sign the transfer table should hold for each w of W, in its
    order, by the character property (Langlands-Shelstad 1987, sections
    3-4): F(w) = kappa(w^{-1} lambda - lambda) prod sign<alpha, w x_h> over
    the positive roots outside w Phi_H, at the base point's x_h.  lambda is
    the grading coweight, the sum of the fundamental coweights (the columns
    of the inverse of the simple-root matrix) over the noncompact simple
    roots of G, and kappa(mu) = (-1)^<2 xhat_s, mu>.  w^{-1} lambda is solved for by
    Fraction elimination; the engine supplies only W and each w's roots
    (delta_ii_roots)."""
    eng = scenario.engine
    d = eng.g_datum
    coweights = transpose(invert_rational(d.simple_roots))
    grades = [eng.grading_g.grade[alpha] for alpha in d.simple_roots]
    lam = [sum(g * cw[j] for g, cw in zip(grades, coweights)) for j in range(d.rank)]
    two_xhat = [2 * x for x in eng.datum.xhat_s]
    x_h = eng.base_diagram.x_h.coords
    signs = []
    for w in eng.weyl_g:
        moved = solve_rational(w.matrix, lam)
        mu = [x - y for x, y in zip(moved, lam)]
        if any(x.denominator != 1 for x in mu):
            raise AssertionError(f"w^-1 lambda - lambda = {mu} is not integral for w = {w.word}")
        kappa = -1 if sum(x * m for x, m in zip(two_xhat, mu)) % 2 else 1
        signs.append(kappa * root_signs(eng.delta_ii_roots(w), w.act(x_h)))
    return tuple(signs)


def scenario_text(g_type: str, grades, signs, h_rank: int) -> str:
    """The scenario text of a datum as tests/conftest.py builds it: G's
    simple grades (0 compact, 1 noncompact), the signs of s, H quasi-split
    (all h_rank simple roots noncompact) and the base point (1/2, 2/3, 3/4,
    ...) on both sides."""
    grade = {0: "compact", 1: "noncompact"}
    point = ", ".join(f"{k + 1}/{k + 2}" for k in range(len(grades)))
    lines = [f"name = {g_type}{tuple(signs)}", f"g_type = {g_type}", "[grading_g]"]
    lines += [f"alpha{i + 1} = {grade[x]}" for i, x in enumerate(grades)]
    lines += ["[s_character]"] + [f"alpha{i + 1} = {s:+d}" for i, s in enumerate(signs)]
    lines += ["[grading_h]"] + [f"alpha{i + 1} = noncompact" for i in range(h_rank)]
    lines += ["[base_point]", f"x_h = {point}", f"x_g = {point}"]
    return "\n".join(lines)
