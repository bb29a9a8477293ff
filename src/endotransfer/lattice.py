"""Exact integer and rational linear algebra on small matrices.

Everything here works on tuples of tuples with int or Fraction entries;
matrices are row-major.  Sizes stay below ~10x10 in this package, so the
classical elimination algorithms are used without any pivot-size tricks.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Optional, Sequence

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]
FracVec = tuple[Fraction, ...]


def vec_int(v: Iterable) -> IntVec:
    return tuple(int(x) for x in v)


def vec_frac(v: Iterable) -> FracVec:
    return tuple(Fraction(x) for x in v)


def common_denominator(v: Iterable) -> tuple[IntVec, int]:
    """Integer numerators of the rationals in v over their least common
    denominator, and that denominator."""
    v = vec_frac(v)
    den = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (den // x.denominator) for x in v), den


def mat_int(rows: Iterable[Iterable]) -> IntMat:
    return tuple(vec_int(r) for r in rows)


def identity(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def mat_vec(a: Sequence[Sequence], v: Sequence):
    return tuple(sum(map(mul, row, v)) for row in a)


def dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def transpose(a: Sequence[Sequence]):
    if not a:
        return ()
    return tuple(tuple(row[i] for row in a) for i in range(len(a[0])))


def det_int(a: IntMat) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
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


def solve_rational(a: Sequence[Sequence], b: Sequence) -> Optional[FracVec]:
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


def hermite_normal_form(rows: IntMat) -> tuple[IntMat, IntMat]:
    """Row-style HNF.  Returns (h, u) with u unimodular and u @ rows = h.

    h is in echelon form with positive pivots; zero rows sink to the bottom.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    u = [list(r) for r in identity(nrows)]
    row = 0
    for col in range(ncols):
        while True:
            nz = [i for i in range(row, nrows) if m[i][col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(m[i][col]))
            m[row], m[piv] = m[piv], m[row]
            u[row], u[piv] = u[piv], u[row]
            done = True
            for i in range(row + 1, nrows):
                if m[i][col] != 0:
                    q = m[i][col] // m[row][col]
                    m[i] = [x - q * y for x, y in zip(m[i], m[row])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[row])]
                    if m[i][col] != 0:
                        done = False
            if done:
                break
        if any(m[i][col] != 0 for i in range(row, nrows)):
            if m[row][col] < 0:
                m[row] = [-x for x in m[row]]
                u[row] = [-x for x in u[row]]
            for i in range(row):
                q = m[i][col] // m[row][col]
                if q:
                    m[i] = [x - q * y for x, y in zip(m[i], m[row])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[row])]
            row += 1
            if row == nrows:
                break
    return mat_int(m), mat_int(u)


def integer_kernel(a: IntMat) -> IntMat:
    """Basis (as rows) of the integer kernel {v : a v = 0}."""
    cols = len(a[0]) if a else 0
    if not a:
        return identity(cols)
    h, u = hermite_normal_form(transpose(a))
    # h = u @ a^T; rows of u matching zero rows of h span the kernel of a.
    basis = [u[i] for i in range(len(h)) if all(x == 0 for x in h[i])]
    return mat_int(basis)


def smith_normal_form(a: IntMat) -> tuple[IntMat, IntMat, IntMat]:
    """Smith form.  Returns (d, p, q) with d = p @ a @ q, p and q unimodular."""
    m = [list(r) for r in a]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    p = [list(r) for r in identity(nrows)]
    q = [list(r) for r in identity(ncols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        p[i], p[j] = p[j], p[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in q:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]
        p[dst] = [x + c * y for x, y in zip(p[dst], p[src])]

    def add_col(dst, src, c):
        for row in m:
            row[dst] += c * row[src]
        for row in q:
            row[dst] += c * row[src]

    t = 0
    while t < min(nrows, ncols):
        entries = [(abs(m[i][j]), i, j) for i in range(t, nrows) for j in range(t, ncols) if m[i][j] != 0]
        if not entries:
            break
        _, pi, pj = min(entries)
        swap_rows(t, pi)
        swap_cols(t, pj)
        dirty = False
        for i in range(t + 1, nrows):
            if m[i][t] != 0:
                add_row(i, t, -(m[i][t] // m[t][t]))
                dirty = dirty or m[i][t] != 0
        for j in range(t + 1, ncols):
            if m[t][j] != 0:
                add_col(j, t, -(m[t][j] // m[t][t]))
                dirty = dirty or m[t][j] != 0
        if dirty:
            continue
        # Ensure the pivot divides every remaining entry.
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if m[i][j] % m[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            p[t] = [-x for x in p[t]]
        t += 1
    return mat_int(m), mat_int(p), mat_int(q)


def in_lattice(basis_rows: IntMat, v: Sequence[Fraction]) -> bool:
    """Whether v lies in the integer row-span of basis_rows.

    The rows must be linearly independent (a basis, not a generating set);
    the coordinates of v are then unique and integrality is decidable.
    """
    if not basis_rows:
        return all(Fraction(x) == 0 for x in v)
    sol = solve_rational(transpose(basis_rows), v)
    if sol is None:
        return False
    return all(x.denominator == 1 for x in sol)


def invert_rational(a: Sequence[Sequence]) -> tuple[FracVec, ...]:
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


def coordinate_map(rows: Sequence[Sequence]) -> tuple[IntMat, int]:
    """The matrix P = (R R^T)^{-1} R, for which P v = c whenever
    v = sum_i c_i R[i], as an integer matrix and a common denominator.  The
    rows of R must be linearly independent."""
    p = mat_mul(invert_rational(mat_mul(rows, transpose(rows))), rows)
    den = lcm(*(Fraction(x).denominator for row in p for x in row))
    return mat_int(tuple(x * den for x in row) for row in p), den


def coordinates(rows: Sequence[Sequence], cmap: tuple[IntMat, int], v: Sequence) -> Optional[IntVec]:
    """Numerators, over cmap's denominator, of the coordinates of v over the
    rows, with cmap = coordinate_map(rows), or None when v is outside the
    span of the rows.  v holds integers, or numerators over one common
    denominator of the caller's; the coordinates then share it.  With fewer
    rows than columns, P v is a solution only for v in the span, so it is
    checked."""
    m, den = cmap
    c = tuple(dot(row, v) for row in m)
    if len(rows) < len(v) and mat_vec(transpose(rows), c) != tuple(den * x for x in v):
        return None
    return c
