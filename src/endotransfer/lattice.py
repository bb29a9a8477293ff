"""Exact integer linear algebra on small matrices.

Matrices are row-major tuples of tuples of ints.  Every exact solve goes
through one fraction-free elimination (Bareiss 1968), which keeps every
entry an integer; rationals are integer numerators over one denominator.
Sizes stay below ~10x10 in this package, so the classical elimination
algorithms are used without any pivot-size tricks.  Vectors over GF(2) are
ints read as bit sets, and one elimination, gf2_basis, serves them all.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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


def dot_in_order(u: Sequence, v: Sequence):
    """sum u_i v_i, accumulated left to right from the integer 0.  For ints
    and Fractions this is dot; for floats it fixes the rounding, which sum()
    does not: from Python 3.12 on, sum() of floats is compensated."""
    acc = 0
    for a, b in zip(u, v):
        acc += a * b
    return acc


def column_table(matrices: Sequence[Sequence[Sequence]]):
    """Square matrices M_0, M_1, ... of one size in column layout:
    cols[i][j][k] = M_k[i][j]."""
    n = len(matrices[0])
    return tuple(tuple(tuple(m[i][j] for m in matrices) for j in range(n)) for i in range(n))


def images_in_order(cols, v) -> list[list]:
    """Every M_k v at once, from the column table of the M_k, as image
    columns: out[i][k] is coordinate i of M_k v, the sum over j of
    cols[i][j][k] v_j accumulated left to right from the integer 0 as
    dot_in_order does.  An exact v gives exact images; a float v gives the
    rounding of dot_in_order on each row, and +0.0 where that gives it."""
    out = []
    for row in cols:
        pairs = zip(row, v)
        col, x = next(pairs)
        acc = [0 + m * x for m in col]
        for col, x in pairs:
            acc = [a + m * x for a, m in zip(acc, col)]
        out.append(acc)
    return out


def transpose(a: Sequence[Sequence]):
    if not a:
        return ()
    return tuple(tuple(row[i] for row in a) for i in range(len(a[0])))


def _eliminate(m: list[list[int]], n: int) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of the first n
    columns of the n rows m, in place.  Step c replaces every row r != c by
    (p m[r] - m[r][c] m[c]) / p', with p = m[c][c] and p' the previous
    pivot; the division is exact, so m stays T m0 with T integer.  When the
    n x n block is nonsingular it ends as D times the identity, with D =
    sign * det of the block of m0 and sign that of the row swaps.  Returns
    (D, sign), with D = 0 as soon as the block is found singular."""
    prev, sign = 1, 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return 0, sign
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        top = m[c]
        p = top[c]
        for r in range(n):
            if r != c:
                f = m[r][c]
                m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], top)]
        prev = p
    return prev, sign


def det_int(a: IntMat) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    d, sign = _eliminate([list(row) for row in a], len(a))
    return sign * d


def inverse_over(a: IntMat) -> tuple[IntMat, int]:
    """The inverse of a square integer matrix as (M, d) with a M = d 1,
    d > 0 and gcd(d, entries of M) = 1: d is the least common denominator
    of the inverse.  ValueError when a is singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    d, _ = _eliminate(m, n)
    if d == 0:
        raise ValueError("matrix is singular")
    g = gcd(d, *(x for row in m for x in row[n:]))
    if d < 0:
        g = -g
    return tuple(tuple(x // g for x in row[n:]) for row in m), d // g


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


def gf2_basis(vectors: Iterable[int]) -> tuple[int, ...]:
    """The reduced echelon basis over GF(2) of the span of the vectors, each
    an int read as a bit set: the pivot of a basis vector is its highest
    bit, and no other basis vector has that bit.  Sorted by decreasing
    pivot."""
    basis: list[int] = []
    for v in vectors:
        v = gf2_reduce(v, basis)
        if v:
            top = 1 << (v.bit_length() - 1)
            basis = [b ^ v if b & top else b for b in basis]
            basis.append(v)
    return tuple(sorted(basis, reverse=True))


def gf2_reduce(v: int, basis: Iterable[int]) -> int:
    """v with every pivot bit of a reduced echelon basis cleared: the least
    element of the coset of v modulo the span."""
    for b in basis:
        if v >> (b.bit_length() - 1) & 1:
            v ^= b
    return v


def coordinate_map(rows: Sequence[Sequence[int]]) -> tuple[IntMat, int]:
    """The matrix P = (R R^T)^{-1} R, for which P v = c whenever
    v = sum_i c_i R[i], as an integer matrix and the least common
    denominator of its entries.  The rows of R must be linearly
    independent; ValueError otherwise."""
    m, den = inverse_over(mat_mul(rows, transpose(rows)))
    p = mat_mul(m, rows)
    g = gcd(den, *(x for row in p for x in row))
    return tuple(tuple(x // g for x in row) for row in p), den // g


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
