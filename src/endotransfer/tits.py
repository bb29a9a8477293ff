"""Arithmetic in the extended Weyl group generated by the canonical
reflection representatives n_i.

Elements are pairs (eps, w): a 2-torsion torus part (-1)^eps with eps a
coroot-lattice vector mod 2, times the canonical representative n(w) built
from any reduced word of w.  The two defining rules are

    n_i * n_i = (-1)^{coroot_i}
    n_i * (-1)^lam = (-1)^{s_i lam} * n_i

and products of canonical representatives are reduced with the standard
length-descent fold, which is reduced-word independent.
"""

from __future__ import annotations

from .lattice import IntMat, IntVec, identity, mat_vec, vec_int
from .record import Record
from .rootdata import RootDatum, WeylElement, weyl_inverse


class TitsElement(Record):
    """(-1)^eps n(w): eps is the exponent vector of the torus part, reduced
    mod 2."""

    __slots__ = _fields = ("eps", "w")

    def __init__(self, eps: IntVec, w: WeylElement):
        super().__init__(tuple(x % 2 for x in eps), w)


def n_of(datum: RootDatum, w: WeylElement) -> TitsElement:
    zero = tuple(0 for _ in range(datum.rank))
    return TitsElement(zero, w)


def torus_part(datum: RootDatum, eps: IntVec) -> TitsElement:
    ident = WeylElement(identity(datum.rank), ())
    return TitsElement(vec_int(eps), ident)


def _fold_generator(datum: RootDatum, eps: IntVec, matrix: IntMat, i: int) -> tuple[IntVec, IntMat]:
    """Right-multiply (eps, n(w)) by n_i, for the w with this matrix."""
    target = datum.times_simple(matrix, i)
    if datum.is_positive(datum.root_image(matrix, datum.simple_roots[i])):
        # length goes up: concatenation of reduced words stays reduced
        return eps, target
    # length drop: n(w) n_i = n(w s_i) (-1)^{(w s_i) coroot_i}
    sign_vec = mat_vec(target, datum.simple_coroots[i])
    return tuple((a + b) % 2 for a, b in zip(eps, sign_vec)), target


def fold(datum: RootDatum, eps: IntVec, matrix: IntMat, word) -> tuple[IntVec, IntMat]:
    """(-1)^eps n(w) n_{i_1} ... n_{i_k} as (eps, matrix), for the w with
    this matrix and the word (i_1, ..., i_k); a reduced word of v gives
    (-1)^eps n(w) n(v)."""
    for i in word:
        eps, matrix = _fold_generator(datum, eps, matrix, i)
    return eps, matrix


def multiply(datum: RootDatum, a: TitsElement, b: TitsElement) -> TitsElement:
    # (-1)^{eps_b} moves left through n(w_a) by the lattice action of w_a.
    moved = a.w.act(b.eps)
    eps = tuple((x + y) % 2 for x, y in zip(a.eps, moved))
    # fold a reduced word of w_b; n(w_b) is independent of which one
    eps, matrix = fold(datum, eps, a.w.matrix, datum.element_from_matrix(b.w.matrix).word)
    return TitsElement(eps, datum.element_from_matrix(matrix))


def inverse(datum: RootDatum, a: TitsElement) -> TitsElement:
    """Inverse of (eps, w): compute n(w) n(w^{-1}) = (-1)^{e0} and unwind."""
    winv = weyl_inverse(datum, a.w)
    prod = multiply(datum, n_of(datum, a.w), n_of(datum, winv))
    if not prod.w.is_identity():
        raise AssertionError("n(w) n(w^{-1}) is not torus-valued")
    # n(w)^{-1} = n(w^{-1}) (-1)^{e0}; then invert the torus part of a.
    eps_total = tuple((winv.act(prod.eps)[k] + winv.act(a.eps)[k]) % 2 for k in range(datum.rank))
    return TitsElement(eps_total, winv)
