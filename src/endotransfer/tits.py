"""Arithmetic in the extended Weyl group generated by the canonical
reflection representatives n_i.

Elements are pairs (eps, w): a 2-torsion torus part (-1)^eps with eps a
coroot-lattice vector mod 2, times the canonical representative n(w) built
from any reduced word of w.  The two defining rules are

    n_i * n_i = (-1)^{coroot_i}
    n_i * (-1)^lam = (-1)^{s_i lam} * n_i

and products of canonical representatives are reduced with the standard
length-descent fold, which is reduced-word independent.  The fold runs on
root permutations: the descent test and the sign are root lookups.
"""

from __future__ import annotations

from .lattice import IntVec, identity, mat_mul, vec_int
from .record import Record
from .rootdata import RootDatum, RootDatumError, WeylElement, weyl_inverse


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


def fold(datum: RootDatum, eps: IntVec, perm: tuple[int, ...], word) -> tuple[IntVec, tuple[int, ...]]:
    """(-1)^eps n(w) n_{i_1} ... n_{i_k} as (eps, root permutation), for the
    w with this root permutation and the word (i_1, ..., i_k); a reduced
    word of v gives (-1)^eps n(w) n(v).  Each letter is two lookups: the
    length of w s_i drops exactly when w . alpha_i < 0, and then
    n(w) n_i = n(w s_i) (-1)^{(w s_i) coroot_i}, the coroot of the root
    (w s_i) . alpha_i; otherwise the concatenated word stays reduced."""
    for i in word:
        j = datum._simple_index[i]
        drop = perm[j] in datum._negative_index
        perm = datum.word_permutation((i,), perm)
        if drop:
            eps = tuple((a + b) % 2 for a, b in zip(eps, datum.coroots[perm[j]]))
    return eps, perm


def multiply(datum: RootDatum, a: TitsElement, b: TitsElement) -> TitsElement:
    # (-1)^{eps_b} moves left through n(w_a) by the lattice action of w_a.
    moved = a.w.act(b.eps)
    eps = tuple((x + y) % 2 for x, y in zip(a.eps, moved))
    # fold a reduced word of w_b; n(w_b) is independent of which one
    eps, perm = fold(datum, eps, datum.permutation(a.w.matrix), datum.element_from_matrix(b.w.matrix).word)
    w = datum.permutation_word(perm)
    matrix = datum.word_matrix(w)
    # A w_a outside W, such as a diagram automorphism, still permutes the roots.
    if matrix != mat_mul(a.w.matrix, b.w.matrix):
        raise RootDatumError("matrix does not define a Weyl element")
    return TitsElement(eps, WeylElement(matrix, w))


def inverse(datum: RootDatum, a: TitsElement) -> TitsElement:
    """Inverse of (eps, w): compute n(w) n(w^{-1}) = (-1)^{e0} and unwind."""
    winv = weyl_inverse(datum, a.w)
    prod = multiply(datum, n_of(datum, a.w), n_of(datum, winv))
    if not prod.w.is_identity():
        raise AssertionError("n(w) n(w^{-1}) is not torus-valued")
    # n(w)^{-1} = n(w^{-1}) (-1)^{e0}; then invert the torus part of a.
    eps_total = tuple((winv.act(prod.eps)[k] + winv.act(a.eps)[k]) % 2 for k in range(datum.rank))
    return TitsElement(eps_total, winv)
