"""Root data, Weyl groups, and exact lattice arithmetic.

Conventions used throughout the package:

* The cocharacter lattice is Z^rank in the basis of simple coroots, so a
  simple coroot is a standard basis vector.  Coroots are column vectors
  acted on by Weyl matrices.
* Roots are stored as integer functionals: pairing(root, coroot_vector)
  is the plain dot product.
* A root is positive when it is a nonnegative rational combination of the
  simple roots; for the systems built here the coefficients are integers.
* A Weyl element is also its root permutation p, w . roots[j] = roots[p[j]]:
  groups are found by one search over permutations (_search), and words are
  folded onto matrices by word_matrix and onto permutations by word_permutation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial

from .lattice import (
    FracVec,
    IntMat,
    IntVec,
    coordinate_map,
    coordinates,
    det_int,
    dot,
    identity,
    mat_int,
    mat_mul,
    mat_vec,
)
from .record import Record, set_attribute

WEYL_ORDER_CAP = 10**6

# Cartan matrices, row i = pairings of simple root i with the simple coroots.
_CARTAN: dict[str, IntMat] = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "A4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
    # Swapped names: the B_n rows build C_n (last simple root long), the C_n rows B_n.
    "B2": ((2, -1), (-2, 2)),
    "B3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    "B4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -2, 2)),
    "C2": ((2, -1), (-2, 2)),
    "C3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    "C4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -2), (0, 0, -1, 2)),
    "D4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    "G2": ((2, -1), (-3, 2)),
}

# Classified root counts, used as a post-condition on the closure generation.
_ROOT_COUNTS = {
    "A1": 2, "A2": 6, "A3": 12, "A4": 20,
    "B2": 8, "B3": 18, "B4": 32,
    "C2": 8, "C3": 18, "C4": 32,
    "D4": 24, "G2": 12,
}


class RootDatumError(ValueError):
    pass


class WeylElement(Record):
    """Element of a Weyl group, acting on the cocharacter lattice; equal to
    and hashed as its matrix alone."""

    __slots__ = _fields = ("matrix", "word")

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def is_identity(self) -> bool:
        return self.matrix == identity(self.rank)

    def act(self, v):
        """Action on a cocharacter-space vector."""
        return mat_vec(self.matrix, v)


class RootDatum(Record):
    _fields = (
        "rank", "cartan_label", "simple_roots", "simple_coroots", "roots", "coroots", "invariant_form"
    )
    __slots__ = _fields + (
        "_coroot_of", "_root_of", "_root_set", "_coefficients", "_denominator", "_positive", "_positive_set",
        "_index", "_simple_index", "_negative_index", "_reflections",
    )

    def __init__(
        self,
        rank: int,
        cartan_label: str,
        simple_roots: tuple[IntVec, ...],
        simple_coroots: tuple[IntVec, ...],
        roots: tuple[IntVec, ...],
        coroots: tuple[IntVec, ...],
        invariant_form: tuple[FracVec, ...],
    ):
        super().__init__(rank, cartan_label, simple_roots, simple_coroots, roots, coroots, invariant_form)
        set_attribute(self, "_coroot_of", dict(zip(roots, coroots)))
        set_attribute(self, "_root_of", dict(zip(coroots, roots)))
        set_attribute(self, "_root_set", frozenset(roots))
        # Each root's coefficients over the simple roots, found once through
        # the one left inverse of the simple roots, over its denominator.
        cmap = coordinate_map(simple_roots)
        coefficients = {}
        for r in roots:
            coeffs = coordinates(simple_roots, cmap, r)
            if coeffs is None:
                raise RootDatumError(f"{r} is not in the span of the simple roots")
            coefficients[r] = coeffs
        set_attribute(self, "_coefficients", coefficients)
        set_attribute(self, "_denominator", cmap[1])
        positive = tuple(
            r for r, coeffs in coefficients.items()
            if all(c >= 0 for c in coeffs) and any(c > 0 for c in coeffs)
        )
        set_attribute(self, "_positive", positive)
        set_attribute(self, "_positive_set", frozenset(positive))
        # Root permutations index self.roots: the positions of the simple
        # roots, those of the negative roots, and s_i's permutation.
        index = {r: j for j, r in enumerate(roots)}
        set_attribute(self, "_index", index)
        set_attribute(self, "_simple_index", tuple(index[r] for r in simple_roots))
        set_attribute(self, "_negative_index", frozenset(
            j for j, r in enumerate(roots) if r not in self._positive_set
        ))
        set_attribute(self, "_reflections", tuple(self.reflection_permutation(r) for r in simple_roots))

    # -- basic queries ----------------------------------------------------

    def is_root(self, f: IntVec) -> bool:
        return f in self._root_set

    def coroot(self, root: IntVec) -> IntVec:
        return self._coroot_of[root]

    def simple_root_coefficients(self, root: IntVec) -> tuple[IntVec, int]:
        """Coefficients of a root over the simple roots, exact: integer
        numerators over the denominator of the simple roots' left inverse,
        which is the same for every root; found at construction."""
        return self._coefficients[root], self._denominator

    def is_positive(self, root: IntVec) -> bool:
        """Membership in the positive roots, which are found once, at
        construction, from their exact simple-root coefficients."""
        return root in self._positive_set

    @property
    def positive_roots(self) -> tuple[IntVec, ...]:
        return self._positive

    def form(self, u, v) -> Fraction:
        return sum(
            ui * sum(bij * vj for bij, vj in zip(row, v))
            for ui, row in zip(u, self.invariant_form)
        )

    # -- Weyl action -------------------------------------------------------

    def simple_reflection(self, i: int) -> WeylElement:
        return WeylElement(self.word_matrix((i,)), (i,))

    def times_reflection(self, matrix: IntMat, root: IntVec) -> IntMat:
        """matrix * s_root = matrix - (matrix coroot) root^T: the one kernel
        for every product with a reflection."""
        coroot = self._coroot_of[root]
        out = []
        for row in matrix:
            p = dot(row, coroot)
            out.append(tuple(x - p * a for x, a in zip(row, root)) if p else row)
        return tuple(out)

    def word_matrix(self, word: tuple[int, ...], matrix: IntMat | None = None) -> IntMat:
        """matrix * s_{i_1} ... s_{i_k} for the word (i_1, ..., i_k), one
        rank-one update per letter; the identity when no matrix is given."""
        if matrix is None:
            matrix = identity(self.rank)
        for i in word:
            matrix = self.times_reflection(matrix, self.simple_roots[i])
        return matrix

    def word_permutation(self, word: tuple[int, ...], perm: tuple[int, ...] | None = None) -> tuple[int, ...]:
        """p o p_{s_{i_1}} o ... o p_{s_{i_k}}, the root permutation of
        w s_{i_1} ... s_{i_k} for the w with permutation p (the identity's
        by default)."""
        if perm is None:
            perm = tuple(range(len(self.roots)))
        for i in word:
            perm = tuple([perm[j] for j in self._reflections[i]])
        return perm

    def root_image(self, matrix: IntMat, root: IntVec) -> IntVec:
        """w . root for the w with this matrix: the root whose coroot is
        w coroot(root).  RootDatumError when that is not a coroot."""
        image = self._root_of.get(mat_vec(matrix, self._coroot_of[root]))
        if image is None:
            raise RootDatumError("matrix does not define a Weyl element")
        return image

    def permutation(self, matrix: IntMat) -> tuple[int, ...]:
        """The root permutation of the w with this matrix, read root by root
        (root_image): roots[j] -> roots[p[j]]."""
        return tuple([self._index[self.root_image(matrix, r)] for r in self.roots])

    def reflection_permutation(self, root: IntVec) -> tuple[int, ...]:
        """The root permutation of s_root: the p with s_root . roots[j] =
        roots[p[j]], from s_root beta = beta - <beta, coroot(root)> root."""
        coroot = self._coroot_of[root]
        index = self._index
        out = []
        for j, beta in enumerate(self.roots):
            p = dot(beta, coroot)
            out.append(index[tuple(b - p * a for b, a in zip(beta, root))] if p else j)
        return tuple(out)

    def key(self, perm: tuple[int, ...]) -> tuple[int, ...]:
        """The positions of the images of the simple roots under a root
        permutation, which fix its Weyl element."""
        return tuple([perm[j] for j in self._simple_index])

    def permutation_word(self, perm: tuple[int, ...]) -> tuple[int, ...]:
        """A reduced word for the Weyl element with this root permutation,
        read from it: strip an s_i with w . alpha_i < 0, a lookup, from the
        right until none is left.  Each step sends one positive root fewer
        to a negative one, so it ends for the permutation of any linear map
        of the roots."""
        suffix: list[int] = []
        while True:
            for i, j in enumerate(self._simple_index):
                if perm[j] in self._negative_index:
                    suffix.append(i)
                    perm = self.word_permutation((i,), perm)
                    break
            else:
                return tuple(reversed(suffix))

    def length(self, w: WeylElement) -> int:
        return sum(
            1 for r in self._positive if self.root_image(w.matrix, r) not in self._positive_set
        )

    def reduced_word(self, matrix: IntMat) -> tuple[int, ...]:
        """A reduced word for the Weyl element with the given matrix: the
        word permutation_word reads from its root permutation, which must
        give the matrix back.  RootDatumError when a root's image is not a
        root, or the word does not give the matrix: the matrix is not in W."""
        word = self.permutation_word(self.permutation(matrix))
        if self.word_matrix(word) != matrix:
            raise RootDatumError("matrix does not define a Weyl element")
        return word

    def element_from_matrix(self, matrix: IntMat) -> WeylElement:
        matrix = mat_int(matrix)
        return WeylElement(matrix, self.reduced_word(matrix))

    def element_from_word(self, word: tuple[int, ...]) -> WeylElement:
        return self.element_from_matrix(self.word_matrix(word))

    def minus_one_element(self):
        """The Weyl element acting by -1, if it exists."""
        minus = tuple(tuple(-1 if i == j else 0 for j in range(self.rank)) for i in range(self.rank))
        try:
            return self.element_from_matrix(minus)
        except RootDatumError:
            return None


def weyl_sign(w: WeylElement) -> int:
    """det(w) on the lattice, the signature of the Weyl element."""
    d = det_int(w.matrix)
    assert d in (1, -1)
    return d


def _simple_systems(parts: list[str]) -> list[IntMat]:
    systems = []
    for part in parts:
        if part not in _CARTAN:
            raise RootDatumError(f"unknown Cartan type {part!r}")
        systems.append(_CARTAN[part])
    return systems


@lru_cache(maxsize=None)
def build_root_datum(spec: str) -> RootDatum:
    """Build the simply connected root datum for a Cartan type like 'A1' or
    'A1xA1'.  Every spelling of a type, 'A1xA2' or ' A1 × A2 ', gives the
    one datum cached under its label 'A1×A2'."""
    parts = [p.strip() for p in spec.replace("x", "×").split("×")]
    label = "×".join(parts)
    if label != spec:
        return build_root_datum(label)
    systems = _simple_systems(parts)
    rank = sum(len(c) for c in systems)
    if rank > 4:
        raise RootDatumError(f"total rank {rank} exceeds the supported range (<= 4)")

    simple_roots: list[IntVec] = []
    offset = 0
    for cartan in systems:
        k = len(cartan)
        for i in range(k):
            row = [0] * rank
            row[offset:offset + k] = list(cartan[i])
            simple_roots.append(tuple(row))
        offset += k
    simple_coroots = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]

    datum = _close_root_system(label, rank, tuple(simple_roots), tuple(simple_coroots))
    expected = sum(_ROOT_COUNTS[p] for p in parts)
    if len(datum.roots) != expected:
        raise RootDatumError(
            f"closure produced {len(datum.roots)} roots for {label}, expected {expected}"
        )
    return datum


def build_sub_datum(parent: RootDatum, sub_roots: tuple[IntVec, ...], label: str) -> RootDatum:
    """Root datum of a closed subsystem on the same lattice as the parent."""
    positives = [r for r in sub_roots if parent.is_positive(r)]
    simple = _indecomposable(positives)
    return _close_root_system(
        label,
        parent.rank,
        tuple(simple),
        tuple(parent.coroot(r) for r in simple),
        invariant_form=parent.invariant_form,
        expected_roots=tuple(sorted(sub_roots)),
    )


def _indecomposable(positives: list[IntVec]) -> list[IntVec]:
    pos = set(positives)
    out = []
    for a in sorted(pos):
        if not any(tuple(x - y for x, y in zip(a, b)) in pos for b in pos if b != a):
            out.append(a)
    return out


def _close_root_system(label, rank, simple_roots, simple_coroots, invariant_form=None, expected_roots=None) -> RootDatum:
    for i, alpha in enumerate(simple_roots):
        if dot(alpha, simple_coroots[i]) != 2:
            raise RootDatumError("pairing of a simple root with its coroot is not 2")

    pairs = set(zip(simple_roots, simple_coroots))
    pairs |= {(tuple(-x for x in r), tuple(-x for x in c)) for r, c in pairs}
    frontier = set(pairs)
    while frontier:
        new = set()
        for root, coroot in frontier:
            for i in range(len(simple_roots)):
                pairing = dot(root, simple_coroots[i])
                image_root = tuple(x - pairing * a for x, a in zip(root, simple_roots[i]))
                pairing_co = dot(simple_roots[i], coroot)
                image_coroot = tuple(x - pairing_co * a for x, a in zip(coroot, simple_coroots[i]))
                pair = (image_root, image_coroot)
                if pair not in pairs:
                    new.add(pair)
        pairs |= new
        frontier = new
        if len(pairs) > 4 * WEYL_ORDER_CAP:
            raise RootDatumError("root closure does not terminate")

    ordered = sorted(pairs)
    roots = tuple(r for r, _ in ordered)
    coroots = tuple(c for _, c in ordered)
    if expected_roots is not None and tuple(sorted(roots)) != expected_roots:
        raise RootDatumError("subsystem is not closed: closure escapes the given root set")

    if invariant_form is None:
        invariant_form = _build_form(rank, roots, coroots)
    datum = RootDatum(
        rank=rank,
        cartan_label=label,
        simple_roots=tuple(simple_roots),
        simple_coroots=tuple(simple_coroots),
        roots=roots,
        coroots=coroots,
        invariant_form=invariant_form,
    )
    return datum


def _build_form(rank: int, roots, coroots) -> tuple[FracVec, ...]:
    """Weyl-invariant positive form: sum over roots of alpha(u) alpha(v),
    scaled so the shortest coroot has squared length 2."""
    raw = [[0] * rank for _ in range(rank)]
    for f in roots:
        for i in range(rank):
            if f[i]:
                for j in range(rank):
                    raw[i][j] += f[i] * f[j]
    shortest = min(dot(c, mat_vec(raw, c)) for c in coroots)
    return tuple(tuple(Fraction(2 * x, shortest) for x in row) for row in raw)


class WeylGroup(tuple):
    """A Weyl group as enumerate_weyl gives it: the tuple of its elements,
    and perms, the root permutation of each, in the same order: the k-th
    element w sends roots[j] to roots[perms[k][j]]."""

    def __new__(cls, elements, perms):
        group = super().__new__(cls, elements)
        group.perms = perms
        return group


def _search(datum: RootDatum, steps) -> list[tuple[tuple[int, ...], int, int]]:
    """The elements reached from the identity by right multiplication by the
    steps, root permutations, first in first out, as (permutation, parent's
    position, step's position), the identity's -1 and -1.  An element is
    keyed by its images of the simple roots, which fix it, so a child's key
    costs rank lookups, and only a new child takes its permutation."""
    # The positions of step . alpha_j: p o step sends alpha_j to p of these.
    moved = [datum.key(step) for step in steps]
    found = [(tuple(range(len(datum.roots))), -1, -1)]
    seen = {datum._simple_index}
    # The list grows as the search runs, so the loop reaches every element.
    for k, (p, _, _) in enumerate(found):
        for i, step in enumerate(steps):
            key = tuple([p[j] for j in moved[i]])
            if key not in seen:
                seen.add(key)
                if len(seen) > WEYL_ORDER_CAP:
                    raise RootDatumError(f"Weyl group order exceeds cap {WEYL_ORDER_CAP}")
                found.append((tuple([p[j] for j in step]), k, i))
    return found


def enumerate_weyl(datum: RootDatum) -> WeylGroup:
    """The full Weyl group, breadth-first, identity first: _search over the
    simple reflections gives each level in the lexicographic order of the
    words, each element with its parent's word and matrix times s_i."""
    found = _search(datum, datum._reflections)
    order = [WeylElement(identity(datum.rank), ())]
    for _, parent, i in found[1:]:
        w = order[parent]
        order.append(WeylElement(datum.word_matrix((i,), w.matrix), w.word + (i,)))
    return WeylGroup(tuple(order), tuple(p for p, _, _ in found))


def weyl_inverse(datum: RootDatum, w: WeylElement) -> WeylElement:
    """w^{-1} as the product of simple reflections along w's word reversed.

    The word must give w's matrix, as it does for every element that
    enumerate_weyl, element_from_matrix or closure returns; RootDatumError
    otherwise."""
    word = tuple(reversed(w.word))
    if datum.word_matrix(word, w.matrix) != identity(datum.rank):
        raise RootDatumError("the word of the Weyl element does not give its matrix")
    return WeylElement(datum.word_matrix(word), word)


def right_coset_representatives(
    group: tuple[WeylElement, ...], subgroup: tuple[WeylElement, ...]
) -> tuple[WeylElement, ...]:
    """Minimal representatives of the right cosets subgroup . w, so that the
    subgroup-orbits {s . w} of the representatives partition the group."""
    sub = {w.matrix for w in subgroup}
    grp = {w.matrix for w in group}
    if not sub <= grp:
        raise RootDatumError("subgroup is not contained in the group")
    reps: list[WeylElement] = []
    covered: set[IntMat] = set()
    for w in group:
        if w.matrix in covered:
            continue
        reps.append(w)
        for s in subgroup:
            covered.add(mat_mul(s.matrix, w.matrix))
    if len(reps) * len(sub) != len(grp):
        raise RootDatumError("subgroup is not closed under composition")
    return tuple(reps)


def closure(
    datum: RootDatum, roots: tuple[IntVec, ...], extras: tuple[WeylElement, ...] = ()
) -> tuple[WeylElement, ...]:
    """Subgroup generated by the reflections in the given roots and by the
    extra elements, in (length, word, matrix) order: _search over their
    root permutations.  A new element's word is read from its permutation
    (permutation_word), and its matrix is one update of its parent's: a
    rank-one update for a reflection, the fold of the word for an extra,
    which must give the extra's matrix (RootDatumError otherwise)."""
    if any(datum.word_matrix(e.word) != e.matrix for e in extras):
        raise RootDatumError("the word of the Weyl element does not give its matrix")
    steps = [datum.reflection_permutation(r) for r in roots]
    steps += [datum.word_permutation(e.word) for e in extras]
    times = [partial(datum.times_reflection, root=r) for r in roots]
    times += [partial(datum.word_matrix, e.word) for e in extras]
    found = _search(datum, steps)
    matrices = [identity(datum.rank)]
    for _, parent, i in found[1:]:
        matrices.append(times[i](matrices[parent]))
    elements = [WeylElement(m, datum.permutation_word(p)) for m, (p, _, _) in zip(matrices, found)]
    return tuple(sorted(elements, key=lambda e: (len(e.word), e.word, e.matrix)))
