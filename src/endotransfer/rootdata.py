"""Root data, Weyl groups, and exact lattice arithmetic.

Conventions used throughout the package:

* The cocharacter lattice is Z^rank in the basis of simple coroots, so a
  simple coroot is a standard basis vector.  Coroots are column vectors
  acted on by Weyl matrices.
* Roots are stored as integer functionals: pairing(root, coroot_vector)
  is the plain dot product.
* Every datum's roots are reached from its simple roots and their
  negatives by one breadth-first walk along the simple reflections
  (_close_root_system), which records each root's coroot, its integer
  coefficients over the simple roots and its image under each s_i.
  build_root_datum walks from the simple roots of a Cartan matrix,
  build_sub_datum from the indecomposable positive roots of a subsystem.
  A root is positive when its coefficients are nonnegative.
* A Weyl element is also its root permutation p, w . roots[j] = roots[p[j]]:
  groups are found by one search over permutations (_search), and words are
  folded onto matrices by word_matrix and onto permutations by word_permutation.
  The search keeps the right Cayley table of the group it finds, from which
  products, inverses and subgroups are read by position (WeylGroup).
* Every datum has an ambient datum on the same lattice whose simple coroots
  are the standard basis: itself for build_root_datum's, the parent for
  build_sub_datum's.  The ambient keeps the root permutation of the
  reflection in every root, built once (_build_reflection_table).  A Weyl
  group search runs on the ambient's root permutations, and each element's
  matrix is read from its permutation (matrix_of): column i is
  w . coroot_i, the coroot of w . alpha_i.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import itemgetter, mul, sub

from .lattice import (
    MAX_RANK,
    FracVec,
    IntMat,
    IntVec,
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
        "_coroot_of", "_root_of", "_root_set", "_coefficients", "_positive", "_positive_set",
        "_index", "_simple_index", "_negative_index", "_reflections", "_reflection_table", "float_form",
        "ambient", "_ambient_index", "_own_position", "_ambient_reflections",
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
        coefficients: dict[IntVec, IntVec],
        reflections: tuple[tuple[int, ...], ...],
        ambient: RootDatum | None = None,
    ):
        """coefficients, each root's integer coefficients over the simple
        roots, and reflections, the permutation of these roots of each
        simple reflection, are as _close_root_system records them.  ambient
        is the parent of a subsystem on the same lattice, whose roots hold
        these, with the same coroots.  A datum without an ambient keeps the
        reflection of every root (_build_reflection_table), and every datum
        its form in floats."""
        super().__init__(rank, cartan_label, simple_roots, simple_coroots, roots, coroots, invariant_form)
        set_attribute(self, "_coroot_of", dict(zip(roots, coroots)))
        set_attribute(self, "_root_of", dict(zip(coroots, roots)))
        set_attribute(self, "_root_set", frozenset(roots))
        set_attribute(self, "float_form", tuple([tuple(map(float, row)) for row in invariant_form]))
        # Root permutations index self.roots: the positions of the simple
        # roots, those of the negative roots, and s_i's permutation.
        index = {r: j for j, r in enumerate(roots)}
        set_attribute(self, "_index", index)
        set_attribute(self, "_simple_index", tuple(index[r] for r in simple_roots))
        set_attribute(self, "_coefficients", coefficients)
        positive = tuple([r for r in roots if min(coefficients[r]) >= 0])
        set_attribute(self, "_positive", positive)
        set_attribute(self, "_positive_set", frozenset(positive))
        set_attribute(self, "_negative_index", frozenset(
            j for j, r in enumerate(roots) if r not in self._positive_set
        ))
        set_attribute(self, "_reflections", reflections)
        if ambient is None:
            set_attribute(self, "ambient", self)
            set_attribute(self, "_reflection_table", _build_reflection_table(self))
            set_attribute(self, "_ambient_reflections", reflections)
        else:
            # The positions of these roots among the ambient's, and s_i's
            # permutation of the ambient's roots.
            ambient = ambient.ambient
            set_attribute(self, "ambient", ambient)
            positions = tuple(ambient._index[r] for r in roots)
            set_attribute(self, "_ambient_index", positions)
            set_attribute(self, "_own_position", dict(zip(positions, range(len(positions)))))
            set_attribute(self, "_ambient_reflections", tuple(ambient.reflection_permutation(r) for r in simple_roots))

    # -- basic queries ----------------------------------------------------

    def is_root(self, f: IntVec) -> bool:
        return f in self._root_set

    def coroot(self, root: IntVec) -> IntVec:
        return self._coroot_of[root]

    def simple_root_coefficients(self, root: IntVec) -> IntVec:
        """The integer coefficients of a root over the simple roots, which
        the walk that reached it recorded (_close_root_system)."""
        return self._coefficients[root]

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
            perm = itemgetter(*self._reflections[i])(perm)
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
        """The permutation of the ambient's roots of s_root, read from the
        ambient's reflection table (_build_reflection_table)."""
        ambient = self.ambient
        return ambient._reflection_table[ambient._index[root]]

    def restrict(self, perm: tuple[int, ...]) -> tuple[int, ...]:
        """The permutation of these roots of the Weyl element with this
        permutation of the ambient's roots."""
        if self.ambient is self:
            return perm
        own = self._own_position
        return tuple([own[perm[a]] for a in self._ambient_index])

    def matrix_of(self, perm: tuple[int, ...]) -> IntMat:
        """The matrix of the Weyl element with this permutation of the
        ambient's roots: the ambient's simple coroots are the standard
        basis, so column i is the coroot of w . alpha_i."""
        ambient = self.ambient
        coroots = ambient.coroots
        return tuple(zip(*[coroots[perm[j]] for j in ambient._simple_index]))

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
    if not all(parts):
        raise RootDatumError(f"empty Cartan factor in {spec!r}")
    label = "×".join(parts)
    if label != spec:
        return build_root_datum(label)
    systems = _simple_systems(parts)
    rank = sum(len(c) for c in systems)
    if rank > MAX_RANK:
        raise RootDatumError(f"total rank {rank} exceeds the supported range (<= {MAX_RANK})")

    simple_roots: list[IntVec] = []
    offset = 0
    for cartan in systems:
        k = len(cartan)
        for i in range(k):
            row = [0] * rank
            row[offset:offset + k] = list(cartan[i])
            simple_roots.append(tuple(row))
        offset += k
    simple_roots = tuple(simple_roots)
    simple_coroots = tuple(tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank))

    roots, coroots, coefficients, reflections = _close_root_system(simple_roots, simple_coroots)
    expected = sum(_ROOT_COUNTS[p] for p in parts)
    if len(roots) != expected:
        raise RootDatumError(f"closure produced {len(roots)} roots for {label}, expected {expected}")
    positive = [r for r in roots if min(coefficients[r]) >= 0]
    form = _build_form(rank, positive, simple_coroots)
    return RootDatum(rank, label, simple_roots, simple_coroots, roots, coroots, form, coefficients, reflections)


def build_sub_datum(parent: RootDatum, sub_roots: tuple[IntVec, ...], label: str) -> RootDatum:
    """Root datum of a closed subsystem on the same lattice as the parent,
    with the parent's coroots and form: the walk from the indecomposable
    positive roots Delta and their negatives (_close_root_system).
    RootDatumError, "subsystem is not closed", unless the walk reaches
    exactly the given roots.  When it does, they are W_H-stable and each is
    W_H-conjugate to a root of +-Delta, so they are a root system and Delta,
    the indecomposable roots of a positive system, is its base (Humphreys,
    Introduction to Lie Algebras, 10.1): independent, with integer
    coefficients for every root."""
    simple = tuple(_indecomposable([r for r in sub_roots if parent.is_positive(r)]))
    simple_coroots = tuple(parent.coroot(r) for r in simple)
    roots, coroots, coefficients, reflections = _close_root_system(simple, simple_coroots)
    if roots != tuple(sorted(sub_roots)):
        raise RootDatumError("subsystem is not closed: the simple reflections do not reach exactly the given roots")
    return RootDatum(
        parent.rank, label, simple, simple_coroots, roots, coroots, parent.invariant_form,
        coefficients, reflections, ambient=parent,
    )


def _indecomposable(positives: list[IntVec]) -> list[IntVec]:
    pos = set(positives)
    return [a for a in sorted(pos) if not any(tuple(map(sub, a, b)) in pos for b in pos if b != a)]


def _close_root_system(simple_roots, simple_coroots):
    """The roots reached from the simple ones and their negatives by the
    simple reflections, breadth-first and sorted, with their coroots, each
    root's coefficients over the simple roots, and each s_i as a permutation
    of the roots.  Each root reached carries its pairings <beta, alpha_j^vee>
    with the simple coroots, and s_i updates them by row i of the Cartan
    matrix, <s_i beta, alpha_j^vee> = <beta, alpha_j^vee> - <beta,
    alpha_i^vee> <alpha_i, alpha_j^vee>, so a step reads its pairing and
    takes no dot product.  s_i beta = beta - <beta, alpha_i^vee> alpha_i
    lowers coefficient i by that pairing.  Only a newly reached root takes
    one, for its coroot s_i beta^vee = beta^vee - <alpha_i, beta^vee>
    alpha_i^vee.  The two pairings vanish together, and s_i then fixes the
    root and its coroot."""
    # Row i: the pairings of alpha_i with the simple coroots.
    cartan = [tuple([dot(alpha, coroot) for coroot in simple_coroots]) for alpha in simple_roots]
    if any(row[i] != 2 for i, row in enumerate(cartan)):
        raise RootDatumError("pairing of a simple root with its coroot is not 2")

    # Each root reached: its coroot, its coefficients and its pairings; and,
    # once it has been in the frontier, its image under each s_i.
    reached = {}
    images = {}
    simple = tuple(zip(simple_roots, simple_coroots, cartan))
    for i, (alpha, coroot, row) in enumerate(simple):
        unit = tuple([int(j == i) for j in range(len(simple))])
        reached[alpha] = coroot, unit, row
        reached[tuple([-x for x in alpha])] = (
            tuple([-x for x in coroot]), tuple([-x for x in unit]), tuple([-x for x in row])
        )
    frontier = list(reached.items())
    while frontier:
        new = {}
        for root, (coroot, coefficients, pairings) in frontier:
            steps = images[root] = []
            for i, (alpha, alpha_coroot, row) in enumerate(simple):
                pairing = pairings[i]
                if not pairing:
                    steps.append(root)
                    continue
                image = tuple([x - pairing * a for x, a in zip(root, alpha)])
                steps.append(image)
                if image in reached or image in new:
                    continue
                copairing = sum(map(mul, alpha, coroot))
                image_coroot = tuple([c - copairing * a for c, a in zip(coroot, alpha_coroot)])
                image_coefficients = list(coefficients)
                image_coefficients[i] -= pairing
                image_pairings = tuple([p - pairing * c for p, c in zip(pairings, row)])
                new[image] = image_coroot, tuple(image_coefficients), image_pairings
        reached.update(new)
        frontier = list(new.items())
        if len(reached) > 4 * WEYL_ORDER_CAP:
            raise RootDatumError("root closure does not terminate")

    roots = tuple(sorted(reached))
    index = {r: j for j, r in enumerate(roots)}
    return (
        roots,
        tuple([reached[r][0] for r in roots]),
        {r: c for r, (_, c, _) in reached.items()},
        tuple(zip(*[[index[image] for image in images[r]] for r in roots])),
    )


def _build_reflection_table(datum: RootDatum) -> tuple[tuple[int, ...], ...]:
    """The root permutation of s_beta for every root beta, by position,
    from those of the simple reflections.  Every other positive beta, taken
    by height, has an s_i that sends it to a positive root beta' of lower
    height, and s_beta = s_i s_beta' s_i (Humphreys 1990, 1.2), whose
    permutation is s_beta''s read at s_i's entries, then s_i's read at
    those: two gathers.  s_beta sends beta to -beta, whose reflection it is
    too."""
    roots, index = datum.roots, datum._index
    coefficients = datum._coefficients
    height = [sum(coefficients[r]) for r in roots]
    table: list = [None] * len(roots)
    steps = []
    for j, perm in zip(datum._simple_index, datum._reflections):
        table[j] = table[perm[j]] = perm
        steps.append((perm, itemgetter(*perm)))
    for j in sorted([index[r] for r in datum.positive_roots], key=height.__getitem__):
        if table[j] is None:
            for perm, gather in steps:
                if height[perm[j]] < height[j]:
                    reflection = itemgetter(*gather(table[perm[j]]))(perm)
                    table[j] = table[reflection[j]] = reflection
                    break
    return tuple(table)


def _build_form(rank: int, positive_roots, simple_coroots) -> tuple[FracVec, ...]:
    """Weyl-invariant positive form: sum over positive roots of alpha(u)
    alpha(v), scaled so the shortest coroot has squared length 2; -alpha
    adds the same term, which the scaling cancels.  Every coroot is
    W-conjugate to a simple one, so the shortest is among those."""
    raw = [[0] * rank for _ in range(rank)]
    for f in positive_roots:
        for i in range(rank):
            if f[i]:
                for j in range(rank):
                    raw[i][j] += f[i] * f[j]
    shortest = min(dot(c, mat_vec(raw, c)) for c in simple_coroots)
    return tuple(tuple(Fraction(2 * x, shortest) for x in row) for row in raw)


class WeylGroup(tuple):
    """A Weyl group as enumerate_weyl gives it: the tuple of its elements,
    breadth-first from the identity, each found from an earlier one, its
    parent, by right multiplication by the last letter of its word.  Three
    attributes follow the elements' order:

    * perms, the root permutation of each: the k-th element w sends
      roots[j] to roots[perms[k][j]];
    * table, the right Cayley table over the n generators s_i the search
      ran over, one flat tuple: table[k * n + i] is the position of w_k s_i.
      That is n|W| ints: 144 on B3, 1,536 on B4 and 4,608 on F4;
    * positions, the position of each element in the group it was read
      from: range(|W|) for a group enumerated on its own, positions in W for
      a W_H read from W's table (weyl_subgroup).

    Every set-up group law is read from table by position."""

    def __new__(cls, elements, perms, table, positions):
        group = super().__new__(cls, elements)
        group.perms = perms
        group.table = table
        group.positions = positions
        return group

    def columns(self) -> list[tuple[int, ...]]:
        """table by generator: columns[i][k] is the position of w_k s_i."""
        n = len(self.table) // len(self)
        return [self.table[i::n] for i in range(n)]

    def left_rows(self, starts) -> tuple[tuple[int, ...], ...]:
        """For each position u of starts, the positions of w_u w_k for every
        k, in order.  The parent of w_k is w_k s_i, s_i the last letter of
        its word, and comes before it, so w_u w_k = (w_u w_parent) s_i is
        one lookup in the column of s_i."""
        columns = self.columns()
        links = []
        for k, w in enumerate(self[1:], 1):
            column = columns[w.word[-1]]
            links.append((column[k], column))
        rows = []
        for u in starts:
            row = [u]
            append = row.append
            for parent, column in links:
                append(column[row[parent]])
            rows.append(tuple(row))
        return tuple(rows)

    def inverses(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The positions of w^{-1} and of w^{-2} for every w.  w^{-1} is the
        walk on table from the identity along w's word reversed, and w^{-2}
        the inverse of the walk from w along its own word, w^2; each walk
        serves w^{-1} too, whose inverse is w and whose w^{-2} is w^2."""
        columns = self.columns()
        inverse = [-1] * len(self)
        for k, w in enumerate(self):
            if inverse[k] < 0:
                j = 0
                for i in reversed(w.word):
                    j = columns[i][j]
                inverse[k] = j
                inverse[j] = k
        inverse_square = [-1] * len(self)
        for k, w in enumerate(self):
            if inverse_square[k] < 0:
                j = k
                for i in w.word:
                    j = columns[i][j]
                inverse_square[inverse[k]] = j
                inverse_square[k] = inverse[j]
        return tuple(inverse), tuple(inverse_square)


def _search(datum: RootDatum, steps) -> tuple[list[tuple[tuple[int, ...], int, int]], tuple[int, ...]]:
    """The elements reached from the identity by right multiplication by the
    steps, root permutations, first in first out, as (permutation, parent's
    position, step's position), the identity's -1 and -1, and the right
    Cayley table: its (k * len(steps) + i)-th entry is the position of the
    k-th element times the i-th step.  An element is keyed by its images of
    the simple roots, which fix it, and seen maps each key to the element's
    position, so a child's key costs rank lookups, and only a new child
    takes its permutation.  Both are read by itemgetters: p o step is p read
    at step's entries, and its key p read at the positions of step .
    alpha_j."""
    identity = tuple(range(len(datum.roots)))
    # One getter per step: a rank-1 key is a bare position, as the seed's.
    keys = [itemgetter(*[step[j] for j in datum._simple_index]) for step in steps]
    moves = [itemgetter(*step) for step in steps]
    found = [(identity, -1, -1)]
    seen = {itemgetter(*datum._simple_index)(identity): 0}
    get = seen.get
    table = []
    append = table.append
    pairs = list(enumerate(zip(keys, moves)))
    # The list grows as the search runs, so the loop reaches every element.
    for k, (p, _, _) in enumerate(found):
        for i, (key, move) in pairs:
            child = key(p)
            position = get(child)
            if position is None:
                position = seen[child] = len(found)
                if position >= WEYL_ORDER_CAP:
                    raise RootDatumError(f"Weyl group order exceeds cap {WEYL_ORDER_CAP}")
                found.append((move(p), k, i))
            append(position)
    return found, tuple(table)


def enumerate_weyl(datum: RootDatum) -> WeylGroup:
    """The full Weyl group, breadth-first, identity first: _search over the
    simple reflections, as permutations of the ambient's roots, gives each
    level in the lexicographic order of the words, each element with its
    parent's word and s_i, and the right Cayley table over the s_i, rank |W|
    ints (144 on B3, 1,536 on B4, 4,608 on F4).  Each matrix is read from
    the element's permutation (matrix_of); perms holds them restricted to
    datum's roots."""
    found, table = _search(datum.ambient, datum._ambient_reflections)
    matrix_of, restrict = datum.matrix_of, datum.restrict
    return WeylGroup(
        tuple([WeylElement(matrix_of(p), word) for (p, _, _), word in zip(found, _words(found))]),
        tuple([restrict(p) for p, _, _ in found]),
        table,
        range(len(found)),
    )


def weyl_subgroup(group: WeylGroup, sub: RootDatum) -> WeylGroup:
    """The Weyl group of sub as enumerate_weyl(sub) gives it, read by
    position from group, that of sub's ambient: the same first-in-first-out
    search over sub's simple reflections s_beta, each a word in the
    ambient's (permutation_word), so that a child is the walk on group's
    table from its parent along the word of its s_beta.  The elements, their
    order, their words in sub's letters, their permutations and the table
    are enumerate_weyl(sub)'s; each element shares group's matrix, and
    positions holds its position in group.  A child's permutation of sub's
    roots is its parent's read at s_beta's, one itemgetter call."""
    columns = group.columns()
    # The columns of group's table along the word of each s_beta.
    walks = [[columns[i] for i in sub.ambient.permutation_word(step)] for step in sub._ambient_reflections]
    # As _search's: (position in group, parent's index, step's index).
    found = [(0, -1, -1)]
    sub_table = []
    # The index in the subgroup of each position in group found so far.
    index = [-1] * len(group)
    index[0] = 0
    for k, (p, _, _) in enumerate(found):
        for j, walk in enumerate(walks):
            child = p
            for column in walk:
                child = column[child]
            position = index[child]
            if position < 0:
                position = index[child] = len(found)
                found.append((child, k, j))
            sub_table.append(position)
    moves = [itemgetter(*step) for step in sub._reflections]
    perms = [tuple(range(len(sub.roots)))]
    for _, parent, j in found[1:]:
        perms.append(moves[j](perms[parent]))
    return WeylGroup(
        tuple([WeylElement(group[p].matrix, word) for (p, _, _), word in zip(found, _words(found))]),
        tuple(perms),
        tuple(sub_table),
        tuple([p for p, _, _ in found]),
    )


def _words(found) -> list[tuple[int, ...]]:
    """The word of each element a search found, in its order: its parent's
    word and its step's letter."""
    words = [()]
    for _, parent, i in found[1:]:
        words.append(words[parent] + (i,))
    return words


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


def require_words(datum: RootDatum, elements: tuple[WeylElement, ...]) -> None:
    """RootDatumError unless each element's word gives its matrix."""
    if any(datum.word_matrix(e.word) != e.matrix for e in elements):
        raise RootDatumError("the word of the Weyl element does not give its matrix")


def closure(
    datum: RootDatum, roots: tuple[IntVec, ...], extras: tuple[WeylElement, ...] = ()
) -> tuple[WeylElement, ...]:
    """Subgroup generated by the reflections in the given roots and by the
    extra elements, in (length, word, matrix) order: _search over their
    permutations of the ambient's roots, each reflection's read from the
    ambient's reflection table.  An element's matrix is read from its
    permutation (matrix_of), and its word from the permutation of datum's
    roots (permutation_word).  An extra's word must give its matrix
    (require_words)."""
    require_words(datum, extras)
    ambient = datum.ambient
    steps = [ambient.reflection_permutation(r) for r in roots]
    steps += [ambient.permutation(e.matrix) for e in extras]
    found, _ = _search(ambient, steps)
    elements = [
        WeylElement(datum.matrix_of(p), datum.permutation_word(datum.restrict(p)))
        for p, _, _ in found
    ]
    return tuple(sorted(elements, key=lambda e: (len(e.word), e.word, e.matrix)))
