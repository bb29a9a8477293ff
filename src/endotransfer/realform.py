"""Real forms through compact/noncompact gradings of imaginary roots.

On the compact Cartan every root is imaginary, so a real form is encoded by
a Z/2 grading of the root system: 0 = compact, 1 = noncompact.  The grading
determines the Cartan decomposition dimensions, the default real Weyl group
(generated by reflections in compact roots), and the Weil constant of the
invariant form, which is negative definite on the compact part.
"""

from __future__ import annotations

import cmath
from operator import add, mul
from typing import Sequence

from .lattice import IntVec
from .record import Record
from .rootdata import RootDatum, WeylElement, closure, require_words

COMPACT = 0
NONCOMPACT = 1

_GRADE_NAMES = {"compact": COMPACT, "noncompact": NONCOMPACT}


class GradingError(ValueError):
    pass


class EighthRoot(Record):
    """Exact eighth root of unity exp(i pi k / 4), k reduced mod 8."""

    __slots__ = _fields = ("k",)

    def __init__(self, k: int):
        super().__init__(k % 8)

    def __mul__(self, other: "EighthRoot") -> "EighthRoot":
        return EighthRoot(self.k + other.k)

    def __complex__(self) -> complex:
        return cmath.exp(1j * cmath.pi * self.k / 4)

    def __repr__(self) -> str:
        return f"exp(i*pi*{self.k}/4)"


class RealFormGrading(Record):
    __slots__ = _fields = ("datum", "grade")

    def grade_of(self, root: IntVec) -> int:
        return self.grade[root]

    @property
    def compact_roots(self) -> tuple[IntVec, ...]:
        return tuple(r for r in self.datum.roots if self.grade[r] == COMPACT)

    @property
    def noncompact_roots(self) -> tuple[IntVec, ...]:
        return tuple(r for r in self.datum.roots if self.grade[r] == NONCOMPACT)


class DimensionProfile(Record):
    __slots__ = _fields = ("dim_g", "dim_t", "dim_k", "dim_g_over_t", "dim_g_over_k")


def parse_grade(name: str) -> int:
    try:
        return _GRADE_NAMES[name.strip().lower()]
    except KeyError:
        raise GradingError(f"unknown grade {name!r}; expected 'compact' or 'noncompact'")


def build_grading(datum: RootDatum, simple_grades: Sequence[int]) -> RealFormGrading:
    """Extend a grading of the simple roots additively to all roots."""
    if len(simple_grades) != len(datum.simple_roots):
        raise GradingError(
            f"expected {len(datum.simple_roots)} simple grades, got {len(simple_grades)}"
        )
    grade = {}
    for root in datum.roots:
        grade[root] = sum(map(mul, datum.simple_root_coefficients(root), simple_grades)) % 2
    grading = RealFormGrading(datum=datum, grade=grade)
    _check_grading(grading)
    return grading


def _check_grading(grading: RealFormGrading) -> None:
    """The grade must be symmetric under negation and additive on root sums.
    Additivity is checked on the sums with a simple root alone, which is
    equivalent: every positive root is reached from a simple root through
    roots by adding simple roots, so the grade is then sum c_i g_i mod 2 on
    the positive roots, by the symmetry on every root, and so additive on
    every sum.  The grade's keys are the datum's roots, so a sum is a root
    exactly when it has a grade."""
    datum = grading.datum
    grade = grading.grade
    for root, g in grade.items():
        if g != grade[tuple([-x for x in root])]:
            raise GradingError("grading is not symmetric under negation")
    simple = [(alpha, grade[alpha]) for alpha in datum.simple_roots]
    for a, g in grade.items():
        for alpha, g_alpha in simple:
            s = grade.get(tuple(map(add, a, alpha)))
            if s is not None and s != (g + g_alpha) % 2:
                raise GradingError("grading is not additive on root sums")


def dimension_profile(grading: RealFormGrading) -> DimensionProfile:
    datum = grading.datum
    n_roots = len(datum.roots)
    n_noncompact = len(grading.noncompact_roots)
    profile = DimensionProfile(
        dim_g=datum.rank + n_roots,
        dim_t=datum.rank,
        dim_k=datum.rank + (n_roots - n_noncompact),
        dim_g_over_t=n_roots,
        dim_g_over_k=n_noncompact,
    )
    assert profile.dim_k + n_noncompact == profile.dim_g
    return profile


def preserves_grading(grading: RealFormGrading, w: WeylElement) -> bool:
    datum = grading.datum
    return all(
        grading.grade[datum.root_image(w.matrix, r)] == grading.grade[r] for r in datum.roots
    )


def check_extras(grading: RealFormGrading, extra_generators: tuple[WeylElement, ...]) -> None:
    """The checks of real_weyl_group's extra generators, which the loader
    makes without the closure: each must preserve the grading
    (GradingError), and its word must give its matrix (RootDatumError)."""
    for w in extra_generators:
        if not preserves_grading(grading, w):
            raise GradingError("extra generator does not preserve the grading")
    require_words(grading.datum, extra_generators)


def real_weyl_group(
    grading: RealFormGrading,
    extra_generators: tuple[WeylElement, ...] = (),
) -> tuple[WeylElement, ...]:
    """Subgroup generated by compact-root reflections and extras, which
    must pass check_extras."""
    check_extras(grading, extra_generators)
    datum = grading.datum
    roots = tuple(r for r in grading.compact_roots if datum.is_positive(r))
    return closure(datum, roots, tuple(extra_generators))


def weil_constant(p: int, q: int) -> EighthRoot:
    """Weil constant exp(i pi (p - q)/4) of a real form of signature (p, q)."""
    if p < 0 or q < 0:
        raise ValueError("signature entries must be nonnegative")
    return EighthRoot(p - q)


def signature(grading: RealFormGrading) -> tuple[int, int]:
    """Signature (p, q) of the invariant form: positive on the noncompact
    part, negative on the compact part (which contains the Cartan)."""
    profile = dimension_profile(grading)
    return profile.dim_g_over_k, profile.dim_k


def gamma_psi(grading: RealFormGrading) -> EighthRoot:
    p, q = signature(grading)
    return weil_constant(p, q)


def prefactor(profile: DimensionProfile) -> EighthRoot:
    """(-i)^{dim(g/t)/2} (-1)^{dim(g/k)/2} as an exact eighth root."""
    if profile.dim_g_over_t % 2 or profile.dim_g_over_k % 2:
        raise GradingError("dimension profile has odd root-space dimensions")
    m = profile.dim_g_over_t // 2
    n = profile.dim_g_over_k // 2
    return EighthRoot(-2 * m + 4 * n)
