"""Every Weyl image of a point from the distinct rows of the group's
matrices.  Over every (type, grading, s) of rank <= 3 with -1 in the Weyl
group, and on the rank-4 B4_SPLIT, for the pair table's row tables of W,
W_H and the leads of W's pairing of w with -w:

- every matrix is rebuilt from its gathered rows;
- each image coordinate has the bits of the literal image, dot_in_order of
  the element's matrix row with the point, at random float points, at
  points with +-0.0 coordinates, at Fraction points (where it is exactly
  w.act) and at mixed points;
- the transform route's form points, B w x_g for the leads
  (Side.form_points), have the bits of the form applied to the literal
  images, row by row from the integer 0 as form_image takes B v.

Before Python 3.12, whose sum() of floats is compensated, the float images
are also mat_vec's, which w.act takes."""

import random
import sys
from fractions import Fraction

from endotransfer.lattice import MAX_RANK, dot_in_order, row_images, row_table
from endotransfer.scenario import build_scenario, parse_scenario

from oracles import matrices_from_rows
from test_route_oracle import B4_SPLIT


def _points(rank, rng):
    """An exact point, then float points: random, signed-zero and mixed."""
    exact = tuple(Fraction(rng.randint(-36, 36), rng.randint(1, 12)) for _ in range(rank))
    floats = tuple(rng.uniform(-3.0, 3.0) for _ in range(rank))
    zeros = tuple((0.0, -0.0)[k % 2] for k in range(rank))
    mixed = tuple((-0.0, Fraction(rng.randint(-9, 9), 4), rng.uniform(-3.0, 3.0))[k % 3] for k in range(rank))
    return exact, (floats, zeros, mixed, (-0.0,) * rank, (0.0,) * rank)


def _bits(x):
    """A float by its bits, anything else by its type and value."""
    return x.hex() if type(x) is float else (type(x).__name__, x)


def _literal(matrix, v):
    return tuple(_bits(dot_in_order(row, v)) for row in matrix)


def _groups(sc):
    """(label, row table, the matrices it holds, in order) for W, W_H and
    the leads."""
    eng, table = sc.engine, sc.table
    return (
        ("W", table.g_rows, [w.matrix for w in eng.weyl_g]),
        ("W_H", table.h_rows, [w.matrix for w in eng.weyl_h]),
        ("leads", table.lead_rows, [eng.weyl_g[k].matrix for k in table.leads]),
    )


def _faults(sc, rng) -> list:
    faults = []
    eng = sc.engine
    exact, floats = _points(eng.g_datum.rank, rng)
    for label, rows, matrices in _groups(sc):
        if matrices_from_rows(rows) != tuple(matrices):
            faults.append((label, "rows do not rebuild the matrices"))
        if any(len(row) != MAX_RANK or set(row[len(rows):]) - {0} for r, _ in rows for row in r):
            faults.append((label, "a row is not padded with 0 to MAX_RANK"))
        for v in (exact, *floats):
            got = list(zip(*[map(_bits, c) for c in row_images(rows, v)]))
            if got != [_literal(m, v) for m in matrices]:
                faults.append((label, v))
    for w, image in zip(eng.weyl_g, zip(*row_images(sc.table.g_rows, exact))):
        if image != w.act(exact) or not all(type(c) is Fraction for c in image):
            faults.append(("W", "exact image is not w.act", w.word))
    if sys.version_info < (3, 12):
        for w, image in zip(eng.weyl_g, zip(*row_images(sc.table.g_rows, floats[0]))):
            if repr(image) != repr(w.act(floats[0])):
                faults.append(("W", "float image is not w.act", w.word))
    return faults


def _form_faults(sc, rng) -> list:
    """Lead points that differ from B applied to the literal images."""
    form = [[float(b) for b in row] for row in sc.engine.g_datum.invariant_form]
    table, side = sc.table, sc.h_side
    leads = [sc.engine.weyl_g[k].matrix for k in table.leads]
    exact, floats = _points(sc.engine.g_datum.rank, rng)
    faults = []
    for v in (exact, *floats):
        want = []
        for matrix in leads:
            image = [float(dot_in_order(row, v)) for row in matrix]
            point = [dot_in_order(row, image) for row in form]
            want.append(tuple(c.hex() for c in point + [0.0] * (MAX_RANK - len(point))))
        got = [tuple(c.hex() for c in point) for point in side.form_points(table.lead_rows, v)]
        if got != want:
            faults.append(v)
    return faults


def test_row_tables_give_the_literal_images(scenarios):
    g_type, data = scenarios
    rng = random.Random(f"rows-{g_type}")
    bad = [(key, faults) for key, sc in data if (faults := _faults(sc, rng))]
    assert bad == [], g_type


def test_lead_form_points_apply_the_form_to_the_literal_images(scenarios):
    g_type, data = scenarios
    rng = random.Random(f"forms-{g_type}")
    bad = [(key, faults) for key, sc in data if (faults := _form_faults(sc, rng))]
    assert bad == [], g_type


def test_row_tables_on_rank_4():
    sc = build_scenario(parse_scenario(B4_SPLIT))
    assert sc.engine.g_datum.rank == 4
    assert [len(r) for r, _ in sc.table.g_rows] == [8, 24, 32, 16]
    assert _faults(sc, random.Random("rows-B4")) == []
    assert _form_faults(sc, random.Random("forms-B4")) == []


def test_row_tables_of_one_element_or_none():
    """itemgetter of one index gives the item itself: a table of one matrix
    still gathers a sequence, and a table of none is empty."""
    matrices = [((2,),), ((-1,),)]
    assert [list(c) for c in row_images(row_table(matrices), (3,))] == [[6, -3]]
    assert [list(c) for c in row_images(row_table(matrices[1:]), (3,))] == [[-3]]
    assert row_table([]) == ()
