"""Every Weyl image of a point from one pass over a column table.  Over
every (type, grading, s) of rank <= 3 with -1 in the Weyl group, for the
scenario's tables of W and W_H: an exact point gets exactly w.act(x); a
float point gets the rounding of a left-to-right sum from 0, which is
mat_vec's before Python 3.12 (whose sum() of floats is compensated); and a
point with signed zeros gets the same zeros, each a +0.0 sum.  The float
copies of the tables (PairTable.g_floats and h_floats), which the routes
read for float points, give every bit of the integer tables' images, signed
zeros included, here and on the rank-4 B4_SPLIT."""

import random
import sys
from fractions import Fraction

from endotransfer.lattice import images_in_order
from endotransfer.scenario import build_scenario, parse_scenario

from test_route_oracle import B4_SPLIT


def _in_order(matrix, v):
    """The matrix applied to v, each row summed left to right from 0."""
    out = []
    for row in matrix:
        total = 0
        for m, x in zip(row, v):
            total = total + m * x
        out.append(total)
    return tuple(out)


def _points(rank, rng):
    exact = tuple(Fraction(rng.randint(-36, 36), rng.randint(1, 12)) for _ in range(rank))
    floats = tuple(rng.uniform(-3.0, 3.0) for _ in range(rank))
    zeros = tuple((0.0, -0.0)[k % 2] for k in range(rank))
    mixed = tuple((-0.0, rng.uniform(-3.0, 3.0))[k % 2] for k in range(rank))
    return exact, floats, zeros, mixed


def test_images_in_order_match_each_weyl_element(scenarios):
    g_type, data = scenarios
    rng = random.Random(f"images-{g_type}")
    for key, sc in data:
        eng = sc.engine
        exact, *floats = _points(eng.g_datum.rank, rng)
        for columns, group in ((sc.table.g_columns, eng.weyl_g), (sc.table.h_columns, eng.weyl_h)):
            images = images_in_order(columns, exact)
            assert [tuple(c[k] for c in images) for k in range(len(group))] == [
                w.act(exact) for w in group
            ], key
            assert all(isinstance(c, Fraction) for column in images for c in column), key
            for v in floats:
                images = images_in_order(columns, v)
                got = [repr(tuple(c[k] for c in images)) for k in range(len(group))]
                assert got == [repr(_in_order(w.matrix, v)) for w in group], (key, v)
                if sys.version_info < (3, 12):
                    assert got == [repr(w.act(v)) for w in group], (key, v)


def _float_points(rank, rng):
    """Float points with random, signed-zero and mixed coordinates."""
    return _points(rank, rng)[1:] + ((-0.0,) * rank, (0.0,) * rank)


def _float_table_mismatches(sc, rng) -> list:
    bad = []
    table = sc.table
    pairs = ((table.g_columns, table.g_floats), (table.h_columns, table.h_floats))
    for v in _float_points(sc.engine.g_datum.rank, rng):
        for columns, floats in pairs:
            want = [[c.hex() for c in column] for column in images_in_order(columns, v)]
            got = [[c.hex() for c in column] for column in images_in_order(floats, v)]
            if got != want:
                bad.append(v)
    return bad


def test_float_tables_give_the_bits_of_the_integer_tables(scenarios):
    g_type, data = scenarios
    rng = random.Random(f"floats-{g_type}")
    for key, sc in data:
        assert _float_table_mismatches(sc, rng) == [], key


def test_float_tables_give_the_bits_of_the_integer_tables_on_rank_4():
    sc = build_scenario(parse_scenario(B4_SPLIT))
    assert sc.engine.g_datum.rank == 4
    assert _float_table_mismatches(sc, random.Random("floats-B4")) == []
