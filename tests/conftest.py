"""Fixtures shared by the test modules."""

import itertools
from fractions import Fraction

import pytest

from endotransfer.distributions import make_scenario
from endotransfer.endoscopy import EllipticElement, TransferFactorEngine, build_endoscopic_datum
from endotransfer.realform import build_grading, real_weyl_group
from endotransfer.rootdata import build_root_datum

from oracles import TYPES


@pytest.fixture(scope="session", params=TYPES)
def scenarios(request):
    """A Cartan type of TYPES, and its scenarios for every simple grading of
    G and every nontrivial s, H quasi-split, base point (1/2, 2/3, 3/4, ...)
    on both sides; built once for every test that takes them."""
    g_type = request.param
    g = build_root_datum(g_type)
    point = EllipticElement(tuple(Fraction(k + 1, k + 2) for k in range(g.rank)))
    out = []
    for grades in itertools.product((0, 1), repeat=g.rank):
        grading_g = build_grading(g, grades)
        rw_g = real_weyl_group(grading_g)
        for signs in itertools.product((1, -1), repeat=g.rank):
            if all(s == 1 for s in signs):
                continue
            datum = build_endoscopic_datum(g, signs)
            grading_h = build_grading(datum.h_datum, [1] * len(datum.h_datum.simple_roots))
            eng = TransferFactorEngine(
                datum, grading_g, grading_h, rw_g, real_weyl_group(grading_h), point, point
            )
            out.append(((grades, signs), make_scenario(f"{g_type}{grades}{signs}", eng)))
    return g_type, out
