"""The routes' memos of what a Weyl chamber fixes (PairTable.g_memo and
h_memo).

A pair read from a warm table gives the bits of the same pair read from a
cold one, whatever the order of the pairs before it; a pair in chambers
already seen calls no WeylWeight sign method and no fold; and each memo
holds one key per chamber seen, two per chamber for d_gh's.  A pair whose
x_h sits on an ambient wall leaves them empty (tests/test_distributions.py).
"""

import random

import pytest

from endotransfer import distributions
from endotransfer.distributions import (
    EllipticScenario,
    d_gh,
    d_tilde_gh,
    pair_masks,
    verify_identity,
)
from endotransfer.endoscopy import EllipticElement, WeylWeight
from endotransfer.scenario import build_scenario, load_builtin, parse_scenario
from endotransfer.verify import run_verify, sample_regular_vector

from test_report_digests import B3_TEXT

SHIPPED = ("sl2_compact", "sl2_endoscopy", "sl2xsl2_double", "sl2xsl2_mixed", "sp4_endoscopy")
NAMES = SHIPPED + ("b3",)
PAIRS = 41
SIGN_METHODS = ("weight_moved", "weight_at", "h_sign", "g_sign")


def _scenario(name: str) -> EllipticScenario:
    if name == "b3":
        return build_scenario(parse_scenario(B3_TEXT))
    return load_builtin(name)


def _cold(scenario: EllipticScenario) -> EllipticScenario:
    """A scenario of the same engine and sides, whose pair table and memos
    are built anew."""
    return EllipticScenario(
        scenario.name, scenario.engine, scenario.g_side, scenario.h_side, scenario.form_scale
    )


def _pairs(scenario: EllipticScenario, seed: int, count: int = PAIRS):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x_h = EllipticElement(sample_regular_vector(scenario, rng))
        out.append((x_h, EllipticElement(sample_regular_vector(scenario, rng))))
    return out


def _hex(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _report_bits(scenario, x_h, x_g) -> tuple:
    report = verify_identity(scenario, x_h, x_g)
    return (
        _hex(report.lhs), _hex(report.rhs), report.abs_error.hex(), report.termwise_max.hex(), report.passed
    )


def _route_bits(scenario, x_h, x_g) -> tuple:
    """float.hex of both routes' values and terms; each route reads its own
    memo, so each is cold on a new scenario whichever runs first."""
    return tuple(
        (_hex(kernel.value), tuple(map(_hex, kernel.terms)))
        for kernel in (d_gh(scenario, x_h, x_g), d_tilde_gh(scenario, x_h, x_g))
    )


@pytest.mark.parametrize("name", NAMES)
def test_warm_table_gives_the_bits_of_a_cold_one(name):
    scenario = _scenario(name)
    pairs = _pairs(scenario, 23)
    warm = [(_report_bits(scenario, *pair), _route_bits(scenario, *pair)) for pair in pairs]
    # Fewer keys than pairs: some of these pairs read a warm memo.
    assert len(scenario.table.g_memo) < PAIRS

    cold = [(_report_bits(_cold(scenario), *pair), _route_bits(_cold(scenario), *pair)) for pair in pairs]
    assert warm == cold

    backward = _cold(scenario)
    reverse = [(_report_bits(backward, *pair), _route_bits(backward, *pair)) for pair in reversed(pairs)]
    assert warm == reverse[::-1]


@pytest.mark.parametrize("name", NAMES)
def test_pair_in_chambers_seen_calls_no_sign_method_and_no_fold(monkeypatch, name):
    scenario = _scenario(name)
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for method in SIGN_METHODS:
        monkeypatch.setattr(WeylWeight, method, counted(method, getattr(WeylWeight, method)))
    monkeypatch.setattr(distributions, "_fold", counted("_fold", distributions._fold))

    (x_h, x_g), = _pairs(scenario, 3, 1)
    verify_identity(scenario, x_h, x_g)
    assert calls.count("_fold") == 2

    # Points moved along their rays stay in their chambers.
    y_h = EllipticElement(tuple(1.5 * c for c in x_h.coords))
    y_g = EllipticElement(tuple(0.75 * c for c in x_g.coords))
    assert pair_masks(scenario, y_h, y_g) == pair_masks(scenario, x_h, x_g)
    calls.clear()
    verify_identity(scenario, y_h, y_g)
    assert calls == []


def test_memos_hold_one_key_per_chamber_seen():
    scenario = load_builtin("sp4_endoscopy")
    order = len(scenario.engine.weyl_g)
    assert order == 8
    report = run_verify(scenario, 200, 11)
    masks = [
        pair_masks(scenario, EllipticElement(r.x_h), EllipticElement(r.x_g)) for r in report.records
    ]
    g_memo = scenario.table.g_memo
    at_h, at_g = scenario.table.h_memo
    assert set(g_memo) == {(neg_h, neg_g.bit_count() & 1) for neg_h, neg_g in masks}
    assert set(at_h) == {neg_h for neg_h, _ in masks}
    assert set(at_g) == {neg_g for _, neg_g in masks}
    assert len(g_memo) <= 2 * order
    assert len(at_h) <= order and len(at_g) <= order

