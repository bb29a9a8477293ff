"""The routes fill their chamber memos from the table's sign columns: the
signs of all entries at once from XORs of GF(2) columns, each front taken
once per distinct value, and each product of d_gh's fold once per (value,
det).  Here every memo entry is checked against the fill taken entry by
entry from the entries' own masks, with a product per (u, w) in d_gh's fold
(oracles.entry_g_chamber, entry_h_chamber and entry_x_g_chamber), to the
last bit: on the five shipped files, the b3_kernel datum and B4_SPLIT, at a
point in every Weyl chamber, w r for w in W and a fixed regular r, as x_h
(both parities of x_g for d_gh's memo) and as x_g.  The entries are
decoded once, from the table as built (oracles.table_entries), so a single
flipped bit in one column of weight_moved, weight_at or h_sign, or in the
length bits that g_sign keeps, must show as a mismatch."""

import random

import pytest

from endotransfer import distributions
from endotransfer.distributions import EllipticScenario
from endotransfer.endoscopy import EllipticElement, require_regular
from endotransfer.scenario import build_scenario, load_builtin, parse_scenario
from endotransfer.verify import sample_regular_vector

from oracles import bits, entry_g_chamber, entry_h_chamber, entry_x_g_chamber, table_entries
from test_report_digests import B3_TEXT
from test_route_oracle import B4_SPLIT

SHIPPED = ("sl2_compact", "sl2_endoscopy", "sl2xsl2_double", "sl2xsl2_mixed", "sp4_endoscopy")


def _scenario(name: str) -> EllipticScenario:
    if name == "b3_kernel":
        return build_scenario(parse_scenario(B3_TEXT))
    if name == "b4_split":
        return build_scenario(parse_scenario(B4_SPLIT))
    return load_builtin(name)


def _chamber_masks(scenario) -> list[int]:
    """require_regular's mask of w r for every w in W, r a seeded regular
    point: one mask per Weyl chamber."""
    eng = scenario.engine
    r = sample_regular_vector(scenario, random.Random(7))
    masks = [require_regular(eng.g_datum, EllipticElement(tuple(w.act(r)))) for w in eng.weyl_g]
    assert len(set(masks)) == len(masks)
    return masks


def _hex(values) -> list:
    return [bits(z) for z in values]


def _mismatches(scenario, entries, masks) -> list[tuple[str, int]]:
    """(fill, mask) wherever a fill from the sign columns differs in any bit
    from the entry-by-entry fill of these entries."""
    bad = []
    for mask in masks:
        for parity in (0, 1):
            counts, fronts = distributions._g_chamber(scenario, mask, parity)
            want_counts, want_fronts = entry_g_chamber(scenario, entries, mask, parity)
            if (_hex(counts), _hex(fronts)) != (_hex(want_counts), _hex(want_fronts)):
                bad.append(("_g_chamber", mask))
        counts, sign = distributions._h_chamber(scenario, mask)
        want_counts, want_sign = entry_h_chamber(scenario, entries, mask)
        if (_hex(counts), sign) != (_hex(want_counts), want_sign):
            bad.append(("_h_chamber", mask))
        products, by_sign = distributions._x_g_chamber(scenario, mask)
        want_products, want_by_sign = entry_x_g_chamber(scenario, entries, mask)
        got = _hex(products), _hex(by_sign[1]), _hex(by_sign[-1])
        if got != (_hex(want_products), _hex(want_by_sign[1]), _hex(want_by_sign[-1])):
            bad.append(("_x_g_chamber", mask))
    return bad


@pytest.mark.parametrize("name", SHIPPED + ("b3_kernel", "b4_split"))
def test_fills_from_sign_columns_match_entry_by_entry_fills(name):
    scenario = _scenario(name)
    assert _mismatches(scenario, table_entries(scenario), _chamber_masks(scenario)) == []


@pytest.mark.parametrize("kind", ("weight_moved", "g_sign", "weight_at", "h_sign"))
@pytest.mark.parametrize("name", ("sp4_endoscopy", "b3_kernel"))
def test_a_flipped_column_bit_shows(name, kind):
    """Bit 0, the identity's entry, flipped in the column of the first
    positive root: every chamber where that root is negative reads the
    wrong sign for that entry.  g_sign keeps no columns, only the length
    bits: flipping the identity's reads the wrong sign in every chamber."""
    scenario = _scenario(name)
    entries = table_entries(scenario)
    masks = _chamber_masks(scenario)
    signs = scenario.table.signs
    if kind == "g_sign":
        signs[kind] ^= 1
        assert _mismatches(scenario, entries, masks) == [("_g_chamber", m) for m in masks for _ in (0, 1)]
        return
    start, columns = signs[kind]
    signs[kind] = (start, (columns[0] ^ 1,) + columns[1:])
    bad = _mismatches(scenario, entries, masks)
    assert bad
    assert all(mask & 1 for _, mask in bad)
