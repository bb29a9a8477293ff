"""The transform route pairs each w of W with -w = omega w, which the loader
requires to be in W: the images of -w are those of w negated, so the route
takes the unit phases of the first of the two in the order of W and reads
the other's from them (distributions.d_tilde_gh).  Here the pair table's
pairing is checked on every datum of rank <= 3 (conftest.scenarios) and on
B4_SPLIT: each partner's matrix is its lead's negated, each lead comes
before its partner in W, the leads and partners together are W, each
element once, and the leads' row table, from which the route takes B w x_g,
holds the leads' matrices."""

from endotransfer.scenario import build_scenario, parse_scenario

from oracles import matrices_from_rows
from test_route_oracle import B4_SPLIT


def _pairing_faults(scenario) -> list:
    """(lead, partner, what) for each way the table's pairing breaks."""
    table = scenario.table
    weyl = scenario.engine.weyl_g
    faults = []
    for lead, partner in zip(table.leads, table.partners):
        negated = tuple(tuple(-m for m in row) for row in weyl[lead].matrix)
        if weyl[partner].matrix != negated:
            faults.append((lead, partner, "partner is not -lead"))
        if not lead < partner:
            faults.append((lead, partner, "partner before its lead"))
    if sorted(table.leads + table.partners) != list(range(len(weyl))):
        faults.append((None, None, "leads and partners do not partition W"))
    if matrices_from_rows(table.lead_rows) != tuple(weyl[k].matrix for k in table.leads):
        faults.append((None, None, "lead rows do not rebuild the leads' matrices"))
    return faults


def test_pairs_negate_on_every_datum_of_rank_up_to_3(scenarios):
    g_type, items = scenarios
    bad = [(label, faults) for label, sc in items if (faults := _pairing_faults(sc))]
    assert bad == [], g_type


def test_pairs_negate_on_b4():
    scenario = build_scenario(parse_scenario(B4_SPLIT))
    assert len(scenario.table.leads) == 192
    assert _pairing_faults(scenario) == []
