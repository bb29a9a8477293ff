"""Golden digests of the set-up tables every report is computed from.

A set-up that reorders W, or changes any table indexed by it, moves the
bits of the reports, which test_report_digests.py checks only on a few
data.  This guard hashes the tables themselves, on the 330 data of
tests/conftest.py, one digest per Cartan type, and on B4_SPLIT:

* W's elements in their order, each as its word and root permutation;
* the positions of w^{-1}, of -w and of w^{-2} for every w;
* the pair table's group laws g_law and h_law, and the positions of W_H
  in W;
* the pair table's transfer entries, field by field, and their sign
  columns.

Each digest is the SHA-256 of the repr of these tuples of integers, which
no supported interpreter prints differently.  A failing test prints the
digest it computed; a change meant to move one records the old and new
value in CHANGES.md.
"""

import hashlib

from endotransfer.scenario import build_scenario, parse_scenario

from test_route_oracle import B4_SPLIT

DIGESTS = {
    "A1": "503be6175aa902d54079aa95513cd6d6a2427fdabba001367ca8aad24180cf64",
    "A1xA1": "000518099d48b34a5de8feb2b0dc89cd6e1258d02bd92ad0056c08a01ac91aa8",
    "B2": "92dd0146591132e6e53880b0b378a78338b7508a67846524ca924e3cac0c1810",
    "C2": "92dd0146591132e6e53880b0b378a78338b7508a67846524ca924e3cac0c1810",
    "G2": "6e7625ff73b7e376be040fdb0594c1e184d6b2311eb8ab4d0ca33aea8512d4db",
    "A1xA1xA1": "f9b241597892b663046ccd14809c47d846c43dd95c4f3e3e383810a4653511e7",
    "A1xB2": "60ef4df9535deb8a9c5b655db326b4a9de9eab2507d3fc19010c6b63c3d30d85",
    "A1xG2": "c58d44edc5128c6de9bd9a975bedb600d5602189a43034b066d0d9204d4b2f63",
    "B3": "32afb08a955e47ce22f705358cd881c17d1fa28addfbd24fa1dac61e0fcdae16",
    "C3": "483dbad7ca14fa883a667213aef8671fdea332fa5b4bc4409fcf6b51625800cb",
    "B4_SPLIT": "1ff86da14781a3d7428fc66d345ca456287ea9f4e1ca5544113f0a8b6fe65075",
}


def tables(sc) -> tuple:
    """The set-up tables of a scenario, as tuples of integers."""
    eng, table = sc.engine, sc.table
    weyl = tuple((w.word, perm) for w, perm in zip(eng.weyl_g, eng.weyl_g.perms))
    entries = tuple(
        (e.w.word, e.inverse, e.sign, e.roots, e.at, e.moved, e.h_moved, e.length) for e in table.entries
    )
    return (
        weyl,
        eng._inverse,
        eng.negated,
        eng._inverse_square,
        table.g_law,
        table.h_law,
        eng.h_positions,
        entries,
        tuple(sorted(table.signs.items())),
    )


def digest(scenarios) -> str:
    out = hashlib.sha256()
    for sc in scenarios:
        out.update(repr(tables(sc)).encode("ascii"))
    return out.hexdigest()


def test_setup_tables_match_their_digests(scenarios):
    g_type, data = scenarios
    assert digest(sc for _, sc in data) == DIGESTS[g_type]


def test_b4_setup_tables_match_their_digest():
    assert digest([build_scenario(parse_scenario(B4_SPLIT))]) == DIGESTS["B4_SPLIT"]
