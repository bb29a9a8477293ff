"""Golden digests of the set-up tables every report is computed from.

A set-up that reorders W, or changes any table indexed by it, moves the
bits of the reports, which test_report_digests.py checks only on a few
data.  This guard hashes the tables themselves, on the 330 data of
tests/conftest.py, two digests per Cartan type, and on B4_SPLIT:

* the group-law digest: W's elements in their order, each as its word and
  root permutation; the positions of w^{-1}, of -w and of w^{-2} for every
  w; the pair table's group law g_law; and the positions of W_H in W;
* the entries digest: the pair table's transfer entries, field by field,
  and their sign columns.

A change to the transfer factor moves the entries digests alone; a change
to how W or its laws are read moves the group-law digests.  Each digest is
the SHA-256 of the repr of these tuples of integers, which no supported
interpreter prints differently.  A failing test prints the digest it
computed; a change meant to move one records the old and new value in
CHANGES.md.
"""

import hashlib

from endotransfer.scenario import build_scenario, parse_scenario

from test_route_oracle import B4_SPLIT

# (group-law digest, entries digest) per Cartan type.
DIGESTS = {
    "A1": (
        "7936de65765dcffd7e878053e46b2fdce28f0a80bbac95791333e1f409e4d8a5",
        "89f0bf7d0a0a567cfcf1f8d9db4f0b592da0a2291f855d1c4d5e5890726b8535",
    ),
    "A1xA1": (
        "ce1ebde6c9753c5b248df2f9efa38cac4c7c8b4fb1b643afc0e4f909fbf47437",
        "78bb83beff9a9205ed63e1b294217e28c423ca7a91b57f036537af5125829884",
    ),
    "B2": (
        "834d537d8ced1039a2d6dd82ded3d9ac94f0e08566b9f36e4c6d61725fe2767c",
        "3e207ccf3d171bbdaa7e2e85fb4a216076603bf7467d380d6c44fb9fb356cc99",
    ),
    "C2": (
        "834d537d8ced1039a2d6dd82ded3d9ac94f0e08566b9f36e4c6d61725fe2767c",
        "3e207ccf3d171bbdaa7e2e85fb4a216076603bf7467d380d6c44fb9fb356cc99",
    ),
    "G2": (
        "3836ae9ea22d862d2386c65d07d131c250efda9a88458f40beeccb5cce35a503",
        "cbe7ad266ed03ac467ef8c503dae357f5b7e54f0f74fd587c3955fa04a055048",
    ),
    "A1xA1xA1": (
        "219668042a8ad632a94df641c1790822075fc9d405014da1dfbb80163db5b117",
        "9624d1855a0ae4ddb1c808baf8e8c3d26f77aa424cae35d60ac62968eca64fe8",
    ),
    "A1xB2": (
        "91c569180271ee4adebe0c3958c5e6908701ad78332917f283e2ffc77aa701e4",
        "e8abb0ef7de43ac01e5e279c41e620966bcc857a5b8a20666627058ae33d832b",
    ),
    "A1xG2": (
        "414224a27c44f237ce481b6e0834415beb2f74c774a805b76df76e9ffa0cd130",
        "86c70be63370b0d5a2ae82220e60c1915042ec7cef6e5132105506ad61be8535",
    ),
    "B3": (
        "60a207e889214aa38d395700d94189a4ce5f04294372b9abab5c63842305ea37",
        "53a6086c4045be1c6fb3c44a1b7276967e3b8649d068247b6f74711e41348d70",
    ),
    "C3": (
        "c2dce99f50aa0ec235e025b12f3eb911348bdcc7fd4e8f1a1c6e3e6c4092c7d7",
        "cee088f1eb1f36b336726f0488d093639cda887b85c02f9d427caff806e541c9",
    ),
    "B4_SPLIT": (
        "95e0c6529a69017fe5afee8575a3e82dcfc52de84d4844cb387f1d576073aac8",
        "2dbcd57b90f65b8b42993e0df1e841eb4cc34e22339aa900629b548d7c9be295",
    ),
}


def group_law_tables(sc) -> tuple:
    """W, its inverse, negation and inverse-square positions, G's group law
    and the positions of W_H, as tuples of integers."""
    eng = sc.engine
    weyl = tuple((w.word, perm) for w, perm in zip(eng.weyl_g, eng.weyl_g.perms))
    return weyl, eng._inverse, eng.negated, eng._inverse_square, sc.table.g_law, eng.h_positions


def entry_tables(sc) -> tuple:
    """The transfer entries, field by field, and their sign columns."""
    table = sc.table
    entries = tuple(
        (e.w.word, e.inverse, e.sign, e.roots, e.at, e.moved, e.h_moved, e.length) for e in table.entries
    )
    return entries, tuple(sorted(table.signs.items()))


def digests(scenarios) -> tuple[str, str]:
    laws, entries = hashlib.sha256(), hashlib.sha256()
    for sc in scenarios:
        laws.update(repr(group_law_tables(sc)).encode("ascii"))
        entries.update(repr(entry_tables(sc)).encode("ascii"))
    return laws.hexdigest(), entries.hexdigest()


def test_setup_tables_match_their_digests(scenarios):
    g_type, data = scenarios
    assert digests(sc for _, sc in data) == DIGESTS[g_type]


def test_b4_setup_tables_match_their_digest():
    assert digests([build_scenario(parse_scenario(B4_SPLIT))]) == DIGESTS["B4_SPLIT"]
