"""Golden digests of the set-up tables every report is computed from.

A set-up that reorders W, or changes any table indexed by it, moves the
bits of the reports, which test_report_digests.py checks only on a few
data.  This guard hashes the tables themselves, on the 330 data of
tests/conftest.py, three digests per Cartan type, and on B4_SPLIT:

* the group-law digest: W's elements in their order, each as its word and
  root permutation; the positions of w^{-1}, of -w and of w^{-2} for every
  w; the pair table's group law g_law; and the positions of W_H in W;
* the entries digest: the transfer entries, field by field as
  oracles.table_entries decodes them from the pair table (w's word, the
  position of w^{-1}, sign, roots, at, moved, h_moved, length), and the
  sign columns themselves, g_sign's as its length bits;
* the root-table digest: for every root of G and then of H, the
  permutation of G's roots of its reflection (reflection_permutation) and
  its integer coefficients over the simple roots, each written as a
  (numerator, 1) pair, the form the golden digests were taken in.

A change to the transfer factor moves the entries digests alone; a change
to how W or its laws are read moves the group-law digests, and one to a
root's reflection or coefficients the root-table digests.  Each digest is
the SHA-256 of the repr of these tuples of integers, which no supported
interpreter prints differently.  A failing test prints the digest it
computed; a change meant to move one records the old and new value in
CHANGES.md.
"""

import hashlib

from endotransfer.scenario import build_scenario, parse_scenario

from oracles import table_entries
from test_route_oracle import B4_SPLIT

# (group-law digest, entries digest, root-table digest) per Cartan type.
DIGESTS = {
    "A1": (
        "7936de65765dcffd7e878053e46b2fdce28f0a80bbac95791333e1f409e4d8a5",
        "624c5beb068ed9e79257633fb5d0c8802ee2934ebf8aea1199376e0669a43c3f",
        "c698e8be271e865e164af6c2f4215728c58caac447f9cb8fa0833f8d261ce26f",
    ),
    "A1xA1": (
        "ce1ebde6c9753c5b248df2f9efa38cac4c7c8b4fb1b643afc0e4f909fbf47437",
        "8d464436fd083cf8ce19a3ab54224bd704295535ddc75af90251200f39a4f890",
        "62699b91b33fda3130f1e5996d973571e3903800f719e52b86467a7fdd4d9460",
    ),
    "B2": (
        "834d537d8ced1039a2d6dd82ded3d9ac94f0e08566b9f36e4c6d61725fe2767c",
        "e4eac0e09c6075a6df58b886b4565534afaeddcf1f6b398cb39febd95ad737e1",
        "73708e2e5798416c35e390f7db634ff7d024cf562753c1314c550aa78f5b5019",
    ),
    "C2": (
        "834d537d8ced1039a2d6dd82ded3d9ac94f0e08566b9f36e4c6d61725fe2767c",
        "e4eac0e09c6075a6df58b886b4565534afaeddcf1f6b398cb39febd95ad737e1",
        "73708e2e5798416c35e390f7db634ff7d024cf562753c1314c550aa78f5b5019",
    ),
    "G2": (
        "3836ae9ea22d862d2386c65d07d131c250efda9a88458f40beeccb5cce35a503",
        "c9d755b57a6bfa82bba31dabdf9a34d05cd9d4bc0c7b089e33e21f7592f10576",
        "5df14f4091439f9c3028eb9ae21c60ad0b5d8f61fc38e294de20bca5e9426d06",
    ),
    "A1xA1xA1": (
        "219668042a8ad632a94df641c1790822075fc9d405014da1dfbb80163db5b117",
        "82b5fdd293ea5ebfb3ce627952fd0c82455486e1fb109c5b6fa1f5437b59451d",
        "3c5b95966296cce6d6c2290c2c2938018f8c8b6323701e4f25842fcdc0d1a196",
    ),
    "A1xB2": (
        "91c569180271ee4adebe0c3958c5e6908701ad78332917f283e2ffc77aa701e4",
        "0a6f7bd262376c93ac5fa52f21dde3a43eae7a5167c612daa95947a958d2845f",
        "5bdc73e8ef09e59589d1b77e0bf02bd4c08d597d5e1885739e3d02bf47a58922",
    ),
    "A1xG2": (
        "414224a27c44f237ce481b6e0834415beb2f74c774a805b76df76e9ffa0cd130",
        "80506a5dfcd3f4e3936632137b158c9db7d2e712201571c03accd3d2dc023409",
        "89e20973af24d3c52602edc232034bf60c6ffaac30dc078e39bf79166f4f6ae0",
    ),
    "B3": (
        "60a207e889214aa38d395700d94189a4ce5f04294372b9abab5c63842305ea37",
        "69b85f8524cc60a152762ee3967c092d46ca2941bf11b15b0c0381a3360db743",
        "a3626ed569cacdceb712e1c525d47889a3d90190af74481f33bd87924505b541",
    ),
    "C3": (
        "c2dce99f50aa0ec235e025b12f3eb911348bdcc7fd4e8f1a1c6e3e6c4092c7d7",
        "83bcd0c015cd2d5994983506b497262b5400ae6a78301ae651165a39e1fe5eeb",
        "03a8e2563645f1cc278aceca169d5a5b9c2a48077d4e0640d08611c16eb8c295",
    ),
    "B4_SPLIT": (
        "95e0c6529a69017fe5afee8575a3e82dcfc52de84d4844cb387f1d576073aac8",
        "336c054749d9773c25c5418ff6f4f782e953fb327c7786ed2c46b214f63eb2de",
        "9dfa51ca976e6c804c8e2bd8735ef7de39004f1b89449c2172cbe45a38ff65ec",
    ),
}


def group_law_tables(sc) -> tuple:
    """W, its inverse, negation and inverse-square positions, G's group law
    and the positions of W_H, as tuples of integers."""
    eng = sc.engine
    weyl = tuple((w.word, perm) for w, perm in zip(eng.weyl_g, eng.weyl_g.perms))
    return weyl, eng._inverse, eng.negated, eng._inverse_square, sc.table.g_law, eng.h_positions


def entry_tables(sc) -> tuple:
    """The transfer entries, field by field as oracles.table_entries
    decodes them, and the sign columns."""
    entries = tuple(
        (e.w.word, e.inverse, e.sign, e.roots, e.at, e.moved, e.h_moved, e.length) for e in table_entries(sc)
    )
    return entries, tuple(sorted(sc.table.signs.items()))


def root_tables(sc) -> tuple:
    """For every root of G, then of H: its reflection as a permutation of
    G's roots, and its integer coefficients as (numerator, 1) pairs."""
    eng = sc.engine
    g = eng.g_datum
    out = []
    for datum in (g, eng.datum.h_datum):
        for beta in datum.roots:
            fractions = tuple((c, 1) for c in datum.simple_root_coefficients(beta))
            out.append((g.reflection_permutation(beta), fractions))
    return tuple(out)


def digests(scenarios) -> tuple[str, str, str]:
    laws, entries, roots = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for sc in scenarios:
        laws.update(repr(group_law_tables(sc)).encode("ascii"))
        entries.update(repr(entry_tables(sc)).encode("ascii"))
        roots.update(repr(root_tables(sc)).encode("ascii"))
    return laws.hexdigest(), entries.hexdigest(), roots.hexdigest()


def test_setup_tables_match_their_digests(scenarios):
    g_type, data = scenarios
    assert digests(sc for _, sc in data) == DIGESTS[g_type]


def test_b4_setup_tables_match_their_digest():
    assert digests([build_scenario(parse_scenario(B4_SPLIT))]) == DIGESTS["B4_SPLIT"]
