"""The right Cayley table each Weyl group keeps (WeylGroup.table), from
which the set-up reads every group law by position.  Checked against root
permutation products, over the 330 data of tests/conftest.py and B4_SPLIT:

* table[k * n + i] is the position of w_k s_i, the element whose root
  permutation is p_k o p_{s_i}, for W and for W_H over their own simple
  reflections, and a table with one wrong entry fails the check;
* the W_H the engine reads from W's table (weyl_subgroup) is
  enumerate_weyl(h_datum), element by element: matrix, word, permutation,
  order and table, and its positions in W hold its matrices."""

from endotransfer.rootdata import enumerate_weyl
from endotransfer.scenario import build_scenario, parse_scenario

from test_route_oracle import B4_SPLIT


def table_mismatches(group, datum, table) -> list[tuple[int, int]]:
    """The (k, i) at which table is not the position of w_k s_i, found
    from the root permutations of group, those of datum's roots."""
    position = {perm: k for k, perm in enumerate(group.perms)}
    steps = datum._reflections
    n = len(steps)
    assert len(table) == n * len(group)
    return [
        (k, i)
        for k, perm in enumerate(group.perms)
        for i, step in enumerate(steps)
        if table[k * n + i] != position[tuple([perm[j] for j in step])]
    ]


def check_engine(eng) -> None:
    g, h = eng.g_datum, eng.datum.h_datum
    for group, datum in ((eng.weyl_g, g), (eng.weyl_h, h)):
        assert table_mismatches(group, datum, group.table) == []
    literal = enumerate_weyl(h)
    assert len(eng.weyl_h) == len(literal)
    for w, v in zip(eng.weyl_h, literal):
        assert (w.matrix, w.word) == (v.matrix, v.word)
    assert eng.weyl_h.perms == literal.perms
    assert eng.weyl_h.table == literal.table
    assert eng.h_positions == eng.weyl_h.positions
    assert [eng.weyl_g[k].matrix for k in eng.h_positions] == [w.matrix for w in literal]


def test_tables_are_the_permutation_products(scenarios):
    _, data = scenarios
    for _, sc in data:
        check_engine(sc.engine)


def test_b4_tables_are_the_permutation_products():
    eng = build_scenario(parse_scenario(B4_SPLIT)).engine
    assert (len(eng.weyl_g.table), len(eng.weyl_h.table)) == (1536, 768)
    check_engine(eng)


def test_a_table_with_one_wrong_entry_fails(scenarios):
    """Each entry moved to the next position, one at a time, on the first
    datum of the type: the check names exactly that entry."""
    _, data = scenarios
    eng = data[0][1].engine
    group, datum = eng.weyl_g, eng.g_datum
    n = len(datum._reflections)
    for entry in range(len(group.table)):
        table = list(group.table)
        table[entry] = (table[entry] + 1) % len(group)
        assert table_mismatches(group, datum, table) == [divmod(entry, n)]
