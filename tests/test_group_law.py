"""The tables the routes regroup by and take Weyl images from, over every
(type, grading, s) of rank <= 3 with -1 in the Weyl group: each side's
row table of W or W_H gathers the k-th element's integer matrix at k,
each group-law entry is the integer matrix product
u w, each real Weyl element's row permutes the side's Weyl group, and
W_real(H) lies in W_H.  None of this uses the package's permutations."""

from endotransfer.lattice import mat_mul

from oracles import matrices_from_rows


def test_group_law_is_the_integer_product(scenarios):
    g_type, data = scenarios
    for key, sc in data:
        eng = sc.engine
        assert {u.matrix for u in eng.real_weyl_h} <= {w.matrix for w in eng.weyl_h}, key
        table = sc.table
        for side, group, rows, law in (
            (sc.g_side, eng.weyl_g, table.g_rows, table.g_law),
            (sc.h_side, eng.weyl_h, table.h_rows, table.h_law),
        ):
            assert matrices_from_rows(rows) == tuple(w.matrix for w in group), key
            assert len(law) == len(side.real_weyl), key
            for u, row in zip(side.real_weyl, law):
                assert sorted(row) == list(range(len(group))), (key, u.word)
                for w, z in zip(group, row):
                    assert group[z].matrix == mat_mul(u.matrix, w.matrix), (key, u.word, w.word)
