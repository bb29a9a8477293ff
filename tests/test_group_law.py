"""The tables the routes regroup by and take Weyl images from, over every
(type, grading, s) of rank <= 3 with -1 in the Weyl group: each side's
column table of W or W_H holds entry (i, j) of the k-th element's integer
matrix at [i][j][k], each group-law entry is the integer matrix product
u w, each real Weyl element's row permutes the side's Weyl group, and
W_real(H) lies in W_H.  None of this uses the package's permutations."""

from endotransfer.lattice import mat_mul


def test_group_law_is_the_integer_product(scenarios):
    g_type, data = scenarios
    for key, sc in data:
        eng = sc.engine
        assert {u.matrix for u in eng.real_weyl_h} <= {w.matrix for w in eng.weyl_h}, key
        table = sc.table
        for side, group, columns, law in (
            (sc.g_side, eng.weyl_g, table.g_columns, table.g_law),
            (sc.h_side, eng.weyl_h, table.h_columns, table.h_law),
        ):
            rank = len(group[0].matrix)
            assert columns == tuple(
                tuple(tuple(w.matrix[i][j] for w in group) for j in range(rank))
                for i in range(rank)
            ), key
            assert len(law) == len(side.real_weyl), key
            for u, row in zip(side.real_weyl, law):
                assert sorted(row) == list(range(len(group))), (key, u.word)
                for w, z in zip(group, row):
                    assert group[z].matrix == mat_mul(u.matrix, w.matrix), (key, u.word, w.word)
