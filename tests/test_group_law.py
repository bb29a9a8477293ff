"""The tables the routes take Weyl images from and the transfer route
regroups by, over every (type, grading, s) of rank <= 3 with -1 in the Weyl
group: each side's row table of W or W_H gathers the k-th element's integer
matrix at k, each entry of G's group law is the integer matrix product
u w, each row of W_real(G) permutes W, and W_real(H) lies in W_H.  None of
this uses the package's permutations."""

from endotransfer.lattice import mat_mul

from oracles import matrices_from_rows


def test_group_law_is_the_integer_product(scenarios):
    g_type, data = scenarios
    for key, sc in data:
        eng = sc.engine
        assert {u.matrix for u in eng.real_weyl_h} <= {w.matrix for w in eng.weyl_h}, key
        table = sc.table
        assert matrices_from_rows(table.h_rows) == tuple(w.matrix for w in eng.weyl_h), key
        assert matrices_from_rows(table.g_rows) == tuple(w.matrix for w in eng.weyl_g), key
        assert len(table.g_law) == len(eng.real_weyl_g), key
        for u, row in zip(eng.real_weyl_g, table.g_law):
            assert sorted(row) == list(range(len(eng.weyl_g))), (key, u.word)
            for w, z in zip(eng.weyl_g, row):
                assert eng.weyl_g[z].matrix == mat_mul(u.matrix, w.matrix), (key, u.word, w.word)
