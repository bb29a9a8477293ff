"""The group-law tables the routes regroup by, over every (type, grading,
s) of rank <= 3 with -1 in the Weyl group: each entry is the integer matrix
product u w, each real Weyl element's row permutes the side's Weyl group,
and W_real(H) lies in W_H.  None of this uses the package's permutations."""

from endotransfer.lattice import mat_mul


def test_group_law_is_the_integer_product(scenarios):
    g_type, data = scenarios
    for key, sc in data:
        eng = sc.engine
        assert {u.matrix for u in eng.real_weyl_h} <= {w.matrix for w in eng.weyl_h}, key
        for side, group in ((sc.g_side, eng.weyl_g), (sc.h_side, eng.weyl_h)):
            law = side.law
            assert law.matrices == tuple(
                tuple(tuple(float(x) for x in row) for row in w.matrix) for w in group
            ), key
            assert len(law.products) == len(side.real_weyl), key
            for u, row in zip(side.real_weyl, law.products):
                assert sorted(row) == list(range(len(group))), (key, u.word)
                for w, z in zip(group, row):
                    assert group[z].matrix == mat_mul(u.matrix, w.matrix), (key, u.word, w.word)
