import pytest

from endotransfer.lattice import dot, mat_mul
from endotransfer.rootdata import (
    RootDatumError,
    WeylElement,
    build_root_datum,
    coset_representatives,
    enumerate_weyl,
    weyl_inverse,
    weyl_sign,
)


def orbit_stabilizer_order(datum):
    """Independent oracle for |W|: orbit of a generic vector times the
    (trivial) stabilizer, computed by raw matrix closure."""
    gens = [datum.simple_reflection(i).matrix for i in range(len(datum.simple_roots))]
    generic = tuple(10 ** (i + 1) + 1 for i in range(datum.rank))
    seen = {generic}
    frontier = [generic]
    mats = {tuple(map(tuple, g)) for g in gens}
    while frontier:
        new = []
        for v in frontier:
            for g in gens:
                image = tuple(sum(g[i][k] * v[k] for k in range(datum.rank)) for i in range(datum.rank))
                if image not in seen:
                    seen.add(image)
                    new.append(image)
        frontier = new
    return len(seen)


def test_root_counts_match_classified_values():
    assert len(build_root_datum("A1").roots) == 2
    assert len(build_root_datum("A2").roots) == 6
    assert len(build_root_datum("C2").roots) == 8
    assert len(build_root_datum("C2").positive_roots) == 4
    assert len(build_root_datum("A1xA1").roots) == 4
    assert len(build_root_datum("G2").roots) == 12


def test_simple_root_count_a1():
    d = build_root_datum("A1")
    assert len(d.simple_roots) == 1
    assert set(d.roots) == {(2,), (-2,)}


def test_unknown_type_and_rank_cap():
    with pytest.raises(RootDatumError):
        build_root_datum("E6")
    with pytest.raises(RootDatumError):
        build_root_datum("A2xA3")  # rank 5


def test_cartan_matrix_diagonal_two():
    for label in ("A1", "A2", "B2", "C2", "A1xA1", "D4"):
        d = build_root_datum(label)
        for i, alpha in enumerate(d.simple_roots):
            assert dot(alpha, d.simple_coroots[i]) == 2


def test_weyl_orders_against_orbit_oracle():
    for label, order in (("A1", 2), ("A2", 6), ("C2", 8), ("A1xA1", 4), ("B2", 8)):
        d = build_root_datum(label)
        w = enumerate_weyl(d)
        assert len(w) == order
        assert orbit_stabilizer_order(d) == order
        assert w[0].is_identity()
        assert len({el.matrix for el in w}) == order


def test_weyl_group_closed_and_roots_permuted():
    for label in ("A2", "C2"):
        d = build_root_datum(label)
        group = enumerate_weyl(d)
        mats = {w.matrix for w in group}
        for a in group:
            for b in group:
                assert mat_mul(a.matrix, b.matrix) in mats
        for w in group:
            for r in d.roots:
                assert d.is_root(d.act_on_root(w, r))


def test_weyl_sign_examples_and_multiplicativity():
    a1 = build_root_datum("A1")
    w_a1 = enumerate_weyl(a1)
    assert weyl_sign(w_a1[0]) == 1
    assert weyl_sign(w_a1[1]) == -1

    a2 = build_root_datum("A2")
    longest = a2.element_from_word((0, 1, 0))
    assert weyl_sign(longest) == -1

    for label in ("A2", "C2"):
        d = build_root_datum(label)
        group = enumerate_weyl(d)
        for a in group:
            for b in group:
                assert weyl_sign(a * b) == weyl_sign(a) * weyl_sign(b)


def test_reduced_words_and_inverse():
    d = build_root_datum("C2")
    for w in enumerate_weyl(d):
        rebuilt = d.element_from_word(w.word)
        assert rebuilt.matrix == w.matrix
        assert len(d.reduced_word(w.matrix)) == d.length(w)
        winv = weyl_inverse(d, w)
        assert mat_mul(w.matrix, winv.matrix) == enumerate_weyl(d)[0].matrix


def test_weyl_inverse_refuses_word_that_does_not_give_the_matrix():
    d = build_root_datum("C2")
    s0 = d.simple_reflection(0)
    with pytest.raises(RootDatumError, match="word"):
        weyl_inverse(d, WeylElement(s0.matrix, ()))
    with pytest.raises(RootDatumError, match="word"):
        weyl_inverse(d, WeylElement(s0.matrix, (1,)))
    # a longer word that still gives the matrix is accepted
    assert weyl_inverse(d, WeylElement(s0.matrix, (0, 1, 1))).matrix == s0.matrix


def test_coset_representatives_partition():
    a1 = build_root_datum("A1")
    w = enumerate_weyl(a1)
    trivial = (w[0],)
    assert len(coset_representatives(w, trivial)) == 2
    assert len(coset_representatives(w, w)) == 1

    c2 = build_root_datum("C2")
    wc = enumerate_weyl(c2)
    # order-2 subgroup generated by the reflection in the short simple root
    refl = c2.element_from_word((0,))
    sub = (wc[0], refl)
    reps = coset_representatives(wc, sub)
    assert len(reps) == 4
    # translates partition the group
    seen = set()
    for r in reps:
        for s in sub:
            m = mat_mul(r.matrix, s.matrix)
            assert m not in seen
            seen.add(m)
    assert len(seen) == len(wc)


def test_coset_representative_errors():
    c2 = build_root_datum("C2")
    wc = enumerate_weyl(c2)
    not_closed = (wc[0], wc[1], wc[2])
    with pytest.raises(RootDatumError):
        coset_representatives(wc, not_closed)
    a1 = build_root_datum("A1")
    with pytest.raises(RootDatumError):
        coset_representatives(enumerate_weyl(a1), (wc[1],))


def test_invariant_form_weyl_invariant_all_ranks():
    for label in ("A1", "A2", "C2", "A1xA1"):
        d = build_root_datum(label)
        for w in enumerate_weyl(d):
            for u in d.simple_coroots:
                for v in d.simple_coroots:
                    assert d.form(w.act(u), w.act(v)) == d.form(u, v)


def test_short_coroot_normalization():
    for label in ("A1", "A2", "C2", "B2", "G2"):
        d = build_root_datum(label)
        lengths = [d.form(c, c) for c in d.coroots]
        assert min(lengths) == 2


def test_minus_one_element_presence():
    assert build_root_datum("A1").minus_one_element() is not None
    assert build_root_datum("C2").minus_one_element() is not None
    assert build_root_datum("A1xA1").minus_one_element() is not None
    assert build_root_datum("A2").minus_one_element() is None


def test_enumerate_weyl_order_cap():
    d = build_root_datum("C2")
    with pytest.raises(RootDatumError):
        enumerate_weyl(d, cap=3)
