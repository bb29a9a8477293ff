"""Hypothesis fuzz of the H^1 layer: h1, cocycle_class, the Tate-Nakayama
pairing and the reduce/representative round trip on random integer
involutions of rank <= 4, against the brute-force oracle."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from endotransfer.cohomology import CohomologyError

from test_cohomology import _check_against_oracle

_BLOCKS = {"+": ((1,),), "-": ((-1,),), "swap": ((0, 1), (1, 0))}


@st.composite
def involutions(draw):
    """A random integer involution of rank <= 4: a direct sum of the blocks
    (1), (-1) and the swap, conjugated by a product of elementary matrices."""
    n = draw(st.integers(1, 4))
    sigma = [[0] * n for _ in range(n)]
    filled = 0
    while filled < n:
        fits = [b for b in _BLOCKS if len(_BLOCKS[b]) <= n - filled]
        block = _BLOCKS[draw(st.sampled_from(fits))]
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                sigma[filled + i][filled + j] = x
        filled += len(block)
    if n > 1:
        moves = draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2)), max_size=6)
        )
        for i, j, m in moves:
            if i == j:
                continue
            # conjugate by E = 1 + m e_ij: sigma -> E sigma E^{-1}
            for c in range(n):
                sigma[i][c] += m * sigma[j][c]
            for r in range(n):
                sigma[r][j] -= m * sigma[r][i]
    return tuple(tuple(row) for row in sigma)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(involutions(), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
@example(((1, 0), (0, -1)), [1, 0, 0, 0])
@example(((0, 1), (1, 0)), [1, 1, 0, 0])
def test_h1_fuzz_against_oracle(sigma, entries):
    """Random involutions, non-square kernels of 1 + sigma among them: the
    oracle agreement, and reduce refuses exactly the vectors outside the
    kernel."""
    torus, group = _check_against_oracle(sigma)
    n = len(sigma)
    lam = tuple(entries[:n])
    in_kernel = all(lam[i] + sum(sigma[i][j] * lam[j] for j in range(n)) == 0 for i in range(n))
    if in_kernel:
        coords = group.reduce(lam)
        assert group.reduce(group.representative(coords)) == coords
    else:
        with pytest.raises(CohomologyError):
            group.reduce(lam)
