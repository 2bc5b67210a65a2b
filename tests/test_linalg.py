"""Integer row reduction and rank against a plain Fraction Gauss-Jordan
oracle."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from citree import linalg


def oracle_rref(rows):
    """Textbook Gauss-Jordan in Fraction arithmetic: (nonzero rows, pivots)."""
    m = [[Fraction(c) for c in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    top = 0
    for col in range(ncols):
        hit = next((r for r in range(top, len(m)) if m[r][col]), None)
        if hit is None:
            continue
        m[top], m[hit] = m[hit], m[top]
        m[top] = [c / m[top][col] for c in m[top]]
        for r in range(len(m)):
            if r != top and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[top])]
        pivots.append(col)
        top += 1
    return [r for r in m if any(r)], pivots


entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 5, 12])),
    st.integers(-30, 30),
)


@st.composite
def matrices(draw):
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 6))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    if ncols and draw(st.booleans()):
        col = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[col] = 0
    if rows and draw(st.integers(0, 9)) == 0:
        rows = [[0] * ncols for _ in rows]
    return rows, ncols


def _times(rows, v):
    return [sum(Fraction(c) * x for c, x in zip(row, v)) for row in rows]


@settings(max_examples=300, deadline=None)
@given(matrices())
@example(([[1, 2, 3], [4, 5, 6], [7, 8, 10]], 3))
@example(([[1, 2], [2, 4]], 2))
@example(([[Fraction(1, 2), 1], [1, 2]], 2))
@example(([[2, 3, 5], [4, 9, 7], [6, 3, 11]], 3))  # a pivot other than 1 on every row
@example(([[2, 3, 5, 7, 11], [4, 1, 6, 8, 3]], 5))  # wide
@example(([[2, 4], [3, 6], [0, 0], [5, 10]], 2))  # tall and rank-deficient
@example(([[10**12 + 1, 10**12 - 3, 7], [10**12 - 1, 10**12 + 5, 3],
           [3, 10**12, 10**12 + 7]], 3))
def test_rref_matches_fraction_oracle(case):
    rows, ncols = case
    reduced, pivots = linalg.rref(rows)
    expected_rows, expected_pivots = oracle_rref(rows)
    assert pivots == expected_pivots
    assert reduced == expected_rows
    assert all(type(c) is Fraction for r in reduced for c in r)
    assert linalg.rank(rows) == len(expected_pivots)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_kernel_basis_is_annihilated(case):
    rows, ncols = case
    basis = linalg.kernel_basis(rows, ncols=ncols)
    assert len(basis) == ncols - len(oracle_rref(rows)[1])
    for v in basis:
        assert len(v) == ncols
        assert not any(_times(rows, v))


def test_rref_edge_shapes():
    assert linalg.rref([]) == ([], [])
    assert linalg.rref([[], []]) == ([], [])
    assert linalg.rref([[0, 0], [0, 0]]) == ([], [])
    assert linalg.rref([[0, 2, 4], [0, 1, 2]]) == ([[0, 1, 2]], [1])
    assert linalg.kernel_basis([], ncols=2) == [(1, 0), (0, 1)]
    assert linalg.kernel_basis([[1, 1]]) == [(-1, 1)]
