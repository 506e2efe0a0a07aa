import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import betachow.linalg
from betachow.linalg import det, kernel_basis, rank, rref


def _mat_vec(m, v) -> list[Fraction]:
    return [sum((Fraction(x) * Fraction(y) for x, y in zip(row, v)), Fraction(0)) for row in m]


def test_kernel_of_identity_is_empty():
    assert kernel_basis([[1, 0], [0, 1]]) == []


def test_kernel_of_row_vector():
    assert kernel_basis([[1, 1]]) == [[Fraction(1), Fraction(-1)]]


def test_kernel_of_monomial_evaluation_matrix():
    # monomials 1, x, y, x^2, xy, y^2 at (1,1), (1,-1), (-1,1)
    pts = [(1, 1), (1, -1), (-1, 1)]
    rows = [[1, x, y, x * x, x * y, y * y] for x, y in pts]
    basis = kernel_basis(rows)
    assert len(basis) == 3
    for vec in basis:
        assert all(v == 0 for v in _mat_vec(rows, vec))


def test_kernel_annihilates_random_matrices():
    rng = random.Random(2)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
             for _ in range(rows)]
        basis = kernel_basis(m)
        assert len(basis) == cols - rank(m)
        for vec in basis:
            assert all(v == 0 for v in _mat_vec(m, vec))
            lead = next(x for x in vec if x != 0)
            assert lead > 0


def test_rref_pivots():
    reduced, pivots = rref([[2, 4], [1, 2]])
    assert pivots == [0]
    assert reduced[0] == [Fraction(1), Fraction(2)]


def _kernel_from_plain_rref(m):
    """Oracle: the kernel read off rref(m) of the full matrix."""
    a, pivots = rref(m)
    cols = len(m[0])
    out = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for row, pc in enumerate(pivots):
            v[pc] = -a[row][fc]
        if next(x for x in v if x != 0) < 0:
            v = [-x for x in v]
        out.append(v)
    return out


_entry = st.one_of(st.just(Fraction(0)),
                   st.fractions(min_value=-6, max_value=6, max_denominator=7))


@st.composite
def _matrices(draw):
    cols = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 9))
    m = [draw(st.lists(_entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=3)):
        m[i] = [Fraction(0)] * cols          # zero rows
    if draw(st.booleans()) and rows > 1:
        m[-1] = [2 * x - y for x, y in zip(m[0], m[1])]   # dependent row
    return m


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_kernel_basis_matches_plain_rref(m):
    assert kernel_basis(m) == _kernel_from_plain_rref(m)


def test_kernel_basis_of_zero_matrices_is_identity():
    for rows, cols in [(1, 1), (3, 2), (2, 5)]:
        m = [[0] * cols for _ in range(rows)]
        ident = [[Fraction(int(i == j)) for j in range(cols)] for i in range(cols)]
        assert kernel_basis(m) == ident
    assert kernel_basis([]) == []


@st.composite
def _rank_matrices(draw):
    """Int and Fraction matrices with zero and repeated rows; [] and rows
    of length 0 included."""
    cols = draw(st.integers(0, 6))
    entry = st.one_of(st.integers(-6, 6), _entry)
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=8))
    for i in draw(st.lists(st.integers(0, len(m) - 1), max_size=2)) if m else []:
        m[i] = [0] * cols
    if m and draw(st.booleans()):
        m.append(list(draw(st.sampled_from(m))))
    return m


@settings(max_examples=200, deadline=None)
@given(_rank_matrices())
@example([])
@example([[], []])
@example([[0, 0, 0], [0, 0, 0]])
@example([[1, 2], [1, 2], [2, 4]])
def test_rank_matches_rref_pivots(m):
    assert rank(m) == len(rref(m)[1])


@settings(max_examples=100, deadline=None)
@given(_matrices())
def test_kernel_basis_of_an_iterator_matches_the_list(m):
    assert kernel_basis(iter(m)) == kernel_basis(m)
    assert kernel_basis(row for row in m) == kernel_basis(m)


def test_rank_and_empty_kernel_build_no_fractions(count_fractions):
    m = [[Fraction(1, 2), 3, Fraction(-5, 6)], [2, Fraction(-1, 3), 0],
         [Fraction(7, 4), 1, 1], [1, 1, 1]]
    built = count_fractions()
    assert rank(m) == 3
    assert kernel_basis(m) == []
    assert built == []


def test_kernel_basis_stops_at_full_rank(monkeypatch):
    calls = []
    real = betachow.linalg.rref
    monkeypatch.setattr(betachow.linalg, "rref", lambda m: calls.append(m) or real(m))
    pulled = []

    def rows():
        for row in ([1, 0], [1, 1], [5, 7], [2, 3]):
            pulled.append(row)
            yield row

    assert kernel_basis(rows()) == []
    assert (pulled, calls) == ([[1, 0], [1, 1]], [])
    assert kernel_basis([[1, 2], [2, 4]]) == [[Fraction(2), Fraction(-1)]]
    assert len(calls) == 1


def _fraction_det(m) -> Fraction:
    """The oracle: Gaussian elimination in Fractions, the product of the
    pivots with the sign of the row swaps."""
    a = [[Fraction(x) for x in row] for row in m]
    out = Fraction(1)
    for k in range(len(a)):
        piv = next((i for i in range(k, len(a)) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return out


@st.composite
def _square_int_matrices(draw):
    size = draw(st.integers(0, 5))
    entries = st.integers(-10 ** 6, 10 ** 6) | st.sampled_from([0, 1, -1])
    m = [draw(st.lists(entries, min_size=size, max_size=size)) for _ in range(size)]
    if size > 1 and draw(st.booleans()):
        m[-1] = [2 * x - y for x, y in zip(m[0], m[1])]   # a dependent row
    return m


@settings(max_examples=300, deadline=None)
@given(_square_int_matrices())
@example([])
@example([[0, 0], [0, 0]])
@example([[0, 1], [1, 0]])
@example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
@example([[2, 4, 1], [1, 2, 7], [3, 5, 2]])
def test_det_matches_fraction_elimination(m):
    d = det(m)
    assert type(d) is int
    assert d == _fraction_det(m)
    assert (d != 0) == (len(rref(m)[1]) == len(m))


def test_det_builds_no_fractions_and_needs_a_square_matrix(count_fractions):
    built = count_fractions()
    assert det([[1, 0, 0], [0, 1, 0], [1, 1, 2]]) == 2
    assert built == []
    with pytest.raises(ValueError, match="square"):
        det([[1, 2, 3], [4, 5, 6]])
