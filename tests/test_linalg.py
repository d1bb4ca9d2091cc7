"""Seeded differential tests of the exact kernels against test-local references:
rank, RREF and nullspace basis by plain Gauss-Jordan on Fractions, det(tI - M)
by Bareiss elimination at n + 1 points, and nullspace vectors multiplied back
out."""

import random
from fractions import Fraction
from math import comb

import pytest

from qeslab import linalg
from qeslab.linalg import charpoly, eval_poly, nullspace, rank, rref
from qeslab.scalars import ONE, Scalar, ZERO


# -- references ----------------------------------------------------------------

def _field(rows):
    """Fraction entries for a rational matrix, Scalar entries otherwise."""
    if all(not c.im for row in rows for c in row):
        return [[c.re for c in row] for row in rows]
    return [list(row) for row in rows]


def ref_rref(rows):
    """Gauss-Jordan over the field of the entries: the RREF (zero rows last)
    and its pivot columns."""
    m = _field(rows)
    pivots = []
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [c * inv for c in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def ref_rank(rows):
    return len(ref_rref(rows)[1])


def ref_nullspace(rows):
    """One vector per free column: 1 there, minus that column of the RREF at
    the pivots, 0 elsewhere."""
    m, pivots = ref_rref(rows)
    ncols = len(rows[0])
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [0] * ncols
        v[f] = 1
        for r, p in enumerate(pivots):
            v[p] = -m[r][f]
        basis.append([Scalar.of(c) for c in v])
    return basis


def ref_det(m):
    """Bareiss determinant over an exact field (divisions are exact)."""
    m = [list(row) for row in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def check_charpoly(rows):
    n = len(rows)
    coeffs = charpoly(rows)
    assert len(coeffs) == n + 1 and coeffs[0] == ONE
    m = _field(rows)
    for t in range(n + 1):
        shifted = [[(t if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
        assert eval_poly(coeffs, Scalar(t)) == Scalar.of(ref_det(shifted)), (t, rows)


def check_nullspace(rows):
    ncols = len(rows[0])
    basis = nullspace(rows)
    assert len(basis) == ncols - ref_rank(rows)
    assert not basis or ref_rank(basis) == len(basis)
    for v in basis:
        for row in rows:
            assert sum((a * b for a, b in zip(row, v)), ZERO).is_zero()


# -- seeded cases --------------------------------------------------------------

def rand_scalar(rng, gaussian, den=7):
    def part():
        return Fraction(rng.randint(-9, 9), rng.randint(1, den))
    return Scalar(part(), part() if gaussian else 0)


def rand_matrix(rng, nrows, ncols, gaussian=False, den=7, zero_share=0.3):
    return [[ZERO if rng.random() < zero_share else rand_scalar(rng, gaussian, den)
             for _ in range(ncols)] for _ in range(nrows)]


def mat_prod(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), ZERO)
             for j in range(len(b[0]))] for i in range(len(a))]


def cases(gaussian):
    rng = random.Random(1 if gaussian else 0)
    out = []
    for nrows, ncols in [(5, 5), (4, 7), (7, 4), (6, 6), (1, 3), (3, 1)]:
        out.append(rand_matrix(rng, nrows, ncols, gaussian))
    for k in (1, 2, 3):                       # rank-deficient products
        out.append(mat_prod(rand_matrix(rng, 6, k, gaussian, zero_share=0),
                            rand_matrix(rng, k, 5, gaussian, zero_share=0)))
    m = rand_matrix(rng, 6, 6, gaussian)      # zero rows
    m[1] = m[4] = [ZERO] * 6
    out.append(m)
    out.append(rand_matrix(rng, 5, 5, gaussian, den=10 ** 12 + 39))
    return out


ALL_CASES = [pytest.param(m, id=f"{kind}-{i}")
             for kind, gaussian in (("rational", False), ("gaussian", True))
             for i, m in enumerate(cases(gaussian))]


@pytest.mark.parametrize("rows", ALL_CASES)
def test_rank_and_nullspace_match_the_references(rows):
    assert rank(rows) == ref_rank(rows)
    check_nullspace(rows)


@pytest.mark.parametrize("rows", ALL_CASES)
def test_charpoly_of_square_cases_matches_determinants(rows):
    if len(rows) == len(rows[0]):
        check_charpoly(rows)
    else:                                     # the square blocks of wide and tall cases
        k = min(len(rows), len(rows[0]))
        check_charpoly([row[:k] for row in rows[:k]])


def test_purely_imaginary_matrix():
    rng = random.Random(2)
    rows = [[Scalar(0, rng.randint(-5, 5)) for _ in range(5)] for _ in range(5)]
    rows[4] = [c * Scalar(0, 2) for c in rows[0]]     # rank 4: row 4 = 2i * row 0
    assert rank(rows) == ref_rank(rows) == 4
    check_nullspace(rows)
    check_charpoly(rows)


def test_small_charpolys():
    assert charpoly([]) == [ONE]
    assert charpoly([[Scalar(Fraction(-3, 7))]]) == [ONE, Scalar(Fraction(3, 7))]
    assert charpoly([[Scalar(2, 1)]]) == [ONE, Scalar(-2, -1)]


def test_charpoly_with_entries_near_1e30():
    """The Hadamard bound here is beyond 2**127, so the modulus must be
    2**521 - 1 or larger."""
    rng = random.Random(3)
    rows = [[Scalar(Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 9)))
             for _ in range(4)] for _ in range(4)]
    check_charpoly(rows)


def test_charpoly_beyond_the_mersenne_table():
    rng = random.Random(4)
    rows = [[Scalar(rng.randint(-2 ** 7000, 2 ** 7000)) for _ in range(3)] for _ in range(3)]
    check_charpoly(rows)


def test_charpoly_coefficients_can_exceed_the_hadamard_product():
    """det(tI - I) = (t - 1)**70: every row norm is 1, but the middle
    binomial coefficient is about 2**66, so the bound needs its 2**n factor."""
    rows = [[ONE if i == j else ZERO for j in range(70)] for i in range(70)]
    assert charpoly(rows) == [Scalar((-1) ** k * comb(70, k)) for k in range(71)]


def test_rref_is_reduced_and_spans_the_rows():
    rng = random.Random(5)
    rows = mat_prod(rand_matrix(rng, 5, 3, zero_share=0), rand_matrix(rng, 3, 6))
    m, pivots = rref(rows)
    assert len(pivots) == ref_rank(rows) == ref_rank(rows + m[:len(pivots)])
    for r, p in enumerate(pivots):
        assert [m[i][p] for i in range(len(m))] == [ONE if i == r else ZERO
                                                    for i in range(len(m))]


def rref_cases():
    rng = random.Random(6)
    out = [rand_matrix(rng, 5, 9), rand_matrix(rng, 9, 4)]                   # wide, tall
    m = rand_matrix(rng, 7, 6)                                               # zero rows
    m[0] = m[5] = [ZERO] * 6
    out.append(m)
    m = rand_matrix(rng, 6, 7)                                               # repeated rows
    m[2], m[4], m[5] = m[0], [c * Scalar(Fraction(-3, 5)) for c in m[0]], m[1]
    out.append(m)
    out.append(mat_prod(rand_matrix(rng, 8, 3, zero_share=0), rand_matrix(rng, 3, 10)))
    out.append([[Scalar(Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 12 + 39)))
                 for _ in range(7)] for _ in range(4)])                      # large entries
    out.append(mat_prod(rand_matrix(rng, 5, 2, gaussian=True, zero_share=0),
                        rand_matrix(rng, 2, 6, gaussian=True)))              # Gaussian
    m = [[Scalar(0, rng.randint(-5, 5)) for _ in range(6)] for _ in range(4)]
    m.append([a * Scalar(Fraction(-3, 2)) + b for a, b in zip(m[1], m[2])])  # imaginary, rank 4
    out.append(m)
    m = rand_matrix(rng, 8, 3, gaussian=True)                                # Gaussian, tall,
    m[0] = m[3] = m[6] = [ZERO] * 3                                          # zero rows
    out.append(m)
    out.append(mat_prod(rand_matrix(rng, 6, 2, gaussian=True, den=10 ** 12 + 39, zero_share=0),
                        rand_matrix(rng, 2, 7, gaussian=True, den=10 ** 12 + 39)))  # rank 2
    return out


@pytest.mark.parametrize("rows", [pytest.param(m, id=str(i)) for i, m in enumerate(rref_cases())])
def test_nullspace_and_rref_are_the_fraction_gauss_jordan_ones(rows):
    """The basis is exactly the RREF one, vector for vector: the case oracle
    draws its trials from these vectors."""
    basis = nullspace(rows)
    assert basis == ref_nullspace(rows)
    assert all(type(c.re) is Fraction and type(c.im) is Fraction for v in basis for c in v)
    m, pivots = ref_rref(rows)
    assert rref(rows) == ([[Scalar.of(c) for c in row] for row in m], pivots)


@pytest.mark.parametrize("gaussian", [False, True], ids=["rational", "gaussian"])
def test_rank_rref_and_nullspace_each_run_the_int_gauss_jordan_once(gaussian, monkeypatch):
    calls = []
    kernel = linalg._int_rref

    def counted(ints):
        calls.append(len(ints))
        return kernel(ints)

    monkeypatch.setattr(linalg, "_int_rref", counted)
    rng = random.Random(7)
    rows = mat_prod(rand_matrix(rng, 5, 3, gaussian, zero_share=0), rand_matrix(rng, 3, 6, gaussian))
    for fn in (rank, rref, nullspace):
        calls.clear()
        fn(rows)
        assert calls == [10 if gaussian else 5], fn.__name__   # the real form has twice the rows


def test_bad_shapes_raise_value_error():
    with pytest.raises(ValueError, match="2x3"):
        charpoly([[ONE, ZERO, ONE], [ZERO, ONE, ONE]])
    ragged = [[ONE, ZERO], [ONE]]
    for fn in (rank, nullspace, charpoly):
        with pytest.raises(ValueError, match="ragged"):
            fn(ragged)
    with pytest.raises(ValueError, match="2-column rows with ncols=3"):
        nullspace([[ONE, Scalar(2)]], ncols=3)
    with pytest.raises(ValueError, match="3-column rows with ncols=2"):
        nullspace([[ONE, Scalar(2), ZERO]], ncols=2)
