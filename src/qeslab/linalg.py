"""Exact linear algebra over Scalar entries, computed on Python ints.

Rank, RREF and nullspace all read one elimination: Gauss-Jordan on the
denominator-cleared int rows, where a row update p*row - f*top is divided by
its content, so each row stays an int multiple of its reduced row, and only
the RREF and nullspace entries become Fractions.  The RREF is unique, so the
basis is the one Gauss-Jordan on Fractions would give.  A Gaussian matrix
runs as its real form, each entry a + ib the block [[a, -b], [b, a]] at
columns 2j and 2j + 1: its pivots come in pairs, and the even ones and their
rows are the Gaussian RREF.
charpoly(M), d the common denominator of M, is the Hessenberg recurrence
(Cohen, Alg. 2.2.9) on A = d*M modulo a Mersenne prime P > 2B, where B =
2**n * prod_i max(1, |row_i of A|) bounds each coefficient c_k of det(tI - A):
c_k sums C(n, k) principal minors, each at most the product of its row norms
(Hadamard).  So the symmetric residue is c_k itself, and c_k / d**k is exact.
A Gaussian matrix, or a B beyond the table, runs the same recurrence over
Scalars.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import List, Sequence, Tuple

from .scalars import ONE, Scalar, ZERO

Matrix = List[List[Scalar]]

MERSENNE_PRIMES = [(1 << e) - 1 for e in (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217)]


def _is_rational(rows: Sequence[Sequence[Scalar]]) -> bool:
    return all(not c.im for row in rows for c in row)


def _cleared_int_rows(rows: Sequence[Sequence[Scalar]]) -> Tuple[List[List[int]], List[int]]:
    """Each row times the lcm of its denominators, as ints, and those lcms; a
    Gaussian matrix comes back as its real form, each entry a + ib the block
    [[a, -b], [b, a]] at columns 2j and 2j + 1."""
    if len({len(row) for row in rows}) > 1:
        raise ValueError(f"ragged matrix: row lengths {sorted({len(row) for row in rows})}")
    parts = [[c.re for c in row] for row in rows]
    if not _is_rational(rows):
        parts = [half for row in rows for half in ([x for c in row for x in (c.re, -c.im)],
                                                   [x for c in row for x in (c.im, c.re)])]
    dens = [lcm(*(c.denominator for c in row)) for row in parts]
    return [[c.numerator * (d // c.denominator) for c in row] for row, d in zip(parts, dens)], dens


def _int_rref(ints: List[List[int]]) -> Tuple[List[List[int]], List[int]]:
    """Gauss-Jordan on int rows: each update p*row - f*top is divided by its
    content, so row r is its reduced row times its pivot entry."""
    m = [row for row in ints if any(row)]
    pivots: List[int] = []
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        p = top[col]
        for i, row in enumerate(m):
            f = row[col]
            if f and i != r:
                new = [p * x - f * y for x, y in zip(row, top)]
                g = gcd(*new)
                m[i] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
    return m[:len(pivots)], pivots


def _gaussian_rref(m: List[List[int]], pivots: List[int]) -> Tuple[Matrix, List[int]]:
    """The Gaussian RREF read off the real form's: column 2j + 1 is i times
    column 2j, so pivots come in pairs, real pivot 2p is Gaussian pivot p, and
    its row holds column j as (row[2j] - i*row[2j + 1]) / row[2p]."""
    return ([[Scalar(Fraction(row[j], row[p]), Fraction(-row[j + 1], row[p]))
              for j in range(0, len(row), 2)] for row, p in zip(m[::2], pivots[::2])],
            [p // 2 for p in pivots[::2]])


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """Exact rank: the pivots of the int Gauss-Jordan (half the real form's, if Gaussian)."""
    pivots = _int_rref(_cleared_int_rows(rows)[0])[1]
    return len(pivots) if _is_rational(rows) else len(pivots) // 2


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[Matrix, List[int]]:
    """Reduced row echelon form and pivot columns: the int Gauss-Jordan of the
    cleared rows (of the real form, if Gaussian) divided out."""
    m, pivots = _int_rref(_cleared_int_rows(rows)[0])      # refuses a ragged matrix
    if _is_rational(rows):
        out = [[Scalar(Fraction(x, row[p])) if x else ZERO for x in row]
               for row, p in zip(m, pivots)]
    else:
        out, pivots = _gaussian_rref(m, pivots)
    return out + [[ZERO] * len(rows[0]) for _ in range(len(rows) - len(out))], pivots


def nullspace(rows: Sequence[Sequence[Scalar]], ncols: int | None = None) -> List[List[Scalar]]:
    """Basis of the right nullspace, one vector per free column of the RREF;
    the empty matrix has full nullspace."""
    width = len(rows[0]) if rows else (ncols or 0)
    if ncols is None:
        ncols = width
    ints = _cleared_int_rows(rows)[0]          # refuses a ragged matrix first
    if width != ncols:
        raise ValueError(f"nullspace of {width}-column rows with ncols={ncols}")
    m, pivots = _int_rref(ints)
    rational = _is_rational(rows)
    if not rational:
        m, pivots = _gaussian_rref(m, pivots)
    pivot_set = set(pivots)
    basis = []
    for f in (j for j in range(ncols) if j not in pivot_set):
        v = [ZERO] * ncols
        v[f] = ONE
        for row, p in zip(m, pivots):
            if rational:
                v[p] = Scalar(Fraction(-row[f], row[p])) if row[f] else ZERO
            else:
                v[p] = -row[f]
        basis.append(v)
    return basis


def _hessenberg_charpoly(h: list, one, inv, red) -> list:
    """det(tI - h), highest power first, over the field whose elements are
    reduced by ``red`` and inverted by ``inv``; ``h`` is overwritten."""
    n = len(h)
    for m in range(1, n - 1):      # upper Hessenberg form by elementary similarities
        piv = next((i for i in range(m, n) if h[i][m - 1] != 0), None)
        if piv is None:
            continue
        h[piv], h[m] = h[m], h[piv]
        for row in h:
            row[piv], row[m] = row[m], row[piv]
        t = inv(h[m][m - 1])
        for i in range(m + 1, n):
            u = red(h[i][m - 1] * t)
            if u != 0:
                h[i] = [red(x - u * y) for x, y in zip(h[i], h[m])]
                for row in h:
                    row[m] = red(row[m] + u * row[i])
    # p_m = (t - h_mm) p_{m-1} - sum_i h_im h_{i+1,i}...h_{m,m-1} p_{i-1}, low powers first
    p = [[one]]
    for m in range(n):
        new = [red(a - h[m][m] * b) for a, b in zip([one - one] + p[m], p[m] + [one - one])]
        t = one
        for i in range(m, 0, -1):
            t = red(t * h[i][i - 1])
            if t == 0:
                break
            c = red(h[i - 1][m] * t)
            for j, b in enumerate(p[i - 1]):
                new[j] = red(new[j] - c * b)
        p.append(new)
    return p[n][::-1]


def charpoly(rows: Sequence[Sequence[Scalar]]) -> List[Scalar]:
    """Monic characteristic polynomial det(tI - A), highest power first."""
    ints, dens = _cleared_int_rows(rows)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError(f"charpoly of a non-square {n}x{len(rows[0])} matrix")
    if _is_rational(rows):
        d = lcm(*dens)
        a = [[x * (d // di) for x in row] for row, di in zip(ints, dens)]
        bound_sq = prod(max(1, sum(x * x for x in row)) for row in a) << (2 * n)   # B**2
        p = next((p for p in MERSENNE_PRIMES if p * p > 4 * bound_sq), None)
        if p is not None:
            res = _hessenberg_charpoly([[x % p for x in row] for row in a], 1,
                                       lambda x: pow(x, -1, p), lambda x: x % p)
            lifted = [c - p if 2 * c > p else c for c in res]
            assert all(c * c <= bound_sq for c in lifted)
            return [Scalar(Fraction(c, d ** k)) for k, c in enumerate(lifted)]
    return _hessenberg_charpoly([list(row) for row in rows], ONE, Scalar.inv, lambda x: x)

