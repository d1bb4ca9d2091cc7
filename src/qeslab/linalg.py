"""Exact linear algebra over Scalar entries.

Rank uses fraction-free Bareiss elimination after clearing denominators, so
the rational case runs on big integers with no pivot tolerance anywhere.
Nullspace extraction uses plain reduced echelon form; characteristic polynomials come from the trace recursion
(Faddeev-LeVerrier), which stays exact over the rationals.
"""

from __future__ import annotations

from math import lcm
from typing import List, Sequence

from .scalars import ONE, Scalar, ZERO

Matrix = List[List[Scalar]]


def _cleared_rows(rows: Sequence[Sequence[Scalar]]) -> Matrix:
    out = []
    for row in rows:
        den = 1
        for c in row:
            den = lcm(den, c.re.denominator, c.im.denominator)
        out.append([c * den for c in row])
    return out


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """Exact rank by fraction-free Gaussian elimination (Bareiss)."""
    m = _cleared_rows(rows)
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    prev = ONE
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if not m[i][col].is_zero()), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            for j in range(col + 1, ncols):
                m[i][j] = (m[r][col] * m[i][j] - m[i][col] * m[r][j]) / prev
            m[i][col] = ZERO
        prev = m[r][col]
        r += 1
        if r == nrows:
            break
    return r


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[Matrix, List[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = [list(row) for row in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: List[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if not m[i][col].is_zero()), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][col].inv()
        m[r] = [c * inv for c in m[r]]
        for i in range(nrows):
            if i != r and not m[i][col].is_zero():
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return m, pivots


def nullspace(rows: Sequence[Sequence[Scalar]], ncols: int | None = None) -> List[List[Scalar]]:
    """Basis of the right nullspace; the empty matrix has full nullspace."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows:
        return [[ONE if j == i else ZERO for j in range(ncols)] for i in range(ncols)]
    m, pivots = rref(rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -m[r][f]
        basis.append(v)
    return basis


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    out = [[ZERO] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            ait = a[i][t]
            if ait.is_zero():
                continue
            row = b[t]
            oi = out[i]
            for j in range(m):
                if not row[j].is_zero():
                    oi[j] = oi[j] + ait * row[j]
    return out


def charpoly(rows: Sequence[Sequence[Scalar]]) -> List[Scalar]:
    """Monic characteristic polynomial det(tI - A), highest power first."""
    n = len(rows)
    a = [list(r) for r in rows]
    coeffs = [ONE]
    m = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        tr = sum((m[i][i] for i in range(n)), ZERO)
        c = tr / Scalar(-k)
        coeffs.append(c)
        for i in range(n):
            m[i][i] = m[i][i] + c
    return coeffs


def eval_poly(coeffs: Sequence[Scalar], x: Scalar) -> Scalar:
    out = ZERO
    for c in coeffs:
        out = out * x + c
    return out
