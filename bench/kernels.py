"""Kernel rows: single-layer timings on fixed inputs taken from the workloads.

The inputs do not depend on the seed, so a row compares across runs and
commits.  Each row is the median of repeats after one warm-up call; each
repeat is scaled to the reference host speed as the jobs are (see
``probe.py``).
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from typing import Callable, Dict, List, Sequence

from qeslab import classify, enveloping, freealg, linalg, operators, reps, spaces, spectral
from qeslab.poly import Poly
from qeslab.reps import RepSpec
from qeslab.scalars import ONE, QParam, Scalar, qnumber
from qeslab.spaces import SpaceSpec

from probe import timed
from workloads import SEXTIC_ZGRID

PRIME = (1 << 61) - 1


def _median_seconds(fn: Callable[[], object], repeats: int, number: int = 1,
                    probe: str = "exact") -> float:
    fn()
    times = []
    for _ in range(repeats):
        times.append(timed(lambda: [fn() for _ in range(number)], probe)[2] / number)
    return statistics.median(times)


def _pivots(rows: Sequence[Sequence[Fraction]]) -> List[int]:
    """Pivot columns of a rational matrix, by elimination modulo a prime."""
    m = [[c.numerator * pow(c.denominator, -1, PRIME) % PRIME for c in row] for row in rows]
    pivots, r = [], 0
    for col in range(len(m[0])):
        p = next((i for i in range(r, len(m)) if m[i][col]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = pow(m[r][col], -1, PRIME)
        for i in range(r + 1, len(m)):
            f = m[i][col] * inv % PRIME
            if f:
                m[i] = [(a - f * b) % PRIME for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    return pivots


def nonsingular_block(rows):
    """A square submatrix of full rank: its determinant is nonzero modulo a
    prime, so it is nonzero over the rationals."""
    fr = [[c.re for c in row] for row in rows]
    cols = _pivots(fr)
    keep = _pivots([[fr[i][j] for i in range(len(fr))] for j in cols])
    return [[rows[i][j] for j in cols] for i in keep]


def _poly_float(p: Poly) -> Callable[[float], float]:
    terms = [(e[0], float(c.re)) for e, c in p.terms.items()]
    return lambda x: sum(c * x ** k for k, c in terms)


def kernel_rows() -> Dict[str, float]:
    # the int:30 action of a non-triangular sl2 quadratic
    sl2 = classify.CoeffAssignment(RepSpec("sl2", n=Scalar(30)), {
        "c_+-": 1, "c_0-": -1, "c_+": 1, "c_0": 2, "c_-": 1}).operator()
    int30 = SpaceSpec("interval", (30,))
    m30 = spaces.action_matrix(sl2, int30).matrix
    block30 = [row[:30] for row in m30[:30]]

    # a nonsingular 36x36 block of the osp22 matrix-form count at n = 7/2,
    # whose flattened word images have rank 36
    osp = reps.make_rep(RepSpec("osp22", n=Scalar(Fraction(7, 2))))
    mats = [m for m in (enveloping.expand_matrix({w: ONE}, osp)
                        for w in enveloping.words_up_to_degree(osp, 3))
            if m.order() <= 2]
    rank36 = nonsingular_block(enveloping.flatten_matrix_ops(mats))
    if len(rank36) != 36:
        raise RuntimeError(f"osp22 matrix-form block has size {len(rank36)}, not 36")

    entries = [c for row in rank36 for c in row if not c.is_zero()][:301]
    triples = list(zip(entries, entries[1:], entries[2:]))

    def muladd():
        for a, b, c in triples:
            a * b + c

    x = sl2.ctx.all_vars
    p = sl2.apply_poly(Poly.monomial(x, (20,)))
    q = sl2.apply_poly(Poly.monomial(x, (13,)))
    tplus, tminus = osp.ops["T+"], osp.ops["T-"]

    # A12 at n = 3: the unreduced fourth power of the raising operator
    qp = QParam(2, base="squared")
    rs = freealg.quantum_plane_system(qp.q)
    jop = freealg.expr((1, ("x", "x", "Dx")), (1, ("x", "y", "Dy")),
                       (-qnumber(3, qp), ("x",)))
    a12 = freealg.expr_pow(jop, 4)

    # one gauge column of a sextic member: x = z^2 from the middle node to the last
    sextic = spectral.build_sextic(2, 0, 1, 1).operator()
    p4, p3, _ = spectral.operator_p_coeffs(sextic)
    f3, f4 = _poly_float(p3), _poly_float(p4)
    xref = SEXTIC_ZGRID[len(SEXTIC_ZGRID) // 2] ** 2
    xend = SEXTIC_ZGRID[-1] ** 2

    rows = {
        "scalars.muladd_us": _median_seconds(muladd, 15) / len(triples) * 1e6,
        "poly.mul_us": _median_seconds(lambda: p * q, 15, 20) * 1e6,
        "poly.derivative_us": _median_seconds(lambda: p.derivative("x"), 15, 200) * 1e6,
        "operators.compose_us": _median_seconds(
            lambda: operators.compose(tplus, tminus), 15, 50) * 1e6,
        "spaces.action_matrix_ms": _median_seconds(
            lambda: spaces.action_matrix(sl2, int30), 9) * 1e3,
        "linalg.rank36_ms": _median_seconds(lambda: linalg.rank(rank36), 5) * 1e3,
        "linalg.nullspace36_ms": _median_seconds(lambda: linalg.nullspace(rank36), 5) * 1e3,
        "linalg.charpoly30_ms": _median_seconds(lambda: linalg.charpoly(block30), 5) * 1e3,
        "freealg.normal_order_a12_ms": _median_seconds(
            lambda: freealg.normal_order(a12, rs), 5) * 1e3,
        "spectral.gauge_column_ms": _median_seconds(
            lambda: spectral.adaptive_simpson(lambda t: f3(t) / f4(t), xref, xend), 9,
            probe="float") * 1e3,
    }
    return rows

