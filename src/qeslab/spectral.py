"""Spectra on invariant subspaces and one-dimensional Schroedinger reductions.

Exact characteristic polynomials come from the Hessenberg recurrence modulo a
prime above twice their Hadamard bound; a triangular action's eigenvalues are
its diagonal, kept exact, and otherwise the roots come in floats from the
companion matrix of the charpoly, its variable rescaled by a power of 2 into
the float range.  The scalar
reduction maps -P4 f'' + P3 f' + P2 f = eps f to -psi'' + V psi = eps psi
through z = int dx/sqrt(P4) and the gauge exponent A = (1/2) int (P3/P4) dx +
(1/4) log P4 (the half is forced by eliminating the first-order term);
V = A'^2 - A'' + P2 is N/P4, with N one exact polynomial.  The case P4 = c*x,
c > 0, on [0, hi] is decided exactly and is closed form: x = c z^2 / 4, and
the gauge integral is the exact antiderivative (p0/c) log x +
sum_{k>=1} p_k x^k / (k c) of P3/P4, built in Fractions.  Off it P4 > 0 on
the closed domain is decided exactly (a Sturm count inside, the value at each
end), and then one walk outward from the domain midpoint solves x(z) node by
node (Newton steps on dz/dx = 1/sqrt(P4)) and sums the gauge primitive over
the same gaps, both by adaptive 8-point Gauss-Legendre panels.  A reduction is linear in the number
of grid nodes.

The 2x2 matrix example reduces with x = y^2 and the gauge factor
U = exp(-alpha y^2/4 + i beta y^2 sigma_1/4).  Its exact d_x^2 block is -2x
times the identity (tests/test_spectral.py checks it), so with x = y^2 the
second-order part is -1/2 d^2/dy^2, which the scalar-times-identity symbol
keeps under conjugation by U.  The potential that drives the residual checks
is that conjugation of the lower-order blocks, evaluated in floats at each
sample with analytic derivatives of U^-1.  The catalogued closed-form
potential is sampled alongside for comparison; it
carries one sign slip in its sigma_2 bracket and omits the constant
reference shift -n*alpha/2, so the derived potential is authoritative here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, List, Sequence, Tuple

from .classify import CoeffAssignment
from .enveloping import ElementAction
from .linalg import charpoly
from .operators import LinOperator, to_matrix_operator
from .poly import Poly
from .reps import RepSpec, make_rep
from .scalars import ONE, Scalar, ZERO
from .spaces import ActionResult, SpaceSpec, action_matrix

# numpy is imported inside the functions that compute with floats (spectrum
# roots and the 2x2 example), so that importing qeslab does not load it
if TYPE_CHECKING:
    import numpy as np


class NonSquareError(ValueError):
    """Spectrum requested for an operator that did not preserve the space."""


@dataclass
class Spectrum:
    """Exact charpoly and float roots; on a triangular action also ``exact``,
    the diagonal's Scalars in label order with repeats (None otherwise)."""
    charpoly: List[Scalar]          # monic, highest power first
    roots: List[complex]
    trace_check: float              # relative consistency of numeric roots, 0.0 if exact
    exact: List[Scalar] | None = None


def _first_below_diagonal(result: ActionResult) -> Tuple[int, int] | None:
    """First (row, column) below the diagonal, by columns; None if triangular."""
    return next(((i, j) for j, col in enumerate(result.columns)
                 for i in sorted(col) if i > j), None)


def spectrum(result: ActionResult) -> Spectrum:
    """Exact characteristic polynomial plus roots: a triangular action's are
    its diagonal, kept exact in ``exact`` (trace_check 0.0); others the
    companion matrix's, in floats only."""
    import numpy as np

    if not result.preserved:
        raise NonSquareError(
            f"operator escapes {result.space}: {result.escapes[:3]}")
    m = result.matrix
    coeffs = charpoly(m)
    n = len(m)
    if _first_below_diagonal(result) is None:
        diag = [m[j][j] for j in range(n)]
        return Spectrum(coeffs, [d.to_complex() for d in diag], 0.0, diag)
    # a charpoly with a coefficient c_k beyond about 2^1000 leaves the float
    # range: its roots are read in u = t / 2^s, s = max_k ceil(bits(c_k) / k),
    # where each c_k / 2^(s k) is at most about 1 and so are the roots u; the
    # trace and det check compares the roots u with that polynomial's exact
    # -c_1 and (-1)^n c_n
    bits = [max(f.numerator.bit_length() - f.denominator.bit_length() for f in (c.re, c.im))
            for c in coeffs]
    s = 0 if max(bits) < 1000 else max(-(-b // k) for k, b in enumerate(bits[1:], 1))
    u = [c / 2 ** (s * k) for k, c in enumerate(coeffs)] if s else coeffs
    uroots = np.roots([c.to_complex() for c in u])
    tr_exact = (-u[1]).to_complex()
    det_exact = (Scalar((-1) ** n) * u[-1]).to_complex()
    tr_num = complex(np.sum(uroots))
    det_num = complex(np.prod(uroots))
    scale = max(abs(tr_exact), abs(det_exact), 1.0)
    err = max(abs(tr_num - tr_exact), abs(det_num - det_exact)) / scale
    return Spectrum(coeffs, list(uroots * 2.0 ** s), err)


# --------------------------------------------------------------------------
# the quadratic eigenvalue law of flag-preserving operators

def eigenlaw_check(assignment: CoeffAssignment, degrees: int = 8) -> dict:
    """Diagonal of the flag action fits one exact quadratic in the degree.

    The operator must be flag-preserving (triangular action); the diagonal
    entry at degree d is matched against the quadratic through d = 0, 1, 2,
    so degrees must be at least 2.  The element acts by generator walks.
    """
    if degrees < 2:
        raise ValueError(f"a quadratic law needs degrees >= 2, got {degrees}")
    op = ElementAction(make_rep(assignment.spec), assignment.element())
    res = action_matrix(op, SpaceSpec("interval", (degrees,)))
    if not res.preserved:
        return {"ok": False, "reason": "operator does not preserve the flag member"}
    below = _first_below_diagonal(res)
    if below is not None:
        return {"ok": False, "reason": "action is not triangular", "entry": below}
    diag = [col.get(d, ZERO) for d, col in enumerate(res.columns)]
    # exact quadratic through d = 0, 1, 2
    c0 = diag[0]
    half = Scalar(Fraction(1, 2))
    a = (diag[2] - Scalar(2) * diag[1] + diag[0]) * half
    b = diag[1] - diag[0] - a
    fits = all(x == a * Scalar(d * d) + b * Scalar(d) + c0
               for d, x in enumerate(diag))
    return {"ok": fits, "coefficients": [str(a), str(b), str(c0)],
            "diagonal": [str(x) for x in diag]}


# --------------------------------------------------------------------------
# the quartic-exponent family (sextic potential)

def build_sextic(n: int, k: int, a, b) -> CoeffAssignment:
    """-4 J0J- + 4a J+ + 4b J0 - 2(n+1+2k) J- + b(2n+1+2k)."""
    if k not in (0, 1):
        raise ValueError("parity index k must be 0 or 1")
    a, b = Scalar.of(a), Scalar.of(b)
    spec = RepSpec("sl2", n=Scalar(n))
    return CoeffAssignment(spec, {
        "c_0-": Scalar(-4),
        "c_+": Scalar(4) * a,
        "c_0": Scalar(4) * b,
        "c_-": Scalar(-2 * (n + 1 + 2 * k)),
        "c": b * Scalar(2 * n + 1 + 2 * k),
    })


def sextic_potential(n: int, k: int, a, b, zgrid: Sequence[float]) -> List[float]:
    """V(z) = a^2 z^6 + 2ab z^4 + (b^2 - (4n+3+2k)a) z^2, evaluated exactly."""
    a, b = Scalar.of(a).re, Scalar.of(b).re
    c6, c4, c2 = a * a, 2 * a * b, b * b - (4 * n + 3 + 2 * k) * a
    out = []
    for z in zgrid:
        s2 = Fraction(z).limit_denominator(10 ** 12) ** 2
        out.append(float(((c6 * s2 + c4) * s2 + c2) * s2))
    return out


# --------------------------------------------------------------------------
# scalar Schroedinger reduction

def adaptive_simpson(f: Callable[[float], float], lo: float, hi: float,
                     rel_tol: float = 1e-10) -> float:
    """Classic adaptive Simpson quadrature.

    The reduction no longer uses it (see panel_integral); the benchmark's
    gauge-column kernel row still times it.
    """
    def simpson(a, b, fa, fm, fb):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = simpson(a, m, fa, flm, fm)
        right = simpson(m, b, fm, frm, fb)
        if depth > 48 or abs(left + right - whole) <= 15.0 * tol * max(1.0, abs(whole)):
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, m, fa, flm, fm, left, tol / 2.0, depth + 1)
                + recurse(m, b, fm, frm, fb, right, tol / 2.0, depth + 1))

    if lo == hi:
        return 0.0
    fa, fb, fm = f(lo), f(hi), f(0.5 * (lo + hi))
    whole = simpson(lo, hi, fa, fm, fb)
    return recurse(lo, hi, fa, fm, fb, whole, rel_tol, 0)


# 8-point Gauss-Legendre rule on [-1, 1]: nodes -t and +t, each of weight w
GAUSS_LEGENDRE_8 = ((0.18343464249564978, 0.36268378337836166),
                    (0.525532409916329, 0.3137066458778869),
                    (0.7966664774136267, 0.22238103445337443),
                    (0.9602898564975362, 0.10122853629037706))
PANEL_TOL = 1e-12           # |halves - whole| <= PANEL_TOL * max(1, |whole|)
PANEL_DEPTH = 50            # halvings of one panel before the quadrature gives up
NEWTON_STEPS = 64           # Newton or bisection steps per node before x(z) gives up


def _gauss8(f: Callable[[float], float], a: float, b: float) -> float:
    h = 0.5 * (b - a)
    m = a + h
    acc = 0.0
    for t, w in GAUSS_LEGENDRE_8:
        acc += w * (f(m - h * t) + f(m + h * t))
    return h * acc


def panel_integral(f: Callable[[float], float], a: float, b: float) -> float:
    """int_a^b f (signed, b < a allowed) by 8-point Gauss-Legendre panels.

    A panel is accepted when its two halves sum to it within PANEL_TOL;
    otherwise each half is split the same way.  The error control looks only
    at f, never at how the caller spaced its nodes.  Past PANEL_DEPTH
    halvings it raises instead of returning an unconverged value.
    """
    def split(a, b, whole, depth):
        m = 0.5 * (a + b)
        left, right = _gauss8(f, a, m), _gauss8(f, m, b)
        if abs(left + right - whole) <= PANEL_TOL * max(1.0, abs(whole)):
            return left + right
        if depth == PANEL_DEPTH:
            raise ValueError(f"quadrature did not converge on [{a!r}, {b!r}]")
        return split(a, m, left, depth + 1) + split(m, b, right, depth + 1)

    return split(a, b, _gauss8(f, a, b), 0)


@dataclass
class SchrodingerReduction:
    zgrid: List[float]
    x_of_z: List[float]
    gauge: List[float]              # A(z) samples
    potential: List[float]          # V(z) samples
    step: float | None              # uniform z step, None off a uniform grid


def _poly_fn(p: Poly) -> Callable[[float], float]:
    """Evaluate a one-variable Poly on the real parts of its coefficients.

    Terms are summed in the Poly's order, not by Horner: the two round
    differently, and the potential samples (hence the deviation in the
    ``qeslab reduce`` report) are fixed by this order.
    """
    terms = [(e[0], float(c.re)) for e, c in p.terms.items()]

    def f(x: float) -> float:
        acc = 0.0
        for k, c in terms:
            acc += c * x ** k
        return acc
    return f


def operator_p_coeffs(op: LinOperator) -> Tuple[Poly, Poly, Poly]:
    """Read -P4 f'' + P3 f' + P2 f off a one-variable second-order operator."""
    ctx = op.ctx
    zero = ctx.poly()
    a2 = op.terms.get((2,), zero)
    a1 = op.terms.get((1,), zero)
    a0 = op.terms.get((0,), zero)
    return -a2, a1, a0


def _walks(ref: float, points: Sequence[float]) -> List[List[float]]:
    """The sorted distinct points split at ref into two walks outward from it,
    each starting at ref."""
    ordered = sorted(set(points) | {ref})
    r = ordered.index(ref)
    return [ordered[r:], ordered[r::-1]]


def _solve_x(rate: Callable[[float], float], xp: float, zp: float, z: float,
             edge: float) -> float:
    """The x between xp and edge with zp + int_xp^x rate = z, where
    rate = dz/dx = 1/sqrt(P4) > 0: Newton steps from the tangent guess,
    bisecting the bracket whenever a step leaves it."""
    a, b = (xp, edge) if xp <= edge else (edge, xp)
    x = xp + (z - zp) / rate(xp)
    for _ in range(NEWTON_STEPS):
        if not a <= x <= b:
            x = 0.5 * (a + b)
        miss = zp + panel_integral(rate, xp, x) - z
        if miss < 0:
            a = x
        else:
            b = x
        step = miss / rate(x)
        x -= step
        if abs(step) <= 1e-13 * max(1.0, abs(x)):
            return x
    raise ValueError(f"x(z) did not converge at z = {z!r}")


def potential_numerator(p4: Poly, p3: Poly, p2: Poly) -> Poly:
    """V*P4 as one exact Poly, V = A'(z)^2 - A''(z) + P2 the reduction's
    potential: g^2 + g P4'/2 - P4 (P3'/2 + P4''/4 - P2), g = P3/2 + P4'/4."""
    d4, half, quarter = _dpoly(p4), Fraction(1, 2), Fraction(1, 4)
    g = p3.scale(half) + d4.scale(quarter)
    return (g * (g + d4.scale(half))
            - p4 * (_dpoly(p3).scale(half) + _dpoly(d4).scale(quarter) - p2))


def _qdivmod(a: List[Fraction], b: List[Fraction]) -> Tuple[List[Fraction], List[Fraction]]:
    """Quotient and remainder of rational coefficient lists (constant first),
    b with a nonzero leading coefficient; both results are trimmed."""
    quot, rem = [Fraction(0)] * max(len(a) - len(b) + 1, 0), list(a)
    while len(rem) >= len(b):
        f, shift = rem[-1] / b[-1], len(rem) - len(b)
        quot[shift] = f
        for i, v in enumerate(b):
            rem[shift + i] -= f * v
        while rem and not rem[-1]:
            rem.pop()
    return quot, rem


def _qderiv(p: List[Fraction]) -> List[Fraction]:
    return [k * c for k, c in enumerate(p)][1:]


def _qeval(p: List[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _check_positive(p4: Poly, domain: Tuple[float, float]) -> None:
    """Raise unless P4 > 0 on the closed domain, decided in exact rationals
    with the float ends read exactly: a Sturm sequence of P4's square-free
    part counts its distinct roots inside (a root found is bracketed to width
    <= 1e-6 by bisection), P4 must be positive at the midpoint, and neither
    end may be a root."""
    lo, hi = map(Fraction, domain)
    p = [Fraction(0)] * (p4.degree() + 1)
    for (k,), c in p4.terms.items():
        p[k] = c.re
    if len(p) > 1:
        a, b = p, _qderiv(p)
        while b:
            a, b = b, _qdivmod(a, b)[1]
        chain = [_qdivmod(p, a)[0]]          # p / gcd(p, p'): simple roots only
        chain.append(_qderiv(chain[0]))
        while len(chain[-1]) > 1:
            chain.append([-c for c in _qdivmod(chain[-2], chain[-1])[1]])

        def changes(x):
            signs = [v > 0 for v in (_qeval(q, x) for q in chain) if v]
            return sum(u != v for u, v in zip(signs, signs[1:]))

        def inside(a, b):                   # distinct roots in the open (a, b)
            return changes(a) - changes(b) - (not _qeval(chain[0], b))

        if inside(lo, hi):
            while hi - lo > Fraction(1, 10 ** 6):
                mid = (lo + hi) / 2
                if not _qeval(chain[0], mid):
                    lo = hi = mid
                elif inside(lo, mid):
                    hi = mid
                else:
                    lo = mid
            raise ValueError(f"P4 vanishes inside the domain: a root lies in [{lo}, {hi}]")
    if _qeval(p, (lo + hi) / 2) <= 0:
        raise ValueError("P4 is not positive on the domain")
    for end in domain:
        if not _qeval(p, Fraction(end)):
            raise ValueError(f"P4 vanishes at the domain end x = {end!r}")


def reduce_to_schrodinger(p4: Poly, p3: Poly, p2: Poly,
                          domain: Tuple[float, float],
                          zgrid: Sequence[float]) -> SchrodingerReduction:
    """Change of variable z = int dx/sqrt(P4) plus gauge, sampled on a z-grid.

    P4 must be positive on the domain interior, and the z grid must be
    nonempty, with every node in the domain's image [z(lo), z(hi)].  The
    potential is N(x)/P4(x), N = potential_numerator(P4, P3, P2).  On
    P4 = c*x with c > 0 on [0, hi], decided exactly, x(z) and the gauge are
    closed form, and no node may map to x = 0.  Otherwise the domain must be
    finite, and P4 > 0 on its interior is decided exactly before any
    quadrature: with the float ends read as exact rationals, a Sturm sequence
    of P4's square-free part must find no root strictly inside, P4 must be
    positive at the midpoint, and neither end may be a root.  Then one walk in
    z order outward from the domain midpoint (z = 0) solves each node by Newton
    steps from the node before and adds the gap's panel integral of P3/P4 to
    the gauge primitive: linear in the node count.
    """
    zgrid = list(zgrid)
    if not zgrid:
        raise ValueError("the z grid is empty")
    f4, f3 = _poly_fn(p4), _poly_fn(p3)
    lo, hi = domain

    # P4 = c*x with c > 0 on [0, hi]: z = 2 sqrt(x/c), x = c z^2 / 4
    cq = p4.coefficient_of(p4.vars[0], 1).constant_value().re
    linear = p4.degree() == 1 and p4.constant_value().is_zero() and cq > 0 and lo == 0 < hi
    if linear:
        c = float(cq)
        zrange = (0.0, 2.0 * math.sqrt(hi / c))
    else:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"the domain ({lo!r}, {hi!r}) is not a finite interval")
        _check_positive(p4, domain)
        x0 = 0.5 * (lo + hi)
        rate = lambda t: 1.0 / math.sqrt(f4(t))
        zrange = (panel_integral(rate, x0, lo), panel_integral(rate, x0, hi))

    for z in zgrid:
        if not zrange[0] <= z <= zrange[1]:
            raise ValueError(f"z node {z!r} lies outside the domain's image "
                             f"[{zrange[0]!r}, {zrange[1]!r}]")

    # gauge exponent A(x) = (1/2) int_xref^x (P3/P4) + (1/4) log P4
    if linear:
        xs = [c * z * z / 4.0 for z in zgrid]
        if 0.0 in xs:
            raise ValueError(f"P4 = c*x vanishes at the z node "
                             f"{zgrid[xs.index(0.0)]!r} (x = 0)")
        xref = xs[len(xs) // 2]
        # int P3/(c x) = (p0/c) log x + F(x), F = sum_{k>=1} p_k x^k / (k c);
        # F(x) - F(xref) is (x - xref) Q(x), with Q the exact quotient at the
        # float xref, so that nodes near xref keep their relative accuracy
        log_coeff = float(p3.constant_value().re / cq)
        anti = {e[0]: coef.re / (e[0] * cq) for e, coef in p3.terms.items() if e[0]}
        xr = Fraction(xref)
        quot = _poly_fn(Poly(p3.vars, {
            (j,): sum(v * xr ** (k - 1 - j) for k, v in anti.items() if k > j)
            for j in range(max(anti, default=0))}))
        prim = [(x - xref) * quot(x) + log_coeff * math.log(x / xref) for x in xs]
    else:
        ratio = lambda t: f3(t) / f4(t)
        x_at, prim_at = {0.0: x0}, {0.0: 0.0}
        for walk, edge in zip(_walks(0.0, zgrid), (hi, lo)):
            for zp, z in zip(walk, walk[1:]):
                x = x_at[z] = _solve_x(rate, x_at[zp], zp, z, edge)
                prim_at[z] = prim_at[zp] + panel_integral(ratio, x_at[zp], x)
        xs = [x_at[z] for z in zgrid]
        prim = [prim_at[z] - prim_at[zgrid[len(zgrid) // 2]] for z in zgrid]
    gauge = [0.5 * p + 0.25 * math.log(f4(x)) for p, x in zip(prim, xs)]

    fn = _poly_fn(potential_numerator(p4, p3, p2))
    pot = [fn(x) / f4(x) for x in xs]
    # the residual's five-point stencil needs >= 5 strictly ascending, even gaps
    h = zgrid[1] - zgrid[0] if len(zgrid) >= 5 else 0.0
    uniform = h > 0 and all(abs(v - u - h) <= 1e-9 * h for u, v in zip(zgrid, zgrid[1:]))
    return SchrodingerReduction(zgrid, xs, gauge, pot, h if uniform else None)


def _dpoly(p: Poly) -> Poly:
    return p.derivative(p.vars[0])


def schrodinger_residual(red: SchrodingerReduction, phi: Poly,
                         eps: float) -> float:
    """max |-psi'' + V psi - eps psi| with psi = phi(x(z)) e^(-A), five-point
    interior stencils on the reduction's uniform z step."""
    h = red.step
    if h is None:
        raise ValueError("the residual needs a uniform, ascending z grid of >= 5 nodes")
    fphi = _poly_fn(phi)
    psi = [fphi(x) * math.exp(-a) for x, a in zip(red.x_of_z, red.gauge)]
    worst = 0.0
    for i in range(2, len(psi) - 2):
        dd = (-psi[i + 2] + 16 * psi[i + 1] - 30 * psi[i]
              + 16 * psi[i - 1] - psi[i - 2]) / (12 * h * h)
        worst = max(worst, abs(-dd + (red.potential[i] - eps) * psi[i]))
    return worst


def sextic_reduction(n: int, k: int, a, b,
                     zgrid: Sequence[float]) -> Tuple[SchrodingerReduction, ActionResult]:
    """Reduction of the quartic-exponent family member plus its flag action."""
    asg = build_sextic(n, k, a, b)
    op = asg.operator()
    p4, p3, p2 = operator_p_coeffs(op)
    zmax = max(zgrid)
    red = reduce_to_schrodinger(p4, p3, p2, (0.0, (zmax * 1.05) ** 2), zgrid=zgrid)
    res = action_matrix(op, SpaceSpec("interval", (n,)))
    return red, res


# --------------------------------------------------------------------------
# the 2x2 matrix example

@dataclass
class MatrixPotentialModel:
    alpha: float
    beta: float
    n: int
    ygrid: List[float]
    gauge: List[np.ndarray]             # U(y) samples
    potential: List[np.ndarray]         # derived V(y) samples (residual oracle)
    action: ActionResult
    hermitian: bool
    printed_deviation: float


def matrix_example_assignment(alpha, beta, n: int) -> CoeffAssignment:
    """-2T0T- + 2T-J - i b T0Q1 + a T0 - (2n+1)T- - (ib/2)(3n+1)Q1
    + (i/2)ab Q2 - i b Qb1."""
    i = Scalar(0, 1)
    a, b = Scalar.of(alpha), Scalar.of(beta)
    nn = Scalar(n)
    return CoeffAssignment(RepSpec("osp22", n=nn), {
        "c_0-": Scalar(-2),
        "c_-J": Scalar(2),
        "c_01": -i * b,
        "c_0": a,
        "c_-": -(Scalar(2) * nn + ONE),
        "c_1": -(i * b / Scalar(2)) * (Scalar(3) * nn + ONE),
        "c_2": (i / Scalar(2)) * a * b,
        "c_1b": -i * b,
    })


def build_matrix_example(alpha: float, beta: float, n: int,
                         ygrid: Sequence[float] | None = None) -> MatrixPotentialModel:
    import numpy as np

    sig1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sig2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    sig3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    if ygrid is None:
        ygrid = [0.2 + i * 1e-3 for i in range(1401)]
    ygrid = list(ygrid)
    asg = matrix_example_assignment(alpha, beta, n)
    op = asg.operator()
    mop = to_matrix_operator(op)
    space = SpaceSpec("spinor", (n, n - 1))
    action = action_matrix(op, space)

    # matrix coefficient functions of d^0, d^1, d^2 in x
    def coeffs_at(x: float):
        out = [np.zeros((2, 2), complex) for _ in range(3)]
        for i in (0, 1):
            for j in (0, 1):
                for w, c in mop.entries[i][j].terms.items():
                    out[w[0]][i][j] += c.evaluate_float({"x": x})
        return out

    def printed_at(y: float) -> np.ndarray:
        w = beta * y * y / 2.0
        t = -(n + 0.25) * beta + alpha * beta / 4.0 * y * y
        base = 0.125 * (alpha ** 2 - beta ** 2) * y * y
        return (base * np.eye(2)
                + sig2 * ((t - alpha / 4.0 * math.tan(w)) * math.cos(w))
                + sig3 * ((t - alpha / 4.0 / math.tan(w)) * math.sin(w)))

    def u_at(y: float) -> np.ndarray:
        s, p = alpha * y * y / 4.0, beta * y * y / 4.0
        return math.exp(-s) * (math.cos(p) * np.eye(2) + 1j * math.sin(p) * sig1)

    def v_derived(y: float) -> np.ndarray:
        # conjugated potential of the x = y^2, psi = U phi transformation,
        # with analytic derivatives of U^{-1}
        s, p = alpha * y * y / 4.0, beta * y * y / 4.0
        sp, pp = alpha * y / 2.0, beta * y / 2.0
        spp, ppp = alpha / 2.0, beta / 2.0
        es = math.exp(s)
        ui = es * (math.cos(p) * np.eye(2) - 1j * math.sin(p) * sig1)
        ui1 = es * ((sp * math.cos(p) - pp * math.sin(p)) * np.eye(2)
                    - 1j * (sp * math.sin(p) + pp * math.cos(p)) * sig1)
        c_even = ((spp + sp * sp - pp * pp) * math.cos(p)
                  - (2 * sp * pp + ppp) * math.sin(p))
        c_odd = ((spp + sp * sp - pp * pp) * math.sin(p)
                 + (2 * sp * pp + ppp) * math.cos(p))
        ui2 = es * (c_even * np.eye(2) - 1j * c_odd * sig1)
        a0, a1, a2 = coeffs_at(y * y)
        amat = a2 / (4 * y * y)
        bmat = a1 / (2 * y) - a2 / (4 * y ** 3)
        u = u_at(y)
        return u @ (amat @ ui2 + bmat @ ui1 + a0 @ ui)

    gauge = [u_at(y) for y in ygrid]
    derived = [v_derived(y) for y in ygrid]
    if beta:
        printed = [printed_at(y) for y in ygrid]
    else:
        printed = [0.125 * alpha ** 2 * y * y * np.eye(2)
                   + (-(n + 0.25) * 0.0) * sig2 for y in ygrid]
    herm = all(np.allclose(v, v.conj().T, atol=1e-10) for v in printed)
    dev = max(float(np.max(np.abs(a - b))) for a, b in zip(printed, derived))
    return MatrixPotentialModel(alpha, beta, n, ygrid, gauge, derived,
                                action, herm, dev)


def matrix_example_residuals(model: MatrixPotentialModel) -> List[float]:
    """Residuals max |-(1/2) psi'' + V psi - eps psi| per algebraic eigenpair."""
    import numpy as np

    res = model.action
    m = np.array([[c.to_complex() for c in row] for row in res.matrix])
    evals, evecs = np.linalg.eig(m)
    labels = res.labels
    y = np.array(model.ygrid)
    h = y[1] - y[0]
    u = np.array(model.gauge)
    v = np.array(model.potential)
    out = []
    for j in range(len(evals)):
        vec = evecs[:, j]
        x = y * y
        comp = np.zeros((2, len(y)), complex)
        for coeff, ((deg,), odd) in zip(vec, labels):
            comp[0 if odd else 1] += coeff * x ** deg
        psi = np.einsum("yij,jy->iy", u, comp)
        pdd = (-psi[:, 4:] + 16 * psi[:, 3:-1] - 30 * psi[:, 2:-2]
               + 16 * psi[:, 1:-3] - psi[:, :-4]) / (12 * h * h)
        r = (-0.5 * pdd + np.einsum("yij,jy->iy", v[2:-2], psi[:, 2:-2])
             - evals[j] * psi[:, 2:-2])
        out.append(float(np.max(np.abs(r))))
    return out
