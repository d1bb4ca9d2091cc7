"""Spectra on invariant subspaces and one-dimensional Schroedinger reductions.

Exact characteristic polynomials come from the Hessenberg recurrence modulo a
prime above twice their Hadamard bound; numeric roots from the companion
matrix.  The scalar reduction maps -P4 f'' + P3 f' + P2 f = eps f to
-psi'' + V psi = eps psi through z = int dx/sqrt(P4) and the gauge exponent
A = (1/2) int (P3/P4) dx + (1/4) log P4 (the half in front of the integral is
forced by eliminating the first-order term; V = A'^2 - A'' + P2 follows).  The
quartic-family change of variable x = z^2 is special-cased analytically.
The gauge integral is a prefix sum of 8-point Gauss-Legendre panels over the
gaps between consecutive sorted nodes, each panel halved until it agrees
with its halves.  Off the special case, x(z) is solved node after node in z
order by Newton steps on the exact dz/dx = 1/sqrt(P4), each step one panel
integral from the node before.  A reduction is linear in the number of grid
nodes.

The 2x2 matrix example reduces with x = y^2 and the gauge factor
exp(-alpha y^2/4 + i beta y^2 sigma_1/4); the transformed operator is
computed by exact conjugation, which both certifies the -1/2 d^2/dy^2 form
and yields the potential actually driving the residual checks.  The
catalogued closed-form potential is sampled alongside for comparison; it
carries one sign slip in its sigma_2 bracket and omits the constant
reference shift -n*alpha/2, so the derived potential is authoritative here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .classify import CoeffAssignment
from .linalg import charpoly, eval_poly
from .operators import LinOperator, to_matrix_operator
from .poly import Poly
from .reps import RepSpec, make_rep
from .scalars import ONE, Scalar, ZERO
from .spaces import ActionResult, SpaceSpec, action_matrix


class NonSquareError(ValueError):
    """Spectrum requested for an operator that did not preserve the space."""


@dataclass
class Spectrum:
    charpoly: List[Scalar]          # monic, highest power first
    roots: List[complex]
    labels: list
    trace_check: float              # relative consistency of numeric roots


def spectrum(result: ActionResult) -> Spectrum:
    """Exact characteristic polynomial plus companion-matrix roots."""
    if not result.preserved:
        raise NonSquareError(
            f"operator escapes {result.space}: {result.escapes[:3]}")
    m = result.matrix
    coeffs = charpoly(m)
    croots = np.roots([c.to_complex() for c in coeffs]) if len(m) else np.array([])
    n = len(m)
    tr_exact = sum((m[i][i] for i in range(n)), ZERO).to_complex()
    det_exact = Scalar((-1) ** n) * coeffs[-1]
    tr_num = complex(np.sum(croots)) if n else 0j
    det_num = complex(np.prod(croots)) if n else 1 + 0j
    scale = max(abs(tr_exact), abs(det_exact.to_complex()), 1.0)
    err = max(abs(tr_num - tr_exact), abs(det_num - det_exact.to_complex())) / scale
    return Spectrum(coeffs, list(croots), result.labels, err)


def exact_rational_eigenvalues(sp: Spectrum) -> List[Scalar]:
    """Rational roots of the characteristic polynomial, certified exactly."""
    out = []
    for r in sp.roots:
        if abs(r.imag) > 1e-8:
            continue
        cand = Fraction(r.real).limit_denominator(10 ** 6)
        if eval_poly(sp.charpoly, Scalar(cand)).is_zero():
            out.append(Scalar(cand))
    # dedupe, keep multiplicity out of scope here
    seen, uniq = set(), []
    for s in out:
        if s.re not in seen:
            seen.add(s.re)
            uniq.append(s)
    return uniq


# --------------------------------------------------------------------------
# the quadratic eigenvalue law of flag-preserving operators

def eigenlaw_check(assignment: CoeffAssignment, degrees: int = 8) -> dict:
    """Diagonal of the flag action fits one exact quadratic in the degree.

    The operator must be flag-preserving (triangular action); the diagonal
    entry at degree d is matched against the quadratic through d = 0, 1, 2.
    """
    spec = assignment.spec
    gens = make_rep(spec)
    op = assignment.operator(gens)
    res = action_matrix(op, SpaceSpec("interval", (degrees,)))
    if not res.preserved:
        return {"ok": False, "reason": "operator does not preserve the flag member"}
    m = res.matrix
    dim = len(m)
    for j in range(dim):
        for i in range(j + 1, dim):
            if not m[i][j].is_zero():
                return {"ok": False, "reason": "action is not triangular",
                        "entry": (i, j)}
    diag = [m[d][d] for d in range(dim)]
    # exact quadratic through d = 0, 1, 2
    c0 = diag[0]
    half = Scalar(Fraction(1, 2))
    a = (diag[2] - Scalar(2) * diag[1] + diag[0]) * half
    b = diag[1] - diag[0] - a
    fits = all(diag[d] == a * Scalar(d * d) + b * Scalar(d) + c0
               for d in range(dim))
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
    p4: Poly
    p3: Poly
    p2: Poly
    eps_shift: float = 0.0

    @property
    def spacing(self) -> float:
        return self.zgrid[1] - self.zgrid[0]


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


def reduce_to_schrodinger(p4: Poly, p3: Poly, p2: Poly,
                          domain: Tuple[float, float],
                          zgrid: Sequence[float] | None = None,
                          spacing: float = 1e-3) -> SchrodingerReduction:
    """Change of variable z = int dx/sqrt(P4) plus gauge, sampled on a z-grid.

    P4 must be positive on the domain interior, and every z node must lie in
    the domain's image [z(lo), z(hi)].  x(z) is closed form for the c*x
    quartic-family case; otherwise the nodes are solved in z order outward
    from the domain midpoint (z = 0), each by Newton steps from the node
    before it.  The gauge integral is a prefix sum of panel integrals over
    the gaps between sorted nodes, outward from the middle node.  After
    one sort of the nodes the work is linear in their number.
    """
    f4, f3, f2 = _poly_fn(p4), _poly_fn(p3), _poly_fn(p2)
    lo, hi = domain
    probes = [lo + (hi - lo) * t / 400.0 for t in range(1, 400)]
    if any(f4(x) <= 0 for x in probes):
        raise ValueError("P4 changes sign inside the domain")

    # special case P4 = c*x on [0, hi]: z = 2 sqrt(x/c), x = c z^2 / 4
    linear = (p4.degree() == 1 and p4.coefficient_of(p4.vars[0], 0).is_zero()
              and abs(lo) < 1e-12)
    if linear:
        c = float(p4.coefficient_of(p4.vars[0], 1).constant_value().re)
        z_of_x = lambda x: 2.0 * math.sqrt(x / c)
        zrange = (0.0, z_of_x(hi))
    else:
        x0 = 0.5 * (lo + hi)
        rate = lambda t: 1.0 / math.sqrt(f4(t))
        z_of_x = lambda x: panel_integral(rate, x0, x)
        zrange = (z_of_x(lo), z_of_x(hi))

    if zgrid is None:
        zl = z_of_x(max(lo, (hi - lo) * 1e-6) if linear else lo + (hi - lo) * 1e-3)
        zh = z_of_x(hi - (hi - lo) * 1e-3)
        count = max(5, int((zh - zl) / spacing))
        zgrid = [zl + i * (zh - zl) / count for i in range(count + 1)]
    zgrid = list(zgrid)
    for z in zgrid:
        if not zrange[0] <= z <= zrange[1]:
            raise ValueError(f"z node {z!r} lies outside the domain's image "
                             f"[{zrange[0]!r}, {zrange[1]!r}]")

    if linear:
        xs = [c * z * z / 4.0 for z in zgrid]
    else:
        x_at: Dict[float, float] = {}
        for walk, edge in zip(_walks(0.0, zgrid), (hi, lo)):
            xp = x0
            for zp, z in zip(walk, walk[1:]):
                xp = x_at[z] = _solve_x(rate, xp, zp, z, edge)
        x_at[0.0] = x0
        xs = [x_at[z] for z in zgrid]

    # gauge exponent A(x) = (1/2) int (P3/P4) + (1/4) log P4
    xref = xs[len(xs) // 2]
    ratio = lambda t: f3(t) / f4(t)
    prim = {xref: 0.0}
    for walk in _walks(xref, xs):
        for u, v in zip(walk, walk[1:]):
            prim[v] = prim[u] + panel_integral(ratio, u, v)
    gauge = [0.5 * prim[x] + 0.25 * math.log(f4(x)) for x in xs]

    # V = B^2 - A''(z) + P2, all exact rational functions of x
    f4p = _poly_fn(_dpoly(p4))
    f4pp = _poly_fn(_dpoly(_dpoly(p4)))
    f3p = _poly_fn(_dpoly(p3))

    def v_at(x: float) -> float:
        g = f3(x) / 2.0 + f4p(x) / 4.0
        return (g * g / f4(x) - (f3p(x) / 2.0 + f4pp(x) / 4.0)
                + g * f4p(x) / (2.0 * f4(x)) + f2(x))

    pot = [v_at(x) for x in xs]
    return SchrodingerReduction(zgrid, xs, gauge, pot, p4, p3, p2)


def _dpoly(p: Poly) -> Poly:
    return p.derivative(p.vars[0])


def schrodinger_residual(red: SchrodingerReduction, phi: Poly,
                         eps: float) -> float:
    """max |-psi'' + V psi - eps psi| with psi = phi(x(z)) e^(-A), five-point
    interior stencils."""
    fphi = _poly_fn(phi)
    psi = [fphi(x) * math.exp(-a) for x, a in zip(red.x_of_z, red.gauge)]
    h = red.spacing
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

SIG1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIG2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIG3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass
class MatrixPotentialModel:
    alpha: float
    beta: float
    n: int
    ygrid: List[float]
    gauge: List[np.ndarray]             # U(y) samples
    potential: List[np.ndarray]         # derived V(y) samples (residual oracle)
    potential_printed: List[np.ndarray]  # catalogued closed form, for comparison
    action: ActionResult
    hermitian: bool
    printed_deviation: float
    preserved: bool


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


def _printed_matrix_potential(alpha: float, beta: float, n: int,
                              y: float) -> np.ndarray:
    w = beta * y * y / 2.0
    t = -(n + 0.25) * beta + alpha * beta / 4.0 * y * y
    base = 0.125 * (alpha ** 2 - beta ** 2) * y * y
    return (base * np.eye(2)
            + SIG2 * ((t - alpha / 4.0 * math.tan(w)) * math.cos(w))
            + SIG3 * ((t - alpha / 4.0 / math.tan(w)) * math.sin(w)))


def build_matrix_example(alpha: float, beta: float, n: int,
                         ygrid: Sequence[float] | None = None) -> MatrixPotentialModel:
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

    def u_at(y: float) -> np.ndarray:
        s, p = alpha * y * y / 4.0, beta * y * y / 4.0
        return math.exp(-s) * (math.cos(p) * np.eye(2) + 1j * math.sin(p) * SIG1)

    def v_derived(y: float) -> np.ndarray:
        # conjugated potential of the x = y^2, psi = U phi transformation,
        # with analytic derivatives of U^{-1}
        s, p = alpha * y * y / 4.0, beta * y * y / 4.0
        sp, pp = alpha * y / 2.0, beta * y / 2.0
        spp, ppp = alpha / 2.0, beta / 2.0
        es = math.exp(s)
        ui = es * (math.cos(p) * np.eye(2) - 1j * math.sin(p) * SIG1)
        ui1 = es * ((sp * math.cos(p) - pp * math.sin(p)) * np.eye(2)
                    - 1j * (sp * math.sin(p) + pp * math.cos(p)) * SIG1)
        c_even = ((spp + sp * sp - pp * pp) * math.cos(p)
                  - (2 * sp * pp + ppp) * math.sin(p))
        c_odd = ((spp + sp * sp - pp * pp) * math.sin(p)
                 + (2 * sp * pp + ppp) * math.cos(p))
        ui2 = es * (c_even * np.eye(2) - 1j * c_odd * SIG1)
        a0, a1, a2 = coeffs_at(y * y)
        amat = a2 / (4 * y * y)
        bmat = a1 / (2 * y) - a2 / (4 * y ** 3)
        u = u_at(y)
        return u @ (amat @ ui2 + bmat @ ui1 + a0 @ ui)

    gauge = [u_at(y) for y in ygrid]
    derived = [v_derived(y) for y in ygrid]
    if beta:
        printed = [_printed_matrix_potential(alpha, beta, n, y) for y in ygrid]
    else:
        printed = [0.125 * alpha ** 2 * y * y * np.eye(2)
                   + (-(n + 0.25) * 0.0) * SIG2 for y in ygrid]
    herm = all(np.allclose(v, v.conj().T, atol=1e-10) for v in printed)
    dev = max(float(np.max(np.abs(a - b))) for a, b in zip(printed, derived))
    return MatrixPotentialModel(alpha, beta, n, ygrid, gauge, derived, printed,
                                action, herm, dev, action.preserved)


def matrix_example_residuals(model: MatrixPotentialModel) -> List[float]:
    """Residuals max |-(1/2) psi'' + V psi - eps psi| per algebraic eigenpair."""
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
