import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qeslab.classify import CoeffAssignment
from qeslab.operators import OpContext
from qeslab.poly import Poly
from qeslab.reps import RepSpec
from qeslab.scalars import Scalar
from qeslab.spaces import SpaceSpec, action_matrix
from qeslab import spectral
from qeslab.spectral import (GAUSS_LEGENDRE_8, NonSquareError, adaptive_simpson,
                             build_matrix_example, build_sextic,
                             eigenlaw_check, exact_rational_eigenvalues,
                             matrix_example_residuals, operator_p_coeffs,
                             panel_integral, reduce_to_schrodinger,
                             schrodinger_residual, sextic_potential,
                             sextic_reduction, spectrum)

S = Scalar
ZGRID = [0.1 + i * 1e-3 for i in range(2901)]       # z in [0.1, 3]


def test_spectrum_diagonal():
    from qeslab.reps import make_rep
    g = make_rep(RepSpec("sl2", n=S(2)))
    sp = spectrum(action_matrix(g.op("J0"), SpaceSpec("interval", (2,))))
    got = sorted(r.real for r in sp.roots)
    assert max(abs(a - b) for a, b in zip(got, [-1.0, 0.0, 1.0])) < 1e-12
    assert sp.trace_check < 1e-12


def test_spectrum_frozen_2x2():
    res = action_matrix(build_sextic(1, 0, 0, 1).operator(),
                        SpaceSpec("interval", (1,)))
    assert res.matrix == [[S(1), S(-2)], [S(0), S(5)]]
    sp = spectrum(res)
    assert [str(c) for c in sp.charpoly] == ["1", "-6", "5"]
    assert sorted(s.re for s in exact_rational_eigenvalues(sp)) == [1, 5]


def test_spectrum_irrational_pair():
    res = action_matrix(build_sextic(1, 0, 1, 0).operator(),
                        SpaceSpec("interval", (1,)))
    sp = spectrum(res)
    assert [str(c) for c in sp.charpoly] == ["1", "0", "-8"]
    roots = sorted(r.real for r in sp.roots)
    assert abs(roots[0] + 2 * math.sqrt(2)) < 1e-10
    assert abs(roots[1] - 2 * math.sqrt(2)) < 1e-10


def test_spectrum_rejects_escapes():
    from qeslab.operators import LinOperator
    ctx = OpContext(["x"])
    op = LinOperator.mult(ctx, ctx.var("x", 3)) * LinOperator.deriv(ctx, "x")
    with pytest.raises(NonSquareError):
        spectrum(action_matrix(op, SpaceSpec("interval", (2,))))


def test_charpoly_reality_random_quasi():
    rng = random.Random(1)
    names = ("c_++", "c_+0", "c_+-", "c_0-", "c_--", "c_+", "c_0", "c_-", "c")
    for n in (2, 4, 6):
        spec = RepSpec("sl2", n=S(n))
        for _ in range(4):
            vals = {nm: S(rng.randint(-4, 4)) for nm in names}
            asg = CoeffAssignment(spec, vals)
            res = action_matrix(asg.operator(), SpaceSpec("interval", (n,)))
            assert res.preserved
            sp = spectrum(res)
            assert all(c.is_rational() for c in sp.charpoly)
            assert sp.trace_check < 1e-9


def test_eigenlaw_examples():
    spec = RepSpec("sl2", n=S(2))
    rep = eigenlaw_check(CoeffAssignment(spec, {"c_00": S(0)} if False else
                                         {"c_0-": S(0), "c": S(0), "c_0": S(0)}))
    # J0 J0 via two J0 letters is not a catalogue name; use the exact family
    asg = CoeffAssignment(spec, {"c_0": S(1)})
    rep = eigenlaw_check(asg)
    assert rep["ok"]
    a, b, c = (Fraction(v) for v in rep["coefficients"])
    assert a == 0 and b == 1          # linear: the degenerate quadratic


def test_eigenlaw_quadratic_diag():
    # a full exact family member has an honestly quadratic diagonal
    spec = RepSpec("sl2", n=S(2))
    asg = CoeffAssignment(spec, {"c_+-": S(1)})
    rep = eigenlaw_check(asg)
    assert rep["ok"]
    a, b, c = (Fraction(v) for v in rep["coefficients"])
    assert a == 1 and b == -3 and c == 0      # d(d-1) - 2d


def test_eigenlaw_50_random_exact(subtests=None):
    rng = random.Random(99)
    for t in range(50):
        n = S(Fraction(rng.randint(-6, 12), rng.choice([1, 2, 3])))
        vals = {nm: S(Fraction(rng.randint(-9, 9), rng.choice([1, 2])))
                for nm in ("c_+-", "c_0-", "c_--", "c_0", "c_-", "c")}
        rep = eigenlaw_check(CoeffAssignment(RepSpec("sl2", n=n), vals))
        assert rep["ok"], (t, rep)


def test_eigenlaw_rejects_nontriangular():
    spec = RepSpec("sl2", n=S(4))
    rep = eigenlaw_check(CoeffAssignment(spec, {"c_+": S(1), "c_0-": S(1)}))
    assert not rep["ok"]


def test_sextic_potential_samples():
    zs = [0.0, 0.5, 1.0, 2.0]
    v = sextic_potential(1, 0, 1, 0, zs)
    assert v[0] == 0.0
    for z, val in zip(zs, v):
        assert abs(val - (z ** 6 - 7 * z ** 2)) < 1e-12
    v = sextic_potential(3, 1, 0, 2, zs)
    for z, val in zip(zs, v):
        assert abs(val - 4 * z * z) < 1e-12       # harmonic at a = 0


def test_adaptive_simpson():
    assert abs(adaptive_simpson(lambda t: t * t, 0, 3) - 9.0) < 1e-12
    assert abs(adaptive_simpson(math.exp, 0, 1) - (math.e - 1)) < 1e-10


def test_gauss_legendre_constants():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    rule = sorted((s * t, w) for t, w in GAUSS_LEGENDRE_8 for s in (-1, 1))
    assert len(rule) == 8
    for (t, w), t_ref, w_ref in zip(rule, nodes, weights):
        assert abs(t - t_ref) < 1e-15 and abs(w - w_ref) < 1e-15


def test_panel_integral():
    assert abs(panel_integral(lambda t: t ** 15, 0, 1) - 1 / 16) < 1e-15
    assert abs(panel_integral(math.exp, 0, 1) - (math.e - 1)) < 1e-14
    assert abs(panel_integral(math.exp, 1, 0) + (math.e - 1)) < 1e-14
    assert panel_integral(math.exp, 2.0, 2.0) == 0.0
    with pytest.raises(ValueError, match="did not converge"):
        panel_integral(lambda t: 1 / t, 0, 1)


def _curved_polys(c1, c0):
    """P4 = 1 + x^2, P3 = c1 x + c0, P2 = 1: z = asinh x, and
    int P3/P4 = c1/2 log(1 + x^2) + c0 atan x."""
    return (Poly(("x",), {(0,): 1, (2,): 1}), Poly(("x",), {(1,): c1, (0,): c0}),
            Poly(("x",), {(0,): 1}))


def _curved_gauge(c1, c0, zs):
    def g(x):
        return c1 / 2 * math.log1p(x * x) + c0 * math.atan(x)
    gref = g(math.sinh(zs[len(zs) // 2]))
    return [(g(math.sinh(z)) - gref) / 2 + math.log1p(math.sinh(z) ** 2) / 4
            for z in zs]


@pytest.mark.parametrize("zs", [
    random.Random(7).sample([-1.3 + i * 0.0125 for i in range(217)], 217),
    [1.4, -1.4, 0.3, 0.3, -0.05],           # sparse: long Newton steps
])
def test_curved_reduction_closed_form(zs):
    c1, c0 = 3, -2
    red = reduce_to_schrodinger(*_curved_polys(c1, c0), (-2.0, 2.0), zgrid=zs)
    assert red.zgrid == zs
    xref = red.x_of_z[len(zs) // 2]
    assert min(red.x_of_z) < xref < max(red.x_of_z)
    assert max(abs(x - math.sinh(z)) for x, z in zip(red.x_of_z, zs)) < 1e-12
    gauge = _curved_gauge(c1, c0, zs)
    assert max(abs(u - v) for u, v in zip(red.gauge, gauge)) < 1e-10


def test_x_of_z_steps_stay_in_the_domain():
    # P4 = 1 - x^2: z = asin x; the tangent guess from x = 0 for z = 1.1
    # lands past the domain edge, where P4 < 0, so the step must bisect
    one_minus_x2 = Poly(("x",), {(0,): 1, (2,): -1})
    zero = Poly(("x",), {})
    zs = [1.1, -1.1, 0.2]
    red = reduce_to_schrodinger(one_minus_x2, zero, zero, (-0.9, 0.9), zgrid=zs)
    assert max(abs(x - math.sin(z)) for x, z in zip(red.x_of_z, zs)) < 1e-12


@pytest.mark.parametrize("p4,domain,zs,bad", [
    (Poly(("x",), {(0,): 1, (2,): 1}), (-2.0, 2.0), [0.0, 1.5], 1.5),
    (Poly(("x",), {(0,): 1, (2,): 1}), (-2.0, 2.0), [-1.5, 0.0], -1.5),
    (Poly(("x",), {(1,): 4}), (0.0, 4.0), [-0.5, 0.5, 1.0], -0.5),
    (Poly(("x",), {(1,): 4}), (0.0, 4.0), [0.5, 2.5], 2.5),
])
def test_reduce_rejects_nodes_outside_the_image(p4, domain, zs, bad):
    # z(hi) is asinh 2 = 1.4436... for 1 + x^2 and 2 for 4x; z(lo) is -z(hi)
    # and 0
    zero = Poly(("x",), {})
    with pytest.raises(ValueError, match=rf"z node {bad!r} lies outside the "
                                         r"domain's image \[-?[0-9.]+, [0-9.]+\]"):
        reduce_to_schrodinger(p4, zero, zero, domain, zgrid=zs)


def test_reduction_does_not_call_adaptive_simpson(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("adaptive_simpson called")
    monkeypatch.setattr(spectral, "adaptive_simpson", boom)
    sextic_reduction(1, 0, 1, 0, ZGRID)
    reduce_to_schrodinger(*_curved_polys(1, 0), (-2.0, 2.0),
                          zgrid=[-0.8 + i * 1.6 / 288 for i in range(289)])


def test_reduce_trivial_identity_change():
    one = Poly(("x",), {(0,): 1})
    zero = Poly(("x",), {})
    x2 = Poly(("x",), {(2,): 1})
    red = reduce_to_schrodinger(one, zero, x2, (-2.0, 2.0))
    for z, x, v in zip(red.zgrid, red.x_of_z, red.potential):
        assert abs(z - x) < 1e-9
        assert abs(v - x * x) < 1e-9


def test_reduce_closed_form_gauge():
    one = Poly(("x",), {(0,): 1})
    twox = Poly(("x",), {(1,): 2})
    zero = Poly(("x",), {})
    red = reduce_to_schrodinger(one, twox, zero, (-2.0, 2.0))
    for x, v in zip(red.x_of_z, red.potential):
        assert abs(v - (x * x - 1)) < 1e-9        # A = x^2/2


def test_reduce_rejects_sign_change():
    x = Poly(("x",), {(1,): 1})
    zero = Poly(("x",), {})
    with pytest.raises(ValueError):
        reduce_to_schrodinger(x, zero, zero, (-1.0, 1.0))


@pytest.mark.parametrize("n,k", [(1, 0), (2, 1), (3, 0)])
def test_sextic_reduction_matches_closed_form(n, k):
    rng = random.Random(n * 10 + k)
    a = Fraction(rng.randint(1, 4), rng.choice([1, 2]))
    b = Fraction(rng.randint(-3, 3))
    red, act = sextic_reduction(n, k, a, b, ZGRID)
    assert act.preserved
    ref = sextic_potential(n, k, a, b, ZGRID)
    assert max(abs(u - v) for u, v in zip(red.potential, ref)) < 1e-8


def test_sextic_residuals_and_parity():
    n, k, a, b = 2, 1, Fraction(1), Fraction(1, 2)
    red, act = sextic_reduction(n, k, a, b, ZGRID)
    m = np.array([[c.to_complex().real for c in row] for row in act.matrix])
    evals, evecs = np.linalg.eig(m)
    for j in range(len(evals)):
        phi = Poly(("x",), {(d,): Fraction(evecs[d, j]).limit_denominator(10 ** 12)
                            for d in range(len(evals))})
        resid = schrodinger_residual(red, phi, evals[j].real)
        assert resid < 1e-6
    # gauge exponent carries exactly the z^k parity factor:
    # A(z) - a z^4/4 - b z^2/2 + k log z is constant on the grid
    af, bf = float(a), float(b)
    vals = [g - af * z ** 4 / 4 - bf * z * z / 2 + k * math.log(z)
            for z, g in zip(red.zgrid, red.gauge)]
    assert max(vals) - min(vals) < 1e-9


def test_sextic_spectrum_real_for_positive_a():
    rng = random.Random(5)
    for _ in range(6):
        n = rng.randint(1, 4)
        a = Fraction(rng.randint(1, 5))
        b = Fraction(rng.randint(-4, 4))
        res = action_matrix(build_sextic(n, rng.randint(0, 1), a, b).operator(),
                            SpaceSpec("interval", (n,)))
        sp = spectrum(res)
        assert all(abs(r.imag) < 1e-8 for r in sp.roots)


def test_matrix_example_preservation_and_residuals():
    for n in (1, 2):
        model = build_matrix_example(2.0, 1.0, n,
                                     ygrid=[0.2 + i * 1e-3 for i in range(1201)])
        assert model.preserved
        assert model.hermitian
        assert len(model.action.labels) == 2 * n + 1
        resid = matrix_example_residuals(model)
        assert max(resid) < 1e-5


def test_matrix_example_beta_zero_degenerates():
    model = build_matrix_example(1.0, 0.0, 1,
                                 ygrid=[0.3 + i * 2e-3 for i in range(401)])
    assert model.preserved
    # at beta = 0 the derived potential is diagonal (no mixing terms)
    for v in model.potential:
        assert abs(v[0, 1]) < 1e-9 and abs(v[1, 0]) < 1e-9


def test_operator_p_coeffs():
    op = build_sextic(1, 0, 1, 1).operator()
    p4, p3, p2 = operator_p_coeffs(op)
    assert p4 == Poly(("x",), {(1,): 4})
    assert p3.degree() == 2 and p2.degree() == 1
