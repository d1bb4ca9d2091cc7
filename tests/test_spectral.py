import importlib
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qeslab
from qeslab.classify import CoeffAssignment
from qeslab.operators import OpContext, to_matrix_operator
from qeslab.poly import Poly
from qeslab.reps import RepSpec
from qeslab.scalars import Scalar
from qeslab.spaces import SpaceSpec, action_matrix
from qeslab import spectral
from qeslab.spectral import (GAUSS_LEGENDRE_8, NonSquareError, adaptive_simpson,
                             build_matrix_example, build_sextic,
                             eigenlaw_check, exact_rational_eigenvalues,
                             matrix_example_assignment, matrix_example_residuals,
                             operator_p_coeffs, panel_integral, potential_numerator,
                             reduce_to_schrodinger,
                             schrodinger_residual, sextic_potential,
                             sextic_reduction, spectrum)

S = Scalar
ZGRID = [0.1 + i * 1e-3 for i in range(2901)]       # z in [0.1, 3]
ZS_CENTRED = [-1.9 + i * 1e-2 for i in range(381)]  # z in [-1.9, 1.9]


def test_spectrum_diagonal():
    from qeslab.reps import make_rep
    g = make_rep(RepSpec("sl2", n=S(2)))
    sp = spectrum(action_matrix(g.ops["J0"], SpaceSpec("interval", (2,))))
    got = sorted(r.real for r in sp.roots)
    assert max(abs(a - b) for a, b in zip(got, [-1.0, 0.0, 1.0])) < 1e-12
    assert sp.trace_check < 1e-12


def _loaded(code: str) -> set:
    """Run code in a fresh interpreter on this qeslab: the modules loaded after."""
    src = str(Path(qeslab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code + "\nimport sys\n"
                          "print(' '.join(sys.modules))"],
                         capture_output=True, text=True, env=env, check=True, timeout=60)
    return set(out.stdout.splitlines()[-1].split())


SUBMODULES = {f"qeslab.{p.stem}" for p in Path(qeslab.__file__).parent.glob("*.py")
              if p.stem != "__init__"}
# library set-up as bench/run.py times it: the case catalogue and one
# generator family
SETUP_PATH = ("from qeslab.classify import rules_for\n"
              "from qeslab.reps import RepSpec, make_rep\n"
              "from qeslab.scalars import Scalar\n"
              "rules_for(RepSpec('osp22'))\n"
              "make_rep(RepSpec('osp22', n=Scalar(5)))")


@pytest.mark.parametrize("module", ["qeslab", "qeslab.cli"])
def test_import_does_not_load_numpy(module):
    # only float roots and the 2x2 example need numpy, and they import it
    assert "numpy" not in _loaded(f"import {module}")


@pytest.mark.parametrize("code,absent", [
    # the package loads a module only when one of its names is used
    pytest.param("import qeslab", SUBMODULES, id="package"),
    pytest.param(SETUP_PATH, {"qeslab.spectral", "qeslab.identities", "numpy"}, id="setup"),
])
def test_import_loads_only_what_is_used(code, absent):
    assert not _loaded(code) & absent


def test_spectrum_loads_numpy():
    assert "numpy" in _loaded(
        "from qeslab.reps import RepSpec, make_rep\n"
        "from qeslab.scalars import Scalar\n"
        "from qeslab.spaces import SpaceSpec, action_matrix\n"
        "from qeslab.spectral import spectrum\n"
        "g = make_rep(RepSpec('sl2', n=Scalar(1)))\n"
        "spectrum(action_matrix(g.ops['J0'], SpaceSpec('interval', (1,))))")


# every name the package exported when it imported its modules eagerly
EXPORTS = {
    "scalars": "Scalar QParam qnumber qbinomial",
    "poly": "Poly",
    "operators": "LinOperator MatrixOperator OpContext compose commutator to_matrix_operator",
    "reps": "RepSpec GeneratorSet make_rep verify_structure to_matrix_rep",
    "enveloping": "expand grading param_count verify_relations",
    "spaces": "SpaceSpec dimension action_matrix",
    "classify": "CoeffAssignment classify_grading match_cases verify_case",
    "spectral": "spectrum eigenlaw_check build_sextic sextic_potential "
                "reduce_to_schrodinger schrodinger_residual build_matrix_example",
    "identities": "verify_identity",
}


def test_every_export_is_its_home_modules_object():
    names = [(m, n) for m, ns in EXPORTS.items() for n in ns.split()]
    assert sorted(qeslab.__all__) == sorted(n for _, n in names)
    for module, name in names:
        assert getattr(qeslab, name) is getattr(importlib.import_module(f"qeslab.{module}"),
                                                name), name
    assert qeslab.spectrum is spectral.spectrum
    assert set(qeslab.__all__) <= set(dir(qeslab))
    with pytest.raises(AttributeError, match="no attribute 'spectra'"):
        qeslab.spectra


def test_spectrum_frozen_2x2():
    res = action_matrix(build_sextic(1, 0, 0, 1).operator(),
                        SpaceSpec("interval", (1,)))
    assert res.matrix == [[S(1), S(-2)], [S(0), S(5)]]
    sp = spectrum(res)
    assert [str(c) for c in sp.charpoly] == ["1", "-6", "5"]
    assert sorted(s.re for s in exact_rational_eigenvalues(sp)) == [1, 5]


def test_triangular_spectrum_is_the_exact_diagonal(monkeypatch):
    # J+J- + 2 J0J- + J- at n = 8 is upper triangular on int:8, with the
    # diagonal d(d - 9), d = 0..8: every level but 0 appears twice, and the
    # roots are those entries, with no companion-matrix root taken
    def boom(*args):
        raise AssertionError("np.roots called")
    monkeypatch.setattr(np, "roots", boom)
    asg = CoeffAssignment(RepSpec("sl2", n=S(8)), {"c_+-": S(1), "c_0-": S(2), "c_-": S(1)})
    sp = spectrum(action_matrix(asg.operator(), SpaceSpec("interval", (8,))))
    assert sp.roots == [complex(d * (d - 9)) for d in range(9)]
    assert sp.trace_check == 0.0
    assert [str(c) for c in sp.charpoly][:2] == ["1", "120"]


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


@pytest.mark.parametrize("degrees", [0, 1])
def test_eigenlaw_needs_three_degrees(degrees):
    asg = CoeffAssignment(RepSpec("sl2", n=S(2)), {"c_0": S(1)})
    with pytest.raises(ValueError, match="degrees >= 2"):
        eigenlaw_check(asg, degrees=degrees)


def test_eigenlaw_rejects_nontriangular():
    spec = RepSpec("sl2", n=S(4))
    rep = eigenlaw_check(CoeffAssignment(spec, {"c_+": S(1), "c_0-": S(1)}))
    assert not rep["ok"]
    # at n = 8, J+ keeps int:8 and moves x^0 to x^1: the first entry below
    # the diagonal, column by column
    rep = eigenlaw_check(CoeffAssignment(RepSpec("sl2", n=S(8)), {"c_+": S(1), "c_0-": S(1)}))
    assert rep == {"ok": False, "reason": "action is not triangular", "entry": (1, 0)}


@pytest.mark.parametrize("n,k,a,b", [
    (1, 0, 1, 0), (2, 1, Fraction(3, 2), -1), (3, 0, 2, 2), (3, 1, 2, -1), (3, 0, 1, 1)])
def test_sextic_potential_numerator_is_the_closed_form(n, k, a, b):
    """On P4 = c*x, z^2 = 4x/c, N = V*P4 equals
    c x (a^2 z^6 + 2ab z^4 + (b^2 - (4n+3+2k)a) z^2) exactly: no x^0 or x^1
    term is left to cancel at small x."""
    p4, p3, p2 = operator_p_coeffs(build_sextic(n, k, a, b).operator())
    c = p4.terms[(1,)].re
    a, b, u = Fraction(a), Fraction(b), Fraction(4) / c
    closed = {6: a * a, 4: 2 * a * b, 2: b * b - (4 * n + 3 + 2 * k) * a}
    want = Poly(p4.vars, {(1 + j // 2,): c * v * u ** (j // 2) for j, v in closed.items()})
    assert potential_numerator(p4, p3, p2) == want


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


@pytest.fixture(scope="module")
def workloads():
    """bench/workloads.py, imported without writing bytecode under bench/."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(bench))
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


def test_linear_gauge_is_the_closed_form_without_quadrature(workloads, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("panel_integral called")
    monkeypatch.setattr(spectral, "panel_integral", boom)
    rng = random.Random(20240901)               # criterion 06's members
    members = [(n, k, Fraction(rng.randint(1, 4), rng.choice([1, 2])))
               + (Fraction(rng.randint(-4, 4)),) for n in (1, 2, 3) for k in (0, 1)]
    members += [(n, k, a, Fraction(b)) for n, k, a in workloads.SEXTIC_SLOTS
                for b in (-1, 0, 1)]
    for n, k, a, b in members:
        red, act = sextic_reduction(n, k, a, b, ZGRID)
        _, gauge = workloads.sextic_reference(n, k, a, b, ZGRID)
        assert act.preserved
        assert max(abs(u - v) for u, v in zip(red.gauge, gauge)) < 1e-12, (n, k, a, b)


@pytest.mark.parametrize("zs,bad", [
    ([0.0, 0.1, 0.2, 0.3, 0.4], 0.0),
    ([0.2, 1e-200], 1e-200),                # c z^2 / 4 underflows to 0
])
def test_linear_reduction_refuses_a_node_at_x_zero(zs, bad, monkeypatch):
    def boom(*args):
        raise AssertionError("the gauge was integrated")
    monkeypatch.setattr(spectral.math, "log", boom)
    with pytest.raises(ValueError, match=rf"P4 = c\*x vanishes at the z node {bad!r} \(x = 0\)"):
        sextic_reduction(2, 0, 1, 1, zs)


def test_reduce_trivial_identity_change():
    one = Poly(("x",), {(0,): 1})
    zero = Poly(("x",), {})
    x2 = Poly(("x",), {(2,): 1})
    red = reduce_to_schrodinger(one, zero, x2, (-2.0, 2.0), zgrid=ZS_CENTRED)
    for z, x, v in zip(red.zgrid, red.x_of_z, red.potential):
        assert abs(z - x) < 1e-9
        assert abs(v - x * x) < 1e-9


def test_reduce_closed_form_gauge():
    one = Poly(("x",), {(0,): 1})
    twox = Poly(("x",), {(1,): 2})
    zero = Poly(("x",), {})
    red = reduce_to_schrodinger(one, twox, zero, (-2.0, 2.0), zgrid=ZS_CENTRED)
    for x, v in zip(red.x_of_z, red.potential):
        assert abs(v - (x * x - 1)) < 1e-9        # A = x^2/2


def test_reduce_rejects_sign_change():
    x = Poly(("x",), {(1,): 1})
    zero = Poly(("x",), {})
    with pytest.raises(ValueError, match=r"a root lies in \[0, 0\]"):
        reduce_to_schrodinger(x, zero, zero, (-1.0, 1.0), zgrid=[0.0])


def _no_quadrature(monkeypatch):
    def boom(*args):
        raise AssertionError("quadrature ran")
    monkeypatch.setattr(spectral, "panel_integral", boom)


@pytest.mark.parametrize("roots", [
    (Fraction(3, 2500), Fraction(9, 5000)),     # negative between float probes
    (Fraction(1, 300), Fraction(1, 300)),       # a double root: P4 >= 0
])
def test_reduce_refuses_an_interior_root_before_any_quadrature(roots, monkeypatch):
    _no_quadrature(monkeypatch)
    r, s = roots
    p4 = Poly(("x",), {(2,): 1, (1,): -(r + s), (0,): r * s})
    zero = Poly(("x",), {})
    with pytest.raises(ValueError, match="P4 vanishes inside the domain") as err:
        reduce_to_schrodinger(p4, zero, zero, (-2.0, 2.0), zgrid=[0.0])
    lo, hi = map(Fraction, re.search(r"\[(\S+), (\S+)\]", str(err.value)).groups())
    assert 0 < hi - lo <= Fraction(1, 10 ** 6)
    assert lo <= r <= hi or lo <= s <= hi


@pytest.mark.parametrize("p4,domain,message", [
    (Poly(("x",), {(0,): -1, (2,): -1}), (-2.0, 2.0), "not positive on the domain"),
    (Poly(("x",), {}), (-2.0, 2.0), "not positive on the domain"),
    (Poly(("x",), {(0,): 1}), (1.0, float("inf")), "not a finite interval"),
    (Poly(("x",), {(0,): 1}), (1.0, 1.0), "not a finite interval"),
])
def test_reduce_refuses_a_domain_without_positive_p4(p4, domain, message, monkeypatch):
    _no_quadrature(monkeypatch)
    zero = Poly(("x",), {})
    with pytest.raises(ValueError, match=message):
        reduce_to_schrodinger(p4, zero, zero, domain, zgrid=[0.0])


def test_reduce_lets_the_domain_ends_be_roots(monkeypatch):
    _no_quadrature(monkeypatch)
    four_minus_x2 = Poly(("x",), {(0,): 4, (2,): -1})
    zero = Poly(("x",), {})
    with pytest.raises(AssertionError, match="quadrature ran"):
        reduce_to_schrodinger(four_minus_x2, zero, zero, (-2.0, 2.0), zgrid=[0.0])


@pytest.mark.parametrize("p4,domain", [
    (Poly(("x",), {(1,): 4}), (0.0, 4.0)),                  # P4 = c*x
    (Poly(("x",), {(0,): 1, (2,): 1}), (-2.0, 2.0)),        # curved
])
def test_reduce_rejects_an_empty_grid(p4, domain):
    zero = Poly(("x",), {})
    with pytest.raises(ValueError, match="the z grid is empty"):
        reduce_to_schrodinger(p4, zero, zero, domain, zgrid=[])


@pytest.mark.parametrize("zs", [
    [0.5, 0.1, 0.2, 0.9, 1.0, 1.3],         # shuffled: its first gap is negative
    [0.1, 0.2, 0.3],                        # no five-point stencil fits
    [0.2],
    [1.3, 1.2, 1.1, 1.0, 0.9],              # uniform but descending
])
def test_residual_refuses_a_nonuniform_grid(zs):
    p4, p3 = Poly(("x",), {(0,): 1, (2,): 1}), Poly(("x",), {(1,): 3})
    red = reduce_to_schrodinger(p4, p3, Poly(("x",), {}), (-2.0, 2.0), zgrid=zs)
    assert red.step is None
    with pytest.raises(ValueError, match="uniform, ascending z grid of >= 5 nodes"):
        schrodinger_residual(red, Poly(("x",), {(1,): 1}), 0.0)


def test_reduction_records_its_uniform_step():
    one, zero = Poly(("x",), {(0,): 1}), Poly(("x",), {})
    red = reduce_to_schrodinger(one, zero, zero, (-2.0, 2.0), zgrid=ZS_CENTRED)
    assert red.step == ZS_CENTRED[1] - ZS_CENTRED[0]


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
        assert model.action.preserved
        assert model.hermitian
        assert len(model.action.labels) == 2 * n + 1
        resid = matrix_example_residuals(model)
        assert max(resid) < 1e-5


@pytest.mark.parametrize("alpha, beta, n", [(2, 1, 1), (1, 2, 3), (0, 0, 2)])
def test_matrix_example_second_order_block_is_minus_2x(alpha, beta, n):
    """The exact d_x^2 block is -2x on the diagonal and absent off it, so with
    x = y^2 the second-order part is -1/2 d^2/dy^2 on each component, and the
    matrix gauge U leaves it so."""
    mop = to_matrix_operator(matrix_example_assignment(alpha, beta, n).operator())
    minus_2x = Poly.var(mop.ctx.vars, "x").scale(-2)
    assert mop.order() == 2
    assert [[e.terms.get((2,)) for e in row] for row in mop.entries] == [[minus_2x, None],
                                                                         [None, minus_2x]]


def test_matrix_example_beta_zero_degenerates():
    model = build_matrix_example(1.0, 0.0, 1,
                                 ygrid=[0.3 + i * 2e-3 for i in range(401)])
    assert model.action.preserved
    # at beta = 0 the derived potential is diagonal (no mixing terms)
    for v in model.potential:
        assert abs(v[0, 1]) < 1e-9 and abs(v[1, 0]) < 1e-9


def test_operator_p_coeffs():
    op = build_sextic(1, 0, 1, 1).operator()
    p4, p3, p2 = operator_p_coeffs(op)
    assert p4 == Poly(("x",), {(1,): 4})
    assert p3.degree() == 2 and p2.degree() == 1
