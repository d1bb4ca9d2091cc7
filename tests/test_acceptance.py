"""Acceptance criteria, one test per criterion, pinned tolerances.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per
criterion.  Every tolerance is fixed here; the symbolic checks are exact and
the numeric ones carry the stencil/quadrature budgets stated inline.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from qeslab.classify import CoeffAssignment
from qeslab.cli import run_command
from qeslab.dsl import parse_operator, print_ast
from qeslab.enveloping import burnside_span_rank
from qeslab.operators import LinOperator
from qeslab.poly import Poly
from qeslab.reps import GeneratorSet, RepSpec, root_of_unity_generators
from qeslab.scalars import QParam, Scalar
from qeslab.spaces import SpaceSpec, action_matrix, dimension, flag_actions
from qeslab.spectral import (build_matrix_example, build_sextic, eigenlaw_check,
                             matrix_example_residuals, schrodinger_residual,
                             sextic_potential, sextic_reduction, spectrum)
from qeslab.identities import verify_identity

S = Scalar
SEED = 20240901


def announce(num, ok, detail):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def verify_suite(suite, tmp_path):
    """Run `qeslab verify --suite SUITE` at SEED: its exit code and payload."""
    path = tmp_path / f"{suite}.json"
    code = run_command(["verify", "--suite", suite, "--seed", str(SEED),
                        "--json", str(path)])
    return code, json.loads(path.read_text())["payload"]


def test_criterion_01_structure_suites(tmp_path):
    t0 = time.time()
    code, report = verify_suite("structure", tmp_path)
    elapsed = time.time() - t0
    rows = report["rows"]
    failures = [(r["algebra"], r["n"]) for r in rows if not r["ok"]]
    covered = ({r["r"] for r in rows if r["algebra"] == "gl2_semi"} == {1, 2, 3, 4}
               and {r["k"] for r in rows if r["algebra"] == "so_k1"} == {2, 3})
    announce(1, code == 0 and covered and not failures and elapsed < 10,
             f"structure tables exact, {sum(r['relations'] for r in rows)} bracket "
             f"checks over {len(rows)} families (gl2_semi at r = 1..4, so_k1 at "
             f"k = 2..3: {covered}), {elapsed:.1f}s (< 10 s), failures={failures}")


def test_criterion_02_relation_suites(tmp_path):
    per_mark = {"sl2": 1, "osp22": 14, "sl3": 9, "sl2xsl2": 2, "sl2q": 1}
    t0 = time.time()
    code, report = verify_suite("relations", tmp_path)
    elapsed = time.time() - t0
    sizes = [(r["algebra"], r["r"], r["relations"] // 3) for r in report["rows"]]
    # gl2_semi's per-mark size grows with r and is not fixed here
    failures = [(a, r, k) for (a, r, k), row in zip(sizes, report["rows"])
                if not row["ok"] or k != per_mark.get(a, k)]
    covered = {a for a, _, _ in sizes} == set(per_mark) | {"gl2_semi"}
    announce(2, code == 0 and covered and not failures and elapsed < 30,
             f"relation suites exact at 3 random marks each, per-mark sizes "
             f"{sizes}, {elapsed:.1f}s (< 30 s), failures={failures}")


def test_criterion_03_parameter_counts(tmp_path):
    # sl2 9/6, sl2q 10/7, osp22 25/17 and 36/23 in matrix form, sl3 36/25,
    # sl2xsl2 26/20 (exact in x), then gl2_semi 5(r+4)/5(r+3) for r = 1..4
    family = [9, 6, 10, 7, 25, 17, 36, 23, 36, 25, 26, 20,
              25, 20, 30, 25, 35, 30, 40, 35]
    # Lemmas 1.3, 2.3, 4.4 and 4.8, then Lemma 4.12's 5r+17 for r = 1..4
    lemmas = [7, 8, 31, 22, 22, 27, 32, 37]
    t0 = time.time()
    code, report = verify_suite("params", tmp_path)
    elapsed = time.time() - t0
    got = [r["rank"] for r in report["rows"]]
    got_lemmas = [r["rank"] for r in report["lemmas"]]
    announce(3, code == 0 and got == family and got_lemmas == lemmas and elapsed < 300,
             f"all {len(got)} family counts and {len(got_lemmas)} constrained "
             f"counts equal the catalogued values, {elapsed:.1f}s (< 5 min), "
             f"counts={got}, constrained={got_lemmas}")


def test_criterion_04_case_catalogue_soundness(tmp_path):
    code, report = verify_suite("cases", tmp_path)
    rows = report["rows"]
    unexplained = [(r["rule"], r["params"], r["counterexamples"][:1])
                   for r in rows if not r["ok"]]
    for d in report["repaired_rules"]:
        print(f"   catalogue repair (validated by the oracle): {d['rule']}: {d['note']}")
    trials = [r["trials"] for r in rows]
    announce(4, code == 0 and set(trials) == {25} and not unexplained,
             f"{len(rows) // 3} rules x 3 marks x {trials[0]} trials: zero "
             f"unexplained counterexamples; {len(report['repaired_rules'])} "
             f"repaired entries enumerated above; unexplained={unexplained}")


def test_criterion_05_dimensions():
    bad = []
    for n in range(13):
        if dimension(SpaceSpec("triangle", (n,))) != (n + 1) * (n + 2) // 2:
            bad.append(("triangle", n))
    for r in (1, 2, 3, 4):
        for n in range(13):
            dimension(SpaceSpec("wedge", (r, n)))   # closed form asserted inside
    for n in range(1, 13):
        if dimension(SpaceSpec("spinor", (n, n - 1))) != 2 * n + 1:
            bad.append(("spinor", n))
    announce(5, not bad,
             "triangle/wedge/spinor dimensions equal the closed forms for "
             f"n <= 12, r <= 4; failures={bad}")


def test_criterion_06_sextic_family():
    rng = random.Random(SEED)
    zgrid = [0.1 + i * 1e-3 for i in range(2901)]
    worst_pot = 0.0
    worst_resid = 0.0
    for n in (1, 2, 3):
        for k in (0, 1):
            a = Fraction(rng.randint(1, 4), rng.choice([1, 2]))
            b = Fraction(rng.randint(-4, 4))
            red, act = sextic_reduction(n, k, a, b, zgrid)
            assert act.preserved
            ref = sextic_potential(n, k, a, b, zgrid)
            worst_pot = max(worst_pot,
                            max(abs(u - v) for u, v in zip(red.potential, ref)))
            mat = np.array([[c.to_complex().real for c in row] for row in act.matrix])
            evals, evecs = np.linalg.eig(mat)
            for j in range(len(evals)):
                phi = Poly(("x",), {(d,): Fraction(evecs[d, j]).limit_denominator(10 ** 12)
                                    for d in range(len(evals))})
                worst_resid = max(worst_resid,
                                  schrodinger_residual(red, phi, evals[j].real))
    res = action_matrix(build_sextic(1, 0, 0, 1).operator(), SpaceSpec("interval", (1,)))
    spec_ok = sorted(s.re for s in spectrum(res).exact) == [1, 5]
    sp = spectrum(action_matrix(build_sextic(1, 0, 1, 0).operator(),
                                SpaceSpec("interval", (1,))))
    pair_ok = ([str(c) for c in sp.charpoly] == ["1", "0", "-8"]
               and abs(max(r.real for r in sp.roots) - 2 * math.sqrt(2)) < 1e-10)
    announce(6, worst_pot < 1e-8 and worst_resid < 1e-6 and spec_ok and pair_ok,
             f"quartic-exponent family: potential deviation {worst_pot:.2e} "
             f"(< 1e-8), eigen-residual {worst_resid:.2e} (< 1e-6), frozen "
             f"spectra {{1,5}} and +/-2*sqrt(2) verified")


def _criterion_07_reports():
    """eigenlaw_check on 50 seeded flag-preserving sl2 quadratics."""
    rng = random.Random(SEED)
    reps = []
    for t in range(50):
        n = S(Fraction(rng.randint(-6, 12), rng.choice([1, 2, 3])))
        vals = {nm: S(Fraction(rng.randint(-9, 9), rng.choice([1, 2])))
                for nm in ("c_+-", "c_0-", "c_--", "c_0", "c_-", "c")}
        reps.append(eigenlaw_check(CoeffAssignment(RepSpec("sl2", n=n), vals), degrees=8))
    return reps


def test_criterion_07_quadratic_eigenvalue_law():
    bad = sum(not rep["ok"] for rep in _criterion_07_reports())
    announce(7, bad == 0,
             "50 seeded flag-preserving quadratics: diagonal law exactly "
             f"quadratic on degrees 0..8 (exact arithmetic), failures={bad}")


def test_criterion_08_matrix_example():
    ygrid = [0.2 + i * 1e-3 for i in range(1201)]
    results = []
    for n in (1, 2):
        model = build_matrix_example(2.0, 1.0, n, ygrid=ygrid)
        resid = matrix_example_residuals(model) if model.action.preserved else [float("inf")]
        results.append((n, model.action.preserved, model.hermitian, max(resid)))
    ok = all(p and h and r < 1e-5 for _, p, h, r in results)
    announce(8, ok,
             "matrix model preserves the (2n+1)-dimensional spinor space, "
             "sampled closed-form potential hermitian, eigen-residuals "
             + ", ".join(f"n={n}: {r:.2e}" for n, _, _, r in results)
             + " (< 1e-5)")


def test_criterion_09_identities(tmp_path):
    t0 = time.time()
    code, report = verify_suite("identities", tmp_path)
    # two rows the suite does not run: A3 at a half-integer n, A10 at n = 3
    rows = report["rows"] + [verify_identity("A3", n=Fraction(5, 2)),
                             verify_identity("A10", n=3, q=2)]
    bad = [r["id"] for r in rows if not r["ok"]]
    elapsed = time.time() - t0
    announce(9, code == 0 and not bad and elapsed < 120,
             f"identity catalogue exact at the stated budgets, {len(rows)} "
             f"checks, {elapsed:.1f}s (< 2 min), failures={bad}")


def test_criterion_10_root_of_unity_flag():
    rng = random.Random(SEED)
    ok = True
    for q, n in ((S(-1), 2), (S(0, 1), 4)):
        gens = root_of_unity_generators(n, QParam(q))
        ctx = gens["J+"].ctx
        words = [(), ("J+",), ("J0",), ("J-",), ("J+", "J+"), ("J+", "J0"),
                 ("J+", "J-"), ("J0", "J0"), ("J0", "J-"), ("J-", "J-")]
        op = LinOperator.zero(ctx)
        for w in words:
            term = LinOperator.identity(ctx)
            for name in w:
                term = term * gens[name]
            op = op + term.scale(S(rng.randint(-5, 5)))
        base = action_matrix(op, SpaceSpec("interval", (n,)))
        flag_ok = base.preserved and all(r.preserved for r in flag_actions(
            op, [SpaceSpec("interval", (n,)), SpaceSpec("interval", (2 * n,)),
                 SpaceSpec("interval", (3 * n,))]))
        ok = ok and flag_ok
    announce(10, ok,
             "root-of-unity deformations (q=-1,n=2 rational; q=i,n=4 gaussian): "
             "random quadratics preserve the n, 2n, 3n flag members exactly")


def test_criterion_11_full_matrix_span():
    ranks = {n: burnside_span_rank(n) for n in range(1, 5)}
    ok = all(ranks[n] == (n + 1) ** 2 for n in ranks)
    announce(11, ok,
             f"ordered words of degree <= n span the full matrix algebra: "
             f"{ranks} vs squares")


def test_burnside_and_eigenlaw_expand_nothing(monkeypatch):
    # criteria 07 and 11 act with generator walks, never an expanded operator
    def refuse(*args, **kwargs):
        raise AssertionError("an operator was expanded")

    monkeypatch.setattr(CoeffAssignment, "operator", refuse)
    monkeypatch.setattr(GeneratorSet, "word_op", refuse)
    assert burnside_span_rank(4) == 25
    assert all(rep["ok"] for rep in _criterion_07_reports())


def test_criterion_12_parser_and_report_determinism(tmp_path):
    import tests.test_dsl as tdsl
    rng = random.Random(0)
    ok = True
    for _ in range(500):
        ast = tdsl._rand_ast(rng)
        if parse_operator(print_ast(ast)) != ast:
            ok = False
            break
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run_command(["verify", "--suite", "relations", "--seed", "31337",
                     "--json", str(path)])
    golden = a.read_bytes() == b.read_bytes()
    announce(12, ok and golden,
             "500-case printer/parser round trip exact; repeated seeded runs "
             "produce byte-identical reports")
