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
import pytest

from qeslab.classify import (CoeffAssignment, case_jobs, constrained_param_count,
                             find_rule, verify_case)
from qeslab.cli import run_command
from qeslab.dsl import parse_operator, print_ast
from qeslab.enveloping import burnside_span_rank, param_count, verify_relations
from qeslab.operators import LinOperator
from qeslab.poly import Poly
from qeslab.reps import (ALGEBRAS, GeneratorSet, RepSpec, make_rep,
                         root_of_unity_generators, verify_structure)
from qeslab.scalars import QParam, Scalar
from qeslab.spaces import SpaceSpec, action_matrix, dimension, flag_actions
from qeslab.spectral import (build_matrix_example, build_sextic, eigenlaw_check,
                             matrix_example_residuals, schrodinger_residual,
                             sextic_potential, sextic_reduction, spectrum)
from qeslab.identities import verify_A7, verify_identity

S = Scalar
SEED = 20240901


def announce(num, ok, detail):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_structure_suites():
    t0 = time.time()
    rng = random.Random(SEED)
    failures = []
    total = 0
    for algebra in ALGEBRAS:
        for trial in range(5):
            if algebra == "sl2q":
                q = [S(2), S(Fraction(3, 2)), S(-1)][trial % 3]
                n = S(rng.randrange(1, 13, 2)) if q == S(-1) else S(rng.randint(0, 12))
                spec = RepSpec(algebra, n=n, q=QParam(q))
            else:
                spec = RepSpec(
                    algebra,
                    n=S(Fraction(rng.randint(-18, 36), rng.choice([1, 2, 3]))),
                    m=S(Fraction(rng.randint(-12, 24), rng.choice([1, 2]))),
                    r=1 + trial % 4, k=2 + trial % 2)
            rep = verify_structure(make_rep(spec))
            total += len(rep["relations"])
            if not rep["ok"]:
                failures.append((algebra, str(spec.n)))
    rep = verify_structure(make_rep(RepSpec("osp22", n=S(3))), matrix_form=True)
    if not rep["ok"]:
        failures.append(("osp22-matrix", "3"))
    elapsed = time.time() - t0
    announce(1, not failures and elapsed < 10,
             f"structure tables exact, {total} bracket checks, "
             f"{elapsed:.1f}s (< 10 s), failures={failures}")


def test_criterion_02_relation_suites():
    t0 = time.time()
    counts = {}
    failures = []
    for spec, want in [
        (RepSpec("osp22"), 14), (RepSpec("sl3"), 9), (RepSpec("sl2xsl2"), 2),
        (RepSpec("gl2_semi", r=1), None), (RepSpec("gl2_semi", r=2), None),
        (RepSpec("gl2_semi", r=3), None), (RepSpec("gl2_semi", r=4), None),
        (RepSpec("sl2q", q=QParam(2)), 1),
        (RepSpec("sl2q", q=QParam(S(Fraction(3, 2)))), 1),
    ]:
        rep = verify_relations(spec, seed=SEED)
        per_mark = len(rep["relations"]) // 3
        counts[(spec.algebra, spec.r)] = per_mark
        if want is not None and per_mark != want:
            failures.append((spec.algebra, per_mark, want))
        if not rep["ok"]:
            failures.append((spec.algebra, "expansion failed"))
    elapsed = time.time() - t0
    announce(2, not failures and elapsed < 30,
             f"relation suites exact at 3 random marks each, per-mark sizes "
             f"{counts}, {elapsed:.1f}s (< 30 s), failures={failures}")


def test_criterion_03_parameter_counts():
    t0 = time.time()
    n = S(Fraction(7, 2))
    m = S(Fraction(4, 3))
    jobs = [
        (RepSpec("sl2", n=n), 2, "quasi", False, 9),
        (RepSpec("sl2", n=n), 2, "exact", False, 6),
        (RepSpec("sl2q", n=S(5), q=QParam(2)), 2, "quasi", False, 10),
        (RepSpec("sl2q", n=S(5), q=QParam(2)), 2, "exact", False, 7),
        (RepSpec("osp22", n=n), 2, "quasi", False, 25),
        (RepSpec("osp22", n=n), 2, "exact", False, 17),
        (RepSpec("osp22", n=n), 2, "quasi", True, 36),
        (RepSpec("osp22", n=n), 2, "exact", True, 23),
        (RepSpec("sl3", n=n), 2, "quasi", False, 36),
        (RepSpec("sl3", n=n), 2, "exact", False, 25),
        (RepSpec("sl2xsl2", n=n, m=m), 2, "quasi", False, 26),
        (RepSpec("sl2xsl2", n=n, m=m), 2, "exact_x", False, 20),
    ] + [(RepSpec("gl2_semi", n=n, r=r), 2, v, False,
          5 * (r + 4) if v == "quasi" else 5 * (r + 3))
         for r in (1, 2, 3, 4) for v in ("quasi", "exact")]
    bad = []
    for spec, k, variant, mat, want in jobs:
        res = param_count(spec, k, variant, matrix_form=mat)
        if res["rank"] != want or not res["match"]:
            bad.append((spec.algebra, variant, mat, res["rank"], want))
    lemmas = [
        ("Lemma1.3", RepSpec("sl2", n=S(6)), {"n": S(6), "m": 2}, 7),
        ("Lemma2.3", RepSpec("sl2q", n=S(6), q=QParam(2)), {"n": S(6), "m": 2}, 8),
        ("Lemma4.4", RepSpec("sl3", n=S(5)), {"n": S(5), "N": 0}, 31),
        ("Lemma4.8", RepSpec("sl2xsl2", n=S(5), m=S(0)),
         {"n": S(5), "m": S(0), "N": 2}, 22),
    ] + [("Lemma4.12", RepSpec("gl2_semi", n=S(5), r=r), {"n": S(5), "N": 0},
          5 * r + 17) for r in (1, 2, 3, 4)]
    for rid, spec, params, want in lemmas:
        got = constrained_param_count(find_rule(spec, rid), spec, params)
        if got != want:
            bad.append((rid, got, want))
    elapsed = time.time() - t0
    announce(3, not bad and elapsed < 300,
             f"all {len(jobs)} family counts and {len(lemmas)} constrained "
             f"counts equal the catalogued values, {elapsed:.1f}s (< 5 min), "
             f"mismatches={bad}")


def test_criterion_04_case_catalogue_soundness():
    rng = random.Random(SEED)
    trials = 25
    unexplained = []
    repaired = []
    rule_count = 0
    for spec, rule, params, t in case_jobs(rng):
        if t == 0:
            rule_count += 1
            if not rule.as_printed:
                repaired.append(f"{rule.id}: {rule.note}")
        rep = verify_case(rule, spec, params, trials=trials, seed=SEED + t)
        if not rep["ok"]:
            unexplained.append((rule.id, rep["params"],
                                rep["counterexamples"][0]["witness"]))
    for line in repaired:
        print(f"   catalogue repair (validated by the oracle): {line}")
    announce(4, not unexplained,
             f"{rule_count} rules x 3 marks x {trials} trials: zero "
             f"unexplained counterexamples; {len(repaired)} repaired entries "
             f"enumerated above; unexplained={unexplained}")


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
    spec_ok = sorted(s.re for s in
                     __import__("qeslab.spectral", fromlist=["x"]).exact_rational_eigenvalues(
                         spectrum(res))) == [1, 5]
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


def test_criterion_09_identities():
    t0 = time.time()
    bad = []

    def check(rep):
        if not rep["ok"]:
            bad.append(rep["id"])

    for n in range(7):
        check(verify_identity("A1", n=n))
    for n in range(5):
        check(verify_identity("A4", n=n))
        check(verify_identity("A4", n=n, grassmann=True))
        check(verify_identity("A2", n=n))
    for n in range(4):
        check(verify_identity("A5", n=n, k=3))
        check(verify_identity("A6", n=n, k=2))
    for r in (1, 2, 3, 4):
        for n in range(5):
            rep = verify_A7(r, n)
            if not (rep["rows_ok"] if n <= 2 else rep["top_block_ok"]):
                bad.append(f"A7(r={r},n={n})")
    for q in (2, Fraction(3, 2)):
        for n in range(5):
            check(verify_identity("A8", n=n, q=q))
            check(verify_identity("A9", n=n, q=q))
        for n in range(4):
            check(verify_identity("A12", n=n, q=q))
            check(verify_identity("A14", n=n, q=q))
    check(verify_identity("A3", n=Fraction(5, 2)))
    check(verify_identity("A10", n=3, q=2))
    elapsed = time.time() - t0
    announce(9, not bad and elapsed < 120,
             f"identity catalogue exact at the stated budgets, "
             f"{elapsed:.1f}s (< 2 min), failures={bad}")


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
