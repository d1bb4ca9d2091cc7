import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from qeslab import classify
from qeslab.classify import (CASE_FAMILIES, CaseRule, CoeffAssignment, _param_env,
                             case_jobs, classify_grading, coefficient_words,
                             conclusion_spaces, constrained_param_count, find_rule,
                             match_cases, rules_for, sample_assignment, target_escapes,
                             verify_case)
from qeslab.cli import run_command
from qeslab.enveloping import flatten_ops, words_up_to_degree
from qeslab.linalg import rref
from qeslab.operators import LinOperator, OpContext
from qeslab.reps import GeneratorSet, RepSpec, make_rep, sl2q_constants
from qeslab.scalars import ONE, QParam, Scalar, ZERO, qnumber
from qeslab.spaces import ActionResult, SpaceSpec, action_matrix, flag_actions
from tests.test_cli import CLASSIFY_COEFFS, OSP22_DIGESTS

S = Scalar


def solve(rows, rhs):
    """One exact solution of A x = b, or None when inconsistent."""
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    m, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for r, p in enumerate(pivots):
        x[p] = m[r][ncols]
    return x


def test_classify_grading_examples():
    spec = RepSpec("sl2", n=S(4))
    exact = CoeffAssignment(spec, {"c_+-": S(1), "c_0-": S(2), "c_0": S(-1), "c": S(5)})
    assert classify_grading(exact)["kind"] == "exact"
    single = CoeffAssignment(spec, {"c_+": S(1)})
    rep = classify_grading(single)
    assert rep["kind"] == "quasi" and rep["positive_words"] == ["J+"]


def test_classify_osp_exact_conditions():
    # zero out exactly the raising-side coefficients: the survivors include
    # the +1/2 words carrying a lowering odd generator
    spec = RepSpec("osp22", n=S(4))
    names = set(coefficient_words(spec))
    killed = {"c_++", "c_+0", "c_+1b", "c_+2b", "c_1b", "c_+2", "c_+J", "c_+"}
    vals = {nm: S(1) for nm in names - killed}
    rep = classify_grading(CoeffAssignment(spec, vals))
    assert rep["kind"] == "exact"
    vals["c_+"] = S(1)
    assert classify_grading(CoeffAssignment(spec, vals))["kind"] == "quasi"


def test_classify_direct_sum_subkinds():
    spec = RepSpec("sl2xsl2", n=S(3), m=S(2))
    asg = CoeffAssignment(spec, {"c_xx_0-": S(1), "c_yy_++": S(1)})
    rep = classify_grading(asg)
    assert rep["subkinds"]["type_2x"] and not rep["subkinds"]["type_2y"]
    asg2 = CoeffAssignment(spec, {"c_xy_+-": S(1)})
    rep2 = classify_grading(asg2)
    assert rep2["subkinds"]["first_type_attached"]
    assert not rep2["subkinds"]["type_2x"]


def test_classify_sl3_homogeneous_flag():
    spec = RepSpec("sl3", n=S(3))
    asg = CoeffAssignment(spec, {"c_23": S(2), "c_d": S(1)})
    rep = classify_grading(asg)
    assert rep["subkinds"]["homogeneous_flag"]
    assert not rep["subkinds"]["preserves_any_space"]
    asg2 = CoeffAssignment(spec, {"c_d.td": S(1)})
    assert classify_grading(asg2)["subkinds"]["preserves_any_space"]


def test_match_cases_one_variable():
    spec = RepSpec("sl2", n=S(4))
    asg = CoeffAssignment(spec, {"c_+0": S(1), "c_+": S(1), "c_0-": S(2)})
    hits = match_cases(asg)
    assert [(h["id"], h["params"]) for h in hits] == [("Lemma1.3", {"m": "1"})]
    assert "interval:1" in hits[0]["conclusions"]


def test_match_cases_deformed():
    q = QParam(2)
    spec = RepSpec("sl2q", n=S(3), q=q)
    factor = sl2q_constants(spec)[2] - qnumber(2, q)
    asg = CoeffAssignment(spec, {"c_+0": S(1), "c_+": factor, "c_--": S(1)})
    hits = match_cases(asg)
    assert any(h["id"] == "Lemma2.3" and h["params"] == {"m": "2"} for h in hits)


def test_match_cases_superalgebra():
    spec = RepSpec("osp22", n=S(3))
    # I.1.1 instance: (n+2) c_+0 + n c_+J + 2 c_+ = 0 and
    # (n+1) c_02b + 2 c_2b = 0 with the class conditions
    asg = CoeffAssignment(spec, {
        "c_+2": S(1), "c_+0": S(2), "c_+J": S(-1), "c_+": S(Fraction(-7, 2)),
        "c_02b": S(1), "c_2b": S(-2), "c_0-": S(3)})
    hits = match_cases(asg)
    ids = {h["id"] for h in hits}
    assert "I.1.1" in ids
    hit = next(h for h in hits if h["id"] == "I.1.1")
    assert "spinor:3,2" in hit["conclusions"] and "spinor:4,2" in hit["conclusions"]


def test_match_cases_rectangle_family():
    spec = RepSpec("sl2xsl2", n=S(4), m=S(2))
    # Lemma with N = 1: c_x_+ = (n/2 - N) c_xx_+0 + (m/2 - j) c_xy_+0 at all j
    asg = CoeffAssignment(spec, {
        "c_xx_+0": S(1), "c_x_+": S(1), "c_yy_0-": S(2)})
    hits = match_cases(asg)
    assert any(h["id"] == "Lemma4.8" and h["params"] == {"N": "1"} for h in hits)
    hit = next(h for h in hits if h["id"] == "Lemma4.8")
    assert "rectangle:4,2" in hit["conclusions"]
    assert "rectangle:1,2" in hit["conclusions"]


def test_noninteger_branch():
    spec = RepSpec("osp22", n=S(5))
    # (n+4+2m) c_+0 + n c_+J + 2 c_+ = 0 solved by non-integer m
    asg = CoeffAssignment(spec, {"c_+2": S(1), "c_+0": S(2), "c_+": S(-10)})
    hits = match_cases(asg)
    hit = next((h for h in hits if h["id"] == "I.1.2b"), None)
    assert hit is not None and Fraction(hit["params"]["m"]).denominator > 1


def test_sl2q_catalogue_constants_at_the_params_own_marks():
    # q_nhat is nhat at the params' mark n (n/2 at base 1), not at int(n)
    spec = RepSpec("sl2q", n=S(Fraction(5, 2)), q=QParam(1))
    env = _param_env(spec, {"n": Fraction(5, 2), "m": 2})
    assert env["q_nhat"] == S(Fraction(5, 4)) and env["q_m"] == S(2)
    env = _param_env(spec, {"n": Fraction(5, 2), "m": Fraction(3, 2)})
    assert env["q_m"] == S(Fraction(3, 2))
    spec = RepSpec("sl2q", n=S(3), q=QParam(2))
    env = _param_env(spec, {"n": S(3), "m": 2})
    assert env["q_m"] == S(3) and env["q_nhat"] == S(Fraction(7 * 15, 255))
    with pytest.raises(ValueError):
        _param_env(spec, {"n": S(3), "m": Fraction(3, 2)})


def test_verify_case_examples():
    spec = RepSpec("sl2", n=S(5))
    rule = find_rule(spec, "Lemma1.3")
    rep = verify_case(rule, spec, {"n": S(5), "m": 2}, trials=25, seed=3)
    assert rep["ok"] and rep["trials"] == 25
    spec = RepSpec("osp22", n=S(4))
    rule = find_rule(spec, "II.2.1")
    rep = verify_case(rule, spec, {"n": S(4), "m": 0}, trials=25, seed=3)
    assert rep["ok"]
    assert any(t.startswith("spinor:3,3") for t in rep["targets"])
    rule = find_rule(spec, "III.2.2")
    rep = verify_case(rule, spec, {"n": S(4), "m": 0}, trials=10, seed=3)
    assert rep["ok"]
    assert sum("flag member" in t for t in rep["targets"]) == 5


def test_escape_witness_reported():
    spec = RepSpec("osp22", n=S(4))
    rule = find_rule(spec, "I.1.1")
    # break the predicate on purpose: drop the second equation
    asg = sample_assignment(rule, spec, {"n": S(4)}, random.Random(0))
    vals = dict(asg.values)
    vals["c_2b"] = vals.get("c_2b", ZERO) + S(1)    # violates (n+1)c_02b + 2c_2b
    broken = CoeffAssignment(spec, vals)
    res = action_matrix(broken.operator(), SpaceSpec("spinor", (5, 3)))
    assert not res.preserved and res.escapes[0].coeff != ZERO


# a copy of the benchmark's negative control: no predicate, and it concludes
# the interval below the sl2 module's own, which J+ leaves
CONTROL_RULE = CaseRule(
    "sl2", "control/P(n-1)", free=[], free_max={}, requires_zero=[],
    requires_nonzero=["c_+"], equations=[],
    conclusions=[{"kind": "interval", "p": [{"n": "1", "1": "-1"}]}])


def _i11_without_second_equation():
    rule = find_rule(RepSpec("osp22"), "I.1.1")
    return dataclasses.replace(rule, equations=rule.equations[:1])


def test_every_catalogue_rule_is_certified():
    jobs = list(case_jobs(random.Random(7)))
    assert {spec.algebra for spec, _, _, _ in jobs} == {s.algebra for s in CASE_FAMILIES}
    for spec, rule, params, t in jobs:
        rep = verify_case(rule, spec, params, trials=1, seed=t)
        assert rep["certified"] is True and rep["ok"], (rule.id, rep["params"])


def test_control_rule_is_not_certified():
    spec = RepSpec("sl2", n=S(6))
    rep = verify_case(CONTROL_RULE, spec, {"n": spec.n}, trials=25, seed=7)
    assert rep["certified"] is False and not rep["ok"]
    assert len(rep["counterexamples"]) == 25
    assert rep["counterexamples"][0]["witness"] == "((4,), 0) -> (6,) (coeff 6)"


def test_broken_predicate_is_not_certified():
    spec = RepSpec("osp22", n=S(4))
    rep = verify_case(_i11_without_second_equation(), spec, {"n": spec.n}, trials=5, seed=1)
    assert rep["certified"] is False and not rep["ok"] and rep["counterexamples"]


def test_odd_row_overflow_is_not_certified():
    # without its zero conditions, I.1.2b's operators push the odd row of
    # spin(N, n-1) past n-1, so its unbounded-even conclusion fails
    rule = find_rule(RepSpec("osp22"), "I.1.2b")
    loose = dataclasses.replace(rule, requires_zero=[])
    for n in (4, 5, 7):
        spec = RepSpec("osp22", n=S(n), m=S(2))
        params = {"n": spec.n, "m": spec.m}
        rep = verify_case(loose, spec, params, trials=6, seed=3)
        assert rep["certified"] is False and not rep["ok"], n
        assert [c["trial"] for c in rep["counterexamples"]] == list(range(6)), n
        assert {c["witness"] for c in rep["counterexamples"]} == {"odd-row overflow"}, n
        assert verify_case(rule, spec, params, trials=6, seed=3)["certified"] is True, n
        # the target is described by its instantiated odd-row mark M = n - 1
        assert [d for d, rows in conclusion_spaces(rule, spec, params)
                if rows[0][1] is not None] == [f"unbounded-even spinor rows M={n - 1}"], n


def test_unbounded_even_rows_bound():
    # I.1.2b's rows spin(7, 3) and spin(9, 3) at n = 4 may reach even degree
    # N+2, but no higher, and their odd row may not grow at all
    spec = RepSpec("osp22", n=S(4))
    targets = conclusion_spaces(find_rule(spec, "I.1.2b"), spec, {"n": spec.n})[1:]
    rows = [(SpaceSpec("spinor", (7, 3)), 9), (SpaceSpec("spinor", (9, 3)), 11)]
    assert targets == [("unbounded-even spinor rows M=3", rows)]
    ctx = OpContext(["x"], theta=True)
    theta = ctx.var("theta")

    def escapes(op):
        return [w for _, w in target_escapes(op, targets)]

    def even_only(p):          # x^p on the even row, zero on the odd one
        return LinOperator(ctx, {(0, 0): ctx.var("x", p), (0, 1): ctx.const(-1) * ctx.var("x", p) * theta})

    assert escapes(even_only(2)) == []
    assert escapes(even_only(3)) == ["odd-row overflow"]
    assert escapes(LinOperator.mult(ctx, ctx.var("x"))) == ["odd-row overflow"]


def test_one_parameter_environment_per_instance(monkeypatch):
    # the equation rows and the concluded spaces of an instance (flag members
    # and unbounded-even rows included) come from one environment each
    built = []
    param_env = classify._param_env

    def counted(spec, params):
        built.append(params)
        return param_env(spec, params)

    monkeypatch.setattr(classify, "_param_env", counted)
    spec = RepSpec("osp22", n=S(6))
    for rid, params in (("I.1.2b", {"n": spec.n, "m": Fraction(7, 2)}),
                        ("I.1.3", {"n": spec.n})):
        built.clear()
        rep = verify_case(find_rule(spec, rid), spec, params, trials=1)
        assert rep["certified"] is True and len(built) <= 2, (rid, len(built))


def test_vacuous_rule_raises():
    spec = RepSpec("sl2", n=S(5))
    rule = dataclasses.replace(find_rule(spec, "Lemma1.3"), requires_zero=["c_++"],
                               requires_nonzero=["c_++"])
    with pytest.raises(RuntimeError,
                       match="^could not sample a nondegenerate assignment for Lemma1.3$"):
        verify_case(rule, spec, {"n": S(5), "m": 2})


def test_certified_rule_draws_nothing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a certified rule drew a trial assignment")

    monkeypatch.setattr(classify, "_draw", no_draw)
    spec = RepSpec("sl2", n=S(5))
    rep = verify_case(find_rule(spec, "Lemma1.3"), spec, {"n": S(5), "m": 2})
    assert rep["certified"] is True and rep["ok"] and rep["trials"] == 25


def test_oracle_expands_no_operator(monkeypatch):
    # the certificate and the trials act by generator walks
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle expanded an operator")

    monkeypatch.setattr(CoeffAssignment, "operator", refuse)
    monkeypatch.setattr(GeneratorSet, "word_op", refuse)
    spec = RepSpec("sl2", n=S(5))
    rep = verify_case(find_rule(spec, "Lemma1.3"), spec, {"n": S(5), "m": 2})
    assert rep["certified"] is True and rep["ok"]
    spec = RepSpec("sl2", n=S(6))
    rep = verify_case(CONTROL_RULE, spec, {"n": spec.n}, trials=25, seed=7)
    assert rep["certified"] is False and len(rep["counterexamples"]) == 25


def test_oracle_builds_no_dense_matrix(monkeypatch, tmp_path):
    # the certificate, the trials and `qeslab classify` read escapes only
    def refuse(self):
        raise AssertionError("the oracle built a dense action matrix")

    monkeypatch.setattr(ActionResult, "matrix", property(refuse))
    spec = RepSpec("sl2", n=S(5))
    rep = verify_case(find_rule(spec, "Lemma1.3"), spec, {"n": S(5), "m": 2})
    assert rep["certified"] is True and rep["ok"]
    spec = RepSpec("sl2", n=S(6))
    rep = verify_case(CONTROL_RULE, spec, {"n": spec.n}, trials=25, seed=7)
    assert rep["certified"] is False and len(rep["counterexamples"]) == 25
    monkeypatch.delenv("QESLAB_SEED", raising=False)
    coeffs, report = tmp_path / "coeffs.json", tmp_path / "report.json"
    coeffs.write_text(json.dumps(CLASSIFY_COEFFS))
    argv = ("classify", "--algebra", "osp22", "--n", "3", "--coeffs", "COEFFS")
    args = [str(coeffs) if a == "COEFFS" else a for a in argv]
    assert run_command(args + ["--json", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == OSP22_DIGESTS[argv]


def _reference_witnesses(rule, spec, params, trials, seed):
    """The sampled oracle alone: every trial's operator on every space."""
    gens = make_rep(spec)
    out = []
    for t in range(trials):
        rng = random.Random((seed, rule.id, str(params), t).__str__())
        op = sample_assignment(rule, spec, params, rng).operator(gens)
        for desc, [(space, _)] in conclusion_spaces(rule, spec, params):
            res = action_matrix(op, space)
            if not res.preserved:
                esc = res.escapes[0]
                out.append((t, desc, f"{esc.source} -> {esc.monomial} (coeff {esc.coeff})"))
    return out


def test_certificate_agrees_with_sampling():
    picked = {"Lemma1.3", "Lemma2.3", "I.1.3", "I.3.4", "II.2.1", "Lemma4.4",
              "Lemma4.8", "Lemma4.12"}
    cases = [(rule, spec, params) for spec, rule, params, t in case_jobs(random.Random(11))
             if t == 0 and rule.id in picked]
    assert len({spec.algebra for _, spec, _ in cases}) == 6
    spec6, spec4 = RepSpec("sl2", n=S(6)), RepSpec("osp22", n=S(4))
    cases += [(CONTROL_RULE, spec6, {"n": spec6.n}),
              (_i11_without_second_equation(), spec4, {"n": spec4.n})]
    for rule, spec, params in cases:
        rep = verify_case(rule, spec, params, trials=5, seed=2)
        want = _reference_witnesses(rule, spec, params, 5, 2)
        got = [(c["trial"], c["space"], c["witness"]) for c in rep["counterexamples"]]
        assert got == want, rule.id
        assert rep["ok"] == (not want) == rep["certified"], rule.id


# sha256 of the JSON list of verify_case counterexamples (witness strings,
# assignments and their order), taken before the oracle acted by generator
# walks: a change of the image-term order shows here
WITNESS_DIGESTS = {
    ("control", 5, 1): "74ff0aa78a18991bd203cb4c7cd3a99541a96f150f09c75fb0252d0687d7a1b8",
    ("control", 5, 2): "dc60c571987ff9ef74f082526779d293c5b45aeaa3c1ddb61bdeec328bce9038",
    ("control", 5, 3): "301fc85af56ee07f2820d03ee466e3deb0b4e665a84b811e5feaef5e4687e533",
    ("control", 6, 1): "5d2b75c3f52dc60f371fd61406a84e1a503a00e9cc797e59ab85a0e02d0f70ea",
    ("control", 6, 2): "fd4ab509ce6a2576c91b3eebd91779145eb1affc441894dfed4a5afb66703662",
    ("control", 6, 3): "8917d2af34d4924de6df00a1f1d9898dc07570d6169198230f688996a53a7c32",
    ("control", 7, 1): "5788e26eae59e9bcad46dcd1205cf1c23075384a334db3831652206102b6e846",
    ("control", 7, 2): "f6cc58e001581b105326852602b831f91d06a6404df312ffcc8bc18ca0e55ad2",
    ("control", 7, 3): "e35731dbd0346e79cbd70c77f9487e756a43b6cbe332a160e801783ad5149216",
    ("loose I.1.2b", 4, 3): "cb3f82f0fdb80ef0638b90a7d0b14f7da8ec7283d76215119cad02acd2b1e8fa",
    ("loose I.1.2b", 5, 3): "f168e2f58fe7aa9927b0a382d8b7a7dd530ea9cf5af6e4fda3cf98af659a014c",
    ("loose I.1.2b", 7, 3): "8230051a08d9b7822949e2312f450b8a0731d1b92d06c56a7b58feacc1dfd847",
}


def test_witnesses_pinned():
    loose = dataclasses.replace(find_rule(RepSpec("osp22"), "I.1.2b"), requires_zero=[])
    for (kind, n, seed), want in WITNESS_DIGESTS.items():
        if kind == "control":
            spec = RepSpec("sl2", n=S(n))
            rep = verify_case(CONTROL_RULE, spec, {"n": spec.n}, trials=25, seed=seed)
        else:
            spec = RepSpec("osp22", n=S(n), m=S(2))
            rep = verify_case(loose, spec, {"n": spec.n, "m": spec.m}, trials=6, seed=seed)
        got = hashlib.sha256(json.dumps(rep["counterexamples"]).encode()).hexdigest()
        assert got == want, (kind, n, seed)


def test_constrained_counts():
    assert constrained_param_count(
        find_rule(RepSpec("sl2"), "Lemma1.3"),
        RepSpec("sl2", n=S(6)), {"n": S(6), "m": 2}) == 7
    assert constrained_param_count(
        find_rule(RepSpec("sl2q", q=QParam(2)), "Lemma2.3"),
        RepSpec("sl2q", n=S(6), q=QParam(2)), {"n": S(6), "m": 2}) == 8


def test_reexpression_through_the_second_mark():
    # when the double-preservation predicate holds, the operator is also a
    # quadratic word combination over the representation at the second mark
    rng = random.Random(8)
    n, m = 7, 3
    spec_n = RepSpec("sl2", n=S(n))
    rule = find_rule(spec_n, "Lemma1.3")
    asg = sample_assignment(rule, spec_n, {"n": S(n), "m": m}, rng)
    target = asg.operator()
    gens_m = make_rep(RepSpec("sl2", n=S(m)))
    basis_ops = [CoeffAssignment(RepSpec("sl2", n=S(m)), {}).operator(gens_m)]
    words = words_up_to_degree(gens_m, 2)
    assert len(words) == 10
    from qeslab.enveloping import expand_word
    basis_ops = [expand_word(gens_m, w) for w in words]
    flat = flatten_ops(basis_ops + [target])
    cols, rhs = flat[:-1], flat[-1]
    a = [[cols[j][i] for j in range(len(cols))] for i in range(len(rhs))]
    sol = solve(a, rhs)
    assert sol is not None     # the 10-coefficient system is solvable exactly


def test_completeness_spot_check():
    # a generic operator violating every predicate preserves no catalogued
    # second space (bounded size), in at least 95 of 100 seeded trials
    spec = RepSpec("osp22", n=S(4))
    names = sorted(coefficient_words(spec))
    gens = make_rep(spec)
    rng = random.Random(12345)
    second_spaces = []
    for N in range(9):
        for M in range(-1, 9):
            if (N, M) != (4, 3) and N + M + 2 <= 10:
                try:
                    second_spaces.append(SpaceSpec("spinor", (N, M)))
                except ValueError:
                    pass
    hits = 0
    trials = 100
    for t in range(trials):
        asg = CoeffAssignment(spec, {nm: S(rng.randint(-6, 6)) for nm in names})
        if match_cases(asg, bound=8):
            continue      # predicate satisfied by accident; skip
        op = asg.operator(gens)
        if any(res.preserved for res in flag_actions(op, second_spaces)):
            hits += 1
    assert hits <= 5, f"{hits} generic operators preserved a second space"


def test_rules_catalogue_size():
    assert len(rules_for(RepSpec("sl2"))) == 1
    assert len(rules_for(RepSpec("sl2q", q=QParam(2)))) == 1
    assert len(rules_for(RepSpec("osp22"))) == 27     # 26 cases + one branch
    assert len(rules_for(RepSpec("sl3"))) == 1
    assert len(rules_for(RepSpec("sl2xsl2"))) == 1
    assert len(rules_for(RepSpec("gl2_semi", r=3))) == 1


def test_rules_for_returns_fresh_rules():
    spec = RepSpec("osp22")
    first = rules_for(spec)
    want = [(r.id, repr(r.conclusions)) for r in first]
    first[0].conclusions[0]["kind"] = "corrupted"
    first[0].conclusions.append({"kind": "interval", "p": []})
    first[1].conclusions.clear()
    assert [(r.id, repr(r.conclusions)) for r in rules_for(spec)] == want
    # the semidirect family names its top ideal coefficient after its width
    rule = rules_for(RepSpec("gl2_semi", r=3))[0]
    assert "c_4.8" in rule.requires_zero and "c_4.R" not in repr(rule)


def test_case_jobs_pinned():
    # the criterion-04 sweep at its seed: 32 rules x 3 marks
    jobs = list(case_jobs(random.Random(20240901)))
    assert len(jobs) == 96
    assert [s.algebra for s, _, _, t in jobs if t == 0] == \
        ["sl2", "sl2q"] + ["osp22"] * 27 + ["sl3", "sl2xsl2", "gl2_semi"]
    spec, rule, params, t = jobs[0]
    assert (rule.id, spec.n, params, t) == ("Lemma1.3", S(8), {"n": S(8), "m": S(4)}, 0)
    spec, rule, params, t = jobs[-1]
    assert (rule.id, spec.algebra, spec.r, t) == ("Lemma4.12", "gl2_semi", 2, 2)
    assert params == {"n": S(6), "m": S(5), "N": 1}


def test_exact_classification_implies_exact_shape():
    from qeslab.enveloping import coefficient_shape_check
    rng = random.Random(6)
    spec = RepSpec("sl2", n=S(Fraction(9, 2)))
    for _ in range(10):
        vals = {nm: S(rng.randint(-5, 5))
                for nm in ("c_+-", "c_0-", "c_--", "c_0", "c_-", "c")}
        asg = CoeffAssignment(spec, vals)
        assert classify_grading(asg)["kind"] == "exact"
        chk = coefficient_shape_check(asg.operator(), spec, 2, "exact")
        assert chk["ok"], chk
