"""Command-line front end: batch verification suites and one-shot queries.

Every command prints one JSON report (schema 1) built deterministically from
its inputs and the seed; exit status is 0 for a pass, 1 for a verification
failure, 2 for usage errors, 3 for an internal failure (the error report on
stderr names the failing stage), and 141 (128 + SIGPIPE, as a shell reports a
process that SIGPIPE ended) when the reader closes stdout first.  Bad input is
turned into a usage error where the arguments are read, so an error raised
inside a computation is never mistaken for one.  CSV emitters cover the
reduction outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import sys
import traceback
from contextlib import contextmanager
from fractions import Fraction
from typing import List, Sequence

from .classify import (CoeffAssignment, case_jobs, classify_grading,
                       constrained_param_count, find_rule, match_cases, match_instances,
                       target_escapes, verify_case)
from .dsl import EvalContext, ParseError, evaluate, operator_to_dsl, parse_operator, print_ast
from .enveloping import (ElementAction, burnside_span_rank, grading, make_word, param_count,
                         coefficient_shape_check, expand, verify_relations,
                         word_is_exact, words_up_to_degree)
from .identities import IDENTITY_IDS, verify_identity
from .operators import LinOperator, OpContext, commutator
from .reps import ALGEBRAS, RepSpec, make_rep, verify_structure
from .scalars import QParam, Scalar
from .spaces import SpaceSpec, action_matrix, dimension, parse_space
from .spectral import (build_matrix_example, matrix_example_residuals,
                       sextic_potential, sextic_reduction, spectrum)

SCHEMA = 1
MAX_GRID_NODES = 100_000    # z nodes of one `qeslab reduce` grid


class UsageError(ValueError):
    pass


@contextmanager
def _bad_input(what: str):
    """Read command-line input: a value it rejects is a usage error."""
    try:
        yield
    except UsageError:
        raise
    except (KeyError, ValueError, ZeroDivisionError) as e:
        raise UsageError(f"{what}: {e}") from e


def _scalar_arg(text: str | None) -> Scalar:
    if text is None:
        return Scalar(0)
    with _bad_input(f"bad number {text!r}"):
        return Scalar(Fraction(text)) if "i" not in text else Scalar.parse(text)


def _spec_from_args(args) -> RepSpec:
    if not args.algebra:
        raise UsageError("--algebra is required for this command")
    with _bad_input("bad representation"):
        q = QParam(_scalar_arg(args.q or "2")) if args.algebra == "sl2q" else None
        return RepSpec(args.algebra, n=_scalar_arg(args.n), m=_scalar_arg(args.m),
                       q=q, r=args.r, k=getattr(args, "k", 2))


def _space_arg(text: str, ctx: OpContext | None = None) -> SpaceSpec:
    """A space, which must fit the operator context ctx when one is given."""
    with _bad_input(f"bad space {text!r}"):
        s = parse_space(text)
        need = s.vars + ("theta",) * s.is_spinor()
        if ctx is not None and not set(need) <= set(ctx.all_vars):
            raise ValueError(f"the space is over {need}, the operator over {ctx.all_vars}")
        return s


def _env_from_args(args) -> EvalContext:
    if args.algebra:
        return EvalContext.for_algebra(_spec_from_args(args))
    s = _space_arg(args.space) if args.space else None
    with _bad_input("bad --vars or --q"):
        q = QParam(_scalar_arg(args.q)) if args.q else None
        if s is not None:
            return EvalContext.for_vars(s.vars, q=q, theta=s.is_spinor())
        vars = tuple(v for v in (args.vars or "x").split(",") if v)
        return EvalContext.for_vars(vars, q=q)


def _digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def emit(args, command: str, inputs: dict, payload: dict, ok: bool,
         checks: Sequence[str] = ()) -> int:
    report = {
        "schema": SCHEMA,
        "command": command,
        "inputs": inputs,
        "inputs_digest": _digest(inputs),
        "seed": args.seed,
        "checks": sorted(checks),
        "ok": ok,
        "payload": payload,
    }
    text = json.dumps(report, sort_keys=True, indent=None if args.compact else 1)
    if args.json and args.json != "-":
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if ok else 1


def _load_coeffs(args) -> CoeffAssignment:
    if args.bound < 0:
        raise UsageError(f"--bound must be at least 0, got {args.bound}")
    spec = _spec_from_args(args)
    with open(args.coeffs) as fh, _bad_input(f"bad coefficients in {args.coeffs}"):
        return CoeffAssignment.from_json(spec, json.load(fh))


# --------------------------------------------------------------------------
# individual commands

def cmd_rep(args) -> int:
    spec = _spec_from_args(args)
    gens = make_rep(spec)
    if args.action == "show":
        payload = {name: operator_to_dsl(gens.ops[name]) if _dsl_safe(gens.ops[name])
                   else str(gens.ops[name]) for name in gens.names}
        return emit(args, "rep show", _spec_inputs(spec), payload, True)
    rep = verify_structure(gens)
    if spec.algebra == "osp22":
        rep["matrix_form"] = verify_structure(gens, matrix_form=True)["ok"]
    return emit(args, "rep verify", _spec_inputs(spec), rep, rep["ok"],
                checks=[r["label"] for r in rep["relations"]])


def _dsl_safe(op: LinOperator) -> bool:
    return all(c.is_rational() for p in op.terms.values() for c in p.terms.values())


def _spec_inputs(spec: RepSpec) -> dict:
    return {"algebra": spec.algebra, "n": str(spec.n), "m": str(spec.m),
            "q": str(spec.q.q) if spec.q else None, "r": spec.r, "k": spec.k}


def cmd_parse(args) -> int:
    ast = parse_operator(args.op)
    payload = {"canonical": print_ast(ast)}
    if args.algebra or args.space or args.vars:
        env = _env_from_args(args)
        payload["operator"] = str(evaluate(ast, env))
    return emit(args, "parse", {"op": args.op}, payload, True)


def cmd_act(args) -> int:
    env = _env_from_args(args)
    op = evaluate(parse_operator(args.op), env)
    fop = evaluate(parse_operator(args.f), env)
    one = env.ctx.const(1)
    image = op.apply_poly(fop.apply_poly(one))
    return emit(args, "act", {"op": args.op, "f": args.f},
                {"image": str(image)}, True)


def cmd_commutator(args) -> int:
    env = _env_from_args(args)
    a = evaluate(parse_operator(args.a), env)
    b = evaluate(parse_operator(args.b), env)
    return emit(args, "commutator", {"a": args.a, "b": args.b},
                {"commutator": str(commutator(a, b))}, True)


def cmd_grading(args) -> int:
    spec = _spec_from_args(args)
    gens = make_rep(spec)
    names = [w.strip() for w in args.word.split(",") if w.strip()]
    with _bad_input("bad --word"):
        word = make_word(gens, names)
    gx, gy, tot = grading(word, gens)
    payload = {"word": names, "vector": [str(gx), str(gy)], "total": str(tot)}
    return emit(args, "grading", {"word": args.word, **_spec_inputs(spec)},
                payload, True)


def cmd_invariance(args) -> int:
    env = _env_from_args(args)
    s = _space_arg(args.space, env.ctx)
    op = evaluate(parse_operator(args.op), env)
    res = action_matrix(op, s)
    payload = {
        "space": str(s),
        "dimension": dimension(s),
        "preserved": res.preserved,
        "escapes": [{"source": str(e.source), "monomial": str(e.monomial),
                     "coeff": str(e.coeff)} for e in (res.escapes or [])[:20]],
    }
    return emit(args, "invariance", {"op": args.op, "space": args.space},
                payload, res.preserved)


def cmd_classify(args) -> int:
    asg = _load_coeffs(args)
    op = ElementAction(make_rep(asg.spec), asg.element())
    matches, confirmed = [], set()
    for match, targets in match_instances(asg, args.bound):
        matches.append(match)
        spaces = [(d, rows) for d, rows in targets if all(cap is None for _, cap in rows)]
        escaped = {d for d, _ in target_escapes(op, spaces)}
        confirmed.update(d for d, _ in spaces if d not in escaped)
    payload = {**classify_grading(asg), "matched_rules": matches,
               "confirmed_spaces": sorted(confirmed)}
    return emit(args, "classify", {"coeffs": asg.to_json(), **_spec_inputs(asg.spec)},
                payload, True, checks=[m["id"] for m in matches])


def cmd_match_cases(args) -> int:
    asg = _load_coeffs(args)
    matches = match_cases(asg, args.bound)
    return emit(args, "match-cases", {"coeffs": asg.to_json(), **_spec_inputs(asg.spec)},
                {"matches": matches}, True, checks=[m["id"] for m in matches])


def cmd_param_count(args) -> int:
    spec = _spec_from_args(args)
    if args.matrix and spec.algebra != "osp22":
        raise UsageError("--matrix counts are defined for osp22 only")
    res = param_count(spec, args.degree, args.variant, matrix_form=args.matrix)
    return emit(args, "param-count", {**_spec_inputs(spec), "k": args.degree,
                                      "variant": args.variant, "matrix": args.matrix},
                res, res["match"])


def cmd_spectrum(args) -> int:
    env = _env_from_args(args)
    s = _space_arg(args.space, env.ctx)
    op = evaluate(parse_operator(args.op), env)
    res = action_matrix(op, s)
    if not res.preserved:
        payload = {"preserved": False,
                   "escapes": [str((e.source, e.monomial)) for e in res.escapes[:10]]}
        return emit(args, "spectrum", {"op": args.op, "space": args.space},
                    payload, False)
    sp = spectrum(res)
    payload = {
        "preserved": True,
        "charpoly": [str(c) for c in sp.charpoly],
        "roots": sorted([f"{r.real:.12g}{r.imag:+.12g}j" for r in sp.roots]),
        "exact_roots": None if sp.exact is None else [str(e) for e in sp.exact],
        "trace_check": sp.trace_check,
    }
    return emit(args, "spectrum", {"op": args.op, "space": args.space},
                payload, sp.trace_check < 1e-9)


def _check_grid_ends(n: int, k: int, a: Fraction, b: Fraction, ends: List[float]) -> None:
    """Reduce on the grid's two end nodes alone, where its samples are
    largest: a domain or sample beyond the float range, or a node at x = 0,
    is a usage error."""
    with _bad_input(f"bad z grid [{ends[0]!r}, {ends[-1]!r}]"):
        try:
            red, _ = sextic_reduction(n, k, a, b, ends)
            samples = red.potential + red.gauge + sextic_potential(n, k, a, b, ends)
        except OverflowError as e:
            raise ValueError(f"it overflows a float ({e})") from e
        if not all(map(math.isfinite, samples)):
            raise ValueError("its samples overflow a float")


def cmd_reduce(args) -> int:
    with _bad_input(f"bad --sextic {args.sextic!r}"):
        params = dict(kv.split("=") for kv in args.sextic.split(","))
        n, k = int(params["n"]), int(params["k"])
        a, b = Fraction(params["a"]), Fraction(params["b"])
        if n < 0 or k not in (0, 1):
            raise ValueError(f"need n >= 0 and k in {{0, 1}}, got n={n}, k={k}")
    if not (args.spacing > 0 and 0 < args.zmin <= args.zmax < float("inf")):
        raise UsageError("the z grid needs --spacing > 0 and 0 < --zmin <= --zmax, "
                         f"got {args.spacing}, {args.zmin}, {args.zmax}")
    gaps = (args.zmax - args.zmin) / args.spacing
    if not gaps < MAX_GRID_NODES:
        raise UsageError(f"the z grid has more than {MAX_GRID_NODES} nodes")
    _check_grid_ends(n, k, a, b, [args.zmin, args.zmax])
    zgrid = [args.zmin + i * args.spacing for i in range(int(gaps) + 1)]
    red, act = sextic_reduction(n, k, a, b, zgrid)
    vref = sextic_potential(n, k, a, b, zgrid)
    dev = max(abs(u - v) for u, v in zip(red.potential, vref))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("z,V,A\n")
            for z, v, g in zip(red.zgrid, red.potential, red.gauge):
                fh.write(f"{z:.12g},{v:.12g},{g:.12g}\n")
    payload = {"n": n, "k": k, "a": str(a), "b": str(b),
               "closed_form_deviation": dev,
               "preserves_flag_member": act.preserved,
               "csv": args.csv}
    return emit(args, "reduce", {"sextic": args.sextic}, payload,
                act.preserved and dev < 1e-8)


def cmd_matrix_example(args) -> int:
    with _bad_input("bad --alpha, --beta or --n"):
        alpha, beta, n = float(Fraction(args.alpha)), float(Fraction(args.beta)), int(args.n)
        if n < 0:
            raise ValueError(f"need n >= 0, got {n}")
    model = build_matrix_example(alpha, beta, n)
    resid = matrix_example_residuals(model) if model.action.preserved else []
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("y,V11,V12re,V12im,V22\n")
            for y, v in zip(model.ygrid, model.potential):
                fh.write(f"{y:.12g},{v[0,0].real:.12g},{v[0,1].real:.12g},"
                         f"{v[0,1].imag:.12g},{v[1,1].real:.12g}\n")
    ok = (model.action.preserved and model.hermitian
          and bool(resid) and max(resid) < 1e-5)
    payload = {"preserved": model.action.preserved, "hermitian": model.hermitian,
               "dimension": 2 * int(args.n) + 1,
               "eigen_residuals": [f"{r:.3e}" for r in resid],
               "printed_potential_deviation": model.printed_deviation,
               "csv": args.csv}
    return emit(args, "matrix-example",
                {"alpha": args.alpha, "beta": args.beta, "n": args.n},
                payload, ok)


def cmd_identity(args) -> int:
    with _bad_input("bad --n or --q"):
        n, q = int(args.n or 1), Fraction(args.q) if args.q else 2
        QParam(q)
    if n < 0 or args.k < 1 or args.r < 1:
        raise UsageError(f"need --n >= 0, --k >= 1 and --r >= 1, got --n {n}, "
                         f"--k {args.k}, --r {args.r}")
    rep = verify_identity(args.id, n=n, q=q, r=args.r, k=args.k,
                          grassmann=args.grassmann)
    rep.pop("remainder_terms", None)
    return emit(args, "identity", {"id": args.id, "n": args.n, "q": args.q},
                rep, rep["ok"], checks=[args.id])


# --------------------------------------------------------------------------
# verification suites

def _suite_structure(args, rng) -> dict:
    rows = []
    qs = [Scalar(2), Scalar(Fraction(3, 2)), Scalar(-1)]
    for algebra in ALGEBRAS:
        for t in range(args.trials or 5):
            if algebra == "sl2q":
                q = qs[t % len(qs)]
                n = Scalar(rng.randrange(1, 13, 2) if q == Scalar(-1)
                           else rng.randint(0, 12))
                spec = RepSpec(algebra, n=n, q=QParam(q))
            else:
                n = Scalar(Fraction(rng.randint(-18, 36), rng.choice([1, 2, 3])))
                spec = RepSpec(algebra, n=n,
                               m=Scalar(Fraction(rng.randint(-12, 24), rng.choice([1, 2]))),
                               r=1 + t % 4, k=2 + t % 2)
            rep = verify_structure(make_rep(spec))
            rows.append({**_spec_inputs(spec), "ok": rep["ok"],
                         "relations": len(rep["relations"])})
    spec = RepSpec("osp22", n=Scalar(3))
    m_ok = verify_structure(make_rep(spec), matrix_form=True)
    rows.append({**_spec_inputs(spec), "algebra": "osp22 (matrix form)", "ok": m_ok["ok"],
                 "relations": len(m_ok["relations"])})
    return {"rows": rows, "ok": all(r["ok"] for r in rows)}


def _suite_relations(args, rng) -> dict:
    rows = []
    for spec in (RepSpec("sl2"), RepSpec("osp22"), RepSpec("sl3"),
                 RepSpec("sl2xsl2"), RepSpec("gl2_semi", r=1),
                 RepSpec("gl2_semi", r=2), RepSpec("gl2_semi", r=3),
                 RepSpec("gl2_semi", r=4),
                 RepSpec("sl2q", q=QParam(2)),
                 RepSpec("sl2q", q=QParam(Scalar(Fraction(3, 2))))):
        rep = verify_relations(spec, seed=rng.randint(0, 10 ** 6))
        rows.append({"algebra": spec.algebra, "r": spec.r, "ok": rep["ok"],
                     "relations": len(rep["relations"]),
                     "corrected": rep["corrected"]})
    return {"rows": rows, "ok": all(r["ok"] for r in rows)}


def _suite_params(args, rng) -> dict:
    n = Scalar(Fraction(7, 2))
    jobs = [
        (RepSpec("sl2", n=n), 2, "quasi", False),
        (RepSpec("sl2", n=n), 2, "exact", False),
        (RepSpec("sl2q", n=Scalar(5), q=QParam(2)), 2, "quasi", False),
        (RepSpec("sl2q", n=Scalar(5), q=QParam(2)), 2, "exact", False),
        (RepSpec("osp22", n=n), 2, "quasi", False),
        (RepSpec("osp22", n=n), 2, "exact", False),
        (RepSpec("osp22", n=n), 2, "quasi", True),
        (RepSpec("osp22", n=n), 2, "exact", True),
        (RepSpec("sl3", n=n), 2, "quasi", False),
        (RepSpec("sl3", n=n), 2, "exact", False),
        (RepSpec("sl2xsl2", n=n, m=Scalar(Fraction(4, 3))), 2, "quasi", False),
        (RepSpec("sl2xsl2", n=n, m=Scalar(Fraction(4, 3))), 2, "exact_x", False),
    ] + [(RepSpec("gl2_semi", n=n, r=r), 2, v, False)
         for r in (1, 2, 3, 4) for v in ("quasi", "exact")]
    rows = [param_count(spec, k, v, matrix_form=m) for spec, k, v, m in jobs]
    lemma_rows = _lemma_counts()
    return {"rows": rows, "lemmas": lemma_rows,
            "ok": all(r["match"] for r in rows) and all(r["match"] for r in lemma_rows)}


def _lemma_counts() -> List[dict]:
    jobs = [
        ("sl2", "Lemma1.3", RepSpec("sl2", n=Scalar(6)), {"n": Scalar(6), "m": 2}, 7),
        ("sl2q", "Lemma2.3", RepSpec("sl2q", n=Scalar(6), q=QParam(2)),
         {"n": Scalar(6), "m": 2}, 8),
        ("sl3", "Lemma4.4", RepSpec("sl3", n=Scalar(5)), {"n": Scalar(5), "N": 0}, 31),
        ("sl2xsl2", "Lemma4.8", RepSpec("sl2xsl2", n=Scalar(5), m=Scalar(0)),
         {"n": Scalar(5), "m": Scalar(0), "N": 2}, 22),
    ] + [("gl2_semi", "Lemma4.12", RepSpec("gl2_semi", n=Scalar(5), r=r),
          {"n": Scalar(5), "N": 0}, 5 * r + 17) for r in (1, 2, 3, 4)]
    rows = []
    for algebra, rid, spec, params, want in jobs:
        got = constrained_param_count(find_rule(spec, rid), spec, params)
        rows.append({"algebra": algebra, "rule": rid, "rank": got,
                     "paper": want, "match": got == want})
    return rows


def _suite_cases(args, rng) -> dict:
    trials = args.trials or 25
    rows = []
    discrepant = []
    for spec, rule, params, t in case_jobs(rng):
        rep = verify_case(rule, spec, params, trials=trials, seed=args.seed + t)
        rows.append({"rule": rule.id, "algebra": spec.algebra,
                     "n": str(spec.n), "params": rep["params"],
                     "trials": trials, "ok": rep["ok"],
                     "as_printed": rule.as_printed,
                     "counterexamples": rep["counterexamples"][:2]})
        if not rule.as_printed:
            discrepant.append({"rule": rule.id, "note": rule.note})
    uniq = {d["rule"]: d for d in discrepant}
    return {"rows": rows, "repaired_rules": sorted(uniq.values(), key=lambda d: d["rule"]),
            "ok": all(r["ok"] for r in rows)}


def _suite_identities(args, rng) -> dict:
    rows = []
    for n in range(7):
        rows.append(verify_identity("A1", n=n))
    for n in range(5):
        rows.append(verify_identity("A2", n=n))
        rows.append(verify_identity("A4", n=n))
        rows.append(verify_identity("A4", n=n, grassmann=True))
    rows.append(verify_identity("A3"))
    for n in range(4):
        rows.append(verify_identity("A5", n=n, k=3))
        rows.append(verify_identity("A6", n=n, k=2))
    for r in (1, 2, 3, 4):
        for n in range(5):
            rep = verify_identity("A7", n=n, r=r)
            rep.pop("remainder_terms", None)
            rows.append(rep)
    for q in (Fraction(2), Fraction(3, 2)):
        for n in range(5):
            rows.append(verify_identity("A8", n=n, q=q))
            rows.append(verify_identity("A9", n=n, q=q))
        for n in range(4):
            rows.append(verify_identity("A12", n=n, q=q))
            rows.append(verify_identity("A14", n=n, q=q))
        rows.append(verify_identity("A10", n=2, q=q))
    # base-1 limit runs
    rows.append(verify_identity("A8", n=3, q=1))
    rows.append(verify_identity("A12", n=2, q=1))
    return {"rows": rows, "ok": all(r["ok"] for r in rows)}


def _suite_shapes(args, rng) -> dict:
    rows = []
    for spec, k in ((RepSpec("sl2", n=Scalar(Fraction(9, 2))), 2),
                    (RepSpec("osp22", n=Scalar(Fraction(9, 2))), 2),
                    (RepSpec("sl2q", n=Scalar(5), q=QParam(2)), 2)):
        gens = make_rep(spec)
        for variant in ("quasi", "exact"):
            words = words_up_to_degree(gens, k)
            if variant == "exact":
                words = [w for w in words if word_is_exact(w, gens)]
            agg = expand({w: Scalar(i) for i, w in enumerate(words, 1)}, gens)
            res = coefficient_shape_check(agg, spec, k, variant)
            witness = coefficient_shape_check(
                LinOperator.mult(gens.ctx, gens.ctx.var("x", 3))
                * LinOperator.deriv(gens.ctx, "x"), spec, 1, variant)
            rows.append({"algebra": spec.algebra, "variant": variant,
                         "generic_ok": res["ok"],
                         "witness_rejected": not witness["ok"]})
    ok = all(r["generic_ok"] and r["witness_rejected"] for r in rows)
    return {"rows": rows, "ok": ok}


SUITES = {
    "structure": _suite_structure,
    "relations": _suite_relations,
    "params": _suite_params,
    "cases": _suite_cases,
    "identities": _suite_identities,
    "shapes": _suite_shapes,
}


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    if args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r}")
    if args.trials is not None and args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    if args.trials is not None and args.suite not in ("structure", "cases"):
        raise UsageError(f"--trials is read by the structure and cases suites only, "
                         f"not by {args.suite}")
    payload = SUITES[args.suite](args, rng)
    return emit(args, f"verify {args.suite}", {"suite": args.suite,
                                               "trials": args.trials},
                payload, payload["ok"], checks=[args.suite])


def cmd_burnside(args) -> int:
    if args.degree < 1:
        raise UsageError(f"--degree must be at least 1, got {args.degree}")
    rows = []
    for n in range(1, args.degree + 1):
        got = burnside_span_rank(n)
        rows.append({"n": n, "rank": got, "full": (n + 1) ** 2,
                     "ok": got == (n + 1) ** 2})
    ok = all(r["ok"] for r in rows)
    return emit(args, "burnside", {"max_n": args.degree}, {"rows": rows}, ok)


# --------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """An argument error raises UsageError, which is reported as JSON."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int,
                        default=int(os.environ.get("QESLAB_SEED", "12345")))
    shared.add_argument("--json", help="write the JSON report to a file ('-' = stdout)")
    shared.add_argument("--compact", action="store_true", help="single-line JSON")
    p = _ArgumentParser(
        prog="qeslab",
        description="Exact operator calculus for quasi-exactly-solvable "
                    "spectral problems")
    sub = p.add_subparsers(dest="command", required=True)
    sub_kw = {"parents": [shared]}

    def common(sp, op=False, env=False):
        sp.add_argument("--algebra", choices=ALGEBRAS)
        sp.add_argument("--n")
        sp.add_argument("--m", default="0")
        sp.add_argument("--q")
        sp.add_argument("--r", type=int, default=1)
        sp.add_argument("--k", type=int, default=2)
        if env:  # the variables of an operator read without --algebra
            sp.add_argument("--vars")
        if op:
            sp.add_argument("--op", required=True)

    sp = sub.add_parser("rep", **sub_kw, help="show or verify a generator family")
    sp.add_argument("action", choices=("show", "verify"))
    common(sp)
    sp.set_defaults(fn=cmd_rep)

    sp = sub.add_parser("parse", **sub_kw, help="parse an operator expression")
    common(sp, op=True, env=True)
    sp.add_argument("--space")
    sp.set_defaults(fn=cmd_parse)

    sp = sub.add_parser("act", **sub_kw, help="apply an operator to a polynomial")
    common(sp, op=True, env=True)
    sp.add_argument("--f", required=True)
    sp.add_argument("--space")
    sp.set_defaults(fn=cmd_act)

    sp = sub.add_parser("commutator", **sub_kw, help="commutator of two operator expressions")
    common(sp, env=True)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--space")
    sp.set_defaults(fn=cmd_commutator)

    sp = sub.add_parser("grading", **sub_kw, help="grading vector of an ordered word")
    common(sp)
    sp.add_argument("--word", required=True, help="comma list of generator names")
    sp.set_defaults(fn=cmd_grading)

    sp = sub.add_parser("invariance", **sub_kw, help="does the operator preserve the space?")
    common(sp, op=True, env=True)
    sp.add_argument("--space", required=True)
    sp.set_defaults(fn=cmd_invariance)

    sp = sub.add_parser("classify", **sub_kw, help="grading classification plus case matches")
    common(sp)
    sp.add_argument("--coeffs", required=True)
    sp.add_argument("--bound", type=int, default=12)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("match-cases", **sub_kw, help="catalogue rules satisfied exactly")
    common(sp)
    sp.add_argument("--coeffs", required=True)
    sp.add_argument("--bound", type=int, default=12)
    sp.set_defaults(fn=cmd_match_cases)

    sp = sub.add_parser("param-count", **sub_kw, help="exact parameter count by rank")
    sp.add_argument("--algebra", choices=ALGEBRAS)
    sp.add_argument("--n")
    sp.add_argument("--m", default="0")
    sp.add_argument("--q")
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--k", "--degree", type=int, default=2, dest="degree",
                    choices=(1, 2), metavar="K", help="polynomial degree (1 or 2)")
    sp.add_argument("--variant", default="quasi",
                    choices=("quasi", "exact", "exact_x", "exact_y"))
    sp.add_argument("--matrix", action="store_true")
    sp.set_defaults(fn=cmd_param_count)

    sp = sub.add_parser("spectrum", **sub_kw, help="exact spectrum on an invariant space")
    common(sp, op=True, env=True)
    sp.add_argument("--space", required=True)
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("reduce", **sub_kw, help="one-dimensional potential reduction")
    sp.add_argument("--sextic", required=True, metavar="n=..,k=..,a=..,b=..")
    sp.add_argument("--csv")
    sp.add_argument("--zmin", type=float, default=0.1)
    sp.add_argument("--zmax", type=float, default=3.0)
    sp.add_argument("--spacing", type=float, default=1e-3)
    sp.set_defaults(fn=cmd_reduce)

    sp = sub.add_parser("matrix-example", **sub_kw, help="the 2x2 matrix potential model")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--n", required=True)
    sp.add_argument("--csv")
    sp.set_defaults(fn=cmd_matrix_example)

    sp = sub.add_parser("identity", **sub_kw, help="verify one catalogued operator identity")
    sp.add_argument("--id", required=True, choices=IDENTITY_IDS)
    sp.add_argument("--n")
    sp.add_argument("--q")
    sp.add_argument("--r", type=int, default=2)
    sp.add_argument("--k", type=int, default=3)
    sp.add_argument("--grassmann", action="store_true")
    sp.set_defaults(fn=cmd_identity)

    sp = sub.add_parser("verify", **sub_kw, help="run a verification suite")
    sp.add_argument("--suite", required=True, choices=sorted(SUITES))
    sp.add_argument("--trials", type=int, help="trials per job (structure and cases only)")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("burnside", **sub_kw, help="full-matrix-algebra span check")
    sp.add_argument("--degree", type=int, default=4)
    sp.set_defaults(fn=cmd_burnside)

    return p


def _usage_error(message: object) -> int:
    print(json.dumps({"schema": SCHEMA, "error": str(message)}), file=sys.stderr)
    return 2


def run_command(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # --help
        return 2 if e.code else 0
    except UsageError as e:
        # the top-level parser takes no option but --help
        if argv and argv[0].startswith("-"):
            option = argv[0].partition("=")[0]
            return _usage_error(f"option {option} is placed before the command; put "
                                f"it after the command (qeslab COMMAND {option} ...)")
        return _usage_error(e)
    try:
        return args.fn(args)
    except (UsageError, ParseError, FileNotFoundError) as e:
        return _usage_error(e)
    except BrokenPipeError:
        # the reader closed stdout (`qeslab ... | head`): what is left goes to
        # devnull, so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as e:
        stage = " ".join([args.command] + [getattr(args, a) for a in ("action", "suite")
                                           if getattr(args, a, None)])
        print(json.dumps({"schema": SCHEMA, "error": f"{type(e).__name__}: {e}",
                          "internal": True, "stage": stage,
                          "traceback": traceback.format_exc()}), file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
