"""Grading classification and the double-preservation case catalogue.

The second-order operator families are parameterized by named coefficients
(one per ordered generator pair, plus linear and constant terms).  The case
catalogue (data/cases.json) stores each rule's linear predicate and concluded
invariant spaces as data; match_instances yields each rule instance an
assignment satisfies, with its targets, which match_cases lists and the
classify command confirms; verify_case proves each instance it is given
before it samples anything.
An instance's equation rows and concluded targets are each read from one
parameter environment (_param_env), with flag and forall indices bound into
copies of it.  A concluded target is a list of rows (space, cap): a space is
its one row with cap None, and an unbounded-even spinor conclusion is its two
rows spin(N, M), each capped at the even degree N+2 its images may reach.

The certificate.  A rule's predicate is linear in the coefficients, so its
satisfying assignments are the span of a nullspace basis.  Expansion to an
operator is linear in the assignment, and so is the action on a polynomial;
a space is preserved by a sum of operators that each preserve it.  So if
every basis operator maps every concluded space into itself, every operator
that satisfies the predicate does too, and the rule is certified at that
instance ("certified": true).  requires_nonzero only removes assignments, so
it cannot break the certificate; that it leaves some assignment is checked
exactly on the basis.  The certificate covers the concluded spaces as
instantiated: the flag, sequence and family conclusions up to FLAG_PREFIX
members, and for an unbounded-even spinor conclusion only its two rows, not
every N.  Only an uncertified rule draws its seeded trials, which supply the
counterexample witnesses.  target_escapes is the one escape check: the
certificate, the trials and the classify command all go through it, with
elements that act by generator walks (enveloping.ElementAction), so the
oracle expands no operator.

The J-sign note from the enveloping module applies here too: the catalogue's
coefficients multiply products of generators in the printed order, with the
superalgebra's central generator carrying the body-convention sign.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .enveloping import (ElementAction, body_signed, expand, free_parameters, grading,
                         word_is_exact)
from .freealg import FreeExpr, Word
from .linalg import nullspace
from .operators import LinOperator
from .reps import GeneratorSet, RepSpec, make_rep, sl2q_constants
from .scalars import ONE, QParam, Scalar, ZERO, qnumber
from .spaces import Escape, SpaceSpec, flag_actions

# members of a flag, sequence or family conclusion that the oracle checks
FLAG_PREFIX = 5

# --------------------------------------------------------------------------
# coefficient bases: name -> generator word (composed in the printed order)

OSP_WORDS: Dict[str, Word] = {
    "c_++": ("T+", "T+"), "c_+0": ("T+", "T0"), "c_+-": ("T+", "T-"),
    "c_0-": ("T0", "T-"), "c_--": ("T-", "T-"),
    "c_+J": ("T+", "J"), "c_0J": ("T0", "J"), "c_-J": ("T-", "J"),
    "c_+1b": ("T+", "Qb1"), "c_+2": ("T+", "Q2"), "c_+1": ("T+", "Q1"),
    "c_+2b": ("T+", "Qb2"), "c_01": ("T0", "Q1"), "c_02b": ("T0", "Qb2"),
    "c_-1": ("T-", "Q1"), "c_-2b": ("T-", "Qb2"),
    "c_+": ("T+",), "c_0": ("T0",), "c_-": ("T-",), "c_J": ("J",),
    "c_1": ("Q1",), "c_2": ("Q2",), "c_1b": ("Qb1",), "c_2b": ("Qb2",),
    "c": (),
}

SL2_WORDS: Dict[str, Word] = {
    "c_++": ("J+", "J+"), "c_+0": ("J+", "J0"), "c_+-": ("J+", "J-"),
    "c_0-": ("J0", "J-"), "c_--": ("J-", "J-"),
    "c_+": ("J+",), "c_0": ("J0",), "c_-": ("J-",), "c": (),
}


def coefficient_words(spec: RepSpec) -> Dict[str, Word]:
    """The named second-order coefficient basis of one algebra family."""
    if spec.algebra == "osp22":
        return dict(OSP_WORDS)
    if spec.algebra in ("sl2", "sl2q"):
        return dict(SL2_WORDS)
    if spec.algebra == "sl3":
        tags = ["13", "12", "23", "32", "d", "td", "31", "21"]
        out: Dict[str, Word] = {}
        for i, a in enumerate(tags):
            for b in tags[i:]:
                out[f"c_{a}.{b}"] = (f"J{a}", f"J{b}")
        for a in tags:
            out[f"c_{a}"] = (f"J{a}",)
        out["c"] = ()
        return out
    if spec.algebra == "sl2xsl2":
        tags = ["+", "0", "-"]
        out = {}
        for i, a in enumerate(tags):
            for b in tags[i:]:
                out[f"c_xx_{a}{b}"] = (f"Jx{a}", f"Jx{b}")
                out[f"c_yy_{a}{b}"] = (f"Jy{a}", f"Jy{b}")
        for a in tags:
            for b in tags:
                out[f"c_xy_{a}{b}"] = (f"Jx{a}", f"Jy{b}")
        for a in tags:
            out[f"c_x_{a}"] = (f"Jx{a}",)
            out[f"c_y_{a}"] = (f"Jy{a}",)
        out["c"] = ()
        return out
    if spec.algebra == "gl2_semi":
        ids = list(range(1, 6 + spec.r))
        out = {}
        for i in ids:
            for j in ids:
                if i <= j:
                    out[f"c_{i}.{j}"] = (f"J{i}", f"J{j}")
        for i in ids:
            out[f"c_{i}"] = (f"J{i}",)
        out["c"] = ()
        return out
    raise ValueError(f"no coefficient catalogue for {spec.algebra}")


@dataclass
class CoeffAssignment:
    spec: RepSpec
    values: Dict[str, Scalar]

    def __post_init__(self):
        names = coefficient_words(self.spec)
        unknown = set(self.values) - set(names)
        if unknown:
            raise KeyError(f"unknown coefficient names: {sorted(unknown)}")
        self.values = {k: Scalar.of(v) for k, v in self.values.items()
                       if not Scalar.of(v).is_zero()}

    def get(self, name: str) -> Scalar:
        return self.values.get(name, ZERO)

    def operator(self, gens: GeneratorSet | None = None) -> LinOperator:
        return expand(self.element(), gens or make_rep(self.spec))

    def element(self) -> FreeExpr:
        """env_words in the stored sign convention of the generators."""
        return body_signed(self.spec.algebra, self.env_words())

    def env_words(self) -> FreeExpr:
        """The assignment as an enveloping-algebra element, in the body
        convention of the coefficient names."""
        words = coefficient_words(self.spec)
        return {words[name]: c for name, c in self.values.items()}

    def to_json(self) -> dict:
        return {name: str(c) for name, c in sorted(self.values.items())}

    @classmethod
    def from_json(cls, spec: RepSpec, data: Dict[str, str]) -> "CoeffAssignment":
        if not isinstance(data, dict):
            raise ValueError(f"need a JSON object of coefficient strings, got {data!r}")
        for k, v in data.items():
            if not isinstance(v, str):
                raise ValueError(f"coefficient {k!r} needs a string value, got {v!r}")
        return cls(spec, {k: Scalar.parse(v) for k, v in data.items()})


# --------------------------------------------------------------------------
# grading classification

def classify_grading(assignment: CoeffAssignment) -> dict:
    """Exact-solvability verdict word by word, per the family's grading rule:
    {"kind": exact | quasi, "positive_words", "subkinds"}."""
    spec = assignment.spec
    gens = make_rep(spec)
    positive: List[str] = []
    all_exact = True
    subkind_names = {"sl2xsl2": ("x", "y", "total")}.get(spec.algebra, ())
    sub: Dict[str, bool] = {v: True for v in subkind_names}
    zero_total = True
    zero_vector = True
    for word in assignment.env_words():
        gx, gy, tot = grading(word, gens)
        if tot != 0:
            zero_total = False
        if (gx, gy) != (0, 0):
            zero_vector = False
        if not word_is_exact(word, gens):
            all_exact = False
            if tot > 0:
                positive.append("*".join(word) if word else "1")
        for v in subkind_names:
            if not word_is_exact(word, gens, v):
                sub[v] = False
    kind = "exact" if all_exact else "quasi"
    if spec.algebra == "sl3":
        sub["homogeneous_flag"] = zero_total
        sub["preserves_any_space"] = zero_vector
    if spec.algebra == "sl2xsl2":
        sub = {"type_2x": sub["x"], "type_2y": sub["y"], "first_type_attached": sub["total"]}
        kind = "exact" if (sub["type_2x"] or sub["type_2y"]) else "quasi"
    return {"kind": kind, "positive_words": positive, "subkinds": sub}


# --------------------------------------------------------------------------
# catalogue loading and predicate evaluation

@lru_cache(maxsize=None)
def _catalogue() -> str:
    """The text of data/cases.json, read once per process."""
    return resources.files("qeslab.data").joinpath("cases.json").read_text()


@dataclass
class CaseRule:
    algebra: str
    id: str
    free: List[str]
    free_max: Dict[str, dict]
    requires_zero: List[str]
    requires_nonzero: List[str]
    equations: List[dict]                  # normalized: {forall|None, terms}
    conclusions: List[dict]
    noninteger_solve: Optional[dict] = None
    as_printed: bool = True
    note: str = ""

    @classmethod
    def from_json(cls, algebra: str, data: dict) -> "CaseRule":
        eqs = []
        for eq in data.get("equations", []):
            if isinstance(eq, dict):
                eqs.append({"forall": eq.get("forall"), "terms": eq["terms"]})
            else:
                eqs.append({"forall": None, "terms": eq})
        return cls(algebra, data["id"], data.get("free", []),
                   data.get("free_max", {}), data.get("requires_zero", []),
                   data.get("requires_nonzero", []), eqs,
                   data["conclusions"], data.get("noninteger_solve"),
                   data.get("as_printed", True), data.get("note", ""))


def rules_for(spec: RepSpec) -> List[CaseRule]:
    """Fresh rules of one family: callers may change them freely.  The
    semidirect family's top ideal coefficient c_4.R is named for its width."""
    top = f"c_4.{5 + spec.r}" if spec.algebra == "gl2_semi" else "c_4.R"
    data = json.loads(_catalogue().replace("c_4.R", top))
    return [CaseRule.from_json(spec.algebra, rule)
            for rule in data["catalogues"].get(spec.algebra, [])]


def _affine(expr: Dict[str, str], env: Dict[str, Scalar]) -> Scalar:
    out = ZERO
    for token, weight in expr.items():
        w = Scalar(Fraction(weight))
        out = out + w * env[token]
    return out


def _param_env(spec: RepSpec, params: Dict[str, object]) -> Dict[str, Scalar]:
    env: Dict[str, Scalar] = {"1": ONE, "r": Scalar(spec.r)}
    for key in ("n", "m", "k", "N"):
        if key in params:
            env[key] = Scalar.of(params[key])
    if "n" in params:
        env["n/r"] = Scalar.of(params["n"]) / Scalar(spec.r)
    if spec.algebra == "sl2q" and "m" in params:
        mm = Scalar.of(params["m"])
        if spec.q.b == ONE:
            env["q_m"] = mm
        elif mm.is_rational() and mm.re.denominator == 1:
            env["q_m"] = qnumber(int(mm.re), spec.q)
        else:
            raise ValueError(f"{{m}} is not rational at the non-integer mark m={mm}")
        env["q_nhat"] = sl2q_constants(replace(spec, n=Scalar.of(params["n"])))[2]
    return env


def _bind(env: Dict[str, Scalar], spec: RepSpec, **index: int) -> Dict[str, Scalar]:
    """A copy of env with each index bound, along with its name*r token."""
    out = dict(env)
    for name, val in index.items():
        out[name] = Scalar(val)
        out[f"{name}*r"] = Scalar(val * spec.r)
    return out


def _equation_rows(rule: CaseRule, spec: RepSpec, env: Dict[str, Scalar],
                   names: Sequence[str]) -> List[List[Scalar]]:
    """Instantiated linear forms (one row per scalar equation) over names."""
    rows = []
    idx = {nm: i for i, nm in enumerate(names)}
    for eq in rule.equations:
        if eq["forall"] is None:
            envs = [env]
        else:
            last_expr = eq["forall"]["last"]
            if "N_div_r" in last_expr:
                last = int(env["N"].re) // spec.r * Fraction(last_expr["N_div_r"])
            else:
                last = _affine(last_expr, env).re
            envs = [_bind(env, spec, **{eq["forall"]["index"]: j})
                    for j in range(int(last) + 1)]
        for inst in envs:
            row = [ZERO] * len(names)
            for cname, expr in eq["terms"]:
                row[idx[cname]] = row[idx[cname]] + _affine(expr, inst)
            rows.append(row)
    for cname in rule.requires_zero:
        row = [ZERO] * len(names)
        row[idx[cname]] = ONE
        rows.append(row)
    return rows


def _space(con: dict, env: Dict[str, Scalar]) -> Optional[SpaceSpec]:
    vals = [_affine(p_expr, env).re for p_expr in con["p"]]
    if any(v.denominator != 1 for v in vals):
        return None
    try:
        return SpaceSpec(con.get("family", con["kind"]), tuple(int(v) for v in vals))
    except ValueError:  # parameters out of the space's range at this instance
        return None


Target = Tuple[str, List[Tuple[SpaceSpec, Optional[int]]]]


def conclusion_spaces(rule: CaseRule, spec: RepSpec,
                      params: Dict[str, object]) -> List[Target]:
    """The concluded targets of one instance, as (description, rows), each row
    a (SpaceSpec, cap).  A space is the one row (space, None).  An
    unbounded-even spinor conclusion is its two rows spin(N, M), each with
    the even degree N+2 its images may reach as cap."""
    env = _param_env(spec, params)
    out: List[Target] = []
    for con in rule.conclusions:
        kind = con["kind"]
        if kind == "spinor_unbounded_even":
            M = int(_affine(con["p"][0], env).re)
            top = max(int(env["n"].re), M)
            out.append((f"unbounded-even spinor rows M={M}",
                        [(SpaceSpec("spinor", (N, M)), N + 2) for N in (top + 3, top + 5)]))
            continue
        # (description suffix, index bindings) of each checked member
        if kind == "flag":
            members = [(f" (flag member {i})", {con["index"]: i}) for i in range(FLAG_PREFIX)]
        elif kind == "sequence":
            last = min(int(_affine(con["last"], env).re), FLAG_PREFIX - 1)
            members = [(f" (sequence member {i})", {con["index"]: i}) for i in range(last + 1)]
        elif kind == "flag2":
            i1, i2 = con["indices"]
            members = [(f" (family member {a},{b})", {i1: a, i2: b})
                       for a in range(FLAG_PREFIX - 2) for b in range(FLAG_PREFIX - 2 - a)]
        else:
            members = [("", {})]
        for suffix, index in members:
            s = _space(con, _bind(env, spec, **index))
            if s is not None:
                out.append((f"{s}{suffix}", [(s, None)]))
    return out


def match_instances(assignment: CoeffAssignment,
                    bound: int = 12) -> Iterator[Tuple[dict, List[Target]]]:
    """Each rule instance whose predicate the assignment satisfies exactly, as
    (match, its conclusion_spaces targets), free integer parameters up to the
    bound; a noninteger_solve rule fires at its one non-integer solution."""
    spec = assignment.spec
    names = sorted(coefficient_words(spec))
    vec = [assignment.get(nm) for nm in names]
    for rule in rules_for(spec):
        if (any(not assignment.get(nm).is_zero() for nm in rule.requires_zero)
                or any(assignment.get(nm).is_zero() for nm in rule.requires_nonzero)):
            continue
        solve = rule.noninteger_solve
        if solve is not None:
            val = _solve_noninteger(rule, assignment)
            frees = [] if val is None else [{solve["var"]: val}]
        else:
            frees = (dict(zip(rule.free, values))
                     for values in itertools.product(range(bound + 1), repeat=len(rule.free)))
        for free in frees:
            params: Dict[str, object] = {"n": spec.n, "m": spec.m, **free}
            if solve is None:
                env = _param_env(spec, params)
                if any(params[fp] > _affine(expr, env).re for fp, expr in rule.free_max.items()):
                    continue
                if not all(_dot(row, vec).is_zero()
                           for row in _equation_rows(rule, spec, env, names)):
                    continue
            targets = conclusion_spaces(rule, spec, params)
            yield ({"id": rule.id, "params": {k: str(Scalar.of(v)) for k, v in free.items()},
                    "conclusions": [d for d, _ in targets]}, targets)


def match_cases(assignment: CoeffAssignment, bound: int = 12) -> List[dict]:
    """The matches of match_instances."""
    return [match for match, _ in match_instances(assignment, bound)]


def _dot(row: Sequence[Scalar], vec: Sequence[Scalar]) -> Scalar:
    out = ZERO
    for a, b in zip(row, vec):
        if not a.is_zero() and not b.is_zero():
            out = out + a * b
    return out


def _solve_noninteger(rule: CaseRule, assignment: CoeffAssignment) -> Optional[Scalar]:
    """The free parameter determined by one equation, when non-integer."""
    spec = assignment.spec
    var = rule.noninteger_solve["var"]
    base = {"n": spec.n, "m": spec.m}
    # write the equation as A + B*var = 0 over the assignment's coefficients
    env0 = _param_env(spec, dict(base, **{var: 0}))
    env1 = _param_env(spec, dict(base, **{var: 1}))
    a = b = ZERO
    for cname, expr in rule.noninteger_solve["equation"]:
        c = assignment.get(cname)
        v0 = _affine(expr, env0)
        a = a + v0 * c
        b = b + (_affine(expr, env1) - v0) * c
    if b.is_zero():
        return None
    val = -a / b
    if not val.is_rational() or val.re.denominator == 1:
        return None     # integer solutions belong to the sibling rule
    return val


# --------------------------------------------------------------------------
# sampling and the oracle sweep

def _predicate_basis(rule: CaseRule, spec: RepSpec,
                     params: Dict[str, object]) -> Tuple[List[str], List[List[Scalar]]]:
    """The family's coefficient names and a basis of the rule's instantiated
    predicate: every satisfying assignment is a combination of its vectors."""
    names = sorted(coefficient_words(spec))
    rows = _equation_rows(rule, spec, _param_env(spec, params), names)
    return names, nullspace(rows, ncols=len(names))


def _draw(rule: CaseRule, spec: RepSpec, names: Sequence[str],
          basis: List[List[Scalar]], rng: random.Random) -> CoeffAssignment:
    """Random rational combination of the basis with the rule's nonzero
    coefficients nonzero."""
    for _ in range(200):
        coeffs: Dict[str, Scalar] = {nm: ZERO for nm in names}
        for v in basis:
            w = Scalar(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])))
            if w.is_zero():
                continue
            for nm, c in zip(names, v):
                if not c.is_zero():
                    coeffs[nm] = coeffs[nm] + w * c
        if all(not coeffs[nm].is_zero() for nm in rule.requires_nonzero):
            return CoeffAssignment(spec, coeffs)
    raise RuntimeError(f"could not sample a nondegenerate assignment for {rule.id}")


def sample_assignment(rule: CaseRule, spec: RepSpec, params: Dict[str, object],
                      rng: random.Random) -> CoeffAssignment:
    """Random rational assignment satisfying the rule's instantiated predicate."""
    return _draw(rule, spec, *_predicate_basis(rule, spec, params), rng)


CASE_FAMILIES = (RepSpec("sl2"), RepSpec("sl2q", q=QParam(2)), RepSpec("osp22"),
                 RepSpec("sl3"), RepSpec("sl2xsl2"), RepSpec("gl2_semi", r=2))


def case_jobs(rng: random.Random) -> Iterator[Tuple[RepSpec, CaseRule, Dict[str, object], int]]:
    """The catalogue soundness sweep: every rule of the six families at three
    seeded marks, as (spec, rule, params, t) with t the mark's index."""
    for spec0 in CASE_FAMILIES:
        for rule in rules_for(spec0):
            for t in range(3):
                n = rng.randint(4, 9)
                spec = RepSpec(spec0.algebra, n=Scalar(n), m=Scalar(rng.randint(2, 5)),
                               q=spec0.q, r=spec0.r)
                params: Dict[str, object] = {"n": spec.n, "m": spec.m}
                for fp in rule.free:
                    hi = n - 3 if rule.free_max else 4
                    params[fp] = rng.randint(0, max(0, hi))
                if rule.noninteger_solve:
                    params[rule.noninteger_solve["var"]] = Fraction(2 * rng.randint(1, 5) + 1, 2)
                yield spec, rule, params, t


def target_escapes(op: LinOperator | ElementAction,
                   targets: Sequence[Target]) -> Iterator[Tuple[str, str]]:
    """(description, witness) for each target op does not preserve, in target
    order, from one flag_actions call over the rows of every target.  A space
    (cap None) escapes with its first escape as witness.  A capped spinor row
    holds when its images have no odd-row term and no even degree above cap."""
    results = flag_actions(op, [s for _, rows in targets for s, _ in rows])
    for desc, rows in targets:
        witnesses = [w for _, cap in rows
                     if (w := _witness(op, next(results).escapes, cap)) is not None]
        if witnesses:
            yield desc, witnesses[0]


def _witness(op, escapes: Sequence[Escape], cap: Optional[int]) -> Optional[str]:
    """One row's witness, None when the row holds."""
    if not escapes:
        return None
    if cap is None:
        return "{0.source} -> {0.monomial} (coeff {0.coeff})".format(escapes[0])
    x = op.ctx.all_vars.index("x")
    if any(sum(e.monomial) != e.monomial[x] or e.monomial[x] > cap for e in escapes):
        return "odd-row overflow"
    return None


# the oracle's generators per spec, so that its jobs at a spec share one step memo
_generators = lru_cache(maxsize=128)(make_rep)


def verify_case(rule: CaseRule, spec: RepSpec, params: Dict[str, object],
                trials: int = 25, seed: int = 0) -> dict:
    """Certify the rule on its predicate's nullspace basis (see the module
    docstring).  A certified rule holds for every satisfying operator, so it
    draws no trials and has no counterexamples.  An uncertified one draws its
    seeded trial assignments from the basis and reports, for each trial, the
    witness of every concluded space its operator escapes.  Either way a
    requires_nonzero coefficient that vanishes on the whole basis raises."""
    gens = _generators(spec)
    targets = conclusion_spaces(rule, spec, params)
    names, basis = _predicate_basis(rule, spec, params)
    if any(all(v[names.index(nm)].is_zero() for v in basis) for nm in rule.requires_nonzero):
        raise RuntimeError(f"could not sample a nondegenerate assignment for {rule.id}")
    elements = (CoeffAssignment(spec, dict(zip(names, v))).element() for v in basis)
    certified = all(next(target_escapes(ElementAction(gens, e), targets), None) is None
                    for e in elements)
    counterexamples = []
    for t in range(0 if certified else trials):
        rng = random.Random((seed, rule.id, str(params), t).__str__())
        asg = _draw(rule, spec, names, basis, rng)
        counterexamples += [{"trial": t, "space": desc, "witness": witness,
                             "assignment": asg.to_json()}
                            for desc, witness in target_escapes(
                                ElementAction(gens, asg.element()), targets)]
    return {"rule": rule.id, "algebra": spec.algebra,
            "params": {k: str(Scalar.of(v)) for k, v in params.items()},
            "trials": trials, "targets": [d for d, _ in targets],
            "as_printed": rule.as_printed, "note": rule.note,
            "certified": certified, "counterexamples": counterexamples,
            "ok": not counterexamples}


def constrained_param_count(rule: CaseRule, spec: RepSpec,
                            params: Dict[str, object]) -> int:
    """Exact dimension of the operator family cut out by a rule's predicate."""
    names, basis = _predicate_basis(rule, spec, params)
    gens = make_rep(spec)
    return free_parameters(spec, [CoeffAssignment(spec, dict(zip(names, v))).operator(gens)
                                  for v in basis])


def find_rule(spec: RepSpec, rule_id: str) -> CaseRule:
    for rule in rules_for(spec):
        if rule.id == rule_id:
            return rule
    raise KeyError(f"no rule {rule_id!r} for {spec.algebra}")
