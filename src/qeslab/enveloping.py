"""Enveloping-algebra elements over a generator family.

A word is a tuple of generator names in product order, and an element of the
enveloping algebra is a ``freealg.FreeExpr`` mapping words to scalars; it
expands to a canonical operator through ``GeneratorSet.word_op``, or acts on
monomials by generator walks as an ``ElementAction``.  Canonical
words list their names in the family's fixed global order (raising, Cartan,
lowering, odd generators at most once).  The module also carries the
quadratic relation tables of each representation (``reps.Relation``s at a
concrete mark), grading bookkeeping, exact parameter counts by rank, and
coefficient degree profiles.

A sign convention note, once and centrally: the central even generator of the
superalgebra family is stored with the sign that makes its abstract bracket
table hold verbatim (J acts as -n/2 on the even sector).  The quadratic
relation catalogue and the second-order coefficient parameterization were
written for the opposite sign, so every word there multiplies its coefficient
by (-1)**(number of J factors).  ``J_BODY_SIGN`` marks the families where
that applies and ``body_signed`` applies it; three catalogue entries
additionally needed their right-hand sides repaired (they fail expansion as printed for every mark), and those
carry ``as_printed=False``.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Dict, List, Sequence, Tuple

from .freealg import FreeExpr, Word
from .linalg import nullspace, rank
from .operators import LinOperator, MatrixOperator, even_odd, to_matrix_operator
from .poly import Exponent
from .reps import (GeneratorSet, Relation, RepSpec, evaluate_element, make_rep,
                   sl2q_constants)
from .scalars import ONE, Scalar, ZERO
from .spaces import SpaceSpec, action_matrix, flag_actions

HALF = Scalar(Fraction(1, 2))


class UnknownGeneratorError(KeyError):
    pass


def make_word(gens: GeneratorSet, names: Sequence[str]) -> Word:
    """Canonical word: the names sorted into the family's global order."""
    for nm in names:
        if nm not in gens.ops:
            raise UnknownGeneratorError(nm)
        if gens.parity[nm] and names.count(nm) > 1:
            raise ValueError(f"odd generator {nm} repeated: the word is zero")
    return tuple(sorted(names, key=gens.names.index))


def expand_word(gens: GeneratorSet, word: Word) -> LinOperator:
    return gens.word_op(word)


def expand(p: FreeExpr, gens: GeneratorSet) -> LinOperator:
    """Canonical operator of an enveloping-algebra element."""
    return evaluate_element(p, gens.word_op)


class ElementAction:
    """An enveloping-algebra element, in the stored sign convention, acting
    by generator walks: each generator of the case families steps a monomial
    to one weighted monomial, so a word walks it, its last generator first."""

    def __init__(self, gens: GeneratorSet, element: FreeExpr):
        self.gens, self.element, self.ctx = gens, element, gens.ctx

    def apply_monomial(self, e: Exponent) -> Dict[Exponent, Scalar]:
        """The image of the monomial with exponent e, as its term dict."""
        out: Dict[Exponent, Scalar] = {}
        for word, c in self.element.items():
            end = e
            for name in reversed(word):
                step = self.gens.step(name, end)
                if step is None:
                    break
                end, weight = step
                c = c * weight
            else:
                out[end] = out[end] + c if end in out else c
        return {end: c for end, c in out.items() if not c.is_zero()}


def expand_matrix(p: FreeExpr, gens: GeneratorSet) -> MatrixOperator:
    """Two-component image of an element of the superalgebra family (the
    matrix transcription is an algebra map, so it is applied once at the end)."""
    return to_matrix_operator(expand(p, gens))


def grading(word: Word, gens: GeneratorSet) -> Tuple[Fraction, Fraction, Fraction]:
    """(deg_x, deg_y, total) of a word; total is weight-adjusted."""
    gx = gy = Fraction(0)
    for name in word:
        vx, vy = gens.grading[name]
        gx += vx
        gy += vy
    return gx, gy, gx + gens.grading_weight * gy


# --------------------------------------------------------------------------
# word enumeration

def words_up_to_degree(gens: GeneratorSet, k: int) -> List[Word]:
    """All canonical words of degree <= k (odd generators at most once)."""
    odd = [nm for nm in gens.names if gens.parity[nm]]
    return [w for deg in range(k + 1)
            for w in combinations_with_replacement(gens.names, deg)
            if all(w.count(nm) < 2 for nm in odd)]


# --------------------------------------------------------------------------
# flattening and ranks

def flatten_ops(ops: Sequence[LinOperator]) -> List[List[Scalar]]:
    keys = sorted({(w, e) for op in ops for w, c in op.terms.items()
                   for e in c.terms})
    out = []
    for op in ops:
        row = []
        for (w, e) in keys:
            c = op.terms.get(w)
            row.append(c.terms.get(e, ZERO) if c is not None else ZERO)
        out.append(row)
    return out


def flatten_matrix_ops(ops: Sequence[MatrixOperator]) -> List[List[Scalar]]:
    """Coordinates of two-component operators (the bench's rank36 input)."""
    keys = sorted({(i, j, w, e)
                   for op in ops for i in (0, 1) for j in (0, 1)
                   for w, c in op.entries[i][j].terms.items() for e in c.terms})
    out = []
    for op in ops:
        row = []
        for (i, j, w, e) in keys:
            c = op.entries[i][j].terms.get(w)
            row.append(c.terms.get(e, ZERO) if c is not None else ZERO)
        out.append(row)
    return out


def span_rank(ops: Sequence[LinOperator]) -> int:
    """Dimension of the span; zero operators (words such as Q1*Q2, whose odd
    factors both carry d/dtheta) are left out of the elimination."""
    return rank(flatten_ops([op for op in ops if not op.is_zero()]))


def free_parameters(spec: RepSpec, ops: Sequence[LinOperator]) -> int:
    """Dimension of an operator family spanned by ops; the difference family's
    deformation parameter counts as one more."""
    return span_rank(ops) + (spec.algebra == "sl2q")


# --------------------------------------------------------------------------
# exact-solvability word filters

def word_is_exact(word: Word, gens: GeneratorSet, variant: str = "total") -> bool:
    """No positive grading; the superalgebra exempts +1/2 words carrying a
    lowering odd generator (variant is 'total', 'x', or 'y')."""
    gx, gy, tot = grading(word, gens)
    if gens.spec.algebra == "osp22":
        if tot <= 0:
            return True
        has_q = "Q1" in word or "Q2" in word
        return tot == Fraction(1, 2) and has_q
    g = {"total": tot, "x": gx, "y": gy}[variant]
    return g <= 0


def paper_count(algebra: str, k: int, variant: str, matrix_form: bool,
                r: int = 1) -> int | None:
    """Catalogued closed-form parameter counts (None where none is printed)."""
    quasi = variant == "quasi"
    if matrix_form:
        return 4 * (k + 1) ** 2 if quasi else 2 * k * (k + 3) + 3
    if algebra == "sl2":
        return (k + 1) ** 2 if quasi else (k + 1) * (k + 2) // 2
    if algebra == "sl2q":
        return (k + 1) ** 2 + 1 if quasi else (k + 1) * (k + 2) // 2 + 1
    if algebra == "osp22":
        return 4 * k * (k + 1) + 1 if quasi else 2 * k * (k + 2) + 1
    if k != 2:
        return None
    if algebra == "sl3":
        return 36 if quasi else (25 if variant == "exact" else None)
    if algebra == "sl2xsl2":
        # the printed exactly-solvable count is the single-direction flag kind
        return 26 if quasi else (20 if variant in ("exact_x", "exact_y") else None)
    if algebra == "gl2_semi":
        return 5 * (r + 4) if quasi else 5 * (r + 3)
    return None


def preserving_family(ops: Sequence[LinOperator], flag) -> List[LinOperator]:
    """A spanning list of {combinations of ops preserving every flag member}.

    Escape coordinates of each operator on each flag member form a linear
    system; the family is its nullspace.
    """
    per_op = [[{(e.source, e.monomial): e.coeff for e in res.escapes}
               for res in flag_actions(op, flag)] for op in ops]
    rows = [[em.get(key, ZERO) for em in maps]
            for maps in zip(*per_op)         # one flag member at a time, in flag order
            for key in sorted(set().union(*maps), key=str)]
    family = []
    for v in nullspace(rows, ncols=len(ops)):
        out = LinOperator.zero(ops[0].ctx)
        for c, op in zip(v, ops):
            if not c.is_zero():
                out = out + op.scale(c)
        family.append(out)
    return family


def param_count(spec: RepSpec, k: int, variant: str = "quasi",
                matrix_form: bool = False) -> dict:
    """Exact rank of the degree <= k word span (plus the one extra model
    parameter of the deformed family), against the catalogued closed form.

    variant: quasi | exact | exact_x | exact_y.  matrix_form=True (osp22 only)
    counts the 2x2 matrix operators.  It computes on the odd-variable
    operators, which the matrix transcription maps onto them injectively and
    with the same action on spinor spaces, so ranks and preserving families
    agree: words one degree higher still act at x-derivative order <= k and
    are included per the degree budget, and the exact variant is cut out by
    the full spinor flag (whose bottom member adds a constraint beyond the
    grading filter).
    """
    if k not in (1, 2):
        raise ValueError("parameter counts are catalogued for k in {1, 2}")
    if matrix_form and spec.algebra != "osp22":
        raise ValueError("matrix-form counts are defined for osp22 only")
    gens = make_rep(spec)
    words = words_up_to_degree(gens, k + 1 if matrix_form else k)
    if matrix_form:
        ops = [op for op in (expand_word(gens, w) for w in words) if op.order("x") <= k]
        if variant != "quasi":
            flag = [SpaceSpec("spinor", (0, 0))] + \
                   [SpaceSpec("spinor", (mm, mm - 1)) for mm in range(1, k + 4)]
            ops = preserving_family(ops, flag)
    else:
        if variant != "quasi":
            v = {"exact": "total", "exact_x": "x", "exact_y": "y"}[variant]
            words = [w for w in words if word_is_exact(w, gens, v)]
        ops = [expand_word(gens, w) for w in words]
    r = free_parameters(spec, ops)
    paper = paper_count(spec.algebra, k, variant, matrix_form, spec.r)
    return {"algebra": spec.algebra, "k": k, "variant": variant,
            "matrix_form": matrix_form, "rank": r, "paper": paper,
            "match": (paper is None or paper == r)}


# --------------------------------------------------------------------------
# quadratic relation catalogue
#
# Each table is instantiated at the marks of one spec, as (coefficient, word)
# terms of each side with () the constant word 1, and is written in the body
# convention of the catalogue.

# families whose catalogue entries were written with the opposite sign of
# the named central generator
J_BODY_SIGN = {"osp22": "J"}


def body_signed(algebra: str, p: FreeExpr) -> FreeExpr:
    """An element written in the body convention, in the stored one: the
    coefficient of every word holding an odd number of the family's
    J_BODY_SIGN generator is negated."""
    flip = J_BODY_SIGN.get(algebra)
    if flip is None:
        return p
    return {w: -c if w.count(flip) % 2 else c for w, c in p.items()}


def osp22_relations(spec: RepSpec) -> List[Relation]:
    n, R = spec.n, Relation.of
    return [
        R("2T+J - Qb1Q2 = nT+", [(2, ("T+", "J")), (-1, ("Qb1", "Q2"))], [(n, ("T+",))]),
        R("T+Q1 - T0Q2 = -(n/2+1)Q2", [(1, ("T+", "Q1")), (-1, ("T0", "Q2"))],
          [(-(n * HALF + ONE), ("Q2",))], as_printed=False),
        R("T+Qb2 + T0Qb1 = (1-n)/2 Qb1", [(1, ("T+", "Qb2")), (1, ("T0", "Qb1"))],
          [((ONE - n) * HALF, ("Qb1",))]),
        R("JQ2 = n/2 Q2", [(1, ("J", "Q2"))], [(n * HALF, ("Q2",))]),
        R("JQb1 = (n+1)/2 Qb1", [(1, ("J", "Qb1"))], [((n + ONE) * HALF, ("Qb1",))]),
        R("T+T- - T0T0 - JJ + T0 = -(n/2)(n+1)",
          [(1, ("T+", "T-")), (-1, ("T0", "T0")), (-1, ("J", "J")), (1, ("T0",))],
          [(-(n * HALF) * (n + ONE), ())], as_printed=False),
        R("JJ = (n+1/2)J - (n/4)(n+1)", [(1, ("J", "J"))],
          [(n + HALF, ("J",)), (-(n / Scalar(4)) * (n + ONE), ())]),
        R("Q1Qb1 + Q2Qb2 - 2nJ = -n(n+1)",
          [(1, ("Q1", "Qb1")), (1, ("Q2", "Qb2")), (Scalar(-2) * n, ("J",))],
          [(-n * (n + ONE), ())]),
        R("2T0J + Q1Qb1 - (n+1)T0 - nJ = -(n/2)(n+1)",
          [(2, ("T0", "J")), (1, ("Q1", "Qb1")), (-(n + ONE), ("T0",)), (-n, ("J",))],
          [(-(n * HALF) * (n + ONE), ())]),
        R("T-Q2 - T0Q1 = (n/2+1)Q1", [(1, ("T-", "Q2")), (-1, ("T0", "Q1"))],
          [(n * HALF + ONE, ("Q1",))]),
        R("T-Qb1 + T0Qb2 = (n-1)/2 Qb2", [(1, ("T-", "Qb1")), (1, ("T0", "Qb2"))],
          [((n - ONE) * HALF, ("Qb2",))], as_printed=False),
        R("JQ1 = n/2 Q1", [(1, ("J", "Q1"))], [(n * HALF, ("Q1",))]),
        R("JQb2 = (n+1)/2 Qb2", [(1, ("J", "Qb2"))], [((n + ONE) * HALF, ("Qb2",))]),
        R("2JT- - Q1Qb2 = (n+1)T-", [(2, ("J", "T-")), (-1, ("Q1", "Qb2"))],
          [(n + ONE, ("T-",))]),
    ]


def sl3_relations(spec: RepSpec) -> List[Relation]:
    n, R = spec.n, Relation.of
    three = Scalar(3)
    return [
        R("J12Jd - 2J12Jtd - 3J13J32 = nJ12",
          [(1, ("J12", "Jd")), (-2, ("J12", "Jtd")), (-3, ("J13", "J32"))],
          [(n, ("J12",))]),
        R("J13Jtd - 2J13Jd - 3J12J23 = nJ13",
          [(1, ("J13", "Jtd")), (-2, ("J13", "Jd")), (-3, ("J12", "J23"))],
          [(n, ("J13",))]),
        R("J32Jd + J32Jtd - 3J12J31 = (n+3)J32",
          [(1, ("J32", "Jd")), (1, ("J32", "Jtd")), (-3, ("J12", "J31"))],
          [(n + three, ("J32",))]),
        R("J23Jd + J23Jtd - 3J13J21 = (n+3)J23",
          [(1, ("J23", "Jd")), (1, ("J23", "Jtd")), (-3, ("J13", "J21"))],
          [(n + three, ("J23",))]),
        R("3(J12J21 + J13J31 + J32J23) + JdJd + JtdJtd - JdJtd = 3Jd + 3n + n^2",
          [(3, ("J12", "J21")), (3, ("J13", "J31")), (3, ("J32", "J23")),
           (1, ("Jd", "Jd")), (1, ("Jtd", "Jtd")), (-1, ("Jd", "Jtd"))],
          [(3, ("Jd",)), (three * n + n * n, ())]),
        R("2JdJd + 2JtdJtd - 5JdJtd + 9J32J23 = (n+6)Jd + (n-3)Jtd + n^2 + 3n",
          [(2, ("Jd", "Jd")), (2, ("Jtd", "Jtd")), (-5, ("Jd", "Jtd")),
           (9, ("J32", "J23"))],
          [(n + Scalar(6), ("Jd",)), (n - three, ("Jtd",)), (n * n + three * n, ())]),
        R("JdJd - JtdJtd + 3(J12J21 - J13J31) = (n+3)(Jd - Jtd)",
          [(1, ("Jd", "Jd")), (-1, ("Jtd", "Jtd")), (3, ("J12", "J21")),
           (-3, ("J13", "J31"))],
          [(n + three, ("Jd",)), (-(n + three), ("Jtd",))]),
        R("JdJ21 - 2JtdJ21 - 3J23J31 = nJ21",
          [(1, ("Jd", "J21")), (-2, ("Jtd", "J21")), (-3, ("J23", "J31"))],
          [(n, ("J21",))]),
        R("JtdJ31 - 2JdJ31 - 3J32J21 = nJ31",
          [(1, ("Jtd", "J31")), (-2, ("Jd", "J31")), (-3, ("J32", "J21"))],
          [(n, ("J31",))]),
    ]


def _sl2_casimir(label: str, n: Scalar, p: str, z: str, m: str) -> Relation:
    """J+J- - J0J0 + J0 = -(n/2)(n/2+1) over the named sl2 triple."""
    return Relation.of(label, [(1, (p, m)), (-1, (z, z)), (1, (z,))],
                       [(-(n * HALF) * (n * HALF + ONE), ())])


def sl2_relations(spec: RepSpec) -> List[Relation]:
    return [_sl2_casimir("J+J- - J0J0 + J0 = -(n/2)(n/2+1)", spec.n, "J+", "J0", "J-")]


def sl2xsl2_relations(spec: RepSpec) -> List[Relation]:
    return [_sl2_casimir("Jx+Jx- - Jx0Jx0 + Jx0 = -(n/2)(n/2+1)", spec.n,
                         "Jx+", "Jx0", "Jx-"),
            _sl2_casimir("Jy+Jy- - Jy0Jy0 + Jy0 = -(m/2)(m/2+1)", spec.m,
                         "Jy+", "Jy0", "Jy-")]


def gl2_semi_relations(spec: RepSpec) -> List[Relation]:
    r, R = spec.r, Relation.of
    n3 = spec.n / Scalar(3)
    rels = [
        R("J2J5 - J1J6 + (n/3+1)J5 = 0",
          [(1, ("J2", "J5")), (-1, ("J1", "J6")), (n3 + ONE, ("J5",))], as_printed=False),
        R("J1J4 - J2J2 - rJ2J3 - J2 - r(n/3+1)J3 = -(n/3)(n/3+1)",
          [(1, ("J1", "J4")), (-1, ("J2", "J2")), (-r, ("J2", "J3")), (-1, ("J2",)),
           (Scalar(-r) * (n3 + ONE), ("J3",))],
          [(-n3 * (n3 + ONE), ())]),
    ]
    for i in range(r):
        rels.append(R(
            f"J2J{6 + i} + rJ3J{6 + i} - J4J{5 + i} - (n/3+1)J{6 + i} = 0",
            [(1, ("J2", f"J{6 + i}")), (r, ("J3", f"J{6 + i}")),
             (-1, ("J4", f"J{5 + i}")), (-(n3 + ONE), (f"J{6 + i}",))]))
    for i in range(r - 1):
        rels.append(R(
            f"J1J{7 + i} - J2J{6 + i} - (n/3+1)J{6 + i} = 0",
            [(1, ("J1", f"J{7 + i}")), (-1, ("J2", f"J{6 + i}")),
             (-(n3 + ONE), (f"J{6 + i}",))]))
    for i in range(2 * r - 1):
        pairs = [(a, 2 + i - a) for a in range(min(r, 2 + i) + 1)
                 if 0 <= 2 + i - a <= r and a <= 2 + i - a]
        for (a1, b1), (a2, b2) in zip(pairs, pairs[1:]):
            rels.append(R(f"J{5 + a1}J{5 + b1} = J{5 + a2}J{5 + b2}",
                          [(1, (f"J{5 + a1}", f"J{5 + b1}")),
                           (-1, (f"J{5 + a2}", f"J{5 + b2}"))]))
    return rels


def sl2q_relations(spec: RepSpec) -> List[Relation]:
    """q J+J- - J0J0 + ({n+1} - 2nhat) J0 = nhat (nhat - {n+1})."""
    _, qn1, nh, _, _ = sl2q_constants(spec)
    return [Relation.of(
        "q J+J- - J0J0 + ({n+1}-2nhat)J0 = nhat(nhat-{n+1})",
        [(spec.q.b, ("J+", "J-")), (-1, ("J0", "J0")), (qn1 - Scalar(2) * nh, ("J0",))],
        [(nh * (nh - qn1), ())])]


RELATION_TABLES = {"osp22": osp22_relations, "sl3": sl3_relations,
                   "sl2xsl2": sl2xsl2_relations, "gl2_semi": gl2_semi_relations,
                   "sl2q": sl2q_relations, "sl2": sl2_relations}


def relation_table(spec: RepSpec) -> List[Relation]:
    """The quadratic relations of a representation at its marks, in the
    stored sign convention (empty where none are catalogued)."""
    table = RELATION_TABLES.get(spec.algebra)
    if table is None:
        return []
    return [replace(rel, expr=body_signed(spec.algebra, rel.expr)) for rel in table(spec)]


def verify_relations(spec: RepSpec, seed: int = 0) -> dict:
    """Expand LHS - RHS of every catalogued relation at several marks."""
    rng = random.Random(seed)
    if spec.algebra == "sl2q":
        n_values = [Scalar(rng.randint(1, 9)) for _ in range(3)]
    else:
        n_values = [Scalar(Fraction(rng.randint(-12, 24), rng.choice([1, 2, 3, 5])))
                    for _ in range(3)]
    rows = []
    for n in n_values:
        m = Scalar(Fraction(rng.randint(-12, 24), rng.choice([1, 2, 3])))
        sp = RepSpec(spec.algebra, n=n, m=m, q=spec.q, r=spec.r, k=spec.k)
        gens = make_rep(sp)
        for rel in relation_table(sp):
            diff = expand(rel.expr, gens)
            ok = diff.is_zero()
            rows.append({"label": rel.label, "n": str(n), "m": str(m),
                         "as_printed": rel.as_printed, "ok": ok,
                         "residual": None if ok else repr(diff)})
    return {"algebra": spec.algebra, "relations": rows,
            "ok": all(r["ok"] for r in rows),
            "corrected": sorted({r["label"] for r in rows if not r["as_printed"]})}


# --------------------------------------------------------------------------
# coefficient degree profiles

def coefficient_profile(op: LinOperator) -> Dict[Tuple[Tuple[int, ...], int], int]:
    """Max x-degrees per (derivative word, odd part) slot of an operator."""
    out: Dict[Tuple[Tuple[int, ...], int], int] = {}
    theta = op.ctx.theta
    for w, c in op.terms.items():
        word = w[:-1] if theta else w
        if theta:
            even, odd = even_odd(c)
            parts = [(even, 0), (odd, 1)]
        else:
            parts = [(c, 0)]
        for part, odd in parts:
            if part.is_zero():
                continue
            key = (word, odd)
            out[key] = max(out.get(key, -1), part.degree())
    return out


def shape_bounds(spec: RepSpec, k: int, kind: str) -> Dict[Tuple[Tuple[int, ...], int], int]:
    """Tight degree bounds per derivative slot for the degree <= k family."""
    gens = make_rep(spec)
    words = words_up_to_degree(gens, k)
    if kind == "exact":
        words = [w for w in words if word_is_exact(w, gens)]
    bounds: Dict[Tuple[Tuple[int, ...], int], int] = {}
    for w in words:
        for key, d in coefficient_profile(expand_word(gens, w)).items():
            bounds[key] = max(bounds.get(key, -1), d)
    return bounds


def coefficient_shape_check(op: LinOperator, spec: RepSpec, k: int,
                            kind: str = "quasi") -> dict:
    """Verdict: does the operator's degree profile fit the family's bounds?"""
    bounds = shape_bounds(spec, k, kind)
    bad = []
    for key, d in coefficient_profile(op).items():
        if key not in bounds or d > bounds[key]:
            bad.append({"deriv": key[0], "odd": key[1], "degree": d,
                        "bound": bounds.get(key, -1)})
    return {"kind": kind, "k": k, "ok": not bad, "violations": bad}


# --------------------------------------------------------------------------
# full-matrix-algebra span consequence

def burnside_span_rank(n: int) -> int:
    """Rank of the action matrices of all words of degree <= n on the
    (n+1)-dimensional flag member; equals (n+1)^2 when they span everything."""
    spec = RepSpec("sl2", n=Scalar(n))
    gens = make_rep(spec)
    s = SpaceSpec("interval", (n,))
    rows = []
    for w in words_up_to_degree(gens, n):
        res = action_matrix(ElementAction(gens, {w: ONE}), s)
        assert res.preserved
        rows.append([col.get(i, ZERO) for i in range(n + 1) for col in res.columns])
    return rank(rows)
