"""Ordered-word calculus over a generator family.

EnvWords are exponent vectors over a family's generators in its fixed global
order (raising, Cartan, lowering, odd generators at most once); EnvPolys map
words to scalars and expand to canonical operators by composition.  The
module also carries the representation-specific quadratic relation tables,
grading bookkeeping, exact parameter counts by rank, and coefficient degree
profiles.

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
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Dict, List, Sequence, Tuple

from .linalg import rank
from .operators import LinOperator, MatrixOperator, to_matrix_operator
from .poly import SuperPoly
from .reps import GeneratorSet, Relation, RepSpec, _evaluate_relation, make_rep
from .scalars import ONE, QParam, Scalar, ScalarLike, ZERO, nhat, qnumber

EnvWord = Tuple[Tuple[str, int], ...]   # ((name, exponent), ...) in global order
EnvPoly = Dict[EnvWord, Scalar]

HALF = Scalar(Fraction(1, 2))


class UnknownGeneratorError(KeyError):
    pass


def make_word(gens: GeneratorSet, names: Sequence[str]) -> EnvWord:
    """Canonical ordered word from a list of generator names."""
    counts: Dict[str, int] = {}
    for nm in names:
        if nm not in gens.ops:
            raise UnknownGeneratorError(nm)
        counts[nm] = counts.get(nm, 0) + 1
    for nm, c in counts.items():
        if gens.parity[nm] and c > 1:
            return ()   # odd generator squared: the zero word, dropped by caller
    return tuple((nm, counts[nm]) for nm in gens.names if nm in counts)


def expand_word(gens: GeneratorSet, word: EnvWord) -> LinOperator:
    return gens.word_op(word_names(word))


def expand(p: EnvPoly, gens: GeneratorSet) -> LinOperator:
    """Canonical operator of an enveloping-algebra element."""
    out = LinOperator.zero(gens.ctx)
    for word, c in p.items():
        out = out + expand_word(gens, word).scale(c)
    return out


def expand_matrix(p: EnvPoly, gens: GeneratorSet) -> MatrixOperator:
    """Two-component image of an element of the superalgebra family (the
    matrix transcription is an algebra map, so it is applied once at the end)."""
    return to_matrix_operator(expand(p, gens))


def grading(word: EnvWord, gens: GeneratorSet) -> Tuple[Fraction, Fraction, Fraction]:
    """(deg_x, deg_y, total) of an ordered word; total is weight-adjusted."""
    gx = gy = Fraction(0)
    for name, e in word:
        vx, vy = gens.grading[name]
        gx += e * vx
        gy += e * vy
    return gx, gy, gx + gens.grading_weight * gy


def word_names(word: EnvWord) -> List[str]:
    out = []
    for name, e in word:
        out.extend([name] * e)
    return out


# --------------------------------------------------------------------------
# word enumeration

def words_up_to_degree(gens: GeneratorSet, k: int) -> List[EnvWord]:
    """All canonical ordered words of degree <= k (odd exponents capped at 1)."""
    out: List[EnvWord] = []
    names = gens.names
    for deg in range(k + 1):
        for combo in combinations_with_replacement(names, deg):
            counts: Dict[str, int] = {}
            for nm in combo:
                counts[nm] = counts.get(nm, 0) + 1
            if any(gens.parity[nm] and c > 1 for nm, c in counts.items()):
                continue
            out.append(tuple((nm, counts[nm]) for nm in names if nm in counts))
    return out


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
    return rank(flatten_ops(ops))


# --------------------------------------------------------------------------
# exact-solvability word filters

def word_is_exact(word: EnvWord, gens: GeneratorSet, variant: str = "total") -> bool:
    """No positive grading; the superalgebra exempts +1/2 words carrying a
    lowering odd generator (variant is 'total', 'x', or 'y')."""
    gx, gy, tot = grading(word, gens)
    if gens.spec.algebra == "osp22":
        if tot <= 0:
            return True
        has_q = any(nm in ("Q1", "Q2") for nm, _ in word)
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


def preserving_family(mats: Sequence[MatrixOperator], flag) -> List[MatrixOperator]:
    """A spanning list of {combinations of mats preserving every flag member}.

    Escape coordinates of each operator on each flag member form a linear
    system; the family is its nullspace.
    """
    from .spaces import action_matrix
    from .linalg import nullspace
    rows = []
    for s in flag:
        escmaps = []
        keys = set()
        for mat in mats:
            res = action_matrix(mat, s)
            esc: Dict[object, Scalar] = {}
            if not res.preserved:
                for e in res.escapes:
                    kkey = (e.source, e.monomial)
                    esc[kkey] = esc.get(kkey, ZERO) + e.coeff
            escmaps.append(esc)
            keys.update(esc)
        for key in sorted(keys, key=str):
            rows.append([em.get(key, ZERO) for em in escmaps])
    basis = nullspace(rows, ncols=len(mats))
    ops = []
    for v in basis:
        out = None
        for c, mat in zip(v, mats):
            if not c.is_zero():
                t = mat.scale(c)
                out = t if out is None else out + t
        if out is not None:
            ops.append(out)
    return ops


def param_count(spec: RepSpec, k: int, variant: str = "quasi",
                matrix_form: bool = False) -> dict:
    """Exact rank of the degree <= k word span (plus the one extra model
    parameter of the deformed family), against the catalogued closed form.

    variant: quasi | exact | exact_x | exact_y.  matrix_form=True uses the
    two-component images: words one degree higher still act at derivative
    order <= k and are included per the degree budget, and the exact variant
    is cut out by the full spinor flag (whose bottom member adds a constraint
    beyond the grading filter).
    """
    if k not in (1, 2):
        raise ValueError("parameter counts are catalogued for k in {1, 2}")
    gens = make_rep(spec)
    words = words_up_to_degree(gens, k + 1 if matrix_form else k)
    if matrix_form:
        mats = [m for m in (expand_matrix({w: ONE}, gens) for w in words)
                if m.order() <= k]
        if variant != "quasi":
            from .spaces import SpaceSpec
            flag = [SpaceSpec("spinor", (0, 0))] + \
                   [SpaceSpec("spinor", (mm, mm - 1)) for mm in range(1, k + 4)]
            mats = preserving_family(mats, flag)
        r = rank(flatten_matrix_ops(mats))
    else:
        if variant != "quasi":
            v = {"exact": "total", "exact_x": "x", "exact_y": "y"}[variant]
            words = [w for w in words if word_is_exact(w, gens, v)]
        r = span_rank([expand_word(gens, w) for w in words])
    if spec.algebra == "sl2q":
        r += 1    # the deformation parameter itself counts as free
    paper = paper_count(spec.algebra, k, variant, matrix_form, spec.r)
    return {"algebra": spec.algebra, "k": k, "variant": variant,
            "matrix_form": matrix_form, "rank": r, "paper": paper,
            "match": (paper is None or paper == r)}


# --------------------------------------------------------------------------
# quadratic relation catalogue
#
# Each entry: (label, lhs, rhs, as_printed) with lhs a list of
# (coeff(n[,m,r,q]), word-names) and rhs a list over generator names or "1".
# Coefficients are functions of the instantiated parameter dict.

Coeff = Callable[[dict], Scalar]


def _c(v: ScalarLike) -> Coeff:
    s = Scalar.of(v)
    return lambda p: s


@dataclass
class EnvRelation:
    label: str
    lhs: List[Tuple[Coeff, Tuple[str, ...]]]
    rhs: List[Tuple[Coeff, str]]
    as_printed: bool = True

    def residual(self, gens: GeneratorSet, params: dict) -> LinOperator:
        """LHS - RHS with products composed in the written order."""
        alg = gens.spec.algebra
        rel = Relation(self.label,
                       [(body_signed(alg, coeff(params), names), names)
                        for coeff, names in self.lhs],
                       {name: body_signed(alg, coeff(params), (name,))
                        for coeff, name in self.rhs})
        return _evaluate_relation(rel, gens.word_op)


# families whose catalogue entries were written with the opposite sign of
# the named central generator
J_BODY_SIGN = {"osp22": "J"}


def body_signed(algebra: str, c: Scalar, names: Sequence[str]) -> Scalar:
    """The coefficient c of a word in the body convention: negated when the
    word holds an odd number of the family's J_BODY_SIGN generator."""
    flip = J_BODY_SIGN.get(algebra)
    return -c if flip and names.count(flip) % 2 else c


def _n(p):
    return Scalar.of(p["n"])


def _m(p):
    return Scalar.of(p["m"])


def osp22_relations() -> List[EnvRelation]:
    n = _n
    return [
        EnvRelation("2T+J - Qb1Q2 = nT+",
                    [(lambda p: Scalar(2), ("T+", "J")), (_c(-1), ("Qb1", "Q2"))],
                    [(n, "T+")]),
        EnvRelation("T+Q1 - T0Q2 = -(n/2+1)Q2",
                    [(_c(1), ("T+", "Q1")), (_c(-1), ("T0", "Q2"))],
                    [(lambda p: -(n(p) * HALF + ONE), "Q2")], as_printed=False),
        EnvRelation("T+Qb2 + T0Qb1 = (1-n)/2 Qb1",
                    [(_c(1), ("T+", "Qb2")), (_c(1), ("T0", "Qb1"))],
                    [(lambda p: (ONE - n(p)) * HALF, "Qb1")]),
        EnvRelation("JQ2 = n/2 Q2",
                    [(_c(1), ("J", "Q2"))], [(lambda p: n(p) * HALF, "Q2")]),
        EnvRelation("JQb1 = (n+1)/2 Qb1",
                    [(_c(1), ("J", "Qb1"))],
                    [(lambda p: (n(p) + ONE) * HALF, "Qb1")]),
        EnvRelation("T+T- - T0T0 - JJ + T0 = -(n/2)(n+1)",
                    [(_c(1), ("T+", "T-")), (_c(-1), ("T0", "T0")),
                     (_c(-1), ("J", "J")), (_c(1), ("T0",))],
                    [(lambda p: -(n(p) * HALF) * (n(p) + ONE), "1")],
                    as_printed=False),
        EnvRelation("JJ = (n+1/2)J - (n/4)(n+1)",
                    [(_c(1), ("J", "J"))],
                    [(lambda p: n(p) + HALF, "J"),
                     (lambda p: -(n(p) / Scalar(4)) * (n(p) + ONE), "1")]),
        EnvRelation("Q1Qb1 + Q2Qb2 - 2nJ = -n(n+1)",
                    [(_c(1), ("Q1", "Qb1")), (_c(1), ("Q2", "Qb2")),
                     (lambda p: Scalar(-2) * n(p), ("J",))],
                    [(lambda p: -n(p) * (n(p) + ONE), "1")]),
        EnvRelation("2T0J + Q1Qb1 - (n+1)T0 - nJ = -(n/2)(n+1)",
                    [(_c(2), ("T0", "J")), (_c(1), ("Q1", "Qb1")),
                     (lambda p: -(n(p) + ONE), ("T0",)),
                     (lambda p: -n(p), ("J",))],
                    [(lambda p: -(n(p) * HALF) * (n(p) + ONE), "1")]),
        EnvRelation("T-Q2 - T0Q1 = (n/2+1)Q1",
                    [(_c(1), ("T-", "Q2")), (_c(-1), ("T0", "Q1"))],
                    [(lambda p: n(p) * HALF + ONE, "Q1")]),
        EnvRelation("T-Qb1 + T0Qb2 = (n-1)/2 Qb2",
                    [(_c(1), ("T-", "Qb1")), (_c(1), ("T0", "Qb2"))],
                    [(lambda p: (n(p) - ONE) * HALF, "Qb2")], as_printed=False),
        EnvRelation("JQ1 = n/2 Q1",
                    [(_c(1), ("J", "Q1"))], [(lambda p: n(p) * HALF, "Q1")]),
        EnvRelation("JQb2 = (n+1)/2 Qb2",
                    [(_c(1), ("J", "Qb2"))],
                    [(lambda p: (n(p) + ONE) * HALF, "Qb2")]),
        EnvRelation("2JT- - Q1Qb2 = (n+1)T-",
                    [(_c(2), ("J", "T-")), (_c(-1), ("Q1", "Qb2"))],
                    [(lambda p: n(p) + ONE, "T-")]),
    ]


def sl3_relations() -> List[EnvRelation]:
    n = _n
    return [
        EnvRelation("J12Jd - 2J12Jtd - 3J13J32 = nJ12",
                    [(_c(1), ("J12", "Jd")), (_c(-2), ("J12", "Jtd")),
                     (_c(-3), ("J13", "J32"))], [(n, "J12")]),
        EnvRelation("J13Jtd - 2J13Jd - 3J12J23 = nJ13",
                    [(_c(1), ("J13", "Jtd")), (_c(-2), ("J13", "Jd")),
                     (_c(-3), ("J12", "J23"))], [(n, "J13")]),
        EnvRelation("J32Jd + J32Jtd - 3J12J31 = (n+3)J32",
                    [(_c(1), ("J32", "Jd")), (_c(1), ("J32", "Jtd")),
                     (_c(-3), ("J12", "J31"))], [(lambda p: n(p) + Scalar(3), "J32")]),
        EnvRelation("J23Jd + J23Jtd - 3J13J21 = (n+3)J23",
                    [(_c(1), ("J23", "Jd")), (_c(1), ("J23", "Jtd")),
                     (_c(-3), ("J13", "J21"))], [(lambda p: n(p) + Scalar(3), "J23")]),
        EnvRelation("3(J12J21 + J13J31 + J32J23) + JdJd + JtdJtd - JdJtd = 3Jd + 3n + n^2",
                    [(_c(3), ("J12", "J21")), (_c(3), ("J13", "J31")),
                     (_c(3), ("J32", "J23")), (_c(1), ("Jd", "Jd")),
                     (_c(1), ("Jtd", "Jtd")), (_c(-1), ("Jd", "Jtd"))],
                    [(_c(3), "Jd"), (lambda p: Scalar(3) * n(p) + n(p) * n(p), "1")]),
        EnvRelation("2JdJd + 2JtdJtd - 5JdJtd + 9J32J23 = (n+6)Jd + (n-3)Jtd + n^2 + 3n",
                    [(_c(2), ("Jd", "Jd")), (_c(2), ("Jtd", "Jtd")),
                     (_c(-5), ("Jd", "Jtd")), (_c(9), ("J32", "J23"))],
                    [(lambda p: n(p) + Scalar(6), "Jd"),
                     (lambda p: n(p) - Scalar(3), "Jtd"),
                     (lambda p: n(p) * n(p) + Scalar(3) * n(p), "1")]),
        EnvRelation("JdJd - JtdJtd + 3(J12J21 - J13J31) = (n+3)(Jd - Jtd)",
                    [(_c(1), ("Jd", "Jd")), (_c(-1), ("Jtd", "Jtd")),
                     (_c(3), ("J12", "J21")), (_c(-3), ("J13", "J31"))],
                    [(lambda p: n(p) + Scalar(3), "Jd"),
                     (lambda p: -(n(p) + Scalar(3)), "Jtd")]),
        EnvRelation("JdJ21 - 2JtdJ21 - 3J23J31 = nJ21",
                    [(_c(1), ("Jd", "J21")), (_c(-2), ("Jtd", "J21")),
                     (_c(-3), ("J23", "J31"))], [(n, "J21")]),
        EnvRelation("JtdJ31 - 2JdJ31 - 3J32J21 = nJ31",
                    [(_c(1), ("Jtd", "J31")), (_c(-2), ("Jd", "J31")),
                     (_c(-3), ("J32", "J21"))], [(n, "J31")]),
    ]


def sl2xsl2_relations() -> List[EnvRelation]:
    n, m = _n, _m
    return [
        EnvRelation("Jx+Jx- - Jx0Jx0 + Jx0 = -(n/2)(n/2+1)",
                    [(_c(1), ("Jx+", "Jx-")), (_c(-1), ("Jx0", "Jx0")),
                     (_c(1), ("Jx0",))],
                    [(lambda p: -(n(p) * HALF) * (n(p) * HALF + ONE), "1")]),
        EnvRelation("Jy+Jy- - Jy0Jy0 + Jy0 = -(m/2)(m/2+1)",
                    [(_c(1), ("Jy+", "Jy-")), (_c(-1), ("Jy0", "Jy0")),
                     (_c(1), ("Jy0",))],
                    [(lambda p: -(m(p) * HALF) * (m(p) * HALF + ONE), "1")]),
    ]


def gl2_semi_relations(r: int) -> List[EnvRelation]:
    n3 = lambda p: Scalar.of(p["n"]) / Scalar(3)
    rels = [
        EnvRelation("J2J5 - J1J6 + (n/3+1)J5 = 0",
                    [(_c(1), ("J2", "J5")), (_c(-1), ("J1", "J6")),
                     (lambda p: n3(p) + ONE, ("J5",))], [], as_printed=False),
        EnvRelation("J1J4 - J2J2 - rJ2J3 - J2 - r(n/3+1)J3 = -(n/3)(n/3+1)",
                    [(_c(1), ("J1", "J4")), (_c(-1), ("J2", "J2")),
                     (_c(-r), ("J2", "J3")), (_c(-1), ("J2",)),
                     (lambda p: Scalar(-r) * (n3(p) + ONE), ("J3",))],
                    [(lambda p: -n3(p) * (n3(p) + ONE), "1")]),
    ]
    for i in range(r):
        rels.append(EnvRelation(
            f"J2J{6 + i} + rJ3J{6 + i} - J4J{5 + i} - (n/3+1)J{6 + i} = 0",
            [(_c(1), ("J2", f"J{6 + i}")), (_c(r), ("J3", f"J{6 + i}")),
             (_c(-1), ("J4", f"J{5 + i}")),
             (lambda p: -(n3(p) + ONE), (f"J{6 + i}",))], []))
    for i in range(r - 1):
        rels.append(EnvRelation(
            f"J1J{7 + i} - J2J{6 + i} - (n/3+1)J{6 + i} = 0",
            [(_c(1), ("J1", f"J{7 + i}")), (_c(-1), ("J2", f"J{6 + i}")),
             (lambda p: -(n3(p) + ONE), (f"J{6 + i}",))], []))
    for i in range(2 * r - 1):
        pairs = [(a, 2 + i - a) for a in range(min(r, 2 + i) + 1)
                 if 0 <= 2 + i - a <= r and a <= 2 + i - a]
        for (a1, b1), (a2, b2) in zip(pairs, pairs[1:]):
            rels.append(EnvRelation(
                f"J{5 + a1}J{5 + b1} = J{5 + a2}J{5 + b2}",
                [(_c(1), (f"J{5 + a1}", f"J{5 + b1}")),
                 (_c(-1), (f"J{5 + a2}", f"J{5 + b2}"))], []))
    return rels


def sl2q_casimir_relation(q: QParam) -> EnvRelation:
    """q J+J- - J0J0 + ({n+1} - 2nhat) J0 = nhat (nhat - {n+1})."""
    b = q.b

    def qn1(p):
        return qnumber(int(Scalar.of(p["n"]).re) + 1, q)

    def nh(p):
        return nhat(int(Scalar.of(p["n"]).re), q)

    return EnvRelation(
        "q J+J- - J0J0 + ({n+1}-2nhat)J0 = nhat(nhat-{n+1})",
        [(_c(b), ("J+", "J-")), (_c(-1), ("J0", "J0")),
         (lambda p: qn1(p) - Scalar(2) * nh(p), ("J0",))],
        [(lambda p: nh(p) * (nh(p) - qn1(p)), "1")])


def relation_table(spec: RepSpec) -> List[EnvRelation]:
    if spec.algebra == "osp22":
        return osp22_relations()
    if spec.algebra == "sl3":
        return sl3_relations()
    if spec.algebra == "sl2xsl2":
        return sl2xsl2_relations()
    if spec.algebra == "gl2_semi":
        return gl2_semi_relations(spec.r)
    if spec.algebra == "sl2q":
        return [sl2q_casimir_relation(spec.q)]
    if spec.algebra == "sl2":
        return [EnvRelation(
            "J+J- - J0J0 + J0 = -(n/2)(n/2+1)",
            [(_c(1), ("J+", "J-")), (_c(-1), ("J0", "J0")), (_c(1), ("J0",))],
            [(lambda p: -(_n(p) * HALF) * (_n(p) * HALF + ONE), "1")])]
    return []


def verify_relations(spec: RepSpec, n_values: Sequence[Scalar] | None = None,
                     seed: int = 0) -> dict:
    """Expand LHS - RHS of every catalogued relation at several marks."""
    rng = random.Random(seed)
    if n_values is None:
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
        params = {"n": n, "m": m, "r": spec.r}
        for rel in relation_table(sp):
            diff = rel.residual(gens, params)
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
            split = SuperPoly.from_poly(c)
            parts = [(split.even, 0), (split.odd, 1)]
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
    from .spaces import SpaceSpec, action_matrix
    spec = RepSpec("sl2", n=Scalar(n))
    gens = make_rep(spec)
    s = SpaceSpec("interval", (n,))
    rows = []
    for w in words_up_to_degree(gens, n):
        res = action_matrix(expand_word(gens, w), s)
        assert res.preserved
        rows.append([res.matrix[i][j] for i in range(n + 1) for j in range(n + 1)])
    return rank(rows)
