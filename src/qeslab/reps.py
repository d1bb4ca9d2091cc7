"""Generator families realized as first-order operators, with their brackets.

Each algebra tag yields a GeneratorSet: named operators in a fixed word
order (raising, then Cartan, then lowering, odd generators last), parity and
grading data, and a structure table of bracket relations.  verify_structure
replays every relation through the operator engine and reports per-relation
verdicts; nothing is assumed, everything is expanded.

The difference-calculus family stores the unrescaled generators.  Its bracket
table is kept in cleared form (both sides multiplied by the scaling factors
q^(n/2), q^n of the rescaled basis), which is rational for every mark.  Each
table is stated once, here: the identity catalogue embeds these same tables
into Heisenberg pairs, and make_rep builds without checking them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from .freealg import FreeExpr, Word, expr
from .operators import (ContextMismatchError, LinOperator, MatrixOperator,
                        OpContext, compose, to_matrix_operator)
from .poly import Exponent
from .scalars import ONE, ZERO, QParam, Scalar, ScalarLike, DegenerateQError, qnumber

ALGEBRAS = ("sl2", "sl2q", "osp22", "sl3", "sl2xsl2", "gl2_semi",
            "so3_nonflat", "so_k1", "sl3_flag")

GradVec = Tuple[Fraction, Fraction]
Step = Tuple[Exponent, Scalar]


class MultiTermStepError(ValueError):
    """A generator maps a monomial to two or more terms: it takes no step."""


@dataclass(frozen=True)
class RepSpec:
    algebra: str
    n: Scalar = Scalar(0)
    m: Scalar = Scalar(0)       # second mark (rectangle family, flag family)
    q: QParam | None = None
    r: int = 1                  # abelian-ideal width parameter
    k: int = 2                  # number of variables for the rotation family

    def __post_init__(self):
        if self.algebra not in ALGEBRAS:
            raise ValueError(f"unknown algebra tag {self.algebra!r}")
        if self.algebra == "gl2_semi" and self.r < 1:
            raise ValueError("need r >= 1")
        if self.algebra == "so_k1" and self.k < 2:
            raise ValueError("need k >= 2")
        if self.algebra == "sl2q" and self.q is None:
            raise ValueError("sl2q needs a deformation parameter")
        if self.algebra == "sl2q" and self.q.b != ONE:
            if not (self.n.is_rational() and self.n.re.denominator == 1):
                raise ValueError(f"the deformed family needs an integer mark "
                                 f"at q={self.q.q}, got n={self.n}")
            if (ONE + self.q.b ** (int(self.n.re) + 1)).is_zero():
                raise DegenerateQError(f"{{2n+2}} vanishes at q={self.q.q}, "
                                       f"mark {self.n}")


@dataclass
class Relation:
    """A relation LHS = RHS between products of named generators, held as
    the one free-algebra element LHS - RHS (the empty word stands for 1)."""
    label: str
    expr: FreeExpr
    form: str = "printed"
    as_printed: bool = True

    @classmethod
    def of(cls, label: str, lhs: Sequence[Tuple[ScalarLike, Word]],
           rhs: Sequence[Tuple[ScalarLike, Word]] = (), **kw) -> "Relation":
        """From the (coefficient, word) terms of each side."""
        return cls(label, expr(*lhs, *((-Scalar.of(c), w) for c, w in rhs)), **kw)

    @classmethod
    def comm(cls, label: str, a: str, b: str, rhs: Dict[str, ScalarLike]) -> "Relation":
        return cls.of(label, [(1, (a, b)), (-1, (b, a))],
                      [(c, (g,)) for g, c in rhs.items()])

    @classmethod
    def anti(cls, label: str, a: str, b: str, rhs: Dict[str, ScalarLike]) -> "Relation":
        return cls.of(label, [(1, (a, b)), (1, (b, a))],
                      [(c, (g,)) for g, c in rhs.items()])


@dataclass
class GeneratorSet:
    spec: RepSpec
    ctx: OpContext
    names: Tuple[str, ...]
    ops: Dict[str, LinOperator]
    parity: Dict[str, int]
    grading: Dict[str, GradVec]
    structure: List[Relation]
    grading_weight: int = 1     # total grading = deg_x + weight * deg_y
    notes: List[str] = field(default_factory=list)
    _words: Dict[Tuple[str, ...], LinOperator] = field(
        default_factory=dict, init=False, compare=False, repr=False)
    _steps: Dict[Tuple[str, Exponent], Step | None] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def word_op(self, names: Sequence[str]) -> LinOperator:
        """Product of the named generators, composed left to right.

        The one path from generator words to operators.  Products are
        memoised per set, and a new word is its cached longest proper prefix
        composed with its last generator.  The returned operators are shared,
        so they must be treated as immutable.
        """
        key = tuple(names)
        out = self._words.get(key)
        if out is None:
            out = (compose(self.word_op(key[:-1]), self.ops[key[-1]]) if key
                   else LinOperator.identity(self.ctx))
            self._words[key] = out
        return out

    def step(self, name: str, exponent: Exponent) -> Step | None:
        """The generator's image of one monomial as (exponent', weight), or
        None when it vanishes: its own apply_monomial, memoised per set."""
        key = (name, exponent)
        if key not in self._steps:
            image = self.ops[name].apply_monomial(exponent)
            if len(image) > 1:
                raise MultiTermStepError(
                    f"{name} maps the monomial {exponent} to {len(image)} terms")
            self._steps[key] = next(iter(image.items()), None)
        return self._steps[key]


def evaluate_element(element: FreeExpr, word: Callable[[Word], object]):
    """The operator of an enveloping-algebra element, such as a relation's
    LHS - RHS, where word(w) is the product of the named generators (and
    word(()) the identity) in some operator algebra."""
    total = word(()).scale(ZERO)
    for w, c in element.items():
        total = total + word(w).scale(c)
    return total


def _product(ops: Dict[str, object], ident) -> Callable[[Sequence[str]], object]:
    """Word products over an operator dict that is not a GeneratorSet's own
    generators (the superalgebra's matrix images)."""
    def word(names: Sequence[str]):
        term = ident
        for name in names:
            term = term * ops[name]
        return term
    return word


def verify_structure(gens: GeneratorSet, matrix_form: bool = False) -> dict:
    """Expand every structure relation; failures are data, not exceptions."""
    if matrix_form:
        ident = MatrixOperator.identity(OpContext(gens.ctx.vars, q=gens.ctx.q))
        word = _product(to_matrix_rep(gens), ident)
    else:
        word = gens.word_op
    rows = []
    for rel in gens.structure:
        res = evaluate_element(rel.expr, word)
        ok = res.is_zero()
        rows.append({"label": rel.label, "form": rel.form, "ok": ok,
                     "residual": None if ok else repr(res)})
    return {
        "algebra": gens.spec.algebra,
        "matrix_form": matrix_form,
        "relations": rows,
        "notes": list(gens.notes),
        "ok": all(r["ok"] for r in rows),
    }


# --------------------------------------------------------------------------
# helpers

def sl2q_constants(spec: RepSpec) -> Tuple[Scalar, Scalar, Scalar, Scalar, Scalar]:
    """The deformed constants of the difference family at the spec's mark:
    ({n}, {n+1}, nhat = {n}{n+1}/{2n+2}, kappa, lambda), through t = b**n as
    {n} = (1 - t)/(1 - b), {n+1} = (1 - b t)/(1 - b), {2n+2}/{n+1} = 1 + b t;
    at base 1 the classical n, n+1, n/2 and the limits 1, 2."""
    b = spec.q.b
    if b == ONE:
        return spec.n, spec.n + ONE, spec.n / Scalar(2), ONE, Scalar(2)
    t = b ** int(spec.n.re)  # an integer mark, by RepSpec
    one_bt = ONE + b * t  # nonzero by RepSpec
    nq = (ONE - t) / (ONE - b)
    return nq, (ONE - b * t) / (ONE - b), nq / one_bt, t * (b + ONE) / one_bt, one_bt


GV = lambda a, b=0: (Fraction(a), Fraction(b))


# --------------------------------------------------------------------------
# individual families

def _sl2_like_ops(ctx: OpContext, var: str, n_plus: Scalar, n_zero: Scalar):
    """x^2 D - n_plus x, x D - n_zero, D in the context's calculus."""
    x = ctx.var(var)
    d = LinOperator.deriv(ctx, var)
    jp = LinOperator.mult(ctx, ctx.var(var, 2)) * d - LinOperator.mult(ctx, x).scale(n_plus)
    j0 = LinOperator.mult(ctx, x) * d - LinOperator.identity(ctx).scale(n_zero)
    return jp, j0, d


def _make_sl2(spec: RepSpec) -> GeneratorSet:
    ctx = OpContext(["x"])
    jp, j0, jm = _sl2_like_ops(ctx, "x", spec.n, spec.n / Scalar(2))
    structure = [
        Relation.comm("[J0,J+]=J+", "J0", "J+", {"J+": 1}),
        Relation.comm("[J0,J-]=-J-", "J0", "J-", {"J-": -1}),
        Relation.comm("[J+,J-]=-2J0", "J+", "J-", {"J0": -2}),
    ]
    return GeneratorSet(
        spec, ctx, ("J+", "J0", "J-"),
        {"J+": jp, "J0": j0, "J-": jm},
        {g: 0 for g in ("J+", "J0", "J-")},
        {"J+": GV(1), "J0": GV(0), "J-": GV(-1)},
        structure)


def _make_sl2q(spec: RepSpec) -> GeneratorSet:
    q = spec.q.b  # structure constants live at the effective base
    ctx = OpContext(["x"], q=spec.q)
    nq, _, nh, kappa, lam = sl2q_constants(spec)
    notes = ["base 1: classical limit branch"] if q == ONE else []
    jp, j0, D = _sl2_like_ops(ctx, "x", nq, nh)
    # cleared form of the deformed bracket table: multiply the rescaled
    # relations through by q^(n/2) factors, which cancels every irrationality
    structure = [
        Relation.of("q J0J- - J-J0 = -kappa J-",
                    [(q, ("J0", "J-")), (-1, ("J-", "J0"))],
                    [(-kappa, ("J-",))], form="cleared"),
        Relation.of("q^2 J+J- - J-J+ = -lambda J0",
                    [(q * q, ("J+", "J-")), (-1, ("J-", "J+"))],
                    [(-lam, ("J0",))], form="cleared"),
        Relation.of("J0J+ - q J+J0 = kappa J+",
                    [(1, ("J0", "J+")), (-q, ("J+", "J0"))],
                    [(kappa, ("J+",))], form="cleared"),
    ]
    return GeneratorSet(
        spec, ctx, ("J+", "J0", "J-"),
        {"J+": jp, "J0": j0, "J-": D},
        {g: 0 for g in ("J+", "J0", "J-")},
        {"J+": GV(1), "J0": GV(0), "J-": GV(-1)},
        structure, notes=notes)


def _make_osp22(spec: RepSpec) -> GeneratorSet:
    n = spec.n
    ctx = OpContext(["x"], theta=True)
    x = ctx.var("x")
    th = ctx.var("theta")
    dx = LinOperator.deriv(ctx, "x")
    dth = LinOperator.deriv(ctx, "theta")
    mx = LinOperator.mult(ctx, x)
    mth = LinOperator.mult(ctx, th)
    half = Scalar(Fraction(1, 2))
    tp = LinOperator.mult(ctx, ctx.var("x", 2)) * dx - mx.scale(n) + mx * mth * dth
    t0 = mx * dx - LinOperator.identity(ctx).scale(n * half) + (mth * dth).scale(half)
    tm = dx
    jj = -LinOperator.identity(ctx).scale(n * half) - (mth * dth).scale(half)
    q1 = dth
    q2 = mx * dth
    qb1 = mx * mth * dx - mth.scale(n)
    qb2 = -(mth * dx)
    ops = {"T+": tp, "T0": t0, "T-": tm, "J": jj,
           "Q1": q1, "Q2": q2, "Qb1": qb1, "Qb2": qb2}
    structure = [
        Relation.comm("[T0,T+]=T+", "T0", "T+", {"T+": 1}),
        Relation.comm("[T0,T-]=-T-", "T0", "T-", {"T-": -1}),
        Relation.comm("[T+,T-]=-2T0", "T+", "T-", {"T0": -2}),
        Relation.comm("[J,T+]=0", "J", "T+", {}),
        Relation.comm("[J,T0]=0", "J", "T0", {}),
        Relation.comm("[J,T-]=0", "J", "T-", {}),
        Relation.anti("{Q1,Qb2}=-T-", "Q1", "Qb2", {"T-": -1}),
        Relation.anti("{Q2,Qb1}=T+", "Q2", "Qb1", {"T+": 1}),
        Relation.of("({Qb1,Q1}+{Qb2,Q2})/2=J",
                    [(half, ("Qb1", "Q1")), (half, ("Q1", "Qb1")),
                     (half, ("Qb2", "Q2")), (half, ("Q2", "Qb2"))], [(1, ("J",))]),
        Relation.of("({Qb1,Q1}-{Qb2,Q2})/2=T0",
                    [(half, ("Qb1", "Q1")), (half, ("Q1", "Qb1")),
                     (-half, ("Qb2", "Q2")), (-half, ("Q2", "Qb2"))], [(1, ("T0",))]),
        Relation.anti("{Q1,Q1}=0", "Q1", "Q1", {}),
        Relation.anti("{Q2,Q2}=0", "Q2", "Q2", {}),
        Relation.anti("{Q1,Q2}=0", "Q1", "Q2", {}),
        Relation.anti("{Qb1,Qb1}=0", "Qb1", "Qb1", {}),
        Relation.anti("{Qb2,Qb2}=0", "Qb2", "Qb2", {}),
        Relation.anti("{Qb1,Qb2}=0", "Qb1", "Qb2", {}),
        Relation.comm("[Q1,T+]=Q2", "Q1", "T+", {"Q2": 1}),
        Relation.comm("[Q2,T+]=0", "Q2", "T+", {}),
        Relation.comm("[Q1,T-]=0", "Q1", "T-", {}),
        Relation.comm("[Q2,T-]=-Q1", "Q2", "T-", {"Q1": -1}),
        Relation.comm("[Qb1,T+]=0", "Qb1", "T+", {}),
        Relation.comm("[Qb2,T+]=-Qb1", "Qb2", "T+", {"Qb1": -1}),
        Relation.comm("[Qb1,T-]=Qb2", "Qb1", "T-", {"Qb2": 1}),
        Relation.comm("[Qb2,T-]=0", "Qb2", "T-", {}),
        Relation.comm("[Q1,T0]=Q1/2", "Q1", "T0", {"Q1": half}),
        Relation.comm("[Q2,T0]=-Q2/2", "Q2", "T0", {"Q2": -half}),
        Relation.comm("[Qb1,T0]=-Qb1/2", "Qb1", "T0", {"Qb1": -half}),
        Relation.comm("[Qb2,T0]=Qb2/2", "Qb2", "T0", {"Qb2": half}),
        Relation.comm("[Q1,J]=-Q1/2", "Q1", "J", {"Q1": -half}),
        Relation.comm("[Q2,J]=-Q2/2", "Q2", "J", {"Q2": -half}),
        Relation.comm("[Qb1,J]=Qb1/2", "Qb1", "J", {"Qb1": half}),
        Relation.comm("[Qb2,J]=Qb2/2", "Qb2", "J", {"Qb2": half}),
    ]
    h = Fraction(1, 2)
    return GeneratorSet(
        spec, ctx, ("T+", "T0", "J", "T-", "Q1", "Q2", "Qb1", "Qb2"),
        ops,
        {"T+": 0, "T0": 0, "J": 0, "T-": 0, "Q1": 1, "Q2": 1, "Qb1": 1, "Qb2": 1},
        {"T+": GV(1), "T0": GV(0), "J": GV(0), "T-": GV(-1),
         "Q1": (Fraction(-1, 2), Fraction(0)), "Q2": (h, Fraction(0)),
         "Qb1": (h, Fraction(0)), "Qb2": (Fraction(-1, 2), Fraction(0))},
        structure)


def to_matrix_rep(gens: GeneratorSet) -> Dict[str, MatrixOperator]:
    """Matrix images of the superalgebra generators (upper row = odd sector)."""
    if gens.spec.algebra != "osp22":
        raise ContextMismatchError("matrix form exists only for the superalgebra")
    return {name: to_matrix_operator(op) for name, op in gens.ops.items()}


def _make_sl2xsl2(spec: RepSpec) -> GeneratorSet:
    ctx = OpContext(["x", "y"])
    xp, x0, xm = _sl2_like_ops(ctx, "x", spec.n, spec.n / Scalar(2))
    yp, y0, ym = _sl2_like_ops(ctx, "y", spec.m, spec.m / Scalar(2))
    ops = {"Jx+": xp, "Jx0": x0, "Jx-": xm, "Jy+": yp, "Jy0": y0, "Jy-": ym}
    structure = [
        Relation.comm("[Jx0,Jx+]=Jx+", "Jx0", "Jx+", {"Jx+": 1}),
        Relation.comm("[Jx0,Jx-]=-Jx-", "Jx0", "Jx-", {"Jx-": -1}),
        Relation.comm("[Jx+,Jx-]=-2Jx0", "Jx+", "Jx-", {"Jx0": -2}),
        Relation.comm("[Jy0,Jy+]=Jy+", "Jy0", "Jy+", {"Jy+": 1}),
        Relation.comm("[Jy0,Jy-]=-Jy-", "Jy0", "Jy-", {"Jy-": -1}),
        Relation.comm("[Jy+,Jy-]=-2Jy0", "Jy+", "Jy-", {"Jy0": -2}),
    ] + [Relation.comm(f"[{a},{b}]=0", a, b, {})
         for a in ("Jx+", "Jx0", "Jx-") for b in ("Jy+", "Jy0", "Jy-")]
    return GeneratorSet(
        spec, ctx, ("Jx+", "Jx0", "Jx-", "Jy+", "Jy0", "Jy-"),
        ops, {g: 0 for g in ops},
        {"Jx+": GV(1, 0), "Jx0": GV(0), "Jx-": GV(-1, 0),
         "Jy+": GV(0, 1), "Jy0": GV(0), "Jy-": GV(0, -1)},
        structure)


def _make_gl2_semi(spec: RepSpec) -> GeneratorSet:
    r, n = spec.r, spec.n
    ctx = OpContext(["x", "y"])
    x, y = ctx.var("x"), ctx.var("y")
    dx, dy = LinOperator.deriv(ctx, "x"), LinOperator.deriv(ctx, "y")
    third = n / Scalar(3)
    j1 = dx
    j2 = LinOperator.mult(ctx, x) * dx - LinOperator.identity(ctx).scale(third)
    j3 = LinOperator.mult(ctx, y) * dy - LinOperator.identity(ctx).scale(third / Scalar(r))
    j4 = (LinOperator.mult(ctx, ctx.var("x", 2)) * dx
          + (LinOperator.mult(ctx, x * y) * dy).scale(r)
          - LinOperator.mult(ctx, x).scale(n))
    ops = {"J1": j1, "J2": j2, "J3": j3, "J4": j4}
    for i in range(r + 1):
        ops[f"J{5 + i}"] = dy if i == 0 else LinOperator.mult(ctx, ctx.var("x", i)) * dy
    structure = [
        Relation.comm("[J1,J2]=J1", "J1", "J2", {"J1": 1}),
        Relation.comm("[J1,J3]=0", "J1", "J3", {}),
        Relation.comm("[J2,J3]=0", "J2", "J3", {}),
        Relation.comm("[J1,J4]=2J2+rJ3", "J1", "J4", {"J2": 2, "J3": r}),
        Relation.comm("[J2,J4]=J4", "J2", "J4", {"J4": 1}),
        Relation.comm("[J3,J4]=0", "J3", "J4", {}),
    ]
    for i in range(r + 1):
        g = f"J{5 + i}"
        structure.append(Relation.comm(f"[J1,{g}]={i}*J{4 + i}" if i else f"[J1,{g}]=0",
                                       "J1", g, {f"J{4 + i}": i} if i else {}))
        structure.append(Relation.comm(f"[J2,{g}]={i}*{g}", "J2", g,
                                       {g: i} if i else {}))
        structure.append(Relation.comm(f"[J3,{g}]=-{g}", "J3", g, {g: -1}))
        rhs = {f"J{6 + i}": i - r} if i < r else {}
        structure.append(Relation.comm(f"[J4,{g}]", "J4", g, rhs))
        for j in range(i + 1, r + 1):
            structure.append(Relation.comm(f"[{g},J{5 + j}]=0", g, f"J{5 + j}", {}))
    names = ("J4", "J2", "J3", "J1") + tuple(f"J{5 + i}" for i in range(r + 1))
    grading = {"J1": GV(-1, 0), "J2": GV(0), "J3": GV(0), "J4": GV(1, 0)}
    for i in range(r + 1):
        grading[f"J{5 + i}"] = GV(i, -1)
    return GeneratorSet(spec, ctx, names, ops, {g: 0 for g in ops},
                        grading, structure, grading_weight=r)


def root_of_unity_generators(n: int, q: QParam) -> Dict[str, LinOperator]:
    """Difference-family generators at a root-of-unity deformation.

    When q**n = 1 the Cartan constant {n}{n+1}/{2n+2} degenerates, but the
    raising operator x^2 D - {n} x and the flag statements survive; the
    Cartan member is returned without its additive constant (any constant
    preserves every space).
    """
    ctx = OpContext(["x"], q=q)
    t = q.b ** n
    if t != ONE:
        raise ValueError("the deformation is not an n-th root of unity")
    jp, j0, D = _sl2_like_ops(ctx, "x", qnumber(n, q), ZERO)
    return {"J+": jp, "J0": j0, "J-": D}


def make_rep(spec: RepSpec) -> GeneratorSet:
    builders = {
        "sl2": _make_sl2,
        "sl2q": _make_sl2q,
        "osp22": _make_osp22,
        "sl2xsl2": _make_sl2xsl2,
        "gl2_semi": _make_gl2_semi,
        "sl3": _make_sl3,
        "so3_nonflat": _make_so3_nonflat,
        "so_k1": _make_so_k1,
        "sl3_flag": _make_sl3_flag,
    }
    return builders[spec.algebra](spec)


# --------------------------------------------------------------------------
# two-variable and many-variable families with derived bracket tables

def _make_sl3(spec: RepSpec) -> GeneratorSet:
    n = spec.n
    ctx = OpContext(["x", "y"])
    x, y = ctx.var("x"), ctx.var("y")
    dx, dy = LinOperator.deriv(ctx, "x"), LinOperator.deriv(ctx, "y")

    def mul(p):
        return LinOperator.mult(ctx, p)

    ops = {
        "J13": mul(ctx.var("y", 2)) * dy + mul(x * y) * dx - mul(y).scale(n),
        "J12": mul(ctx.var("x", 2)) * dx + mul(x * y) * dy - mul(x).scale(n),
        "J23": -(mul(y) * dx),
        "J21": -dx,
        "J31": -dy,
        "J32": -(mul(x) * dy),
        "Jd": mul(y) * dy + (mul(x) * dx).scale(2) - LinOperator.identity(ctx).scale(n),
        "Jtd": (mul(y) * dy).scale(2) + mul(x) * dx - LinOperator.identity(ctx).scale(n),
    }
    structure = _SL3_TABLE()
    return GeneratorSet(
        spec, ctx, ("J13", "J12", "J23", "J32", "Jd", "Jtd", "J31", "J21"),
        ops, {g: 0 for g in ops},
        {"J13": GV(0, 1), "J12": GV(1, 0), "J23": GV(-1, 1), "J32": GV(1, -1),
         "Jd": GV(0), "Jtd": GV(0), "J31": GV(0, -1), "J21": GV(-1, 0)},
        structure)


def _make_so3_nonflat(spec: RepSpec) -> GeneratorSet:
    n = spec.n
    ctx = OpContext(["x", "y"])
    x, y = ctx.var("x"), ctx.var("y")
    one = ctx.const(1)
    dx, dy = LinOperator.deriv(ctx, "x"), LinOperator.deriv(ctx, "y")

    def mul(p):
        return LinOperator.mult(ctx, p)

    ops = {
        "J1": mul(one + ctx.var("y", 2)) * dy + mul(x * y) * dx - mul(y).scale(n),
        "J2": mul(one + ctx.var("x", 2)) * dx + mul(x * y) * dy - mul(x).scale(n),
        "J3": mul(x) * dy - mul(y) * dx,
    }
    structure = _SO3_TABLE()
    return GeneratorSet(spec, ctx, ("J1", "J2", "J3"), ops,
                        {g: 0 for g in ops},
                        {g: GV(0) for g in ops}, structure,
                        notes=["not graded"])


def _make_so_k1(spec: RepSpec) -> GeneratorSet:
    k, n = spec.k, spec.n
    vars = tuple(f"x{i}" for i in range(1, k + 1))
    ctx = OpContext(vars)

    def mul(p):
        return LinOperator.mult(ctx, p)

    ops: Dict[str, LinOperator] = {}
    names: List[str] = []
    for i in range(2, k + 1):
        for j in range(1, i):
            name = f"H{i}{j}"
            ops[name] = (mul(ctx.var(f"x{i}")) * LinOperator.deriv(ctx, f"x{j}")
                         - mul(ctx.var(f"x{j}")) * LinOperator.deriv(ctx, f"x{i}"))
            names.append(name)
    one = ctx.const(1)
    for i in range(1, k + 1):
        xi = ctx.var(f"x{i}")
        gi = mul(one + xi * xi) * LinOperator.deriv(ctx, f"x{i}")
        for j in range(1, k + 1):
            if j != i:
                gi = gi + mul(xi * ctx.var(f"x{j}")) * LinOperator.deriv(ctx, f"x{j}")
        gi = gi - mul(xi).scale(n)
        ops[f"G{i}"] = gi
        names.append(f"G{i}")
    structure = _SO_K1_TABLE(k)
    return GeneratorSet(spec, ctx, tuple(names), ops, {g: 0 for g in ops},
                        {g: GV(0) for g in ops}, structure,
                        notes=["not graded"])


def _make_sl3_flag(spec: RepSpec) -> GeneratorSet:
    n1, n2 = spec.n, spec.m
    ctx = OpContext(["z12", "z13", "z23"])
    z12, z13, z23 = (ctx.var(v) for v in ("z12", "z13", "z23"))
    d12, d13, d23 = (LinOperator.deriv(ctx, v) for v in ("z12", "z13", "z23"))

    def mul(p):
        return LinOperator.mult(ctx, p)

    ident = LinOperator.identity(ctx)
    ops = {
        "e1": -d12 - mul(z23) * d13,
        "e2": -d23,
        "f1": mul(z12 * z12) * d12 - mul(z13) * d23 - mul(z12).scale(n1),
        "f2": (mul(z13 * z23) * d13 + mul(z23 * z23) * d23
               + mul(z13 - z12 * z23) * d12 - mul(z23).scale(n2)),
        "h1": (-(mul(z12) * d12).scale(2) - mul(z13) * d13 + mul(z23) * d23
               + ident.scale(n1)),
        "h2": (mul(z12) * d12 - mul(z13) * d13 - (mul(z23) * d23).scale(2)
               + ident.scale(n2)),
    }
    structure = _SL3_FLAG_TABLE()
    return GeneratorSet(spec, ctx, ("e1", "e2", "h1", "h2", "f1", "f2"),
                        ops, {g: 0 for g in ops},
                        {g: GV(0) for g in ops}, structure,
                        notes=["not graded"])


# --------------------------------------------------------------------------
# frozen bracket tables (derived once by expansion, kept as regression data)

def _SL3_TABLE() -> List[Relation]:
    # all brackets turn out mark-independent
    table = [
        ("J13", "J12", {}),
        ("J13", "J23", {}),
        ("J13", "J32", {"J12": 1}),
        ("J13", "Jd", {"J13": -1}),
        ("J13", "Jtd", {"J13": -2}),
        ("J13", "J31", {"Jtd": 1}),
        ("J13", "J21", {"J23": -1}),
        ("J12", "J23", {"J13": 1}),
        ("J12", "J32", {}),
        ("J12", "Jd", {"J12": -2}),
        ("J12", "Jtd", {"J12": -1}),
        ("J12", "J31", {"J32": -1}),
        ("J12", "J21", {"Jd": 1}),
        ("J23", "J32", {"Jd": -1, "Jtd": 1}),
        ("J23", "Jd", {"J23": 1}),
        ("J23", "Jtd", {"J23": -1}),
        ("J23", "J31", {"J21": 1}),
        ("J23", "J21", {}),
        ("J32", "Jd", {"J32": -1}),
        ("J32", "Jtd", {"J32": 1}),
        ("J32", "J31", {}),
        ("J32", "J21", {"J31": 1}),
        ("Jd", "Jtd", {}),
        ("Jd", "J31", {"J31": -1}),
        ("Jd", "J21", {"J21": -2}),
        ("Jtd", "J31", {"J31": -2}),
        ("Jtd", "J21", {"J21": -1}),
        ("J31", "J21", {}),
    ]
    return [Relation.comm(f"[{a},{b}]", a, b, rhs) for a, b, rhs in table]


def _SO3_TABLE() -> List[Relation]:
    return [
        Relation.comm("[J1,J2]=J3", "J1", "J2", {"J3": 1}),
        Relation.comm("[J1,J3]=-J2", "J1", "J3", {"J2": -1}),
        Relation.comm("[J2,J3]=J1", "J2", "J3", {"J1": 1}),
    ]


def _SO_K1_TABLE(k: int) -> List[Relation]:
    # rotation brackets, with L_ij = x_i d_j - x_j d_i written in the stored
    # H names (H_ij kept for i > j, L_ij = -L_ji, L_ii = 0)
    def L(i: int, j: int) -> Dict[str, int]:
        if i == j:
            return {}
        return {f"H{i}{j}": 1} if i > j else {f"H{j}{i}": -1}

    def merge(*parts: Dict[str, int]) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for p in parts:
            for g, c in p.items():
                out[g] = out.get(g, 0) + c
        return {g: c for g, c in out.items() if c}

    def neg(p: Dict[str, int]) -> Dict[str, int]:
        return {g: -c for g, c in p.items()}

    rels = []
    hs = [(i, j) for i in range(2, k + 1) for j in range(1, i)]
    for idx, (a, b) in enumerate(hs):
        for (c, d) in hs[idx + 1:]:
            rhs = merge(L(a, d) if b == c else {},
                        neg(L(b, d)) if a == c else {},
                        neg(L(a, c)) if b == d else {},
                        L(b, c) if a == d else {})
            rels.append(Relation.comm(f"[H{a}{b},H{c}{d}]", f"H{a}{b}", f"H{c}{d}", rhs))
    for (a, b) in hs:
        for l in range(1, k + 1):
            rhs: Dict[str, int] = {}
            if l == b:
                rhs[f"G{a}"] = rhs.get(f"G{a}", 0) + 1
            if l == a:
                rhs[f"G{b}"] = rhs.get(f"G{b}", 0) - 1
            rels.append(Relation.comm(f"[H{a}{b},G{l}]", f"H{a}{b}", f"G{l}", rhs))
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            rels.append(Relation.comm(f"[G{i},G{j}]", f"G{i}", f"G{j}", L(j, i)))
    return rels


def _SL3_FLAG_TABLE() -> List[Relation]:
    rels = [
        Relation.comm("[e1,f1]=h1", "e1", "f1", {"h1": 1}),
        Relation.comm("[e1,f2]=0", "e1", "f2", {}),
        Relation.comm("[e2,f1]=0", "e2", "f1", {}),
        Relation.comm("[e2,f2]=h2", "e2", "f2", {"h2": 1}),
        Relation.comm("[h1,h2]=0", "h1", "h2", {}),
        Relation.comm("[h1,e1]=2e1", "h1", "e1", {"e1": 2}),
        Relation.comm("[h1,e2]=-e2", "h1", "e2", {"e2": -1}),
        Relation.comm("[h2,e1]=-e1", "h2", "e1", {"e1": -1}),
        Relation.comm("[h2,e2]=2e2", "h2", "e2", {"e2": 2}),
        Relation.comm("[h1,f1]=-2f1", "h1", "f1", {"f1": -2}),
        Relation.comm("[h1,f2]=f2", "h1", "f2", {"f2": 1}),
        Relation.comm("[h2,f1]=f1", "h2", "f1", {"f1": 1}),
        Relation.comm("[h2,f2]=-2f2", "h2", "f2", {"f2": -2}),
    ]
    # Serre relations: ad(e1)^2 e2 = 0 etc.; [e1,e2] and [f1,f2] are the
    # extra root generators, outside the six-name span
    for a, b in (("e1", "e2"), ("e2", "e1"), ("f1", "f2"), ("f2", "f1")):
        rels.append(Relation.of(f"[{a},[{a},{b}]]=0",
                                [(1, (a, a, b)), (-2, (a, b, a)), (1, (b, a, a))]))
    return rels
