"""Finite-dimensional polynomial spaces and exact actions on them.

A SpaceSpec names a lattice region (interval, spinor pair, triangle,
rectangle, wedge, simplex); its variables follow from its kind and
parameters, its basis is enumerated in graded order with the even sector
first, and the closed-form dimension is cross-checked against the
enumeration at construction time, after the parameters and then the
dimension are held to MAX_SPACE_SIZE.  action_matrix takes the image of
each basis monomial (apply_monomial, of a LinOperator or of an element
acting by generator walks) and stores it sparse, one {row: entry} column
per label plus the out-of-space parts; the exact dense matrix is built on
first read.
This is the one action path: a superalgebra operator acts on a spinor pair
through its odd variable (the odd row is the theta sector), which is the
same action as its 2x2 matrix transcription on two-component functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterator, List, Sequence, Tuple

from .operators import LinOperator, OpContext
from .poly import Exponent
from .scalars import Scalar, ZERO

# basis label: exponent tuple over the space variables, plus the odd flag
Label = Tuple[Tuple[int, ...], int]


# the largest parameter, and the largest dimension, a space may have: far
# above every space the suites build, and small enough to enumerate at once
MAX_SPACE_SIZE = 4096


class DimensionMismatchError(AssertionError):
    """Enumerated basis size disagrees with the closed-form dimension."""


@dataclass(frozen=True)
class SpaceSpec:
    kind: str                     # interval|spinor|triangle|rectangle|wedge|simplex
    params: Tuple[int, ...]

    def __post_init__(self):
        kinds = {"interval": 1, "spinor": 2, "triangle": 1, "rectangle": 2,
                 "wedge": 2, "simplex": 2}
        if self.kind not in kinds:
            raise ValueError(f"unknown space kind {self.kind!r}")
        if len(self.params) != kinds[self.kind]:
            raise ValueError(f"{self.kind} takes {kinds[self.kind]} parameters")
        # the spinor pair allows an empty odd row (M = -1)
        low = -1 if self.kind == "spinor" else 0
        if self.params[0] < 0 or any(p < low for p in self.params) or \
                (self.kind in ("wedge", "simplex") and self.params[0] < 1):
            raise ValueError(f"bad parameters {self.params} for {self.kind}")
        if max(self.params) > MAX_SPACE_SIZE:
            raise ValueError(f"{self} has a parameter above {MAX_SPACE_SIZE}")
        dim = dimension(self)
        if dim > MAX_SPACE_SIZE:
            raise ValueError(f"{self} has dimension {dim}, above {MAX_SPACE_SIZE}")
        if dim != len(self.labels()):
            raise DimensionMismatchError(str(self))

    @property
    def vars(self) -> Tuple[str, ...]:
        """The even variables: x, x and y, or x1..xk for simplex k."""
        if self.kind == "simplex":
            return tuple(f"x{i}" for i in range(1, self.params[0] + 1))
        return ("x",) if self.kind in ("interval", "spinor") else ("x", "y")

    # -- enumeration -----------------------------------------------------

    def labels(self) -> List[Label]:
        """Graded-lex basis labels, even sector before the odd one."""
        k = self.kind
        p = self.params
        if k == "interval":
            return [((i,), 0) for i in range(p[0] + 1)]
        if k == "spinor":
            ev = [((i,), 0) for i in range(p[0] + 1)]
            od = [((i,), 1) for i in range(p[1] + 1)]
            return ev + od
        if k == "rectangle":
            exps = [(i, j) for i in range(p[0] + 1) for j in range(p[1] + 1)]
        elif k == "triangle":
            exps = [(i, j) for i in range(p[0] + 1) for j in range(p[0] + 1 - i)]
        elif k == "wedge":
            r, n = p
            exps = [(i, j) for i in range(n + 1) for j in range((n - i) // r + 1)]
        else:  # simplex
            kk, n = p
            exps: List[Tuple[int, ...]] = [()]
            for _ in range(kk):
                exps = [e + (j,) for e in exps for j in range(n + 1 - sum(e))]
        exps.sort(key=lambda e: (sum(e), tuple(reversed(e))))
        return [(e, 0) for e in exps]

    def is_spinor(self) -> bool:
        return self.kind == "spinor"

    def __str__(self) -> str:
        return f"{self.kind}:{','.join(map(str, self.params))}"


def dimension(s: SpaceSpec) -> int:
    """Closed-form dimension; raises when the enumeration disagrees."""
    k, p = s.kind, s.params
    if k == "interval":
        return p[0] + 1
    if k == "spinor":
        return p[0] + p[1] + 2
    if k == "triangle":
        n = p[0]
        return (n + 1) * (n + 2) // 2
    if k == "rectangle":
        return (p[0] + 1) * (p[1] + 1)
    if k == "simplex":
        from math import comb
        return comb(p[0] + p[1], p[0])
    # wedge: enumeration is authoritative; the quadratic closed form is
    # asserted for the parameter ranges whose alpha constant is tabulated
    r, n = p
    count = sum((n - i) // r + 1 for i in range(n + 1))
    alpha = _wedge_alpha(r, n)
    if alpha is not None:
        formula = Fraction(n * n + (r + 2) * n + alpha, 2 * r)
        if formula != count:
            raise DimensionMismatchError(
                f"wedge({r},{n}): enumerated {count}, closed form {formula}")
    return count


def _wedge_alpha(r: int, n: int) -> int | None:
    if r == 1:
        return 2
    if r == 2:
        return 3 if n % 2 else 4
    if r == 3:
        return 4 if (n + 1) % 3 == 0 else 6
    if r == 4:
        if (n + 1) % 4 == 0:
            return 5
        if (n + 3) % 4 == 0:
            return 9
        return 8
    return None


def _exponent(vars: Tuple[str, ...], label: Label, ctx: OpContext) -> Exponent:
    """A basis label's exponent tuple over the operator context, given the
    space's variables."""
    exp, odd = label
    if odd and not ctx.theta:
        raise ValueError("odd basis element in an even-only context")
    e = [0] * len(ctx.all_vars)
    for v, k in zip(vars + ("theta",) * odd, exp + (odd,)):
        e[ctx.all_vars.index(v)] = k
    return tuple(e)


@dataclass
class Escape:
    source: Label
    monomial: Tuple[int, ...]
    coeff: Scalar


@dataclass
class ActionResult:
    """An action stored sparse, as columns and escapes; matrix is dense on read."""
    space: SpaceSpec
    labels: List[Label]
    columns: List[Dict[int, Scalar]]        # label j's image: row -> nonzero entry
    escapes: List[Escape]

    @property
    def preserved(self) -> bool:
        return not self.escapes

    @cached_property
    def matrix(self) -> List[List[Scalar]] | None:    # rows/cols indexed by labels
        if self.escapes:
            return None
        return [[col.get(i, ZERO) for col in self.columns] for i in range(len(self.labels))]


def action_matrix(op: LinOperator, s: SpaceSpec) -> ActionResult:
    return next(flag_actions(op, [s]))


def flag_actions(op, flag: Sequence[SpaceSpec]) -> Iterator[ActionResult]:
    """action_matrix(op, s) for each s in flag.  op is a LinOperator or an
    enveloping.ElementAction, and its apply_monomial runs once per basis
    monomial, however many members share it.  An image splits into a sparse
    column and escapes, the terms at no basis label's exponent, which keep the
    image's term order; no dense matrix is built."""
    ctx = op.ctx
    images: Dict[Exponent, Dict[Exponent, Scalar]] = {}
    for s in flag:
        labels, vars = s.labels(), s.vars
        exps = [_exponent(vars, lab, ctx) for lab in labels]
        index = {e: i for i, e in enumerate(exps)}
        cols: List[Dict[int, Scalar]] = []
        escapes: List[Escape] = []
        for lab, e in zip(labels, exps):
            if e not in images:
                images[e] = op.apply_monomial(e)
            cols.append({index[t]: c for t, c in images[e].items() if t in index})
            escapes.extend(Escape(lab, t, c) for t, c in images[e].items() if t not in index)
        yield ActionResult(s, labels, cols, escapes)


def parse_space(text: str) -> SpaceSpec:
    """Parse the command-line syntax: int:4, spin:3,2, tri:3, rect:2,3,
    wedge:2,4, simplex:3,2."""
    head, _, rest = text.partition(":")
    kinds = {"int": "interval", "spin": "spinor", "tri": "triangle",
             "rect": "rectangle", "wedge": "wedge", "simplex": "simplex"}
    if head not in kinds:
        raise ValueError(f"unknown space syntax {text!r}")
    params = tuple(int(p) for p in rest.split(",") if p != "")
    return SpaceSpec(kinds[head], params)
