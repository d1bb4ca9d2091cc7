"""Canonical linear operators: polynomial coefficients times derivative words.

An operator is stored normally ordered -- every coefficient to the left of
every derivative symbol -- so equality of canonical forms is the operator
equality used throughout.  All three calculi are one construction (an Ore
extension): each variable slot i carries a twist sigma_i and a derivation
delta_i with D_i o M_c = M_{sigma_i c} D_i + M_{delta_i c}.  The twist is the
dilation x_i -> s*x_i and delta_i the s-difference quotient, for a factor s
fixed by the calculus:

  calculus     delta               sigma            [a k]_s
  continuous   d/dx                identity (s=1)   binomial
  difference   quotient at base b  x -> b*x (s=b)   Gaussian, base b
  odd          d/dth               th -> -th        binomial (a <= 1)

(on the odd slot, th^2 = 0 makes the (-1)-quotient the plain d/dth).  Since
delta_i o sigma_i = s * sigma_i o delta_i, pushing a power through a
coefficient has the closed q-Leibniz form

  D_i^a o M_c = sum_{k=a..0} [a k]_s M_{sigma_i^k delta_i^(a-k) c} D_i^k,

which composition applies slot by slot from the OpContext's pieces.  The
Gaussian [a k]_b comes from the q-Pascal rule, a polynomial in b, so it stays
defined where the q-factorials of {a}!/({k}!{a-k}!) vanish (b a root of unity).

A context either uses continuous derivatives in all variables or a difference
derivative in a single variable; one optional anticommuting variable rides on
top of the continuous case.  The 2x2 matrix form replaces the anticommuting
pair (th, d_th) by the raising/lowering matrices, upper component = th-sector;
``even_odd`` splits a coefficient into its two sectors.  An operator's text
form is the expression language of ``dsl``.
"""

from __future__ import annotations

from math import comb
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .poly import Exponent, Poly
from .scalars import QParam, Scalar, ScalarLike, qbinomial

DerivWord = Tuple[int, ...]

THETA = "theta"


class ContextMismatchError(ValueError):
    """Operands built over different operator contexts."""


class OpContext:
    """Variable list plus calculus choice (continuous vs difference, odd var),
    and the one place that knows it: the per-slot twist, derivation, binomial."""

    __slots__ = ("vars", "q", "theta", "all_vars", "_base", "_shift")

    def __init__(self, vars: Iterable[str], q: QParam | None = None,
                 theta: bool = False):
        self.vars: Tuple[str, ...] = tuple(vars)
        self.q = q
        self.theta = theta
        if THETA in self.vars:
            raise ValueError("the odd variable is declared via theta=True")
        if q is not None and theta:
            raise ValueError("difference calculus with an odd variable is not defined")
        if q is not None and len(self.vars) != 1:
            raise ValueError("difference contexts carry exactly one variable")
        self.all_vars: Tuple[str, ...] = self.vars + (THETA,) if theta else self.vars
        # the base of every derivation (None: plain derivatives, d/dth too)
        # and, per slot, the dilation factor s of the twist (None: identity)
        self._base = q.b if q is not None else None
        self._shift = tuple(Scalar(-1) if v == THETA else self._base for v in self.all_vars)

    @property
    def nil(self) -> frozenset[str]:
        return frozenset({THETA}) if self.theta else frozenset()

    def poly(self, terms=None) -> Poly:
        return Poly(self.all_vars, terms or {}, self.nil)

    def const(self, c: ScalarLike) -> Poly:
        return Poly.const(self.all_vars, c, self.nil)

    def var(self, name: str, power: int = 1) -> Poly:
        return Poly.var(self.all_vars, name, power, self.nil)

    def delta(self, p: Poly, i: int) -> Poly:
        """The derivation of slot i: d/dx, or the quotient at base b."""
        return p.derivative(self.all_vars[i], self._base)

    def sigma(self, p: Poly, i: int, k: int = 1) -> Poly:
        """The k-th power of the twist of slot i, x_i -> s**k * x_i."""
        s = self._shift[i]
        return p if s is None or k == 0 else p.shift_scale(self.all_vars[i], s ** k)

    def binomial(self, a: int, k: int) -> ScalarLike:
        """[a k]_b of the q-Leibniz rule (odd slots have a <= 1, where it is 1)."""
        return comb(a, k) if self.q is None else qbinomial(a, k, self.q)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, OpContext) and self.vars == other.vars
                and self.q == other.q and self.theta == other.theta)

    def __hash__(self) -> int:
        return hash((self.vars, self.q, self.theta))

    def __repr__(self) -> str:
        q = f", q={self.q}" if self.q else ""
        th = ", theta" if self.theta else ""
        return f"OpContext({','.join(self.vars)}{q}{th})"


class LinOperator:
    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: OpContext,
                 terms: Mapping[DerivWord, Poly] | None = None):
        self.ctx = ctx
        width = len(ctx.all_vars)
        clean: Dict[DerivWord, Poly] = {}
        if terms:
            for w, c in terms.items():
                w = tuple(w)
                if len(w) != width:
                    raise ContextMismatchError(f"derivative word {w} does not fit {ctx}")
                if ctx.theta and w[-1] > 1:
                    continue  # d_th^2 = 0
                if not c.is_zero():
                    clean[w] = c
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, ctx: OpContext) -> "LinOperator":
        return cls(ctx, {})

    @classmethod
    def identity(cls, ctx: OpContext) -> "LinOperator":
        return cls.mult(ctx, ctx.const(1))

    @classmethod
    def mult(cls, ctx: OpContext, p: Poly) -> "LinOperator":
        """Multiplication operator f -> p*f."""
        return cls(ctx, {(0,) * len(ctx.all_vars): p})

    @classmethod
    def deriv(cls, ctx: OpContext, name: str, order: int = 1) -> "LinOperator":
        w = [0] * len(ctx.all_vars)
        w[ctx.all_vars.index(name)] = order
        return cls(ctx, {tuple(w): ctx.const(1)})

    # -- linear structure ---------------------------------------------------

    def _check(self, other: "LinOperator") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatchError(f"{self.ctx} vs {other.ctx}")

    def __add__(self, other: "LinOperator") -> "LinOperator":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out[w] + c if w in out else c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        return LinOperator(self.ctx, out)

    def __neg__(self) -> "LinOperator":
        return LinOperator(self.ctx, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "LinOperator") -> "LinOperator":
        return self + (-other)

    def scale(self, c: ScalarLike) -> "LinOperator":
        c = Scalar.of(c)
        return LinOperator(self.ctx, {w: p.scale(c) for w, p in self.terms.items()})

    def __rmul__(self, other: ScalarLike) -> "LinOperator":
        return self.scale(other)

    def __mul__(self, other) -> "LinOperator":
        if isinstance(other, LinOperator):
            return compose(self, other)
        return self.scale(other)

    def __pow__(self, k: int) -> "LinOperator":
        out = LinOperator.identity(self.ctx)
        for _ in range(k):
            out = compose(out, self)
        return out

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LinOperator) and self.ctx == other.ctx
                and self.terms == other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def order(self, name: str | None = None) -> int:
        """Highest derivative order (in one variable, or total); zero op gives -1."""
        if not self.terms:
            return -1
        if name is None:
            return max(sum(w) for w in self.terms)
        i = self.ctx.all_vars.index(name)
        return max(w[i] for w in self.terms)

    # -- action ---------------------------------------------------------------

    def apply_poly(self, f: Poly) -> Poly:
        if tuple(f.vars) != self.ctx.all_vars:
            raise ContextMismatchError(
                f"function over {f.vars} fed to operator over {self.ctx.all_vars}")
        ctx = self.ctx
        out = ctx.poly()
        for w, c in self.terms.items():
            g = f
            for i, a in enumerate(w):
                for _ in range(a):
                    g = ctx.delta(g, i)
                if g.is_zero():
                    break
            if not g.is_zero():
                out = out + c * g
        return out

    def apply_monomial(self, e: Exponent) -> Dict[Exponent, Scalar]:
        """The image of the monomial with exponent e, as its term dict."""
        return self.apply_poly(Poly.monomial(self.ctx.all_vars, e, 1, self.ctx.nil)).terms

    # -- composition ------------------------------------------------------------

    def _push_word(self, w: DerivWord, c: Poly) -> List[Tuple[DerivWord, Poly]]:
        """Rewrite D^w o M_c as a sum of M_c' D^w' (normal ordering), one slot
        at a time by the q-Leibniz rule, highest derivative order first."""
        ctx = self.ctx
        acc: List[Tuple[DerivWord, Poly]] = [((0,) * len(w), c)]
        for i, a in enumerate(w):
            if a == 0:
                continue
            nxt = []
            for word, coeff in acc:
                d = coeff  # delta^(a-k) c
                for k in range(a, -1, -1):
                    if d.is_zero():
                        break
                    term = ctx.sigma(d, i, k).scale(ctx.binomial(a, k))
                    if not term.is_zero():
                        nxt.append((word[:i] + (word[i] + k,) + word[i + 1:], term))
                    d = ctx.delta(d, i)
            acc = nxt
            if not acc:
                break
        return acc

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.ctx.all_vars
        dsym = "D" if self.ctx.q is not None else "d"
        bits = []
        for w, c in sorted(self.terms.items()):
            ds = "*".join(
                (f"{dsym}{v}^{k}" if k > 1 else f"{dsym}{v}")
                for v, k in zip(names, w) if k)
            cs = str(c)
            if ds:
                cs = f"({cs})*{ds}" if (" " in cs or "+" in cs) else f"{cs}*{ds}"
            bits.append(cs)
        return "  +  ".join(bits)

    def __repr__(self) -> str:
        return f"LinOperator({self})"


def compose(a: LinOperator, b: LinOperator) -> LinOperator:
    """Canonical form of a o b (b acts first)."""
    a._check(b)
    ctx = a.ctx
    theta_slot = len(ctx.all_vars) - 1 if ctx.theta else None
    out: Dict[DerivWord, Poly] = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            for wmid, cmid in a._push_word(w1, c2):
                w = tuple(x + y for x, y in zip(wmid, w2))
                if theta_slot is not None and w[theta_slot] > 1:
                    continue  # d_th^2 = 0
                c = c1 * cmid
                if c.is_zero():
                    continue
                s = out[w] + c if w in out else c
                if s.is_zero():
                    out.pop(w, None)
                else:
                    out[w] = s
    return LinOperator(ctx, out)


def commutator(a: LinOperator, b: LinOperator) -> LinOperator:
    return compose(a, b) - compose(b, a)


class MatrixOperator:
    """2x2 matrix of operators over one shared (theta-free) context."""

    __slots__ = ("ctx", "entries")

    def __init__(self, entries: Sequence[Sequence[LinOperator]]):
        rows = [list(r) for r in entries]
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("expected a 2x2 operator matrix")
        ctx = rows[0][0].ctx
        for r in rows:
            for e in r:
                if e.ctx != ctx:
                    raise ContextMismatchError("matrix entries disagree on context")
        self.ctx = ctx
        self.entries = rows

    @classmethod
    def identity(cls, ctx: OpContext) -> "MatrixOperator":
        one = LinOperator.identity(ctx)
        z = LinOperator.zero(ctx)
        return cls([[one, z], [z, one]])

    def __add__(self, other: "MatrixOperator") -> "MatrixOperator":
        return MatrixOperator([[self.entries[i][j] + other.entries[i][j]
                                for j in (0, 1)] for i in (0, 1)])

    def scale(self, c: ScalarLike) -> "MatrixOperator":
        return MatrixOperator([[self.entries[i][j].scale(c) for j in (0, 1)]
                               for i in (0, 1)])

    def __mul__(self, other) -> "MatrixOperator":
        if not isinstance(other, MatrixOperator):
            return self.scale(other)
        e, f = self.entries, other.entries
        return MatrixOperator([
            [compose(e[i][0], f[0][j]) + compose(e[i][1], f[1][j]) for j in (0, 1)]
            for i in (0, 1)])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, MatrixOperator)
                and self.entries == other.entries)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def apply(self, spinor: Tuple[Poly, Poly]) -> Tuple[Poly, Poly]:
        up, lo = spinor
        e = self.entries
        return (e[0][0].apply_poly(up) + e[0][1].apply_poly(lo),
                e[1][0].apply_poly(up) + e[1][1].apply_poly(lo))

    def order(self) -> int:
        return max(e.order() for row in self.entries for e in row)

    def __repr__(self) -> str:
        e = self.entries
        return (f"MatrixOperator([[{e[0][0]}, {e[0][1]}],"
                f" [{e[1][0]}, {e[1][1]}]])")


def even_odd(c: Poly) -> Tuple[Poly, Poly]:
    """The theta-free even part of a coefficient over (x..., theta), and its
    odd part, the coefficient of theta."""
    rest = tuple(v for v in c.vars if v != THETA)
    return (c.coefficient_of(THETA, 0).restrict_vars(rest),
            c.coefficient_of(THETA, 1).restrict_vars(rest))


def to_matrix_operator(op: LinOperator) -> MatrixOperator:
    """Replace the anticommuting pair by raising/lowering matrices.

    Spinor layout: upper component = coefficient of the odd variable, lower
    component = even part, so multiplication by theta becomes the raising
    matrix and the odd derivative the lowering one.
    """
    if not op.ctx.theta:
        raise ContextMismatchError("operator has no odd variable")
    ctx = OpContext(op.ctx.vars, q=op.ctx.q)
    z = LinOperator.zero(ctx)
    blocks = [[z, z], [z, z]]
    for w, c in op.terms.items():
        c0, c1 = even_odd(c)
        xword = w[:-1]
        e = w[-1]
        base = LinOperator(ctx, {xword: ctx.const(1)})
        m0 = LinOperator.mult(ctx, c0) * base if not c0.is_zero() else z
        m1 = LinOperator.mult(ctx, c1) * base if not c1.is_zero() else z
        if e == 0:
            add = [[m0, m1], [z, m0]]
        else:
            add = [[m1, z], [m0, z]]
        blocks = [[blocks[i][j] + add[i][j] for j in (0, 1)] for i in (0, 1)]
    return MatrixOperator(blocks)
