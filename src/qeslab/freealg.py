"""Free associative algebra with rewriting to normal form.

Expressions are scalar combinations of words over a symbol alphabet with no
implied commutativity.  A rewrite system orders the alphabet and maps each
out-of-order adjacent pair to a combination of smaller words; normal ordering
applies rules until none fires, guarded by a step budget.  The five rule
tables used by the identity catalogue (Heisenberg pairs, the deformed pair,
the two-variable quantum plane, its abstract double, and multi-pair
Heisenberg) are built here as data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .scalars import ONE, Scalar, ScalarLike, ZERO

Word = Tuple[str, ...]
FreeExpr = Dict[Word, Scalar]


class RewriteBudgetError(RuntimeError):
    """The rewrite step budget was exhausted (non-terminating rule set?)."""


def expr(*terms: Tuple[ScalarLike, Sequence[str]]) -> FreeExpr:
    out: FreeExpr = {}
    for c, w in terms:
        w = tuple(w)
        s = out.get(w, ZERO) + Scalar.of(c)
        if s.is_zero():
            out.pop(w, None)
        else:
            out[w] = s
    return out


def expr_add(a: FreeExpr, b: FreeExpr) -> FreeExpr:
    out = dict(a)
    for w, c in b.items():
        s = out.get(w, ZERO) + c
        if s.is_zero():
            out.pop(w, None)
        else:
            out[w] = s
    return out


def expr_scale(a: FreeExpr, c: ScalarLike) -> FreeExpr:
    c = Scalar.of(c)
    if c.is_zero():
        return {}
    return {w: v * c for w, v in a.items()}


def expr_mul(a: FreeExpr, b: FreeExpr) -> FreeExpr:
    out: FreeExpr = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            s = out.get(w, ZERO) + c1 * c2
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
    return out


def expr_sub(a: FreeExpr, b: FreeExpr) -> FreeExpr:
    return expr_add(a, expr_scale(b, -1))


def expr_pow(a: FreeExpr, k: int, rs: "RewriteSystem | None" = None) -> FreeExpr:
    out: FreeExpr = {(): ONE}
    for _ in range(k):
        out = expr_mul(out, a)
        if rs is not None:
            out = normal_order(out, rs)
    return out


@dataclass
class RewriteSystem:
    name: str
    order: Tuple[str, ...]                       # normal form sorts by this
    rules: Dict[Tuple[str, str], FreeExpr]       # out-of-order pair -> smaller

    def rank(self, sym: str) -> int:
        return self.order.index(sym)

    def reducible(self, a: str, b: str) -> bool:
        return self.rank(a) > self.rank(b)

    def rule(self, a: str, b: str) -> FreeExpr:
        try:
            return self.rules[(a, b)]
        except KeyError:
            raise KeyError(f"{self.name}: no rule for adjacent pair {a}{b}")


def normal_order(e: FreeExpr, rs: RewriteSystem, budget: int = 10 ** 6,
                 strategy: str = "innermost") -> FreeExpr:
    """Unique normal form (all words sorted by the system order)."""
    pending = [(w, c) for w, c in e.items()]
    out: FreeExpr = {}
    steps = 0
    while pending:
        w, c = pending.pop()
        pos = _find_redex(w, rs, strategy)
        if pos is None:
            s = out.get(w, ZERO) + c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
            continue
        steps += 1
        if steps > budget:
            raise RewriteBudgetError(f"{rs.name}: exceeded {budget} rewrite steps")
        a, b = w[pos], w[pos + 1]
        for frag, fc in rs.rule(a, b).items():
            pending.append((w[:pos] + frag + w[pos + 2:], c * fc))
    return out


def _find_redex(w: Word, rs: RewriteSystem, strategy: str) -> int | None:
    idx = range(len(w) - 1)
    if strategy == "outermost":
        idx = reversed(idx)
    elif strategy != "innermost":
        raise ValueError(f"unknown strategy {strategy!r}")
    for i in idx:
        if rs.reducible(w[i], w[i + 1]):
            return i
    return None


# --------------------------------------------------------------------------
# rule tables

def heisenberg_system(pairs: int = 1) -> RewriteSystem:
    """[P_i, Q_j] = delta_ij, everything else commutes."""
    qs = [f"Q{i}" for i in range(1, pairs + 1)]
    ps = [f"P{i}" for i in range(1, pairs + 1)]
    if pairs == 1:
        qs, ps = ["Q"], ["P"]
    order = tuple(qs + ps)
    rules: Dict[Tuple[str, str], FreeExpr] = {}
    for i, p in enumerate(ps):
        for j, q in enumerate(qs):
            rules[(p, q)] = expr((1, (q, p))) if i != j else \
                expr((1, (q, p)), (1, ()))
    for i in range(len(qs)):
        for j in range(i):
            rules[(qs[i], qs[j])] = expr((1, (qs[j], qs[i])))
            rules[(ps[i], ps[j])] = expr((1, (ps[j], ps[i])))
    return RewriteSystem(f"heisenberg_{pairs}", order, rules)


def q_heisenberg_system(b: ScalarLike) -> RewriteSystem:
    """P Q - b Q P = 1 (b is the effective shift base)."""
    b = Scalar.of(b)
    return RewriteSystem("q_heisenberg", ("Q", "P"),
                         {("P", "Q"): expr((b, ("Q", "P")), (1, ()))})


QUANTUM_PLANE = ("x", "y", "Dx", "Dy")
TWO_PAIR = ("Q1", "Q2", "P1", "P2")


def quantum_plane_system(q: ScalarLike,
                         symbols: Tuple[str, str, str, str] = QUANTUM_PLANE) -> RewriteSystem:
    """x y = q y x with the deformed two-variable difference calculus, spelt
    in the given (x, y, Dx, Dy) symbols."""
    x, y, dx, dy = symbols
    q = Scalar.of(q)
    q2 = q * q
    rules = {
        (y, x): expr((q.inv(), (x, y))),
        (dx, x): expr((1, ()), (q2, (x, dx)), (q2 - ONE, (y, dy))),
        (dx, y): expr((q, (y, dx))),
        (dy, x): expr((q, (x, dy))),
        (dy, y): expr((1, ()), (q2, (y, dy))),
        (dy, dx): expr((q, (dx, dy))),
    }
    return RewriteSystem("quantum_plane", tuple(symbols), rules)
