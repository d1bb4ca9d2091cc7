"""Sparse multivariate polynomials over exact scalars.

A Poly maps exponent tuples (one entry per declared variable) to nonzero
Scalar coefficients.  Variables listed in ``nil`` square to zero: products
that would raise their exponent past 1 are dropped.  That is how the single
anticommuting variable is carried -- it commutes with everything here, and the
sign bookkeeping of its derivative lives in the operator layer, and so does
the even/odd split of a polynomial in that variable.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

from .scalars import ONE, Scalar, ScalarLike, ZERO

Exponent = Tuple[int, ...]


class VariableMismatchError(ValueError):
    """Operands declare different variable lists."""


class Poly:
    __slots__ = ("vars", "terms", "nil")

    def __init__(self, vars: Iterable[str],
                 terms: Mapping[Exponent, ScalarLike] | None = None,
                 nil: frozenset[str] | Iterable[str] = frozenset()):
        self.vars: Tuple[str, ...] = tuple(vars)
        self.nil: frozenset[str] = frozenset(nil)
        clean: Dict[Exponent, Scalar] = {}
        if terms:
            width = len(self.vars)
            for exp, c in terms.items():
                exp = tuple(exp)
                if len(exp) != width:
                    raise VariableMismatchError(
                        f"exponent {exp} has {len(exp)} entries for {width} variables")
                s = Scalar.of(c)
                if s.is_zero() or self._nil_kills(exp):
                    continue
                if exp in clean:
                    s = clean[exp] + s
                    if s.is_zero():
                        del clean[exp]
                        continue
                clean[exp] = s
        self.terms: Dict[Exponent, Scalar] = clean

    def _nil_kills(self, exp: Exponent) -> bool:
        return any(exp[i] > 1 for i, v in enumerate(self.vars) if v in self.nil)

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, vars: Iterable[str], value: ScalarLike, nil=frozenset()) -> "Poly":
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): Scalar.of(value)}, nil)

    @classmethod
    def var(cls, vars: Iterable[str], name: str, power: int = 1, nil=frozenset()) -> "Poly":
        vars = tuple(vars)
        exp = [0] * len(vars)
        exp[vars.index(name)] = power
        return cls(vars, {tuple(exp): ONE}, nil)

    @classmethod
    def monomial(cls, vars: Iterable[str], exp: Exponent,
                 coeff: ScalarLike = 1, nil=frozenset()) -> "Poly":
        return cls(vars, {tuple(exp): Scalar.of(coeff)}, nil)

    def _like(self, terms: Dict[Exponent, Scalar]) -> "Poly":
        p = Poly.__new__(Poly)
        p.vars = self.vars
        p.nil = self.nil
        p.terms = {e: c for e, c in terms.items() if not c.is_zero()}
        return p

    def _check(self, other: "Poly") -> None:
        if self.vars != other.vars:
            raise VariableMismatchError(f"{self.vars} vs {other.vars}")

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> Scalar:
        return self.terms.get((0,) * len(self.vars), ZERO)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, ZERO) + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return self._like(out)

    def __neg__(self) -> "Poly":
        return self._like({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        out: Dict[Exponent, Scalar] = {}
        nil_idx = [i for i, v in enumerate(self.vars) if v in self.nil]
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if any(e[i] > 1 for i in nil_idx):
                    continue
                s = out.get(e, ZERO) + c1 * c2
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        return self._like(out)

    def scale(self, c: ScalarLike) -> "Poly":
        c = Scalar.of(c)
        if c.is_zero():
            return self._like({})
        return self._like({e: v * c for e, v in self.terms.items()})

    def __pow__(self, k: int) -> "Poly":
        out = Poly.const(self.vars, 1, self.nil)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Poly) and self.vars == other.vars
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    # -- calculus -----------------------------------------------------------

    def derivative(self, name: str, base: Scalar | None = None) -> "Poly":
        """Formal partial derivative x^k -> k x^(k-1) (valid for the nilpotent
        variable too); given a base b, the difference derivative
        x^k -> {k}_b x^(k-1), classical at b = 1."""
        i = self.vars.index(name)
        classical = base is None or base == ONE
        out: Dict[Exponent, Scalar] = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                out[e[:i] + (k - 1,) + e[i + 1:]] = c * (
                    k if classical else (ONE - base ** k) / (ONE - base))
        return self._like(out)

    def shift_scale(self, name: str, factor: Scalar) -> "Poly":
        """Substitute name -> factor*name (the dilation f(x) -> f(q x))."""
        i = self.vars.index(name)
        return self._like({e: c * factor ** e[i] for e, c in self.terms.items()})

    # -- structure ------------------------------------------------------------

    def degree(self, name: str | None = None) -> int:
        """Max degree in one variable, or max total degree; zero poly gives -1."""
        if not self.terms:
            return -1
        if name is None:
            return max(sum(e) for e in self.terms)
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def coefficient_of(self, name: str, power: int) -> "Poly":
        """The coefficient of name**power, as a Poly with that slot zeroed."""
        i = self.vars.index(name)
        out = {e[:i] + (0,) + e[i + 1:]: c for e, c in self.terms.items()
               if e[i] == power}
        return self._like(out)

    def restrict_vars(self, keep: Iterable[str]) -> "Poly":
        """Project onto a sub-variable list; other variables must not occur."""
        keep = tuple(keep)
        idx = [self.vars.index(v) for v in keep]
        drop = [i for i in range(len(self.vars)) if self.vars[i] not in keep]
        out: Dict[Exponent, Scalar] = {}
        for e, c in self.terms.items():
            if any(e[i] for i in drop):
                raise VariableMismatchError(f"term {e} uses dropped variables")
            out[tuple(e[i] for i in idx)] = c
        return Poly(keep, out, self.nil & frozenset(keep))

    def evaluate_float(self, point: Mapping[str, float]) -> complex:
        out = 0j
        for e, c in self.terms.items():
            v = c.to_complex()
            for i, k in enumerate(e):
                if k:
                    v *= point[self.vars[i]] ** k
            out += v
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0])):
            mono = "*".join(f"{v}^{k}" if k > 1 else v
                            for v, k in zip(self.vars, e) if k)
            cs = str(c)
            if mono:
                bits.append(mono if cs == "1" else f"-{mono}" if cs == "-1"
                            else f"{cs}*{mono}")
            else:
                bits.append(cs)
        out = bits[0]
        for b in bits[1:]:
            out += " - " + b[1:] if b.startswith("-") else " + " + b
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"

