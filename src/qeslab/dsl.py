"""Operator-expression language: lexer, recursive-descent parser, printer.

Grammar (whitespace-insensitive, explicit * only -- products do not commute):

    expr   := term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := atom ["^" nat]          (nat at most MAX_EXPONENT, and so is the
                                       product of the exponents along a nest)
    atom   := rational | symbol | generator "[" args "]" | "(" expr ")"

Signed generator names (J+, T-, ...) absorb their sign only when followed by
[, *, ^, ), another sign, or the end of input, so "J - 2" still parses as a
difference.  Evaluation turns an AST into a canonical operator over a
context: bare symbols are multiplication operators, D<var>/Dtheta are
derivatives (JD<var> the difference derivative), generator references
resolve against a representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .operators import LinOperator, OpContext
from .reps import GeneratorSet, RepSpec, make_rep
from .scalars import DegenerateQError, QParam, Scalar

SIGNED_NAMES = {"J+", "J-", "T+", "T-", "Jx+", "Jx-", "Jy+", "Jy-"}

# A power is expanded by repeated composition, so its cost grows with the
# exponent.  The largest power in the tests and the case catalogue is 6; 32
# leaves ample room, and (J+ + J-)^32 in sl2 still expands in about a second
# on one core of a 2-vCPU host.  A nest of powers multiplies its exponents, so
# the product along a nest is held to the same bound.
MAX_EXPONENT = 32


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


# -- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Gen:
    name: str
    arg: Optional[Fraction] = None


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Prod:
    factors: Tuple["Node", ...]


@dataclass(frozen=True)
class Sum:
    # (sign, term) pairs; the first sign is always +1 (no unary minus)
    terms: Tuple[Tuple[int, "Node"], ...]


Node = object


# -- lexer --------------------------------------------------------------------

@dataclass
class Token:
    kind: str        # num | name | op | lbrack | rbrack | lparen | rparen | end
    text: str
    line: int
    col: int


def tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def peek_nonspace(j: int) -> str:
        while j < n and text[j] in " \t\r\n":
            j += 1
        return text[j] if j < n else ""

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_line, start_col = line, col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            try:  # the parser converts numerals freely once they pass here
                Fraction(text[i:j])
            except (ValueError, ZeroDivisionError) as e:
                raise ParseError(f"bad number: {e}", start_line, start_col) from e
            toks.append(Token("num", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if j < n and text[j] in "+-" and (name + text[j]) in SIGNED_NAMES:
                nxt = peek_nonspace(j + 1)
                if nxt in ("[", "*", "^", ")", "+", "-", ""):
                    name += text[j]
                    j += 1
            toks.append(Token("name", name, start_line, start_col))
            col += j - i
            i = j
            continue
        kinds = {"+": "op", "-": "op", "*": "op", "^": "op",
                 "[": "lbrack", "]": "rbrack", "(": "lparen", ")": "rparen",
                 ",": "comma"}
        if ch in kinds:
            toks.append(Token(kinds[ch], ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("end", "", line, col))
    return toks


# -- parser -------------------------------------------------------------------

def _nested_power(node: Node) -> int:
    """The largest product of the exponents along one nest of ^ in node."""
    if isinstance(node, Pow):
        return node.exponent * _nested_power(node.base)
    if isinstance(node, Prod):
        return max(map(_nested_power, node.factors))
    if isinstance(node, Sum):
        return max(_nested_power(term) for _, term in node.terms)
    return 1


class Parser:
    def __init__(self, toks: List[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            raise ParseError(f"expected {text or kind}, found {t.text or 'end of input'}",
                             t.line, t.col)
        return self.next()

    def parse(self) -> Node:
        node = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected {t.text!r}", t.line, t.col)
        return node

    def expr(self) -> Node:
        terms = [(1, self.term())]
        while self.peek().kind == "op" and self.peek().text in "+-":
            sign = 1 if self.next().text == "+" else -1
            terms.append((sign, self.term()))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(tuple(terms))

    def term(self) -> Node:
        factors = [self.factor()]
        while self.peek().kind == "op" and self.peek().text == "*":
            self.next()
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return Prod(tuple(factors))

    def factor(self) -> Node:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            t = self.next()
            num = self.peek()
            if num.kind != "num" or "/" in num.text:
                raise ParseError("exponent must be a natural number",
                                 num.line, num.col)
            power = int(num.text)
            if power > MAX_EXPONENT:
                raise ParseError(f"exponent {power} is above the largest "
                                 f"allowed power {MAX_EXPONENT}", num.line, num.col)
            inner = _nested_power(base)
            if power * inner > MAX_EXPONENT:
                raise ParseError(f"exponent {power} on a base that nests power {inner} "
                                 f"makes power {power * inner}, above the largest "
                                 f"allowed power {MAX_EXPONENT}", num.line, num.col)
            self.next()
            return Pow(base, power)
        return base

    def atom(self) -> Node:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return Num(Fraction(t.text))
        if t.kind == "lparen":
            self.next()
            inner = self.expr()
            self.expect("rparen")
            return inner
        if t.kind == "name":
            self.next()
            if self.peek().kind == "lbrack":
                self.next()
                arg = self.peek()
                sign = 1
                if arg.kind == "op" and arg.text == "-":
                    self.next()
                    sign = -1
                    arg = self.peek()
                if arg.kind != "num":
                    raise ParseError("expected a rational mark", arg.line, arg.col)
                self.next()
                self.expect("rbrack")
                return Gen(t.text, sign * Fraction(arg.text))
            return Sym(t.text)
        raise ParseError(f"unexpected {t.text or 'end of input'!r}", t.line, t.col)


def parse_operator(text: str) -> Node:
    return Parser(tokenize(text)).parse()


# -- printer ------------------------------------------------------------------

def print_ast(node: Node) -> str:
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Gen):
        return node.name if node.arg is None else f"{node.name}[{node.arg}]"
    if isinstance(node, Pow):
        base = print_ast(node.base)
        if isinstance(node.base, (Sum, Prod, Pow)):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Prod):
        return "*".join(_paren(f, atomic=True) for f in node.factors)
    if isinstance(node, Sum):
        out = []
        for i, (sign, term) in enumerate(node.terms):
            body = _paren(term, atomic=False)
            if i == 0:
                out.append(body if sign > 0 else f"0 - {body}")
            else:
                out.append(("+ " if sign > 0 else "- ") + body)
        return " ".join(out)
    raise TypeError(f"not an AST node: {node!r}")


def _paren(node: Node, atomic: bool) -> str:
    s = print_ast(node)
    needs = isinstance(node, Sum) or (atomic and isinstance(node, Prod))
    # powers of powers also need grouping
    if atomic and isinstance(node, Pow):
        needs = False
    return f"({s})" if needs else s


# -- evaluation ---------------------------------------------------------------

class EvalContext:
    """Resolution environment: an operator context plus optional generators."""

    def __init__(self, ctx: OpContext, gens: GeneratorSet | None = None):
        self.ctx = ctx
        self.gens = gens

    @classmethod
    def for_algebra(cls, spec: RepSpec) -> "EvalContext":
        gens = make_rep(spec)
        return cls(gens.ctx, gens)

    @classmethod
    def for_vars(cls, vars: Sequence[str], q: QParam | None = None,
                 theta: bool = False) -> "EvalContext":
        return cls(OpContext(vars, q=q, theta=theta))

    def resolve_gen(self, node: Gen) -> LinOperator:
        if self.gens is None:
            raise ParseError(f"generator {node.name} used without an algebra", 1, 1)
        if node.arg is None:
            if node.name not in self.gens.ops:
                raise ParseError(f"unknown generator {node.name}", 1, 1)
            return self.gens.ops[node.name]
        old = self.gens.spec
        try:
            spec = RepSpec(old.algebra, n=Scalar(node.arg), m=old.m, q=old.q,
                           r=old.r, k=old.k)
        except (ValueError, DegenerateQError) as e:
            raise ParseError(f"bad mark {node.name}[{node.arg}]: {e}", 1, 1) from e
        gens = make_rep(spec)
        if node.name not in gens.ops:
            raise ParseError(f"unknown generator {node.name}", 1, 1)
        return gens.ops[node.name]


def evaluate(node: Node, env: EvalContext) -> LinOperator:
    ctx = env.ctx
    if isinstance(node, Num):
        return LinOperator.identity(ctx).scale(Scalar(node.value))
    if isinstance(node, Sym):
        name = node.name
        if name in ctx.all_vars:
            return LinOperator.mult(ctx, ctx.var(name))
        if name == "Dtheta" and ctx.theta:
            return LinOperator.deriv(ctx, "theta")
        if name.startswith("JD") and name[2:] in ctx.vars:
            if ctx.q is None:
                raise ParseError(f"difference derivative {name} needs a "
                                 "deformation parameter", 1, 1)
            return LinOperator.deriv(ctx, name[2:])
        if name.startswith("D") and name[1:] in ctx.vars:
            if ctx.q is not None:
                raise ParseError(f"{name} is a continuous derivative but the "
                                 "context is a difference calculus; use JD", 1, 1)
            return LinOperator.deriv(ctx, name[1:])
        if env.gens is not None and name in env.gens.ops:
            return env.gens.ops[name]
        raise ParseError(f"unknown symbol {name!r}", 1, 1)
    if isinstance(node, Gen):
        return env.resolve_gen(node)
    if isinstance(node, Pow):
        return evaluate(node.base, env) ** node.exponent
    if isinstance(node, Prod):
        out = LinOperator.identity(ctx)
        for f in node.factors:
            out = out * evaluate(f, env)
        return out
    if isinstance(node, Sum):
        out = LinOperator.zero(ctx)
        for sign, term in node.terms:
            t = evaluate(term, env)
            out = out + (t if sign > 0 else -t)
        return out
    raise TypeError(f"not an AST node: {node!r}")


def operator_to_dsl(op: LinOperator) -> str:
    """Canonical textual form that evaluate() maps back to the operator.

    There is no unary minus in the grammar, so a leading negative term is
    rendered as "0 - ...".  Non-real coefficients have no literal syntax and
    are rejected here.
    """
    if not op.terms:
        return "0"
    names = op.ctx.all_vars
    jackson = op.ctx.q is not None
    signed: List[Tuple[int, str]] = []
    for w, c in sorted(op.terms.items()):
        dparts = []
        for v, k in zip(names, w):
            if not k:
                continue
            d = ("Dtheta" if v == "theta" else (f"JD{v}" if jackson else f"D{v}"))
            dparts.append(d if k == 1 else f"{d}^{k}")
        for e, s in sorted(c.terms.items()):
            if s.im:
                raise ValueError("no literal syntax for non-real coefficients")
            sign = 1 if s.re > 0 else -1
            mag = abs(s.re)
            mono = [f"{v}^{k}" if k > 1 else v for v, k in zip(names, e) if k]
            coeff = [] if (mag == 1 and (mono or dparts)) else [str(mag)]
            piece = "*".join(coeff + mono + dparts) or str(mag)
            signed.append((sign, piece))
    first_sign, first = signed[0]
    out = first if first_sign > 0 else f"0 - {first}"
    for sign, piece in signed[1:]:
        out += (" + " if sign > 0 else " - ") + piece
    return out
