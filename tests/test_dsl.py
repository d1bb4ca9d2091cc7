import random
from fractions import Fraction

import pytest

from qeslab.dsl import (MAX_EXPONENT, EvalContext, Gen, Num, ParseError, Pow, Prod, Sum,
                        Sym, evaluate, operator_to_dsl, parse_operator, print_ast)
from qeslab.operators import LinOperator
from qeslab.reps import RepSpec
from qeslab.scalars import QParam, Scalar
from qeslab.spaces import SpaceSpec, action_matrix


ENV = EvalContext.for_vars(["x"])


def test_parse_print_round_trip_example():
    ast = parse_operator("x^2*Dx - 3*x")
    assert print_ast(ast) == "x^2*Dx - 3*x"
    assert parse_operator(print_ast(ast)) == ast


def test_commutator_identity_example():
    op = evaluate(parse_operator("Dx*x - x*Dx"), ENV)
    assert op == LinOperator.identity(ENV.ctx)


def test_generator_power_kernel_example():
    env = EvalContext.for_algebra(RepSpec("sl2", n=Scalar(2)))
    op = evaluate(parse_operator("(J+[2])^3"), env)
    res = action_matrix(op, SpaceSpec("interval", (2,)))
    assert res.preserved
    assert all(c.is_zero() for row in res.matrix for c in row)


def test_signed_name_absorption():
    assert parse_operator("T+ + T-") == Sum(((1, Sym("T+")), (1, Sym("T-"))))
    assert parse_operator("J - 2") == Sum(((1, Sym("J")), (-1, Num(Fraction(2)))))
    assert parse_operator("J+[4]*J-[4]") == Prod((Gen("J+", Fraction(4)),
                                                  Gen("J-", Fraction(4))))


def test_error_positions_are_one_based():
    with pytest.raises(ParseError) as err:
        parse_operator("x + \n  @")
    assert err.value.line == 2 and err.value.col == 3
    with pytest.raises(ParseError) as err:
        parse_operator("x^(2)")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_operator("(x + 1")
    with pytest.raises(ParseError):
        parse_operator("x^-2")          # negative powers rejected


def test_exponent_is_bounded():
    assert parse_operator(f"x^{MAX_EXPONENT}") == Pow(Sym("x"), MAX_EXPONENT)
    with pytest.raises(ParseError) as err:
        parse_operator(f"x +\n y^{MAX_EXPONENT + 1}")
    assert (err.value.line, err.value.col) == (2, 4)


def test_nested_exponents_are_bounded_by_their_product():
    assert parse_operator("((x+Dx)^2)^3") == Pow(Pow(Sum(((1, Sym("x")), (1, Sym("Dx")))), 2), 3)
    assert parse_operator("((x^4)^2*y)^4") is not None           # 4 * 2 * 4 = 32
    for text in ("((x+Dx)^32)^32", "((x^2)^4)^5", "(y + x^17)^2"):
        with pytest.raises(ParseError, match="above the largest allowed power"):
            parse_operator(text)


def test_unknown_symbol():
    with pytest.raises(ParseError):
        evaluate(parse_operator("w*Dx"), ENV)


def test_jackson_derivative_symbol():
    env = EvalContext.for_vars(["x"], q=QParam(2))
    op = evaluate(parse_operator("JDx"), env)
    assert op.apply_poly(env.ctx.var("x", 3)) == env.ctx.var("x", 2).scale(7)
    with pytest.raises(ParseError):
        evaluate(parse_operator("Dx"), env)    # continuous symbol in difference calculus


def _nest_power(ast):
    """The largest product of the exponents along one nest of ^."""
    if isinstance(ast, Pow):
        return ast.exponent * _nest_power(ast.base)
    if isinstance(ast, Prod):
        return max(_nest_power(f) for f in ast.factors)
    if isinstance(ast, Sum):
        return max(_nest_power(t) for _, t in ast.terms)
    return 1


def _rand_ast(rng, depth=0):
    r = rng.random()
    if depth > 3 or r < 0.3:
        return rng.choice([
            Num(Fraction(rng.randint(0, 9), rng.randint(1, 9))),
            Sym("x"), Sym("Dx"), Sym("T0"),
            Gen("J+", Fraction(rng.randint(0, 5))),
        ])
    if r < 0.5:                 # a nest may multiply its exponents up to the bound
        base = _rand_ast(rng, depth + 1)
        return Pow(base, min(rng.randint(0, 4), MAX_EXPONENT // max(_nest_power(base), 1)))
    if r < 0.75:
        return Prod(tuple(_rand_ast(rng, depth + 1)
                          for _ in range(rng.randint(2, 3))))
    return Sum(tuple((rng.choice([1, -1]) if i else 1, _rand_ast(rng, depth + 1))
                     for i in range(rng.randint(2, 3))))


def test_round_trip_500_random_asts():
    rng = random.Random(0)
    for _ in range(500):
        ast = _rand_ast(rng)
        assert parse_operator(print_ast(ast)) == ast


def test_fuzz_never_crashes():
    rng = random.Random(1)
    src = "x^2*Dx - 3*x + (J+[2])^2*Dx"
    for _ in range(2000):
        s = list(src)
        for _ in range(rng.randint(1, 4)):
            s[rng.randrange(len(s))] = chr(rng.randrange(32, 127))
        try:
            parse_operator("".join(s))
        except ParseError:
            pass


def test_operator_to_dsl_round_trip():
    for text in ("x^2*Dx - 3*x", "Dx*x", "(x + 1)^2", "1/2*x^3*Dx^2",
                 "0 - x + 2"):
        op = evaluate(parse_operator(text), ENV)
        assert evaluate(parse_operator(operator_to_dsl(op)), ENV) == op
