"""The q-Leibniz rule of the operator engine, in every calculus.

compose pushes D_i^a through a coefficient in one closed sum; here that sum
is checked against a one-step-at-a-time product and against the action on
monomials, and the Gaussian binomial it uses against the product formula.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from qeslab.operators import THETA, LinOperator, OpContext, compose
from qeslab.scalars import QParam, Scalar, qbinomial

CONTEXTS = {
    "continuous-x": (OpContext(["x"]), ("x",)),
    "continuous-xy": (OpContext(["x", "y"]), ("x", "y")),
    "odd": (OpContext(["x"], theta=True), ("x", THETA)),
    "difference-3/2": (OpContext(["x"], q=QParam(Fraction(3, 2))), ("x",)),
    "difference-2-squared": (OpContext(["x"], q=QParam(2, base="squared")), ("x",)),
    "difference--1": (OpContext(["x"], q=QParam(-1)), ("x",)),
    "difference-i": (OpContext(["x"], q=QParam(Scalar(0, 1))), ("x",)),
}


def _rand_poly(rng, ctx, deg=5, terms=4):
    width = len(ctx.all_vars)
    out = {}
    for _ in range(terms):
        exp = tuple(rng.randint(0, deg) for _ in range(width))
        out[exp] = Scalar(Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])),
                          rng.choice([0, 0, 1, -2]))
    return ctx.poly(out)


def _orders(name):
    return (1,) if name == THETA else range(1, 6)


@pytest.mark.parametrize("label", list(CONTEXTS))
def test_closed_leibniz_matches_one_step_products(label):
    ctx, slots = CONTEXTS[label]
    rng = random.Random(sum(map(ord, label)))
    for name in slots:
        d = LinOperator.deriv(ctx, name)
        for a in _orders(name):
            for _ in range(3):
                mc = LinOperator.mult(ctx, _rand_poly(rng, ctx))
                nested = mc
                for _ in range(a):
                    nested = compose(d, nested)
                assert compose(LinOperator.deriv(ctx, name, a), mc) == nested, (name, a)


@pytest.mark.parametrize("label", list(CONTEXTS))
def test_closed_leibniz_agrees_with_apply_on_monomials(label):
    ctx, slots = CONTEXTS[label]
    rng = random.Random(7 + sum(map(ord, label)))
    width = len(ctx.all_vars)
    monomials = [ctx.poly({exp: 1}) for exp in product(range(4), repeat=width)]
    for name in slots:
        d = LinOperator.deriv(ctx, name)
        for a in _orders(name):
            c = _rand_poly(rng, ctx)
            op = compose(LinOperator.deriv(ctx, name, a), LinOperator.mult(ctx, c))
            for mono in monomials:
                want = c * mono
                for _ in range(a):
                    want = d.apply_poly(want)
                assert op.apply_poly(mono) == want, (name, a, mono)


def test_qbinomial_at_roots_of_unity():
    assert qbinomial(3, 1, QParam(-1)) == Scalar(1)
    i = QParam(Scalar(0, 1))
    assert [qbinomial(4, k, i) for k in range(5)] == [1, 0, 0, 0, 1]


@pytest.mark.parametrize("q", [Fraction(2), Fraction(3, 2), Fraction(5, 7)])
def test_qbinomial_matches_product_formula(q):
    for n in range(9):
        for k in range(n + 1):
            want = Fraction(1)
            for j in range(k):
                want *= (1 - q ** (n - j)) / (1 - q ** (j + 1))
            assert qbinomial(n, k, QParam(q)) == Scalar(want), (n, k)
