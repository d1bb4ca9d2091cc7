import random
from fractions import Fraction

import pytest

from qeslab.operators import (ContextMismatchError, LinOperator, MatrixOperator,
                              OpContext, commutator, compose, even_odd,
                              to_matrix_operator)
from qeslab.poly import Poly
from qeslab.reps import RepSpec, make_rep
from qeslab.scalars import QParam, Scalar


CTX = OpContext(["x"])
X = LinOperator.mult(CTX, CTX.var("x"))
DX = LinOperator.deriv(CTX, "x")


def test_apply_examples():
    assert DX.apply_poly(CTX.var("x", 3)) == CTX.var("x", 2).scale(3)
    # highest-weight annihilation at mark 2
    jp = LinOperator.mult(CTX, CTX.var("x", 2)) * DX - X.scale(2)
    assert jp.apply_poly(CTX.var("x", 2)).is_zero()
    jctx = OpContext(["x"], q=QParam(2))
    D = LinOperator.deriv(jctx, "x")
    assert D.apply_poly(jctx.var("x", 3)) == jctx.var("x", 2).scale(7)


def test_compose_examples():
    assert DX * X - X * DX == LinOperator.identity(CTX)
    jp1 = LinOperator.mult(CTX, CTX.var("x", 2)) * DX - X
    assert jp1 * jp1 == LinOperator.mult(CTX, CTX.var("x", 4)) * DX * DX
    qp = QParam(2, base="squared")
    jctx = OpContext(["x"], q=qp)
    D = LinOperator.deriv(jctx, "x")
    jq = LinOperator.mult(jctx, jctx.var("x", 2)) * D - LinOperator.mult(jctx, jctx.var("x"))
    rhs = (LinOperator.mult(jctx, jctx.var("x", 4)) * D * D).scale(Scalar(16))
    assert jq * jq == rhs


def test_context_mismatch():
    other = OpContext(["y"])
    with pytest.raises(ContextMismatchError):
        compose(DX, LinOperator.deriv(other, "y"))


def test_commutator_examples():
    g = make_rep(RepSpec("sl2", n=Scalar(3)))
    assert commutator(g.ops["J0"], g.ops["J+"]) == g.ops["J+"]
    assert commutator(g.ops["J+"], g.ops["J-"]) == g.ops["J0"].scale(-2)
    o = make_rep(RepSpec("osp22", n=Scalar(3)))
    assert compose(o.ops["Q1"], o.ops["Q1"]).is_zero()       # {Q1, Q1} = 0


def _rand_op(rng, ctx, deg=3, order=2):
    terms = {}
    width = len(ctx.all_vars)
    for _ in range(4):
        w = [0] * width
        w[0] = rng.randint(0, order)
        if ctx.theta:
            w[-1] = rng.randint(0, 1)
        e = [0] * width
        e[0] = rng.randint(0, deg)
        if ctx.theta:
            e[-1] = rng.randint(0, 1)
        c = Poly(ctx.all_vars, {tuple(e): Fraction(rng.randint(-4, 4))}, ctx.nil)
        key = tuple(w)
        terms[key] = terms.get(key, ctx.poly()) + c
    return LinOperator(ctx, terms)


def _rand_poly(rng, ctx, deg=6):
    width = len(ctx.all_vars)
    terms = {}
    for _ in range(5):
        e = [0] * width
        e[0] = rng.randint(0, deg)
        if ctx.theta:
            e[-1] = rng.randint(0, 1)
        terms[tuple(e)] = Fraction(rng.randint(-3, 3))
    return Poly(ctx.all_vars, terms, ctx.nil)


@pytest.mark.parametrize("ctx", [
    OpContext(["x"]),
    OpContext(["x"], theta=True),
    OpContext(["x"], q=QParam(Fraction(3, 2))),
    OpContext(["x"], q=QParam(2, base="squared")),
])
def test_compose_apply_consistency(ctx):
    rng = random.Random(7)
    for _ in range(25):
        a, b = _rand_op(rng, ctx), _rand_op(rng, ctx)
        f = _rand_poly(rng, ctx)
        assert compose(a, b).apply_poly(f) == a.apply_poly(b.apply_poly(f))


def test_compose_associative():
    rng = random.Random(3)
    for ctx in (CTX, OpContext(["x"], theta=True), OpContext(["x"], q=QParam(3))):
        for _ in range(10):
            a, b, c = (_rand_op(rng, ctx, deg=2, order=2) for _ in range(3))
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_jackson_compose_against_monomial_action():
    # the difference-calculus reordering rule cross-checked on a monomial basis
    rng = random.Random(11)
    ctx = OpContext(["x"], q=QParam(Fraction(5, 3)))
    for _ in range(10):
        a, b = _rand_op(rng, ctx), _rand_op(rng, ctx)
        ab = compose(a, b)
        top = max(a.order(), 0) + max(b.order(), 0) + 2
        for k in range(top + 1):
            mono = ctx.var("x", k)
            assert ab.apply_poly(mono) == a.apply_poly(b.apply_poly(mono))


def test_grassmann_square_zero():
    ctx = OpContext(["x"], theta=True)
    dth = LinOperator.deriv(ctx, "theta")
    assert (dth * dth).is_zero()
    rng = random.Random(5)
    for _ in range(10):
        op = _rand_op(rng, ctx)
        sq = compose(op, op)
        theta_slot = len(ctx.all_vars) - 1
        assert all(w[theta_slot] <= 1 for w in sq.terms)


def test_canonical_equality_is_congruence():
    rng = random.Random(9)
    for _ in range(10):
        a, b, c = (_rand_op(rng, CTX, deg=2, order=2) for _ in range(3))
        left = compose(a, b + c)
        right = compose(a, b) + compose(a, c)
        assert left == right
        f = _rand_poly(rng, CTX, deg=5)
        assert left.apply_poly(f) == right.apply_poly(f)


def test_matrix_apply_examples():
    ctx = OpContext(["x"])
    ident = MatrixOperator.identity(ctx)
    up = Poly(("x",))
    lo = Poly(("x",), {(2,): 3})
    assert ident.apply((up, lo)) == (up, lo)
    z = LinOperator.zero(ctx)
    one = LinOperator.identity(ctx)
    sigma_plus = MatrixOperator([[z, one], [z, z]])
    out_up, out_lo = sigma_plus.apply((up, lo))
    assert out_up == lo and out_lo.is_zero()


def test_sigma_mapping():
    ctx = OpContext(["x"], theta=True)
    th = LinOperator.mult(ctx, ctx.var("theta"))
    dth = LinOperator.deriv(ctx, "theta")
    m_th = to_matrix_operator(th)
    m_dth = to_matrix_operator(dth)
    assert not m_th.entries[0][1].is_zero() and m_th.entries[1][0].is_zero()
    assert not m_dth.entries[1][0].is_zero() and m_dth.entries[0][1].is_zero()
    # products map to products
    g = make_rep(RepSpec("osp22", n=Scalar(2)))
    lhs = to_matrix_operator(compose(g.ops["T+"], g.ops["Q1"]))
    rhs = to_matrix_operator(g.ops["T+"]) * to_matrix_operator(g.ops["Q1"])
    assert lhs == rhs


def test_even_odd_split():
    ctx = OpContext(["x"], theta=True)
    even = Poly(("x",), {(0,): 2, (3,): Fraction(1, 3)})
    odd = Poly(("x",), {(1,): -1})
    c = ctx.poly({(0, 0): 2, (3, 0): Fraction(1, 3), (1, 1): -1})
    assert even_odd(c) == (even, odd)
