import pytest
from hypothesis import given, strategies as st

from qeslab.poly import Poly, VariableMismatchError
from qeslab.scalars import Scalar


def P(vars, terms, nil=frozenset()):
    return Poly(vars, terms, nil)


def test_product_examples():
    x = Poly.var(("x",), "x")
    one = Poly.const(("x",), 1)
    assert (x + one) * (x - one) == Poly(("x",), {(2,): 1, (0,): -1})
    p = Poly(("x",), {(3,): 2, (1,): -1})
    assert p * one == p
    xy = ("x", "y")
    s = Poly.var(xy, "x") + Poly.var(xy, "y")
    assert s * s == Poly(xy, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_variable_mismatch():
    with pytest.raises(VariableMismatchError):
        Poly.var(("x",), "x") + Poly.var(("y",), "y")


def test_degree_and_coefficients():
    p = Poly(("x", "y"), {(2, 1): 3, (0, 4): 1})
    assert p.degree() == 4
    assert p.degree("x") == 2
    assert p.coefficient_of("y", 1) == Poly(("x", "y"), {(2, 0): 3})


def test_jackson_derivative():
    p = Poly(("x",), {(3,): 1})
    assert p.derivative("x", Scalar(2)) == Poly(("x",), {(2,): 7})
    assert p.derivative("x", Scalar(1)) == Poly(("x",), {(2,): 3})


def test_shift_scale():
    p = Poly(("x",), {(2,): 1, (0,): 5})
    assert p.shift_scale("x", Scalar(3)) == Poly(("x",), {(2,): 9, (0,): 5})


def test_nilpotent_variable():
    vars = ("x", "theta")
    nil = frozenset({"theta"})
    th = Poly.var(vars, "theta", nil=nil)
    assert (th * th).is_zero()
    x = Poly.var(vars, "x", nil=nil)
    assert not (th * x).is_zero()


polys = st.builds(
    lambda d: Poly(("x",), {(k,): v for k, v in d.items()}),
    st.dictionaries(st.integers(0, 5), st.fractions(max_denominator=9),
                    max_size=5))


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)

