from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qeslab.reps import RepSpec, sl2q_constants
from qeslab.scalars import DegenerateQError, QParam, Scalar, qbinomial, qnumber


def test_basic_arithmetic():
    a = Scalar(Fraction(3, 4))
    b = Scalar(2, 1)          # 2 + i
    assert a + b == Scalar(Fraction(11, 4), 1)
    assert (b * b) == Scalar(3, 4)
    assert b * b.inv() == Scalar(1)
    assert Scalar(5) / Scalar(2) == Scalar(Fraction(5, 2))


def test_rational_gaussian_equality():
    assert Scalar(Fraction(2, 3)) == Scalar(Fraction(2, 3), 0)
    assert hash(Scalar(7)) == hash(Scalar(7, 0))
    assert Scalar(1, 1) != Scalar(1)


def test_gaussian_parts_are_refused():
    with pytest.raises(ValueError, match="imaginary part must be rational"):
        Scalar(1, Scalar(0, 1))
    with pytest.raises(ValueError, match="takes no imaginary part"):
        Scalar(Scalar(1, 2), 3)
    assert Scalar(1, Scalar(2)) == Scalar(1, 2)          # a rational Scalar part
    assert Scalar(Scalar(1, 2)) == Scalar(Scalar(1, 2), 0) == Scalar(1, 2)


SELVES = [Scalar(Fraction(-3, 4)), Scalar(5), Scalar(2, Fraction(1, 3)), Scalar(0, -1),
          Scalar(0)]
OPERANDS = [3, 0, Fraction(-2, 7), Scalar(Fraction(5, 3)), Scalar(Fraction(1, 2), -4),
            Scalar(0, Fraction(2, 9))]


def _results(a, b):
    out = [a + b, b + a, a - b, b - a, a * b, b * a, -a, a ** 0, a ** 3]
    if not Scalar.of(b).is_zero():
        out.append(a / b)
    if not a.is_zero():
        out += [b / a, a.inv(), a ** -2]
    return out


@pytest.mark.parametrize("a", SELVES, ids=str)
@pytest.mark.parametrize("b", OPERANDS, ids=str)
def test_results_have_fraction_parts(a, b):
    """Arithmetic skips the constructor's conversion, so check that every
    result still has exact Fraction parts and hashes like its equals."""
    for r in _results(a, b):
        assert type(r) is Scalar and type(r.re) is Fraction and type(r.im) is Fraction
        assert r == Scalar(Fraction(r.re), Fraction(r.im))
        assert hash(r) == hash(Scalar(Fraction(r.re), Fraction(r.im)))
        if r.is_rational():
            assert r == r.re and hash(r) == hash(r.re)
            if r.re.denominator == 1:
                assert r == int(r.re) and hash(r) == hash(int(r.re))


def test_parse_round_trip():
    for text in ("3/4", "-2", "0", "1/2+3/5*i", "-1/2-3*i", "2*i"):
        s = Scalar.parse(text)
        assert Scalar.parse(str(s)) == s


def test_qnumber_examples():
    assert qnumber(3, QParam(2)) == Scalar(7)          # 1 + 2 + 4
    assert qnumber(0, QParam(9)) == Scalar(0)
    assert qnumber(2, QParam(-1)) == Scalar(0)         # (1-q^2)/(1-q) at q=-1
    assert qnumber(4, QParam(1)) == Scalar(4)          # classical limit


def test_qnumber_recursion():
    q = QParam(Fraction(3, 2))
    for k in range(8):
        assert qnumber(k + 1, q) == Scalar(1) + q.q * qnumber(k, q)


def test_nhat_examples():
    def nhat(n, q):
        return sl2q_constants(RepSpec("sl2q", n=Scalar(n), q=q))[2]

    assert nhat(1, QParam(1)) == Scalar(Fraction(1, 2))        # n/2 at base 1
    assert nhat(2, QParam(2)) == Scalar(Fraction(1, 3))        # 3*7/63
    with pytest.raises(DegenerateQError):
        nhat(1, QParam(Scalar(0, 1)))                          # q^4 = 1


def test_qbinomial():
    assert qbinomial(3, 1, QParam(1)) == Scalar(3)
    assert qbinomial(2, 1, QParam(2, base="squared")) == Scalar(5)   # 1 + q^2
    assert qbinomial(6, 0, QParam(Fraction(5, 7))) == Scalar(1)


def test_appendix_base_convention():
    assert QParam(3, base="squared").b == Scalar(9)
    assert QParam(3).b == Scalar(3)
    with pytest.raises(ValueError):
        QParam(0)
    with pytest.raises(ValueError):
        QParam(1, base="cubed")


scalars = st.builds(Scalar,
                    st.fractions(max_denominator=40),
                    st.fractions(max_denominator=40))


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars)
def test_inverses(a):
    if not a.is_zero():
        assert a * a.inv() == Scalar(1)
    assert a - a == Scalar(0)
