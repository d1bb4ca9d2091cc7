"""Exact coefficient arithmetic: rationals, Gaussian rationals, q-numbers.

Every coefficient in the library is a :class:`Scalar` -- a Gaussian rational
a + b*i with exact Fraction parts.  Plain rationals are the b == 0 case and
compare equal to them, so the two variants share one type.  Invariant: ``.re``
and ``.im`` are always of type Fraction (never int, float or a subclass), so
equal Scalars hash alike and a rational one hashes as its Fraction.  The
constructor converts its input to establish this; arithmetic results, whose
parts are Fractions already, skip the conversion.  Deformation
parameters live in :class:`QParam`, which also fixes the base convention for
q-numbers: the one-variable difference calculus shifts arguments by q, the
identity catalogue (A-series) shifts by q**2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

ScalarLike = Union["Scalar", Fraction, int]


class DegenerateQError(ZeroDivisionError):
    """A q-number in a denominator vanished for this deformation parameter."""


class Scalar:
    """Exact Gaussian rational a + b*i (b == 0 gives a plain rational)."""

    __slots__ = ("re", "im")

    def __init__(self, re: ScalarLike = 0, im: ScalarLike = 0):
        if isinstance(re, Scalar):
            if im != 0:
                raise ValueError(f"Scalar({re}, {im}): a Scalar real part takes no "
                                 "imaginary part")
            self.re: Fraction = re.re
            self.im: Fraction = re.im
            return
        if isinstance(im, Scalar):
            if im.im:
                raise ValueError(f"Scalar({re}, {im}): the imaginary part must be rational")
            im = im.re
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(value: ScalarLike) -> "Scalar":
        return value if isinstance(value, Scalar) else Scalar(value)

    @staticmethod
    def parse(text: str) -> "Scalar":
        """Parse the canonical form "p/q" or "p/q+r/s*i" (also "-r/s*i")."""
        s = text.strip().replace(" ", "")
        if s.endswith("*i"):
            body = s[:-2]
            # split at the last +/- that is not the leading sign
            for k in range(len(body) - 1, 0, -1):
                if body[k] in "+-" and body[k - 1] not in "+-/*":
                    return Scalar(Fraction(body[:k]), Fraction(body[k:] or "1"))
            return Scalar(0, Fraction(body))
        return Scalar(Fraction(s))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_rational(self) -> bool:
        return not self.im

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: ScalarLike) -> "Scalar":
        o = other if isinstance(other, Scalar) else Scalar(other)
        if not self.im and not o.im:
            return _scalar(self.re + o.re, _FZERO)
        return _scalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _scalar(-self.re, -self.im if self.im else _FZERO)

    def __sub__(self, other: ScalarLike) -> "Scalar":
        o = other if isinstance(other, Scalar) else Scalar(other)
        if not self.im and not o.im:
            return _scalar(self.re - o.re, _FZERO)
        return _scalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return Scalar.of(other) - self

    def __mul__(self, other: ScalarLike) -> "Scalar":
        o = other if isinstance(other, Scalar) else Scalar(other)
        if not self.im and not o.im:
            return _scalar(self.re * o.re, _FZERO)
        return _scalar(self.re * o.re - self.im * o.im,
                       self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        if not self.im:
            return _scalar(1 / self.re, _FZERO)
        n = self.re * self.re + self.im * self.im
        return _scalar(self.re / n, -self.im / n)

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        return self * Scalar.of(other).inv()

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return Scalar.of(other) * self.inv()

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return self.inv() ** (-k)
        out, base = ONE, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- conversion ------------------------------------------------------

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self) -> str:
        return f"Scalar({str(self)!r})"

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        re = str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{re}{sign}{abs(self.im)}*i"


_FZERO = Fraction(0)


def _scalar(re: Fraction, im: Fraction) -> Scalar:
    """A Scalar from parts that are already Fractions, without converting them."""
    s = object.__new__(Scalar)
    s.re = re
    s.im = im
    return s


ZERO = Scalar(0)
ONE = Scalar(1)


class QParam:
    """Deformation parameter q != 0 together with its shift-base convention.

    base == "single" means q-numbers use base q (difference calculus acting by
    f(x) -> f(qx)); base == "squared" uses q**2 (the convention of the
    operator-identity catalogue).  At effective base 1 everything degenerates
    to the classical integers.
    """

    __slots__ = ("q", "base")

    def __init__(self, q: ScalarLike, base: str = "single"):
        if base not in ("single", "squared"):
            raise ValueError(f"unknown q base convention: {base!r}")
        self.q = Scalar.of(q)
        if self.q.is_zero():
            raise ValueError("q must be nonzero")
        self.base = base

    @property
    def b(self) -> Scalar:
        """The effective shift base (q or q**2)."""
        return self.q if self.base == "single" else self.q * self.q

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, QParam) and self.q == other.q
                and self.base == other.base)

    def __hash__(self) -> int:
        return hash((self.q, self.base))

    def __repr__(self) -> str:
        return f"QParam({self.q}, base={self.base!r})"


def qnumber(k: int, q: QParam) -> Scalar:
    """The q-integer {k} = (1 - b**k)/(1 - b) = 1 + b + ... + b**(k-1)."""
    b = q.b
    if b == ONE:
        return Scalar(k)
    if k >= 0:
        return (ONE - b ** k) / (ONE - b)
    return -(b ** k) * qnumber(-k, q)


def qbinomial(n: int, k: int, q: QParam) -> Scalar:
    """The Gaussian binomial [n k] at base b, the classical binomial at b = 1.

    Built by the q-Pascal rule [m j] = [m-1 j-1] + b**j [m-1 j]: a polynomial
    in b, so defined at roots of unity, where {n}!/({k}!{n-k}!) is 0/0.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    powers = [q.b ** j for j in range(k + 1)]
    row = [ONE] + [ZERO] * k  # [m j] for j = 0..k, from m = 0
    for m in range(1, n + 1):
        for j in range(min(m, k), 0, -1):
            row[j] = row[j - 1] + powers[j] * row[j]
    return row[k]
