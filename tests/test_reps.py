import random
import zlib
from fractions import Fraction

import pytest

from qeslab import reps
from qeslab.operators import LinOperator, commutator, compose
from qeslab.reps import (ALGEBRAS, MultiTermStepError, RepSpec, make_rep, sl2q_constants,
                         root_of_unity_generators, to_matrix_rep, verify_structure)
from qeslab.scalars import ONE, DegenerateQError, QParam, Scalar


def test_sl2_generators_explicit():
    g = make_rep(RepSpec("sl2", n=Scalar(2)))
    ctx = g.ctx
    x = ctx.var("x")
    assert g.ops["J-"] == LinOperator.deriv(ctx, "x")
    assert g.ops["J0"] == LinOperator.mult(ctx, x) * g.ops["J-"] - LinOperator.identity(ctx)
    assert g.ops["J+"] == (LinOperator.mult(ctx, ctx.var("x", 2)) * g.ops["J-"]
                          - LinOperator.mult(ctx, x).scale(2))


def test_sl2q_generator_explicit():
    g = make_rep(RepSpec("sl2q", n=Scalar(1), q=QParam(2)))
    ctx = g.ctx
    want = (LinOperator.mult(ctx, ctx.var("x", 2)) * LinOperator.deriv(ctx, "x")
            - LinOperator.mult(ctx, ctx.var("x")))     # {1} = 1
    assert g.ops["J+"] == want


def test_gl2_semi_ideal_generators():
    g = make_rep(RepSpec("gl2_semi", n=Scalar(3), r=2))
    ctx = g.ctx
    dy = LinOperator.deriv(ctx, "y")
    for i in range(3):
        want = dy if i == 0 else LinOperator.mult(ctx, ctx.var("x", i)) * dy
        assert g.ops[f"J{5 + i}"] == want


@pytest.mark.parametrize("algebra,kwargs", [
    ("sl2", {}),
    ("osp22", {}),
    ("sl3", {}),
    ("sl2xsl2", {}),
    ("so3_nonflat", {}),
    ("gl2_semi", {"r": 1}),
    ("gl2_semi", {"r": 4}),
    ("so_k1", {"k": 2}),
    ("so_k1", {"k": 3}),
    ("sl3_flag", {}),
])
def test_structure_random_rational_marks(algebra, kwargs):
    rng = random.Random(zlib.crc32(algebra.encode()))
    for _ in range(5):
        n = Scalar(Fraction(rng.randint(-18, 36), rng.choice([1, 2, 3, 5])))
        m = Scalar(Fraction(rng.randint(-12, 24), rng.choice([1, 2, 3])))
        rep = verify_structure(make_rep(RepSpec(algebra, n=n, m=m, **kwargs)))
        assert rep["ok"], [r for r in rep["relations"] if not r["ok"]][:2]


@pytest.mark.parametrize("q", [Scalar(2), Scalar(Fraction(3, 2)), Scalar(-1)])
def test_structure_deformed(q):
    rng = random.Random(int(q.re * 100))
    for _ in range(5):
        n = rng.randrange(1, 13, 2) if q == Scalar(-1) else rng.randint(0, 12)
        rep = verify_structure(make_rep(RepSpec("sl2q", n=Scalar(n), q=QParam(q))))
        assert rep["ok"]


def test_sl2q_rescaled_table_is_the_cleared_one():
    # the rescaled basis j+- = J+-/s (s^2 = t = b**n), j0 = c0 J0 turns the
    # cleared table into q j0j- - j-j0 = -j-, q^2 j+j- - j-j+ = -(q+1) j0 and
    # j0j+ - q j+j0 = j+ exactly when kappa c0 = 1 and c0 (b+1) t = lambda:
    # one c0 must serve all three relations
    for q in (2, 3, 4, Fraction(3, 2), Fraction(1, 4), -2):
        b = QParam(q).b
        if b == Scalar(-1):
            continue
        for n in range(9):
            _, _, _, kappa, lam = sl2q_constants(RepSpec("sl2q", n=Scalar(n), q=QParam(q)))
            t = b ** n
            c0 = lam / ((b + ONE) * t)
            assert kappa * c0 == ONE, (q, n)
            assert c0 * (b + ONE) * t == lam, (q, n)


def test_make_rep_verifies_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("make_rep evaluated a relation")

    monkeypatch.setattr(reps, "evaluate_element", refuse)
    gens = make_rep(RepSpec("sl2q", n=Scalar(4), q=QParam(3)))
    assert [rel.form for rel in gens.structure] == ["cleared"] * 3
    assert gens.notes == []


def test_sl2q_degenerate_mark():
    with pytest.raises(DegenerateQError):
        make_rep(RepSpec("sl2q", n=Scalar(2), q=QParam(-1)))   # {2n+2} = 0


def test_root_of_unity_generators():
    gens = root_of_unity_generators(2, QParam(-1))
    assert set(gens) == {"J+", "J0", "J-"}
    with pytest.raises(ValueError):
        root_of_unity_generators(3, QParam(2))


def test_osp_matrix_form_structure():
    g = make_rep(RepSpec("osp22", n=Scalar(3)))
    rep = verify_structure(g, matrix_form=True)
    assert rep["ok"]
    mats = to_matrix_rep(g)
    t0 = mats["T0"]
    # diagonal with the odd sector shifted by +1/2
    assert t0.entries[0][1].is_zero() and t0.entries[1][0].is_zero()
    diff = t0.entries[0][0] - t0.entries[1][1]
    assert diff == LinOperator.identity(diff.ctx).scale(Scalar(Fraction(1, 2)))


def test_flag_family_chevalley_properties():
    for n1, n2 in ((2, 3), (1, 5), (4, 4)):
        g = make_rep(RepSpec("sl3_flag", n=Scalar(n1), m=Scalar(n2)))
        for i, ei in enumerate(("e1", "e2")):
            for j, fj in enumerate(("f1", "f2")):
                br = commutator(g.ops[ei], g.ops[fj])
                want = g.ops[f"h{i + 1}"] if i == j else LinOperator.zero(g.ctx)
                assert br == want
        cartan = {("h1", "e1"): 2, ("h1", "e2"): -1,
                  ("h2", "e1"): -1, ("h2", "e2"): 2}
        for (h, e), a in cartan.items():
            assert commutator(g.ops[h], g.ops[e]) == g.ops[e].scale(a)


def test_rotation_family_closure():
    for k in (2, 3):
        g = make_rep(RepSpec("so_k1", n=Scalar(Fraction(7, 3)), k=k))
        rep = verify_structure(g)
        assert rep["ok"]
    g = make_rep(RepSpec("so3_nonflat", n=Scalar(Fraction(5, 2))))
    assert commutator(g.ops["J1"], g.ops["J2"]) == g.ops["J3"]


SPECS = {
    "sl2": RepSpec("sl2", n=Scalar(1)),
    "sl2q": RepSpec("sl2q", n=Scalar(1), q=QParam(2)),
    "osp22": RepSpec("osp22", n=Scalar(1)),
    "sl3": RepSpec("sl3", n=Scalar(1)),
    "sl2xsl2": RepSpec("sl2xsl2", n=Scalar(1), m=Scalar(1)),
    "gl2_semi": RepSpec("gl2_semi", n=Scalar(1), r=2),
    "so3_nonflat": RepSpec("so3_nonflat", n=Scalar(1)),
    "so_k1": RepSpec("so_k1", n=Scalar(1), k=2),
    "sl3_flag": RepSpec("sl3_flag", n=Scalar(1), m=Scalar(1)),
}


def test_every_algebra_tag_constructs():
    assert set(SPECS) == set(ALGEBRAS)
    for spec in SPECS.values():
        gens = make_rep(spec)
        assert gens.names and all(name in gens.ops for name in gens.names)


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_word_op_is_the_left_to_right_product(algebra):
    # every word of degree <= 2, in both name orders, against an explicit
    # compose chain; the memo must hand back equal operators and leave the
    # generators alone
    spec = SPECS[algebra]
    gens = make_rep(spec)
    words = [()] + [(a,) for a in gens.names] + \
        [(a, b) for a in gens.names for b in gens.names]
    for word in words:
        want = LinOperator.identity(gens.ctx)
        for name in word:
            want = compose(want, gens.ops[name])
        assert gens.word_op(word) == want, word
        assert gens.word_op(list(word)) == want, word
    assert gens.ops == make_rep(spec).ops


def test_step_takes_one_term_and_refuses_two():
    gens = make_rep(RepSpec("sl2", n=Scalar(4)))
    assert gens.step("J+", (2,)) == ((3,), Scalar(-2))     # x^2 D - 4x on x^2
    assert gens.step("J-", (0,)) is None
    # J1 = (1 + y^2) d_y + x y d_x - n y maps y to 1 + (1 - n) y^2: no walk
    gens = make_rep(RepSpec("so3_nonflat", n=Scalar(3)))
    with pytest.raises(MultiTermStepError,
                       match=r"^J1 maps the monomial \(0, 1\) to 2 terms$"):
        gens.step("J1", (0, 1))
    assert issubclass(MultiTermStepError, ValueError)
