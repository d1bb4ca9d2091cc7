import random
from fractions import Fraction

import pytest

from qeslab.enveloping import expand, make_word, words_up_to_degree
from qeslab.operators import LinOperator, OpContext, to_matrix_operator
from qeslab.poly import Poly
from qeslab.reps import RepSpec, make_rep, root_of_unity_generators
from qeslab.scalars import ONE, QParam, Scalar
from qeslab.spaces import (MAX_SPACE_SIZE, DimensionMismatchError, SpaceSpec,
                           action_matrix, dimension, flag_actions, parse_space)


def test_dimension_examples():
    assert dimension(SpaceSpec("interval", (2,))) == 3
    assert dimension(SpaceSpec("spinor", (3, 2))) == 7           # 2n+1 at n=3
    assert dimension(SpaceSpec("triangle", (3,))) == 10
    assert dimension(SpaceSpec("wedge", (2, 4))) == 9
    assert dimension(SpaceSpec("wedge", (3, 5))) == 9
    assert dimension(SpaceSpec("rectangle", (2, 3))) == 12
    assert dimension(SpaceSpec("spinor", (4, -1))) == 5          # empty odd row


def test_wedge_closed_form_all_residues():
    for r in (1, 2, 3, 4):
        for n in range(13):
            dimension(SpaceSpec("wedge", (r, n)))   # hard failure on mismatch


def test_triangle_closed_form():
    for n in range(13):
        assert dimension(SpaceSpec("triangle", (n,))) == (n + 1) * (n + 2) // 2


def test_spinor_flag_dimension():
    for n in range(1, 13):
        assert dimension(SpaceSpec("spinor", (n, n - 1))) == 2 * n + 1


def test_basis_order_graded_even_first():
    labels = SpaceSpec("triangle", (2,)).labels()
    assert labels == [((0, 0), 0), ((1, 0), 0), ((0, 1), 0),
                      ((2, 0), 0), ((1, 1), 0), ((0, 2), 0)]
    labels = SpaceSpec("spinor", (2, 1)).labels()
    assert [od for _, od in labels] == [0, 0, 0, 1, 1]


def test_action_matrix_examples():
    g = make_rep(RepSpec("sl2", n=Scalar(2)))
    res = action_matrix(g.ops["J0"], SpaceSpec("interval", (2,)))
    assert res.preserved
    assert res.matrix == [[Scalar(-1), Scalar(0), Scalar(0)],
                          [Scalar(0), Scalar(0), Scalar(0)],
                          [Scalar(0), Scalar(0), Scalar(1)]]
    ctx = g.ctx
    bad = LinOperator.mult(ctx, ctx.var("x", 3)) * LinOperator.deriv(ctx, "x")
    res = action_matrix(bad, SpaceSpec("interval", (2,)))
    assert not res.preserved
    witness = {(e.source, e.monomial): e.coeff for e in res.escapes}
    assert witness[(((2,), 0), (4,))] == Scalar(2)   # x^2 -> 2 x^4


def test_degree_two_words_preserve_flag_member():
    g = make_rep(RepSpec("sl2", n=Scalar(4)))
    rng = random.Random(0)
    words = words_up_to_degree(g, 2)
    poly = {w: Scalar(rng.randint(-5, 5)) for w in words}
    assert action_matrix(expand(poly, g), SpaceSpec("interval", (4,))).preserved


def test_annihilator_tail_preserves_with_zero_matrix():
    ctx = OpContext(["x"])
    n = 2
    op = (LinOperator.mult(ctx, ctx.var("x", 1) + ctx.const(3))
          * LinOperator.deriv(ctx, "x", n + 1))
    res = action_matrix(op, SpaceSpec("interval", (n,)))
    assert res.preserved
    assert all(c.is_zero() for row in res.matrix for c in row)


def test_root_of_unity_flag():
    rng = random.Random(21)
    for q, n in ((Scalar(-1), 2), (Scalar(0, 1), 4)):
        gens = root_of_unity_generators(n, QParam(q))
        ctx = gens["J+"].ctx
        words = [(), ("J+",), ("J0",), ("J-",), ("J+", "J+"), ("J+", "J0"),
                 ("J+", "J-"), ("J0", "J0"), ("J0", "J-"), ("J-", "J-")]
        op = LinOperator.zero(ctx)
        for w in words:
            term = LinOperator.identity(ctx)
            for name in w:
                term = term * gens[name]
            op = op + term.scale(Scalar(rng.randint(-5, 5)))
        flag = [SpaceSpec("interval", (n,)), SpaceSpec("interval", (2 * n,)),
                SpaceSpec("interval", (3 * n,))]
        assert all(r.preserved for r in flag_actions(op, flag))


def test_flag_actions_acts_once_per_monomial(monkeypatch):
    # one flag_actions pass: the 3 + 5 + 7 basis monomials of the three
    # members are 7 distinct monomials, each acted on once
    op = make_rep(RepSpec("sl2", n=Scalar(6))).word_op(("J0", "J-"))
    seen = []
    apply_monomial = LinOperator.apply_monomial

    def counted(self, e):
        seen.append(e)
        return apply_monomial(self, e)

    monkeypatch.setattr(LinOperator, "apply_monomial", counted)
    flag = [SpaceSpec("interval", (k,)) for k in (2, 4, 6)]
    assert all(r.preserved for r in flag_actions(op, flag))
    assert len(seen) == len(set(seen)) == 7


def test_simplex_preserved_by_degree_two_words():
    for k in (2, 3):
        for n in (2, 4):
            g = make_rep(RepSpec("so_k1", n=Scalar(n), k=k))
            s = SpaceSpec("simplex", (k, n))
            for w in words_up_to_degree(g, 2):
                assert action_matrix(expand({w: ONE}, g), s).preserved, w


def test_nonflat_rotation_triangle():
    for n in (1, 2, 3, 4):
        g = make_rep(RepSpec("so3_nonflat", n=Scalar(n)))
        s = SpaceSpec("triangle", (n,))
        for name in g.names:
            assert action_matrix(g.ops[name], s).preserved


def _two_component_action(op, s):
    """Reference action on a spinor pair read off the 2x2 transcription:
    each basis monomial goes in as (upper, lower) = (odd, even) components,
    and each image term lands in the basis or escapes with its (x, sector)
    exponents.  Returns the matrix (None on escape) and the escape map."""
    mop = to_matrix_operator(op)
    labels = s.labels()
    index = {lab: i for i, lab in enumerate(labels)}
    zero = Poly(mop.ctx.all_vars)
    matrix = [[Scalar(0)] * len(labels) for _ in labels]
    escapes = {}
    for j, lab in enumerate(labels):
        ((deg,), odd) = lab
        mono = Poly.monomial(mop.ctx.all_vars, (deg,))
        up, lo = mop.apply((mono, zero) if odd else (zero, mono))
        for part, sector in ((up, 1), (lo, 0)):
            for (e,), c in part.terms.items():
                if ((e,), sector) in index:
                    matrix[index[((e,), sector)]][j] = c
                else:
                    escapes[(lab, (e, sector))] = c
    return (None if escapes else matrix), escapes


def test_spinor_action_matches_the_matrix_reference():
    # the one action path on theta-context operators equals the two-component
    # action of their 2x2 transcriptions, entry by entry and escape by escape
    flag = [SpaceSpec("spinor", (0, 0))] + \
           [SpaceSpec("spinor", (m, m - 1)) for m in range(1, 6)]
    for n in (Fraction(5, 2), Fraction(7, 2)):
        gens = make_rep(RepSpec("osp22", n=Scalar(n)))
        ops = [op for op in (gens.word_op(w) for w in words_up_to_degree(gens, 3))
               if op.order("x") <= 2]
        assert len(ops) == 107
        for op in ops:
            for s in flag:
                res = action_matrix(op, s)
                matrix, escapes = _two_component_action(op, s)
                assert res.matrix == matrix, (op, s)
                got = {(e.source, e.monomial): e.coeff for e in res.escapes}
                assert len(got) == len(res.escapes) and got == escapes, (op, s)


@pytest.mark.parametrize("kind,params,what", [
    ("interval", (MAX_SPACE_SIZE + 1,), "a parameter above"),
    ("wedge", (1, 10 ** 9), "a parameter above"),
    ("triangle", (90,), "dimension 4186, above"),
    ("simplex", (40, 40), "dimension [0-9]+, above"),
    ("rectangle", (64, 64), "dimension 4225, above"),
])
def test_space_size_is_bounded_before_enumeration(kind, params, what, monkeypatch):
    def boom(self):
        raise AssertionError("the basis was enumerated")
    monkeypatch.setattr(SpaceSpec, "labels", boom)
    with pytest.raises(ValueError, match=what):
        SpaceSpec(kind, params)


def test_spaces_up_to_the_size_bound_are_built():
    assert len(SpaceSpec("interval", (MAX_SPACE_SIZE - 1,)).labels()) == MAX_SPACE_SIZE
    assert len(SpaceSpec("rectangle", (63, 63)).labels()) == MAX_SPACE_SIZE


def test_parse_space():
    assert parse_space("int:4") == SpaceSpec("interval", (4,))
    assert parse_space("spin:3,2") == SpaceSpec("spinor", (3, 2))
    assert parse_space("tri:3") == SpaceSpec("triangle", (3,))
    assert parse_space("rect:2,3") == SpaceSpec("rectangle", (2, 3))
    assert parse_space("wedge:2,4") == SpaceSpec("wedge", (2, 4))
    assert parse_space("simplex:3,2") == SpaceSpec("simplex", (3, 2))
    with pytest.raises(ValueError):
        parse_space("disk:3")
