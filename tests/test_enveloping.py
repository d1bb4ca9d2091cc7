import random
from dataclasses import replace
from fractions import Fraction

import pytest

from itertools import product

from qeslab.classify import CASE_FAMILIES
from qeslab.enveloping import (ElementAction, burnside_span_rank, coefficient_shape_check,
                               expand, expand_matrix, expand_word, grading,
                               make_word, param_count, relation_table,
                               verify_relations, word_is_exact,
                               words_up_to_degree)
from qeslab.operators import LinOperator, MatrixOperator, OpContext
from qeslab.poly import Poly
from qeslab.reps import RepSpec, make_rep, to_matrix_rep
from qeslab.scalars import ONE, QParam, Scalar
from qeslab.spaces import SpaceSpec, action_matrix, flag_actions


def test_expand_examples():
    g = make_rep(RepSpec("sl2", n=Scalar(2)))
    ctx = g.ctx
    w = make_word(g, ("J0", "J-"))
    got = expand({w: ONE}, g)
    want = (LinOperator.mult(ctx, ctx.var("x")) * LinOperator.deriv(ctx, "x", 2)
            - LinOperator.deriv(ctx, "x"))
    assert got == want
    assert expand({(): Scalar(5)}, g) == LinOperator.identity(ctx).scale(5)


def test_expand_linear():
    g = make_rep(RepSpec("sl2", n=Scalar(3)))
    w1 = make_word(g, ("J+",))
    w2 = make_word(g, ("J0", "J0"))
    lhs = expand({w1: Scalar(2), w2: Scalar(-3)}, g)
    assert lhs == expand({w1: Scalar(2)}, g) + expand({w2: Scalar(-3)}, g)


def test_expand_matrix_is_the_product_of_matrix_images():
    # the matrix transcription is an algebra map: transcribing a word's
    # operator equals multiplying the generators' 2x2 images
    g = make_rep(RepSpec("osp22", n=Scalar(Fraction(5, 2))))
    mats = to_matrix_rep(g)
    for w in words_up_to_degree(g, 2):
        want = MatrixOperator.identity(OpContext(g.ctx.vars))
        for name in w:
            want = want * mats[name]
        assert expand_matrix({w: Scalar(3)}, g) == want.scale(3), w


def test_repeated_odd_generator_is_the_zero_word():
    g = make_rep(RepSpec("osp22", n=Scalar(3)))
    with pytest.raises(ValueError, match="Q1"):
        make_word(g, ("Q1", "Q1"))
    with pytest.raises(ValueError, match="Qb2"):
        make_word(g, ("Qb2", "T+", "Qb2"))
    assert g.word_op(("Q1", "Q1")).is_zero()
    assert make_word(g, ("Q1", "J", "T+")) == ("T+", "J", "Q1")


def test_grading_examples():
    g = make_rep(RepSpec("sl2", n=Scalar(5)))
    w = make_word(g, ("J+", "J+", "J-"))
    assert grading(w, g)[2] == 1
    o = make_rep(RepSpec("osp22", n=Scalar(5)))
    assert grading(make_word(o, ("Q2",)), o)[2] == Fraction(1, 2)
    gl = make_rep(RepSpec("gl2_semi", n=Scalar(2), r=2))
    gx, gy, tot = grading(make_word(gl, ("J6",)), gl)
    assert (gx, gy, tot) == (1, -1, -1)


def test_grading_additivity_per_generator():
    for spec in (RepSpec("sl3", n=Scalar(3)), RepSpec("sl2xsl2", n=Scalar(2), m=Scalar(2)),
                 RepSpec("gl2_semi", n=Scalar(3), r=2)):
        g = make_rep(spec)
        ctx = g.ctx
        mono = ctx.var(ctx.vars[0], 2) * ctx.var(ctx.vars[1], 3)
        for name in g.names:
            vx, vy = g.grading[name]
            image = g.ops[name].apply_poly(mono)
            for e in image.terms:
                assert e[0] == 2 + vx and e[1] == 3 + vy


def test_relation_suites_pass():
    for spec in (RepSpec("sl2"), RepSpec("osp22"), RepSpec("sl3"),
                 RepSpec("sl2xsl2"), RepSpec("gl2_semi", r=2),
                 RepSpec("sl2q", q=QParam(2))):
        rep = verify_relations(spec, seed=13)
        assert rep["ok"], rep


@pytest.mark.parametrize("spec", [
    RepSpec("sl2", n=Scalar(3)),
    RepSpec("sl2q", n=Scalar(3), q=QParam(2)),
    RepSpec("osp22", n=Scalar(Fraction(5, 2))),
    RepSpec("sl3", n=Scalar(3)),
    RepSpec("sl2xsl2", n=Scalar(3), m=Scalar(2)),
    RepSpec("gl2_semi", n=Scalar(Fraction(7, 2)), r=2),
], ids=lambda spec: spec.algebra)
def test_relation_tables_are_built_at_the_mark(spec):
    # negative control: a table built at mark n holds at n and leaves a
    # residual at n+1, so it cannot have been built at a family default
    rels = relation_table(spec)
    here = make_rep(spec)
    shifted = make_rep(replace(spec, n=spec.n + ONE))
    assert all(expand(rel.expr, here).is_zero() for rel in rels)
    assert any(not expand(rel.expr, shifted).is_zero() for rel in rels)


def test_relation_suite_taxonomy():
    rep = verify_relations(RepSpec("osp22"), seed=1)
    assert len(rep["relations"]) == 14 * 3
    assert len(rep["corrected"]) == 3
    rep = verify_relations(RepSpec("sl3"), seed=1)
    assert len(rep["relations"]) == 9 * 3 and not rep["corrected"]
    rep = verify_relations(RepSpec("sl2xsl2"), seed=1)
    assert len(rep["relations"]) == 2 * 3


def test_param_counts_quasi_exact():
    n = Scalar(Fraction(7, 2))
    m = Scalar(Fraction(4, 3))
    table = [
        (RepSpec("sl2", n=n), 1, "quasi", False, 4),
        (RepSpec("sl2", n=n), 1, "exact", False, 3),
        (RepSpec("sl2", n=n), 2, "quasi", False, 9),
        (RepSpec("sl2", n=n), 2, "exact", False, 6),
        (RepSpec("sl2q", n=Scalar(5), q=QParam(2)), 2, "quasi", False, 10),
        (RepSpec("sl2q", n=Scalar(5), q=QParam(2)), 2, "exact", False, 7),
        (RepSpec("osp22", n=n), 2, "quasi", False, 25),
        (RepSpec("osp22", n=n), 2, "exact", False, 17),
        (RepSpec("sl3", n=n), 2, "quasi", False, 36),
        (RepSpec("sl3", n=n), 2, "exact", False, 25),
        (RepSpec("sl2xsl2", n=n, m=m), 2, "quasi", False, 26),
        (RepSpec("sl2xsl2", n=n, m=m), 2, "exact_x", False, 20),
        (RepSpec("sl2xsl2", n=n, m=m), 2, "exact_y", False, 20),
    ]
    for spec, k, variant, mat, want in table:
        res = param_count(spec, k, variant, matrix_form=mat)
        assert res["rank"] == want and res["match"], res


def test_param_counts_matrix_form():
    spec = RepSpec("osp22", n=Scalar(Fraction(7, 2)))
    assert param_count(spec, 2, "quasi", matrix_form=True)["rank"] == 36
    assert param_count(spec, 2, "exact", matrix_form=True)["rank"] == 23
    assert param_count(spec, 1, "quasi", matrix_form=True)["rank"] == 16
    assert param_count(spec, 1, "exact", matrix_form=True)["rank"] == 11


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_param_counts_semidirect(r):
    spec = RepSpec("gl2_semi", n=Scalar(Fraction(7, 2)), r=r)
    assert param_count(spec, 2, "quasi")["rank"] == 5 * (r + 4)
    assert param_count(spec, 2, "exact")["rank"] == 5 * (r + 3)


def test_exact_filter_matches_flag_preservation():
    # no positive grading -> the first flag members are preserved
    flags = {
        "sl2": [SpaceSpec("interval", (i,)) for i in range(5)],
        "sl3": [SpaceSpec("triangle", (i,)) for i in range(5)],
    }
    rng = random.Random(4)
    for algebra, flag in flags.items():
        spec = RepSpec(algebra, n=Scalar(6))
        gens = make_rep(spec)
        words = [w for w in words_up_to_degree(gens, 2) if word_is_exact(w, gens)]
        poly = {w: Scalar(rng.randint(1, 5)) for w in words}
        op = expand(poly, gens)
        for s in flag:
            assert action_matrix(op, s).preserved


def test_shape_check_examples():
    spec = RepSpec("sl2", n=Scalar(Fraction(9, 2)))
    gens = make_rep(spec)
    quasi = expand({w: ONE for w in words_up_to_degree(gens, 2)}, gens)
    assert coefficient_shape_check(quasi, spec, 2, "quasi")["ok"]
    exact_words = [w for w in words_up_to_degree(gens, 2)
                   if word_is_exact(w, gens)]
    exact = expand({w: ONE for w in exact_words}, gens)
    assert coefficient_shape_check(exact, spec, 2, "exact")["ok"]
    # out-of-shape witness: degree 3 coefficient at derivative order 1
    bad = (LinOperator.mult(gens.ctx, gens.ctx.var("x", 3))
           * LinOperator.deriv(gens.ctx, "x"))
    assert not coefficient_shape_check(bad, spec, 1, "quasi")["ok"]


def test_shape_profiles_match_catalogued_bounds():
    # one-variable family: a_j degree <= k + j (quasi), <= j (exact)
    from qeslab.enveloping import shape_bounds
    for spec in (RepSpec("sl2", n=Scalar(Fraction(7, 3))),
                 RepSpec("sl2q", n=Scalar(6), q=QParam(2))):
        for k in (1, 2):
            b = shape_bounds(spec, k, "quasi")
            for (word, odd), deg in b.items():
                assert deg <= k + word[0]
            b = shape_bounds(spec, k, "exact")
            for (word, odd), deg in b.items():
                assert deg <= word[0]


def test_burnside_span():
    for n in range(1, 5):
        assert burnside_span_rank(n) == (n + 1) ** 2


def test_exact_words_preserve_each_family_flag():
    # the no-positive-grading filter implies preservation of the first five
    # flag members, family by family
    rng = random.Random(14)
    cases = [
        (RepSpec("sl2", n=Scalar(6)),
         [SpaceSpec("interval", (i,)) for i in range(5)], "total"),
        (RepSpec("sl3", n=Scalar(6)),
         [SpaceSpec("triangle", (i,)) for i in range(5)], "total"),
        (RepSpec("gl2_semi", n=Scalar(6), r=2),
         [SpaceSpec("wedge", (2, i)) for i in range(5)], "total"),
        (RepSpec("sl2xsl2", n=Scalar(6), m=Scalar(3)),
         [SpaceSpec("rectangle", (i, 3)) for i in range(5)], "x"),
        (RepSpec("osp22", n=Scalar(6)),
         [SpaceSpec("spinor", (i, i - 1)) for i in range(1, 6)], "total"),
    ]
    for spec, flag, variant in cases:
        gens = make_rep(spec)
        words = [w for w in words_up_to_degree(gens, 2)
                 if word_is_exact(w, gens, variant)]
        poly = {w: Scalar(rng.randint(1, 7)) for w in words}
        op = expand(poly, gens)
        for s in flag:
            assert action_matrix(op, s).preserved, (spec.algebra, str(s))


def test_rank_handles_gaussian_entries():
    from qeslab.linalg import rank
    i = Scalar(0, 1)
    rows = [[Scalar(1), i], [i, Scalar(-1)]]          # second row = i * first
    assert rank(rows) == 1
    rows = [[Scalar(1), i], [i, Scalar(1)]]
    assert rank(rows) == 2


def _module_cover(spec: RepSpec) -> SpaceSpec:
    """A space one degree past the family's module at the spec's marks."""
    n, m = int(spec.n.re), int(spec.m.re)
    return {"sl2": SpaceSpec("interval", (n + 1,)),
            "sl2q": SpaceSpec("interval", (n + 1,)),
            "osp22": SpaceSpec("spinor", (n + 1, n)),
            "sl3": SpaceSpec("triangle", (n + 1,)),
            "sl2xsl2": SpaceSpec("rectangle", (n + 1, m + 1)),
            "gl2_semi": SpaceSpec("wedge", (spec.r, n + 1))}[spec.algebra]


def _basis_monomials(space, ctx):
    """The space's basis monomials over the context, odd labels at theta."""
    monos = []
    for exp, odd in space.labels():
        powers = dict(zip(space.vars + ("theta",) * odd, exp + (odd,)))
        e = tuple(powers.get(v, 0) for v in ctx.all_vars)
        monos.append(Poly.monomial(ctx.all_vars, e, 1, ctx.nil))
    return monos


@pytest.mark.parametrize("family", CASE_FAMILIES, ids=lambda s: s.algebra)
def test_walk_is_the_expanded_action(family):
    # every word of degree <= 2, in every name order, at two marks: the walk
    # image of each basis monomial is the expanded word's image, and a whole
    # element gives flag_actions the same matrix and escapes either way
    for n, m in ((4, 3), (7, 2)):
        spec = replace(family, n=Scalar(n), m=Scalar(m))
        gens = make_rep(spec)
        space = _module_cover(spec)
        monos = _basis_monomials(space, gens.ctx)
        words = [w for k in range(3) for w in product(gens.names, repeat=k)]
        for word in words:
            walk = ElementAction(gens, {word: ONE})
            op = gens.word_op(word)
            for mono in monos:
                (e,) = mono.terms
                assert walk.apply_monomial(e) == op.apply_poly(mono).terms, (word, e)
        element = {w: Scalar(Fraction(i % 7 - 3, 1 + i % 4)) for i, w in enumerate(words)}
        walked, = flag_actions(ElementAction(gens, element), [space])
        expanded = action_matrix(expand(element, gens), space)
        assert walked.matrix == expanded.matrix
        assert sorted(map(repr, walked.escapes)) == sorted(map(repr, expanded.escapes))
        assert walked.escapes, spec.algebra      # the cover is not preserved
