import hashlib
import json
import random
from fractions import Fraction

import pytest

from qeslab.freealg import (TWO_PAIR, RewriteBudgetError, expr, expr_mul,
                            expr_pow, heisenberg_system, normal_order,
                            q_heisenberg_system, quantum_plane_system)
from qeslab import identities
from qeslab.identities import (verify_A2, verify_A3, verify_A6, verify_A7, verify_A10,
                               verify_identity)
from qeslab.reps import Relation, make_rep
from qeslab.scalars import QParam, Scalar, qbinomial


def test_normal_order_examples():
    rs = heisenberg_system()
    got = normal_order(expr((1, ("P", "Q"))), rs)
    assert got == expr((1, ("Q", "P")), (1, ()))
    got = normal_order(expr((1, ("P", "Q", "Q"))), rs)
    assert got == expr((1, ("Q", "Q", "P")), (2, ("Q",)))
    qs = quantum_plane_system(Scalar(3))
    got = normal_order(expr((1, ("Dx", "x"))), qs)
    q2 = Scalar(9)
    assert got == expr((1, ()), (q2, ("x", "Dx")), (q2 - Scalar(1), ("y", "Dy")))


def test_budget_guard():
    rs = heisenberg_system()
    word = tuple(["P", "Q"] * 12)
    with pytest.raises(RewriteBudgetError):
        normal_order(expr((1, word)), rs, budget=10)


def test_confluence_smoke():
    rng = random.Random(30)
    systems = [heisenberg_system(), heisenberg_system(3),
               q_heisenberg_system(Scalar(4)),
               quantum_plane_system(Scalar(Fraction(3, 2))),
               quantum_plane_system(Scalar(2), TWO_PAIR)]
    for rs in systems:
        for _ in range(200):
            w = tuple(rng.choice(rs.order) for _ in range(rng.randint(0, 8)))
            inner = normal_order({w: Scalar(1)}, rs, strategy="innermost")
            outer = normal_order({w: Scalar(1)}, rs, strategy="outermost")
            assert inner == outer, (rs.name, w)


def test_a1_family():
    for n in range(7):
        assert verify_identity("A1", n=n)["ok"]


def test_a2_abstract():
    for n in range(5):
        assert verify_identity("A2", n=n)["ok"]


@pytest.mark.parametrize("n", [-3, Fraction(1, 2)], ids=str)
def test_a2_rejects_a_mark_it_cannot_raise_to(n):
    with pytest.raises(ValueError, match=f"n={n}$"):
        verify_A2(n)


def test_a3_embedding_sampled_marks():
    rep = verify_identity("A3", n=Fraction(5, 2))
    assert rep["ok"]
    for n in (0, 1):
        assert verify_identity("A3", n=n)["ok"]


def test_a4_real_and_anticommuting():
    for n in range(5):
        assert verify_identity("A4", n=n)["ok"]
        rep = verify_identity("A4", n=n, grassmann=True)
        assert rep["ok"]
        assert rep["surviving_terms"] == 2     # only the k = 0, 1 terms survive


def test_a5_multinomial_and_annihilation():
    for n in range(4):
        rep = verify_identity("A5", n=n, k=3)
        assert rep["ok"] and rep["annihilates_simplex"]


def test_a6_abstract_multinomial():
    for k in (2, 3):
        for n in range(4 if k == 2 else 3):
            assert verify_identity("A6", n=n, k=k)["ok"]


def test_a6_single_pair_is_a2():
    # one pair is named Q, P by the rewrite system, not Q1, P1
    for n in range(4):
        assert verify_A6(1, n)["ok"], n


@pytest.mark.parametrize("algebra,check", [
    ("sl2", lambda: verify_A3(2)),
    ("sl2q", lambda: verify_A10(2, 2)),
], ids=["A3", "A10"])
def test_embeddings_read_the_family_tables(algebra, check, monkeypatch):
    # a false relation appended to the family's own structure table shows
    # up in the embedding check: A3 and A10 keep no copy of the tables
    assert check()["ok"]
    false = Relation.of("J0=0", [(1, ("J0",))])

    def with_false_relation(spec):
        gens = make_rep(spec)
        if spec.algebra == algebra:
            gens.structure = gens.structure + [false]
        return gens

    monkeypatch.setattr(identities, "make_rep", with_false_relation)
    rep = check()
    assert not rep["ok"]
    assert [c["relation"] for c in rep["cases"] if not c["ok"]] == ["J0=0"]


# sha256 of the JSON list of remainder_terms over r = 1..4, n = 0..4, taken
# before the main sum moved onto the shared raising-power closed form
A7_REMAINDER_DIGEST = \
    "be5769bd619d4043ec7a9d3b042ea30e76d2f331d3dce4f35e8e3a1c3b6146dc"


def test_a7_rows_and_remainder():
    terms = []
    for r in (1, 2, 3, 4):
        for n in range(5):
            rep = verify_A7(r, n)
            assert rep["ok"], (r, n)
            terms.append(rep["remainder_terms"])
    assert verify_A7(1, 3)["remainder_terms"] == []
    digest = hashlib.sha256(json.dumps(terms).encode()).hexdigest()
    assert digest == A7_REMAINDER_DIGEST


A7_REGRESSION_FINGERPRINTS = {
    # (r, n) -> number of remainder monomials, frozen from a verified run
    # (r-dependent vanishing makes the counts uneven across r)
    (2, 1): 1, (2, 2): 2, (2, 3): 4, (2, 4): 6,
    (3, 1): 1, (3, 2): 3, (3, 3): 5, (3, 4): 8,
    (4, 1): 1, (4, 2): 3, (4, 3): 6, (4, 4): 9,
}


def test_a7_remainder_regression():
    for (r, n), count in A7_REGRESSION_FINGERPRINTS.items():
        rep = verify_A7(r, n)
        terms = rep["remainder_terms"]
        assert sum(len(monos) for _, monos in terms) == count, (r, n, terms)


@pytest.mark.parametrize("q", [2, Fraction(3, 2)])
def test_a8_a9_deformed(q):
    for n in range(5):
        assert verify_identity("A8", n=n, q=q)["ok"]
        assert verify_identity("A9", n=n, q=q)["ok"]


def test_a8_classical_limit():
    assert verify_identity("A8", n=3, q=1)["ok"]


def test_a10_embedding():
    for q in (2, Fraction(3, 2), 3):
        assert verify_identity("A10", n=2, q=q)["ok"]


@pytest.mark.parametrize("q", [2, Fraction(3, 2)])
def test_a12_a14_quantum_plane(q):
    for n in range(4):
        assert verify_identity("A12", n=n, q=q)["ok"]
        assert verify_identity("A14", n=n, q=q)["ok"]


def test_a12_classical_limit():
    assert verify_identity("A12", n=2, q=1)["ok"]


def test_qbinomial_appendix_convention():
    qp = QParam(2, base="squared")
    assert qbinomial(2, 1, qp) == Scalar(5)
    assert qbinomial(3, 1, QParam(1)) == Scalar(3)


def test_consistency_bridge_concrete_vs_abstract():
    for n in range(5):
        assert verify_identity("A1", n=n)["ok"] == verify_identity("A2", n=n)["ok"]
        assert verify_identity("A8", n=n, q=2)["ok"] == verify_identity("A9", n=n, q=2)["ok"]
