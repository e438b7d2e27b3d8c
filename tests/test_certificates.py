"""`check_decision`: independent verification of both deciders' certificates."""

import random

import pytest

from qfdef import (
    App,
    Definable,
    Eq,
    NotDefinable,
    Relation,
    Subisomorphism,
    Var,
    check_decision,
    extension,
    gen_abelian_group,
    gen_boolean_algebra,
    gen_random_formula,
    merging_decide,
    splitting_decide,
)

from qfdef.columns import TermColumns

from conftest import plant_negative


def test_rejects_each_defect(diamond, diamond_order, diamond_rprime):
    meet = App("meet", (Var(0), Var(1)))
    with pytest.raises(ValueError, match="extension"):
        check_decision(diamond, diamond_order, Definable(Eq(meet, Var(1))))
    # a formula-less positive answer carries nothing to check
    check_decision(diamond, diamond_rprime, Definable(None))
    # the automorphism swapping u (1) and u' (2) maps (0, 1) in R' to (0, 2) in R'
    swap = Subisomorphism((0, 1, 2, 3), (0, 2, 1, 3))
    with pytest.raises(ValueError, match="witness_out"):
        check_decision(diamond, diamond_rprime, NotDefinable((0, 1), (0, 2), swap))
    with pytest.raises(ValueError, match="witness_in"):
        check_decision(diamond, diamond_rprime, NotDefinable((1, 0), (0, 1), swap))
    with pytest.raises(ValueError, match="does not map"):
        check_decision(diamond, diamond_rprime, NotDefinable((0, 1), (1, 0), swap))
    # swapping bottom and u is no subisomorphism
    with pytest.raises(ValueError, match="subisomorphism"):
        check_decision(diamond, diamond_rprime, NotDefinable((0, 1), (1, 0), Subisomorphism((0, 1, 2, 3), (1, 0, 2, 3))))
    # meet(u, u') is bottom, outside the domain {u, u'}; and an empty map is no subisomorphism
    uu = Relation.of(2, [(1, 2)])
    for gamma in (Subisomorphism((1, 2), (2, 1)), Subisomorphism((), ())):
        with pytest.raises(ValueError, match="subisomorphism"):
            check_decision(diamond, uu, NotDefinable((1, 2), (2, 1), gamma))
    # entries outside the universe: read past the tables' end, or wrapped round by a negative index
    three = Relation.of(1, [(3,)])
    for out, gamma in (
        ((7,), Subisomorphism((3,), (7,))),
        ((0,), Subisomorphism((3, 99), (0, 1))),
        ((-1,), Subisomorphism((3,), (-1,))),
    ):
        with pytest.raises(ValueError, match="subisomorphism"):
            check_decision(diamond, three, NotDefinable((3,), out, gamma))
    # a gamma whose domain misses a witness entry
    with pytest.raises(ValueError, match="does not map"):
        check_decision(diamond, Relation.of(2, [(0, 3)]), NotDefinable((0, 3), (3, 0), Subisomorphism((0,), (0,))))


@pytest.mark.parametrize(
    "alg",
    [gen_boolean_algebra(5), gen_abelian_group((2, 4, 4))],
    ids=["boolean-32", "abelian-32"],
)
def test_certificates_of_arity_3_planted_negatives(alg):
    # 29,760 repetition-free triples: far past what the brute-force oracle decides
    for seed in range(3):
        rel = extension(alg, gen_random_formula(alg, 3, seed=seed), 3)
        check_decision(alg, rel, splitting_decide(alg, rel))
        planted = plant_negative(alg, rel, random.Random(seed))
        assert planted is not None
        for decide in (splitting_decide, merging_decide):
            d = decide(alg, planted)
            assert not d.is_definable, decide.__name__
            check_decision(alg, planted, d)


def test_formula_check_does_not_trust_the_column_kernel(monkeypatch):
    # a kernel whose agree() says every two terms agree everywhere must not
    # change what check_decision accepts
    for alg, k in ((gen_boolean_algebra(2), 2), (gen_abelian_group((2, 4, 4)), 3)):
        rel = extension(alg, gen_random_formula(alg, k, seed=1), k)
        right = splitting_decide(alg, rel)
        wrong = Definable(Eq(Var(0), Var(k - 1)))
        monkeypatch.setattr(TermColumns, "agree", lambda self, t, s: self.full)
        assert len(extension(alg, wrong.formula, k)) == alg.size**k  # the kernel is fooled
        check_decision(alg, rel, right)
        with pytest.raises(ValueError, match="extension"):
            check_decision(alg, rel, wrong)
        monkeypatch.undo()
