"""Decision results shared by all definability deciders."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .algebra import Algebra, Relation, Subisomorphism
from .terms import QfFormula, eval_formula


@dataclass(frozen=True)
class Definable:
    """Positive answer; `formula` is present when the strategy produces one."""

    formula: QfFormula | None = None

    @property
    def is_definable(self) -> bool:
        return True


@dataclass(frozen=True)
class NotDefinable:
    """Negative answer: a subisomorphism separating the target.

    witness_in lies in the target, witness_out does not, and gamma maps
    witness_in to witness_out pointwise.
    """

    witness_in: tuple[int, ...]
    witness_out: tuple[int, ...]
    gamma: Subisomorphism

    @property
    def is_definable(self) -> bool:
        return False


Decision = Definable | NotDefinable


def check_decision(alg: Algebra, rel: Relation, decision: Decision) -> None:
    """Verify a decision's certificate without trusting the decider that made it.

    A formula must hold exactly at the tuples of `rel`.  It is evaluated
    tuple by tuple with `eval_formula`, which shares no code with the
    column kernel that splitting builds formulas on.  The check is
    exhaustive when A**k has at most 20,000 tuples.  Above that it covers
    every tuple of `rel` and a seeded sample of 20,000 tuples of A**k, so
    a formula that holds somewhere outside `rel` can go unseen there.
    A counterexample's gamma must be a subisomorphism of `alg` that maps
    witness_in, a tuple of `rel`, pointwise to witness_out, a tuple
    outside it; that check is exact.  A positive answer without a formula
    carries no certificate and passes.  Raises ValueError naming the
    first defect found.
    """
    rel.check_over(alg)
    if isinstance(decision, Definable):
        if decision.formula is not None:
            _check_formula(alg, rel, decision.formula)
        return
    a, b, gamma = decision.witness_in, decision.witness_out, decision.gamma
    if a not in rel.tuples:
        raise ValueError(f"witness_in {a} is not in the relation")
    if b in rel.tuples:
        raise ValueError(f"witness_out {b} is in the relation")
    if not gamma.is_valid(alg):
        raise ValueError("gamma is not a subisomorphism of the algebra")
    if not gamma.domain_set.issuperset(a) or gamma.map_tuple(a) != b:
        raise ValueError(f"gamma does not map {a} to {b}")


def _check_formula(alg: Algebra, rel: Relation, phi: QfFormula) -> None:
    n, k, bound = alg.size, rel.arity, 20_000
    if n**k <= bound:
        tuples = itertools.product(range(n), repeat=k)
    else:
        codes = random.Random(0).sample(range(n**k), bound)
        tuples = itertools.chain(rel.tuples, (tuple(c // n**j % n for j in reversed(range(k))) for c in codes))
    for a in tuples:
        if eval_formula(alg, phi, a) != (a in rel.tuples):
            where = "misses" if a in rel.tuples else "holds at"
            raise ValueError(f"the formula's extension is not the relation: it {where} {a}")
