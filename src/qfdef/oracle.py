"""Ground-truth brute force for definability.

Everything here exists to be obviously correct rather than fast: all
generated subuniverses are enumerated, all injective maps between
same-size subuniverses are tried and validated by a full table scan,
and a relation is declared definable exactly when no surviving map
moves one of its tuples out of it.  The relation is checked as given:
nothing here decomposes it or shares the deciders' preprocessing, so a
fault there cannot hide from the oracle.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .algebra import Algebra, Relation, Subisomorphism, sg
from .decision import Decision, Definable, NotDefinable
from .terms import FALSE

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """Enumeration grew past the configured bound; no answer was produced."""


def enumerate_subuniverses(alg: Algebra, max_generators: int) -> list[frozenset[int]]:
    """All subuniverses generated by at most `max_generators` elements,
    ordered by (size, sorted elements)."""
    if max_generators < 1:
        raise ValueError("max_generators must be >= 1")
    found: set[frozenset[int]] = set()
    for j in range(1, max_generators + 1):
        for combo in itertools.combinations(range(alg.size), j):
            found.add(sg(alg, combo))
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def enumerate_subisomorphisms(
    alg: Algebra, k: int, *, budget: int = DEFAULT_BUDGET
) -> Iterator[Subisomorphism]:
    """All isomorphisms between pairs of k-generated subuniverses.

    Candidate maps are produced in a reproducible order (subuniverse pairs
    by size then elements, images in lexicographic order) and each is
    validated by a full table scan before being yielded.
    """
    subs = enumerate_subuniverses(alg, k)
    tried = 0
    for s1 in subs:
        dom = sorted(s1)
        for s2 in subs:
            if len(s2) != len(s1):
                continue
            for img in itertools.permutations(sorted(s2)):
                tried += 1
                if tried > budget:
                    raise BudgetExceededError(
                        f"more than {budget} candidate maps; raise the budget to continue"
                    )
                gamma = Subisomorphism(dom, img)
                if gamma.is_valid(alg):
                    yield gamma


def oracle_definable(alg: Algebra, rel: Relation, *, budget: int = DEFAULT_BUDGET) -> Decision:
    """Decide definability directly on the relation, with no preprocessing.

    Enumerates isomorphisms between subuniverses generated by up to
    arity-many elements and checks that each preserves the raw tuple set.
    Returns a counterexample map and witness pair in the negative case.
    Intended for small inputs only.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    rel.check_over(alg)
    if not rel.tuples:
        return Definable(FALSE)
    for gamma in enumerate_subisomorphisms(alg, rel.arity, budget=budget):
        dom = gamma.domain_set
        for a in sorted(rel.tuples):
            if not all(x in dom for x in a):
                continue
            ga = gamma.map_tuple(a)
            if ga not in rel.tuples:
                return NotDefinable(a, ga, gamma)
    return Definable(None)
