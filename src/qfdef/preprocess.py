"""Target decomposition: strip repeated entries out of a relation.

A k-tuple carries two independent pieces of information: the sequence of
its distinct values in first-appearance order (its squash) and the rank
of each entry in that sequence (its pattern), a tuple of ints that gives
the tuple back by indexing, `expand(pattern(a), squash(a)) == a`.
Grouping a target relation by pattern and squashing each group yields
smaller repetition-free targets whose joint definability is equivalent
to the original's, and whose defining formulas recombine into one for
the original relation.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Sequence

from .algebra import Relation
from .terms import And, Eq, Not, Or, QfFormula, Var, formula_variables, substitute_formula


def pattern(a: Sequence[int]) -> tuple[int, ...]:
    """The rank of each entry of `a` among its distinct values in order of
    first appearance: positions i, j share a rank exactly when a[i] == a[j]."""
    return tuple(map(squash(a).index, a))


def blocks(pat: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The positions of each rank in turn, the pattern's equality blocks."""
    out: list[list[int]] = [[] for _ in range(max(pat) + 1)]
    for i, r in enumerate(pat):
        out[r].append(i)
    return tuple(map(tuple, out))


def squash(a: Sequence[int]) -> tuple[int, ...]:
    """Drop every entry equal to a prior entry, keeping first occurrences."""
    if not a:
        raise ValueError("cannot squash an empty tuple")
    return tuple(dict.fromkeys(a))


def expand(pat: Sequence[int], squashed: Sequence[int]) -> tuple[int, ...]:
    """Inverse of squash for tuples of the given pattern."""
    if len(squashed) != max(pat) + 1:
        raise ValueError(f"tuple of length {len(squashed)} does not fit pattern width {max(pat) + 1}")
    return tuple(map(squashed.__getitem__, pat))


@dataclass(frozen=True)
class BundleTarget:
    pattern: tuple[int, ...]
    tuples: frozenset[tuple[int, ...]]

    @property
    def arity(self) -> int:
        return max(self.pattern) + 1


@dataclass(frozen=True)
class TargetBundle:
    """Decomposition of one relation into repetition-free per-pattern targets.

    Targets are ordered by (width ascending, `blocks` of their rank-tuple
    pattern) so that membership vectors and disjuncts keep one order.
    """

    targets: tuple[BundleTarget, ...]
    spec: tuple[int, ...]


def decompose(rel: Relation, n: int | None = None) -> TargetBundle:
    """Group `rel` by equality pattern into repetition-free targets.  Given
    the universe size `n`, the tuples with a repeated entry are `rel`'s meet
    with the tuples of A**k where a[i] == a[j], for each pair i < j, unless
    those outnumber `rel`; otherwise each tuple of `rel` is checked."""
    k, tuples = rel.arity, rel.tuples
    pairs = list(itertools.combinations(range(k), 2))
    if n is not None and len(pairs) * n ** (k - 1) <= len(tuples):
        # entry j of a generated tuple repeats entry i of a (k-1)-tuple
        spreads = (operator.itemgetter(*range(j), i, *range(j, k - 1)) for i, j in pairs)
        space = range(n)
        repeated = set().union(*(tuples.intersection(map(s, itertools.product(space, repeat=k - 1))) for s in spreads))
        plain = tuples - repeated
    else:
        plain = {a for a in tuples if len(set(a)) == k}
        repeated = tuples - plain
    # a tuple without repeated entries is its own squash, under the identity pattern
    groups: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    if plain:
        groups[tuple(range(k))] = plain
    for a in repeated:  # one squash gives the target tuple and, indexed, the pattern
        squashed = squash(a)
        groups.setdefault(tuple(map(squashed.index, a)), set()).add(squashed)
    ordered = sorted(groups, key=lambda p: (max(p), blocks(p)))
    targets = tuple(BundleTarget(p, frozenset(groups[p])) for p in ordered)
    spec = tuple(sorted({t.arity for t in targets}))
    return TargetBundle(targets, spec)


def recombine(pat: Sequence[int], phi: QfFormula) -> QfFormula:
    """Lift a formula over the squashed positions back to the pattern's arity.

    Variables x0..x{w-1} are renamed to the first position of each rank,
    equalities tie each block together, and disequalities separate those
    representatives, so the result holds exactly at the tuples whose
    pattern is `pat` and whose squash satisfies `phi`.
    """
    pat_blocks = blocks(pat)
    w = len(pat_blocks)
    bad = [i for i in formula_variables(phi) if i >= w]
    if bad:
        raise ValueError(f"formula uses x{max(bad)} but the pattern has width {w}")
    reps = tuple(b[0] for b in pat_blocks)
    # representatives 0..w-1 rename every variable to itself
    lifted = phi if reps == tuple(range(w)) else substitute_formula(phi, dict(enumerate(reps)))
    literals: list[QfFormula] = []
    for block in pat_blocks:
        first = block[0]
        for i in block[1:]:
            literals.append(Eq(Var(first), Var(i)))
    for i, j in itertools.combinations(range(w), 2):
        literals.append(Not(Eq(Var(reps[i]), Var(reps[j]))))
    if not literals:
        return lifted
    return And((lifted, *literals))


def assemble(formulas: Sequence[QfFormula]) -> QfFormula:
    """Disjunction of the per-pattern formulas; empty input gives the empty Or."""
    return formulas[0] if len(formulas) == 1 else Or(formulas)
