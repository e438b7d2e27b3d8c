"""Target decomposition: strip repeated entries out of a relation.

A k-tuple carries two independent pieces of information: which positions
hold equal entries (its pattern) and the sequence of distinct values in
first-appearance order (its squash).  Grouping a target relation by
pattern and squashing each group yields smaller repetition-free targets
whose joint definability is equivalent to the original's, and whose
defining formulas recombine into one for the original relation.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Sequence

from .algebra import And, Eq, Not, Or, QfFormula, Relation, Var, formula_variables, substitute_formula


@dataclass(frozen=True)
class Pattern:
    """Equality pattern of tuple positions, in canonical block form."""

    blocks: tuple[tuple[int, ...], ...]

    @property
    def arity(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def width(self) -> int:
        return len(self.blocks)

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(b[0] for b in self.blocks)

    def to_json(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]


def pattern(a: Sequence[int]) -> Pattern:
    """Positions i, j share a block exactly when a[i] == a[j]."""
    if not a:
        raise ValueError("empty tuple has no pattern")
    blocks: dict[int, list[int]] = {}  # by value, in order of first appearance
    for i, x in enumerate(a):
        blocks.setdefault(x, []).append(i)
    return Pattern(tuple(map(tuple, blocks.values())))


def squash(a: Sequence[int]) -> tuple[int, ...]:
    """Drop every entry equal to a prior entry, keeping first occurrences."""
    if not a:
        raise ValueError("cannot squash an empty tuple")
    return tuple(dict.fromkeys(a))


def expand(pat: Pattern, squashed: Sequence[int]) -> tuple[int, ...]:
    """Inverse of squash for tuples of the given pattern."""
    if len(squashed) != pat.width:
        raise ValueError(f"tuple of length {len(squashed)} does not fit pattern width {pat.width}")
    out = [0] * pat.arity
    for j, block in enumerate(pat.blocks):
        for i in block:
            out[i] = squashed[j]
    return tuple(out)


@dataclass(frozen=True)
class BundleTarget:
    pattern: Pattern
    tuples: frozenset[tuple[int, ...]]

    @property
    def arity(self) -> int:
        return self.pattern.width


@dataclass(frozen=True)
class TargetBundle:
    """Decomposition of one relation into repetition-free per-pattern targets.

    Targets are ordered by (width ascending, canonical block order) so that
    membership vectors are comparable across runs.
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
    groups: dict[Pattern, set[tuple[int, ...]]] = {}
    if plain:
        groups[Pattern(tuple((i,) for i in range(k)))] = plain
    # a tuple's pattern follows from where each entry first appears, a C-level key
    by_shape: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for a in repeated:
        by_shape.setdefault(tuple(map(a.index, a)), set()).add(squash(a))
    for shape, squashed in by_shape.items():
        groups[pattern(shape)] = squashed
    ordered = sorted(groups, key=lambda p: (p.width, p.blocks))
    targets = tuple(BundleTarget(p, frozenset(groups[p])) for p in ordered)
    spec = tuple(sorted({t.arity for t in targets}))
    return TargetBundle(targets, spec)


def recombine(pat: Pattern, phi: QfFormula) -> QfFormula:
    """Lift a formula over the squashed positions back to the pattern's arity.

    Variables x0..x{w-1} are renamed to the pattern's representative
    positions, equalities tie each block together, and disequalities
    separate the representatives, so the result holds exactly at the
    tuples whose pattern is `pat` and whose squash satisfies `phi`.
    """
    bad = [i for i in formula_variables(phi) if i >= pat.width]
    if bad:
        raise ValueError(f"formula uses x{max(bad)} but the pattern has width {pat.width}")
    reps = pat.representatives
    # representatives 0..w-1 rename every variable to itself
    lifted = phi if reps == tuple(range(pat.width)) else substitute_formula(phi, dict(enumerate(reps)))
    literals: list[QfFormula] = []
    for block in pat.blocks:
        first = block[0]
        for i in block[1:]:
            literals.append(Eq(Var(first), Var(i)))
    for i, j in itertools.combinations(range(pat.width), 2):
        literals.append(Not(Eq(Var(reps[i]), Var(reps[j]))))
    if not literals:
        return lifted
    return And((lifted, *literals))


def assemble(formulas: Sequence[QfFormula]) -> QfFormula:
    """Disjunction of the per-pattern formulas; empty input gives the empty Or."""
    return formulas[0] if len(formulas) == 1 else Or(formulas)
