"""Seeded input generators: benchmark algebra families, graphs, formulas.

All randomness goes through `random.Random(seed)` (Mersenne Twister), so
a seed fully determines the generated object.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from .algebra import Algebra
from .graph import Graph
from .terms import And, App, Eq, Not, Or, QfFormula, Term, Var

DEFAULT_SIGNATURE: tuple[tuple[str, int], ...] = (("f", 2), ("g", 3))


def gen_random_algebra(
    n: int,
    signature: Sequence[tuple[str, int]] = DEFAULT_SIGNATURE,
    seed: int = 0,
) -> Algebra:
    """Algebra with uniformly random operation tables over 0..n-1."""
    if n < 1:
        raise ValueError(f"size must be >= 1, got {n}")
    rng = random.Random(seed)
    ops = []
    for symbol, arity in signature:
        table = [rng.randrange(n) for _ in range(n**arity)]
        ops.append((symbol, arity, table))
    return Algebra(n, ops)


def gen_abelian_group(factors: Sequence[int]) -> Algebra:
    """Direct product of cyclic groups, as one binary operation 'add'.

    Elements are mixed-radix encodings of the component tuples.
    """
    factors = tuple(factors)
    if not factors or any(f < 2 for f in factors):
        raise ValueError("each cyclic factor must be >= 2")
    # mixed radix, first factor most significant: a table over the factors
    # after f, of m elements, grows to the one over f and those after it
    table, m = [0], 1
    for f in reversed(factors):
        table = [
            ((x1 + x2) % f) * m + table[r1 * m + r2]
            for x1 in range(f)
            for r1 in range(m)
            for x2 in range(f)
            for r2 in range(m)
        ]
        m *= f
    return Algebra(m, [("add", 2, table)])


def gen_boolean_algebra(atoms: int) -> Algebra:
    """Boolean algebra of subsets of `atoms` generators, as bitmasks.

    Operations, in order: meet, join, complement.
    """
    if atoms < 1:
        raise ValueError(f"need at least one atom, got {atoms}")
    n = 2**atoms
    mask = n - 1
    meet = [a & b for a in range(n) for b in range(n)]
    join = [a | b for a in range(n) for b in range(n)]
    comp = [mask & ~a for a in range(n)]
    names = ["".join("1" if a >> (atoms - 1 - i) & 1 else "0" for i in range(atoms)) for a in range(n)]
    return Algebra(n, [("meet", 2, meet), ("join", 2, join), ("comp", 1, comp)], element_names=names)


def diamond_lattice() -> Algebra:
    """The four-element lattice with two incomparable middle elements.

    Elements: bottom, u, u', top; operations meet then join.
    """
    meet = [a & b for a in range(4) for b in range(4)]
    join = [a | b for a in range(4) for b in range(4)]
    return Algebra(4, [("meet", 2, meet), ("join", 2, join)], element_names=("⊥", "u", "u'", "⊤"))


def gen_random_graph(vertices: int, edge_prob: float = 0.5, seed: int = 0) -> Graph:
    """Random simple graph with independently sampled edges."""
    if vertices < 1:
        raise ValueError(f"need at least one vertex, got {vertices}")
    rng = random.Random(seed)
    edges = [
        (a, b)
        for a, b in itertools.combinations(range(vertices), 2)
        if rng.random() < edge_prob
    ]
    return Graph.of(vertices, edges)


def gen_random_formula(
    alg: Algebra,
    k: int,
    depth_bound: int = 2,
    size_bound: int = 8,
    seed: int = 0,
) -> QfFormula:
    """Random quantifier-free formula over x0..x{k-1}.

    Its extension serves as a guaranteed-definable benchmark target.
    """
    if k < 1:
        raise ValueError(f"arity must be >= 1, got {k}")
    if depth_bound < 0 or size_bound < 1:
        raise ValueError("bounds must be positive")
    rng = random.Random(seed)

    def term(budget: int) -> Term:
        if budget == 0 or not alg.ops or rng.random() < 0.3:
            return Var(rng.randrange(k))
        op = alg.ops[rng.randrange(len(alg.ops))]
        return App(op.symbol, tuple(term(budget - 1) for _ in range(op.arity)))

    def atom() -> QfFormula:
        a = Eq(term(depth_bound), term(depth_bound))
        return Not(a) if rng.random() < 0.3 else a

    phi = atom()
    for _ in range(rng.randrange(size_bound)):
        nxt = atom()
        phi = And((phi, nxt)) if rng.random() < 0.5 else Or((phi, nxt))
    return phi
