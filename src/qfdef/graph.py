"""Finite simple graphs, the graph-to-algebra reduction and the graph oracle.

`graph_star` turns a graph into an algebra with one binary operation in
which a relation over the vertices is definable exactly when it is
definable in the graph; `graph_oracle_definable` decides the graph side
by brute force, to check the reduction against the deciders.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .algebra import Algebra, Relation
from .oracle import DEFAULT_BUDGET, BudgetExceededError


@dataclass(frozen=True)
class Graph:
    """Finite simple graph: vertices 0..vertices-1, symmetric irreflexive edges."""

    vertices: int
    edges: frozenset[tuple[int, int]]  # stored with a < b

    def __post_init__(self):
        if type(self.vertices) is not int or self.vertices < 0:
            raise ValueError(f"vertex count must be an integer >= 0, got {self.vertices!r}")
        for a, b in self.edges:
            if type(a) is not int or type(b) is not int:  # bool is no vertex id either
                raise ValueError(f"edge ({a!r},{b!r}) has a vertex id that is not an integer")
            if a == b:
                raise ValueError(f"loop at vertex {a} not allowed")
            if not (0 <= a < b < self.vertices):
                raise ValueError(f"edge ({a},{b}) not canonical or out of range")

    @classmethod
    def of(cls, vertices: int, edges) -> "Graph":
        return cls(vertices, frozenset((min(a, b), max(a, b)) for a, b in edges))

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges


@dataclass(frozen=True)
class GraphStarEmbedding:
    """How graph vertices sit inside the derived algebra: vertex v is
    element v, and zero/one are the two fresh elements."""

    zero: int
    one: int


def graph_star(g: Graph) -> tuple[Algebra, GraphStarEmbedding]:
    """Algebra on the vertices plus two fresh elements 0-hat and 1-hat.

    The single binary operation sends (a, b) to 1-hat when (a, b) is an
    edge or a == b is one of the fresh elements, and to 0-hat otherwise.
    A relation over the vertices is definable in the graph exactly when
    it is definable in this algebra.
    """
    m = g.vertices
    zero, one = m, m + 1
    size = m + 2
    table = []
    for a in range(size):
        for b in range(size):
            if (a < m and b < m and g.has_edge(a, b)) or (a == b and a in (zero, one)):
                table.append(one)
            else:
                table.append(zero)
    return Algebra(size, [("f", 2, table)]), GraphStarEmbedding(zero, one)


def _graph_partial_maps(g: Graph, budget: int) -> Iterator[dict[int, int]]:
    verts = list(range(g.vertices))
    tried = 0
    for size in range(1, g.vertices + 1):
        for dom in itertools.combinations(verts, size):
            for img in itertools.permutations(verts, size):
                tried += 1
                if tried > budget:
                    raise BudgetExceededError(
                        f"more than {budget} candidate maps; raise the budget to continue"
                    )
                yield dict(zip(dom, img))


def graph_subisomorphisms(g: Graph, *, budget: int = DEFAULT_BUDGET) -> Iterator[dict[int, int]]:
    """All injective partial maps on vertices preserving edges both ways."""
    for m in _graph_partial_maps(g, budget):
        if all(
            g.has_edge(a, b) == g.has_edge(m[a], m[b])
            for a, b in itertools.combinations(m, 2)
        ):
            yield m


def graph_oracle_definable(g: Graph, rel: Relation, *, budget: int = DEFAULT_BUDGET) -> bool:
    """Brute-force graph-side definability; small graphs only."""
    for t in rel.tuples:  # Relation.check_over's rule: an int, and a vertex
        for v in t:
            if type(v) is not int or not 0 <= v < g.vertices:
                raise ValueError(f"tuple {t} has vertex {v!r} outside the graph's 0..{g.vertices - 1}")
    for gamma in graph_subisomorphisms(g, budget=budget):
        for a in sorted(rel.tuples):
            if all(x in gamma for x in a):
                if tuple(gamma[x] for x in a) not in rel.tuples:
                    return False
    return True
