"""Ground-truth brute force for definability, plus a graph-based generator.

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
import json
from dataclasses import dataclass
from typing import Iterator

from .algebra import FALSE, Algebra, Relation, sg
from .decision import Decision, Definable, NotDefinable
from .isotype import Subisomorphism

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


# ---------------------------------------------------------------------------
# Graphs and the graph-to-algebra reduction
# ---------------------------------------------------------------------------

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


def graph_to_json(g: Graph) -> dict:
    return {"vertices": g.vertices, "edges": sorted(list(e) for e in g.edges)}


def graph_from_json(doc: dict) -> Graph:
    if type(doc) is not dict:
        raise ValueError(f"malformed graph document: expected an object, got {type(doc).__name__}")
    try:
        vertices, edges = doc["vertices"], doc["edges"]
    except KeyError as e:
        raise ValueError(f"malformed graph document: missing {e}") from None
    if type(edges) is not list:
        raise ValueError("malformed graph document: edges must be a list")
    # bool is no vertex id either
    if not all(type(e) is list and len(e) == 2 and type(e[0]) is type(e[1]) is int for e in edges):
        raise ValueError("malformed graph document: an edge is not a pair of vertex ids")
    return Graph.of(vertices, edges)


def load_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return graph_from_json(json.load(fh))


def save_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_json(g), fh, indent=2)
        fh.write("\n")


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
