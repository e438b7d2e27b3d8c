"""Isomorphism types of tuples: canonical key plus generated universe.

The closure reads whole operation-table rows round by round, in a fixed
canonical order, and numbers the values by first appearance, their
rank.  The key lists the rank of the value at every closure position:
the ranks of the tuple's own entries, then the operation tables of sg(a)
relabelled by rank, entry by entry in the canonical application order.
It is a canonical form in the sense of McKay and Piperno ("Practical
graph isomorphism II", 2014).  Two tuples get the same key exactly when
they are connected by an isomorphism between the substructures they
generate, and in that case the ordered universes line up pointwise.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass
from typing import Sequence

from .algebra import Algebra, applications, prefix_rows


@dataclass(frozen=True)
class IsoSignature:
    """Canonical type of a tuple.

    key: the rank of the value at each closure position, ranks numbering
        the values by first appearance.
    universe: the generated subuniverse in first-appearance order, so
        `universe[r]` is the value of rank r.
    depth: number of closure passes executed before no new element appeared.
    """

    key: tuple[int, ...]
    universe: tuple[int, ...]
    depth: int

    @property
    def partition(self) -> tuple[tuple[int, ...], ...]:
        """Blocks of value-coincidence positions, sorted by minimum index
        with indices ascending inside each block: block r holds the
        positions of rank r, so it carries the same information as `key`."""
        blocks: list[list[int]] = [[] for _ in self.universe]
        for i, r in enumerate(self.key):
            blocks[r].append(i)
        return tuple(map(tuple, blocks))


def iso_type(alg: Algebra, a: Sequence[int]) -> IsoSignature:
    """Canonical isomorphism type of `a`; pure and deterministic.

    Closure position i holds the i-th value produced: the entries of `a`,
    then each round of `applications` over the values found so far, up to
    the first round that adds no new value.  A round is semi-naive
    (Bancilhon and Ramakrishnan, 1986) and reads whole table rows: per
    arity, `prefix_rows` gives the rows with the values each is read at.
    Ranks are looked up once, at the end: a value keeps its first rank.
    """
    a = tuple(a)
    if not a:
        raise ValueError("cannot compute the type of an empty tuple")
    n = alg.size
    if min(a) < 0 or max(a) >= n:
        raise ValueError(f"tuple {a} has an entry outside 0..{n - 1}")
    rank = [-1] * n
    universe: list[int] = []
    values = list(a)  # the value at every closure position
    lo = 0  # where the last round's values start
    for depth in itertools.count():
        known = len(universe)
        for v in dict.fromkeys(values[lo:]):
            if rank[v] < 0:
                rank[v] = len(universe)
                universe.append(v)
        if len(universe) == known:
            break
        # gathered in full before recording, so the round's base is `universe` as it stands now
        lo = len(values)
        for r in alg.arities:
            runs = prefix_rows(universe, known, r, n)
            for op in alg.ops_of_arity(r):
                table = op.table
                for rows, read in runs:
                    for row in rows:
                        values += read(table[row])
    key = operator.itemgetter(*values)(rank) if len(values) > 1 else (rank[values[0]],)
    return IsoSignature(key=key, universe=tuple(universe), depth=depth)


def iso_type_terms(alg: Algebra, a: Sequence[int]) -> tuple[IsoSignature, tuple[str, ...]]:
    """Trace variant: also the term evaluated at each closure position.

    The terms are rebuilt by replaying the closure's rounds: the positions
    first appearing in a round are the partition's block minima that fall
    inside it, and they feed the next round's `applications`.
    """
    sig = iso_type(alg, a)
    firsts = [block[0] for block in sig.partition]
    terms = [f"x{i}" for i in range(len(a))]
    lo = 0
    for _ in range(sig.depth):
        hi = bisect.bisect_left(firsts, len(terms))
        for op, index_tuples in applications(alg, firsts[:hi], set(firsts[lo:hi])):
            for lt in index_tuples:
                terms.append(op.symbol + "(" + ",".join(terms[l] for l in lt) + ")")
        lo = hi
    return sig, tuple(terms)


class IsoTypeCache:
    """Optional per-algebra memo for iso_type, keyed by the tuple itself."""

    def __init__(self, alg: Algebra):
        self.alg = alg
        self._memo: dict[tuple[int, ...], IsoSignature] = {}

    def get(self, a: Sequence[int]) -> IsoSignature:
        key = tuple(a)
        sig = self._memo.get(key)
        if sig is None:
            sig = iso_type(self.alg, key)
            self._memo[key] = sig
        return sig


class Subisomorphism:
    """An injective map between subuniverses preserving all operations.

    Stored as parallel domain/image tuples: domain[j] maps to image[j].
    """

    __slots__ = ("domain", "image", "_map")

    def __init__(self, domain: Sequence[int], image: Sequence[int]):
        self.domain = tuple(domain)
        self.image = tuple(image)
        if len(self.domain) != len(self.image):
            raise ValueError("domain and image lengths differ")
        self._map = dict(zip(self.domain, self.image))
        if len(self._map) != len(self.domain) or len(set(self.image)) != len(self.image):
            raise ValueError("mapping is not injective")

    def apply(self, x: int) -> int:
        return self._map[x]

    def map_tuple(self, t: Sequence[int]) -> tuple[int, ...]:
        m = self._map
        return tuple(m[x] for x in t)

    @property
    def domain_set(self) -> frozenset[int]:
        return frozenset(self.domain)

    def inverse(self) -> "Subisomorphism":
        return Subisomorphism(self.image, self.domain)

    def is_valid(self, alg: Algebra) -> bool:
        """Full table scan: domain closed under every operation and the
        operation graphs are preserved pointwise."""
        if not self.domain:
            return False
        dom = sorted(self._map)
        m = self._map
        for op in alg.ops:
            for args in itertools.product(dom, repeat=op.arity):
                v = op.value(args)
                if v not in m:
                    return False
                if m[v] != op.value([m[x] for x in args]):
                    return False
        return True

    def __eq__(self, other):
        return isinstance(other, Subisomorphism) and other._map == self._map

    def __hash__(self):
        return hash(frozenset(self._map.items()))

    def __repr__(self):
        pairs = ", ".join(f"{d}->{i}" for d, i in zip(self.domain, self.image))
        return f"Subisomorphism({pairs})"

    def to_json(self) -> dict:
        return {"domain": list(self.domain), "image": list(self.image)}


def subiso_from_signatures(
    alg: Algebra,
    a: Sequence[int],
    sig_a: IsoSignature,
    b: Sequence[int],
    sig_b: IsoSignature,
) -> Subisomorphism | None:
    """The canonical isomorphism sg(a) -> sg(b) when the types coincide.

    Returns None when the keys differ.  The map pairs the two universes
    positionally and sends a to b pointwise.
    """
    if sig_a.key != sig_b.key:
        return None
    gamma = Subisomorphism(sig_a.universe, sig_b.universe)
    if gamma.map_tuple(tuple(a)) != tuple(b):
        raise AssertionError("the canonical isomorphism does not send a to b")
    return gamma
