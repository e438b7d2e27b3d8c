"""Isomorphism types of tuples: canonical partition plus generated universe.

The computation closes the tuple under the fundamental operations in a
fixed canonical order, recording for every produced value the positions
at which it reappears.  Two tuples get the same partition exactly when
they are connected by an isomorphism between the substructures they
generate, and in that case the ordered universes line up pointwise.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Sequence

from .algebra import Algebra, applications


@dataclass(frozen=True)
class IsoSignature:
    """Canonical type of a tuple.

    partition: blocks of value-coincidence positions, sorted by minimum
        index with indices ascending inside each block.
    universe: the generated subuniverse in first-appearance order.
    depth: number of closure passes executed before no new element appeared.
    """

    partition: tuple[tuple[int, ...], ...]
    universe: tuple[int, ...]
    depth: int


def iso_type(alg: Algebra, a: Sequence[int]) -> IsoSignature:
    """Canonical isomorphism type of `a`; pure and deterministic.

    Closure position i holds the i-th value produced: the entries of `a`,
    then each round of `applications` over the first appearances so far,
    up to the first round that adds no new value.
    """
    a = tuple(a)
    if not a:
        raise ValueError("cannot compute the type of an empty tuple")
    values: list[int] = []
    blocks: list[list[int]] = []
    block_of_value: dict[int, int] = {}
    firsts: list[int] = []  # first-appearance indices, always increasing
    produced: Sequence[int] = a
    for depth in itertools.count():
        known = len(firsts)
        for v in produced:
            i = len(values)
            values.append(v)
            bi = block_of_value.get(v)
            if bi is None:
                block_of_value[v] = len(blocks)
                blocks.append([i])
                firsts.append(i)
            else:
                blocks[bi].append(i)
        if len(firsts) == known:
            break
        # listed in full before recording, so the round's base is `firsts` as it stands now
        produced = [
            op.value([values[l] for l in lt])
            for op, index_tuples in applications(alg, firsts, set(firsts[known:]))
            for lt in index_tuples
        ]
    # first-appearance indices must point at pairwise distinct values
    assert len(block_of_value) == len(firsts)
    return IsoSignature(
        partition=tuple(tuple(b) for b in blocks),
        universe=tuple(values[j] for j in firsts),
        depth=depth,
    )


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

    Returns None when the partitions differ.  The map pairs the two
    universes positionally and sends a to b pointwise.
    """
    if sig_a.partition != sig_b.partition:
        return None
    gamma = Subisomorphism(sig_a.universe, sig_b.universe)
    if gamma.map_tuple(tuple(a)) != tuple(b):
        raise AssertionError("the canonical isomorphism does not send a to b")
    return gamma
