"""Definability by orbit merging.

Every repetition-free tuple of a relevant arity starts in its own orbit,
annotated with its membership vector against the decomposed targets.
Tuples are processed depth-first along the tree of subuniverses; whenever
two tuples turn out to share an isomorphism type, the connecting
subisomorphism is used to merge every pair of orbits it links.  The
target is definable exactly when no merge ever has to join orbits with
different membership vectors; the first offending pair, together with the
map connecting it, is the counterexample.

This strategy never produces a defining formula.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Callable, Sequence

from .algebra import FALSE, Algebra, Relation
from .decision import Decision, Definable, NotDefinable
from .isotype import Subisomorphism, iso_type
from .preprocess import TargetBundle, decompose, expand, rel_type

Trace = Callable[[str], None]


class Orbit:
    __slots__ = ("block", "rel_type", "type", "universe", "universe_donor")

    def __init__(self, block: set, rt: tuple[bool, ...]):
        self.block = block
        self.rel_type = rt
        self.type: tuple[tuple[int, ...], ...] | None = None
        self.universe: tuple[int, ...] | None = None
        self.universe_donor: tuple[int, ...] | None = None  # debug bookkeeping

    @property
    def tagged(self) -> bool:
        return self.type is not None


class OrbitStore:
    """Per-arity orbit partitions with a direct tuple-to-orbit index.

    Merges move the smaller block into the larger one.  Tagged types are
    indexed per arity, which both speeds up lookups and enforces that a
    type is never carried by two distinct orbits.
    """

    def __init__(self, alg: Algebra, bundle: TargetBundle, *, debug: bool = False):
        self.alg = alg
        self.bundle = bundle
        self.spec = bundle.spec
        self.debug = debug
        self.orbits: dict[int, set[Orbit]] = {}
        self.handle: dict[tuple[int, ...], Orbit] = {}
        self.tagged_index: dict[int, dict[tuple, Orbit]] = {k: {} for k in self.spec}
        self.conflict: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        for k in self.spec:
            orbits_k: set[Orbit] = set()
            for a in itertools.permutations(range(alg.size), k):
                o = Orbit({a}, rel_type(a, bundle))
                orbits_k.add(o)
                self.handle[a] = o
            self.orbits[k] = orbits_k

    def orbit(self, a: tuple[int, ...]) -> Orbit:
        return self.handle[a]

    def find_tagged(self, arity: int, type_: tuple) -> Orbit | None:
        return self.tagged_index[arity].get(type_)

    def tag_orbit(
        self, a: tuple[int, ...], type_: tuple, universe: tuple[int, ...]
    ) -> None:
        o = self.handle[a]
        if o.tagged:
            assert o.type == type_, "orbit retagged with a different type"
            return
        existing = self.tagged_index[len(a)].get(type_)
        assert existing is None, "type already carried by another orbit"
        o.type = type_
        o.universe = universe
        o.universe_donor = a
        self.tagged_index[len(a)][type_] = o
        if self.debug:
            self._check_orbit(o, len(a))

    def merge(self, first: Orbit, second: Orbit, arity: int) -> Orbit:
        """Join two distinct orbits of equal membership vector.

        The annotation of the first orbit wins when present, otherwise the
        second's; at most one of the two can be tagged.
        """
        assert first is not second
        assert first.rel_type == second.rel_type
        assert not (first.tagged and second.tagged), "two tagged orbits may never merge"
        if first.tagged:
            t, u, donor = first.type, first.universe, first.universe_donor
        elif second.tagged:
            t, u, donor = second.type, second.universe, second.universe_donor
        else:
            t, u, donor = None, None, None
        big, small = (first, second) if len(first.block) >= len(second.block) else (second, first)
        big.block |= small.block
        for tup in small.block:
            self.handle[tup] = big
        self.orbits[arity].discard(small)
        big.type, big.universe, big.universe_donor = t, u, donor
        if t is not None:
            self.tagged_index[arity][t] = big
        if self.debug:
            self._check_orbit(big, arity)
            self._check_partition(arity)
        return big

    # -- debug invariant suite ------------------------------------------------

    def _check_orbit(self, o: Orbit, arity: int) -> None:
        for t in o.block:
            assert rel_type(t, self.bundle) == o.rel_type, "membership vector drift in a block"
        if o.tagged:
            donor_sig = iso_type(self.alg, o.universe_donor)
            assert donor_sig.universe == o.universe, "stored universe does not match its donor"
            sample = sorted(o.block)[: 2]
            for t in sample:
                assert iso_type(self.alg, t).partition == o.type, "tag differs from a member's type"

    def _check_partition(self, arity: int) -> None:
        total = sum(len(o.block) for o in self.orbits[arity])
        assert total == math.perm(self.alg.size, arity), "orbit blocks no longer partition the tuple space"
        for o in self.orbits[arity]:
            for t in o.block:
                assert self.handle[t] is o, "stale orbit handle"

    def check_all_known(self, sub: frozenset[int]) -> None:
        for k in self.spec:
            for a in itertools.permutations(sorted(sub), k):
                assert self.handle[a].tagged, f"tuple {a} left untyped on a closed subuniverse"


def try_merge_orbits(gamma: Subisomorphism, store: OrbitStore) -> bool:
    """Merge the orbits of every pair (a, gamma a) over gamma's domain.

    Returns False the moment a merge would join orbits with different
    membership vectors; the offending pair is left in store.conflict.
    """
    dom = sorted(gamma.domain)
    for k in store.spec:
        for a in itertools.permutations(dom, k):
            ga = gamma.map_tuple(a)
            first = store.handle[a]
            second = store.handle[ga]
            if first is second:
                continue
            if first.rel_type != second.rel_type:
                store.conflict = (a, ga)
                return False
            store.merge(first, second, k)
    return True


class _StackEntry:
    __slots__ = ("sub", "pending", "generators")

    def __init__(self, sub: frozenset[int], pending: deque, generators: list):
        self.sub = sub
        self.pending = pending
        self.generators = generators


def _sorted_tuples(elements: frozenset[int], spec: Sequence[int]) -> deque:
    ordered = sorted(elements)
    return deque(t for k in spec for t in itertools.permutations(ordered, k))


def _conflict_decision(
    store: OrbitStore, bundle: TargetBundle, gamma: Subisomorphism
) -> NotDefinable:
    a, ga = store.conflict
    rt_a = store.handle[a].rel_type
    rt_ga = store.handle[ga].rel_type
    j = next(i for i in range(len(rt_a)) if rt_a[i] != rt_ga[i])
    pat = bundle.targets[j].pattern
    if rt_a[j]:
        return NotDefinable(expand(pat, a), expand(pat, ga), gamma)
    return NotDefinable(expand(pat, ga), expand(pat, a), gamma.inverse())


def merging_decide(
    alg: Algebra,
    rel: Relation,
    *,
    debug: bool = False,
    trace: Trace | None = None,
) -> Decision:
    """Decide definability of `rel` by the orbit-merging strategy."""
    rel.check_over(alg)
    bundle = decompose(rel)
    if not bundle.targets:
        return Definable(FALSE)
    store = OrbitStore(alg, bundle, debug=debug)
    universe = frozenset(range(alg.size))
    stack = [_StackEntry(universe, _sorted_tuples(universe, bundle.spec), [])]
    while stack:
        entry = stack[-1]
        while entry.pending:
            a = entry.pending.popleft()
            if store.handle[a].tagged:
                continue
            sig = iso_type(alg, a)
            type_a, universe_a = sig.partition, sig.universe
            if trace:
                trace(f"pop {a}: new type, |sg|={len(universe_a)}, |node|={len(entry.sub)}")
            # a tuple generating the whole node is matched against the node's
            # generators only; a smaller one against every tagged orbit
            generates_node = len(universe_a) == len(entry.sub)
            if generates_node:
                hit = next((o for o in map(store.orbit, entry.generators) if o.type == type_a), None)
            else:
                hit = store.find_tagged(len(a), type_a)
            if hit is not None:
                gamma = Subisomorphism(universe_a, hit.universe)
                if trace:
                    matched = "a generator" if generates_node else "a tagged orbit"
                    trace(f"  matches {matched}; merging along {gamma!r}")
                if not try_merge_orbits(gamma, store):
                    if trace:
                        trace(f"  conflict at {store.conflict}")
                    return _conflict_decision(store, bundle, gamma)
                continue
            store.tag_orbit(a, type_a, universe_a)
            if generates_node:
                entry.generators.append(a)
                if trace:
                    trace("  tagged as a new generator")
                continue
            sub = frozenset(universe_a)
            if debug:
                assert len(sub) < len(entry.sub), "pushed node must be strictly smaller"
            stack.append(_StackEntry(sub, _sorted_tuples(sub, bundle.spec), [a]))
            if trace:
                trace(f"  descend into subuniverse {sorted(sub)}")
            break
        else:  # the node is exhausted without a descent
            if debug:
                store.check_all_known(entry.sub)
            stack.pop()
    return Definable(None)
