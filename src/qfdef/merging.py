"""Definability by orbit merging.

Every repetition-free tuple of a relevant arity starts in its own orbit,
annotated with its membership vector against the decomposed targets.
Tuples are processed depth-first along the tree of subuniverses, and the
walk over a node yields only the tuples still untyped.  When such a
tuple turns out to share its isomorphism type (its compact key) with a
tagged orbit, the subisomorphism between their generated subuniverses is
a hit of one of two kinds.  An automorphism hit maps the current node
onto itself, and every pair of orbits it links is merged.  A cross hit
maps a smaller subuniverse into a finished one, whose tuples are all
typed; its map is only checked, one comparison per arity, and its domain
is recorded as covered, which types every tuple over it.  The target is
definable exactly when no map links two tuples with different membership
vectors; the first offending pair, together with the map connecting it,
is the counterexample.

This strategy never produces a defining formula.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import and_, itemgetter
from typing import Callable, Iterator, Sequence

from .algebra import Algebra, Relation, Subisomorphism
from .columns import tuple_codes
from .decision import Decision, Definable, NotDefinable
from .isotype import iso_type
from .preprocess import TargetBundle, decompose, expand
from .terms import FALSE

Trace = Callable[[str], None]


class _Rows(dict):
    """The rows of one arity's codes in the membership list, keyed by the
    value of their (k-1)-prefix and sliced on first read."""

    def __init__(self, membership: list[int], off: int, n: int):
        self.membership, self.off, self.n = membership, off, n

    def __missing__(self, prefix: int) -> list[int]:
        base = self.off + prefix * self.n
        row = self[prefix] = self.membership[base : base + self.n]
        return row


class OrbitStore:
    """Orbit partitions of the repetition-free tuples, as a union-find over tuple codes.

    A k-tuple's code is its base-n value over the universe
    (`columns.tuple_codes`) plus the offset of arity k, so one flat
    `parent` forest covers every arity in the spec (codes of tuples with
    repeated entries stay singletons).
    Finds halve the path; a union hangs an untagged root under the other
    root, so a tagged root stays a root for the whole decision.  A
    tuple's membership vector is an int whose bit j says it lies in
    target j, in a list beside `parent`; an orbit's membership is that of
    any of its members, since orbits of unequal membership never merge.
    Type (the compact key, `IsoSignature.compact`), universe and the
    per-arity type -> root index live on roots only, written once when
    the orbit is tagged; the index also enforces that a type is never
    carried by two distinct orbits.

    A covered subuniverse (`cover`) has its tuples typed through a checked
    map into a finished subuniverse, with no orbit joined.  Bit i of the
    int `holders[x]` says that x lies in the i-th of the `covers` covered
    subuniverses, so a tuple is typed when its root is tagged or the AND
    of `holders` over its entries is not 0.  `cover` keeps the rows it
    reads (`_rows`) and each image's side (`_images`) for the decision.
    """

    def __init__(self, alg: Algebra, bundle: TargetBundle, *, debug: bool = False):
        self.alg = alg
        self.bundle = bundle
        self.spec = bundle.spec
        self.debug = debug
        self.offset: dict[int, int] = {}
        total = 0
        for k in self.spec:
            self.offset[k] = total
            total += alg.size**k
        self.parent = list(range(total))
        self.membership = [0] * total
        for j, target in enumerate(bundle.targets):
            bit, off = 1 << j, self.offset[target.arity]
            for c in tuple_codes(target.tuples, alg.size):
                self.membership[c + off] |= bit
        self.type: dict[int, bytes | tuple] = {}
        self.universe: dict[int, tuple[int, ...]] = {}
        self.universe_donor: dict[int, tuple[int, ...]] = {}  # debug bookkeeping
        self.tagged_index: dict[int, dict[bytes | tuple, int]] = {k: {} for k in self.spec}
        self.conflict: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        self.covers = 0
        self.holders = [0] * alg.size
        self._rows = {k: _Rows(self.membership, off, alg.size) for k, off in self.offset.items()}
        self._images: dict[tuple[int, ...], list[list]] = {}

    def code(self, a: Sequence[int]) -> int:
        n, c = self.alg.size, 0
        for x in a:
            c = c * n + x
        return self.offset[len(a)] + c

    def orbit(self, a: Sequence[int]) -> int:
        """The root code of the orbit holding `a`, halving the path to it."""
        c, parent = self.code(a), self.parent
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    def members(self, root: int, arity: int) -> list[tuple[int, ...]]:
        """The tuples of an orbit, in lexicographic order (a full scan)."""
        return [a for a in itertools.permutations(range(self.alg.size), arity) if self.orbit(a) == root]

    def find_tagged(self, arity: int, type_: bytes | tuple) -> int | None:
        return self.tagged_index[arity].get(type_)

    def tag_orbit(
        self, a: tuple[int, ...], type_: bytes | tuple, universe: tuple[int, ...]
    ) -> None:
        r = self.orbit(a)
        if r in self.type:
            if self.type[r] != type_:
                raise AssertionError("orbit retagged with a different type")
            return
        if type_ in self.tagged_index[len(a)]:
            raise AssertionError("type already carried by another orbit")
        self.type[r] = type_
        self.universe[r] = universe
        self.universe_donor[r] = a
        self.tagged_index[len(a)][type_] = r
        if self.debug:
            self._check_orbit(r, len(a))

    def merge(self, first: int, second: int, arity: int) -> int:
        """Join two distinct orbits of equal membership, given by their roots.

        `second` hangs under `first` unless `second` is tagged, so a tagged
        root never moves and its annotation stays where `tag_orbit` wrote
        it; the joined orbit's root is returned.  `try_merge_orbits`
        has found the roots distinct and of equal membership, so this
        checks only that at most one is tagged, and runs the debug suite.
        """
        tagged = self.type
        if second in tagged:
            if first in tagged:
                raise AssertionError("two tagged orbits may never merge")
            first, second = second, first
        self.parent[second] = first
        if self.debug:
            self._check_orbit(first, arity)
        return first

    def cover(self, domain: Sequence[int], image: tuple[int, ...]) -> bool:
        """Check the map domain[j] -> image[j] into a finished subuniverse,
        then record `domain` as covered.

        Every tuple over `domain` must have the membership of its image,
        which one comparison per arity of their `_picks` checks, the
        image's built once and kept.  Only a mismatch walks the rows in
        `try_merge_orbits`' order, entry by entry.  Orbits never join
        unequal memberships, so the first unequal pair, whatever the union
        state, is the one `try_merge_orbits` meets along the same map: it
        is left in `conflict`, and False is returned with nothing covered.
        """
        if self.debug:
            if not Subisomorphism(domain, image).is_valid(self.alg):
                raise AssertionError("a cover's map is not a subisomorphism")
            self.check_all_known(frozenset(image))
        expected = self._images.get(image)
        if expected is None:
            expected = self._images[image] = self._picks(image)
        if self._picks(domain) != expected:
            n, pairs = self.alg.size, sorted(zip(domain, image))
            for k, rows in self._rows.items():
                for pa, pg, p in _prefixes(pairs, k, n):
                    row_a, row_g = rows[pa], rows[pg]
                    for x, gx in pairs:
                        if x not in p and row_a[x] != row_g[gx]:
                            a = p + (x,)
                            self.conflict = (a, tuple(map(dict(pairs).__getitem__, a)))
                            return False
        bit, holders = 1 << self.covers, self.holders
        self.covers += 1
        for x in domain:
            holders[x] |= bit
        return True

    def _picks(self, values: Sequence[int]) -> list[list]:
        """Per arity k, the row of each (k-1)-tuple over `values` (by their
        positions, lexicographically) picked at `values`.  A tuple with a
        repeated entry is in no target: both sides of a map read 0 there."""
        n, pick = self.alg.size, itemgetter(*values)
        picks = []
        for k, rows in self._rows.items():
            prefixes = values if k > 1 else (0,)
            for _ in range(k - 2):
                prefixes = [p * n + v for p in prefixes for v in values]
            picks.append(list(map(pick, map(rows.__getitem__, prefixes))))
        return picks

    # -- debug invariant suite ------------------------------------------------

    def _check_orbit(self, root: int, arity: int) -> None:
        members = self.members(root, arity)
        for t in members:
            # recomputed from the targets, not read from the list being checked
            bits = sum(1 << j for j, target in enumerate(self.bundle.targets) if t in target.tuples)
            if bits != self.membership[root]:
                raise AssertionError("membership vector drift in an orbit")
        if root in self.type:
            donor_sig = iso_type(self.alg, self.universe_donor[root])
            if donor_sig.universe != self.universe[root]:
                raise AssertionError("stored universe does not match its donor")
            for t in members[:2]:
                if iso_type(self.alg, t).compact != self.type[root]:
                    raise AssertionError("tag differs from a member's type")

    def check_all_known(self, sub: frozenset[int]) -> None:
        holders = self.holders
        for k in self.spec:
            for a in itertools.permutations(sorted(sub), k):
                if self.orbit(a) not in self.type and not reduce(and_, map(holders.__getitem__, a)):
                    raise AssertionError(f"tuple {a} left untyped on a closed subuniverse")


def _prefixes(pairs: list[tuple[int, int]], k: int, n: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """(value of p, value of gamma p, p) for every repetition-free prefix p
    of length k - 1 over the sorted map `pairs`, lexicographically."""
    prefixes = [(0, 0, ())] if k == 1 else [(x, gx, (x,)) for x, gx in pairs]
    for _ in range(k - 2):
        prefixes = [
            (pa * n + x, pg * n + gx, p + (x,))
            for pa, pg, p in prefixes
            for x, gx in pairs
            if x not in p
        ]
    return prefixes


def try_merge_orbits(gamma: Subisomorphism, store: OrbitStore) -> bool:
    """Merge the orbits of every pair (a, gamma a) over gamma's domain.

    Returns False the moment a merge would join orbits with different
    membership vectors; the offending pair is left in store.conflict.
    """
    pairs = sorted(zip(gamma.domain, gamma.image))
    n = store.alg.size
    parent, membership = store.parent, store.membership
    for k in store.spec:
        off = store.offset[k]
        for pa, pg, p in _prefixes(pairs, k, n):  # the last entry runs below
            base_a, base_g = pa * n + off, pg * n + off
            for x, gx in pairs:
                if x in p:
                    continue
                first, second = base_a + x, base_g + gx
                if parent[first] == parent[second]:  # one tree already
                    continue
                while parent[first] != first:
                    parent[first] = first = parent[parent[first]]
                while parent[second] != second:
                    parent[second] = second = parent[parent[second]]
                if first == second:
                    continue
                if membership[first] != membership[second]:
                    a = p + (x,)
                    store.conflict = (a, gamma.map_tuple(a))
                    return False
                store.merge(first, second, k)
    return True


def _untyped_tuples(elements: frozenset[int], store: OrbitStore) -> Iterator[tuple[int, ...]]:
    """The repetition-free tuples over `elements` still untyped in `store`,
    by arity in the spec, then lexicographically.

    A tuple is skipped when one covered subuniverse holds all its entries
    (its prefix's AND of `holders`, and its last entry's) or its root is
    tagged.  The caller covers, merges and tags between two yields, so the
    prefix's AND is taken again after each, and roots and tags are live.
    """
    ordered = sorted(elements)
    parent, tagged, holders = store.parent, store.type, store.holders
    for k in store.spec:
        for p in itertools.permutations(ordered, k - 1):
            base = store.code(p + (0,))  # the code of p + (x,) is base + x
            covered = reduce(and_, map(holders.__getitem__, p), -1)
            for x in ordered:
                if x in p or covered & holders[x]:
                    continue
                c = base + x
                while parent[c] != c:  # the root, as in OrbitStore.orbit
                    parent[c] = c = parent[parent[c]]
                if c in tagged:
                    continue
                yield p + (x,)
                covered = reduce(and_, map(holders.__getitem__, p), -1)


def _conflict_decision(
    store: OrbitStore, bundle: TargetBundle, gamma: Subisomorphism
) -> NotDefinable:
    a, ga = store.conflict
    m_a, m_ga = store.membership[store.orbit(a)], store.membership[store.orbit(ga)]
    diff = m_a ^ m_ga
    j = (diff & -diff).bit_length() - 1  # the first target the two disagree on
    pat = bundle.targets[j].pattern
    if m_a >> j & 1:
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
    bundle = decompose(rel, alg.size)
    if not bundle.targets:
        return Definable(FALSE)
    store = OrbitStore(alg, bundle, debug=debug)
    universe = frozenset(range(alg.size))
    # (node, its untyped tuples); a node is a subuniverse, entered at most once
    stack = [(universe, _untyped_tuples(universe, store))]
    while stack:
        node, pending = stack[-1]
        for a in pending:  # resumes after the tuple that last descended
            sig = iso_type(alg, a)
            type_a, universe_a = sig.compact, sig.universe
            if trace:
                trace(f"pop {a}: new type, |sg|={len(universe_a)}, |node|={len(node)}")
            # a tagged orbit's donor generates a node, so a hit for a tuple
            # generating this node is one of its generators: a node of the
            # same type entered earlier was finished, and then this node's
            # first generator would have merged with it instead of descending.
            # Any other hit is a cross hit: its universe is smaller than this
            # node, so it is no node on the stack but a finished one
            generates_node = len(universe_a) == len(node)
            hit = store.find_tagged(len(a), type_a)
            if hit is not None:
                image = store.universe[hit]
                if trace:
                    how = "a generator; merging" if generates_node else "a tagged orbit; covering"
                    trace(f"  matches {how} along {Subisomorphism(universe_a, image)!r}")
                if generates_node:
                    consistent = try_merge_orbits(Subisomorphism(universe_a, image), store)
                else:
                    consistent = store.cover(universe_a, image)
                if not consistent:
                    if trace:
                        trace(f"  conflict at {store.conflict}")
                    return _conflict_decision(store, bundle, Subisomorphism(universe_a, image))
                continue
            store.tag_orbit(a, type_a, universe_a)
            if generates_node:
                if trace:
                    trace("  tagged as a new generator")
                continue
            sub = frozenset(universe_a)
            if debug and len(sub) >= len(node):
                raise AssertionError("pushed node must be strictly smaller")
            stack.append((sub, _untyped_tuples(sub, store)))
            if trace:
                trace(f"  descend into subuniverse {sorted(sub)}")
            break
        else:  # the node is exhausted without a descent
            if debug:
                store.check_all_known(node)
            stack.pop()
    return Definable(None)
