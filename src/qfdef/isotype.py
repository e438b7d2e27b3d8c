"""Isomorphism types of tuples: canonical key plus generated universe.

The closure reads whole operation-table rows round by round, in the
canonical order in which `columns.generate_terms` lists a term layer,
and numbers the values by first appearance, their rank.  The key lists
the rank of the value at every closure position: the ranks of the
tuple's own entries, then the operation tables of sg(a) relabelled by
rank, entry by entry in that order.
It is a canonical form in the sense of McKay and Piperno ("Practical
graph isomorphism II", 2014).  Two tuples get the same key exactly when
they are connected by an isomorphism between the substructures they
generate, and in that case the ordered universes line up pointwise.

Up to 256 elements the closure runs on bytes, over table rows that it
slices once per algebra and keeps, and the key stays bytes.  `iso_type`
holds the last algebra it was called on, with those rows, in a one-entry
memo.  A byte holds no element above 255, so larger algebras go through
a list closure that slices the rows it reads every round.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from typing import Callable, Sequence

from .algebra import Algebra
from .columns import generate_terms
from .terms import Term, Var


class IsoSignature:
    """Canonical type of a tuple.

    compact: the key, ranks numbering the values by first appearance, as
        the `bytes` the byte closure builds (at most 256 elements) or else
        the tuple itself; merging tags and looks up orbits by it.
    universe: the generated subuniverse in first-appearance order, so
        `universe[r]` is the value of rank r.
    depth: number of closure passes executed before no new element appeared.
    """

    __slots__ = ("compact", "universe", "depth")

    def __init__(self, compact: bytes | tuple[int, ...], universe: tuple[int, ...], depth: int):
        self.compact, self.universe, self.depth = compact, universe, depth

    @property
    def key(self) -> tuple[int, ...]:
        """The rank of the value at each closure position, as ints."""
        return tuple(self.compact)

    @property
    def partition(self) -> tuple[tuple[int, ...], ...]:
        """Blocks of value-coincidence positions, sorted by minimum index
        with indices ascending inside each block: block r holds the
        positions of rank r, so it carries the same information as `key`."""
        blocks: list[list[int]] = [[] for _ in self.universe]
        for i, r in enumerate(self.compact):
            blocks[r].append(i)
        return tuple(map(tuple, blocks))

    def __eq__(self, other):
        return isinstance(other, IsoSignature) and (self.key, self.universe, self.depth) == (other.key, other.universe, other.depth)

    def __hash__(self):
        return hash((self.key, self.universe, self.depth))


class _Closure:
    """The closure over one algebra of at most 256 elements, a byte per value.

    Values and universe are bytes, and a table row is a 256-byte
    `translate` table, so reading a row at a run of values is
    `run.translate(row)`.  A round goes by arity, then by declared symbol
    order.  A unary operation is read in its whole table.  Any other is
    read row by row, its rows made with the closure and kept for every
    round and call: a binary table has a row per first argument, and an
    r-ary one a row per (r-1)-prefix, read in the order `_prefixes` lists.
    A round's new values are what is left of it once `translate` deletes
    the known ones, and the key is the values translated by their ranks,
    left as `bytes`.

    The rows of an r-ary table take n^(r-1) * 256 bytes, at most 32/n
    times the memory of the table tuple itself (8 bytes an entry).
    """

    __slots__ = ("n", "unary", "binary", "higher")

    def __init__(self, alg: Algebra):
        n = self.n = alg.size
        self.unary = [_byte_row(op.table) for op in alg.ops_of_arity(1)]
        self.binary = [_byte_rows(op.table, n).__getitem__ for op in alg.ops_of_arity(2)]
        self.higher = [(r, [_byte_rows(op.table, n) for op in alg.ops_of_arity(r)]) for r in alg.arities if r >= 3]

    def close(self, a: tuple[int, ...]) -> tuple[bytes, tuple[int, ...], int]:
        """(key as bytes, universe, depth) of `a`, as `iso_type` defines them."""
        unary, binary, higher = self.unary, self.binary, self.higher
        universe = b""
        values = bytearray(a)  # the value at every closure position
        lo = 0  # where the last round's values start
        for depth in itertools.count():
            new = values[lo:].translate(None, universe)
            if not new:
                break
            fresh = bytes(dict.fromkeys(new))
            known = len(universe)
            universe += fresh
            # the whole round reads `universe` as it stands here; the next pass records what it adds
            lo = len(values)
            read_new = fresh.translate
            for row in unary:
                values += read_new(row)
            if binary:
                old, read_all = universe[:known], universe.translate
                for row in binary:
                    for cells in map(row, old):
                        values += read_new(cells)
                    for cells in map(row, fresh):
                        values += read_all(cells)
            for r, tables in higher:
                prefixes = _prefixes(universe, known, r, self.n, read_new, universe.translate)
                for rows in tables:
                    for row, read in prefixes:
                        values += read(rows[row])
        rank = bytes.maketrans(universe, _RANKS[: len(universe)])
        return bytes(values.translate(rank)), tuple(universe), depth


# byte r is r: `maketrans` maps the universe's r-th value to its rank r
_RANKS = bytes(range(256))


def _byte_row(cells: Sequence[int]) -> bytes:
    return bytes(cells).ljust(256, b"\0")


def _byte_rows(table: tuple[int, ...], n: int) -> list[bytes]:
    """The rows of a row-major table with n columns: by first argument
    for a binary table, by (r-1)-prefix for an r-ary one."""
    return [_byte_row(table[x : x + n]) for x in range(0, len(table), n)]


def _prefixes(
    universe: Sequence[int], known: int, r: int, n: int, read_new: Callable, read_all: Callable
) -> list[tuple[int, Callable]]:
    """(row index, reader) for each (r-1)-prefix of one round's r-ary
    argument tuples over `universe`, fresh from `known` on, in the order of
    `generate_terms`: the prefix's row in a row-major table with n columns,
    read at every value by `read_all` if the prefix holds a fresh value and
    at the fresh values only by `read_new` if not."""
    rows = [(0, read_new)]
    for _ in range(r - 1):
        rows = [(row * n + v, read_all if i >= known else read) for row, read in rows for i, v in enumerate(universe)]
    return rows


def _close_wide(alg: Algebra, a: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """`_Closure.close` for algebras of more than 256 elements: values are
    ints in a list, and each round slices the table rows `_prefixes` lists."""
    n = alg.size
    rank = [-1] * n
    universe: list[int] = []
    values = list(a)
    lo = 0
    for depth in itertools.count():
        known = len(universe)
        for v in dict.fromkeys(values[lo:]):
            if rank[v] < 0:
                rank[v] = len(universe)
                universe.append(v)
        if len(universe) == known:
            break
        lo = len(values)
        for r in alg.arities:
            prefixes = _prefixes(universe, known, r, n, _reader(universe[known:]), _reader(universe))
            for op in alg.ops_of_arity(r):
                table = op.table
                for row, read in prefixes:
                    values.extend(read(table[row * n : row * n + n]))
    key = operator.itemgetter(*values)(rank) if len(values) > 1 else (rank[values[0]],)
    return key, tuple(universe), depth


def _reader(columns: Sequence[int]) -> Callable:
    """`itemgetter` of the columns, returning a tuple also for one column."""
    return operator.itemgetter(*columns) if len(columns) > 1 else operator.itemgetter(slice(columns[0], columns[0] + 1))


# the algebra of the last `iso_type` call with its closure, swapped as one tuple
_last: tuple[Algebra, _Closure] | None = None


def iso_type(alg: Algebra, a: Sequence[int]) -> IsoSignature:
    """Canonical isomorphism type of `a`; pure and deterministic.

    Closure position i holds the i-th value produced: the entries of `a`,
    then each round over the values found so far, in the order in which
    `generate_terms` lists a term layer, up to the first round that adds
    no new value.  A round is semi-naive (Bancilhon and Ramakrishnan,
    1986) and reads whole table rows, as `_Closure` sets out.  A value
    keeps the rank of its first appearance.

    A one-entry memo holds the last algebra with its `_Closure`, so all
    the calls of one decision read the rows that the first call sliced.
    It is keyed by identity, and it keeps that one algebra alive.
    Algebras of more than 256 elements go through `_close_wide` instead.
    """
    global _last
    a = tuple(a)
    if not a:
        raise ValueError("cannot compute the type of an empty tuple")
    n = alg.size
    for x in a:  # one pass; a bool or a float is no element either
        if type(x) is not int or not 0 <= x < n:
            raise ValueError(f"tuple {a} has an entry outside 0..{n - 1}")
    if n > 256:
        key, universe, depth = _close_wide(alg, a)
    else:
        last = _last
        if last is None or last[0] is not alg:
            last = _last = (alg, _Closure(alg))
        key, universe, depth = last[1].close(a)
    return IsoSignature(key, universe, depth)


def iso_type_terms(alg: Algebra, a: Sequence[int]) -> tuple[IsoSignature, tuple[Term, ...]]:
    """Trace variant: also the term evaluated at each closure position.

    The terms are rebuilt by replaying the closure's rounds: the positions
    first appearing in a round are the partition's block minima that fall
    inside it, and their terms are the next round's new witnesses for
    `generate_terms`.
    """
    sig = iso_type(alg, a)
    firsts = [block[0] for block in sig.partition]
    terms: list[Term] = [Var(i) for i in range(len(a))]
    lo = 0
    for _ in range(sig.depth):
        hi = bisect.bisect_left(firsts, len(terms))
        terms += generate_terms(alg, [terms[f] for f in firsts[:hi]], [terms[f] for f in firsts[lo:hi]])
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
