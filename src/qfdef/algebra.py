"""Finite algebras, relations, subuniverses and subisomorphisms.

Elements of an algebra are the integers 0..n-1; human-readable element
names are an optional alias table kept for printing only.  Operation
tables are dense row-major tuples, so evaluation is pure indexing.
Arity-0 symbols are rewritten at construction time into unary constant
operations (the rewrite is recorded so printing can restore the bare
constant symbol).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .syntax import _SYMBOL


@dataclass(frozen=True)
class Operation:
    """One fundamental operation: dense row-major table over 0..size-1."""

    symbol: str
    arity: int
    size: int
    table: tuple[int, ...]

    def value(self, args: Sequence[int]) -> int:
        i = 0
        for v in args:
            i = i * self.size + v
        return self.table[i]


class Algebra:
    """A finite algebra: universe 0..size-1 plus ordered named operations.

    The declared operation order is fixed at construction and drives every
    canonical enumeration downstream, so two algebras with the same tables
    but different symbol order are deliberately distinct.
    """

    __slots__ = ("size", "ops", "element_names", "constants", "_by_symbol", "_by_arity", "arities")

    def __init__(
        self,
        size: int,
        ops: Iterable[tuple[str, int, Sequence[int]]],
        element_names: Sequence[str] | None = None,
    ):
        if type(size) is not int or size < 1:
            raise ValueError(f"algebra size must be an integer >= 1, got {size!r}")
        self.size = size
        normalized: list[Operation] = []
        constants: set[str] = set()
        for symbol, arity, table in ops:
            if type(symbol) is not str or not _SYMBOL.match(symbol):
                raise ValueError(
                    f"operation symbol {symbol!r} is not a name the formula grammar reads back as a symbol"
                )
            if type(arity) is not int or arity < 0:
                raise ValueError(f"operation {symbol!r} arity must be an integer >= 0, got {arity!r}")
            table = tuple(table)
            if len(table) != size**arity:
                raise ValueError(
                    f"operation {symbol!r} table has {len(table)} entries, expected {size**arity}"
                )
            if set(map(type, table)) != {int} or min(table) < 0 or max(table) >= size:
                raise ValueError(f"operation {symbol!r} table has out-of-range or non-integer values")
            if arity == 0:
                # constants become unary constant operations; remember the
                # rewrite so the printer can restore the bare symbol
                constants.add(symbol)
                arity, table = 1, (table[0],) * size
            normalized.append(Operation(symbol, arity, size, table))
        self.ops: tuple[Operation, ...] = tuple(normalized)
        if len({op.symbol for op in self.ops}) != len(self.ops):
            raise ValueError("duplicate operation symbols")
        self.constants = frozenset(constants)
        self._by_symbol = {op.symbol: op for op in self.ops}
        by_arity: dict[int, list[Operation]] = {}
        for op in self.ops:
            by_arity.setdefault(op.arity, []).append(op)
        self._by_arity = by_arity
        self.arities: tuple[int, ...] = tuple(sorted(by_arity))
        if element_names is not None:
            if isinstance(element_names, str) or not isinstance(element_names, Sequence):
                raise ValueError(f"element_names must be a sequence of strings, got {element_names!r}")
            element_names = tuple(element_names)
            if any(type(name) is not str for name in element_names):
                raise ValueError("element_names must all be strings")
            if len(element_names) != size:
                raise ValueError("element_names length must equal size")
            if len(set(element_names)) != size:
                raise ValueError("element_names must be distinct")
        self.element_names = element_names

    def op(self, symbol: str) -> Operation:
        try:
            return self._by_symbol[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in algebra") from None

    def ops_of_arity(self, arity: int) -> list[Operation]:
        return self._by_arity.get(arity, [])

    def name(self, element: int) -> str:
        if self.element_names is not None:
            return self.element_names[element]
        return str(element)

    def element(self, name: str) -> int:
        """Resolve an element given by alias name or decimal index."""
        if self.element_names is not None and name in self.element_names:
            return self.element_names.index(name)
        # int() would also read "1_0", " 3" and non-ASCII digits such as "٣"
        if not (name.isascii() and name.isdigit()):
            raise ValueError(f"unknown element name {name!r}")
        e = int(name)
        if not (0 <= e < self.size):
            raise ValueError(f"element {e} out of range 0..{self.size - 1}")
        return e

    def __repr__(self):
        syms = ",".join(f"{op.symbol}/{op.arity}" for op in self.ops)
        return f"Algebra(size={self.size}, ops=[{syms}])"


@dataclass(frozen=True)
class Relation:
    """A k-ary relation: a set of k-tuples over the universe."""

    arity: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError(f"relation arity must be >= 1, got {self.arity}")
        for t in self.tuples:
            if len(t) != self.arity:
                raise ValueError(f"tuple {t} does not have arity {self.arity}")

    @classmethod
    def of(cls, arity: int, tuples: Iterable[Sequence[int]]) -> "Relation":
        return cls(arity, frozenset(tuple(t) for t in tuples))

    def check_over(self, alg: Algebra) -> None:
        entries = list(itertools.chain.from_iterable(self.tuples))
        values = set(entries)
        # a float such as 0.5 lies between min and max, and a set keeps one of
        # 1, 1.0 and True, so the type of every entry is checked
        if operator.countOf(map(type, entries), int) == len(entries) and (
            not values or 0 <= min(values) and max(values) < alg.size
        ):
            return
        for t in self.tuples:  # only to name the offending tuple
            for v in t:
                if type(v) is not int or not 0 <= v < alg.size:
                    raise ValueError(f"tuple {t} has entry {v!r} outside 0..{alg.size - 1}")

    def __contains__(self, t) -> bool:
        return tuple(t) in self.tuples

    def __len__(self) -> int:
        return len(self.tuples)


def sg(alg: Algebra, a: Sequence[int]) -> frozenset[int]:
    """Subuniverse generated by the entries of `a` (least closed superset)."""
    if not a:
        raise ValueError("cannot generate a subuniverse from an empty tuple")
    closure = set(a)
    frontier = set(a)
    while frontier:
        base = sorted(closure)
        new: set[int] = set()
        for op in alg.ops:
            for args in itertools.product(base, repeat=op.arity):
                if not any(x in frontier for x in args):
                    continue
                v = op.value(args)
                if v not in closure:
                    new.add(v)
        closure |= new
        frontier = new
    return frozenset(closure)


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
        """Full table scan: every entry an element of `alg`, domain closed
        under every operation and the operation graphs preserved pointwise."""
        n = alg.size
        if not self.domain or not all(type(x) is int and 0 <= x < n for x in self.domain + self.image):
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
