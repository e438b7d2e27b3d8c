"""The deciders' column kernel: term values over many tuples at a time.

`TermColumns` packs a term's values at a fixed sequence of k-tuples into
the lanes of one int and evaluates each distinct term once over all of
them.  Splitting builds its formulas on it, and `extension` walks A^k
with it.  The certificate check and the oracle use the reference
evaluators of `terms.py` instead, and import nothing from here.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .algebra import Algebra, Operation, Relation
from .terms import And, App, Eq, Not, Or, QfFormula, Term, Var, formula_variables


def tuple_codes(tuples: Collection[Sequence[int]], n: int) -> Iterator[int]:
    """The codes a0*n**(k-1) + ... + a(k-1) of k-tuples over an n-element
    universe, in iteration order: they sort as their tuples do, and they
    number A**k for `merging.OrbitStore`.  Lazy, one pass per position."""
    codes = map(operator.itemgetter(0), tuples)
    for j in range(1, len(next(iter(tuples), ()))):
        shifted = map(operator.mul, codes, itertools.repeat(n))
        codes = map(operator.add, shifted, map(operator.itemgetter(j), tuples))
    return codes


def permutation_columns(n: int, k: int) -> list[bytes] | list[list[int]]:
    """The variable columns of the repetition-free k-tuples, k <= n, in
    lexicographic order.  Column j is entry j of each repetition-free
    (j+1)-tuple, repeated once per way to extend it to k entries, so no
    k-tuple is built.

    Up to n = 256 the columns are `bytes`: an earlier column joins runs of
    one byte, and the last is, for each repetition-free (k-1)-prefix p in
    order, the n elements with p's entries deleted by one `translate`.
    Above that they are lists, for 16-bit lanes."""
    if lane_width(n) > 8:
        return [
            _runs(map(operator.itemgetter(j), itertools.permutations(range(n), j + 1)), math.perm(n - 1 - j, k - 1 - j))
            for j in range(k)
        ]
    elements = bytes(range(n))
    singles = [elements[v : v + 1] for v in range(n)]
    columns = [
        b"".join(
            map(
                operator.mul,
                map(singles.__getitem__, map(operator.itemgetter(j), itertools.permutations(range(n), j + 1))),
                itertools.repeat(math.perm(n - 1 - j, k - 1 - j)),
            )
        )
        for j in range(k - 1)
    ]
    prefixes = map(bytes, itertools.permutations(range(n), k - 1))
    columns.append(b"".join(map(elements.translate, itertools.repeat(None), prefixes)))
    return columns


def _runs(values: Iterable[int], r: int) -> list[int]:
    """Each of `values` r times in a row."""
    if r == 1:  # a last column: one repeat object per value would double its cost
        return list(values)
    return list(itertools.chain.from_iterable(map(itertools.repeat, values, itertools.repeat(r))))


def lane_width(n: int) -> int:
    """Bits per lane of a packed column over an n-element universe."""
    return 8 if n <= 1 << 8 else 16 if n <= 1 << 16 else 32


def pack(values: Iterable[int], width: int) -> int:
    """`values` as the lanes of one int: values[i] in bits width*i and up.

    Every value must be below 2**width; `width` is 8, 16 or 32.
    """
    return int.from_bytes(bytearray(values) if width == 8 else _wide_lanes(values, width), "little")


def unpack(packed: int, width: int, length: int) -> Sequence[int]:
    """The `length` lane values of a `pack`ed int: `bytes` at 8-bit lanes,
    an `array` at 16- and 32-bit lanes."""
    data = packed.to_bytes(width // 8 * length, "little")
    return data if width == 8 else _wide_lanes(data, width)


def _wide_lanes(values: Iterable[int] | bytes, width: int):
    """16- or 32-bit lanes from values, or from the little-endian bytes of
    a packed int: on big-endian hosts one byteswap turns either into the other."""
    # imported here: only universes over 256 elements need it, and loading
    # it at module import raised the benchmark workers' peak RSS by ~0.1 MB
    from array import array

    lanes = array("H" if width == 16 else "I", values)
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes


# a binary application with one argument constant on each run of rows that
# share x0 takes one `translate` per run where the kernel's rows average at
# least this many a run.  A run costs about 0.2 µs plus 3 ns a row, and the
# row-by-row gather about 40 ns a row, at n = 16 as at n = 64 (`timeit`): at
# n = 64 the runs took 14.7 µs over 512 rows at 8 rows a run, where the
# gather took 20.5 µs, and 24.5 µs over 4,032 rows at 63 a run, where it took
# 163 µs.  An operation's first application by runs also builds its 2n
# translate tables, about a run's cost each (5.4 µs at n = 16, 23 µs at
# n = 64), and finding a kernel's runs, once, costs about 0.5 µs a run
RUN_ROWS = 8


class TermColumns:
    """Term values as columns over a fixed sequence of k-tuples, the rows.
    A kernel is built from its k variable columns: row i is entry i of
    each, and `tuples` zips them only where a row is wanted as a tuple.

    A column is one int, a term's value at row i in lane i of `width`
    bits (`lane_width(n)`, `pack`): `unpack(column(t), width, length)[i]`
    is `eval_term(alg, t, a)` for the tuple a of row i.  Each distinct
    term is evaluated once, over all rows at a time, and memoised: an
    application indexes its operation table straight from its argument
    columns' lane values (one `bytes.translate` for a unary operation on
    byte lanes, `tab[x*n + y]` for binary ones, the row-major index for
    higher arities), with no per-tuple recursion.

    On byte lanes, a kernel of arity k >= 2 keeps a diagonal: a kernel of
    n rows in which every variable column is 0..n-1, so row v is
    (v, ..., v).  A term that reads at most one variable x_j (x0 if none)
    takes t(a) = t̂(a_j), where t̂ is its column on the diagonal, its table
    over A: its column is one `translate` of x_j's column through t̂, and
    its subterms are evaluated on the diagonal only.  The diagonal takes
    the gathers itself and holds no diagonal, so no kernel refers back to
    the kernel it was built for.  Kernels built with `share`, such as the
    ones `restrict` makes, share its table rows and diagonal.

    The same holds for one argument of a binary application f(s, u) that
    reads x0 alone or no variable: on a run of rows that share x0 = v it is
    the constant c = ŝ(v), so the run's column is one `translate` of the
    other argument's run through f's row c (or its column c, for a
    constant second argument), and the application needs no gather.  Runs
    are the maximal stretches of rows with one x0 (`_x0_runs`): rows sorted
    by x0, as splitting's base kernel (`permutation_columns`) and every
    kernel `restrict` makes from one are, have few.  Where runs average
    fewer than `RUN_ROWS` rows, as on shuffled rows, the application
    gathers, and so it does where the kernel has too few rows to pay for
    building the operation's translate tables.

    A set of rows is a mask in the same lanes, the top bit of lane i set
    for row i.  `agree(t, s)`, the mask of rows where two terms agree, is
    one xor of their columns and a zero-lane test over all rows at once;
    for n <= 128, where no value sets a lane's top bit, that test is one
    add and two masks.  `holds(phi)` combines such masks, and
    `members(target)` is the mask of the rows in a set of tuples.  `full`
    is the mask of every row.  `select(mask, packed)` lists the lanes of
    any packed int, a column or a mask, at a mask's rows with no per-row
    Python step, and `restrict` builds a kernel over those rows from such
    lane selections.
    """

    def __init__(self, alg: Algebra, variables: Sequence[Sequence[int]], share: TermColumns | None = None):
        """`share` is a kernel over the same algebra and arity whose table
        rows, diagonal and term-variable memo this one uses."""
        self.alg = alg
        self.arity = len(variables)
        self.length = len(variables[0]) if variables else 0
        self.width = lane_width(alg.size)
        self._columns: dict[Term, int] = {Var(j): pack(col, self.width) for j, col in enumerate(variables)}
        w = self.width
        self.full = int.from_bytes((1 << w - 1).to_bytes(w // 8, "little") * self.length, "little")
        self._low = self.full - (self.full >> w - 1)  # every lane's low `width - 1` bits
        self._runs: tuple[bytes, list[slice]] | tuple[()] | None = None  # `_x0_runs`, found once
        if share is not None:
            self._table_rows, self._reads, self._diagonal = share._table_rows, share._reads, share._diagonal
            return
        self._table_rows: dict = {}  # symbol: gather rows; (symbol, "runs"): translate tables
        self._reads: dict[Term, int] = {}
        self._diagonal: TermColumns | None = None
        if self.arity > 1 and w == 8:
            # built while this kernel has none, so the diagonal has none either
            self._diagonal = TermColumns(alg, [range(alg.size)] * self.arity, self)

    def column(self, t: Term) -> int:
        col = self._columns.get(t)
        if col is None:
            col = self._columns[t] = self._evaluate(t)
        return col

    def _values(self, t: Term) -> Sequence[int]:
        return unpack(self.column(t), self.width, self.length)

    def agree(self, t: Term, s: Term) -> int:
        """The mask of the rows at which t and s take the same value."""
        low, full = self._low, self.full
        x = self.column(t) ^ self.column(s)
        if self.alg.size <= 0x80:
            # every lane of x is below 0x80, so adding `low` sets a lane's top
            # bit exactly when the lane is nonzero, and carries into no other lane
            return (x + low) & full ^ full
        # a lane's top bit ends up set iff the lane is nonzero: adding `low`
        # carries into the top bit from any set low bit, and `x` supplies the top bit itself
        return (((x & low) + low) | x) & full ^ full

    def holds(self, phi: QfFormula) -> int:
        """The mask of the rows at which `phi` holds."""
        if isinstance(phi, Eq):
            return self.agree(phi.lhs, phi.rhs)
        if isinstance(phi, Not):
            return self.full ^ self.holds(phi.inner)
        if isinstance(phi, And):
            return functools.reduce(operator.and_, map(self.holds, phi.children), self.full)
        if isinstance(phi, Or):
            return functools.reduce(operator.or_, map(self.holds, phi.children), 0)
        raise TypeError(f"not a formula: {phi!r}")

    def members(self, target: Collection[tuple[int, ...]]) -> int:
        """The mask of the rows in `target`: one C-level lookup per row."""
        rows = zip(*map(self._values, map(Var, range(self.arity))))
        return pack(map(target.__contains__, rows), self.width) << self.width - 1

    def rows(self, mask: int) -> list[int]:
        """The rows of a mask, ascending: an int per kernel row, so only
        `extension`, the debug checks and tests read masks this way."""
        return list(itertools.compress(range(self.length), self._tops(mask)))

    def _tops(self, mask: int) -> bytes:
        """The top byte of each lane: 0x80 for a row in the mask, else 0."""
        step = self.width // 8
        return mask.to_bytes(step * self.length, "little")[step - 1 :: step]

    def select(self, mask: int, packed: int) -> Sequence[int]:
        """The lanes of `packed`, a column or a mask, at `mask`'s rows in
        ascending order, as `bytes` on byte lanes and a list of ints at
        16-bit lanes: `pack` them into a column of the kernel `restrict`
        makes.  A mask's lanes keep their flags, so they pack into a mask."""
        return self._selector(mask)(packed)

    def _selector(self, mask: int) -> Callable[[int], Sequence[int]]:
        if self.alg.size <= 0xFF:
            # no value or mask lane is 0xFF: set every other lane to it, then
            # delete the 0xFF bytes in one C-level pass
            drop, length = (self.full | self._low) ^ (mask >> 7) * 0xFF, self.length
            return lambda packed: (packed | drop).to_bytes(length, "little").translate(None, b"\xff")
        tops, width, length = self._tops(mask), self.width, self.length
        if width == 8:
            return lambda packed: bytes(itertools.compress(unpack(packed, 8, length), tops))
        return lambda packed: list(itertools.compress(unpack(packed, width, length), tops))

    def tuples(self, rows: Sequence[int], terms: Iterable[Term] | None = None) -> list[tuple[int, ...]]:
        """The tuples of the given rows, or at each row the values of `terms`."""
        if terms is None:
            terms = map(Var, range(self.arity))
        return list(zip(*(map(self._values(t).__getitem__, rows) for t in terms)))

    def restrict(self, mask: int, terms: Iterable[Term]) -> TermColumns:
        """A kernel over `mask`'s rows in ascending order, seeded with the
        columns of the variables and of `terms` selected at those rows."""
        select = self._selector(mask)
        sub = TermColumns(self.alg, [select(self.column(Var(j))) for j in range(self.arity)], self)
        for t in terms:
            if t not in sub._columns:
                sub._columns[t] = pack(select(self.column(t)), self.width)
        return sub

    def _evaluate(self, t: Term) -> int:
        if isinstance(t, Var):
            raise ValueError(f"variable x{t.index} out of range for a tuple of length {self.arity}")
        op = self.alg.op(t.symbol)
        tab = op.table
        if len(t.args) != op.arity:
            if not t.args and t.symbol in self.alg.constants:
                return pack(itertools.repeat(tab[0], self.length), self.width)
            raise ValueError(
                f"symbol {t.symbol!r} applied to {len(t.args)} arguments, arity is {op.arity}"
            )
        if self._diagonal is not None:
            j = self._read(t)
            if j != -2:
                # t's value at a row is its diagonal value at the row's x_j;
                # values are below n <= 256, so the table's padding is never read
                table = self._diagonal._values(t).ljust(256, b"\0")
                return int.from_bytes(self._values(Var(max(j, 0))).translate(table), "little")
            if op.arity == 2:
                col = self._by_runs(op, t.args)
                if col is not None:
                    return col
        cols = [self._values(s) for s in t.args]
        if op.arity == 1 and self.width == 8:
            # values are below n <= 256, so the table's padding is never read
            return int.from_bytes(cols[0].translate(bytes(tab).ljust(256, b"\0")), "little")
        n = self.alg.size
        if op.arity == 2:
            # tab[x*n + y] as rows[x][y]: one subscript fewer per value
            rows = self._table_rows.get(op.symbol)
            if rows is None:
                rows = self._table_rows[op.symbol] = [tab[x * n : x * n + n] for x in range(n)]
            return pack([rows[x][y] for x, y in zip(*cols)], self.width)
        index = cols[0]  # the row-major index, which for a unary operation is its argument
        for c in cols[1:]:
            index = [i * n + x for i, x in zip(index, c)]
        return pack([tab[i] for i in index], self.width)

    def _by_runs(self, op: Operation, args: tuple[Term, ...]) -> int | None:
        """f(s, u) by runs of x0 where s or u reads x0 alone or no variable,
        or None: the other argument's run through f's row or column at the
        constant's diagonal value, one `translate` per run."""
        s, u = args
        if self._read(s) in (0, -1):
            side, const, other = 0, s, u
        elif self._read(u) in (0, -1):
            side, const, other = 1, u, s
        else:
            return None
        n = self.alg.size
        tables = self._table_rows.get((op.symbol, "runs"))
        if tables is None and self.length < 3 * n * RUN_ROWS:
            # building f's 2n tables costs about 2n runs, and rows sorted by x0 have at most n runs
            return None
        runs = self._x0_runs()
        if not runs:
            return None
        values, slices = runs
        if tables is None:
            # f's rows f(c, -) and columns f(-, c) as `translate` tables, from one bytes(tab)
            tb = bytes(op.table)
            tables = self._table_rows[op.symbol, "runs"] = (
                [tb[c * n : c * n + n].ljust(256, b"\0") for c in range(n)],
                [tb[c::n].ljust(256, b"\0") for c in range(n)],
            )
        # the constant's value on each run: its diagonal column read at the run's x0
        consts = values.translate(self._diagonal._values(const).ljust(256, b"\0"))
        segments = map(self._values(other).__getitem__, slices)
        return int.from_bytes(b"".join(map(bytes.translate, segments, map(tables[side].__getitem__, consts))), "little")

    def _x0_runs(self) -> tuple[bytes, list[slice]] | tuple[()]:
        """The maximal runs of rows that share x0, as their x0 values and
        their slices, or () where they average fewer than `RUN_ROWS` rows.
        A run starts at row 0 and wherever x0 differs from the row before,
        the nonzero lanes of x0's column xor itself shifted by one lane."""
        if self._runs is None:
            x0, low, length = self.column(Var(0)), self._low, self.length
            x = x0 ^ x0 << 8
            starts = (((x & low) + low) | x) & self.full | 0x80
            if starts.bit_count() * RUN_ROWS > length:
                self._runs = ()
            else:
                # the lanes after each run's first row, up to the next run's
                gaps = starts.to_bytes(length, "little").split(b"\x80")[1:]
                ends = list(map(operator.add, itertools.accumulate(map(len, gaps)), range(1, len(gaps) + 1)))
                self._runs = self.select(starts, x0), list(map(slice, [0, *ends[:-1]], ends))
        return self._runs

    def _read(self, t: Term) -> int:
        """The index of the one variable `t` reads, -1 if it reads none and
        -2 if it reads several."""
        if isinstance(t, Var):
            return t.index
        j = self._reads.get(t)
        if j is None:
            j = -1
            for s in t.args:
                i = self._read(s)
                if i != j and i != -1:
                    j = i if j == -1 else -2
            self._reads[t] = j
        return j


# rows per kernel in `extension`: whole-space columns of every subterm
# would hold |A|^k values each, so the product space is walked in chunks
EXTENSION_CHUNK = 256


def extension(alg: Algebra, phi: QfFormula, k: int) -> Relation:
    """The relation {a in A^k : phi holds at a}."""
    if k < 1:
        raise ValueError(f"arity must be >= 1, got {k}")
    bad = [i for i in formula_variables(phi) if i >= k]
    if bad:
        raise ValueError(f"formula uses x{max(bad)} but arity is {k}")
    product = itertools.product(range(alg.size), repeat=k)
    hits: list[tuple[int, ...]] = []
    kernel = None  # each chunk shares the first's table rows and diagonal
    while chunk := list(itertools.islice(product, EXTENSION_CHUNK)):
        kernel = TermColumns(alg, list(zip(*chunk)), kernel)
        hits.extend(map(chunk.__getitem__, kernel.rows(kernel.holds(phi))))
    return Relation(k, frozenset(hits))


def generate_terms(alg: Algebra, witnesses: Sequence[Term], new_witnesses: Sequence[Term]) -> list[Term]:
    """One term layer in the canonical order: every operation applied to
    `witnesses`, using at least one of `new_witnesses` (the others were
    applied in an earlier layer).

    Operations come by arity, then declared symbol order; each gets the
    argument tuples over `witnesses`, lexicographically.  This is the order
    of splitting's term refills and of `iso_type`'s closure rounds.
    """
    if not new_witnesses:
        raise ValueError("term generation needs at least one new witness")
    new = set(new_witnesses)
    terms: list[Term] = []
    for r in alg.arities:
        arg_tuples = [lt for lt in itertools.product(witnesses, repeat=r) if not new.isdisjoint(lt)]
        for op in alg.ops_of_arity(r):
            terms += [App(op.symbol, lt) for lt in arg_tuples]
    return terms
