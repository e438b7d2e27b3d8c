"""Definability by block splitting, with formula synthesis.

All repetition-free tuples of the target arity start in one block.  Each
step evaluates one pending term on the block's tuples and splits the
block by which established witness term the new term agrees with; the
leftover tuples form a complement block in which the new term becomes a
witness itself.  Blocks fully inside the target contribute a disjunct of
the output formula, blocks disjoint from it are dropped, and a mixed
block that runs out of terms to try is a counterexample: its tuples are
pairwise isomorphic, so any straddling pair plus the map between their
generated subuniverses separates the target, and the block's witness
terms list both subuniverses in step.

This is partition refinement over an indexed space (Paige and Tarjan,
"Three partition refinement algorithms", 1987).  A `TermColumns` kernel
is its k variable columns, and it evaluates each further term once into
a column over all its rows: one int holding the term's value at row i in
lane i, a byte per row up to n = 256, where a term of at most one
variable is one `translate` of that variable's column, and a binary
application with one argument of x0 alone is one `translate` per run of
rows that share x0 where runs are long.  All targets of arity k in a
decision start on one kernel over the repetition-free k-tuples in
lexicographic order (`permutation_columns`), at every arity.
A block is a row mask, an int with one flag per row in the kernel's
lanes; the initial block is every row, and target membership is one such
mask: scattered from the target's tuple codes for a target under
`SCATTER_SHARE` of the rows, else `TermColumns.members` (`_target_mask`).
A split is bit arithmetic over whole masks: the rows where the new term
agrees with a witness are `rest & agree(t, s)`, one xor of the two
columns and a zero-lane test, and they leave the rest by `rest ^= eq`.

Whole-space masks cost time in the size of the space, not of the block,
so a popped mixed block holding less than `COMPACT_SHARE` of its space's
rows is rebased onto a kernel over just its own rows, its variable and
witness columns and its membership mask selected lane by lane at those
rows (`TermColumns.select`); its successors inherit that smaller space.
Rows become tuples only in the debug checks and in
`extract_counterexample`, which reads the witnesses' values at the
terminal block's first row in the target and its first row outside it.

Block formulas are kept as flat literal tuples sharing structure between
parent and child blocks; they are only assembled into formula trees (and
flattened to disjunctive-normal-form-shaped text) on output.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable

from .algebra import Algebra, Relation, Subisomorphism
from .columns import TermColumns, extension, generate_terms, pack, permutation_columns, tuple_codes, unpack
from .decision import Decision, Definable, NotDefinable
from .isotype import iso_type
from .preprocess import assemble, decompose, expand, recombine
from .terms import And, Eq, Not, Or, QfFormula, Term, Var

Trace = Callable[[str], None]

# a target with fewer tuples than this share of its base kernel's rows gets
# its mask by scattering its codes, about 125-180 ns a target tuple plus
# 60-100 µs of reading back at n = 64, k = 2, where `TermColumns.members`
# costs about 50-75 ns a kernel row (`timeit`): the two meet near a third
SCATTER_SHARE = 1 / 3

# a popped mixed block holding less than this share of its space's rows
# moves to a kernel over its own rows; set 0 to never and 2 to always move
COMPACT_SHARE = 1 / 8


class Block:
    """One block of the refinement, with its term bookkeeping.

    `tuples` are the block's members as a row mask over the `TermColumns`
    space the block lives in (see `TermColumns`): the top bit of lane i
    is set when row i is a member, so `tuples.bit_count()` is the block's
    size.  That space is the target arity's shared kernel over the
    repetition-free tuples, or, once an ancestor block was compacted, just
    that ancestor's rows.
    `witnesses` are terms that pairwise disagree on every member tuple;
    `new_witnesses` are the witnesses added since the last term refill
    and drive the generation of the next term layer; `terms_to_process`
    is the queue of terms not yet evaluated on this block.  The literals
    accumulate the (dis)equalities that carve the block out of the
    initial tuple space.
    """

    __slots__ = ("tuples", "witnesses", "new_witnesses", "terms_to_process", "literals", "step")

    def __init__(
        self,
        tuples: int,
        witnesses: tuple[Term, ...],
        new_witnesses: tuple[Term, ...],
        terms_to_process: list[Term],
        literals: tuple[QfFormula, ...],
        step: int,
    ):
        self.tuples = tuples
        self.witnesses = witnesses
        self.new_witnesses = new_witnesses
        self.terms_to_process = terms_to_process
        self.literals = literals
        self.step = step

    @property
    def formula(self) -> QfFormula:
        return self.literals[0] if len(self.literals) == 1 else And(self.literals)

    @property
    def is_terminal(self) -> bool:
        return not self.terms_to_process and not self.new_witnesses

    def depth(self) -> int:
        return max((t.depth for t in (*self.witnesses, *self.terms_to_process)), default=0)


@dataclass
class SplitStats:
    """Observable counters for the trace/debug surface and benchmarks."""

    blocks_created: int = 0
    steps: int = 0
    refills: int = 0
    full_blocks: int = 0
    max_depth: int = 0


def process_mixed_block(
    alg: Algebra, block: Block, columns: TermColumns, stats: SplitStats
) -> list[Block]:
    """One refinement step on a mixed block whose rows live in `columns`.

    With an empty term queue the block is returned with the queue refilled
    from its witnesses and the new-witness list cleared.  Otherwise the
    first pending term is evaluated and the block is partitioned by which
    witness it agrees with; rows agreeing with no witness form the
    complement block, which adopts the term as a new witness.  A lone
    successor keeps the parent's formula unchanged.
    """
    if block.is_terminal:
        raise ValueError("terminal block cannot be processed")
    if not block.terms_to_process:
        block.terms_to_process = generate_terms(alg, block.witnesses, block.new_witnesses)
        block.new_witnesses = ()
        stats.refills += 1
        stats.max_depth = max(stats.max_depth, block.depth())
        return [block]
    t = block.terms_to_process.pop(0)
    block.step += 1
    stats.steps += 1
    remaining = block.terms_to_process
    agree = columns.agree
    rest = block.tuples
    successors: list[Block] = []
    diseqs: list[QfFormula] = []
    for s in block.witnesses:
        eq = rest & agree(t, s)
        if eq:
            successors.append(
                Block(
                    eq,
                    block.witnesses,
                    block.new_witnesses,
                    list(remaining),
                    block.literals + (Eq(t, s),),
                    block.step,
                )
            )
            rest ^= eq
            if not rest:
                break
            diseqs.append(Not(Eq(t, s)))
    if rest:
        successors.append(
            Block(
                rest,
                block.witnesses + (t,),
                block.new_witnesses + (t,),
                list(remaining),
                block.literals + tuple(diseqs),
                block.step,
            )
        )
    if len(successors) == 1:
        successors[0].literals = block.literals
    stats.blocks_created += len(successors)
    return successors


def extract_counterexample(
    block: Block, columns: TermColumns, member: int
) -> tuple[tuple[int, ...], tuple[int, ...], Subisomorphism]:
    """Witness pair and connecting map from a terminal mixed block: its
    first row a in the membership mask `member` and its first row b outside.
    Rows ascend lexicographically, so these are the least such tuples.

    The block's witnesses start with x0..x(k-1), take pairwise distinct
    values at every row, and are closed under the operations: every term
    over them agrees with one of them on the whole block.  So their values
    at a and at b list sg(a) and sg(b) in step, and the map that pairs them
    is an isomorphism sending a to b."""
    if not block.is_terminal:
        raise ValueError("block still has terms to try; not terminal")
    inside, outside = block.tuples & member, block.tuples & ~member
    if not inside or not outside:
        raise ValueError("block is pure; no counterexample here")
    w, k = columns.width, columns.arity
    # a mask's lowest set bit is the top bit of its first row's lane
    sg_a, sg_b = columns.tuples([((m & -m).bit_length() - 1) // w for m in (inside, outside)], block.witnesses)
    return sg_a[:k], sg_b[:k], Subisomorphism(sg_a, sg_b)


class _DebugChecker:
    """Invariant suite evaluated at every mutation of the block system.

    Blocks hold row masks; each check takes the kernel a block's rows
    belong to and maps them to tuples wherever an invariant speaks about
    tuples.
    """

    def __init__(self, alg: Algebra, target: frozenset, k: int, check_term_repr: bool):
        self.alg = alg
        self.distinct = frozenset(itertools.permutations(range(alg.size), k))
        self.target = target
        self.k = k
        self.check_term_repr = check_term_repr

    def check_block(self, b: Block, columns: TermColumns) -> None:
        # distinct witnesses never agree on a member tuple
        for s, t in itertools.combinations(b.witnesses, 2):
            if b.tuples & columns.agree(s, t):
                raise AssertionError("two witnesses coincide on a block tuple")
        # the block formula carves exactly the block out of the distinct tuples
        ext = extension(self.alg, b.formula, self.k).tuples
        if ext & self.distinct != _tuples(b, columns):
            raise AssertionError("block formula extension drifted off its tuples")
        if self.check_term_repr:
            self._check_term_representation(b, columns)

    def check_system(self, pending, full_blocks) -> None:
        """`pending` and `full_blocks` hold (block, kernel) pairs."""
        seen: set[tuple[int, ...]] = set()
        for b, columns in itertools.chain(pending, full_blocks):
            tuples = _tuples(b, columns)
            if seen & tuples:
                raise AssertionError("blocks overlap")
            seen |= tuples
        if not self.target <= seen:
            raise AssertionError("target tuples leaked out of the block system")

    def check_split(self, successors: list[Block], columns: TermColumns) -> None:
        # a sample of tuples landing in different successors must differ in type
        for b1, b2 in itertools.combinations(successors, 2):
            a = columns.tuples(columns.rows(b1.tuples)[:1])[0]
            b = columns.tuples(columns.rows(b2.tuples)[:1])[0]
            if iso_type(self.alg, a).key == iso_type(self.alg, b).key:
                raise AssertionError("isomorphic tuples were separated into different blocks")

    def check_terminal(self, block: Block, columns: TermColumns, member: int) -> None:
        sample = columns.tuples(columns.rows(block.tuples)[:4])
        keys = [iso_type(self.alg, t).key for t in sample]
        if any(k != keys[0] for k in keys):
            raise AssertionError("terminal block holds non-isomorphic tuples")
        a, b, gamma = extract_counterexample(block, columns, member)
        sig_a, sig_b = iso_type(self.alg, a), iso_type(self.alg, b)
        if (gamma.domain, gamma.image) != (sig_a.universe, sig_b.universe):
            raise AssertionError("the terminal block's witnesses do not list the canonical map")

    def _all_terms(self, depth: int) -> list[Term]:
        terms: list[Term] = [Var(i) for i in range(self.k)]
        layer = tuple(terms)
        for _ in range(depth):
            layer = generate_terms(self.alg, terms, layer)
            terms += layer
        return terms

    def _check_term_representation(self, b: Block, columns: TermColumns) -> None:
        # every term up to the block's depth (capped at 2 to stay exhaustive
        # yet affordable) must agree on the block with a witness or a pending term
        d = min(b.depth(), 2)
        candidates = (*b.witnesses, *b.terms_to_process)

        def represented(t: Term) -> bool:
            return any(not b.tuples & ~columns.agree(t, c) for c in candidates)

        for t in self._all_terms(d):
            if not represented(t):
                raise AssertionError(f"term {t} of depth {t.depth} is not represented in the block")


def _tuples(b: Block, columns: TermColumns) -> set[tuple[int, ...]]:
    return set(columns.tuples(columns.rows(b.tuples)))


def _compact(columns: TermColumns, b: Block, member: int) -> tuple[TermColumns, int]:
    """Rebase `b` onto a kernel over its own rows; returns the kernel and its
    membership mask, and sets `b.tuples` to the kernel's full mask.  The
    variable and witness columns and the parent kernel's mask `member` are
    lane selections at the block's rows (`TermColumns.select`), so no row
    number is built, and the mask's flags carry over as they are."""
    sub = columns.restrict(b.tuples, b.witnesses)
    member = pack(columns.select(b.tuples, member), columns.width)
    b.tuples = sub.full
    return sub, member


def _target_mask(columns: TermColumns, target: frozenset[tuple[int, ...]]) -> int:
    """The membership mask of `target` on the base kernel `columns`.

    A target smaller than `SCATTER_SHARE` of the kernel's rows, on byte
    lanes, has its codes scattered into flags over A^k (where those flags
    take no more bytes than the kernel's variable columns).  The rows
    below one repetition-free (k-1)-prefix p are p + (x,) for x not in p,
    one segment of the last variable column, and that segment's mask is
    one `translate` of it through p's n flags.  Other targets take
    `TermColumns.members`, a lookup per row."""
    n, k, length = columns.alg.size, columns.arity, columns.length
    if columns.width > 8 or len(target) >= SCATTER_SHARE * length or n**k > k * length:
        return columns.members(target)
    flags = bytearray(n**k)
    for c in tuple_codes(target, n):
        flags[c] = 0x80
    if k == 1:
        return int.from_bytes(flags, "little")
    m = n - k + 1  # rows below each prefix
    last = unpack(columns.column(Var(k - 1)), 8, length)
    segments = map(last.__getitem__, map(slice, range(0, length, m), range(m, length + m, m)))
    starts = [c * n for c in tuple_codes(list(itertools.permutations(range(n), k - 1)), n)]
    rows = map(flags.__getitem__, map(slice, starts, map(n.__add__, starts)))
    tables = map(bytearray.ljust, rows, itertools.repeat(256), itertools.repeat(b"\0"))
    return int.from_bytes(b"".join(map(bytes.translate, segments, tables)), "little")


def _single_target(
    columns: TermColumns,
    target: frozenset[tuple[int, ...]],
    stats: SplitStats,
    *,
    debug: bool = False,
    check_term_repr: bool = False,
    trace: Trace | None = None,
):
    """Run the block loop on one repetition-free target from `columns`, the
    kernel over the repetition-free k-tuples that all targets of arity k share.

    Returns (True, formula) or (False, (a, b, gamma)), the counterexample
    of the terminal mixed block.  Each pending block travels with its
    kernel and that kernel's membership mask.
    """
    alg, k, member = columns.alg, columns.arity, _target_mask(columns, target)
    checker = _DebugChecker(alg, target, k, check_term_repr) if debug else None
    initial = Block(columns.full, (), (), [Var(i) for i in range(k)], (), 0)
    stats.blocks_created += 1
    pending: deque[tuple[Block, TermColumns, int]] = deque([(initial, columns, member)])
    disjunct_blocks: list[tuple[Block, TermColumns]] = []
    while pending:
        b, columns, member = pending.popleft()
        if not b.tuples & ~member:
            disjunct_blocks.append((b, columns))
            stats.full_blocks += 1
            if trace:
                trace(f"full block of {b.tuples.bit_count()} tuples at step {b.step}")
            continue
        if not b.tuples & member:
            if trace:
                trace(f"disposable block of {b.tuples.bit_count()} tuples at step {b.step}")
            continue
        if b.is_terminal:
            if trace:
                trace(f"terminal mixed block of {b.tuples.bit_count()} tuples")
            if checker:
                checker.check_terminal(b, columns, member)
            return False, extract_counterexample(b, columns, member)
        if b.tuples.bit_count() < COMPACT_SHARE * columns.length:
            columns, member = _compact(columns, b, member)
        successors = process_mixed_block(alg, b, columns, stats)
        if checker:
            for s in successors:
                checker.check_block(s, columns)
            if len(successors) > 1:
                checker.check_split(successors, columns)
            checker.check_system(
                itertools.chain(((s, columns) for s in successors), ((p, c) for p, c, _ in pending)),
                disjunct_blocks,
            )
        pending.extendleft((s, columns, member) for s in reversed(successors))
    formulas = [b.formula for b, _ in disjunct_blocks]
    return True, (formulas[0] if len(formulas) == 1 else Or(formulas))


def splitting_decide(
    alg: Algebra,
    rel: Relation,
    *,
    debug: bool = False,
    check_term_repr: bool = False,
    stats: SplitStats | None = None,
    trace: Trace | None = None,
) -> Decision:
    """Decide definability of `rel` by block splitting.

    Positive answers carry a formula whose extension is exactly `rel`;
    negative answers carry a separating witness pair and subisomorphism.
    """
    rel.check_over(alg)
    if stats is None:
        stats = SplitStats()
    bundle = decompose(rel, alg.size)
    parts = []
    kernels: dict[int, TermColumns] = {}
    for target in bundle.targets:
        if trace:
            trace(f"target of arity {target.arity} with {len(target.tuples)} tuples")
        if target.arity not in kernels:
            kernels[target.arity] = TermColumns(alg, permutation_columns(alg.size, target.arity))
        ok, payload = _single_target(
            kernels[target.arity],
            target.tuples,
            stats,
            debug=debug,
            check_term_repr=check_term_repr,
            trace=trace,
        )
        if not ok:
            a, b, gamma = payload
            return NotDefinable(expand(target.pattern, a), expand(target.pattern, b), gamma)
        parts.append(recombine(target.pattern, payload))
    return Definable(assemble(parts))
