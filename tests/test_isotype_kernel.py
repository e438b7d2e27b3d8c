"""The rank-coded `iso_type` kernel against a reference closure.

The reference walks `positions`, a test-local enumeration of the
canonical order, position by position, evaluates through
`Operation.value` and records the index blocks of equal values.  The
kernel must agree with it on key (as a partition), universe and depth.
The kernel's row order (`_prefixes`) and the term layers of
`generate_terms` are both tied to `positions` as well.
"""

import itertools
import random

import pytest

from qfdef import gen_abelian_group, gen_random_algebra, iso_type, sg
from qfdef.algebra import Algebra
from qfdef.columns import generate_terms
from qfdef.terms import App, Var
from qfdef.isotype import _byte_rows, _close_wide, _Closure, _prefixes, _reader


def positions(alg, base, fresh):
    """One closure round in the canonical order, as (op, index tuples):
    operations by arity, in declared order among equal arities (a stable
    sort), each over the tuples of `base`, lexicographically, that use a
    position in `fresh`."""
    for op in sorted(alg.ops, key=lambda op: op.arity):
        yield op, [lt for lt in itertools.product(base, repeat=op.arity) if any(l in fresh for l in lt)]


def reference_iso_type(alg, a):
    """(partition, universe, depth) of `a` by the position-indexed closure."""
    a = tuple(a)
    values: list[int] = []
    blocks: list[list[int]] = []
    block_of_value: dict[int, int] = {}
    firsts: list[int] = []
    produced = a
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
        produced = [
            op.value([values[l] for l in lt])
            for op, index_tuples in positions(alg, firsts, set(firsts[known:]))
            for lt in index_tuples
        ]
    return tuple(map(tuple, blocks)), tuple(values[j] for j in firsts), depth


def kernel_algebras():
    """Seeded random algebras with arity-0, 1, 2, 3 and 4 symbols."""
    yield gen_random_algebra(5, signature=(("c", 0), ("u", 1), ("f", 2)), seed=11)
    yield gen_random_algebra(4, signature=(("f", 2), ("h", 3)), seed=12)
    yield gen_random_algebra(4, signature=(("c", 0), ("h", 3), ("u", 1)), seed=13)
    yield gen_random_algebra(7, signature=(("u", 1), ("v", 1)), seed=14)
    yield gen_random_algebra(6, signature=(("f", 2), ("g", 3)), seed=15)
    yield gen_random_algebra(3, signature=(("q", 4), ("f", 2)), seed=16)


def test_kernel_matches_reference_closure():
    for alg in kernel_algebras():
        for k in (1, 2, 3):
            # every k-tuple, repeated entries included
            for a in itertools.product(range(alg.size), repeat=k):
                sig = iso_type(alg, a)
                assert (sig.partition, sig.universe, sig.depth) == reference_iso_type(alg, a), (alg, a)
                assert set(sig.universe) == sg(alg, a)
                assert len(sig.key) == sum(map(len, sig.partition))


def test_byte_and_wide_closures_agree():
    # iso_type sends only algebras of more than 256 elements to _close_wide
    for alg in kernel_algebras():
        closure = _Closure(alg)
        for a in itertools.product(range(alg.size), repeat=2):
            key, universe, depth = closure.close(a)
            assert (tuple(key), universe, depth) == _close_wide(alg, a), (alg, a)


@pytest.mark.parametrize("n", [256, 257])
def test_closure_at_the_byte_boundary_matches_reference(n):
    # x // 2, max and & keep sg(a) small, so the reference stays cheap
    alg = Algebra(
        n,
        [
            ("u", 1, [x // 2 for x in range(n)]),
            ("m", 2, [max(x, y) for x in range(n) for y in range(n)]),
            ("a", 2, [x & y for x in range(n) for y in range(n)]),
        ],
    )
    rng = random.Random(3)
    for a in [(n - 1,), (n - 1, 0), (255, 254)] + [tuple(rng.sample(range(n), rng.randint(1, 3))) for _ in range(12)]:
        sig = iso_type(alg, a)
        assert (sig.partition, sig.universe, sig.depth) == reference_iso_type(alg, a), a


def test_memo_serves_only_the_last_algebra():
    # two algebras of one size with different tables, one of them ternary,
    # and a copy of the first: every answer must ignore the call history
    first = gen_random_algebra(5, signature=(("f", 2), ("h", 3)), seed=21)
    second = gen_random_algebra(5, signature=(("u", 1), ("f", 2)), seed=22)
    copy = Algebra(5, [(op.symbol, op.arity, op.table) for op in first.ops])
    algebras = [first, second, copy]
    expected = {}
    for alg in algebras:
        for a in itertools.permutations(range(5), 2):
            expected[id(alg), a] = reference_iso_type(alg, a)
    rng = random.Random(5)
    tuples = list(itertools.permutations(range(5), 2))
    for _ in range(600):
        alg, a = rng.choice(algebras), rng.choice(tuples)
        for _ in range(rng.randint(1, 3)):  # runs of calls on one algebra too
            sig = iso_type(alg, a)
            assert (sig.partition, sig.universe, sig.depth) == expected[id(alg), a], (alg, a)
            a = rng.choice(tuples)


def _layer(alg, witnesses, fresh):
    """The term layer `positions` lists over `witnesses` for the fresh positions."""
    return [
        App(op.symbol, tuple(witnesses[l] for l in lt))
        for op, tuples in positions(alg, range(len(witnesses)), fresh)
        for lt in tuples
    ]


def test_prefix_rows_follow_applications_order():
    # both read forms of `_prefixes`: table slices through `_reader`, as in
    # `_close_wide`, and 256-byte rows through `translate`, as in `_Closure`;
    # and `generate_terms` over variables, its new witnesses a suffix of the
    # witnesses, as in a closure round, or any other nonempty subset
    rng = random.Random(7)
    n = 6
    for r in (1, 2, 3, 4):
        alg = Algebra(n, [("f", r, [0] * n**r)])
        offsets = tuple(range(n**r))  # a table whose every entry is its own offset
        byte_rows = _byte_rows(tuple(off % 256 for off in offsets), n)
        for _ in range(40):
            m = rng.randint(1, n)
            known = rng.randint(0, m - 1)
            values = rng.sample(range(n), m)
            (_, index_tuples), = positions(alg, range(m), set(range(known, m)))
            expected = []
            for lt in index_tuples:
                off = 0
                for l in lt:
                    off = off * n + values[l]
                expected.append(off)
            prefixes = _prefixes(values, known, r, n, _reader(values[known:]), _reader(values))
            got = [x for row, read in prefixes for x in read(offsets[row * n : row * n + n])]
            assert got == expected, (r, values, known)
            universe = bytes(values)
            prefixes = _prefixes(universe, known, r, n, universe[known:].translate, universe.translate)
            got = b"".join(read(byte_rows[row]) for row, read in prefixes)
            assert list(got) == [off % 256 for off in expected], (r, values, known)
            witnesses = [Var(i) for i in range(m)]
            for fresh in (set(range(known, m)), set(rng.sample(range(m), rng.randint(1, m)))):
                new = [witnesses[l] for l in sorted(fresh)]
                assert generate_terms(alg, witnesses, new) == _layer(alg, witnesses, fresh), (r, m, fresh)
    # several operations of each arity, declared out of arity order
    mixed = gen_random_algebra(2, signature=(("q", 4), ("f", 2), ("u", 1), ("g", 2), ("h", 3)), seed=0)
    for m in (1, 2, 3):
        witnesses = [Var(i) for i in range(m)]
        for fresh in (set(range(m)), {m - 1}, {0}):
            new = [witnesses[l] for l in sorted(fresh)]
            assert generate_terms(mixed, witnesses, new) == _layer(mixed, witnesses, fresh), (m, fresh)


def test_key_equality_is_partition_equality():
    algebras = [
        gen_random_algebra(5, signature=(("f", 2),), seed=6),
        gen_random_algebra(6, signature=(("c", 0), ("u", 1)), seed=0),
        gen_abelian_group((2, 4)),
    ]
    for alg in algebras:
        tuples = list(itertools.permutations(range(alg.size), 2))
        keys = {a: iso_type(alg, a).key for a in tuples}
        partitions = {a: reference_iso_type(alg, a)[0] for a in tuples}
        # the types must separate some pairs and join others for the check to bite
        assert 1 < len(set(keys.values())) < len(tuples)
        for a, b in itertools.product(tuples, repeat=2):
            assert (keys[a] == keys[b]) == (partitions[a] == partitions[b]), (alg, a, b)


@pytest.mark.parametrize("a", [(-1, 2), (0, 8)])
def test_out_of_range_entries_rejected(a):
    with pytest.raises(ValueError, match="outside"):
        iso_type(gen_abelian_group((2, 4)), a)
