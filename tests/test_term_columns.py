import itertools
import random
import tracemalloc

import pytest

from qfdef import (
    FALSE,
    TRUE,
    Algebra,
    And,
    App,
    Eq,
    Not,
    Or,
    Relation,
    Var,
    check_decision,
    eval_formula,
    eval_term,
    extension,
    gen_random_algebra,
    gen_random_formula,
    merging_decide,
    splitting_decide,
)
from qfdef.columns import (
    EXTENSION_CHUNK,
    TermColumns,
    pack,
    permutation_columns,
    tuple_codes,
    unpack,
)

SIGNATURE = (("u", 1), ("f", 2), ("g", 3))


def transposed(tuples, k):
    """The k variable columns of a list of k-tuples."""
    return [[a[j] for a in tuples] for j in range(k)]


def values(kernel, t):
    """t's column on `kernel` as a list of its lane values."""
    return list(unpack(kernel.column(t), kernel.width, kernel.length))


def mask_of(kernel, rows):
    """The mask of the given rows: the top bit of each one's lane."""
    return sum(1 << kernel.width * (r + 1) - 1 for r in set(rows))


def with_constant(alg: Algebra, value: int) -> Algebra:
    """`alg` plus a constant `e`, declared with arity 0."""
    return Algebra(alg.size, [*((op.symbol, op.arity, op.table) for op in alg.ops), ("e", 0, [value])])


def random_term(alg: Algebra, k: int, rng: random.Random, depth: int):
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return Var(rng.randrange(k))
    if roll < 0.35:
        return App("e", ())  # the bare constant, as the parser reads it
    op = alg.ops[rng.randrange(len(alg.ops))]
    return App(op.symbol, tuple(random_term(alg, k, rng, depth - 1) for _ in range(op.arity)))


@pytest.mark.parametrize("seed", range(6))
def test_column_matches_eval_term(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    k = rng.randint(1, 3)
    alg = with_constant(gen_random_algebra(n, SIGNATURE, seed=seed), rng.randrange(n))
    space = [tuple(rng.randrange(n) for _ in range(k)) for _ in range(40)]
    kernel = TermColumns(alg, transposed(space, k))
    terms = [random_term(alg, k, rng, 3) for _ in range(60)]
    # every operation, with and without the constant rewrite, appears at least once
    terms += [App("u", (Var(0),)), App("f", (Var(0), Var(k - 1))), App("g", (Var(0),) * 3)]
    terms += [App("e", ()), App("e", (Var(0),)), App("f", (App("e", ()), Var(0)))]
    for t in terms:
        col = kernel.column(t)
        assert values(kernel, t) == [eval_term(alg, t, a) for a in space], t
        assert kernel.column(t) is col  # memoised


def test_holds_matches_eval_formula():
    for seed in range(6):
        alg = gen_random_algebra(4, SIGNATURE, seed=seed)
        space = list(itertools.product(range(4), repeat=2))
        kernel = TermColumns(alg, transposed(space, 2))
        phi, psi = gen_random_formula(alg, 2, seed=seed), gen_random_formula(alg, 2, seed=seed + 6)
        for f in (phi, TRUE, FALSE, Not(phi), And((phi, psi, Not(psi))), Or((psi, Not(phi), FALSE))):
            assert kernel.rows(kernel.holds(f)) == [i for i, a in enumerate(space) if eval_formula(alg, f, a)], f


def test_arity_mismatch_raises_like_eval_term():
    alg = with_constant(gen_random_algebra(3, SIGNATURE, seed=0), 1)
    kernel = TermColumns(alg, [[0, 2], [1, 2]])  # the tuples (0, 1) and (2, 2)
    for bad in (
        App("f", (Var(0),)),
        App("g", (Var(0), Var(1))),
        App("u", ()),
        App("u", (App("f", (Var(0),)),)),
        App("bogus", (Var(0),)),
        Var(2),
    ):
        with pytest.raises(ValueError) as from_eval:
            eval_term(alg, bad, (0, 1))
        with pytest.raises(ValueError) as from_kernel:
            kernel.column(bad)
        assert str(from_kernel.value) == str(from_eval.value)


def test_bare_constant_column_is_full_length():
    alg = Algebra(3, [("f", 2, [0] * 9), ("e", 0, [2])])
    kernel = TermColumns(alg, [[0, 1, 2]])
    assert values(kernel, App("e", ())) == [2, 2, 2]
    assert extension(alg, Eq(App("e", ()), Var(0)), 1).tuples == frozenset({(2,)})


def test_empty_space_gives_empty_columns():
    kernel = TermColumns(gen_random_algebra(2, SIGNATURE, seed=0), [[], []])
    assert values(kernel, App("f", (Var(0), Var(1)))) == []
    assert values(kernel, App("u", (Var(0),))) == []
    assert kernel.holds(Eq(Var(0), Var(1))) == kernel.holds(TRUE) == 0


def test_extension_across_chunk_boundaries():
    alg = gen_random_algebra(7, SIGNATURE, seed=3)
    space = list(itertools.product(range(7), repeat=3))
    assert len(space) > EXTENSION_CHUNK
    for seed in range(4):
        phi = gen_random_formula(alg, 3, seed=seed)
        expected = frozenset(a for a in space if eval_formula(alg, phi, a))
        assert extension(alg, phi, 3).tuples == expected


@pytest.mark.parametrize("n", [255, 256, 257, 300, 65536, 65537])
def test_masks_at_lane_width_boundaries(n):
    alg = Algebra(n, [("s", 1, [(x + 1) % n for x in range(n)]), ("h", 1, [x // 2 for x in range(n)])])
    # both ends of the universe and both sides of every power of two
    points = sorted({v for p in range(17) for v in (2**p - 1, 2**p, 2**p + 1) if v < n} | {n - 2, n - 1})
    space = list(itertools.product(points, repeat=2))
    kernel = TermColumns(alg, transposed(space, 2))
    assert kernel.width == (8 if n <= 256 else 16 if n <= 65536 else 32)
    assert kernel.full.bit_count() == len(space)
    x0, x1 = Var(0), Var(1)
    terms = [x0, x1, App("s", (x0,)), App("h", (x1,)), App("s", (App("h", (x0,)),))]
    for t in terms:
        assert values(kernel, t) == [eval_term(alg, t, a) for a in space], t
    for t, u in itertools.product(terms, repeat=2):
        ct, cu = values(kernel, t), values(kernel, u)
        assert kernel.rows(kernel.agree(t, u)) == [i for i in range(len(space)) if ct[i] == cu[i]]
    phi = Or((And((Eq(terms[2], x1), Not(Eq(x0, x1)))), Eq(terms[4], terms[3]), FALSE))
    assert kernel.rows(kernel.holds(phi)) == [i for i, a in enumerate(space) if eval_formula(alg, phi, a)]
    rows = [i for i, (x, y) in enumerate(space) if x < y]
    assert kernel.rows(kernel.members({space[i] for i in rows})) == rows


def test_pack_puts_value_i_in_lane_i():
    for width in (8, 16, 32):
        lanes = [0, 1, 2 ** (width - 1), 2**width - 1, 5]
        assert pack(lanes, width) == sum(v << width * i for i, v in enumerate(lanes))
        assert list(unpack(pack(lanes, width), width, len(lanes))) == lanes
        # high lanes holding 0 are still read back
        assert list(unpack(pack(lanes + [0, 0], width), width, len(lanes) + 2)) == lanes + [0, 0]


@pytest.mark.parametrize("n", [64, 257])
def test_an_evaluated_column_retains_one_lane_per_row(n):
    # 4,096 rows in 8-bit lanes at n = 64, 66,049 rows in 16-bit lanes at n = 257
    alg = Algebra(n, [("m", 2, [(x * y + x) % n for x in range(n) for y in range(n)])])
    kernel = TermColumns(alg, transposed(list(itertools.product(range(n), repeat=2)), 2))
    x0, x1 = Var(0), Var(1)
    kernel.agree(App("m", (x1, x0)), x0)  # a first evaluation builds the table rows the kernel keeps
    t = App("m", (x0, x1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kernel.agree(t, x0)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 1.25 * kernel.length * kernel.width // 8, retained


@pytest.mark.parametrize("n", [255, 256, 257, 300])
def test_splitting_at_lane_width_boundaries_agrees_with_merging(n):
    # under successor alone all elements share a type, and pairs have one per difference
    alg = Algebra(n, [("s", 1, [(x + 1) % n for x in range(n)])])
    steps = [(x, (x + d) % n) for x in range(n) for d in (1, 3)]
    cases = [
        (Relation.of(1, [(0,), (n - 1,)]), False, True),
        (Relation.of(2, steps), True, False),
        (Relation.of(2, steps + [(n - 2, 0)]), False, True),
    ]
    for rel, definable, with_merging in cases:
        d = splitting_decide(alg, rel)
        assert d.is_definable == definable
        check_decision(alg, rel, d)
        if with_merging:
            m = merging_decide(alg, rel)
            assert m.is_definable == definable
            check_decision(alg, rel, m)


@pytest.mark.parametrize("n,k", [(255, 2), (256, 2), (257, 2)] + [(n, k) for n in (3, 4, 5) for k in (1, 2, 3, 4)])
def test_product_space_rows_and_variable_columns(n, k):
    # 8-bit lanes up to n = 256, 16-bit lanes from 257
    tuples = list(itertools.product(range(n), repeat=k))
    alg = Algebra(n, [("s", 1, [(x + 1) % n for x in range(n)]), ("h", 1, [x // 2 for x in range(n)])])
    kernel = TermColumns(alg, transposed(tuples, k))
    assert kernel.length == len(tuples)
    assert kernel.width == (8 if n <= 256 else 16)
    for j in range(k):
        assert values(kernel, Var(j)) == [t[j] for t in tuples]
    assert kernel.tuples(range(len(tuples))) == tuples
    sample = random.Random(n * 10 + k).sample(range(len(tuples)), min(50, len(tuples)))
    assert kernel.tuples(sample) == [tuples[r] for r in sample]
    # the base-n codes merging numbers tuples by: sorted tuples code to 0, 1, 2, ...
    assert list(tuple_codes(tuples, n)) == list(range(len(tuples)))
    for t in (App("s", (Var(k - 1),)), App("h", (App("s", (Var(0),)),))):
        assert [values(kernel, t)[r] for r in sample] == [eval_term(alg, t, tuples[r]) for r in sample]
    assert kernel.rows(kernel.members({tuples[r] for r in sample})) == sorted(sample)
    # restricting to a mask selects the variable columns and the seeded ones at its rows, ascending
    sub, ascending = kernel.restrict(mask_of(kernel, sample), [Var(k - 1)]), sorted(sample)
    assert sub.tuples(range(len(sample))) == [tuples[r] for r in ascending]
    assert values(sub, Var(k - 1)) == [tuples[r][k - 1] for r in ascending]
    assert sub.rows(sub.members({tuples[r] for r in ascending[::2]})) == list(range(0, len(sample), 2))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 257])
def test_permutation_columns_transpose_the_permutations(n):
    # bytes up to n = 256, lists above it for 16-bit lanes, there at k = 2 only
    for k in range(1, n + 1) if n < 257 else [2]:
        columns = permutation_columns(n, k)
        assert all(isinstance(col, bytes if n <= 256 else list) for col in columns)
        assert [list(col) for col in columns] == transposed(list(itertools.permutations(range(n), k)), k)


@pytest.mark.parametrize("n", [255, 256, 257])
def test_kernels_from_columns_match_the_references(n, monkeypatch):
    # a kernel over A**2, splitting's base kernel over the repetition-free
    # pairs, kernels restricted from each to a sparse and to a dense set of
    # rows, one over shuffled pairs, and three of extension's chunks, at both
    # lane widths: on byte lanes a term of at most one variable takes its
    # table off the kernel's diagonal, and a binary application with one
    # argument constant on each run of x0 takes a translate per run where
    # runs are long; at 16-bit lanes every application gathers
    alg = Algebra(
        n,
        [
            ("s", 1, [(x + 1) % n for x in range(n)]),
            ("u", 1, [x // 2 for x in range(n)]),
            ("m", 2, [(x * y + x) % n for x in range(n) for y in range(n)]),
            ("e", 0, [n - 2]),
        ],
    )
    x0, x1, e = Var(0), Var(1), App("e", ())
    terms = [x0, x1, App("s", (x0,)), App("m", (x0, x1)), App("m", (App("s", (x1,)), x0)), App("m", (x1, x1))]
    # one variable, or none: each column is a relabelling of x0's or x1's
    lone = [
        App("m", (App("m", (x0, x0)), x0)),
        App("m", (App("s", (x1,)), App("m", (x1, e)))),
        App("s", (App("m", (e, e)),)),
        App("m", (e, App("s", (e,)))),
        App("e", (x1,)),
    ]
    # two variables, with one argument of x0 alone or of no variable, and one with neither
    by_runs = [
        App("m", (App("s", (x0,)), App("u", (x1,)))),
        App("m", (App("u", (x1,)), App("s", (x0,)))),
        App("m", (e, x1)),
        App("m", (App("m", (x1, x0)), e)),
        App("m", (x1, App("m", (x0, x1)))),
    ]
    rng = random.Random(n)
    kernels = []  # (kernel, its tuples, whether its rows fall into long runs of x0)
    pairs, perms = list(itertools.product(range(n), repeat=2)), list(itertools.permutations(range(n), 2))
    bases = [TermColumns(alg, transposed(pairs, 2)), TermColumns(alg, permutation_columns(n, 2))]
    for tuples, kernel in zip((pairs, perms), bases):
        assert kernel.tuples(range(kernel.length)) == tuples
        kernels.append((kernel, tuples, True))
        for rows, long_runs in ((sorted(rng.sample(range(len(tuples)), 500)), False), (range(0, len(tuples), 3), True)):
            sub = kernel.restrict(mask_of(kernel, rows), terms[2:4] + lone[:1] + by_runs[:1])
            kernels.append((sub, [tuples[r] for r in rows], long_runs))
    shuffled = rng.sample(pairs, 3000)
    kernels.append((TermColumns(alg, transposed(shuffled, 2)), shuffled, False))
    chunks = []
    holds = TermColumns.holds

    def spy_holds(kernel, phi):
        if not chunks or chunks[-1] is not kernel:  # `holds` recurses into phi's children
            chunks.append(kernel)
        return holds(kernel, phi)

    monkeypatch.setattr(TermColumns, "holds", spy_holds)
    phi = Or([Eq(t, x0) for t in lone])
    assert extension(alg, phi, 2).tuples == frozenset(a for a in pairs if eval_formula(alg, phi, a))
    monkeypatch.undo()
    assert len(chunks) == -(-n * n // EXTENSION_CHUNK)
    # a chunk's 256 rows are too few to pay for m's translate tables, so chunks gather and never look for runs
    kernels += [(c, c.tuples(range(c.length)), False) for c in (chunks[0], chunks[1], chunks[-1])]
    for kernel, tuples, long_runs in kernels:
        assert kernel.length == len(tuples)
        assert kernel.tuples(range(len(tuples))) == tuples
        sample = rng.sample(range(len(tuples)), min(200, len(tuples)))
        assert kernel.tuples(sample) == [tuples[r] for r in sample]
        for t in terms:
            col = values(kernel, t)
            assert [col[r] for r in sample] == [eval_term(alg, t, tuples[r]) for r in sample], t
        for t in lone + by_runs:
            assert values(kernel, t) == [eval_term(alg, t, a) for a in tuples], t
        # runs serve byte lanes only, and the shuffled and the sparse kernels gather
        assert bool(kernel._runs) == (long_runs and n <= 256)
        for t, u in itertools.combinations(terms, 2):
            ct, cu = values(kernel, t), values(kernel, u)
            assert kernel.rows(kernel.agree(t, u)) == [r for r in range(len(tuples)) if ct[r] == cu[r]]
        target = frozenset(rng.sample(tuples, min(300, len(tuples) // 2))) | {(0, 1), (n - 1, n - 2)}
        assert kernel.rows(kernel.members(target)) == [r for r, a in enumerate(tuples) if a in target]
    # the base kernels built m's translate tables; the chunks, which share no tables with them, did not
    assert [("m", "runs") in k._table_rows for k in bases + chunks] == [n <= 256] * 2 + [False] * len(chunks)


@pytest.mark.parametrize("n", [255, 256, 257])
def test_select_and_restrict_match_a_row_by_row_reference(n):
    # up to 255 elements, values up to 0xFE, the unselected lanes are set to 0xFF and deleted,
    # at 256 the byte lanes are compressed, at 257 the 16-bit ones
    alg = Algebra(n, [("s", 1, [(x + 1) % n for x in range(n)]), ("m", 2, [(x * y + x) % n for x in range(n) for y in range(n)])])
    rng = random.Random(n)
    space = sorted(rng.sample(list(itertools.product(range(n), repeat=2)), 2000))
    space += [(n - 1, n - 1), (n - 1, 0)]  # the largest value in both columns
    kernel = TermColumns(alg, transposed(space, 2))
    x0, x1 = Var(0), Var(1)
    terms = [x0, x1, App("s", (x1,)), App("m", (x1, x0))]
    target = frozenset(rng.sample(space, 700))
    member = kernel.members(target)
    for rows in ([], [0], sorted(rng.sample(range(len(space)), 900)), list(range(len(space) - 5, len(space))), range(len(space))):
        mask = mask_of(kernel, rows)
        for t in terms:
            assert list(kernel.select(mask, kernel.column(t))) == [values(kernel, t)[r] for r in rows], t
        flags = [0x80 << kernel.width - 8 if space[r] in target else 0 for r in rows]
        assert list(kernel.select(mask, member)) == flags
        sub = kernel.restrict(mask, terms[2:])
        assert sub.length == len(rows) and sub.full.bit_count() == len(rows)
        assert sub.tuples(range(sub.length)) == [space[r] for r in rows]
        for t in terms:
            assert values(sub, t) == [eval_term(alg, t, space[r]) for r in rows], t
        assert pack(kernel.select(mask, member), kernel.width) == sub.members(target)


@pytest.mark.parametrize("n", [128, 129])
def test_agree_matches_eval_term_on_both_sides_of_the_top_lane_bit(n):
    # up to n = 128 no value sets a lane's top bit, and `agree` adds without masking
    alg = Algebra(n, [("s", 1, [(x + 1) % n for x in range(n)]), ("r", 1, [n - 1 - x for x in range(n)])])
    space = list(itertools.product(range(n), repeat=2))
    kernel = TermColumns(alg, transposed(space, 2))
    x0, x1 = Var(0), Var(1)
    terms = [x0, x1, App("s", (x0,)), App("r", (x1,)), App("r", (App("s", (x0,)),))]
    for t, u in itertools.combinations(terms, 2):
        expected = [i for i, a in enumerate(space) if eval_term(alg, t, a) == eval_term(alg, u, a)]
        assert kernel.rows(kernel.agree(t, u)) == expected, (t, u)
