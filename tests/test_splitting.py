import itertools
import math
import random

import pytest

from qfdef import (
    FALSE,
    TRUE,
    Algebra,
    And,
    App,
    Eq,
    Not,
    Relation,
    SplitStats,
    Var,
    check_decision,
    diamond_lattice,
    extension,
    gen_abelian_group,
    gen_boolean_algebra,
    gen_random_algebra,
    gen_random_formula,
    generate_terms,
    iso_type,
    merging_decide,
    oracle_definable,
    process_mixed_block,
    splitting_decide,
)
import qfdef.splitting
from qfdef.columns import TermColumns, permutation_columns
from qfdef.isotype import iso_type_terms
from qfdef.splitting import Block, _DebugChecker, extract_counterexample

from conftest import plant_negative, random_instance
from test_golden import golden_instances


def z2():
    return Algebra(2, [("add", 2, [0, 1, 1, 0])])


def kernel(alg, tuples):
    """A kernel over the given tuples, numbered in sorted order."""
    return TermColumns(alg, [list(c) for c in zip(*sorted(tuples))])


def tuples_of(columns, mask):
    return set(columns.tuples(columns.rows(mask)))


def initial_block(columns, k):
    return Block(columns.full, (), (), [Var(i) for i in range(k)], (), 0)


X0, X1 = Var(0), Var(1)


def test_first_pop_creates_single_witness_block():
    columns = kernel(z2(), [(0, 1), (1, 0)])
    stats = SplitStats()
    succ = process_mixed_block(z2(), initial_block(columns, 2), columns, stats)
    assert len(succ) == 1
    s = succ[0]
    assert s.witnesses == (X0,)
    assert s.new_witnesses == (X0,)
    assert s.terms_to_process == [X1]
    assert s.formula == TRUE  # lone successor keeps the parent formula
    assert s.step == 1
    assert s.tuples == columns.full
    assert (stats.steps, stats.blocks_created) == (1, 1)


def test_second_pop_disagrees_with_first_witness():
    columns = kernel(z2(), [(0, 1), (1, 0)])
    stats = SplitStats()
    (b1,) = process_mixed_block(z2(), initial_block(columns, 2), columns, stats)
    (b2,) = process_mixed_block(z2(), b1, columns, stats)
    # x1 differs from x0 on both tuples, so only the complement block arises
    assert b2.witnesses == (X0, X1)
    assert b2.new_witnesses == (X0, X1)
    assert b2.terms_to_process == []
    assert b2.formula == TRUE
    assert tuples_of(columns, b2.tuples) == {(0, 1), (1, 0)}


def test_refill_generates_next_term_layer():
    alg = z2()
    columns = kernel(alg, [(0, 1), (1, 0)])
    stats = SplitStats()
    b = Block(columns.full, (X0,), (X0,), [], (), 3)
    succ = process_mixed_block(alg, b, columns, stats)
    assert succ == [b]
    assert b.terms_to_process == [App("add", (X0, X0))]
    assert b.new_witnesses == ()
    assert b.step == 3  # refill pops nothing
    assert b.tuples == columns.full
    assert (stats.refills, stats.steps, stats.max_depth) == (1, 0, 1)


def test_split_produces_eq_and_complement_blocks(diamond):
    # on the diamond, meet(x0,x1) agrees with x0 exactly on the order pairs
    columns = kernel(diamond, itertools.permutations(range(4), 2))
    t = App("meet", (X0, X1))
    b = Block(columns.full, (X0, X1), (), [t], (), 0)
    stats = SplitStats()
    succ = process_mixed_block(diamond, b, columns, stats)
    assert [tuples_of(columns, s.tuples) for s in succ] == [
        {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)},  # meet = x0: below
        {(1, 0), (2, 0), (3, 0), (3, 1), (3, 2)},  # meet = x1: above
        {(1, 2), (2, 1)},  # incomparable pairs
    ]
    assert succ[0].formula == Eq(t, X0)
    assert succ[1].formula == Eq(t, X1)
    comp = succ[2]
    assert comp.witnesses == (X0, X1, t)
    assert comp.new_witnesses == (t,)
    assert comp.formula == And((Not(Eq(t, X0)), Not(Eq(t, X1))))
    assert (stats.steps, stats.blocks_created) == (1, 3)


def test_terminal_block_rejected():
    columns = kernel(z2(), [(0, 1)])
    b = Block(columns.full, (X0,), (), [], (), 0)
    with pytest.raises(ValueError, match="terminal"):
        process_mixed_block(z2(), b, columns, SplitStats())


def test_generate_terms_order():
    alg = z2()
    terms = generate_terms(alg, (X0, X1), (X0, X1))
    assert terms == [
        App("add", (X0, X0)),
        App("add", (X0, X1)),
        App("add", (X1, X0)),
        App("add", (X1, X1)),
    ]


def test_generate_terms_requires_new_witness():
    with pytest.raises(ValueError):
        generate_terms(z2(), (X0,), ())


def test_generate_terms_only_fresh_combinations():
    alg = z2()
    terms = generate_terms(alg, (X0, X1), (X1,))
    # (0,0) is skipped: no fresh argument
    assert terms == [
        App("add", (X0, X1)),
        App("add", (X1, X0)),
        App("add", (X1, X1)),
    ]


def test_generate_terms_unary_signature():
    alg = Algebra(2, [("f", 1, [1, 0]), ("g", 1, [0, 0])])
    assert generate_terms(alg, (X0,), (X0,)) == [App("f", (X0,)), App("g", (X0,))]


def test_order_relation_formula(diamond, diamond_order):
    stats = SplitStats()
    d = splitting_decide(diamond, diamond_order, debug=True, stats=stats)
    assert d.is_definable
    assert extension(diamond, d.formula, 2).tuples == diamond_order.tuples
    assert stats.blocks_created >= 2


def test_rprime_counterexample(diamond, diamond_rprime):
    d = splitting_decide(diamond, diamond_rprime, debug=True)
    assert not d.is_definable
    assert d.witness_in in diamond_rprime.tuples
    assert d.witness_out not in diamond_rprime.tuples
    assert d.gamma.map_tuple(d.witness_in) == d.witness_out
    assert d.gamma.is_valid(diamond)


def test_full_target_answers_without_splitting(diamond):
    full = Relation.of(2, itertools.product(range(4), repeat=2))
    stats = SplitStats()
    d = splitting_decide(diamond, full, debug=True, stats=stats)
    assert d.is_definable
    assert stats.steps == 0 and stats.refills == 0
    assert extension(diamond, d.formula, 2).tuples == full.tuples


def test_empty_relation(diamond):
    d = splitting_decide(diamond, Relation.of(2, []))
    assert d.is_definable and d.formula == FALSE


def test_extract_counterexample_unit(diamond):
    # a terminal mixed block built by hand from two isomorphic pairs
    columns = kernel(diamond, [(1, 3), (2, 3)])
    block = Block(columns.full, (X0, X1), (), [], (), 5)
    member = columns.members({(1, 3)})
    a, b, gamma = extract_counterexample(block, columns, member)
    assert a == (1, 3) and b == (2, 3)
    assert gamma.map_tuple(a) == b
    assert gamma.is_valid(diamond)
    with pytest.raises(ValueError, match="pure"):
        extract_counterexample(block, columns, columns.full)
    with pytest.raises(ValueError, match="pure"):
        extract_counterexample(block, columns, 0)
    live = Block(columns.full, (X0,), (), [X1], (), 0)
    with pytest.raises(ValueError, match="terminal"):
        extract_counterexample(live, columns, member)


def test_extract_counterexample_reads_the_least_rows_of_a_restricted_kernel():
    # a terminal block holds tuples of one type: take a largest type of
    # boolean-16 triples (36 rows), keep every other row, split it both ways
    alg = gen_boolean_algebra(4)
    columns = TermColumns(alg, permutation_columns(alg.size, 3))
    by_type: dict = {}
    for row, a in enumerate(columns.tuples(range(columns.length))):
        by_type.setdefault(iso_type(alg, a).key, []).append(row)
    rows = max(by_type.values(), key=len)[1::2]
    sub = columns.restrict(sum(1 << 8 * r + 7 for r in rows), [X0])
    space = sub.tuples(range(sub.length))
    assert space == sorted(space) and len(space) >= 6
    target = frozenset(space[1::3])
    # the witnesses of a terminal block are closed: take the closure's terms
    # at the first appearance of each value, which list sg(a) for every a here
    sig, terms = iso_type_terms(alg, space[0])
    block = Block(sub.full, tuple(terms[p[0]] for p in sig.partition), (), [], (), 0)
    # x0, x1, x2 alone are not closed, and only the cross-check sees it
    unclosed = Block(sub.full, (X0, X1, Var(2)), (), [], (), 0)
    checker = _DebugChecker(alg, target, 3, False)
    for inside in (target, frozenset(space) - target):
        member = sub.members(inside)
        a, b, gamma = extract_counterexample(block, sub, member)
        assert a == min(inside) and b == min(set(space) - inside)
        assert gamma.map_tuple(a) == b and gamma.is_valid(alg)
        checker.check_terminal(block, sub, member)
        assert not extract_counterexample(unclosed, sub, member)[2].is_valid(alg)
        with pytest.raises(AssertionError, match="canonical map"):
            checker.check_terminal(unclosed, sub, member)


def _repeating_arity_3(i):
    """An arity-3 relation in which every tuple repeats an entry, so that its
    widest target is narrower than its arity: the extension of a random
    formula and x0=x2 for even i, a random set of such tuples for odd i."""
    rng = random.Random(i)
    alg = [gen_abelian_group((2, 2)), diamond_lattice(), gen_random_algebra(4, signature=(("f", 1),), seed=i)][i % 3]
    if i % 2 == 0:
        return alg, extension(alg, And((gen_random_formula(alg, 3, seed=i), Eq(Var(0), Var(2)))), 3)
    space = [a for a in itertools.product(range(alg.size), repeat=3) if len(set(a)) < 3]
    return alg, Relation.of(3, rng.sample(space, rng.randint(1, len(space))))


def test_agreement_with_oracle():
    instances = [random_instance(i, max_size=4, max_arity=3) for i in range(60)]
    instances += [_repeating_arity_3(i) for i in range(24)]
    for i, (alg, rel) in enumerate(instances):
        expected = oracle_definable(alg, rel).is_definable
        got = splitting_decide(alg, rel, debug=True)
        assert got.is_definable == expected, (i, sorted(rel.tuples))
        if got.is_definable:
            assert extension(alg, got.formula, rel.arity).tuples == rel.tuples, i
        else:
            assert got.gamma.is_valid(alg)
            assert got.witness_in in rel.tuples and got.witness_out not in rel.tuples
            assert got.gamma.map_tuple(got.witness_in) == got.witness_out


def test_term_representation_invariants_exhaustive():
    # exhaustive witness/pending-term representation checks on small inputs
    for i in range(8):
        alg, rel = random_instance(500 + i, max_size=4, max_arity=2)
        splitting_decide(alg, rel, debug=True, check_term_repr=True)


def test_debug_checker_rejects_a_split_of_isomorphic_tuples(diamond):
    # swapping u and u' is an automorphism, so (bottom, u) and (bottom, u') share a type
    space = list(itertools.permutations(range(4), 2))
    columns = TermColumns(diamond, [list(c) for c in zip(*space)])
    checker = _DebugChecker(diamond, frozenset(), 2, False)

    def block(t):
        return Block(columns.members({t}), (), (), [], (), 1)

    with pytest.raises(AssertionError, match="isomorphic"):
        checker.check_split([block((0, 1)), block((0, 2))], columns)
    # tuples of different types may be separated
    checker.check_split([block((0, 1)), block((1, 2))], columns)


def test_compaction_changes_no_decision_trace_or_counter(monkeypatch):
    instances = [(alg, rel) for _, alg, rel in golden_instances()]
    for alg in (gen_abelian_group((2, 4)), gen_boolean_algebra(3)):
        for k in (2, 3):
            for seed in range(3):
                rel = extension(alg, gen_random_formula(alg, k, seed=seed), k)
                instances.append((alg, plant_negative(alg, rel, random.Random(seed))))
    instances += [random_instance(900 + i, max_size=5, max_arity=3) for i in range(20)]

    def run(debug=False):
        out = []
        for alg, rel in instances:
            stats, lines = SplitStats(), []
            d = splitting_decide(alg, rel, stats=stats, trace=lines.append, debug=debug)
            out.append((d, stats, lines))
        return out

    default = run()
    assert sum(not d.is_definable for d, _, _ in default) >= 20
    monkeypatch.setattr(qfdef.splitting, "COMPACT_SHARE", 0)  # never
    assert run() == default
    monkeypatch.setattr(qfdef.splitting, "COMPACT_SHARE", 2)  # at every popped mixed block
    assert run() == default
    assert run(debug=True)[-20:] == default[-20:]


@pytest.mark.parametrize(
    "n,k", [(5, 1), (5, 2), (8, 2), (16, 2), (3, 3), (4, 4), (5, 5), (4, 3), (6, 3), (6, 4)]
)
def test_every_splitting_kernel_holds_only_the_repetition_free_rows(n, k, monkeypatch):
    # A**k has n**k rows and n!/(n-k)! of them are repetition-free (20 of 25
    # at n = 5, k = 2, 120 of 3125 at n = k = 5); both algebras have
    # automorphisms, so planted negatives exist
    base, compacted, deciding = [], [], []
    single_target, compact, rows = qfdef.splitting._single_target, qfdef.splitting._compact, TermColumns.rows

    def spy_single_target(columns, *args, **kwargs):
        base.append(columns)
        return single_target(columns, *args, **kwargs)

    def spy_rows(columns, mask):
        # an int per kernel row: only `extension`, the debug checks and tests may list rows
        if deciding:
            raise AssertionError("TermColumns.rows called by a decision without debug")
        return rows(columns, mask)

    def spy_compact(parent, b, member):
        w, mask = parent.width, b.tuples & member
        tuples = parent.tuples(range(parent.length))
        inside = [a for r, a in enumerate(tuples) if mask >> w * r + w - 1 & 1]
        columns, compacted_member = compact(parent, b, member)
        compacted.append(columns)
        # the mask selected from the parent's is the block's members of the target
        assert compacted_member == columns.members(frozenset(inside))
        return columns, compacted_member

    monkeypatch.setattr(qfdef.splitting, "_single_target", spy_single_target)
    monkeypatch.setattr(qfdef.splitting, "_compact", spy_compact)
    monkeypatch.setattr(TermColumns, "rows", spy_rows)
    monkeypatch.setattr(qfdef.splitting, "COMPACT_SHARE", 2)  # at every popped mixed block
    succ = Algebra(n, [("s", 1, [(x + 1) % n for x in range(n)])])
    for alg in (gen_abelian_group((n,)), succ):
        for seed in range(3):
            rel = extension(alg, gen_random_formula(alg, k, seed=seed), k)
            for target in (rel, plant_negative(alg, rel, random.Random(seed))):
                if target is None:
                    continue
                deciding.append(True)
                d = splitting_decide(alg, target)
                deciding.pop()
                check_decision(alg, target, d)
                assert d.is_definable == merging_decide(alg, target).is_definable
    # decompose also yields targets of lower arity, from tuples with a repeated entry
    assert k in {columns.arity for columns in base} and compacted
    for columns in base:
        perms = list(itertools.permutations(range(n), columns.arity))
        assert columns.length == len(perms)
        assert columns.tuples(range(columns.length)) == perms
        target = frozenset(perms[::3])
        assert columns.tuples(columns.rows(columns.members(target))) == sorted(target)
        # the mask splitting starts from, for a target of one tuple and for sizes on
        # either side of the switch from scattering tuple codes to `members`
        at = math.ceil(qfdef.splitting.SCATTER_SHARE * columns.length)
        rng = random.Random(columns.length)
        for size in sorted({1, at - 1, at, at + 1} & set(range(1, columns.length + 1))):
            target = frozenset(rng.sample(perms, size))
            assert qfdef.splitting._target_mask(columns, target) == columns.members(target), size
    for columns in compacted:
        space = columns.tuples(range(columns.length))
        assert space == sorted(space) and all(len(set(a)) == columns.arity for a in space)
