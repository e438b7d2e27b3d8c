"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import functools
import itertools
import random
import statistics
import time

from qfdef import (
    FALSE,
    Relation,
    decompose,
    diamond_lattice,
    extension,
    gen_abelian_group,
    gen_random_algebra,
    gen_random_formula,
    gen_random_graph,
    graph_oracle_definable,
    graph_star,
    iso_type,
    merging_decide,
    oracle_definable,
    splitting_decide,
)
from qfdef.splitting import SplitStats

from conftest import DIAMOND_LEQ

DIAMOND = diamond_lattice()
ORDER = Relation(2, DIAMOND_LEQ)
RPRIME = Relation.of(2, [(0, 1), (0, 2), (0, 3)])


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                detail = fn()
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {title}")
                raise
            line = f"ACCEPTANCE {number}: PASS - {title}"
            if detail:
                line += f" ({detail})"
            print(line)

        return run

    return wrap


def _assert_valid_counterexample(alg, rel, decision):
    assert not decision.is_definable
    assert decision.witness_in in rel.tuples
    assert decision.witness_out not in rel.tuples
    assert decision.gamma.map_tuple(decision.witness_in) == decision.witness_out
    assert decision.gamma.is_valid(alg)


@criterion(1, "diamond lattice examples, exact")
def test_acceptance_1():
    t0 = time.perf_counter()
    for decide in (merging_decide, splitting_decide, oracle_definable):
        assert decide(DIAMOND, ORDER).is_definable
    split = splitting_decide(DIAMOND, ORDER)
    assert extension(DIAMOND, split.formula, 2).tuples == DIAMOND_LEQ
    for decide in (merging_decide, splitting_decide, oracle_definable):
        _assert_valid_counterexample(DIAMOND, RPRIME, decide(DIAMOND, RPRIME))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    return f"{elapsed * 1000:.0f} ms"


EXPECTED_PARTITION = (
    (0, 3, 12, 14, 18, 21, 24),
    (1, 7, 16, 17, 19, 22, 25),
    (2, 4, 5, 6, 8, 9, 10, 11, 20, 23, 26),
    (13, 15, 27, 28, 29, 30, 31, 32, 33, 34),
)


@criterion(2, "canonical type of (u,u',bottom), exact trace")
def test_acceptance_2():
    sig_a = iso_type(DIAMOND, (1, 2, 0))
    assert sig_a.partition == EXPECTED_PARTITION
    assert sig_a.universe == (1, 2, 0, 3)  # u, u', bottom, top
    sig_b = iso_type(DIAMOND, (2, 1, 0))
    assert sig_b.partition == EXPECTED_PARTITION
    assert sig_b.universe == (2, 1, 0, 3)
    return None


def _corpus_instance(i):
    rng = random.Random(10_000 + i)
    n = rng.randint(2, 5)
    alg = gen_random_algebra(n, signature=(("f", 2),), seed=rng.randrange(2**32))
    k = rng.randint(1, 3)
    if rng.random() < 0.5:
        phi = gen_random_formula(alg, k, seed=rng.randrange(2**32))
        rel = extension(alg, phi, k)
    else:
        space = list(itertools.product(range(n), repeat=k))
        rel = Relation.of(k, rng.sample(space, rng.randint(0, len(space))))
    return alg, rel


@functools.lru_cache(maxsize=1)
def _criterion3_run():
    """Shared three-way corpus run with the debug suites switched on."""
    t0 = time.perf_counter()
    tally = {"definable": 0, "not_definable": 0}
    for i in range(200):
        alg, rel = _corpus_instance(i)
        o = oracle_definable(alg, rel)
        m = merging_decide(alg, rel, debug=True)
        s = splitting_decide(alg, rel, debug=True)
        assert o.is_definable == m.is_definable == s.is_definable, (
            f"instance {i}: oracle={o.is_definable} merging={m.is_definable} "
            f"splitting={s.is_definable}"
        )
        tally["definable" if o.is_definable else "not_definable"] += 1
        if s.is_definable:
            assert extension(alg, s.formula, rel.arity).tuples == rel.tuples, i
        for d in (o, m, s):
            if not d.is_definable:
                _assert_valid_counterexample(alg, rel, d)
    return time.perf_counter() - t0, tally


@criterion(3, "three-way oracle equivalence on 200 random instances")
def test_acceptance_3():
    elapsed, tally = _criterion3_run()
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    return f"{tally['definable']} definable / {tally['not_definable']} not, {elapsed:.1f}s"


@criterion(4, "graph-to-algebra reduction equivalence on 50 random graphs")
def test_acceptance_4():
    rng = random.Random(424242)
    checked = 0
    for i in range(50):
        m = rng.randint(2, 6)
        g = gen_random_graph(m, edge_prob=rng.choice([0.25, 0.5, 0.75]), seed=20_000 + i)
        k = rng.randint(1, 2)
        space = list(itertools.product(range(m), repeat=k))
        rel = Relation.of(k, rng.sample(space, rng.randint(0, len(space))))
        graph_side = graph_oracle_definable(g, rel)
        star, _ = graph_star(g)
        assert merging_decide(star, rel).is_definable == graph_side, i
        assert splitting_decide(star, rel).is_definable == graph_side, i
        checked += 1
    assert checked == 50
    return None


@criterion(5, "invariant suites hold under the debug flag")
def test_acceptance_5():
    # the shared corpus already ran with every orbit/block assertion enabled
    _criterion3_run()
    # exhaustive term-representation checks on small algebras
    rng = random.Random(31)
    for i in range(12):
        n = rng.randint(2, 4)
        alg = gen_random_algebra(n, signature=(("f", 2),), seed=30_000 + i)
        k = rng.randint(1, min(3, n))
        if rng.random() < 0.5:
            phi = gen_random_formula(alg, k, seed=31_000 + i)
            rel = extension(alg, phi, k)
        else:
            space = list(itertools.product(range(n), repeat=k))
            rel = Relation.of(k, rng.sample(space, rng.randint(0, len(space))))
        splitting_decide(alg, rel, debug=True, check_term_repr=True)
        merging_decide(alg, rel, debug=True)
    return None


@criterion(6, "preprocessing soundness on 100 instances")
def test_acceptance_6():
    rng = random.Random(63)
    definable_count = 0
    for i in range(100):
        n = rng.randint(2, 4)
        alg = gen_random_algebra(n, signature=(("f", 2),), seed=40_000 + i)
        k = rng.randint(1, 3)
        if rng.random() < 0.5:
            phi = gen_random_formula(alg, k, seed=41_000 + i)
            rel = extension(alg, phi, k)
        else:
            space = list(itertools.product(range(n), repeat=k))
            rel = Relation.of(k, rng.sample(space, rng.randint(0, len(space))))
        whole = oracle_definable(alg, rel).is_definable
        bundle = decompose(rel)
        parts = all(
            oracle_definable(alg, Relation(t.arity, t.tuples)).is_definable
            for t in bundle.targets
        )
        assert whole == parts, (i, sorted(rel.tuples))
        if whole:
            definable_count += 1
            d = splitting_decide(alg, rel)
            assert extension(alg, d.formula, rel.arity).tuples == rel.tuples, i
    return f"{definable_count} definable instances round-tripped"


@criterion(7, "splitting outperforms merging on the 16-element group")
def test_acceptance_7():
    group16 = gen_abelian_group([2, 2, 4])
    group8 = gen_abelian_group([2, 2, 2])
    samples = 20

    def medians(alg):
        t_merge, t_split = [], []
        for i in range(samples):
            phi = gen_random_formula(alg, 2, seed=50_000 + i)
            rel = extension(alg, phi, 2)
            t0 = time.perf_counter()
            m = merging_decide(alg, rel)
            t_merge.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            s = splitting_decide(alg, rel)
            t_split.append(time.perf_counter() - t0)
            assert m.is_definable and s.is_definable
            assert extension(alg, s.formula, 2).tuples == rel.tuples
        return statistics.median(t_merge), statistics.median(t_split)

    merge16, split16 = medians(group16)
    assert split16 <= merge16, f"splitting {split16:.4f}s vs merging {merge16:.4f}s"
    merge8, _ = medians(group8)
    # symmetry effect is reported, not gated
    return (
        f"16-elt: splitting {split16 * 1e3:.2f} ms <= merging {merge16 * 1e3:.2f} ms; "
        f"merging on 8-elt {merge8 * 1e3:.2f} ms"
    )


@criterion(8, "degenerate inputs, exact")
def test_acceptance_8():
    # empty relation: definable with the empty-extension formula
    for decide in (merging_decide, splitting_decide, oracle_definable):
        d = decide(DIAMOND, Relation.of(2, []))
        assert d.is_definable and d.formula == FALSE
    # full relation: definable without a single splitting step
    full = Relation.of(2, itertools.product(range(4), repeat=2))
    stats = SplitStats()
    d = splitting_decide(DIAMOND, full, stats=stats)
    assert d.is_definable
    assert extension(DIAMOND, d.formula, 2).tuples == full.tuples
    assert stats.steps == 0 and stats.refills == 0
    assert merging_decide(DIAMOND, full).is_definable
    # arity above the universe size: every tuple repeats an entry, so every
    # target is narrower than the relation and the repetition-free 3-tuples are none
    from qfdef import Algebra

    small = Algebra(2, [("f", 2, [0, 1, 1, 0])])
    over = Relation.of(3, [(0, 0, 1), (1, 1, 0)])
    assert decompose(over).spec == (2,)
    assert merging_decide(small, over).is_definable == splitting_decide(
        small, over
    ).is_definable == oracle_definable(small, over).is_definable
    return None
