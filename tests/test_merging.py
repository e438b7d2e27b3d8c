import itertools
import random

import pytest

from qfdef import (
    FALSE,
    Algebra,
    Relation,
    Subisomorphism,
    check_decision,
    extension,
    gen_abelian_group,
    gen_boolean_algebra,
    gen_random_algebra,
    gen_random_formula,
    gen_random_graph,
    graph_star,
    iso_type,
    merging_decide,
    oracle_definable,
    splitting_decide,
    try_merge_orbits,
)
from qfdef.merging import OrbitStore
from qfdef.preprocess import decompose

from conftest import plant_negative, random_instance


def test_order_is_definable(diamond, diamond_order):
    assert merging_decide(diamond, diamond_order, debug=True).is_definable


def test_rprime_counterexample(diamond, diamond_rprime):
    d = merging_decide(diamond, diamond_rprime, debug=True)
    assert not d.is_definable
    assert d.witness_in in diamond_rprime.tuples
    assert d.witness_out not in diamond_rprime.tuples
    assert d.gamma.map_tuple(d.witness_in) == d.witness_out
    assert d.gamma.is_valid(diamond)


def test_empty_relation(diamond):
    d = merging_decide(diamond, Relation.of(2, []))
    assert d.is_definable and d.formula == FALSE


def test_full_relation(diamond):
    full = Relation.of(2, itertools.product(range(4), repeat=2))
    assert merging_decide(diamond, full, debug=True).is_definable


def _store(diamond, rel):
    return OrbitStore(diamond, decompose(rel))


def test_try_merge_identity_is_noop(diamond, diamond_rprime):
    store = _store(diamond, diamond_rprime)
    tuples = [a for k in store.spec for a in itertools.permutations(range(4), k)]
    before = {a: store.orbit(a) for a in tuples}
    assert len(before) == 12  # every repetition-free pair, each in its own orbit
    assert len(set(before.values())) == 12
    gamma = Subisomorphism((0, 1, 2, 3), (0, 1, 2, 3))
    assert try_merge_orbits(gamma, store)
    assert all(store.orbit(a) == before[a] for a in tuples)


def test_try_merge_conflict_leaves_witness(diamond, diamond_rprime):
    store = _store(diamond, diamond_rprime)
    # bottom -> u, top -> top: carries (bottom, top) into (u, top)
    gamma = Subisomorphism((0, 3), (1, 3))
    assert not try_merge_orbits(gamma, store)
    a, ga = store.conflict
    assert gamma.map_tuple(a) == ga
    assert store.membership[store.orbit(a)] != store.membership[store.orbit(ga)]


def test_try_merge_merges_equal_rel_types(diamond, diamond_order):
    store = _store(diamond, diamond_order)
    # swap u and u': an automorphism of the diamond preserving the order
    gamma = Subisomorphism((0, 1, 2, 3), (0, 2, 1, 3))
    assert try_merge_orbits(gamma, store)
    assert store.orbit((0, 1)) == store.orbit((0, 2))
    assert store.orbit((1, 3)) == store.orbit((2, 3))
    o = store.orbit((0, 1))
    assert store.membership[o] == 0b10  # not in the diagonal target (bit 0), in the strict-order one
    assert {(0, 1), (0, 2)} <= set(store.members(o, 2))


def _random_subisos(alg, rng, count):
    """The identity, then up to `count` maps sg(a) -> sg(b) between tuples
    a, b of one type in a seeded shuffle: automorphisms where a generates
    the algebra, maps between isomorphic subuniverses elsewhere."""
    n = alg.size
    gammas = [Subisomorphism(range(n), range(n))]
    tuples = [a for k in (1, 2) for a in itertools.permutations(range(n), k)]
    rng.shuffle(tuples)
    first_of_type = {}
    for a in tuples:
        sig = iso_type(alg, a)
        b, sig_b = first_of_type.setdefault(sig.key, (a, sig))
        if b != a and len(gammas) <= count:
            gammas.append(Subisomorphism(sig.universe, sig_b.universe))
    return gammas


def _target(alg, arity, spec, rng, by_type):
    """A relation whose decomposition has arities `spec`: random tuples, or
    whole types (a union of types, so merging never meets a conflict)."""
    n = alg.size
    plain = list(itertools.permutations(range(n), arity))
    if by_type:
        keys = {iso_type(alg, a).key for a in plain}
        chosen = set(rng.sample(sorted(keys), max(1, len(keys) // 2)))
        tuples = {a for a in plain if iso_type(alg, a).key in chosen}
    else:
        tuples = set(rng.sample(plain, max(1, len(plain) // 3)))
    if 1 in spec and arity == 2:
        tuples |= {(x, x) for x in rng.sample(range(n), 2)}
    rel = Relation(arity, frozenset(tuples))
    assert decompose(rel, n).spec == spec
    return rel


def _naive_merge(orbits, bundle, spec, gamma):
    """Reference union step: orbits map each tuple to one shared set per
    orbit; returns the first pair of unequal membership, or None."""
    for k in spec:
        for a in itertools.permutations(sorted(gamma.domain), k):
            b = gamma.map_tuple(a)
            if orbits[a] is orbits[b]:
                continue
            if [a in t.tuples for t in bundle.targets] != [b in t.tuples for t in bundle.targets]:
                return (a, b)
            joined = orbits[a] | orbits[b]
            for t in joined:
                orbits[t] = joined
    return None


@pytest.mark.parametrize("spec, arity", [((1,), 1), ((2,), 2), ((1, 2), 2), ((3,), 3)])
def test_try_merge_matches_naive_merge(spec, arity):
    merged = conflicts = 0
    for alg in (gen_abelian_group((2, 4)), gen_random_algebra(5, signature=(("f", 2),), seed=6)):
        n = alg.size
        for seed, by_type in itertools.product(range(4), (False, True)):
            rng = random.Random(seed)
            gammas = _random_subisos(alg, rng, 12)
            assert all(g.is_valid(alg) for g in gammas)
            bundle = decompose(_target(alg, arity, spec, rng, by_type), n)
            store = OrbitStore(alg, bundle)
            tuples = [a for k in spec for a in itertools.permutations(range(n), k)]
            orbits = {a: {a} for a in tuples}
            for gamma in gammas:
                conflict = _naive_merge(orbits, bundle, spec, gamma)
                # the cover's check reads memberships only, so the union state cannot move its verdict
                store.conflict = None
                assert store.cover(gamma.domain, gamma.image) == (conflict is None)
                assert store.conflict == conflict
                store.conflict = None
                ok = try_merge_orbits(gamma, store)
                assert ok == (conflict is None)
                assert store.conflict == conflict
                roots = {}
                for a in tuples:
                    roots.setdefault(store.orbit(a), set()).add(a)
                assert sorted(map(sorted, roots.values())) == sorted(map(sorted, {id(o): o for o in orbits.values()}.values()))
                if not ok:
                    conflicts += 1
                    break
            merged += len(tuples) - len(roots)
            # tuples with a repeated entry stay singletons
            repeated = [a for k in spec for a in itertools.product(range(n), repeat=k) if len(set(a)) < k]
            assert all(store.orbit(a) == store.code(a) for a in repeated)
    # both outcomes are reached, so the comparison bites
    assert merged and conflicts


def _first_conflict(store, domain, image):
    """Brute-force reference for `cover`: the first tuple over the domain,
    by arity in the spec, then lexicographically, whose membership differs
    from its image's, with that image; None if there is none."""
    gamma = dict(zip(domain, image))
    for k in store.spec:
        for a in itertools.permutations(sorted(domain), k):
            ga = tuple(map(gamma.__getitem__, a))
            if store.membership[store.code(a)] != store.membership[store.code(ga)]:
                return a, ga
    return None


def _cover_as_reference(store, domain, image):
    """`store.cover` against `_first_conflict`; a cover that fails covers nothing."""
    expected = _first_conflict(store, domain, image)
    holders, covers = list(store.holders), store.covers
    store.conflict = None
    assert store.cover(domain, image) == (expected is None)
    assert store.conflict == expected
    if expected is None:
        assert store.covers == covers + 1
        assert all(store.holders[x] >> covers & 1 for x in domain)
    else:
        assert (store.holders, store.covers) == (holders, covers)
    return expected


def test_cover_matches_brute_force_at_arity_3():
    # formula extensions whose tuples of patterns (x, y, z), (x, x, y) and
    # (x, x, x) bring in widths 3, 2 and 1, so the rows of every arity are
    # compared at once; all 3 * 13 maps agree on the extensions, and some
    # of them also on the planted twins
    alg = gen_abelian_group((2, 4))
    outcomes = []
    for seed in (1, 3, 4):
        rel = extension(alg, gen_random_formula(alg, 3, seed=seed), 3)
        for r in (rel, plant_negative(alg, rel, random.Random(seed))):
            store = OrbitStore(alg, decompose(r, 8))
            assert store.spec == (1, 2, 3)
            for gamma in _random_subisos(alg, random.Random(seed), 12):
                outcomes.append(_cover_as_reference(store, gamma.domain, gamma.image) is None)
    assert outcomes.count(True) > 3 * 13 and outcomes.count(False)


def test_cover_reuses_an_image_and_finds_arity_1_conflicts():
    # with the identity as the only operation every set is a subuniverse
    # and every injection a subisomorphism
    alg = Algebra(6, [("u", 1, list(range(6)))])
    # (0, 1) and (2, 3) lie in the target, (4, 5) does not
    store = OrbitStore(alg, decompose(Relation.of(2, [(0, 1), (2, 3)]), 6))
    assert _cover_as_reference(store, (2, 3), (0, 1)) is None
    # the second cover into (0, 1) reads the image's side kept by the first
    assert _cover_as_reference(store, (4, 5), (0, 1)) == ((4, 5), (0, 1))
    assert list(store._images) == [(0, 1)]
    # an image of the same size keeps a side of its own
    assert _cover_as_reference(store, (0, 1), (3, 2)) == ((0, 1), (3, 2))
    assert list(store._images) == [(0, 1), (3, 2)]
    # the pairs agree and only the arity-1 target, the diagonal at 0, tells 2 from 0
    store = OrbitStore(alg, decompose(Relation.of(2, [(0, 0), (0, 1), (2, 3)]), 6))
    assert store.spec == (1, 2)
    assert _cover_as_reference(store, (2, 3), (0, 1)) == ((2,), (0,))
    assert _cover_as_reference(store, (0, 1), (0, 1)) is None


def test_merge_refuses_two_tagged_orbits(diamond, diamond_order):
    # an explicit raise, so it holds under python -O too
    store = _store(diamond, diamond_order)
    for a in ((0, 1), (1, 2)):
        sig = iso_type(diamond, a)
        store.tag_orbit(a, sig.key, sig.universe)
    with pytest.raises(AssertionError, match="two tagged"):
        store.merge(store.orbit((0, 1)), store.orbit((1, 2)), 2)


def test_tag_then_merge_keeps_annotation(diamond, diamond_order):
    store = _store(diamond, diamond_order)
    sig = iso_type(diamond, (0, 1))
    store.tag_orbit((0, 1), sig.partition, sig.universe)
    gamma = Subisomorphism((0, 1, 2, 3), (0, 2, 1, 3))
    assert try_merge_orbits(gamma, store)
    merged = store.orbit((0, 1))
    assert merged == store.orbit((0, 2))
    assert store.type[merged] == sig.partition
    assert store.universe[merged] == sig.universe
    assert store.find_tagged(2, sig.partition) == merged

    # (1, 0), (2, 0) and (3, 0) are one type: an element over the bottom.
    # A tagged singleton stays the root when it joins a larger untagged
    # orbit, as merge's first argument or as its second.
    sig = iso_type(diamond, (3, 0))
    for tagged_first in (True, False):
        store = OrbitStore(diamond, decompose(diamond_order), debug=True)
        store.merge(store.orbit((1, 0)), store.orbit((2, 0)), 2)
        store.tag_orbit((3, 0), sig.compact, sig.universe)
        root, untagged = store.orbit((3, 0)), store.orbit((1, 0))
        pair = (root, untagged) if tagged_first else (untagged, root)
        assert store.merge(*pair, 2) == root
        assert store.orbit((3, 0)) == store.orbit((2, 0)) == store.orbit((1, 0)) == root
        for annotation in (store.type, store.universe, store.universe_donor):
            assert list(annotation) == [root]
        assert store.tagged_index == {1: {}, 2: {sig.compact: root}}


def test_double_tag_same_values_is_noop(diamond, diamond_order):
    store = _store(diamond, diamond_order)
    sig = iso_type(diamond, (0, 1))
    store.tag_orbit((0, 1), sig.partition, sig.universe)
    store.tag_orbit((0, 1), sig.partition, sig.universe)
    assert store.type[store.orbit((0, 1))] == sig.partition
    assert store.find_tagged(2, sig.partition) == store.orbit((0, 1))


def test_retag_with_different_type_asserts(diamond, diamond_order):
    store = _store(diamond, diamond_order)
    sig = iso_type(diamond, (0, 1))
    other = iso_type(diamond, (1, 2))
    store.tag_orbit((0, 1), sig.partition, sig.universe)
    with pytest.raises(AssertionError):
        store.tag_orbit((0, 1), other.partition, other.universe)


def test_codes_are_dense_and_distinct(diamond):
    # (0, 0, 1) and (0, 0, 0) bring in widths 2 and 1 besides the plain triples
    store = OrbitStore(diamond, decompose(Relation.of(3, [(0, 1, 2), (0, 0, 1), (0, 0, 0)])))
    assert store.spec == (1, 2, 3)
    tuples = [a for k in store.spec for a in itertools.product(range(4), repeat=k)]
    # one code per tuple of every arity, filling the forest without gaps
    assert sorted(store.code(a) for a in tuples) == list(range(len(store.parent)))
    assert store.membership[store.orbit((0, 1, 2))] == 0b100
    assert store.membership[store.orbit((0, 1))] == 0b010
    assert store.membership[store.orbit((1, 0))] == 0b000


def test_debug_suite_catches_a_corrupted_store(diamond, diamond_order):
    swap = Subisomorphism((0, 1, 2, 3), (0, 2, 1, 3))
    sig = iso_type(diamond, (0, 1))

    store = OrbitStore(diamond, decompose(diamond_order), debug=True)
    assert try_merge_orbits(swap, store)
    store.membership[store.orbit((0, 1))] = 0  # the orbit's membership drifts from its members'
    with pytest.raises(AssertionError, match="membership"):
        store.tag_orbit((0, 1), sig.partition, sig.universe)

    store = OrbitStore(diamond, decompose(diamond_order), debug=True)
    with pytest.raises(AssertionError, match="universe"):
        store.tag_orbit((0, 1), sig.partition, sig.universe[::-1])

    store = OrbitStore(diamond, decompose(diamond_order), debug=True)
    with pytest.raises(AssertionError, match="type"):
        store.tag_orbit((0, 1), iso_type(diamond, (1, 2)).partition, sig.universe)

    with pytest.raises(AssertionError, match="untyped"):
        store.check_all_known(frozenset(range(4)))
    # a debug cover checks its map with a full table scan, then that its image is typed
    with pytest.raises(AssertionError, match="subisomorphism"):
        store.cover((0, 1, 2, 3), (1, 0, 2, 3))  # swapping bottom and u
    with pytest.raises(AssertionError, match="untyped"):
        store.cover((0, 1, 2, 3), (0, 2, 1, 3))

    # a covered tuple counts as typed
    store = OrbitStore(diamond, decompose(diamond_order))
    assert store.cover((0, 1, 2, 3), (0, 2, 1, 3))
    store.check_all_known(frozenset(range(4)))


def test_agreement_with_oracle():
    for i in range(60):
        alg, rel = random_instance(i, max_size=4, max_arity=3)
        expected = oracle_definable(alg, rel).is_definable
        got = merging_decide(alg, rel, debug=True)
        assert got.is_definable == expected, (i, sorted(rel.tuples))
        if not got.is_definable:
            assert got.gamma.is_valid(alg)
            assert got.witness_in in rel.tuples and got.witness_out not in rel.tuples
            assert got.gamma.map_tuple(got.witness_in) == got.witness_out


def type_grouping_definable(alg, rel):
    """Reference decider: `rel` is definable iff, for each target of its
    decomposition, every group of repetition-free tuples of the target's
    width that share an `iso_type` key lies wholly inside or wholly
    outside the target."""
    keys = {}
    for target in decompose(rel, alg.size).targets:
        k = target.arity
        if k not in keys:
            keys[k] = [(a, iso_type(alg, a).key) for a in itertools.permutations(range(alg.size), k)]
        inside = {}
        for a, key in keys[k]:
            if inside.setdefault(key, a in target.tuples) != (a in target.tuples):
                return False
    return True


@pytest.mark.parametrize(
    "alg, arity",
    [
        (gen_abelian_group((2, 4)), 3),
        (gen_boolean_algebra(4), 3),
        (gen_abelian_group((2, 4, 4)), 2),
        (gen_boolean_algebra(5), 2),
        (graph_star(gen_random_graph(14, seed=1))[0], 2),
    ],
    ids=["abelian-8-k3", "boolean-16-k3", "abelian-32-k2", "boolean-32-k2", "graph-star-14-k2"],
)
def test_agreement_with_type_grouping_reference(alg, arity):
    # sizes and arities past the brute-force oracle: formula extensions, from
    # 0 tuples to all of A^k, and their planted twins; splitting's answers,
    # formulas included, all carry a certificate
    verdicts = []
    for seed in range(6):
        rel = extension(alg, gen_random_formula(alg, arity, seed=seed), arity)
        planted = plant_negative(alg, rel, random.Random(seed))
        for r in (rel, planted):
            expected = type_grouping_definable(alg, r)
            d = merging_decide(alg, r)
            assert d.is_definable == expected, (seed, r is planted)
            if not d.is_definable:
                check_decision(alg, r, d)
            s = splitting_decide(alg, r)
            assert s.is_definable == expected, (seed, r is planted)
            check_decision(alg, r, s)
            verdicts.append(d.is_definable)
    assert verdicts == [True, False] * 6
