import itertools

import pytest

from qfdef import (
    FALSE,
    Relation,
    Subisomorphism,
    iso_type,
    merging_decide,
    oracle_definable,
    try_merge_orbits,
)
from qfdef.merging import OrbitStore
from qfdef.preprocess import decompose

from conftest import random_instance


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
    assert store.membership_vector(store.orbit(a)) != store.membership_vector(store.orbit(ga))


def test_try_merge_merges_equal_rel_types(diamond, diamond_order):
    store = _store(diamond, diamond_order)
    # swap u and u': an automorphism of the diamond preserving the order
    gamma = Subisomorphism((0, 1, 2, 3), (0, 2, 1, 3))
    assert try_merge_orbits(gamma, store)
    assert store.orbit((0, 1)) == store.orbit((0, 2))
    assert store.orbit((1, 3)) == store.orbit((2, 3))
    o = store.orbit((0, 1))
    assert store.membership_vector(o) == (False, True)  # not diagonal, in the strict-order part
    assert {(0, 1), (0, 2)} <= set(store.members(o, 2))


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
    assert store.membership_vector(store.orbit((0, 1, 2))) == (False, False, True)
    assert store.membership_vector(store.orbit((0, 1))) == (False, True, False)
    assert store.membership_vector(store.orbit((1, 0))) == (False, False, False)


def test_debug_suite_catches_a_corrupted_store(diamond, diamond_order):
    swap = Subisomorphism((0, 1, 2, 3), (0, 2, 1, 3))
    sig = iso_type(diamond, (0, 1))

    store = OrbitStore(diamond, decompose(diamond_order), debug=True)
    store.size[store.orbit((0, 1))] += 1
    with pytest.raises(AssertionError, match="weight"):
        try_merge_orbits(swap, store)

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
