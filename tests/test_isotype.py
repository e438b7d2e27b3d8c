import itertools

import pytest

from qfdef import (
    Algebra,
    IsoSignature,
    IsoTypeCache,
    Subisomorphism,
    Var,
    enumerate_subisomorphisms,
    eval_term,
    gen_random_algebra,
    iso_type,
    sg,
)
from qfdef.isotype import iso_type_terms

# frozen canonical partition for the diamond lattice on (u, u', bottom)
WORKED_PARTITION = (
    (0, 3, 12, 14, 18, 21, 24),
    (1, 7, 16, 17, 19, 22, 25),
    (2, 4, 5, 6, 8, 9, 10, 11, 20, 23, 26),
    (13, 15, 27, 28, 29, 30, 31, 32, 33, 34),
)


def test_worked_example_partition(diamond):
    sig = iso_type(diamond, (1, 2, 0))
    assert sig.partition == WORKED_PARTITION
    assert sig.universe == (1, 2, 0, 3)
    assert sig.depth == 2


def test_swapped_tuple_same_partition(diamond):
    sig = iso_type(diamond, (2, 1, 0))
    assert sig.partition == WORKED_PARTITION
    assert sig.universe == (2, 1, 0, 3)


def test_one_element_algebra():
    alg = Algebra(1, [("f", 1, [0])])
    sig = iso_type(alg, (0,))
    assert sig.partition == ((0, 1),)
    assert sig.universe == (0,)


def test_universe_is_generated_subuniverse(diamond):
    for a in itertools.permutations(range(4), 2):
        sig = iso_type(diamond, a)
        assert frozenset(sig.universe) == sg(diamond, a)
        assert len(set(sig.universe)) == len(sig.universe)


def test_initial_blocks_follow_equality_pattern(diamond):
    sig = iso_type(diamond, (1, 1, 0))
    first_two = [tuple(i for i in block if i < 3) for block in sig.partition]
    assert [b for b in first_two if b] == [(0, 1), (2,)]


def test_determinism(diamond):
    a = (1, 2, 0)
    assert iso_type(diamond, a) == iso_type(diamond, a)


def test_empty_tuple_rejected(diamond):
    with pytest.raises(ValueError):
        iso_type(diamond, ())


@pytest.mark.parametrize("bad", [True, False, 0.5, 1.0, -1, 4])
def test_entry_that_is_no_element_rejected(diamond, bad):
    # a bool is an int that equals 0 or 1, and a float lies between min and
    # max, so every entry's type is checked, as `Relation.check_over` does
    a = (0, bad)
    with pytest.raises(ValueError, match=r"has an entry outside 0\.\.3"):
        iso_type(diamond, a)


def test_signature_keeps_its_key_compact(diamond):
    a, b = (1, 2, 0), (2, 1, 0)
    sig, other = iso_type(diamond, a), iso_type(diamond, b)
    assert isinstance(sig.compact, bytes)
    assert type(sig.key) is tuple and all(type(r) is int for r in sig.key)
    assert sig.key == tuple(sig.compact)
    assert sig.partition == WORKED_PARTITION
    assert [sig.key[i] for block in sig.partition for i in block] == sorted(sig.key)
    # equal types with other universes: equal keys, unequal signatures
    assert sig.compact == other.compact and sig != other
    # equal signatures hash equal, whichever form holds the key
    again = iso_type(diamond, a)
    assert again is not sig and again == sig and hash(again) == hash(sig)
    as_tuple = IsoSignature(sig.key, sig.universe, sig.depth)
    assert as_tuple == sig and hash(as_tuple) == hash(sig)
    assert len({sig, again, as_tuple, other}) == 2


def test_signature_above_the_byte_range():
    # 257 elements go through the list closure, whose compact key is the tuple itself
    n = 257
    alg = Algebra(n, [("u", 1, [x // 2 for x in range(n)])])
    sig = iso_type(alg, (256, 3))
    assert isinstance(sig.compact, tuple) and sig.key == sig.compact
    assert sig.universe == (256, 3, 128, 1, 64, 0, 32, 16, 8, 4, 2)
    # u(0) = 0 repeats at position 7 and u(2) = 1 at position 12
    assert sig.key == (0, 1, 2, 3, 4, 5, 6, 5, 7, 8, 9, 10, 3)
    assert sig.partition[3] == (3, 12) and sig.partition[5] == (5, 7)
    assert hash(sig) == hash(iso_type(alg, (256, 3)))


def _assert_terms_coordinate(alg, a):
    sig, terms = iso_type_terms(alg, a)
    assert sig == iso_type(alg, a)
    assert terms[: len(a)] == tuple(Var(i) for i in range(len(a)))
    assert len(terms) == sum(len(block) for block in sig.partition)
    # every recorded term evaluates to the value at its index, which is
    # the universe element of the partition block holding that index
    for j, block in enumerate(sig.partition):
        for i in block:
            assert eval_term(alg, terms[i], a) == sig.universe[j]


def test_trace_terms_coordinate_with_values(diamond):
    from test_golden import isotype_golden_algebras

    _assert_terms_coordinate(diamond, (1, 2, 0))
    assert len(iso_type_terms(diamond, (1, 2, 0))[1]) == 35
    # algebras with constants and unary, binary and ternary symbols, and one
    # that declares a quaternary symbol before its binary one
    arity_4 = gen_random_algebra(3, signature=(("q", 4), ("f", 2)), seed=16)
    for alg in (*isotype_golden_algebras(), arity_4):
        for k in (1, 2, 3):
            for a in itertools.islice(itertools.product(range(alg.size), repeat=k), 0, None, 7):
                _assert_terms_coordinate(alg, a)


def test_cache_returns_identical_signatures(diamond):
    cache = IsoTypeCache(diamond)
    assert cache.get((1, 2)) is cache.get((1, 2))
    assert cache.get((1, 2)) == iso_type(diamond, (1, 2))


def test_subiso_from_worked_example(diamond):
    # tuples of one type: pairing their ordered universes sends a to b
    a, b = (1, 2, 0), (2, 1, 0)
    sig_a, sig_b = iso_type(diamond, a), iso_type(diamond, b)
    assert sig_a.key == sig_b.key
    gamma = Subisomorphism(sig_a.universe, sig_b.universe)
    assert gamma.domain == (1, 2, 0, 3) and gamma.image == (2, 1, 0, 3)
    assert gamma.map_tuple(a) == b
    assert gamma.is_valid(diamond)


def test_subiso_identity(diamond):
    a = (1, 2)
    sig = iso_type(diamond, a)
    gamma = Subisomorphism(sig.universe, sig.universe)
    assert all(gamma.apply(x) == x for x in gamma.domain)
    assert gamma.is_valid(diamond)


def test_subiso_absent_when_universes_differ(diamond):
    # sg(u, u') has four elements, sg(u, top) only two
    a, b = (1, 2), (1, 3)
    assert len(sg(diamond, a)) == 4 and len(sg(diamond, b)) == 2
    sig_a, sig_b = iso_type(diamond, a), iso_type(diamond, b)
    assert sig_a.key != sig_b.key
    with pytest.raises(ValueError, match="lengths differ"):
        Subisomorphism(sig_a.universe, sig_b.universe)


def test_subisomorphism_validity_scan(diamond):
    assert Subisomorphism((0, 3), (1, 3)).is_valid(diamond)
    # u <-> u' swap extends to the whole diamond
    assert Subisomorphism((0, 1, 2, 3), (0, 2, 1, 3)).is_valid(diamond)
    # bottom -> top alone is not closed/preserving
    assert not Subisomorphism((0, 1), (3, 1)).is_valid(diamond)
    with pytest.raises(ValueError, match="injective"):
        Subisomorphism((0, 1), (2, 2))


def test_inverse_round_trip(diamond):
    gamma = Subisomorphism((0, 3), (1, 3))
    inv = gamma.inverse()
    assert inv.apply(1) == 0 and inv.apply(3) == 3
    assert inv.is_valid(diamond)


def test_signature_equality_matches_oracle_isomorphism():
    # partitions coincide exactly when the exhaustive search finds a
    # subisomorphism carrying one tuple to the other
    for seed in range(6):
        alg = gen_random_algebra(3 + seed % 3, signature=(("f", 2),), seed=seed)
        maps = list(enumerate_subisomorphisms(alg, 3))
        tuples = list(itertools.permutations(range(alg.size), 2))
        sigs = {a: iso_type(alg, a).partition for a in tuples}
        for a in tuples:
            for b in tuples:
                connected = any(
                    all(x in g.domain_set for x in a) and g.map_tuple(a) == b for g in maps
                )
                assert connected == (sigs[a] == sigs[b]), (seed, a, b)
