import itertools
import random

import pytest

from qfdef import (
    And,
    Eq,
    FALSE,
    Not,
    Relation,
    TRUE,
    Var,
    assemble,
    decompose,
    expand,
    extension,
    oracle_definable,
    pattern,
    recombine,
    squash,
)
from qfdef.preprocess import BundleTarget, TargetBundle, blocks

from conftest import random_instance


def test_pattern_worked_example():
    assert pattern((7, 7, 8, 9, 8, 9)) == (0, 0, 1, 2, 1, 2)
    assert blocks(pattern((7, 7, 8, 9, 8, 9))) == ((0, 1), (2, 4), (3, 5))


def test_pattern_trivia():
    assert pattern((3, 1, 2)) == (0, 1, 2) and blocks((0, 1, 2)) == ((0,), (1,), (2,))
    assert pattern((5, 5, 5)) == (0, 0, 0) and blocks((0, 0, 0)) == ((0, 1, 2),)
    with pytest.raises(ValueError, match="empty"):
        pattern(())


def test_squash_worked_example():
    assert squash((7, 7, 8, 9, 8, 9)) == (7, 8, 9)
    assert squash((3, 1, 2)) == (3, 1, 2)
    assert squash((5, 5, 5)) == (5,)


def test_squash_pattern_consistency():
    a = (4, 2, 4, 2, 0)
    assert len(squash(a)) == max(pattern(a)) + 1
    assert pattern(squash(a)) == (0, 1, 2)


def test_expand_inverts_squash():
    a = (7, 7, 8, 9, 8, 9)
    assert expand(pattern(a), squash(a)) == a
    with pytest.raises(ValueError):
        expand(pattern(a), (1, 2))


def test_decompose_repetition_free(diamond_rprime):
    bundle = decompose(diamond_rprime)
    assert bundle.spec == (2,)
    assert len(bundle.targets) == 1
    t = bundle.targets[0]
    assert t.pattern == (0, 1)
    assert t.tuples == diamond_rprime.tuples


def test_decompose_diagonal():
    bundle = decompose(Relation.of(2, [(5, 5)]))
    assert bundle.spec == (1,)
    assert bundle.targets[0].pattern == (0, 0)
    assert bundle.targets[0].tuples == frozenset({(5,)})


def test_decompose_empty():
    bundle = decompose(Relation.of(3, []))
    assert bundle.targets == () and bundle.spec == ()


def test_decompose_orders_targets_by_width(diamond_order):
    bundle = decompose(diamond_order)
    widths = [t.arity for t in bundle.targets]
    assert widths == sorted(widths)
    assert bundle.spec == (1, 2)


def test_decompose_round_trip():
    for i in range(10):
        _, rel = random_instance(i, max_size=4)
        bundle = decompose(rel)
        rebuilt = set()
        for t in bundle.targets:
            for a in t.tuples:
                rebuilt.add(expand(t.pattern, a))
        assert rebuilt == set(rel.tuples)


def test_recombine_shapes_match_worked_example():
    # pattern {{0,1},{2,3},{4}} over five positions
    pat = (0, 0, 1, 1, 2)
    phi = Eq(Var(0), Var(2))  # uses the three squashed positions 0,1,2
    out = recombine(pat, phi)
    assert out == And(
        (
            Eq(Var(0), Var(4)),  # variables renamed to representatives 0,2,4
            Eq(Var(0), Var(1)),
            Eq(Var(2), Var(3)),
            Not(Eq(Var(0), Var(2))),
            Not(Eq(Var(0), Var(4))),
            Not(Eq(Var(2), Var(4))),
        )
    )


def test_recombine_discrete_adds_only_disequalities():
    pat = (0, 1)
    out = recombine(pat, TRUE)
    assert out == And((TRUE, Not(Eq(Var(0), Var(1)))))


def test_recombine_single_block():
    pat = (0, 0)
    out = recombine(pat, TRUE)
    assert out == And((TRUE, Eq(Var(0), Var(1))))


def test_recombine_extension_characterization(diamond):
    # extension of the lifted formula = tuples with the right pattern whose
    # squash satisfies the original formula, checked by brute enumeration
    from qfdef import App

    pat = (0, 1, 0)
    phi = Eq(App("join", (Var(0), Var(1))), Var(1))
    lifted = recombine(pat, phi)
    got = extension(diamond, lifted, 3).tuples
    squashed_ext = extension(diamond, phi, 2)
    expected = set()
    for a in itertools.product(range(4), repeat=3):
        if pattern(a) == pat and squash(a) in squashed_ext:
            expected.add(a)
    assert got == expected


def test_recombine_every_pattern_of_arity_3(diamond):
    # representatives 0..w-1 keep phi itself and the others rename it; either
    # way the extension is the tuples of the pattern whose squash satisfies phi
    from qfdef import App

    below = Eq(App("join", (Var(0), Var(1))), Var(1))
    by_width = {1: TRUE, 2: below, 3: And((below, Eq(App("meet", (Var(1), Var(2))), Var(1))))}
    for pat in [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]:
        width = max(pat) + 1
        phi = by_width[width]
        lifted = recombine(pat, phi)
        # the first position of each rank is its representative
        assert (lifted.children[0] is phi) == (tuple(map(pat.index, range(width))) == tuple(range(width))), pat
        squashed_ext = extension(diamond, phi, width)
        expected = {
            a
            for a in itertools.product(range(4), repeat=3)
            if pattern(a) == pat and squash(a) in squashed_ext
        }
        assert extension(diamond, lifted, 3).tuples == expected, pat


def test_recombine_validates_variables():
    with pytest.raises(ValueError, match="width"):
        recombine((0, 1), Eq(Var(2), Var(0)))
    with pytest.raises(ValueError, match="width"):
        recombine((0, 1, 1), Eq(Var(2), Var(0)))


def test_assemble():
    assert assemble([]) == FALSE
    assert assemble([TRUE]) == TRUE
    two = assemble([TRUE, FALSE])
    from qfdef import Or

    assert two == Or((TRUE, FALSE))


def test_bundle_definability_is_componentwise():
    # the original relation is definable exactly when every squashed
    # per-pattern target is, per the raw exhaustive check
    for i in range(12):
        alg, rel = random_instance(100 + i, max_size=4, max_arity=3)
        whole = oracle_definable(alg, rel).is_definable
        bundle = decompose(rel)
        parts = all(
            oracle_definable(alg, Relation(t.arity, t.tuples)).is_definable
            for t in bundle.targets
        )
        assert whole == parts, (i, sorted(rel.tuples))


def comprehension_decompose(rel):
    """`decompose` as it was before set operations: one set(a) per tuple."""
    k = rel.arity
    plain = {a for a in rel.tuples if len(set(a)) == k}
    groups = {}
    if plain:
        groups[tuple(range(k))] = plain
    for a in rel.tuples - plain:
        groups.setdefault(pattern(a), set()).add(squash(a))
    ordered = sorted(groups, key=lambda p: (len(blocks(p)), blocks(p)))
    targets = tuple(BundleTarget(p, frozenset(groups[p])) for p in ordered)
    return TargetBundle(targets, tuple(sorted({t.arity for t in targets})))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_decompose_with_and_without_size_matches_the_comprehension(k):
    rng = random.Random(k)
    # all of A**k over 6 elements has enough tuples to be met with the
    # repeated-entry tuples of A**k; the small draws are checked tuple by tuple
    rels = [(6, Relation.of(k, itertools.product(range(6), repeat=k)))]
    for i in range(30):
        n = rng.randint(2, 6)
        space = list(itertools.product(range(n), repeat=k))
        size = rng.choice([1, 2, n, len(space) // 3, len(space)])
        rels.append((n, Relation.of(k, rng.sample(space, min(size, len(space))) + [(rng.randrange(n),) * k])))
    for i, (n, rel) in enumerate(rels):
        expected = comprehension_decompose(rel)
        assert decompose(rel) == expected, (k, i)
        assert decompose(rel, n) == expected, (k, i)
        assert decompose(rel, n + 2) == expected, (k, i)
