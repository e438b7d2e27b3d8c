import itertools
from collections import Counter

import pytest

from qfdef import (
    diamond_lattice,
    extension,
    gen_abelian_group,
    gen_boolean_algebra,
    gen_random_algebra,
    gen_random_formula,
    gen_random_graph,
    splitting_decide,
)


def test_random_algebra_determinism():
    a1 = gen_random_algebra(5, seed=7)
    a2 = gen_random_algebra(5, seed=7)
    assert [(o.symbol, o.table) for o in a1.ops] == [(o.symbol, o.table) for o in a2.ops]
    a3 = gen_random_algebra(5, seed=8)
    assert [o.table for o in a1.ops] != [o.table for o in a3.ops]


def test_random_algebra_default_signature_shapes():
    alg = gen_random_algebra(4)
    assert [(o.symbol, o.arity, len(o.table)) for o in alg.ops] == [
        ("f", 2, 16),
        ("g", 3, 64),
    ]


def test_random_algebra_entry_distribution():
    # frequencies of one fixed table entry across seeds stay within 5 sigma
    n = 4
    draws = 1000
    counts = Counter(gen_random_algebra(n, seed=s).ops[0].table[0] for s in range(draws))
    mean = draws / n
    sigma = (draws * (1 / n) * (1 - 1 / n)) ** 0.5
    for v in range(n):
        assert abs(counts[v] - mean) <= 5 * sigma, counts


def test_z2_cayley_table():
    alg = gen_abelian_group([2])
    assert alg.op("add").table == (0, 1, 1, 0)


@pytest.mark.parametrize("factors", [(2,), (3, 5), (2, 2, 4), (2, 4, 4), (4, 4, 4)])
def test_group_table_is_componentwise_addition(factors):
    # element e encodes its components in mixed radix, first factor most significant
    def decode(e):
        out = []
        for f in reversed(factors):
            e, x = divmod(e, f)
            out.append(x)
        return out[::-1]

    def encode(xs):
        e = 0
        for f, x in zip(factors, xs):
            e = e * f + x
        return e

    alg = gen_abelian_group(factors)
    n = alg.size
    expected = tuple(
        encode([(x + y) % f for x, y, f in zip(decode(a), decode(b), factors)]) for a in range(n) for b in range(n)
    )
    assert alg.op("add").table == expected


def test_group_sizes():
    assert gen_abelian_group([2, 2, 4]).size == 16
    with pytest.raises(ValueError):
        gen_abelian_group([1, 2])


def test_group_axioms_by_scan():
    alg = gen_abelian_group([2, 4])
    add = alg.op("add")
    n = alg.size
    for a, b in itertools.product(range(n), repeat=2):
        assert add.value((a, b)) == add.value((b, a))
        assert add.value((a, 0)) == a
    for a, b, c in itertools.product(range(n), repeat=3):
        assert add.value((add.value((a, b)), c)) == add.value((a, add.value((b, c))))
    # every element has an inverse
    for a in range(n):
        assert any(add.value((a, b)) == 0 for b in range(n))


def test_boolean_algebra_two_atoms_matches_diamond():
    bool4 = gen_boolean_algebra(2)
    diamond = diamond_lattice()
    assert bool4.size == 4
    assert bool4.op("meet").table == diamond.op("meet").table
    assert bool4.op("join").table == diamond.op("join").table


def test_boolean_complement_involution():
    alg = gen_boolean_algebra(3)
    comp = alg.op("comp")
    for a in range(alg.size):
        assert comp.value((comp.value((a,)),)) == a


def test_de_morgan_scan():
    alg = gen_boolean_algebra(3)
    meet, join, comp = alg.op("meet"), alg.op("join"), alg.op("comp")
    for a, b in itertools.product(range(alg.size), repeat=2):
        assert comp.value((meet.value((a, b)),)) == join.value(
            (comp.value((a,)), comp.value((b,)))
        )


def test_random_graph_determinism():
    g1 = gen_random_graph(6, seed=3)
    g2 = gen_random_graph(6, seed=3)
    assert g1 == g2


def test_random_formula_determinism():
    alg = gen_random_algebra(3, seed=1)
    f1 = gen_random_formula(alg, 2, seed=11)
    f2 = gen_random_formula(alg, 2, seed=11)
    assert f1 == f2
    assert f1 != gen_random_formula(alg, 2, seed=12)


def test_random_formula_extension_is_definable_end_to_end():
    for seed in range(8):
        alg = gen_random_algebra(3, signature=(("f", 2),), seed=seed)
        phi = gen_random_formula(alg, 2, seed=100 + seed)
        target = extension(alg, phi, 2)
        d = splitting_decide(alg, target)
        assert d.is_definable
        assert extension(alg, d.formula, 2).tuples == target.tuples
