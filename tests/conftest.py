import itertools
import random

import pytest

from qfdef import Relation, diamond_lattice, extension, gen_random_algebra, gen_random_formula, iso_type

# Hand-written order of the diamond lattice (bottom=0, u=1, u'=2, top=3):
# bottom below everything, u and u' incomparable, top above everything.
# Written out independently of any meet/join table.
DIAMOND_LEQ = frozenset(
    [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 3), (2, 2), (2, 3), (3, 3)]
)


@pytest.fixture
def diamond():
    return diamond_lattice()


@pytest.fixture
def diamond_order():
    return Relation(2, DIAMOND_LEQ)


@pytest.fixture
def diamond_rprime():
    # bottom paired with everything strictly above it
    return Relation.of(2, [(0, 1), (0, 2), (0, 3)])


def random_instance(i: int, max_size: int = 5, max_arity: int = 3, definable_bias: float = 0.5):
    """Seeded (algebra, relation) pair; roughly half the relations are
    extensions of random formulas and therefore definable."""
    rng = random.Random(i)
    n = rng.randint(2, max_size)
    alg = gen_random_algebra(n, signature=(("f", 2),), seed=rng.randrange(2**32))
    k = rng.randint(1, max_arity)
    if rng.random() < definable_bias:
        phi = gen_random_formula(alg, k, seed=rng.randrange(2**32))
        rel = extension(alg, phi, k)
    else:
        space = list(itertools.product(range(n), repeat=k))
        rel = Relation.of(k, rng.sample(space, rng.randint(0, len(space))))
    return alg, rel


def plant_negative(alg, rel: Relation, rng: random.Random) -> Relation | None:
    """`rel` with the membership of one repetition-free tuple flipped, a tuple
    that shares its type with an earlier one in a seeded shuffle, so that a
    definable `rel` turns non-definable.  None if every tuple has its own type."""
    candidates = list(itertools.permutations(range(alg.size), rel.arity))
    rng.shuffle(candidates)
    first_of_type = set()
    for a in candidates:
        key = iso_type(alg, a).key
        if key in first_of_type:
            return Relation(rel.arity, rel.tuples ^ {a})
        first_of_type.add(key)
    return None
