"""Seeded decision corpora, one per workload, built from qfdef's public generators.

A workload is a fixed pool of (algebra, target) instances drawn from
`POOL_SEED`; the run's seed draws a random relabelling of the universe
for every instance, so each seed decides different tables and targets
of the same difficulty.  Decision times of random formula targets spread
over two orders of magnitude, so a pool redrawn per seed would make the
metrics measure the draw rather than the code.  The same seed gives
byte-identical inputs; `fingerprint` hashes them so two commits can
prove they decided the same inputs.

Definable targets are extensions of random formulas.  Negative targets
are planted: a definable target with the membership of one
repetition-free tuple `a` flipped, where `a` was chosen only after
`iso_type` showed another tuple `b` of the same type.  Since the
original target is a union of types, `a` and `b` disagree after the flip
and the planted target is not definable by construction.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

from qfdef import (
    Algebra,
    Relation,
    extension,
    gen_abelian_group,
    gen_boolean_algebra,
    gen_random_formula,
    gen_random_graph,
    graph_star,
    iso_type,
)

ARITY = 2
POOL_SEED = 0
# products of 2- and 4-element cyclic factors, one per group size used below
ABELIAN_FACTORS = {16: (2, 2, 4), 32: (2, 4, 4), 64: (4, 4, 4)}
# the planting search gives up on a draw after this many iso_type calls
PLANT_TYPE_CAP = 64
# a draw that keeps failing means the family cannot carry the workload
MAX_DRAWS_PER_ITEM = 50


@dataclass(frozen=True)
class Workload:
    name: str
    strategy: str  # "merging" or "splitting"
    planted: bool  # planted negatives instead of definable formula extensions
    # (family, size, items) strata; size is the graph's vertex count for graph-star
    strata: tuple[tuple[str, int, int], ...]


# Why each workload exists is in BENCHMARK.json.  refute-planted has the
# most inputs because relabelling changes merging's work (its depth-first
# order follows the element order), which more inputs average out.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "split-group",
            "splitting",
            False,
            (("abelian-group", 64, 8), ("graph-star", 14, 8), ("boolean-algebra", 32, 8)),
        ),
        Workload(
            "refute-planted",
            "merging",
            True,
            (("abelian-group", 32, 16), ("abelian-group", 64, 16), ("boolean-algebra", 32, 16), ("graph-star", 14, 16)),
        ),
    )
}


@dataclass(frozen=True)
class Item:
    """One decision input with the answer known from its construction."""

    family: str
    size: int
    alg: Algebra
    rel: Relation
    definable: bool


@dataclass
class Corpus:
    workload: Workload
    seed: int
    items: list[Item]
    degenerate_draws: int = 0  # empty or full extensions, redrawn and never timed
    plant_failures: int = 0  # draws where the planting search hit its cap

    def fingerprint(self) -> str:
        """sha256 over every algebra table and target, in corpus order."""
        h = hashlib.sha256()
        for it in self.items:
            h.update(f"{it.family}:{it.size}:{it.alg.size}:{it.definable}\n".encode())
            for op in it.alg.ops:
                h.update(f"{op.symbol}/{op.arity}:{','.join(map(str, op.table))}\n".encode())
            tuples = ";".join(",".join(map(str, t)) for t in sorted(it.rel.tuples))
            h.update(f"{it.rel.arity}:{tuples}\n".encode())
        return h.hexdigest()


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from labelled parts."""
    key = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def make_algebra(family: str, size: int, seed: int) -> Algebra:
    if family == "abelian-group":
        return gen_abelian_group(ABELIAN_FACTORS[size])
    if family == "boolean-algebra":
        return gen_boolean_algebra(size.bit_length() - 1)
    if family == "graph-star":
        return graph_star(gen_random_graph(size, seed=seed))[0]
    raise ValueError(f"unknown family {family!r}")


def plant_negative(alg: Algebra, rel: Relation, rng: random.Random) -> Relation | None:
    """Flip one tuple that shares its type with another, or None past the cap."""
    candidates = list(itertools.permutations(range(alg.size), rel.arity))
    rng.shuffle(candidates)
    first_of_type: dict[tuple, tuple[int, ...]] = {}
    for a in candidates[:PLANT_TYPE_CAP]:
        partition = iso_type(alg, a).partition
        if partition in first_of_type:
            return Relation(rel.arity, rel.tuples ^ {a})
        first_of_type[partition] = a
    return None


def relabel(item: Item, perm: list[int]) -> Item:
    """The isomorphic copy of `item` in which element x is renamed perm[x]."""
    n = item.alg.size
    ops = []
    for op in item.alg.ops:
        table = [0] * len(op.table)
        for i, args in enumerate(itertools.product(range(n), repeat=op.arity)):
            j = 0
            for x in args:
                j = j * n + perm[x]
            table[j] = perm[op.table[i]]
        ops.append((op.symbol, op.arity, table))
    rel = Relation(item.rel.arity, frozenset(tuple(perm[x] for x in t) for t in item.rel.tuples))
    return Item(item.family, item.size, Algebra(n, ops), rel, item.definable)


def build_corpus(workload: Workload, seed: int) -> Corpus:
    """Strata interleaved, so every stretch of a pass mixes the families."""
    corpus = Corpus(workload, seed, [])
    for index in range(max(count for _, _, count in workload.strata)):
        for family, size, count in workload.strata:
            if index >= count:
                continue
            item = _draw_item(corpus, family, size, index)
            perm = list(range(item.alg.size))
            random.Random(derive_seed(seed, workload.name, family, size, index, "relabel")).shuffle(perm)
            corpus.items.append(relabel(item, perm))
    return corpus


def _draw_item(corpus: Corpus, family: str, size: int, index: int) -> Item:
    w = corpus.workload
    for draw in range(MAX_DRAWS_PER_ITEM):
        label = (POOL_SEED, w.name, family, size, index, draw)
        alg = make_algebra(family, size, derive_seed(*label, "alg"))
        phi = gen_random_formula(alg, ARITY, seed=derive_seed(*label, "phi"))
        rel = extension(alg, phi, ARITY)
        if len(rel.tuples) in (0, alg.size**ARITY):
            corpus.degenerate_draws += 1
            continue
        if not w.planted:
            return Item(family, size, alg, rel, True)
        planted = plant_negative(alg, rel, random.Random(derive_seed(*label, "plant")))
        if planted is None:
            corpus.plant_failures += 1
            continue
        return Item(family, size, alg, planted, False)
    raise RuntimeError(f"{w.name}: no usable draw for {family} {size} item {index}")
