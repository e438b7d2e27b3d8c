"""Golden digests of splitting's output text, of iso_type and of merging's answers.

The splitting strategy's formulas depend on the order in which blocks
split and terms are tried, so any change to that order changes the text
even when every answer stays correct.  The digest below was recorded
from the dict-memo implementation that preceded the column kernel.

`iso_type` fixes the canonical order in which a tuple is closed under
the operations; its partition indices and trace terms name positions in
that order, so the second digest guards the order itself.

Merging's counterexample (witness pair and gamma) depends on the
depth-first order in which tuples are typed and orbits joined, so the
third digest guards that order.

Splitting's `--trace` text and `SplitStats` counters follow every block
it pops, so the fourth digest guards the refinement's course, not only
its result.
"""

import dataclasses
import hashlib
import itertools
import random

import qfdef.merging
from qfdef import (
    Relation,
    SplitStats,
    extension,
    format_formula,
    gen_abelian_group,
    gen_boolean_algebra,
    gen_random_algebra,
    gen_random_formula,
    gen_random_graph,
    graph_star,
    iso_type,
    merging_decide,
    splitting_decide,
)
from qfdef.isotype import iso_type_terms

GOLDEN_SHA256 = "20b5e87c383930a50d83ab886e7929d8d619962218f3c111cb8eccd13ddbe336"


def golden_algebras():
    yield "abelian", gen_abelian_group((2, 4))
    yield "abelian", gen_abelian_group((3, 3))
    yield "boolean", gen_boolean_algebra(3)
    for seed in range(2):
        yield "graph-star", graph_star(gen_random_graph(5, seed=seed))[0]
    for seed in range(2):
        yield "random", gen_random_algebra(5, signature=(("f", 2), ("g", 1)), seed=seed)
    yield "random", gen_random_algebra(4, signature=(("f", 2), ("g", 3)), seed=2)


def golden_instances():
    """Formula extensions of arity 2 and 3, plus one random relation per algebra."""
    for i, (family, alg) in enumerate(golden_algebras()):
        for k in (2, 3):
            for j in range(3):
                phi = gen_random_formula(alg, k, seed=1000 * i + 10 * k + j)
                yield f"{family}/{i}/k{k}/phi{j}", alg, extension(alg, phi, k)
        rng = random.Random(i)
        space = list(itertools.product(range(alg.size), repeat=2))
        yield f"{family}/{i}/k2/random", alg, Relation.of(2, rng.sample(space, len(space) // 3))


def golden_lines():
    for name, alg, rel in golden_instances():
        d = splitting_decide(alg, rel)
        if d.is_definable:
            yield f"{name} {format_formula(d.formula, alg.constants)}"
        else:
            yield f"{name} not {d.witness_in} {d.witness_out}"


def test_splitting_output_matches_golden_digest():
    digest = hashlib.sha256("\n".join(golden_lines()).encode()).hexdigest()
    assert digest == GOLDEN_SHA256


# Recorded from the row-list blocks that preceded the lane-bitmask blocks.
TRACE_GOLDEN_SHA256 = "f70a118fa7a5c1f69ca4322ccfad392f59f96b0ef7fa7f610124c736f5b4abb5"


def trace_golden_lines():
    """Per instance: its name, splitting's trace lines and its counters."""
    for name, alg, rel in golden_instances():
        stats = SplitStats()
        lines: list[str] = []
        splitting_decide(alg, rel, stats=stats, trace=lines.append)
        yield name
        yield from lines
        yield f"{name} {dataclasses.asdict(stats)}"


def test_splitting_trace_and_counters_match_golden_digest():
    digest = hashlib.sha256("\n".join(trace_golden_lines()).encode()).hexdigest()
    assert digest == TRACE_GOLDEN_SHA256


# ---------------------------------------------------------------------------
# iso_type: canonical partitions, universes, depths and trace text
# ---------------------------------------------------------------------------

# Recorded from the closure with a term-collecting flag that preceded the
# shared enumeration of `generate_terms`.
ISOTYPE_GOLDEN_SHA256 = "0f17559515f2bcc825e6faffc5d08aee04d2926e46e324bb557207004d6b4d3f"


def isotype_golden_algebras():
    """Seeded random algebras covering arity-0, 1, 2 and 3 symbols."""
    yield gen_random_algebra(4, signature=(("c", 0), ("u", 1), ("f", 2)), seed=0)
    yield gen_random_algebra(3, signature=(("f", 2), ("g", 3)), seed=1)
    yield gen_random_algebra(4, signature=(("h", 3), ("c", 0)), seed=2)
    yield gen_random_algebra(5, signature=(("u", 1), ("f", 2), ("v", 1)), seed=3)
    # unary-only, so tuples generate proper subuniverses of several sizes
    yield gen_random_algebra(6, signature=(("u", 1), ("v", 1)), seed=5)


def isotype_golden_lines():
    for i, alg in enumerate(isotype_golden_algebras()):
        for k in (1, 2, 3):
            for a in itertools.product(range(alg.size), repeat=k):
                sig = iso_type(alg, a)
                traced, terms = iso_type_terms(alg, a)
                assert traced == sig
                yield f"{i} {a} {sig.partition} {sig.universe} {sig.depth} {','.join(map(str, terms))}"


def test_iso_type_matches_golden_digest():
    digest = hashlib.sha256("\n".join(isotype_golden_lines()).encode()).hexdigest()
    assert digest == ISOTYPE_GOLDEN_SHA256


# ---------------------------------------------------------------------------
# merging: verdicts, witness pairs and gammas
# ---------------------------------------------------------------------------

# Recorded from the object-per-tuple orbit store that preceded the
# union-find over tuple codes.
MERGING_GOLDEN_SHA256 = "032dd71d28705aefd0ac3530f22226e1a543623fedbd43ca5bdd2434845f2ebb"


def merging_golden_algebras():
    yield "abelian", gen_abelian_group((2, 4))
    yield "boolean", gen_boolean_algebra(3)
    yield "graph-star", graph_star(gen_random_graph(4, seed=1))[0]
    # random algebras with a single operation keep partial symmetries, so relations over them can be refuted
    yield "random", gen_random_algebra(6, signature=(("u", 1),), seed=3)
    yield "random", gen_random_algebra(4, signature=(("f", 2),), seed=3)
    yield "random-constant", gen_random_algebra(6, signature=(("c", 0), ("u", 1)), seed=0)


def merging_golden_instances():
    """Per algebra and arity 1-3: two formula extensions and two random relations."""
    for i, (family, alg) in enumerate(merging_golden_algebras()):
        for k in (1, 2, 3):
            for j in range(2):
                phi = gen_random_formula(alg, k, seed=100 * i + 10 * k + j)
                yield f"{family}/{i}/k{k}/phi{j}", alg, extension(alg, phi, k)
            rng = random.Random(100 * i + k)
            space = list(itertools.product(range(alg.size), repeat=k))
            for j in range(2):
                rel = Relation.of(k, rng.sample(space, rng.randint(1, len(space) - 1)))
                yield f"{family}/{i}/k{k}/random{j}", alg, rel


def merging_golden_lines():
    for name, alg, rel in merging_golden_instances():
        d = merging_decide(alg, rel)
        if d.is_definable:
            yield f"{name} definable"
        else:
            yield f"{name} not {d.witness_in} {d.witness_out} {d.gamma.domain} {d.gamma.image}"


def test_merging_output_matches_golden_digest():
    lines = list(merging_golden_lines())
    # at least a third of the instances must exercise the counterexample path
    assert 3 * sum(" not " in line for line in lines) >= len(lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == MERGING_GOLDEN_SHA256


# Recorded from the walk that typed every tuple it visited, before it skipped
# tagged and covered tuples itself and covers compared whole rows at once.
WORK_GOLDEN_SHA256 = "9708b09c7db57c32a20aa18111f7ae45bb39fed46a9adcbe2b77a541cb51b9fa"


def merging_work_lines(monkeypatch):
    """Per instance: its name, then merging's work in order: each tuple sent
    to `iso_type` and the domain of each `cover` and `try_merge_orbits` call."""
    lines: list[str] = []

    def typed(alg, a):
        lines.append(f"type {tuple(a)}")
        return iso_type(alg, a)

    def cover(store, domain, image):
        lines.append(f"cover {tuple(domain)}")
        return real_cover(store, domain, image)

    def merge(gamma, store):
        lines.append(f"merge {gamma.domain}")
        return real_merge(gamma, store)

    real_cover, real_merge = qfdef.merging.OrbitStore.cover, qfdef.merging.try_merge_orbits
    monkeypatch.setattr(qfdef.merging, "iso_type", typed)
    monkeypatch.setattr(qfdef.merging.OrbitStore, "cover", cover)
    monkeypatch.setattr(qfdef.merging, "try_merge_orbits", merge)
    for name, alg, rel in merging_golden_instances():
        lines.append(name)
        merging_decide(alg, rel)
    return lines


def test_merging_work_sequence_matches_golden_digest(monkeypatch):
    lines = merging_work_lines(monkeypatch)
    # every kind of work is reached, so the digest guards each
    assert all(any(line.startswith(kind) for line in lines) for kind in ("type ", "cover ", "merge "))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == WORK_GOLDEN_SHA256
