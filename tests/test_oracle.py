import ast
import itertools
from pathlib import Path

import pytest

from qfdef import (
    BudgetExceededError,
    FALSE,
    Graph,
    Relation,
    Subisomorphism,
    enumerate_subisomorphisms,
    enumerate_subuniverses,
    gen_random_graph,
    graph_oracle_definable,
    graph_star,
    merging_decide,
    oracle_definable,
    splitting_decide,
)
import qfdef.decision
import qfdef.oracle
from qfdef.algebra import Algebra
from qfdef.io import graph_from_json, graph_to_json


def test_subuniverses_of_diamond(diamond):
    subs = set(enumerate_subuniverses(diamond, 2))
    for expected in [{0, 3}, {1, 3}, {0, 1}, {0, 1, 2, 3}]:
        assert frozenset(expected) in subs
    # ordered by size then elements
    listed = enumerate_subuniverses(diamond, 2)
    assert listed == sorted(listed, key=lambda s: (len(s), sorted(s)))


def test_subuniverses_trivia(diamond):
    one = Algebra(1, [("f", 1, [0])])
    assert enumerate_subuniverses(one, 1) == [frozenset({0})]
    assert frozenset(range(4)) in enumerate_subuniverses(diamond, 4)


def test_enumerated_maps_are_valid_and_closed(diamond):
    maps = list(enumerate_subisomorphisms(diamond, 2))
    assert all(g.is_valid(diamond) for g in maps)
    # the inverse of every map is enumerated too
    assert all(g.inverse() in maps for g in maps)
    # compositions with aligned domains are enumerated too
    for g in maps:
        for h in maps:
            if set(g.image) == h.domain_set:
                comp = Subisomorphism(g.domain, h.map_tuple(g.image))
                assert comp in maps
    # identities on every enumerated subuniverse are present
    for s in enumerate_subuniverses(diamond, 2):
        dom = tuple(sorted(s))
        assert Subisomorphism(dom, dom) in maps


def test_bottom_to_u_map_is_enumerated(diamond):
    maps = list(enumerate_subisomorphisms(diamond, 2))
    assert Subisomorphism((0, 3), (1, 3)) in maps


def test_one_element_algebra_single_map():
    one = Algebra(1, [("f", 1, [0])])
    assert list(enumerate_subisomorphisms(one, 1)) == [Subisomorphism((0,), (0,))]


def test_oracle_on_diamond(diamond, diamond_order, diamond_rprime):
    assert oracle_definable(diamond, diamond_order).is_definable
    neg = oracle_definable(diamond, diamond_rprime)
    assert not neg.is_definable
    assert neg.witness_in in diamond_rprime.tuples
    assert neg.witness_out not in diamond_rprime.tuples
    assert neg.gamma.map_tuple(neg.witness_in) == neg.witness_out
    assert neg.gamma.is_valid(diamond)


def test_oracle_empty_relation(diamond):
    d = oracle_definable(diamond, Relation.of(2, []))
    assert d.is_definable and d.formula == FALSE


def test_budget_guard(diamond, diamond_order):
    with pytest.raises(BudgetExceededError):
        oracle_definable(diamond, diamond_order, budget=10)
    with pytest.raises(ValueError, match="budget"):
        oracle_definable(diamond, diamond_order, budget=-1)


def test_graph_validation():
    with pytest.raises(ValueError, match="loop"):
        Graph.of(3, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.of(3, [(0, 5)])
    g = Graph.of(3, [(2, 0)])
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(0, 1)


def test_graph_json_round_trip():
    g = Graph.of(4, [(0, 1), (2, 3)])
    assert graph_from_json(graph_to_json(g)) == g


@pytest.mark.parametrize(
    "doc, defect",
    [
        ({"vertices": 3, "edges": [[0]]}, "an edge is not a pair of vertex ids"),
        ({"vertices": 3, "edges": [[0, 1], [0, 1, 2]]}, "an edge is not a pair of vertex ids"),
        ({"vertices": 3}, "missing 'edges'"),
        ({"vertices": 3, "edges": [5]}, "an edge is not a pair of vertex ids"),
        # a string and an object of length 2 are no pairs either
        ({"vertices": 3, "edges": ["ab"]}, "an edge is not a pair of vertex ids"),
        ({"vertices": 3, "edges": [{"a": 1, "b": 2}]}, "an edge is not a pair of vertex ids"),
        ({"vertices": 3, "edges": [[0, None]]}, "an edge is not a pair of vertex ids"),
        ({"vertices": 3, "edges": 5}, "edges must be a list"),
        ([[0, 1]], "expected an object, got list"),
    ],
)
def test_graph_loader_rejects_malformed_documents(doc, defect):
    with pytest.raises(ValueError, match="malformed graph document: " + defect):
        graph_from_json(doc)


def test_graph_star_tables():
    g = Graph.of(2, [(0, 1)])
    alg, emb = graph_star(g)
    assert alg.size == 4
    assert (emb.zero, emb.one) == (2, 3)
    f = alg.op("f")
    assert f.value((0, 1)) == emb.one and f.value((1, 0)) == emb.one
    assert f.value((0, 0)) == emb.zero  # vertices are not self-adjacent
    assert f.value((emb.zero, emb.zero)) == emb.one
    assert f.value((emb.one, emb.one)) == emb.one
    assert f.value((emb.zero, emb.one)) == emb.zero


def test_graph_oracle_single_edge():
    g = Graph.of(2, [(0, 1)])
    rel = Relation.of(2, [(0, 1), (1, 0)])
    assert graph_oracle_definable(g, rel)
    # entries as Relation.check_over takes them: an int, and a vertex
    g = Graph.of(3, [(0, 1)])
    for bad in ((0.5, 1), (True, 2), (None, 1), (0, 3)):
        with pytest.raises(ValueError, match="outside the graph"):
            graph_oracle_definable(g, Relation.of(2, [bad]))


def test_graph_oracle_empty_graph_symmetric_target():
    g = Graph.of(3, [])
    # closed under all injections: the full repetition-free pair set
    rel = Relation.of(2, [(a, b) for a in range(3) for b in range(3) if a != b])
    assert graph_oracle_definable(g, rel)
    # a single pair is moved around by injections, hence not definable
    assert not graph_oracle_definable(g, Relation.of(2, [(0, 1)]))


def test_graph_reduction_agrees_with_deciders():
    import random

    rng = random.Random(4242)
    for i in range(15):
        m = rng.randint(2, 4)
        g = gen_random_graph(m, edge_prob=0.5, seed=i)
        k = rng.randint(1, 2)
        space = list(itertools.product(range(m), repeat=k))
        rel = Relation.of(k, rng.sample(space, rng.randint(0, len(space))))
        expected = graph_oracle_definable(g, rel)
        star, _ = graph_star(g)
        assert merging_decide(star, rel).is_definable == expected, i
        assert splitting_decide(star, rel).is_definable == expected, i


@pytest.mark.parametrize("module", [qfdef.oracle, qfdef.decision], ids=["oracle", "decision"])
def test_oracle_and_certificate_import_no_decider_code(module):
    # the brute-force oracle and the certificate check the deciders, so they
    # import neither the deciders' modules nor their evaluation kernels
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add((node.module or "").rpartition(".")[2])
            names.update(alias.name for alias in node.names)
    assert not modules & {"preprocess", "merging", "splitting"}, modules
    assert not names & {"TermColumns", "extension", "iso_type", "generate_terms"}, names


def _qfdef_imports(name):
    """The qfdef modules that module `name` imports at run time, leaving
    out imports under `if TYPE_CHECKING:`."""
    path = Path(qfdef.oracle.__file__).with_name(f"{name}.py")
    found, stack = set(), [ast.parse(path.read_text(encoding="utf-8"))]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").partition(".")[0] == "qfdef"):
            if node.module in (None, "qfdef"):
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.rpartition(".")[2])
        elif isinstance(node, ast.Import):
            found.update(a.name.partition(".")[2] or a.name for a in node.names if a.name.partition(".")[0] == "qfdef")
        stack.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("name", ["oracle", "decision"])
def test_oracle_and_certificate_import_only_terms_and_algebra(name):
    # by module boundary: the deciders' kernel, closure and preprocessing
    # live elsewhere.  The oracle answers with the certificate's types
    assert _qfdef_imports(name) <= {"terms", "algebra", "decision"} - {name}


def test_terms_import_nothing_from_qfdef_at_run_time():
    assert _qfdef_imports("terms") == set()


def test_column_kernel_imports_neither_parser_nor_loaders():
    assert not _qfdef_imports("columns") & {"syntax", "io"}
