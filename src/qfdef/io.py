"""JSON file formats of algebras, relations and graphs."""

from __future__ import annotations

import json

from .algebra import Algebra, Relation
from .graph import Graph


def _read_json(path: str, from_json):
    with open(path, encoding="utf-8") as fh:
        return from_json(json.load(fh))


def _write_json(doc: dict, path: str) -> None:
    # relation and graph documents hold only ints, so ensure_ascii changes
    # nothing for them; it keeps an algebra's element names as written
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def algebra_to_json(alg: Algebra) -> dict:
    operations = {}
    for op in alg.ops:
        if op.symbol in alg.constants:
            operations[op.symbol] = {"arity": 0, "table": [op.table[0]]}
        else:
            operations[op.symbol] = {"arity": op.arity, "table": list(op.table)}
    doc: dict = {"size": alg.size, "operations": operations}
    if alg.element_names is not None:
        doc["elements"] = list(alg.element_names)
    return doc


def algebra_from_json(doc: dict) -> Algebra:
    if type(doc) is not dict:
        raise ValueError(f"malformed algebra document: expected an object, got {type(doc).__name__}")
    try:
        size, operations = doc["size"], doc["operations"]
        if type(operations) is not dict:
            raise ValueError("malformed algebra document: operations must be an object")
        ops = []
        for sym, spec in operations.items():
            if type(spec) is not dict:
                raise ValueError(f"malformed algebra document: operation {sym!r} is not an object")
            if type(spec["table"]) is not list:
                raise ValueError(f"malformed algebra document: the table of operation {sym!r} is not a list")
            ops.append((sym, spec["arity"], spec["table"]))
    except KeyError as e:
        raise ValueError(f"malformed algebra document: missing {e}") from None
    return Algebra(size, ops, element_names=doc.get("elements"))


def load_algebra(path: str) -> Algebra:
    return _read_json(path, algebra_from_json)


def save_algebra(alg: Algebra, path: str) -> None:
    _write_json(algebra_to_json(alg), path)


def relation_to_json(rel: Relation) -> dict:
    return {"arity": rel.arity, "tuples": sorted(list(t) for t in rel.tuples)}


def relation_from_json(doc: dict) -> Relation:
    try:
        arity, tuples = doc["arity"], doc["tuples"]
    except KeyError as e:
        raise ValueError(f"malformed relation document: missing {e}") from None
    except TypeError:
        raise ValueError(f"malformed relation document: expected an object, got {type(doc).__name__}") from None
    # entries must be JSON integers; `Relation.check_over` bounds them by each algebra
    ints = type(tuples) is list and all(type(t) is list and all(type(v) is int for v in t) for t in tuples)
    if type(arity) is not int or not ints:
        raise ValueError("malformed relation document: arity and tuple entries must be integers")
    return Relation.of(arity, tuples)


def load_relation(path: str) -> Relation:
    return _read_json(path, relation_from_json)


def save_relation(rel: Relation, path: str) -> None:
    _write_json(relation_to_json(rel), path)


def graph_to_json(g: Graph) -> dict:
    return {"vertices": g.vertices, "edges": sorted(list(e) for e in g.edges)}


def graph_from_json(doc: dict) -> Graph:
    if type(doc) is not dict:
        raise ValueError(f"malformed graph document: expected an object, got {type(doc).__name__}")
    try:
        vertices, edges = doc["vertices"], doc["edges"]
    except KeyError as e:
        raise ValueError(f"malformed graph document: missing {e}") from None
    if type(edges) is not list:
        raise ValueError("malformed graph document: edges must be a list")
    # bool is no vertex id either
    if not all(type(e) is list and len(e) == 2 and type(e[0]) is type(e[1]) is int for e in edges):
        raise ValueError("malformed graph document: an edge is not a pair of vertex ids")
    return Graph.of(vertices, edges)


def load_graph(path: str) -> Graph:
    return _read_json(path, graph_from_json)


def save_graph(g: Graph, path: str) -> None:
    _write_json(graph_to_json(g), path)
