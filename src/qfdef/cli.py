"""Command-line interface.

Exit codes: 0 definable / success, 1 not definable, 2 usage error,
3 enumeration budget exceeded, 4 out of memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .algebra import Algebra
from .columns import extension
from .decision import Decision
from .generators import (
    gen_abelian_group,
    gen_boolean_algebra,
    gen_random_algebra,
    gen_random_formula,
)
from .graph import graph_star
from .io import load_algebra, load_graph, load_relation, save_algebra, save_relation
from .isotype import iso_type, iso_type_terms
from .merging import merging_decide
from .oracle import DEFAULT_BUDGET, BudgetExceededError, oracle_definable
from .preprocess import blocks, decompose
from .splitting import SplitStats, splitting_decide
from .syntax import is_decimal
from .terms import format_formula

EXIT_DEFINABLE = 0
EXIT_NOT_DEFINABLE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_MEMORY = 4


def _trace_printer(enabled: bool):
    if not enabled:
        return None
    return lambda msg: print(msg, file=sys.stderr)


def _integer(text: str, option: str) -> int:
    """An integer option's value: an optional `-`, then ASCII digits."""
    if not is_decimal(text.removeprefix("-")):
        raise ValueError(f"{option} must be a decimal integer, got {text!r}")
    return int(text)


def _parse_tuple(alg: Algebra, text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise ValueError("empty tuple")
    if "" in parts:  # `1,,2` or `1,2,` is not the tuple (1, 2)
        raise ValueError(f"empty entry at index {parts.index('')} of tuple {text!r}")
    return tuple(alg.element(p) for p in parts)


def _decision_json(alg: Algebra, decision: Decision, stats: SplitStats | None = None) -> dict:
    if decision.is_definable:
        doc: dict = {"definable": True}
        if decision.formula is not None:
            doc["formula"] = format_formula(decision.formula, alg.constants)
    else:
        doc = {
            "definable": False,
            "witness_in": list(decision.witness_in),
            "witness_out": list(decision.witness_out),
            "gamma": decision.gamma.to_json(),
        }
    if stats is not None:
        doc["stats"] = dataclasses.asdict(stats)
    return doc


def _cmd_decide(args) -> int:
    alg = load_algebra(args.algebra)
    rel = load_relation(args.relation)
    trace = _trace_printer(args.trace)
    if args.strategy == "merging":
        decision = merging_decide(alg, rel, debug=args.check_invariants, trace=trace)
        stats = None
    else:
        stats = SplitStats()
        decision = splitting_decide(
            alg, rel, debug=args.check_invariants, stats=stats, trace=trace
        )
    print(json.dumps(_decision_json(alg, decision, stats), ensure_ascii=False))
    if decision.is_definable and decision.formula is not None and args.emit_formula:
        with open(args.emit_formula, "w", encoding="utf-8") as fh:
            fh.write(format_formula(decision.formula, alg.constants) + "\n")
    return EXIT_DEFINABLE if decision.is_definable else EXIT_NOT_DEFINABLE


def _cmd_isotype(args) -> int:
    alg = load_algebra(args.algebra)
    a = _parse_tuple(alg, args.tuple)
    if args.trace:
        sig, terms = iso_type_terms(alg, a)
    else:
        sig, terms = iso_type(alg, a), None
    doc = {
        "partition": [list(b) for b in sig.partition],
        "universe": [alg.name(e) for e in sig.universe],
        "depth": sig.depth,
    }
    if terms is not None:
        doc["terms"] = [str(t) for t in terms]
    print(json.dumps(doc, ensure_ascii=False))
    return EXIT_DEFINABLE


def _cmd_decompose(args) -> int:
    rel = load_relation(args.relation)
    bundle = decompose(rel)
    doc = {
        "arity": rel.arity,
        "spec": list(bundle.spec),
        "targets": [
            {"pattern": [list(b) for b in blocks(t.pattern)], "tuples": sorted(list(x) for x in t.tuples)}
            for t in bundle.targets
        ],
    }
    print(json.dumps(doc))
    return EXIT_DEFINABLE


def _cmd_oracle(args) -> int:
    alg = load_algebra(args.algebra)
    rel = load_relation(args.relation)
    decision = oracle_definable(alg, rel, budget=_integer(args.budget, "--budget"))
    print(json.dumps(_decision_json(alg, decision), ensure_ascii=False))
    return EXIT_DEFINABLE if decision.is_definable else EXIT_NOT_DEFINABLE


def _parse_signature(text: str) -> list[tuple[str, int]]:
    out = []
    for part in text.split(","):
        name, _, arity = part.partition(":")
        if not name or not is_decimal(arity):
            raise ValueError(f"bad signature entry {part!r}; expected name:arity")
        out.append((name.strip(), int(arity)))
    return out


def _cmd_gen(args) -> int:
    if args.kind == "random":
        alg = gen_random_algebra(_integer(args.size, "--size"), _parse_signature(args.signature), seed=args.seed)
        save_algebra(alg, args.out)
    elif args.kind == "bool":
        save_algebra(gen_boolean_algebra(_integer(args.atoms, "--atoms")), args.out)
    elif args.kind == "group":
        factors = [_integer(p, "--factors") for p in args.factors.split(",")]
        save_algebra(gen_abelian_group(factors), args.out)
    elif args.kind == "graph-star":
        alg, emb = graph_star(load_graph(args.graph))
        save_algebra(alg, args.out)
        print(json.dumps({"zero": emb.zero, "one": emb.one}))
    elif args.kind == "formula":
        alg = load_algebra(args.algebra)
        arity = _integer(args.arity, "--arity")
        phi = gen_random_formula(
            alg, arity, _integer(args.depth, "--depth"), _integer(args.atoms, "--atoms"), seed=args.seed
        )
        text = format_formula(phi, alg.constants)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        if args.extension_out:
            save_relation(extension(alg, phi, arity), args.extension_out)
    return EXIT_DEFINABLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfdef",
        description="Decide quantifier-free definability of relations over finite algebras.",
    )
    parser.add_argument("--seed", default="0", help="seed for input generation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide definability of a relation")
    p.add_argument("--strategy", choices=("merging", "splitting"), required=True)
    p.add_argument("--algebra", required=True)
    p.add_argument("--relation", required=True)
    p.add_argument("--trace", action="store_true", help="log processing events to stderr")
    p.add_argument(
        "--check-invariants",
        action="store_true",
        help="run the debug assertion suites, on small inputs: splitting's evaluates every new block's formula over all of A^k",
    )
    p.add_argument("--emit-formula", default=None, help="write the defining formula to this file")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("isotype", help="canonical type of a tuple")
    p.add_argument("--algebra", required=True)
    p.add_argument("--tuple", required=True, help="comma-separated element names or indices")
    p.add_argument("--trace", action="store_true", help="include the evaluated term strings")
    p.set_defaults(func=_cmd_isotype)

    p = sub.add_parser("decompose", help="pattern decomposition of a relation")
    p.add_argument("--relation", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("oracle", help="brute-force definability (small inputs)")
    p.add_argument("--algebra", required=True)
    p.add_argument("--relation", required=True)
    p.add_argument("--budget", default=str(DEFAULT_BUDGET), help="candidate-map bound")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="generate inputs")
    gensub = p.add_subparsers(dest="kind", required=True)
    g = gensub.add_parser("random", help="random algebra")
    g.add_argument("--size", required=True)
    g.add_argument("--signature", default="f:2,g:3")
    g.add_argument("--out", required=True)
    g = gensub.add_parser("bool", help="boolean algebra of subsets")
    g.add_argument("--atoms", required=True)
    g.add_argument("--out", required=True)
    g = gensub.add_parser("group", help="product of cyclic groups")
    g.add_argument("--factors", required=True, help="comma-separated cyclic orders")
    g.add_argument("--out", required=True)
    g = gensub.add_parser("graph-star", help="algebra derived from a graph")
    g.add_argument("--graph", required=True)
    g.add_argument("--out", required=True)
    g = gensub.add_parser("formula", help="random formula over an algebra")
    g.add_argument("--algebra", required=True)
    g.add_argument("--arity", required=True)
    g.add_argument("--depth", default="2")
    g.add_argument("--atoms", default="8")
    g.add_argument("--out", required=True)
    g.add_argument("--extension-out", default=None, help="also save the formula's extension")
    # the global --seed may also follow `gen <kind>`, the only subcommands that read it
    for sp in gensub.choices.values():
        sp.add_argument("--seed", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every command takes the global --seed, though only `gen` reads it
        args.seed = _integer(args.seed, "--seed")
        return args.func(args)
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        # not 1, which would read as "not definable"
        print("error: out of memory; the instance is too large for the memory available", file=sys.stderr)
        return EXIT_MEMORY
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
