"""Independent answer checks; plain `if`s, so they still run under `python -O`."""

from __future__ import annotations

from qfdef import And, Definable, Eq, Not, NotDefinable, Or, extension

from corpus import Item


def check_answer(item: Item, decision) -> str | None:
    """None when `decision` is a correct answer for `item`, else the reason."""
    alg, rel = item.alg, item.rel
    if isinstance(decision, Definable):
        if not item.definable:
            return "answered definable for a planted negative"
        if decision.formula is not None:
            if extension(alg, decision.formula, rel.arity).tuples != rel.tuples:
                return "formula extension differs from the target"
        return None
    if isinstance(decision, NotDefinable):
        if item.definable:
            return "answered not definable for a formula extension"
        if decision.witness_in not in rel.tuples:
            return f"witness_in {decision.witness_in} is not in the target"
        if decision.witness_out in rel.tuples:
            return f"witness_out {decision.witness_out} is in the target"
        gamma = decision.gamma
        if not gamma.is_valid(alg):
            return "gamma is not a subisomorphism"
        if not set(decision.witness_in) <= gamma.domain_set:
            return "witness_in leaves gamma's domain"
        if gamma.map_tuple(decision.witness_in) != decision.witness_out:
            return "gamma does not map witness_in to witness_out"
        return None
    return f"unexpected answer type {type(decision).__name__}"


def count_eq_atoms(phi) -> int:
    if isinstance(phi, Eq):
        return 1
    if isinstance(phi, Not):
        return count_eq_atoms(phi.inner)
    if isinstance(phi, (And, Or)):
        return sum(count_eq_atoms(c) for c in phi.children)
    return 0
