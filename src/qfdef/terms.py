"""Terms, quantifier-free formulas, their reference evaluation and printing.

Quantifier-free formulas are Boolean combinations of term equations with
no constant nodes: `TRUE` is the empty And and `FALSE` the empty Or, so
every walker handles them in its And/Or branch, and only the printer and
the parser spell them `true` and `false`.  `eval_term` and `eval_formula`
evaluate one tuple at a time by recursion, the reference that the
deciders' column kernel (`columns.py`) is tested against.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .algebra import Algebra


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Term:
    """Base class for term syntax trees.  Immutable and hashable."""

    __slots__ = ()


class Var(Term):
    __slots__ = ("index", "depth", "_hash")

    def __init__(self, index: int):
        if index < 0:
            raise ValueError(f"variable index must be >= 0, got {index}")
        self.index = index
        self.depth = 0
        self._hash = hash(("var", index))

    def __eq__(self, other):
        return type(other) is Var and other.index == self.index

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Var({self.index})"

    def __str__(self):
        return f"x{self.index}"


_depth = operator.attrgetter("depth")


class App(Term):
    __slots__ = ("symbol", "args", "depth", "_hash")

    def __init__(self, symbol: str, args: Sequence[Term] = ()):
        self.symbol = symbol
        self.args = tuple(args)
        self.depth = 1 + max(map(_depth, self.args)) if self.args else 0
        self._hash = hash(("app", symbol, self.args))

    def __eq__(self, other):
        return (
            type(other) is App
            and other._hash == self._hash
            and other.symbol == self.symbol
            and other.args == self.args
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"App({self.symbol!r}, {list(self.args)!r})"

    def __str__(self):
        return format_term(self)


def term_variables(t: Term) -> set[int]:
    if isinstance(t, Var):
        return {t.index}
    out: set[int] = set()
    for s in t.args:
        out |= term_variables(s)
    return out


# ---------------------------------------------------------------------------
# Quantifier-free formulas
# ---------------------------------------------------------------------------

class QfFormula:
    """Boolean combination of term equations.  Immutable and hashable."""

    __slots__ = ()


class Eq(QfFormula):
    __slots__ = ("lhs", "rhs", "_hash")

    def __init__(self, lhs: Term, rhs: Term):
        self.lhs = lhs
        self.rhs = rhs
        self._hash = hash(("eq", lhs, rhs))

    def __eq__(self, other):
        return type(other) is Eq and other.lhs == self.lhs and other.rhs == self.rhs

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Eq({self.lhs!r}, {self.rhs!r})"


class Not(QfFormula):
    __slots__ = ("inner", "_hash")

    def __init__(self, inner: QfFormula):
        self.inner = inner
        self._hash = hash(("not", inner))

    def __eq__(self, other):
        return type(other) is Not and other.inner == self.inner

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Not({self.inner!r})"


class _Junction(QfFormula):
    """The body that And and Or share; each subclass sets only its tag."""

    __slots__ = ("children", "_hash")
    _tag: str

    def __init__(self, children: Sequence[QfFormula]):
        self.children = tuple(children)
        self._hash = hash((self._tag, self.children))

    def __eq__(self, other):
        return type(other) is type(self) and other.children == self.children

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({list(self.children)!r})"


class And(_Junction):
    __slots__ = ()
    _tag = "and"


class Or(_Junction):
    __slots__ = ()
    _tag = "or"


# true and false are the empty conjunction and the empty disjunction
TRUE = And(())
FALSE = Or(())


def formula_variables(phi: QfFormula) -> set[int]:
    if isinstance(phi, Eq):
        return term_variables(phi.lhs) | term_variables(phi.rhs)
    if isinstance(phi, Not):
        return formula_variables(phi.inner)
    if isinstance(phi, _Junction):
        out: set[int] = set()
        for c in phi.children:
            out |= formula_variables(c)
        return out
    raise TypeError(f"not a formula: {phi!r}")


# The renamers hand lists to App, And and Or: tuple() over a generator shrinks
# a ten-slot tuple, and shrunken tuples pile up on CPython's per-size free
# lists until a full garbage collection, which rarely runs in the deciders.
def substitute_term(t: Term, mapping: dict[int, int]) -> Term:
    """Rename variables of `t` according to index mapping."""
    if isinstance(t, Var):
        return Var(mapping[t.index]) if t.index in mapping else t
    return App(t.symbol, [substitute_term(s, mapping) for s in t.args])


def substitute_formula(phi: QfFormula, mapping: dict[int, int]) -> QfFormula:
    if isinstance(phi, Eq):
        return Eq(substitute_term(phi.lhs, mapping), substitute_term(phi.rhs, mapping))
    if isinstance(phi, Not):
        return Not(substitute_formula(phi.inner, mapping))
    if isinstance(phi, _Junction):
        return type(phi)([substitute_formula(c, mapping) for c in phi.children])
    raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def eval_term(alg: Algebra, t: Term, a: Sequence[int]) -> int:
    """Value of `t` under the assignment x_i -> a[i]."""
    if isinstance(t, Var):
        if t.index >= len(a):
            raise ValueError(f"variable x{t.index} out of range for a tuple of length {len(a)}")
        return a[t.index]
    op = alg.op(t.symbol)
    if len(t.args) != op.arity:
        if not t.args and t.symbol in alg.constants:
            return op.table[0]
        raise ValueError(
            f"symbol {t.symbol!r} applied to {len(t.args)} arguments, arity is {op.arity}"
        )
    return op.value([eval_term(alg, s, a) for s in t.args])


def eval_formula(alg: Algebra, phi: QfFormula, a: Sequence[int]) -> bool:
    if isinstance(phi, Eq):
        return eval_term(alg, phi.lhs, a) == eval_term(alg, phi.rhs, a)
    if isinstance(phi, Not):
        return not eval_formula(alg, phi.inner, a)
    if isinstance(phi, And):
        for c in phi.children:
            if not eval_formula(alg, c, a):
                return False
        return True
    if isinstance(phi, Or):
        for c in phi.children:
            if eval_formula(alg, c, a):
                return True
        return False
    raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def format_term(t: Term, constants: frozenset[str] | set[str] = frozenset()) -> str:
    if isinstance(t, Var):
        return f"x{t.index}"
    if not t.args or t.symbol in constants:
        return t.symbol
    return t.symbol + "(" + ",".join(format_term(s, constants) for s in t.args) + ")"


def _flatten(phi: QfFormula, cls) -> list[QfFormula]:
    out: list[QfFormula] = []
    stack = [phi]
    while stack:
        f = stack.pop()
        if type(f) is cls and f.children:
            stack.extend(reversed(f.children))
        else:
            out.append(f)
    return out


def format_formula(phi: QfFormula, constants: frozenset[str] | set[str] = frozenset()) -> str:
    """Canonical text: And/Or flattened, '!=' restored, minimal parentheses.
    The empty And and Or print as `true` and `false`, which need none."""
    if isinstance(phi, _Junction) and not phi.children:
        return "true" if isinstance(phi, And) else "false"
    if isinstance(phi, Eq):
        return f"{format_term(phi.lhs, constants)}={format_term(phi.rhs, constants)}"
    if isinstance(phi, Not):
        if isinstance(phi.inner, Eq):
            e = phi.inner
            return f"{format_term(e.lhs, constants)}!={format_term(e.rhs, constants)}"
        if isinstance(phi.inner, _Junction) and phi.inner.children:
            return "!(" + format_formula(phi.inner, constants) + ")"
        return "!" + format_formula(phi.inner, constants)
    if isinstance(phi, And):
        parts = []
        for c in _flatten(phi, And):
            text = format_formula(c, constants)
            parts.append(f"({text})" if isinstance(c, Or) and c.children else text)
        return "&".join(parts)
    if isinstance(phi, Or):
        return "|".join(format_formula(c, constants) for c in _flatten(phi, Or))
    raise TypeError(f"not a formula: {phi!r}")
