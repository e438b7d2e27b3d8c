"""Quantifier-free definability over finite algebras.

Decide whether a target relation equals the extension of some
quantifier-free formula in the algebra's vocabulary, by an orbit-merging
strategy, a block-splitting strategy (which also produces a defining
formula), or an exhaustive oracle.
"""

from .algebra import Algebra, Operation, Relation, Subisomorphism, sg
from .columns import extension, generate_terms
from .decision import Decision, Definable, NotDefinable, check_decision
from .generators import (
    diamond_lattice,
    gen_abelian_group,
    gen_boolean_algebra,
    gen_random_algebra,
    gen_random_formula,
    gen_random_graph,
)
from .graph import Graph, graph_oracle_definable, graph_star
from .io import load_algebra, load_relation, save_algebra, save_relation
from .isotype import IsoSignature, IsoTypeCache, iso_type
from .merging import merging_decide, try_merge_orbits
from .oracle import BudgetExceededError, enumerate_subisomorphisms, enumerate_subuniverses, oracle_definable
from .preprocess import (
    TargetBundle,
    assemble,
    decompose,
    expand,
    pattern,
    recombine,
    squash,
)
from .splitting import SplitStats, process_mixed_block, splitting_decide
from .syntax import ParseError, parse_formula, parse_term
from .terms import (
    FALSE,
    TRUE,
    And,
    App,
    Eq,
    Not,
    Or,
    QfFormula,
    Term,
    Var,
    eval_formula,
    eval_term,
    format_formula,
    format_term,
)

__version__ = "0.1.0"
