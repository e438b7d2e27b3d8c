"""Quantifier-free definability over finite algebras.

Decide whether a target relation equals the extension of some
quantifier-free formula in the algebra's vocabulary, by an orbit-merging
strategy, a block-splitting strategy (which also produces a defining
formula), or an exhaustive oracle.
"""

from .algebra import (
    FALSE,
    TRUE,
    Algebra,
    And,
    App,
    Eq,
    Not,
    Operation,
    Or,
    ParseError,
    QfFormula,
    Relation,
    Term,
    Var,
    eval_formula,
    eval_term,
    extension,
    format_formula,
    format_term,
    generate_terms,
    load_algebra,
    load_relation,
    parse_formula,
    parse_term,
    save_algebra,
    save_relation,
    sg,
)
from .decision import Decision, Definable, NotDefinable, check_decision
from .generators import (
    diamond_lattice,
    gen_abelian_group,
    gen_boolean_algebra,
    gen_random_algebra,
    gen_random_formula,
    gen_random_graph,
)
from .isotype import IsoSignature, IsoTypeCache, Subisomorphism, iso_type
from .merging import merging_decide, try_merge_orbits
from .oracle import (
    BudgetExceededError,
    Graph,
    enumerate_subisomorphisms,
    enumerate_subuniverses,
    graph_oracle_definable,
    graph_star,
    oracle_definable,
)
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

__version__ = "0.1.0"
