import copy
import itertools
import random
import re
import sys

import pytest

from qfdef import (
    FALSE,
    TRUE,
    Algebra,
    And,
    App,
    Definable,
    Eq,
    Not,
    Or,
    Relation,
    Subisomorphism,
    Var,
    check_decision,
    eval_formula,
    eval_term,
    extension,
    gen_boolean_algebra,
    merging_decide,
    oracle_definable,
    sg,
    splitting_decide,
)
from qfdef.io import (
    algebra_from_json,
    algebra_to_json,
    graph_from_json,
    load_algebra,
    load_relation,
    relation_from_json,
    relation_to_json,
    save_algebra,
    save_relation,
)
from qfdef.terms import formula_variables, substitute_formula

from conftest import DIAMOND_LEQ


def z2():
    return Algebra(2, [("add", 2, [0, 1, 1, 0])])


def test_eval_term_identity(diamond):
    for c in range(4):
        assert eval_term(diamond, Var(0), (c, 3)) == c


def test_eval_term_join_on_incomparables(diamond):
    # u join u' is the top element
    t = App("join", (Var(0), Var(1)))
    assert eval_term(diamond, t, (1, 2)) == 3


def test_eval_term_z2_self_sum():
    # hand evaluation of the two-element group table: 1+1=0
    t = App("add", (Var(0), Var(0)))
    assert eval_term(z2(), t, (1,)) == 0


def test_eval_term_errors(diamond):
    with pytest.raises(ValueError, match="out of range"):
        eval_term(diamond, Var(2), (0, 1))
    with pytest.raises(ValueError, match="not in algebra"):
        eval_term(diamond, App("bogus", (Var(0),)), (0,))
    with pytest.raises(ValueError, match="arity"):
        eval_term(diamond, App("join", (Var(0),)), (0,))


ORDER_FORMULA = Eq(App("join", (Var(0), Var(1))), Var(1))


def test_eval_formula_defines_order(diamond):
    assert eval_formula(diamond, ORDER_FORMULA, (0, 1)) is True
    assert eval_formula(diamond, ORDER_FORMULA, (1, 2)) is False


def test_eval_formula_connectives(diamond):
    assert eval_formula(diamond, TRUE, (0,)) is True
    assert eval_formula(diamond, FALSE, (0,)) is False
    assert eval_formula(diamond, Not(ORDER_FORMULA), (1, 2)) is True
    assert eval_formula(diamond, And((TRUE, ORDER_FORMULA)), (0, 3)) is True
    assert eval_formula(diamond, Or((FALSE, ORDER_FORMULA)), (3, 0)) is False


def test_extension_is_the_order(diamond):
    # oracle: the hand-written order pairs of the diamond
    assert extension(diamond, ORDER_FORMULA, 2).tuples == DIAMOND_LEQ


def test_extension_trivia(diamond):
    assert extension(diamond, FALSE, 2).tuples == frozenset()
    assert extension(diamond, TRUE, 1).tuples == frozenset((a,) for a in range(4))


def test_true_and_false_are_the_empty_and_and_or():
    assert And(()) == And([]) == TRUE and hash(And([])) == hash(TRUE)
    assert Or(()) == Or([]) == FALSE and hash(Or([])) == hash(FALSE)
    assert TRUE != FALSE and TRUE.children == FALSE.children == ()
    assert (repr(TRUE), repr(FALSE)) == ("And([])", "Or([])")


def test_and_and_or_hash_as_their_tagged_children():
    # set and dict orders of formulas, and so the golden digests, rest on these hashes
    c = (ORDER_FORMULA, Not(ORDER_FORMULA))
    assert hash(And(c)) == hash(("and", c)) and hash(Or(c)) == hash(("or", c))
    assert And(c) != Or(c) and not isinstance(And(c), Or) and not isinstance(Or(c), And)
    swapped = substitute_formula(Or([And(c)]), {0: 1, 1: 0})
    assert type(swapped) is Or and type(swapped.children[0]) is And


def test_walkers_agree_on_empty_connectives(diamond):
    swap = {0: 1, 1: 0}
    pairs = list(itertools.product(range(4), repeat=2))
    cases = [
        (TRUE, pairs),
        (FALSE, []),
        (Not(TRUE), []),
        (Not(FALSE), pairs),
        (And((FALSE, ORDER_FORMULA)), []),
        (Or((TRUE, ORDER_FORMULA)), pairs),
        (And((TRUE, And((Or((FALSE, ORDER_FORMULA)),)))), sorted(DIAMOND_LEQ)),
        (Not(Or((FALSE, And(()), Not(ORDER_FORMULA)))), []),
        (Or((Not(And((ORDER_FORMULA, Or(())))), FALSE)), pairs),
    ]
    for phi, holds_at in cases:
        assert extension(diamond, phi, 2).tuples == frozenset(holds_at), phi
        assert [a for a in pairs if eval_formula(diamond, phi, a)] == holds_at, phi
        swapped = substitute_formula(phi, swap)
        assert [a for a in pairs if eval_formula(diamond, swapped, a[::-1])] == holds_at, phi
        assert formula_variables(phi) == formula_variables(swapped)
    assert substitute_formula(TRUE, swap) == TRUE and substitute_formula(FALSE, swap) == FALSE
    assert formula_variables(Not(And((TRUE, Or((FALSE,)))))) == set()
    assert formula_variables(Or((FALSE, And((TRUE, ORDER_FORMULA))))) == {0, 1}


def test_extension_respects_connectives(diamond):
    phi, psi = ORDER_FORMULA, Eq(App("meet", (Var(0), Var(1))), Var(0))
    ext_and = extension(diamond, And((phi, psi)), 2).tuples
    ext_or = extension(diamond, Or((phi, psi)), 2).tuples
    ext_not = extension(diamond, Not(phi), 2).tuples
    e1, e2 = extension(diamond, phi, 2).tuples, extension(diamond, psi, 2).tuples
    full = frozenset(itertools.product(range(4), repeat=2))
    assert ext_and == e1 & e2
    assert ext_or == e1 | e2
    assert ext_not == full - e1


def test_extension_rejects_unbound_variables(diamond):
    with pytest.raises(ValueError, match="x1"):
        extension(diamond, ORDER_FORMULA, 1)


def test_sg_worked_example(diamond):
    # generating u, u', bottom also reaches the top element
    assert sg(diamond, (1, 2, 0)) == frozenset({0, 1, 2, 3})


def test_sg_trivia(diamond):
    assert sg(z2(), (0,)) == frozenset({0})
    assert sg(diamond, (0, 1, 2, 3)) == frozenset({0, 1, 2, 3})
    with pytest.raises(ValueError):
        sg(diamond, ())


def test_sg_idempotent_and_monotone():
    import random

    rng = random.Random(5)
    from qfdef import gen_random_algebra

    for i in range(25):
        n = rng.randint(2, 8)
        alg = gen_random_algebra(n, signature=(("f", 2),), seed=i)
        a = tuple(rng.randrange(n) for _ in range(rng.randint(1, 3)))
        closed = sg(alg, a)
        assert sg(alg, tuple(sorted(closed))) == closed
        b = a + (rng.randrange(n),)
        assert closed <= sg(alg, b)


def test_constants_are_rewritten_to_unary():
    alg = Algebra(3, [("e", 0, [2]), ("f", 1, [1, 2, 0])])
    assert alg.constants == frozenset({"e"})
    op = alg.op("e")
    assert op.arity == 1 and op.table == (2, 2, 2)
    # a bare constant term evaluates through the rewritten table
    assert eval_term(alg, App("e", ()), (0,)) == 2
    # closure picks the constant up from any generator
    assert 2 in sg(alg, (0,))


def test_algebra_validation():
    with pytest.raises(ValueError, match="size"):
        Algebra(0, [])
    with pytest.raises(ValueError, match="entries"):
        Algebra(2, [("f", 2, [0, 1, 1])])
    with pytest.raises(ValueError, match="out-of-range"):
        Algebra(2, [("f", 1, [0, 2])])
    with pytest.raises(ValueError, match="size"):
        Algebra(True, [])
    for entry in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="non-integer"):
            Algebra(2, [("f", 1, [0, entry])])
    with pytest.raises(ValueError, match="duplicate"):
        Algebra(2, [("f", 1, [0, 1]), ("f", 1, [1, 0])])
    for names in (5, "ab"):
        with pytest.raises(ValueError, match="sequence of strings"):
            Algebra(2, [], element_names=names)
    with pytest.raises(ValueError, match="strings"):
        Algebra(2, [], element_names=[0, 1])


def test_operation_symbols_must_read_back_as_symbols():
    # a variable, a keyword, punctuation, a space and the empty name would
    # print formulas that parse_formula misreads or rejects
    for symbol in ("x1", "true", "false", "+", "a b", ""):
        message = f"operation symbol {re.escape(repr(symbol))} is not a name"
        with pytest.raises(ValueError, match=message):
            Algebra(2, [(symbol, 1, [0, 1])])
        with pytest.raises(ValueError, match=message):
            algebra_from_json({"size": 2, "operations": {symbol: {"arity": 1, "table": [0, 1]}}})
    with pytest.raises(ValueError, match="operation symbol 1 is not a name"):
        Algebra(2, [(1, 1, [0, 1])])
    legal = ("f'", "x", "x1a", "x1'", "X1", "_", "truex")
    assert [op.symbol for op in Algebra(2, [(s, 1, [0, 1]) for s in legal]).ops] == list(legal)


def test_relation_validation(diamond):
    with pytest.raises(ValueError, match="arity"):
        Relation.of(0, [])
    with pytest.raises(ValueError, match="arity"):
        Relation.of(2, [(1, 2, 3)])
    bad = Relation.of(1, [(9,)])
    with pytest.raises(ValueError, match="outside"):
        bad.check_over(diamond)


def test_check_over_bounds_and_message(diamond):
    good = [(a, b) for a in range(4) for b in range(4)]
    Relation.of(2, good).check_over(diamond)
    Relation.of(2, []).check_over(diamond)
    # one entry just past either end, or not an int, among valid tuples, is named in the error
    for bad, v in (((2, 4), 4), ((-1, 0), -1), ((0.5, 1), 0.5), ((None, 1), None), (("1", 0), "1")):
        with pytest.raises(ValueError) as e:
            Relation.of(2, good + [bad]).check_over(diamond)
        assert str(e.value) == f"tuple {bad} has entry {v!r} outside 0..3"
    # 0.5 lies between the entries' min and max: no decider, oracle or certificate takes it
    half = Relation.of(2, [(0.5, 1)])
    for decide in (splitting_decide, merging_decide, oracle_definable):
        with pytest.raises(ValueError, match="0.5"):
            decide(diamond, half)
    with pytest.raises(ValueError, match="0.5"):
        check_decision(diamond, half, Definable(FALSE))
    # 1.0 and True equal 1, so a set of the entries would keep only one of them
    for bad, v in (((1.0, 0), 1.0), ((True, 0), True)):
        rel = Relation.of(2, [(0, 1), bad])
        message = f"tuple {bad} has entry {v!r} outside 0..3"
        with pytest.raises(ValueError) as e:
            rel.check_over(diamond)
        assert str(e.value) == message
        for decide in (splitting_decide, merging_decide, oracle_definable):
            with pytest.raises(ValueError, match=re.escape(message)):
                decide(diamond, rel)
        with pytest.raises(ValueError, match=re.escape(message)):
            check_decision(diamond, rel, Definable(FALSE))


def test_algebra_json_round_trip(tmp_path, diamond):
    path = tmp_path / "d.json"
    save_algebra(diamond, str(path))
    loaded = load_algebra(str(path))
    assert loaded.size == diamond.size
    assert [(o.symbol, o.arity, o.table) for o in loaded.ops] == [
        (o.symbol, o.arity, o.table) for o in diamond.ops
    ]
    assert loaded.element_names == diamond.element_names


def test_constant_json_round_trip():
    alg = Algebra(3, [("e", 0, [1]), ("f", 2, [0] * 9)])
    doc = algebra_to_json(alg)
    assert doc["operations"]["e"] == {"arity": 0, "table": [1]}
    again = algebra_from_json(doc)
    assert again.constants == frozenset({"e"})
    assert again.op("e").table == (1, 1, 1)


def test_relation_json_round_trip(tmp_path, diamond_order):
    path = tmp_path / "r.json"
    save_relation(diamond_order, str(path))
    assert load_relation(str(path)) == diamond_order
    doc = relation_to_json(diamond_order)
    assert doc["arity"] == 2
    assert relation_from_json(doc) == diamond_order


def test_element_names(diamond):
    assert diamond.name(3) == "⊤"
    assert diamond.element("u'") == 2
    assert diamond.element("2") == 2
    with pytest.raises(ValueError):
        diamond.element("nope")
    with pytest.raises(ValueError):
        diamond.element("7")


def test_json_loaders_reject_malformed_documents():
    for tuples in ([[0, True]], [[0, 1.0]], [[0, "1"]], [0, 1], 5):
        with pytest.raises(ValueError, match="malformed relation document"):
            relation_from_json({"arity": 2, "tuples": tuples})
    with pytest.raises(ValueError, match="malformed relation document"):
        relation_from_json({"arity": True, "tuples": []})
    with pytest.raises(ValueError, match="malformed relation document: missing 'tuples'"):
        relation_from_json({"arity": 2})
    for doc in ([1], "r", None):
        with pytest.raises(ValueError, match="malformed relation document: expected an object"):
            relation_from_json(doc)
    for operations, defect in (
        ({"f": 5}, "operation 'f' is not an object"),
        ({"f": [1, [0, 1]]}, "operation 'f' is not an object"),
        ({"f": {"arity": 1, "table": 5}}, "the table of operation 'f' is not a list"),
        ({"f": {"arity": 1, "table": "01"}}, "the table of operation 'f' is not a list"),
        ([["f", 1, [0, 1]]], "operations must be an object"),
    ):
        with pytest.raises(ValueError, match="malformed algebra document: " + defect):
            algebra_from_json({"size": 2, "operations": operations})
    for doc in ([1], "a", None):
        with pytest.raises(ValueError, match="malformed algebra document: expected an object"):
            algebra_from_json(doc)
    for elements in (5, "ab", {"a": 0}):
        with pytest.raises(ValueError, match="sequence of strings"):
            algebra_from_json({"size": 2, "elements": elements, "operations": {}})
    with pytest.raises(ValueError, match="strings"):
        algebra_from_json({"size": 2, "elements": ["a", 1], "operations": {}})


def test_algebra_rejects_a_negative_arity_and_bad_element_names():
    with pytest.raises(ValueError, match="arity must be an integer >= 0, got -1"):
        Algebra(2, [("f", -1, [0])])
    with pytest.raises(ValueError, match="length"):
        Algebra(2, [], element_names=["a"])
    with pytest.raises(ValueError, match="distinct"):
        Algebra(2, [], element_names=["a", "a"])


def test_equal_subisomorphisms_listed_in_other_orders_hash_equal():
    # perfbench's answer checker keys answers by this hash
    gamma, again = Subisomorphism((1, 2, 0), (2, 1, 0)), Subisomorphism((0, 2, 1), (0, 1, 2))
    assert gamma == again and hash(gamma) == hash(again) and len({gamma, again}) == 1


def test_algebra_documents_need_a_size_and_tables():
    with pytest.raises(ValueError, match="malformed algebra document: missing 'size'"):
        algebra_from_json({"operations": {}})
    with pytest.raises(ValueError, match="malformed algebra document: missing 'table'"):
        algebra_from_json({"size": 2, "operations": {"f": {"arity": 1}}})


# an arity whose power the table check used to compute, and a size whose
# constant rewrite used to raise OverflowError
HUGE_ARITY = {"size": 4, "operations": {"f": {"arity": 2**64, "table": [0, 1, 2, 3]}}}
HUGE_SIZE = {"size": 10**30, "operations": {"c": {"arity": 0, "table": [0]}}}


def test_algebra_refuses_huge_sizes_and_arities_before_building_tables():
    with pytest.raises(ValueError, match=re.escape("table has 4 entries, expected 4**18446744073709551616")):
        algebra_from_json(HUGE_ARITY)
    with pytest.raises(ValueError, match="algebra size must be an integer from 1 to"):
        algebra_from_json(HUGE_SIZE)
    for size in (sys.maxsize + 1, 2**64):
        with pytest.raises(ValueError, match="algebra size"):
            Algebra(size, [])


_FUZZ_VALUES = (2**64, 10**30, sys.maxsize + 1, -1, 0, 1, 2, 3, 0.5, 1.0, True, None, "", "1", "x1",
                [], [0], [[0, 1]], {}, {"arity": 0, "table": [0]})


def _mutate(rng, doc):
    """A copy of `doc` with one entry of its JSON tree replaced, deleted or added."""
    doc = copy.deepcopy(doc)
    places, stack = [], [doc]
    while stack:
        node = stack.pop()
        for key in list(node) if isinstance(node, dict) else range(len(node)):
            places.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    node, key = rng.choice(places)
    value, action = copy.deepcopy(rng.choice(_FUZZ_VALUES)), rng.random()
    if action < 0.7:
        node[key] = value
    elif action < 0.85:
        del node[key]
    elif isinstance(node, dict):
        node[rng.choice(("size", "arity", "table", "c", "elements", "vertices"))] = value
    else:
        node.insert(key, value)
    return doc


def test_json_loaders_fuzz_load_or_raise_value_error():
    # seeded mutations of valid documents: every load returns or raises
    # ValueError at once, and never exits through another error
    rng = random.Random(8)
    bases = [
        (algebra_from_json, algebra_to_json(gen_boolean_algebra(2)), 3000),
        (algebra_from_json, HUGE_ARITY, 500),
        (algebra_from_json, HUGE_SIZE, 500),
        (relation_from_json, {"arity": 2, "tuples": [[0, 1], [1, 0], [2, 2]]}, 1000),
        (graph_from_json, {"vertices": 3, "edges": [[0, 1], [1, 2]]}, 1000),
    ]
    for load, base, mutations in bases:
        loaded = 0
        for _ in range(mutations):
            doc = _mutate(rng, base)
            if rng.random() < 0.5:
                doc = _mutate(rng, doc)
            try:
                load(doc)
            except ValueError:
                continue
            loaded += 1
        # both outcomes are exercised
        assert 0 < loaded < mutations, (load.__name__, loaded)
