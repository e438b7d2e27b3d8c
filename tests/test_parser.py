import random
import re
import sys

import pytest

from qfdef import (
    And,
    App,
    Eq,
    FALSE,
    Not,
    Or,
    ParseError,
    TRUE,
    Var,
    format_formula,
    format_term,
    parse_formula,
    parse_term,
)


def test_parse_variable():
    assert parse_term("x0") == Var(0)
    assert parse_term("x17") == Var(17)


def test_parse_application():
    assert parse_term("f(x0,x1)") == App("f", (Var(0), Var(1)))
    assert parse_term("f(g(x2),x0)") == App("f", (App("g", (Var(2),)), Var(0)))


def test_parse_atom():
    assert parse_formula("f(x0,x1)=x1") == Eq(App("f", (Var(0), Var(1))), Var(1))
    assert parse_formula("x0!=x1") == Not(Eq(Var(0), Var(1)))


def test_parse_constants_are_nullary_apps():
    assert parse_term("e") == App("e", ())
    assert parse_formula("e=x0") == Eq(App("e", ()), Var(0))


def test_precedence_not_over_and_over_or():
    phi = parse_formula("!x0=x1&x0=x2|true")
    assert phi == Or((And((Not(Eq(Var(0), Var(1))), Eq(Var(0), Var(2)))), TRUE))


def test_parentheses_override_precedence():
    phi = parse_formula("!(x0=x1&false)")
    assert phi == Not(And((Eq(Var(0), Var(1)), FALSE)))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_formula("x0=")
    assert err.value.position == 3
    with pytest.raises(ParseError):
        parse_term("f(x0")
    with pytest.raises(ParseError):
        parse_formula("x0=x1 x2")
    with pytest.raises(ParseError):
        parse_formula("true=false")
    with pytest.raises(ParseError):
        parse_formula("x0 # x1")


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_formula, "!" * 5000 + "x0=x1"),
        (parse_formula, "(" * 5000 + "x0=x1" + ")" * 5000),
        (parse_term, "f(" * 5000 + "x0" + ")" * 5000),
    ],
    ids=["negations", "parentheses", "applications"],
)
def test_deep_nesting_is_a_parse_error(parse, text):
    with pytest.raises(ParseError, match="nested too deeply") as err:
        parse(text)
    # the position is that of a token inside the nesting
    assert 0 < err.value.position < len(text) // 2


def test_unclosed_nesting_is_a_parse_error_at_every_depth():
    # at some depth the end of input is met just as the recursion limit is;
    # the error must still carry a position then
    for n in range(sys.getrecursionlimit()):
        for parse, text in ((parse_formula, "!" * n), (parse_term, "f(" * n)):
            with pytest.raises(ParseError):
                parse(text)


def test_printing_flattens_and_restores():
    nested = And((And((Eq(Var(0), Var(1)), TRUE)), Not(Eq(Var(0), Var(2)))))
    assert format_formula(nested) == "x0=x1&true&x0!=x2"
    ors = Or((Or((TRUE, FALSE)), And((TRUE, TRUE))))
    assert format_formula(ors) == "true|false|true&true"
    # an Or below an And needs parentheses
    assert format_formula(And((Or((TRUE, FALSE)), TRUE))) == "(true|false)&true"
    assert format_formula(Not(Or((TRUE, FALSE)))) == "!(true|false)"


def test_printing_leaves_empty_connectives_alone():
    eq = Eq(Var(0), Var(1))
    for phi, text in (
        (Not(TRUE), "!true"),
        (Not(FALSE), "!false"),
        (And((FALSE, eq)), "false&x0=x1"),
        (Or((eq, TRUE)), "x0=x1|true"),
        (And((And(()), eq)), "true&x0=x1"),
        (Or((Or(()), eq)), "false|x0=x1"),
    ):
        assert format_formula(phi) == text
        assert parse_formula(text) == phi


def test_printing_restores_constant_symbols():
    t = App("e", (Var(0),))
    assert format_term(t, constants=frozenset({"e"})) == "e"
    assert format_term(t) == "e(x0)"


def _random_formula_text(rng, depth):
    """Test-local generator, independent of the library's own one."""

    def term(d):
        if d == 0 or rng.random() < 0.4:
            return f"x{rng.randrange(3)}"
        sym = rng.choice(["f", "g"])
        n_args = rng.randint(1, 2)
        return sym + "(" + ",".join(term(d - 1) for _ in range(n_args)) + ")"

    def formula(d):
        if d == 0:
            r = rng.random()
            if r < 0.1:
                return rng.choice(["true", "false"])
            op = rng.choice(["=", "!="])
            return term(2) + op + term(2)
        r = rng.random()
        if r < 0.2:
            return "!" + "(" + formula(d - 1) + ")"
        glue = rng.choice(["&", "|"])
        return glue.join(formula(d - 1) for _ in range(rng.randint(2, 3)))

    return formula(depth)


def test_round_trip_on_random_corpus():
    rng = random.Random(99)
    for _ in range(100):
        text = _random_formula_text(rng, rng.randint(0, 3))
        canonical = format_formula(parse_formula(text))
        assert format_formula(parse_formula(canonical)) == canonical


def test_terms_evaluate_identically_after_reparse():
    from qfdef import eval_term, gen_random_algebra
    from qfdef.generators import gen_random_formula

    rng = random.Random(17)
    alg = gen_random_algebra(3, seed=1)
    for i in range(50):
        phi = gen_random_formula(alg, 2, depth_bound=3, seed=i)
        # walk every term inside the formula
        stack = [phi]
        terms = []
        while stack:
            f = stack.pop()
            if hasattr(f, "children"):
                stack.extend(f.children)
            elif hasattr(f, "inner"):
                stack.append(f.inner)
            elif hasattr(f, "lhs"):
                terms.extend([f.lhs, f.rhs])
        for t in terms:
            again = parse_term(format_term(t))
            for a in [(0, 1), (2, 2), (1, 0)]:
                assert eval_term(alg, t, a) == eval_term(alg, again, a)


# the grammar's tokens, with spaces; `x01` reads as x1 and `f'` as a symbol
_FUZZ_TOKENS = ["x0", "x1", "x01", "f", "g", "f'", "e", "true", "false", "(", ")", ",", "=", "!=", "&", "|", "!", " "]


def _merged(phi):
    """`phi` with each non-empty And in an And, and Or in an Or, merged
    into its parent, as printing merges them."""
    if isinstance(phi, Not):
        return Not(_merged(phi.inner))
    if isinstance(phi, (And, Or)):
        children = []
        for c in map(_merged, phi.children):
            children.extend(c.children if type(c) is type(phi) and c.children else (c,))
        return type(phi)(children)
    return phi


def _fuzz_text(rng):
    """Tokens at random, or a random derivation with a few tokens changed."""
    if rng.random() < 0.3:
        return "".join(rng.choice(_FUZZ_TOKENS) for _ in range(rng.randint(0, 12)))
    tokens = re.findall(r"\w+|!=|\S", _random_formula_text(rng, rng.randint(0, 3)))
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(tokens) + 1)
        action = rng.randrange(3)
        if action == 0 and i < len(tokens):
            del tokens[i]
        elif action == 1 and i < len(tokens):
            tokens[i] = rng.choice(_FUZZ_TOKENS)
        else:
            tokens.insert(i, rng.choice(_FUZZ_TOKENS))
    return "".join(tokens)


def test_parser_fuzz_raises_parse_error_or_round_trips():
    rng = random.Random(2024)
    parsed = 0
    for _ in range(1000):
        text = _fuzz_text(rng)
        try:
            phi = parse_formula(text)
        except ParseError:
            continue
        parsed += 1
        canonical = format_formula(phi)
        again = parse_formula(canonical)
        assert again == _merged(phi), text
        assert format_formula(again) == canonical, text
    # both outcomes are exercised
    assert 200 <= parsed <= 800, parsed
