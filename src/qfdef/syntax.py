"""The text grammar of terms and formulas: tokenizer and parser.

`_SYMBOL` is README's SYM, the names the parser reads back as operation
symbols; `Algebra` accepts only those.  The printer that writes the
grammar is `terms.format_formula`.
"""

from __future__ import annotations

import re

from .terms import FALSE, TRUE, And, App, Eq, Not, Or, QfFormula, Term, Var


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


_NAME, _VARIABLE = r"[A-Za-z_][A-Za-z0-9_']*", r"x\d+"
_TOKEN = re.compile(rf"(?P<name>{_NAME})|(?P<punct>!=|[()=,&|!])|(?P<bad>\S)")
# README's SYM, a name that reads back as an operation symbol: neither a variable nor a keyword
_SYMBOL = re.compile(rf"(?!(?:{_VARIABLE}|true|false)\Z){_NAME}\Z")


def is_decimal(text: str) -> bool:
    """ASCII digits only: int() would also read "1_0", " 3" and "٣"."""
    return text.isascii() and text.isdigit()


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        kind = m.lastgroup
        word = m.group()
        if kind == "name" and re.fullmatch(_VARIABLE, word):
            kind = "var"
        tokens.append((kind, word, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, word: str) -> None:
        kind, got, at = self.next()
        if got != word:
            raise ParseError(f"expected {word!r}, found {got or 'end of input'!r}", at)

    def term(self) -> Term:
        kind, word, at = self.next()
        if kind == "var":
            return Var(int(word[1:]))
        if kind == "name":
            if word in ("true", "false"):
                raise ParseError(f"{word!r} is not a term", at)
            if self.peek()[1] == "(":
                self.next()
                args = [self.term()]
                while self.peek()[1] == ",":
                    self.next()
                    args.append(self.term())
                self.expect(")")
                return App(word, tuple(args))
            # a bare symbol reads as a constant
            return App(word, ())
        raise ParseError(f"expected a term, found {word or 'end of input'!r}", at)

    def atom(self) -> QfFormula:
        lhs = self.term()
        kind, word, at = self.next()
        if word == "=":
            return Eq(lhs, self.term())
        if word == "!=":
            return Not(Eq(lhs, self.term()))
        raise ParseError(f"expected '=' or '!=', found {word or 'end of input'!r}", at)

    def primary(self) -> QfFormula:
        kind, word, at = self.peek()
        if word == "true":
            self.next()
            return TRUE
        if word == "false":
            self.next()
            return FALSE
        if word == "(":
            self.next()
            phi = self.disjunction()
            self.expect(")")
            return phi
        return self.atom()

    def negation(self) -> QfFormula:
        if self.peek()[1] == "!":
            self.next()
            return Not(self.negation())
        return self.primary()

    def conjunction(self) -> QfFormula:
        items = [self.negation()]
        while self.peek()[1] == "&":
            self.next()
            items.append(self.negation())
        return items[0] if len(items) == 1 else And(tuple(items))

    def disjunction(self) -> QfFormula:
        items = [self.conjunction()]
        while self.peek()[1] == "|":
            self.next()
            items.append(self.conjunction())
        return items[0] if len(items) == 1 else Or(tuple(items))


def _parse(text: str, rule):
    p = _Parser(text)
    try:
        out = rule(p)
    except RecursionError:  # every '!', parenthesis and application recurses once
        at = p.tokens[min(p.pos, len(p.tokens) - 1)][2]
        raise ParseError("nested too deeply", at) from None
    kind, word, at = p.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {word!r}", at)
    return out


def parse_term(text: str) -> Term:
    return _parse(text, _Parser.term)


def parse_formula(text: str) -> QfFormula:
    return _parse(text, _Parser.disjunction)
