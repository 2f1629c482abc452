"""Loop parser for the concrete formula syntax.

Grammar (EBNF, also published in the README):

    formula   ::= or_expr
    or_expr   ::= and_expr { "|" and_expr }
    and_expr  ::= unary { "&" unary }
    unary     ::= "!" unary | modality | atom
    modality  ::= "<" coalition ">" tail
    coalition ::= "{" [ agents ] "}" ":" bounds          (plain form)
                | "{" row { ";" row } "}"                (endowment form)
    row       ::= ident ":" bounds
    agents    ::= ident { "," ident }
    bounds    ::= bound { "," bound }
    bound     ::= nat | "inf"
    tail      ::= "X" unary | "G" unary | "(" formula "U" formula ")"
    atom      ::= "true" | "false" | ident | "(" formula ")"

`X`, `G`, `U`, `true`, `false` and `inf` are reserved words.  The endowment
form is only accepted with endowments=True and is translated on the fly:
each annotated modality gets the per-resource sum of its members' rows as
its bound.

One regex scan splits the text into tokens, and one loop reads them with
an explicit stack of pending operators and open brackets, so nesting depth
is bounded by memory, not by the interpreter's recursion limit.  A token's
position in the text is only worked out when an error is reported.
"""

from __future__ import annotations

import re

from .errors import FormulaError
from .formula import (
    FALSE,
    TRUE,
    CoalitionAlways,
    CoalitionNext,
    CoalitionUntil,
    Formula,
    Not,
    Or,
    And,
    Prop,
)
from .vectors import INF

_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[<>{}(),;:|&!]")
# every character no token can start with; the first one is the error
_BAD_RE = re.compile(r"[^\s\dA-Za-z_<>{}(),;:|&!]")

_RESERVED = {"true", "false", "inf", "X", "G", "U"}
_PUNCT = set("<>{}(),;:|&!")
_IDENT_START = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# a token that starts with none of these (or "", the end) is a natural
_NOT_NAT = _IDENT_START | _PUNCT | {""}

# pending entries of the operator stack
_NOT, _NEXT, _ALWAYS, _AND, _OR, _PAREN, _HOLD, _GOAL = range(8)


class _Tokens:
    """The token list of one text, with a cursor; the end is the empty
    string, which equals no expected token."""

    def __init__(self, text: str):
        bad = _BAD_RE.search(text)
        if bad is not None:
            raise FormulaError(f"unexpected character {bad.group()!r}",
                               bad.start())
        self.text = text
        self.toks = _TOKEN_RE.findall(text)
        self.toks.append("")
        self.i = 0

    def error(self, message, i=None):
        """A FormulaError at token i, the current one by default."""
        i = self.i if i is None else i
        if i < len(self.toks) - 1:
            pos = next(m.start() for k, m in
                       enumerate(_TOKEN_RE.finditer(self.text)) if k == i)
        else:
            pos = len(self.text)
        return FormulaError(message, pos)

    def expect(self, value):
        if self.toks[self.i] != value:
            raise self.error(f"expected {value!r}")
        self.i += 1

    def agent_name(self):
        # agents may carry bare numeric names (e.g. reduced game models)
        tok = self.toks[self.i]
        is_nat = tok[:1] not in _NOT_NAT
        if not is_nat and (tok[:1] not in _IDENT_START or tok in _RESERVED):
            raise self.error("expected agent name")
        self.i += 1
        return tok

    def bound_vec(self) -> tuple:
        toks = self.toks
        comps = []
        while True:
            tok = toks[self.i]
            if tok == "inf":
                comps.append(INF)
            elif tok[:1] not in _NOT_NAT:
                comps.append(int(tok))
            else:
                raise self.error("expected a natural number or 'inf'")
            self.i += 1
            if toks[self.i] != ",":
                return tuple(comps)
            self.i += 1


def _coalition_and_bound(t: _Tokens, endowments: bool):
    """The coalition and bound of a modality, from just after its '{'."""
    if t.toks[t.i] == "}":  # empty coalition, plain form only
        t.i += 1
        t.expect(":")
        return (), t.bound_vec()
    first = t.agent_name()
    if t.toks[t.i] == ":":
        return _endowment_rows(t, endowments, first)
    agents = [first]
    while t.toks[t.i] == ",":
        t.i += 1
        agents.append(t.agent_name())
    if t.toks[t.i] in (";", ":"):
        if endowments:
            raise t.error(f"no endowment row for agent {first!r}")
        raise t.error("expected ',' or '}' in coalition")
    t.expect("}")
    t.expect(":")
    return tuple(agents), t.bound_vec()


def _endowment_rows(t: _Tokens, endowments: bool, first_agent):
    if not endowments:
        raise t.error("endowment syntax not allowed here (use the translator)")
    rows = {}
    agent = first_agent
    while True:
        t.expect(":")
        if agent in rows:
            raise FormulaError(f"duplicate endowment row for agent {agent!r}")
        rows[agent] = t.bound_vec()
        if t.toks[t.i] != ";":
            break
        t.i += 1
        agent = t.agent_name()
        if t.toks[t.i] != ":":
            raise t.error(f"no endowment row for agent {agent!r}")
    t.expect("}")
    lengths = {len(v) for v in rows.values()}
    if len(lengths) > 1:
        raise FormulaError("endowment rows have differing lengths")
    r = lengths.pop()
    bound = tuple(
        sum((row[i] for row in rows.values()), 0) for i in range(r)
    )
    return tuple(rows), bound


def parse_formula(text: str, *, endowments: bool = False) -> Formula:
    """Parse concrete syntax into an AST.

    With endowments=True the per-agent endowment form is also accepted and
    every annotation is replaced by the per-resource sum of its rows.
    """
    t = _Tokens(text)
    toks = t.toks
    stack: list = []  # pending operators and open brackets, innermost last
    push = stack.append
    i = 0
    while True:
        # a unary: prefix operators and brackets, then an atom
        while True:
            tok = toks[i]
            if tok == "!":
                push((_NOT,))
                i += 1
            elif tok == "(":
                push((_PAREN,))
                i += 1
            elif tok == "<":
                t.i = i + 1
                t.expect("{")
                coalition, bound = _coalition_and_bound(t, endowments)
                t.expect(">")
                i = t.i
                tok = toks[i]
                if tok == "X":
                    push((_NEXT, coalition, bound))
                elif tok == "G":
                    push((_ALWAYS, coalition, bound))
                elif tok == "(":
                    push((_HOLD, coalition, bound))
                else:
                    raise t.error("expected 'X', 'G' or a parenthesised "
                                  "until body", i)
                i += 1
            elif tok == "true":
                f = TRUE
                break
            elif tok == "false":
                f = FALSE
                break
            elif tok[:1] in _IDENT_START:
                if tok in _RESERVED:
                    raise t.error("expected a proposition", i)
                f = Prop(tok)
                break
            else:
                raise t.error("expected a formula", i)
        i += 1
        # close what f completes, up to an operator or bracket that needs more
        while True:
            while stack:
                top = stack[-1]
                kind = top[0]
                if kind == _NOT:
                    f = Not(f)
                elif kind == _NEXT:
                    f = CoalitionNext(top[1], top[2], f)
                elif kind == _ALWAYS:
                    f = CoalitionAlways(top[1], top[2], f)
                else:
                    break
                stack.pop()
            if stack and stack[-1][0] == _AND:
                f = And(stack.pop()[1], f)
            tok = toks[i]
            if tok == "&":
                push((_AND, f))
                break
            if stack and stack[-1][0] == _OR:
                f = Or(stack.pop()[1], f)
            if tok == "|":
                push((_OR, f))
                break
            # an or_expr ends here
            if not stack:
                if tok:
                    raise t.error("trailing input after formula", i)
                return f
            top = stack.pop()
            kind = top[0]
            if kind == _HOLD:
                if tok != "U":
                    raise t.error("expected 'U'", i)
                push((_GOAL, top[1], top[2], f))
                break
            if tok != ")":
                raise t.error("expected ')'", i)
            i += 1
            if kind == _GOAL:
                f = CoalitionUntil(top[1], top[2], top[3], f)
            # f is a finished unary now, as an atom or an until
        i += 1


def translate_endowments(text: str) -> Formula:
    """Parse a formula with endowment annotations into a bound formula."""
    return parse_formula(text, endowments=True)
