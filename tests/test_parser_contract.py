"""The parser's error contract: for each malformed formula, the exact
`FormulaError` message and position.  The table covers every error site of
the grammar, the endowment rows included."""

import pytest

from rbatl import (FALSE, INF, TRUE, And, CoalitionAlways, CoalitionNext,
                   CoalitionUntil, FormulaError, Not, Or, Prop, parse_formula)

# (text, endowments, message, position)
MALFORMED = [
    ('p @ q', False, "unexpected character '@' (at position 2)", 2),
    ('p\t\n$', False, "unexpected character '$' (at position 3)", 3),
    ('<{a}: 1> X é', False, "unexpected character 'é' (at position 11)", 11),
    ('', False, 'expected a formula (at position 0)', 0),
    ('   ', False, 'expected a formula (at position 3)', 3),
    ('p | ', False, 'expected a formula (at position 4)', 4),
    ('p &', False, 'expected a formula (at position 3)', 3),
    ('p q', False, 'trailing input after formula (at position 2)', 2),
    ('(p', False, "expected ')' (at position 2)", 2),
    ('(p & q))', False, 'trailing input after formula (at position 7)', 7),
    ('!', False, 'expected a formula (at position 1)', 1),
    ('()', False, 'expected a formula (at position 1)', 1),
    (')', False, 'expected a formula (at position 0)', 0),
    ('3', False, 'expected a formula (at position 0)', 0),
    ('inf', False, 'expected a proposition (at position 0)', 0),
    ('X', False, 'expected a proposition (at position 0)', 0),
    ('p | U', False, 'expected a proposition (at position 4)', 4),
    ('G & p', False, 'expected a proposition (at position 0)', 0),
    ('<', False, "expected '{' (at position 1)", 1),
    ('<a}: 1> X p', False, "expected '{' (at position 1)", 1),
    ('<{a}: 1 X p', False, "expected '>' (at position 8)", 8),
    ('<{a} 1> X p', False, "expected ':' (at position 5)", 5),
    ('<{a}: > X p', False, "expected a natural number or 'inf' (at position 6)", 6),
    ('<{a}: 1,> X p', False, "expected a natural number or 'inf' (at position 8)", 8),
    ('<{a}: x> X p', False, "expected a natural number or 'inf' (at position 6)", 6),
    ('<{a}: -1> X p', False, "unexpected character '-' (at position 6)", 6),
    ('<{}> X p', False, "expected ':' (at position 3)", 3),
    ('<{}: 1> p', False, "expected 'X', 'G' or a parenthesised until body (at position 8)", 8),
    ('<{}: 1>', False, "expected 'X', 'G' or a parenthesised until body (at position 7)", 7),
    ('<{a}: 1> (p U q', False, "expected ')' (at position 15)", 15),
    ('<{a}: 1> (p q)', False, "expected 'U' (at position 12)", 12),
    ('<{a}: 1> (p U)', False, 'expected a formula (at position 13)', 13),
    ('<{a}: 1> ( U q)', False, 'expected a proposition (at position 11)', 11),
    ('<{X}: 1> X p', False, 'expected agent name (at position 2)', 2),
    ('<{a,}: 1> X p', False, 'expected agent name (at position 4)', 4),
    ('<{a b}: 1> X p', False, "expected '}' (at position 4)", 4),
    ('<{a,b;c}: 1> X p', False, "expected ',' or '}' in coalition (at position 5)", 5),
    ('<{a,b:1}> X p', False, "expected ',' or '}' in coalition (at position 5)", 5),
    ('<{a:1}> X p', False, 'endowment syntax not allowed here (use the translator) (at position 3)', 3),
    ('<{a:1; b:2}> X p', False, 'endowment syntax not allowed here (use the translator) (at position 3)', 3),
    ('<{a,b;c:1}> X p', True, "no endowment row for agent 'a' (at position 5)", 5),
    ('<{a,b:1}> X p', True, "no endowment row for agent 'a' (at position 5)", 5),
    ('<{a:1; a:2}> X p', True, "duplicate endowment row for agent 'a'", None),
    ('<{a:1; b}> X p', True, "no endowment row for agent 'b' (at position 8)", 8),
    ('<{a:1; b;c:2}> X p', True, "no endowment row for agent 'b' (at position 8)", 8),
    ('<{a:1; b:2,3}> X p', True, 'endowment rows have differing lengths', None),
    ('<{a:1;}> X p', True, 'expected agent name (at position 6)', 6),
    ('<{a:1 b:2}> X p', True, "expected '}' (at position 6)", 6),
    ('<{a:}> X p', True, "expected a natural number or 'inf' (at position 4)", 4),
    ('<{a:1}: 1> X p', True, "expected '>' (at position 6)", 6),
    ('<{a:1}> p', True, "expected 'X', 'G' or a parenthesised until body (at position 8)", 8),
    ('<{a:1}> X', True, 'expected a formula (at position 9)', 9),
    ('p & <{a:1}> X p | ', True, 'expected a formula (at position 18)', 18),
    ('!!(p | q) & <{1,2}: 0> G', False, 'expected a formula (at position 24)', 24),
    ('<{a}: 1> X <{b}: 2> G (p | q) & <{}: 0> (true U', False, 'expected a formula (at position 47)', 47),
    ('true false', False, 'trailing input after formula (at position 5)', 5),
    ('p | (q & <{a}: inf> X r', False, "expected ')' (at position 23)", 23),
    ('((((p))))) ', False, 'trailing input after formula (at position 9)', 9),
]


@pytest.mark.parametrize("text, endowments, message, position", MALFORMED)
def test_malformed_formula_error(text, endowments, message, position):
    with pytest.raises(FormulaError) as err:
        parse_formula(text, endowments=endowments)
    assert str(err.value) == message
    assert err.value.position == position


def test_table_reaches_every_error_site():
    stems = {message.split(" (at position")[0].split(" for agent")[0]
             for _, _, message, _ in MALFORMED}
    assert len(MALFORMED) >= 30
    assert {"expected '{'", "expected ':'", "expected '>'", "expected '}'",
            "expected ')'", "expected 'U'", "expected agent name",
            "expected a formula", "expected a proposition",
            "expected a natural number or 'inf'",
            "expected ',' or '}' in coalition",
            "expected 'X', 'G' or a parenthesised until body",
            "trailing input after formula",
            "endowment syntax not allowed here (use the translator)",
            "no endowment row", "duplicate endowment row",
            "endowment rows have differing lengths"} <= stems
    assert any(m.startswith("unexpected character") for m in stems)


def test_unicode_digits_are_naturals():
    # `\d` matches every Unicode decimal digit, and int() reads them
    assert parse_formula("<{a}: ٣> X p") == parse_formula("<{a}: 3> X p")


a, b, c, d = (Prop(x) for x in "abcd")

# (text, endowments, formula): associativity, precedence and nesting
VALID = [
    ("a | b | c", False, Or(Or(a, b), c)),
    ("a & b & c", False, And(And(a, b), c)),
    ("a | b & c | d", False, Or(Or(a, And(b, c)), d)),
    ("a & (b | c) & d", False, And(And(a, Or(b, c)), d)),
    ("!!a & !b", False, And(Not(Not(a)), Not(b))),
    ("!(a | b)", False, Not(Or(a, b))),
    ("((a)) | (((b)))", False, Or(a, b)),
    ("<{x}: 1> X a & b", False, And(CoalitionNext(("x",), (1,), a), b)),
    ("!<{}: 0,inf> G !a | true", False,
     Or(Not(CoalitionAlways((), (0, INF), Not(a))), TRUE)),
    ("<{2,1}: 3> (a | b U !c & d)", False,
     CoalitionUntil(("1", "2"), (3,), Or(a, b), And(Not(c), d))),
    ("<{x}: 1> (<{y}: 2> (a U b) U <{}: 0> X false) & c", False,
     And(CoalitionUntil(("x",), (1,),
                        CoalitionUntil(("y",), (2,), a, b),
                        CoalitionNext((), (0,), FALSE)), c)),
    ("<{x:1,inf; y:2,3}> G a | <{z,w}: 0,0> X b", True,
     Or(CoalitionAlways(("x", "y"), (3, INF), a),
        CoalitionNext(("w", "z"), (0, 0), b))),
]


@pytest.mark.parametrize("text, endowments, formula", VALID)
def test_valid_formula_structure(text, endowments, formula):
    assert parse_formula(text, endowments=endowments) == formula
