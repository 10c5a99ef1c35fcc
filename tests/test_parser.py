"""Expression grammar: values against the reference tree, round trips and
position-annotated errors."""

import pytest
from hypothesis import example, given, settings, strategies as st

from qmink.cli import _read_syntax
from qmink.parser import _TOKEN, MAX_DEPTH, ExprSyntaxError, _tokenize, parse
from qmink.scalars import ONE, Scalar

from reference_parser import (FREE, ONES, Atom, Free, Neg, Prod, QPow, Sum,
                              exprs, reference_evaluate, reference_parse,
                              reference_tokenize, to_text)


def free(text):
    """parse's value of text in the free algebra on the atoms."""
    return parse(text, *FREE)


def free_value(node):
    """The reference value of node in the free algebra on the atoms."""
    return reference_evaluate(node, *FREE)


CORPUS = [
    "a[1,2]*a[1,1]",
    "t[3,2]*t[4,1] - t[4,1]*t[3,2] - (q^-1 - q)*t[4,2]*t[3,1]",
    "tau[5,1]*tau[5,1]",
    "D[1,2]*D12inv",
    "Dc[34;45]",
    "q^-1 - q",
    "2*q^3*a[5,5] + i*a[1,5]",
    "-a[1,1]",
    "t[3,1]*t[4,2] - tau[5,1]*tau[5,2]",
    "(a[1,1] + a[2,2])*(a[3,3] - a[4,4])",
    "q",
    "i",
    "7",
    "-(q + 1)",
]


def test_spec_examples():
    a12, a11 = ("a", (1, 2)), ("a", (1, 1))
    assert free("a[1,2]*a[1,1]") == Free({(a12, a11): ONE})
    text = "t[3,2]*t[4,1] - t[4,1]*t[3,2] - (q^-1 - q)*t[4,2]*t[3,1]"
    t31, t32, t41, t42 = (Atom("t", (i, j)) for i in (3, 4) for j in (1, 2))
    node = Sum((Prod((t32, t41)), Neg(Prod((t41, t32))),
                Neg(Prod((Sum((QPow(-1), Neg(QPow(1)))), t42, t31)))))
    assert reference_parse(text) == node
    words = [tuple((a.kind, a.indices) for a in w)
             for w in ((t32, t41), (t41, t32), (t42, t31))]
    assert free(text) == free_value(node) == Free({
        words[0]: ONE, words[1]: Scalar.from_int(-1),
        words[2]: Scalar.q_pow(1) - Scalar.q_pow(-1)})


def test_unknown_atoms():
    with pytest.raises(ExprSyntaxError, match=r"a\[6,1\] out of range"):
        _read_syntax("a[6,1]")
    with pytest.raises(ExprSyntaxError,
                       match=r"D\[2,1\] is not a quantum minor"):
        _read_syntax("D[2,1]")
    with pytest.raises(ExprSyntaxError, match=r"t\[5,1\] out of range"):
        _read_syntax("t[5,1]")
    with pytest.raises(ExprSyntaxError, match="unknown atom name 'zeta'"):
        _read_syntax("zeta")
    with pytest.raises(ExprSyntaxError, match=r"invalid minor Dc\[43;12\]"):
        _read_syntax("Dc[43;12]")


def test_syntax_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as err:
        _read_syntax("a[1,2] +")
    assert str(err.value).endswith("(line 1, column 9)")
    with pytest.raises(ExprSyntaxError) as err:
        _read_syntax("a[1\n,2)")
    assert "(line 2, column " in str(err.value)
    with pytest.raises(ExprSyntaxError):
        _read_syntax("")
    with pytest.raises(ExprSyntaxError):
        _read_syntax("q^x")
    with pytest.raises(ExprSyntaxError):
        _read_syntax("a[1,2] a[1,1])")
    with pytest.raises(ExprSyntaxError) as err:
        _read_syntax("a[1,1")
    assert str(err.value) == \
        "expected ']', found end of input (line 1, column 6)"


def test_nesting_depth_limit():
    n = MAX_DEPTH
    assert _read_syntax("(" * n + "q" + ")" * n) == Scalar.q_pow(1)
    for text in ("-" * n + "q", "-(" * (n // 2) + "q" + ")" * (n // 2)):
        node = reference_parse(text)
        assert reference_parse(to_text(node)) == node
        assert free(text) == free(to_text(node)) == free_value(node)
    for text in ("(" * (n + 1) + "q" + ")" * (n + 1), "-" * (n + 1) + "q",
                 "-(" * (n // 2) + "-q" + ")" * (n // 2)):
        with pytest.raises(ExprSyntaxError) as err:
            _read_syntax(text)
        assert str(err.value).endswith("(line 1, column %d)" % (n + 1))


def test_juxtaposition_is_product():
    a11, a12 = ("a", (1, 1)), ("a", (1, 2))
    assert free("2 a[1,1]") == free("2*a[1,1]") == \
        Free({(a11,): Scalar.from_int(2)})
    assert free("a[1,2] a[1,1]") == free("a[1,2]*a[1,1]") == \
        Free({(a12, a11): ONE})
    assert free("q^-1 q") == free("q^-1*q") == Free({(): ONE})


def test_round_trip_corpus():
    for text in CORPUS:
        node = reference_parse(text)
        assert reference_parse(to_text(node)) == node, text
        assert free(text) == free(to_text(node)) == free_value(node), text


@settings(max_examples=150)
@given(exprs(3))
def test_round_trip_random_asts(node):
    text = to_text(node)
    assert reference_parse(text) == node
    assert free(text) == free_value(node)


def _outcome(fn, text):
    try:
        return fn(text)
    except ExprSyntaxError as exc:
        return exc.__class__, str(exc)


_PIECES = ["a", "[", "]", ",", ";", "1", "2", "5", "12", "34", "q", "^",
           "-", "+", "*", "(", ")", "i", "D", "Dc", "D12inv", "t", "tau",
           "x0", "zeta", "%", " ", "\t", "\n", "\r\n", "\u00a0",
           "\u2003", "\u2028", "\x0b", "\u0661", "\u00b2"]


@settings(max_examples=400)
@given(st.lists(st.sampled_from(_PIECES), max_size=24).map("".join))
@example("a[1,2] +")
@example("a[1\n,2)")
@example("\u00a0\n\t a[6,1]")
@example("q^\u00b2")
@example("a[\u0661,1")
@example("x0\r\n ) ")
@example("a[1,2]\u2028\u2003 %")
@example("(" * (MAX_DEPTH + 1) + "q")
@example("-" * MAX_DEPTH + "q")
@example("-" * (MAX_DEPTH + 1) + "q")
@example("(-" * 50 + "q" + ")" * 50)
@example("(-" * 50 + "(q" + ")" * 51)
@example("a[1,1]*-q a[1,2]")
@example("2 3 (i)")
@example("q^-")
@example("Dc[12;3")
@example(")")
@example("*".join(["-q"] * (MAX_DEPTH + 1)))
@example("(q)" * (MAX_DEPTH + 1))
@example("t[3,5]")
@example("tau[5,3]")
@example("Dc[12;36]")
def test_positions_match_the_per_character_tokenizer(text):
    # the syntax-only read raises the reference's error, or has the value
    # of the reference tree with every atom 1
    assert _tokenize(text) == [tok for tok, _line, _col
                               in reference_tokenize(text)]
    assert _outcome(_read_syntax, text) == _outcome(
        lambda t: reference_evaluate(reference_parse(t), *ONES), text)


_BLANKS = st.lists(st.sampled_from([" ", "\t", "\n"]), max_size=2).map(
    "".join)


@settings(max_examples=150)
@given(exprs(3), st.data())
def test_valid_input_matches_the_reference(node, data):
    # most _PIECES texts are syntax errors; these parse, with whitespace
    # of every kind between tokens
    tokens = _TOKEN.findall(to_text(node))
    text = "".join(data.draw(_BLANKS) + tok for tok in tokens) \
        + data.draw(_BLANKS)
    assert reference_parse(text) == node
    assert free(text) == free_value(node)
