"""Expression grammar for the CLI, evaluated as it is read.

Atoms: integers, i, q, q^k (integer k), a[i,j], D[i,j], Dc[r1r2;c1c2],
t[i,j], tau[5,j] and D12inv.  Unary minus binds tighter than product,
which is written with * or juxtaposition, and product binds tighter
than sum; parentheses group.  parse reads the token list in one
precedence-climbing loop (Pratt, "Top down operator precedence", 1973)
with an explicit stack for "(", so it does not recurse, and folds each
finished operand, term and sum into its value at once (syntax-directed
translation, Aho, Lam, Sethi and Ullman, "Compilers", 2nd ed., 2006,
ch. 5): no syntax tree is built.  Constants fold into one Scalar per
term and per sum; the caller's callbacks give the atoms' values and
lift a constant into the algebra.  Syntax errors carry the line and
column of the offending token.  atom_text prints an atom back in this
grammar, for the CLI's error messages.
"""

from __future__ import annotations

import re
from itertools import islice

from .scalars import I, ONE, Scalar, ZERO
from .supergroup import MINOR_ORDER


class ExprSyntaxError(ValueError):
    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))


_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9]*|\d+|\^|\*|\+|-|\(|\)|\[|\]|,|;|\S")

# deepest nesting of "(" and unary "-", counted together, that parse
# accepts: the input bound that README documents for nf, so deeper input
# is a syntax error
MAX_DEPTH = 100


def _tokenize(text):
    """The token strings of text, then None for the end of input.

    No alternative of _TOKEN matches a whitespace character, so one
    findall skips whitespace between tokens.
    """
    tokens = _TOKEN.findall(text)
    tokens.append(None)
    return tokens


def _error(text, tokens, message, k):
    """ExprSyntaxError(message) at the line and column of token k.

    Only "\\n" starts a line, and a column counts characters from 1.
    Both come from the token's offset in the text, found again here,
    since only an error needs them.
    """
    if tokens[k] is None:
        offset = len(text)
    else:
        offset = next(islice(_TOKEN.finditer(text), k, None)).start()
    return ExprSyntaxError(message, text.count("\n", 0, offset) + 1,
                           offset - text.rfind("\n", 0, offset))


def _integer_error(text, tokens, k):
    """The error for digit token k, which int() rejects.

    int() refuses literals past Python's int-string limit (4300 digits
    by default) and digit characters such as superscripts.
    """
    tok = tokens[k]
    shown = repr(tok) if len(tok) <= 12 else \
        "%r... (%d digits)" % (tok[:12], len(tok))
    return _error(text, tokens, "invalid integer literal %s" % shown, k)


def _integer(text, tokens, k, what):
    """int() of token k, which must be a digit token; what names the
    integer in the error if it is not one."""
    tok = tokens[k]
    if tok is None or not tok.isdigit():
        raise _error(text, tokens, "expected %s" % what, k)
    try:
        return int(tok)
    except ValueError:
        raise _integer_error(text, tokens, k) from None


def _expected(text, tokens, k, what):
    """The error for token k, where the token what belongs."""
    tok = tokens[k]
    found = "end of input" if tok is None else repr(tok)
    return _error(text, tokens, "expected %r, found %s" % (what, found), k)


def _index_error(text, tokens, k, sep):
    """The error for the first of tokens k+1 .. k+5 that does not read as
    "[i<sep>j]" with integers i and j; the caller found one."""
    for k, what in zip(range(k + 1, k + 5), ("[", None, sep, None)):
        if what is None:
            _integer(text, tokens, k, "an integer")
        elif tokens[k] != what:
            return _expected(text, tokens, k, what)
    return _expected(text, tokens, k + 1, "]")


# the indexed atoms, each with the separator between its two indices
_SEPARATORS = {"a": ",", "D": ",", "t": ",", "tau": ",", "Dc": ";"}


def _atom(text, tokens, k, atom):
    """The value of the atom named by token k, and the index of the token
    after it: a Scalar for i and q^k, atom(kind, indices) for the rest."""
    tok = tokens[k]
    sep = _SEPARATORS.get(tok)
    if sep is not None:
        if tokens[k + 1:k + 6:2] != ["[", sep, "]"]:
            raise _index_error(text, tokens, k, sep)
        try:
            i = int(tokens[k + 2])
            j = int(tokens[k + 4])
        except ValueError:
            raise _index_error(text, tokens, k, sep) from None
        if tok == "a":
            ok = 1 <= i <= 5 and 1 <= j <= 5
            message = "a[%d,%d] out of range 1..5"
        elif tok == "D":
            ok = (i, j) in MINOR_ORDER
            message = "D[%d,%d] is not a quantum minor"
        elif tok == "t":
            ok = i in (3, 4) and j in (1, 2)
            message = "t[%d,%d] out of range"
        elif tok == "tau":
            ok = i == 5 and j in (1, 2)
            message = "tau[%d,%d] out of range"
        else:
            r = (i // 10, i % 10)
            c = (j // 10, j % 10)
            if not (1 <= r[0] < r[1] <= 5 and 1 <= c[0] < c[1] <= 5):
                raise _error(text, tokens,
                             "invalid minor Dc[%d;%d]: rows and columns must "
                             "be strictly increasing in 1..5" % (i, j), k)
            return atom("Dc", r + c), k + 6
        if not ok:
            raise _error(text, tokens, message % (i, j), k)
        return atom(tok, (i, j)), k + 6
    if tok == "q":
        if tokens[k + 1] != "^":
            return Scalar.q_pow(1), k + 1
        if tokens[k + 2] == "-":
            return Scalar.q_pow(-_integer(text, tokens, k + 3,
                                          "an integer exponent")), k + 4
        return Scalar.q_pow(_integer(text, tokens, k + 2,
                                     "an integer exponent")), k + 3
    if tok == "i":
        return I, k + 1
    if tok == "D12inv":
        return atom("D12inv", ()), k + 1
    raise _error(text, tokens, "unknown atom name %r" % tok, k)


def parse(text, scalar, atom):
    """The value of the expression text; raises ExprSyntaxError with
    position info.

    Integers, i and q^k are Scalars; atom(kind, indices) is the value of
    any other atom.  One loop reads the tokens left to right.  At an
    operand it counts unary "-" and opens "(" until it reads a primary.
    The finished operand, negated if an odd number of "-" precede it, is
    folded into the term being read: a Scalar into its coefficient, any
    other value into its product, on the right.  "*" or juxtaposition
    asks for the next factor.  Otherwise the term, negated after a
    binary "-", is folded into the sum being read, a Scalar into its
    constant, and "+" or "-" asks for the next term.  Otherwise the sum
    is finished, its constant added once as scalar(constant): it closes
    the innermost "(" and is an operand there, or it is the whole
    expression, whose value is never a bare Scalar.  Each open "(" keeps
    the enclosing sum, term and signs on a stack.  Values are computed
    in the order of the text, so the first error that atom or the
    algebra raises is the leftmost one.
    """
    tokens = _tokenize(text)
    k = 0
    depth = 0  # open "(" plus pending unary "-", at most MAX_DEPTH
    stack = []  # per open "(": the enclosing sum, term, negs and minus
    const = ZERO  # the sum of the Scalar terms of the innermost sum
    total = None  # the sum of its other terms, if it has one
    coeff = ONE  # the product of the Scalar factors of the term being read
    prod = None  # the product of its other factors, if it has one
    negs = 0  # unary "-" before the operand being read
    minus = False  # whether a binary "-" precedes the term being read
    while True:
        tok = tokens[k]
        if tok == "-" or tok == "(":
            if depth >= MAX_DEPTH:
                raise _error(text, tokens,
                             "expression nested deeper than %d levels"
                             % MAX_DEPTH, k)
            depth += 1
            k += 1
            if tok == "-":
                negs += 1
            else:
                stack.append((const, total, coeff, prod, negs, minus))
                const, total, coeff, prod, negs, minus = \
                    ZERO, None, ONE, None, 0, False
            continue
        if tok is None:
            raise _error(text, tokens, "unexpected end of input", k)
        if tok.isdigit():
            try:
                value = Scalar.from_int(int(tok))
            except ValueError:
                raise _integer_error(text, tokens, k) from None
            k += 1
        elif tok[0].isalpha():
            value, k = _atom(text, tokens, k, atom)
        else:
            raise _error(text, tokens, "unexpected token %r" % tok, k)
        # value is a finished operand; each pass of this loop folds one
        # operand in, and then a term, a sum and a "(" if the tokens end
        # them
        while True:
            if negs:
                depth -= negs
                if negs & 1:
                    value = -value
                negs = 0
            if value.__class__ is Scalar:
                coeff = value if coeff is ONE else coeff * value
            elif prod is None:
                prod = value
            else:
                prod = prod * value
            tok = tokens[k]
            if tok == "*":
                k += 1
                break
            if tok is not None and (tok[0].isdigit() or tok[0].isalpha()
                                    or tok == "("):
                break
            if prod is None:
                value = coeff
            else:
                value = prod if coeff is ONE else prod.scale(coeff)
                prod = None
            coeff = ONE
            if minus:
                value = -value
            if value.__class__ is Scalar:
                const = value if const is ZERO else const + value
            elif total is None:
                total = value
            else:
                total = total + value
            if tok == "+" or tok == "-":
                k += 1
                minus = tok == "-"
                break
            if total is None:
                value = const
            else:
                value = total + scalar(const) if const else total
            if not stack:
                if tok is not None:
                    raise _error(text, tokens,
                                 "unexpected trailing token %r" % tok, k)
                return scalar(value) if value.__class__ is Scalar else value
            if tok != ")":
                raise _expected(text, tokens, k, ")")
            k += 1
            depth -= 1
            const, total, coeff, prod, negs, minus = stack.pop()


def atom_text(kind, indices):
    """An atom as the grammar writes it, for error messages."""
    if kind == "D12inv":
        return "D12inv"
    if kind == "Dc":
        return "Dc[%d%d;%d%d]" % indices
    return "%s[%d,%d]" % ((kind,) + indices)
