"""Seeded nf query streams and the benchmark's own readings of nf output.

Nothing here imports qmink: the q = 1 evaluator and the output splitter
are independent of the program they check.
"""

import random
import re

# the mix is fixed and the seed picks letters, coefficients and which
# earlier queries recur, so that streams of different seeds cost alike:
# algebras cycle through PATTERN, products per query through 1..3, and
# degrees (letters for slq41 and chiral-abstract, minors for grq and
# minkq) through their ranges; every third query repeats an earlier one
PATTERN = ("slq41", "grq", "slq41", "minkq", "chiral-abstract",
           "slq41", "grq", "minkq", "slq41", "chiral-abstract")
REPEAT_EVERY = 3
MINOR_PAIRS = ([(i, j) for i in range(1, 4) for j in range(i + 1, 5)]
               + [(i, 5) for i in range(1, 5)] + [(5, 5)])
CHIRAL_LETTERS = ("t[3,1]", "t[3,2]", "t[4,1]", "t[4,2]",
                  "tau[5,1]", "tau[5,2]")


def _coefficient(rng):
    """A Q(i)[q, q^-1] coefficient with Gaussian integer parts, as text."""
    parts = []
    for _ in range(rng.randint(1, 2)):
        re_, im = 0, 0
        while not (re_ or im):
            re_, im = rng.randint(-3, 3), rng.randint(-2, 2)
        c = "%d" % re_ if not im else "(%d%+d*i)" % (re_, im)
        k = rng.randint(-2, 2)
        parts.append(c if k == 0 else "%s*q^%d" % (c, k))
    return "(%s)" % " + ".join(parts)


def _letters(rng, algebra, k):
    """Generators of the k-th product: degree 2..8 letters or 1..4 minors."""
    if algebra == "slq41":
        return ["a[%d,%d]" % (rng.randint(1, 5), rng.randint(1, 5))
                for _ in range(2 + k % 7)]
    if algebra == "chiral-abstract":
        return [rng.choice(CHIRAL_LETTERS) for _ in range(2 + k % 7)]
    word = ["D[%d,%d]" % rng.choice(MINOR_PAIRS) for _ in range(1 + k % 4)]
    if algebra == "minkq":
        for _ in range(k % 3):
            word.insert(rng.randint(0, len(word)), "D12inv")
    return word


def make_stream(seed, count):
    """count (algebra, expression) queries; every third repeats one."""
    rng = random.Random(seed)
    stream = []
    fresh = 0
    products = 0
    for n in range(count):
        if n % REPEAT_EVERY == REPEAT_EVERY - 1:
            stream.append(rng.choice(stream))
            continue
        algebra = PATTERN[fresh % len(PATTERN)]
        text = ""
        for m in range(1 + fresh % 3):
            product = "*".join([_coefficient(rng)]
                               + _letters(rng, algebra, products // 10))
            products += 1
            text = product if m == 0 else "%s %s %s" % (
                text, rng.choice("+-"), product)
        stream.append((algebra, text))
        fresh += 1
    return stream


# -- reading nf output ---------------------------------------------------------

_GEN = re.compile(r"^(a|D|t|tau)\[\d,\d\]$|^D12inv$")


def _split_top(text, seps):
    """Split at any of seps outside parentheses; returns (sep, piece) pairs."""
    out = []
    depth = 0
    start = 0
    sep = None
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0:
            for s in seps:
                if text.startswith(s, i):
                    out.append((sep, text[start:i]))
                    sep = s
                    i += len(s)
                    start = i
                    break
            else:
                i += 1
                continue
            continue
        i += 1
    out.append((sep, text[start:]))
    return out


def output_terms(text):
    """nf output text -> [(separator, coefficient factors, generators)].

    The separator is None for the first term, else " + " or " - ".
    """
    terms = []
    for sep, piece in _split_top(text, (" + ", " - ")):
        factors = [f for _s, f in _split_top(piece, ("*",))]
        coeff = [f for f in factors if not _GEN.match(f)]
        word = [f for f in factors if _GEN.match(f)]
        terms.append((sep, coeff, word))
    return terms


def join_terms(terms):
    """Inverse of output_terms."""
    text = ""
    for sep, coeff, word in terms:
        text += (sep or "") + ("*".join(coeff + word) or "1")
    return text


# -- q = 1 evaluation in the free supercommutative algebra ---------------------

_TOKEN = re.compile(r"\s*(tau\[\d,\d\]|[atD]\[\d,\d\]|\d+|[-+*()^]|i|q)")


def letter_parity(name):
    """Z2 parity of a generator of slq41 or of the abstract chiral algebra."""
    if name.startswith("tau"):
        return 1
    if name.startswith("a["):
        i, j = int(name[2]), int(name[4])
        return int((i == 5) != (j == 5))
    return 0


def _mono_mul(u, v):
    """Sorted product of two sorted words: (word, sign) or None if zero."""
    w = list(u) + list(v)
    odd = [x for x in w if letter_parity(x)]
    if len(set(odd)) != len(odd):
        return None
    inv = sum(1 for a in range(len(odd)) for b in range(a + 1, len(odd))
              if odd[a] > odd[b])
    return tuple(sorted(w)), -1 if inv & 1 else 1


def _add(acc, w, re_, im):
    pr, pi = acc.get(w, (0, 0))
    pr, pi = pr + re_, pi + im
    if pr or pi:
        acc[w] = (pr, pi)
    else:
        acc.pop(w, None)


def _mul(x, y):
    out = {}
    for u, (a, b) in x.items():
        for v, (c, d) in y.items():
            m = _mono_mul(u, v)
            if m is not None:
                w, s = m
                _add(out, w, s * (a * c - b * d), s * (a * d + b * c))
    return out


class _Q1:
    def __init__(self, text):
        self.toks = _TOKEN.findall(text)
        if "".join(self.toks) != re.sub(r"\s", "", text):
            raise ValueError("unreadable expression %r" % text)
        self.k = 0

    def peek(self):
        return self.toks[self.k] if self.k < len(self.toks) else None

    def take(self):
        self.k += 1
        return self.toks[self.k - 1]

    def expr(self):
        acc = self.term()
        while self.peek() in ("+", "-"):
            neg = self.take() == "-"
            for w, (a, b) in self.term().items():
                _add(acc, w, -a if neg else a, -b if neg else b)
        return acc

    def term(self):
        acc = self.factor()
        while self.peek() == "*":
            self.take()
            acc = _mul(acc, self.factor())
        return acc

    def factor(self):
        tok = self.take()
        if tok == "-":
            return {w: (-a, -b) for w, (a, b) in self.factor().items()}
        if tok == "(":
            v = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parentheses")
            return v
        if tok.isdigit():
            return {(): (int(tok), 0)} if int(tok) else {}
        if tok == "i":
            return {(): (0, 1)}
        if tok == "q":  # q^k is 1 at q = 1
            if self.peek() == "^":
                self.take()
                if self.peek() == "-":
                    self.take()
                self.take()
            return {(): (1, 0)}
        return {(tok,): (1, 0)}


def eval_q1(text):
    """Value at q = 1 as {sorted word: (re, im)}, odd squares vanishing."""
    p = _Q1(text)
    v = p.expr()
    if p.peek() is not None:
        raise ValueError("trailing input in %r" % text)
    return v
