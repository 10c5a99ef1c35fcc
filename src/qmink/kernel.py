"""The rewriting kernel.

Words are tuples of generator ranks; a rule set maps the packed key
``g * ngens + h`` of a length-2 factor to a tuple of (word, coeff)
replacement terms: Presentation.add_rule writes each rule there as it
installs it.  Coefficients are opaque ring elements supporting ``*``,
``+`` and truthiness.  ``accumulate`` is the one sparse merge that every
term map in qmink sums through.

Rewriting happens only at a junction.  If u is a normal word, the only
pair of u*g that can reduce is its last one, so the normal form of a
word is built by multiplying a normal prefix by one letter at a time.
For u = p*x and a rule x*g -> sum c*y*z,

    nf(u*g) = sum c * sum_{v, d in nf(p*y)} d * nf(v*z),

and every product on the right is again a normal word times a letter.
The caller-owned memo maps a word to its normal form: the key u + (g,)
holds nf(u*g), and nf_word stores each whole word it is asked for as
well.  nf_word scans a word once for its first reducible pair, then
folds the remaining letters in; it runs the products on an explicit
stack of generator frames (Levandovskyy and Schoenemann, "Plural", ISSAC
2003, and de Graaf, J. Symbolic Comput. 32, 2001, compute in PBW-type
algebras by the same product).

Production rewrites over Z[i][q, q^-1] only, the tests also over Q(i):
both are integral domains, as the coefficient ring must be, so a product
of nonzero coefficients is nonzero.  Rules and memo entries hold no zero
coefficient, so the inline loops store a product on a new key as it is
and test for zero only after a sum.
"""

# junction rewrites one nf_word call may take before it gives up: a step
# is one frame, the product of one normal word by one letter.  Every
# reduction ends, as Presentation.add_rule refuses a rule set that is not
# order-decreasing; the budget bounds the work on one long word.
# Measured maxima per call: 6 over `check all`, 31 over the 9,000
# queries of nf streams 7001, 7002 and 5001, and 144 for `qmink nf` of
# the 25 slq41 generators multiplied in reversed order.  A product of
# two long normal forms costs more in one call: that product written as
# two parenthesized halves takes 76,222 steps in one call, since a call
# folds a whole word of the right half into one word of the left, and
# the whole reversed word passed to one normal_form 52,138, the steps of
# the flat product over all its calls.
STEP_BUDGET = 1_000_000


class BudgetExceeded(RuntimeError):
    """Raised when the reduction of one word exceeds the step budget."""


def accumulate(out, pairs):
    """Add each (key, coeff) of pairs into the sparse map out, in place.

    A key whose sum is zero is removed, and a zero coeff on a new key is
    not stored, so out keeps only nonzero coefficients.  Returns out.
    """
    for k, c in pairs:
        prev = out.get(k)
        v = c if prev is None else prev + c
        if v:
            out[k] = v
        elif prev is not None:
            del out[k]
    return out


def nf_word(w0, rules, ngens, one, memo):
    """Normal form of the single word w0, as a tuple of (word, coeff) terms."""
    hit = memo.get(w0)
    if hit is not None:
        return hit
    # the one scan: w0[:red] is normal and the pair w0[red - 1], w0[red]
    # reduces
    for red in range(1, len(w0)):
        if w0[red - 1] * ngens + w0[red] in rules:
            break
    else:
        hit = memo[w0] = ((w0, one),)
        return hit
    # the trampoline: a frame yields the key of a product it misses, the
    # product's own frame runs on top of it and writes the memo entry, and
    # the frame below resumes; the depth of a reduction is bounded by
    # memory, not by Python's recursion limit
    frame = _multiply(w0, w0[:red - 1], rules[w0[red - 1] * ngens + w0[red]],
                      w0[red + 1:], rules, ngens, memo)
    stack = []
    steps = 1  # a step is one frame: one junction rewritten
    while True:
        k = next(frame, None)
        if k is None:
            if not stack:
                return memo[w0]
            frame = stack.pop()
            continue
        steps += 1
        if steps > STEP_BUDGET:
            raise BudgetExceeded("rewrite budget exceeded at %r" % (k,))
        stack.append(frame)
        frame = _multiply(k, k[:-2], rules[k[-2] * ngens + k[-1]], (),
                          rules, ngens, memo)


def _multiply(key, p, rhs, rest, rules, ngens, memo):
    """The frame that writes memo[key]: the normal form of p*x*g*rest,
    where p*x is a normal word, x*g -> rhs is a rule and key is p*x*g
    (rest empty) or nf_word's whole word.

    For each rhs term c*y*z it takes nf(p*y), then each of its words v
    times z; then it multiplies the sum by the letters of rest, one at a
    time.  Each product of a normal word v by a letter g tests only the
    pair v[-1], g: a normal one is the word v + (g,) itself, with the
    coefficient None for one, so no product by one is taken; a reducible
    one is read from the memo under v + (g,), and on a miss the frame
    yields that key and reads the memo again when it is resumed.
    """
    out = {}
    for (y, z), c in rhs:
        if not p:
            heads = (((y,), None),)
        elif p[-1] * ngens + y in rules:
            s = p + (y,)
            heads = memo.get(s)
            if heads is None:
                yield s
                heads = memo[s]
        else:
            heads = ((p + (y,), None),)
        for v, d in heads:
            d = c if d is None else c * d
            s = v + (z,)
            if v[-1] * ngens + z in rules:
                tails = memo.get(s)
                if tails is None:
                    yield s
                    tails = memo[s]
            else:
                tails = ((s, None),)
            # inline: a generator fed to accumulate costs too much on 1-3
            # terms; d and e are nonzero, so only a sum can be zero
            for t, e in tails:
                e = d if e is None else d * e
                prev = out.get(t)
                if prev is None:
                    out[t] = e
                else:
                    e = prev + e
                    if e:
                        out[t] = e
                    else:
                        del out[t]
    for g in rest:
        acc = {}
        for v, c in out.items():
            s = v + (g,)
            if v[-1] * ngens + g in rules:
                tails = memo.get(s)
                if tails is None:
                    yield s
                    tails = memo[s]
            else:
                tails = ((s, None),)
            for t, e in tails:
                e = c if e is None else c * e
                prev = acc.get(t)
                if prev is None:
                    acc[t] = e
                else:
                    e = prev + e
                    if e:
                        acc[t] = e
                    else:
                        del acc[t]
        out = acc
    memo[key] = tuple(out.items())


# normal_form_terms calls this alias, so the benchmark tracer, which
# wraps the public nf_word, counts only calls made from outside the kernel
_nf_word = nf_word


def normal_form_terms(terms, rules, ngens, one, memo):
    """Reduce a term map / iterable of (word, coeff); returns a dict."""
    out = {}
    items = terms.items() if isinstance(terms, dict) else terms
    for w, c in items:
        # a caller's raw map may hold a zero; past this test c is nonzero
        if not c:
            continue
        # inline: a generator fed to accumulate costs too much on 1-3 terms;
        # c and sc are nonzero, so only a sum can be zero
        for sw, sc in _nf_word(w, rules, ngens, one, memo):
            prev = out.get(sw)
            if prev is None:
                out[sw] = c * sc
            else:
                v = prev + c * sc
                if v:
                    out[sw] = v
                else:
                    del out[sw]
    return out


def backend_name():
    """The kernel's implementation, as recorded in benchmark results."""
    return "python"
