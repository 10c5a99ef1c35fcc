"""The rewriting kernel.

Words are tuples of generator ranks; a rule set maps the packed key
``g * ngens + h`` of a length-2 factor to a tuple of (word, coeff)
replacement terms: Presentation.add_rule writes each rule there as it
installs it.  Coefficients are opaque ring elements supporting ``*``,
``+`` and truthiness.  Normal forms of single words are memoized in a
caller-owned dict, so repeated reductions share work.  ``accumulate``
is the one sparse merge that every term map in qmink sums through.

Production rewrites over Z[i][q, q^-1] only, the tests also over Q(i):
both are integral domains, as the coefficient ring must be, so a product
of nonzero coefficients is nonzero.  Rules and memo entries hold no zero
coefficient, so the two inline loops store a product on a new key as it
is and test for zero only after a sum.
"""

# reduction steps one nf_word call may take before it gives up.  Every
# reduction ends, as Presentation.add_rule refuses a rule set that is not
# order-decreasing; the budget bounds the work on one long word.
# Measured maxima per call: 26 over `check all`, 144 over the 9,000
# queries of nf streams 7001, 7002 and 5001, and 699 for `qmink nf` of
# the 25 slq41 generators multiplied in reversed order.  One call on a
# long unsorted word costs more: that product written as two
# parenthesized halves takes 172,923 steps in one call, and the whole
# reversed word passed to one normal_form 271,496, so a longer grouped
# product can exceed the budget.
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
    budget = STEP_BUDGET
    steps = 0
    stack = [w0]
    while stack:
        w = stack[-1]
        if w in memo:
            stack.pop()
            continue
        red = -1
        n = len(w) - 1
        for i in range(n):
            if w[i] * ngens + w[i + 1] in rules:
                red = i
                break
        if red < 0:
            memo[w] = ((w, one),)
            stack.pop()
            continue
        rhs = rules[w[red] * ngens + w[red + 1]]
        pre = w[:red]
        post = w[red + 2:]
        pending = None
        for rw, _rc in rhs:
            child = pre + rw + post
            if child not in memo:
                if pending is None:
                    pending = []
                pending.append(child)
        if pending:
            steps += len(pending)
            if steps > budget:
                raise BudgetExceeded("rewrite budget exceeded at %r" % (w,))
            stack.extend(pending)
            continue
        # inline: a generator fed to accumulate costs too much on 1-3 terms;
        # rc and sc are nonzero, so only a sum can be zero
        acc = {}
        for rw, rc in rhs:
            for sw, sc in memo[pre + rw + post]:
                prev = acc.get(sw)
                if prev is None:
                    acc[sw] = rc * sc
                else:
                    v = prev + rc * sc
                    if v:
                        acc[sw] = v
                    else:
                        del acc[sw]
        memo[w] = tuple(acc.items())
        stack.pop()
        steps += 1
        if steps > budget:
            raise BudgetExceeded("rewrite budget exceeded at %r" % (w,))
    return memo[w0]


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
