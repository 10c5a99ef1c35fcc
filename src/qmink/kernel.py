"""The rewriting kernel.

Words are tuples of generator ranks; a rule set maps the packed key
``g * ngens + h`` of a length-2 factor to a tuple of (word, coeff)
replacement terms.  Coefficients are opaque ring elements supporting
``*``, ``+`` and truthiness.  Normal forms of single words are memoized
in a caller-owned dict, so repeated reductions share work.
"""


class BudgetExceeded(RuntimeError):
    """Raised when reduction exceeds its step budget (malformed rule set)."""


def nf_word(w0, rules, ngens, one, memo, budget):
    """Normal form of the single word w0, as a tuple of (word, coeff) terms."""
    hit = memo.get(w0)
    if hit is not None:
        return hit
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
        acc = {}
        for rw, rc in rhs:
            for sw, sc in memo[pre + rw + post]:
                prev = acc.get(sw)
                v = rc * sc if prev is None else prev + rc * sc
                if v:
                    acc[sw] = v
                elif prev is not None:
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


def normal_form_terms(terms, rules, ngens, one, memo, budget):
    """Reduce a term map / iterable of (word, coeff); returns a dict."""
    out = {}
    items = terms.items() if isinstance(terms, dict) else terms
    for w, c in items:
        if not c:
            continue
        for sw, sc in _nf_word(w, rules, ngens, one, memo, budget):
            prev = out.get(sw)
            v = c * sc if prev is None else prev + c * sc
            if v:
                out[sw] = v
            elif prev is not None:
                del out[sw]
    return out


def backend_name():
    """The kernel's implementation, as recorded in benchmark results."""
    return "python"
