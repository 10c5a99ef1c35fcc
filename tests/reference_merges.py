"""The merges that the kernel and the agreement checks ran before products
on a new key went untested and agreement became an equality test, kept
as the references the tests compare against.

- `reference_normal_form` reduces a term map (or a stream of pairs)
  with a fresh memo, testing every coefficient, product or sum, for
  zero before it is stored.  `reference_nf_word` rewrites a whole word
  at its leftmost reducible pair, as the kernel did before it rewrote
  only at the junction of a normal word and the next letter.
- `overlap_difference` and `homomorphism_witness` build the full
  difference of the two sides of an `overlap:` or `homomorphism:` record,
  whose text is the record's witness when the difference is not zero.
- `two_pass_product` and `reference_comultiply` are the tensor product
  and the comultiplication as they were before the product reduced both
  slots as it multiplied: the product merges every concatenated pair of
  words first and reduces the merged map in a second pass, and the
  comultiplication scales each word's full product and adds the words'
  TensorPolys one by one.
"""

from qmink.algebra import Element, TensorPoly
from qmink.kernel import accumulate
from qmink.scalars import ONE
from qmink.supergroup import _delta_gen_cached, comultiply


def _merge(out, c, terms):
    """Add c times each (word, coeff) of terms into out, testing every
    result for zero."""
    for sw, sc in terms:
        prev = out.get(sw)
        v = c * sc if prev is None else prev + c * sc
        if v:
            out[sw] = v
        elif prev is not None:
            del out[sw]


def reference_nf_word(w, rules, ngens, one, memo):
    """Leftmost reduction of the single word w, memoized in memo."""
    hit = memo.get(w)
    if hit is None:
        red = next((i for i in range(len(w) - 1)
                    if w[i] * ngens + w[i + 1] in rules), None)
        if red is None:
            hit = ((w, one),)
        else:
            acc = {}
            for rw, rc in rules[w[red] * ngens + w[red + 1]]:
                _merge(acc, rc, reference_nf_word(w[:red] + rw + w[red + 2:],
                                                  rules, ngens, one, memo))
            hit = tuple(acc.items())
        memo[w] = hit
    return hit


def reference_normal_form(pres, terms):
    """The normal form of a word -> coefficient map or stream of pairs of
    the non-supercommutative presentation pres, on a fresh memo."""
    rules, ngens, one = pres._kernel_rules, pres.ngens, pres.unit
    memo = {}
    out = {}
    items = terms.items() if isinstance(terms, dict) else terms
    for w, c in items:
        _merge(out, c, reference_nf_word(tuple(w), rules, ngens, one, memo))
    return out


def overlap_difference(pres, word):
    """Normal form of the left reduction of the overlap word minus that of
    the right one."""
    a, b, c = word
    rules = pres.rules
    left = {w + (c,): coeff for w, coeff in rules[(a, b)].items()}
    right = {(a,) + w: coeff for w, coeff in rules[(b, c)].items()}
    return accumulate(pres.normal_form(left),
                      ((k, -v) for k, v in pres.normal_form(right).items()))


def overlap_witness(pres, word):
    return Element(pres, overlap_difference(pres, word)).to_text()


def homomorphism_witness(pres, lhs, rhs):
    """Delta(lhs) - Delta(rhs) for the rule lhs -> rhs, as text."""
    dl = comultiply(Element(pres, {lhs: ONE}))
    dr = comultiply(Element(pres, dict(rhs)))
    return (dl - dr).to_text()


def two_pass_product(a, b):
    """a * b of two TensorPolys: (u (x) v)(x (x) y) = (-1)^{|v||x|}
    ux (x) vy merged over all pairs, then both slots of each merged
    key brought to normal form and merged again."""
    alg = a.alg
    wp = alg.word_parity
    t2 = b.terms.items()
    prod = {}
    for (u, v), c1 in a.terms.items():
        odd = wp(v)
        accumulate(prod, (((u + x, v + y),
                           -(c1 * c2) if odd and wp(x) else c1 * c2)
                          for (x, y), c2 in t2))
    nf = alg.nf_word
    return TensorPoly(alg, accumulate({}, (((u, v), c * cu * cv)
                                           for (w1, w2), c in prod.items()
                                           for u, cu in nf(w1)
                                           for v, cv in nf(w2))))


def reference_comultiply(p):
    """Delta(p) over slq41 through two_pass_product: each word's product
    of generator coproducts, scaled by its coefficient, summed."""
    pres = p.alg
    out = TensorPoly(pres, {})
    for w, c in p.terms.items():
        if not w:
            out = out + TensorPoly(pres, {((), ()): c})
            continue
        t = _delta_gen_cached(w[0])
        for r in w[1:]:
            t = two_pass_product(t, _delta_gen_cached(r))
        out = out + t.scale(c)
    return out
