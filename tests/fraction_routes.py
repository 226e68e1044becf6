"""The `Fraction` routes that sepkit's integer arithmetic replaced, kept as
referees for it.

Each function works on lists of `Fraction`s, constant term first, with the
schoolbook algorithms sepkit used before: Fraction products and sums, long
division by the leading coefficient, the Euclidean gcd over Q, the compose
route of the canonical-line transform, the rational-remainder Sturm chain
with its root count from values at rational points, the gamma-basis
sum as products of (1+t) powers, and the gamma vector by forward
substitution on Fractions.  Nothing here calls
`Poly` arithmetic, so a fault in the integer path cannot hide in its own
referee.
"""

from fractions import Fraction
from math import comb, factorial, gcd, lcm


def strip(a):
    a = [Fraction(c) for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def add(a, b):
    n = max(len(a), len(b))
    return strip((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return strip(out)


def divmod_(a, b):
    """Long division over Q: (quotient, remainder)."""
    rem = list(a)
    dq = len(a) - len(b)
    if dq < 0:
        return [], strip(a)
    quot = [Fraction(0)] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quot[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return strip(quot), strip(rem)


def monic(a):
    return [c / a[-1] for c in a] if a else a


def gcd_(a, b):
    """Monic gcd by the Euclidean algorithm over Q."""
    while b:
        a, b = b, divmod_(a, b)[1]
    return monic(a)


def derivative(a):
    return strip(i * c for i, c in enumerate(a))[1:] if len(a) > 1 else []


def compose(a, inner):
    acc = []
    for c in reversed(a):
        acc = add(mul(acc, inner), [c])
    return acc


def binom(shift, d):
    """binom(x + shift, d): a product of d linear Fraction factors over d!."""
    p = [Fraction(1)]
    for t in range(d):
        p = mul(p, [Fraction(shift - t), Fraction(1)])
    return [c / factorial(d) for c in p]


def ehrhart(h, d):
    """sum_i h_i binom(x + d - i, d)."""
    total = []
    for i, hi in enumerate(h):
        if hi:
            total = add(total, [hi * c for c in binom(d - i, d)])
    return total


def gamma_expand(gamma, d):
    """sum_i gamma_i t^i (1+t)^(d-2i), each power of (1+t) a product of
    d - 2i linear factors."""
    total = []
    for i, g in enumerate(gamma):
        if g:
            term = [Fraction(0)] * i + [Fraction(g)]
            for _ in range(d - 2 * i):
                term = mul(term, [Fraction(1), Fraction(1)])
            total = add(total, term)
    return total


def gamma_of_palindromic(h, d):
    """gamma_i = h_i - sum_{j<i} gamma_j binom(d-2j, i-j), for i <= d/2."""
    h = [Fraction(c) for c in h] + [Fraction(0)] * (d + 1 - len(h))
    gammas = []
    for i in range(d // 2 + 1):
        g = h[i]
        for j in range(i):
            g -= gammas[j] * comb(d - 2 * j, i - j)
        gammas.append(g)
    return strip(gammas)


def series_numerator(e, d):
    values = [sum(c * Fraction(k) ** i for i, c in enumerate(e)) for k in range(d + 1)]
    return strip(
        sum((-1) ** j * Fraction(factorial(d + 1), factorial(j) * factorial(d + 1 - j)) * values[m - j] for j in range(m + 1))
        for m in range(d + 1)
    )


def is_symmetric(e):
    """(-1)^d E(x) == E(-1-x), by composing with -1 - x."""
    return compose(e, [Fraction(-1), Fraction(-1)]) == [(-1) ** (len(e) - 1) * c for c in e]


def cl_transform(e):
    """(parity, H) with 2^d E((u-1)/2) = u^parity H(u^2), by composing."""
    d = len(e) - 1
    f = [c * 2**d for c in compose(e, [Fraction(-1, 2), Fraction(1, 2)])]
    parity = d & 1
    if any(f[1 - parity :: 2]):
        raise ValueError("not u^parity times an even polynomial")
    return parity, strip(f[parity::2])


def primitive(a):
    """a scaled by a positive constant to content 1."""
    if not a:
        return a
    den = lcm(*(c.denominator for c in a))
    ints = [int(c * den) for c in a]
    g = gcd(*ints)
    return [Fraction(v // g) for v in ints]


def sturm_chain(p):
    """p, p', then minus the remainder over Q, each made primitive."""
    chain = [primitive(p), primitive(derivative(p))]
    while chain[-1]:
        chain.append(primitive([-c for c in divmod_(chain[-2], chain[-1])[1]]))
    chain.pop()
    return chain


def squarefree_decomposition(p):
    """[(f_i, i)] with monic f_i, by gcds over Q."""
    out = []
    i = 1
    g = gcd_(p, derivative(p))
    w = divmod_(p, g)[0]
    while len(w) > 1:
        y = gcd_(w, g)
        fi = divmod_(w, y)[0]
        if len(fi) > 1:
            out.append((monic(fi), i))
        w = y
        g = divmod_(g, y)[0]
        i += 1
    return out


def value(p, x):
    """p(x) by Horner over Q."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def roots_between(chain, lo, hi):
    """Distinct real roots of chain[0] in the open interval (lo, hi), from
    the sign variations of the chain's values at both ends (zeros skipped)
    less one when hi is itself a root."""

    def variations(x):
        signs = [v > 0 for v in (value(q, x) for q in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(lo) - variations(hi) - (value(chain[0], hi) == 0)
