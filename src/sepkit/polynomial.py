"""Dense univariate polynomials over the rationals, integer h*-polynomials,
and the Ehrhart-side conversions between them.

Everything here is exact and there is no floating point anywhere.  An
`HStar` holds Python ints, as every h* is integral (Stanley, 1980).  A
`Poly` holds integer numerators over one denominator, so its arithmetic
and the Ehrhart-side conversions run on Python ints: d! E has integer
coefficients, so E is built as an integer vector over d!.  `Fraction`s
appear only where a caller reads single coefficients.  Division and gcds
exist only on integer vectors (pseudo-division and the primitive remainder
sequence), which the roots layer shares.  Degrees run to about 100 (the
Ehrhart polynomial of K_{50,50} has degree 99), and the coefficients are
dense.

The domain-specific operations:

  * h* -> Ehrhart polynomial via the binomial-coefficient basis
        E(x) = sum_i h_i * binom(d + x - i, d)
  * Ehrhart polynomial -> h* via truncating (1-t)^(d+1) * sum_k E(k) t^k
  * gamma vector of a palindromic polynomial in the basis (1+t)^(d-2i) t^i,
    and its expansion back into coefficients
  * cross-polynomials C_n (Ehrhart polynomials of cross-polytopes) and the
    expansion of a symmetric Ehrhart polynomial in the C_n basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm
from typing import Iterable, Sequence

from .graphs import VerificationFailed


class NonIntegerCount(VerificationFailed, ValueError):
    """An alleged Ehrhart polynomial took a non-integer value at an integer."""


class NegativeHStar(VerificationFailed, ValueError):
    """The h* extraction produced a negative coefficient."""


class NotPalindromic(VerificationFailed, ValueError):
    """A gamma-vector (or cross-basis) operation needs a palindromic input."""


class RecombinationFailed(VerificationFailed, ArithmeticError):
    """A gamma vector did not recombine to the polynomial it came from."""


class InvalidHStar(VerificationFailed, ValueError):
    """An h*-polynomial broke one of the invariants `HStar` checks."""


class InexactDivision(VerificationFailed, ArithmeticError):
    """An integer polynomial division that must be exact left a remainder."""


class Poly:
    """Immutable dense univariate polynomial over the rationals, held as
    integer numerators over one denominator.

    The coefficient of x^i is ``num[i] / den``: `num` is a tuple of ints with
    no trailing zero, ``den > 0``, and gcd(den, *num) = 1, so equal
    polynomials hold equal integers.  The zero polynomial has ``num == ()``,
    ``den == 1`` and degree -1.  `Poly(coeffs)` takes ints and Fractions;
    `Poly.over(num, den)` is the one normaliser.  `coeffs`, ``p[i]`` and
    iteration give Fractions, built on read.
    """

    __slots__ = ("num", "den")

    def __new__(cls, coeffs: Iterable = ()):
        cs = list(coeffs)
        den = lcm(*[c.denominator for c in cs])
        return cls.over([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def over(cls, num: Iterable[int], den: int = 1) -> "Poly":
        """The Poly num / den, for ints num and den != 0, in lowest terms."""
        if not den:
            raise ZeroDivisionError("Poly over 0")
        a = list(num)
        while a and not a[-1]:
            a.pop()
        g = gcd(den, *a) if den > 0 else -gcd(den, *a)
        p = object.__new__(cls)
        object.__setattr__(p, "num", tuple(a) if g == 1 else tuple([c // g for c in a]))
        object.__setattr__(p, "den", den // g)
        return p

    def __setattr__(self, *a):  # immutability
        raise AttributeError("Poly is immutable")

    # -- basics --------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly.over(())

    @staticmethod
    def one() -> "Poly":
        return Poly.over((1,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(c, self.den) for c in self.num])

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.num[i] if 0 <= i < len(self.num) else 0, self.den)

    def __iter__(self):
        # without it, iteration would run `__getitem__` past the end forever
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "Poly(" + " + ".join(terms) + ")"

    # -- ring operations ------------------------------------------------

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        den = lcm(self.den, other.den)
        a = [c * (den // self.den) for c in self.num]
        b = [c * (den // other.den) for c in other.num]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return Poly.over(a, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly.over([-c for c in self.num], self.den)

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly.over([c * other.numerator for c in self.num], self.den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        return Poly.over(_int_mul(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Poly":
        return Poly.over([c * scalar.denominator for c in self.num], self.den * scalar.numerator)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result, base = Poly.one(), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- evaluation ----------------------------------------------------

    def __call__(self, x) -> Fraction:
        return Fraction(_int_eval(self.num, x), self.den)


ONE_PLUS_T = Poly((1, 1))
TWO_X_PLUS_1 = Poly((1, 2))


# ---------------------------------------------------------------------------
# Integer vectors
# ---------------------------------------------------------------------------
#
# An integer vector is a list of ints, constant term first, whose last entry
# is nonzero; [] is the zero polynomial.  A Poly's `num` is one, as a tuple,
# over `den`.


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_eval(a: list[int], x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _times_linear(a: list[int], c: int) -> list[int]:
    """(x + c) a."""
    return [c * a[0]] + [a[i - 1] + c * a[i] for i in range(1, len(a))] + [a[-1]]


def _div_linear(a: list[int], c: int) -> list[int]:
    """a / (x + c), for a divisible by x + c (synthetic division)."""
    q = [0] * (len(a) - 1)
    carry = 0
    for k in range(len(a) - 1, 0, -1):
        carry = a[k] - c * carry
        q[k - 1] = carry
    return q


def _primitive(a: list[int]) -> list[int]:
    """a divided by its content, a positive integer, so every sign stays."""
    g = gcd(*a)
    return [x // g for x in a] if g > 1 else a


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int], int]:
    """(q, r, scale) with scale * a = q * b + r and deg r < deg b, where
    scale = |lead(b)|^(deg a - deg b + 1) > 0; needs deg a >= deg b."""
    lead, n = b[-1], len(b) - 1
    dq = len(a) - len(b)
    q, r = [0] * (dq + 1), list(a)
    for k in range(dq, -1, -1):
        # lead^s a = q b + r  becomes  lead^(s+1) a = (lead q + c x^k) b + (lead r - c x^k b)
        c = r[k + n]
        if lead != 1:
            q = [lead * x for x in q]
            r = [lead * x for x in r[: k + n]]
        else:
            r = r[: k + n]
        q[k] = c
        if c:
            for j in range(n):
                r[k + j] -= c * b[j]
    while r and not r[-1]:
        r.pop()
    if lead < 0 and dq % 2 == 0:
        q, r = [-x for x in q], [-x for x in r]
    return q, r, abs(lead) ** (dq + 1)


def _exact_quo(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer vectors with an integer quotient, such as a
    primitive a and a primitive divisor b of it (Gauss's lemma)."""
    q, r, scale = _pseudo_divmod(a, b)
    if r or any(c % scale for c in q):
        raise InexactDivision(f"{b} does not divide {a} over the integers")
    return [c // scale for c in q]


def _sturm_prs(a: list[int], b: list[int]) -> list[list[int]]:
    """The primitive remainder sequence of a and b (Collins, 1967) with
    Sturm signs: a and b made primitive, then the primitive part of minus
    the pseudo-remainder of the last two members, until that vanishes.
    Each member is a positive multiple of the corresponding member of the
    rational sequence a, b, -rem(a, b), ..., and the last one is gcd(a, b)
    up to a constant.  Needs deg a >= deg b."""
    seq = [_primitive(a)]
    if b:
        seq.append(_primitive(b))
    while len(seq) > 1 and len(seq[-1]) > 1:
        r = _pseudo_divmod(seq[-2], seq[-1])[1]
        if not r:
            break
        seq.append(_primitive([-x for x in r]))
    return seq


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd(a, b) up to a constant; [] when both vanish."""
    if len(a) < len(b):
        a, b = b, a
    return _sturm_prs(a, b)[-1] if a else []


# ---------------------------------------------------------------------------
# Binomial basis
# ---------------------------------------------------------------------------


def _falling(shift: int, d: int) -> list[int]:
    """d! binom(x + shift, d) = (x + shift)(x + shift - 1)...(x + shift - d + 1)."""
    a = [1]
    for t in range(d):
        a = _times_linear(a, shift - t)
    return a


def _ehrhart(h: Sequence[int], d: int) -> Poly:
    """sum_i h_i binom(x + d - i, d), built as the integer vector of d! E.

    With P_i = d! binom(x + d - i, d) = (x + d - i)...(x - i + 1), each next
    P_(i+1) = P_i (x - i) / (x + d - i) takes one multiplication and one
    synthetic division by a linear factor."""
    total = [0] * (d + 1)
    p = _falling(d, d)
    for i, hi in enumerate(h):
        if hi:
            total = [t + hi * c for t, c in zip(total, p)]
        if i < len(h) - 1:
            p = _div_linear(_times_linear(p, -i), d - i)
    return Poly.over(total, factorial(d))


class HStar:
    """An h*-polynomial together with the intended polytope dimension.

    `coefficients` is a tuple of `dim + 1` ints, from any sequence of integral
    numbers padded with zeros.  Invariants: all coefficients are nonnegative
    integers, the constant term is 1 and the degree does not exceed `dim`.
    """

    __slots__ = ("coefficients", "dim")

    def __init__(self, coefficients: Sequence, dim: int):
        cs = list(coefficients)
        degree = max((i for i, c in enumerate(cs) if c), default=-1)
        if degree > dim:
            raise InvalidHStar(f"h* degree {degree} exceeds dim {dim}")
        for c in cs:
            if c.denominator != 1 or c < 0:
                raise InvalidHStar(f"h* coefficient {c} is not a nonnegative integer")
        if cs[:1] != [1]:
            raise InvalidHStar("h* constant term must be 1")
        object.__setattr__(self, "coefficients", tuple([c.numerator for c in cs[: dim + 1]] + [0] * (dim + 1 - len(cs))))
        object.__setattr__(self, "dim", dim)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("HStar is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.coefficients, self.dim) == (other.coefficients, other.dim)

    def __hash__(self):
        return hash((self.coefficients, self.dim))

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coefficients)


# ---------------------------------------------------------------------------
# Ehrhart <-> h* conversions
# ---------------------------------------------------------------------------


def ehrhart_from_hstar(h: HStar) -> Poly:
    """Expand E(x) = sum_i h_i * binom(d + x - i, d) exactly."""
    return _ehrhart(h.coefficients, h.dim)


def _values(e: Poly, d: int) -> tuple[list[int], int]:
    """(v, den) with E(k) = v[k] / den for k = 0..d."""
    return [_int_eval(e.num, k) for k in range(d + 1)], e.den


def _series(values: list[int], d: int) -> list[int]:
    """(1-t)^(d+1) sum_k values[k] t^k, truncated to degree d."""
    alternating = [(-1) ** j * comb(d + 1, j) for j in range(d + 1)]
    return _int_mul(values, alternating)[: d + 1]


def series_numerator(e: Poly, d: int) -> Poly:
    """Numerator of sum_k e(k) t^k over (1-t)^(d+1), truncated to degree d.

    This is the h*-extraction without the nonnegativity/integrality contract;
    it is the right tool for signed inputs such as (2x+1)*E.
    Requires deg(e) <= d.
    """
    if e.degree > d:
        raise ValueError(f"degree {e.degree} exceeds stated dimension {d}")
    values, den = _values(e, d)
    return Poly.over(_series(values, d), den)


def hstar_from_ehrhart(e: Poly, d: int) -> HStar:
    """Invert `ehrhart_from_hstar`: h*(t) = (1-t)^(d+1) ehr(t) truncated.

    Raises NonIntegerCount if some E(k), k = 0..d, is not an integer, and
    NegativeHStar if a coefficient comes out negative (invalid input).
    """
    if e.degree != d:
        raise ValueError(f"expected degree {d}, got {e.degree}")
    values, den = _values(e, d)
    for k, v in enumerate(values):
        if v % den:
            raise NonIntegerCount(f"E({k}) = {Fraction(v, den)} is not an integer")
    h = _series([v // den for v in values], d)
    for i, c in enumerate(h):
        if c < 0:
            raise NegativeHStar(f"h*_{i} = {c} < 0")
    return HStar(h, d)


# ---------------------------------------------------------------------------
# Gamma vectors and the cross-polynomial basis
# ---------------------------------------------------------------------------


def gamma_expand(gamma: Sequence, d: int) -> list:
    """Coefficients, constant term first, of sum_i gamma_i t^i (1+t)^(d-2i):
    c_j = sum_i gamma_i binom(d - 2i, j - i), for j = 0..d.

    The inverse of `gamma_of_palindromic`.  Zero gamma_i are skipped; a
    nonzero gamma_i with 2i > d has no polynomial term and raises ValueError.
    """
    c = [0] * (d + 1)
    for i, g in enumerate(gamma):
        if not g:
            continue
        if 2 * i > d:
            raise ValueError(f"gamma_{i} = {g} needs 2*{i} <= d = {d}")
        n = d - 2 * i
        for k in range(n + 1):
            c[i + k] += g * comb(n, k)
    return c


def gamma_of_palindromic(h: Poly, d: int) -> Poly:
    """Gamma vector of a palindromic degree-<=d polynomial, as a Poly.

    Solves h(t) = sum_i gamma_i (1+t)^(d-2i) t^i by forward substitution;
    valid for any (possibly signed, rational) palindromic input.  The solve
    has a unit diagonal, so it runs on h's integer numerators over their
    common denominator.
    """
    if h.degree > d:
        raise ValueError("degree exceeds stated dimension")
    a = list(h.num) + [0] * (d + 1 - len(h.num))
    if a != a[::-1]:
        raise NotPalindromic(f"not palindromic w.r.t. degree {d}: {h}")
    return _gamma_solve(a, h.den)


def _gamma_solve(a: list[int], den: int) -> Poly:
    """The gamma vector of a / den, for a palindromic a of length d + 1."""
    d = len(a) - 1
    gammas: list[int] = []
    for i in range(d // 2 + 1):
        g = a[i]
        for j in range(i):
            g -= gammas[j] * comb(d - 2 * j, i - j)
        gammas.append(g)
    # The triangular solve uses only the lower half; palindromicity makes the
    # recombination exact, which is checked.
    recombined = gamma_expand(gammas, d)
    if recombined != a:
        raise RecombinationFailed(f"gamma vector of {Poly.over(a, den)} recombines to {Poly.over(recombined, den)}")
    return Poly.over(gammas, den)


def gamma_vector(h: HStar) -> Poly:
    """Gamma vector of a palindromic h*-polynomial of degree d = dim."""
    a = list(h.coefficients)
    if a != a[::-1]:
        raise NotPalindromic(f"h* = {h} is not palindromic of degree {h.dim}")
    return _gamma_solve(a, 1)


def cross_polynomial(n: int) -> Poly:
    """Ehrhart polynomial of the n-dimensional cross-polytope:
    C_n(x) = sum_k binom(n,k) binom(n + x - k, n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _ehrhart([comb(n, k) for k in range(n + 1)], n)


def cross_coefficients(e: Poly, d: int) -> Poly:
    """Coefficients of E in the cross-polynomial basis.

    For E with palindromic numerator h of gamma vector gamma, returns the
    polynomial sum_i (-1)^i c_i x^i with c_i = sum_{j>=i} binom(j,i) gamma_j / 4^j,
    so that E = sum_i (-1)^i c_i C_{d-2i}.  The degree of the returned
    polynomial is the cross-degree of E.
    """
    gamma = gamma_of_palindromic(series_numerator(e, d), d)  # raises NotPalindromic
    g, m = gamma.num, gamma.degree
    # 4^m den c_i = sum_(j>=i) binom(j,i) num_j 4^(m-j)
    cs = [(-1) ** i * sum(comb(j, i) * g[j] << 2 * (m - j) for j in range(i, m + 1)) for i in range(m + 1)]
    return Poly.over(cs, gamma.den << 2 * m) if cs else gamma


def cross_recombine(cross: Poly, d: int) -> Poly:
    """Rebuild E = sum_i cross_i * C_{d-2i} from `cross_coefficients` output."""
    total = Poly.zero()
    for i in range(cross.degree + 1):
        if cross[i]:
            total = total + cross[i] * cross_polynomial(d - 2 * i)
    return total


def geometric_series_coeffs(power: int, order: int) -> list[int]:
    """Coefficients of (1-t)^(-power) up to degree `order`."""
    return [comb(power - 1 + j, j) for j in range(order + 1)]


def gammalemma_check(d: int, n: int) -> bool:
    """Check the alternating cross-polynomial generating-function identity

        sum_k ( sum_i (-1)^i binom(n,i) C_{d+2(n-i)}(k) ) t^k
            = (1+t)^d (4t)^n / (1-t)^(d+2n+1)

    as exact power series up to degree d + 2n + 2.  Truncating beyond the
    numerator-plus-denominator degree of both sides makes equality of the
    truncations equivalent to equality of the rational functions.
    """
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    order = d + 2 * n + 2
    # left side, coefficient by coefficient
    polys = [cross_polynomial(d + 2 * (n - i)) for i in range(n + 1)]
    lhs = []
    for k in range(order + 1):
        acc = Fraction(0)
        for i in range(n + 1):
            acc += (-1) ** i * comb(n, i) * polys[i](k)
        lhs.append(acc)
    # right side: (1+t)^d * 4^n t^n * sum_j binom(d+2n+j, j) t^j
    numer = gamma_expand([0] * n + [4**n], d + 2 * n)
    rhs = _int_mul(numer, geometric_series_coeffs(d + 2 * n + 1, order))[: order + 1]
    return lhs == rhs


def fraction_str(x: Fraction) -> str:
    """Exact decimal-free rendering, e.g. '3/2' or '-1' (never a float)."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def poly_str(p: Poly) -> list[str]:
    """Coefficient list as exact fraction strings, degree 0 first."""
    return [fraction_str(c) for c in p.coeffs] if p.num else ["0"]
