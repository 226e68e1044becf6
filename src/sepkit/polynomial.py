"""Dense univariate polynomials over the rationals, and the Ehrhart-side
conversions built on them.

Everything here is exact: coefficients are `fractions.Fraction`, there is no
floating point anywhere, and all operations are pure.  Degrees in this
project stay well below 60, so a dense coefficient vector is the right
representation.

The domain-specific operations:

  * h* -> Ehrhart polynomial via the binomial-coefficient basis
        E(x) = sum_i h_i * binom(d + x - i, d)
  * Ehrhart polynomial -> h* via truncating (1-t)^(d+1) * sum_k E(k) t^k
  * symmetry about the canonical line Re(z) = -1/2,
        (-1)^deg(E) * E(x) == E(-1-x)
  * gamma vector of a palindromic polynomial in the basis (1+t)^(d-2i) t^i
  * cross-polynomials C_n (Ehrhart polynomials of cross-polytopes) and the
    expansion of a symmetric Ehrhart polynomial in the C_n basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable


class NonIntegerCount(ValueError):
    """An alleged Ehrhart polynomial took a non-integer value at an integer."""


class NegativeHStar(ValueError):
    """The h* extraction produced a negative coefficient."""


class NotPalindromic(ValueError):
    """A gamma-vector (or cross-basis) operation needs a palindromic input."""


class RecombinationFailed(ArithmeticError):
    """A gamma vector did not recombine to the polynomial it came from."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Poly:
    """Immutable dense univariate polynomial with Fraction coefficients.

    ``coeffs[i]`` is the coefficient of x^i; trailing zeros are stripped, and
    the zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):  # immutability
        raise AttributeError("Poly is immutable")

    # -- basics --------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @staticmethod
    def x() -> "Poly":
        return Poly((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

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
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self[i] + other[i] for i in range(n))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly(c * other for c in self.coeffs)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Poly":
        s = _frac(scalar)
        return Poly(c / s for c in self.coeffs)

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

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact polynomial division with remainder over the rationals."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lead
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Poly(quot), Poly(rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    # -- calculus / evaluation -------------------------------------------

    def derivative(self) -> "Poly":
        return Poly(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        """Substitute `inner` for the variable (Horner over Poly)."""
        acc = Poly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly((c,))
        return acc

    # -- number-theoretic helpers -----------------------------------------

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self / self.coeffs[-1]

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd via the Euclidean algorithm over Q."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def squarefree_part(self) -> "Poly":
        if self.degree <= 0:
            return self.monic()
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self.monic()
        return self.divmod(g)[0].monic()


ONE_PLUS_T = Poly((1, 1))
ONE_MINUS_T = Poly((1, -1))
TWO_X_PLUS_1 = Poly((1, 2))


def binom_poly(shift: int, d: int) -> Poly:
    """binom(x + shift, d) as a polynomial in x, expanded exactly."""
    if d < 0:
        raise ValueError("binomial order must be nonnegative")
    p = Poly.one()
    for t in range(d):
        p = p * Poly((shift - t, 1))
    return p / Fraction(_factorial(d))


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


@dataclass(frozen=True)
class HStar:
    """An h*-polynomial together with the intended polytope dimension.

    Invariants: all coefficients are nonnegative integers, the constant term
    is 1 and the degree does not exceed `dim`.
    """

    poly: Poly
    dim: int

    def __post_init__(self):
        if self.poly.degree > self.dim:
            raise ValueError(f"h* degree {self.poly.degree} exceeds dim {self.dim}")
        for c in self.poly.coeffs:
            if c.denominator != 1 or c < 0:
                raise ValueError(f"h* coefficient {c} is not a nonnegative integer")
        if self.poly[0] != 1:
            raise ValueError("h* constant term must be 1")

    @property
    def coefficients(self) -> tuple[int, ...]:
        return tuple(int(self.poly[i]) for i in range(self.dim + 1))

    def is_palindromic(self) -> bool:
        d = self.dim
        return all(self.poly[i] == self.poly[d - i] for i in range(d + 1))

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coefficients)


# ---------------------------------------------------------------------------
# Ehrhart <-> h* conversions
# ---------------------------------------------------------------------------


def ehrhart_from_hstar(h: HStar) -> Poly:
    """Expand E(x) = sum_i h_i * binom(d + x - i, d) exactly."""
    d = h.dim
    total = Poly.zero()
    for i in range(d + 1):
        hi = h.poly[i]
        if hi:
            total = total + hi * binom_poly(d - i, d)
    return total


def series_numerator(e: Poly, d: int) -> Poly:
    """Numerator of sum_k e(k) t^k over (1-t)^(d+1), truncated to degree d.

    This is the h*-extraction without the nonnegativity/integrality contract;
    it is the right tool for signed inputs such as (2x+1)*E.
    Requires deg(e) <= d.
    """
    if e.degree > d:
        raise ValueError(f"degree {e.degree} exceeds stated dimension {d}")
    values = [e(k) for k in range(d + 1)]
    coeffs = []
    for m in range(d + 1):
        acc = Fraction(0)
        for j in range(m + 1):
            acc += (-1) ** j * comb(d + 1, j) * values[m - j]
        coeffs.append(acc)
    return Poly(coeffs)


def hstar_from_ehrhart(e: Poly, d: int) -> HStar:
    """Invert `ehrhart_from_hstar`: h*(t) = (1-t)^(d+1) ehr(t) truncated.

    Raises NonIntegerCount if some E(k), k = 0..d, is not an integer, and
    NegativeHStar if a coefficient comes out negative (invalid input).
    """
    if e.degree != d:
        raise ValueError(f"expected degree {d}, got {e.degree}")
    for k in range(d + 1):
        if e(k).denominator != 1:
            raise NonIntegerCount(f"E({k}) = {e(k)} is not an integer")
    h = series_numerator(e, d)
    for i in range(d + 1):
        if h[i] < 0:
            raise NegativeHStar(f"h*_{i} = {h[i]} < 0")
    return HStar(h, d)


def is_symmetric_about_cl(e: Poly) -> bool:
    """Does (-1)^deg(E) * E(x) = E(-1-x) hold identically?

    This is the functional equation satisfied by Ehrhart polynomials of
    reflexive polytopes; its roots then come in pairs mirrored across the
    canonical line Re(z) = -1/2.
    """
    if e.is_zero():
        return True
    reflected = e.compose(Poly((-1, -1)))
    return reflected == (-1) ** e.degree * e


# ---------------------------------------------------------------------------
# Gamma vectors and the cross-polynomial basis
# ---------------------------------------------------------------------------


def gamma_of_palindromic(h: Poly, d: int) -> Poly:
    """Gamma vector of a palindromic degree-<=d polynomial, as a Poly.

    Solves h(t) = sum_i gamma_i (1+t)^(d-2i) t^i by forward substitution;
    valid for any (possibly signed, rational) palindromic input.
    """
    if h.degree > d:
        raise ValueError("degree exceeds stated dimension")
    if any(h[i] != h[d - i] for i in range(d + 1)):
        raise NotPalindromic(f"not palindromic w.r.t. degree {d}: {h}")
    gammas: list[Fraction] = []
    for i in range(d // 2 + 1):
        g = h[i]
        for j in range(i):
            g -= gammas[j] * comb(d - 2 * j, i - j)
        gammas.append(g)
    # The triangular solve uses only the lower half; palindromicity makes the
    # recombination exact, which is checked.
    recombined = Poly.zero()
    for i, g in enumerate(gammas):
        recombined = recombined + g * (ONE_PLUS_T ** (d - 2 * i)) * Poly.x() ** i
    if recombined != h:
        raise RecombinationFailed(f"gamma vector of {h} recombines to {recombined}")
    return Poly(gammas)


def gamma_vector(h: HStar) -> Poly:
    """Gamma vector of a palindromic h*-polynomial of degree d = dim."""
    if not h.is_palindromic():
        raise NotPalindromic(f"h* = {h} is not palindromic of degree {h.dim}")
    return gamma_of_palindromic(h.poly, h.dim)


def cross_polynomial(n: int) -> Poly:
    """Ehrhart polynomial of the n-dimensional cross-polytope:
    C_n(x) = sum_k binom(n,k) binom(n + x - k, n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = Poly.zero()
    for k in range(n + 1):
        total = total + comb(n, k) * binom_poly(n - k, n)
    return total


def cross_coefficients(e: Poly, d: int) -> Poly:
    """Coefficients of E in the cross-polynomial basis.

    For E with palindromic numerator h of gamma vector gamma, returns the
    polynomial sum_i (-1)^i c_i x^i with c_i = sum_{j>=i} binom(j,i) gamma_j / 4^j,
    so that E = sum_i (-1)^i c_i C_{d-2i}.  The degree of the returned
    polynomial is the cross-degree of E.
    """
    h = series_numerator(e, d)
    gamma = gamma_of_palindromic(h, d)  # raises NotPalindromic
    m = gamma.degree
    cs = []
    for i in range(m + 1):
        ci = Fraction(0)
        for j in range(i, m + 1):
            ci += comb(j, i) * gamma[j] / Fraction(4**j)
        cs.append((-1) ** i * ci)
    return Poly(cs)


def cross_recombine(cross: Poly, d: int) -> Poly:
    """Rebuild E = sum_i cross_i * C_{d-2i} from `cross_coefficients` output."""
    total = Poly.zero()
    for i in range(cross.degree + 1):
        if cross[i]:
            total = total + cross[i] * cross_polynomial(d - 2 * i)
    return total


def cross_degree(e: Poly, d: int) -> int:
    """Degree of the cross-polynomial expansion of E (the cross-degree)."""
    return cross_coefficients(e, d).degree


# ---------------------------------------------------------------------------
# Series gymnastics used by the recursion machinery
# ---------------------------------------------------------------------------


def mul_2x_plus_1_series(h: HStar) -> Poly:
    """Numerator N(t) with sum_k (2k+1) E(k) t^k = N(t) / (1-t)^(d+2).

    Multiplying an Ehrhart polynomial by x corresponds to differentiating its
    generating series and multiplying by t, whence
        N = (1-t) h + 2 t (1-t) h' + 2 (d+1) t h.
    """
    d = h.dim
    hp = h.poly
    return ONE_MINUS_T * hp + 2 * Poly.x() * ONE_MINUS_T * hp.derivative() + 2 * (d + 1) * Poly.x() * hp


def geometric_series_coeffs(power: int, order: int) -> list[Fraction]:
    """Coefficients of (1-t)^(-power) up to degree `order`."""
    return [Fraction(comb(power - 1 + j, j)) for j in range(order + 1)]


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
    numer = (ONE_PLUS_T**d) * Poly([0] * n + [4**n])
    geo = geometric_series_coeffs(d + 2 * n + 1, order)
    rhs = []
    for k in range(order + 1):
        acc = Fraction(0)
        for j in range(k + 1):
            acc += numer[k - j] * geo[j]
        rhs.append(acc)
    return lhs == rhs


def fraction_str(x: Fraction) -> str:
    """Exact decimal-free rendering, e.g. '3/2' or '-1' (never a float)."""
    x = _frac(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def poly_str(p: Poly) -> list[str]:
    """Coefficient list as exact fraction strings, degree 0 first."""
    return [fraction_str(c) for c in p.coeffs] if p.coeffs else ["0"]
