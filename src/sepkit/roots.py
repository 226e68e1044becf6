"""Certified root location on the canonical line Re(z) = -1/2 and certified
interlacing, by an exact Sturm verdict and Budan-Fourier root isolation.

For a symmetric Ehrhart polynomial E of degree d (meaning
(-1)^d E(x) = E(-1-x)), the substitution u = 2x + 1 gives
F(u) = 2^d E((u-1)/2) with F(-u) = (-1)^d F(u), so F = u^(d mod 2) H(u^2)
for a polynomial H of degree floor(d/2).  The roots of E lie on the
canonical line exactly when every root of H is real and nonpositive, which
Sturm counting certifies without any floating point.

The path from E to the verdict runs on integers.  F comes from an integer
Taylor shift of E's numerators, and E is symmetric exactly when F is even
or odd.  H is held as the integer vector h = den H, with den the common
denominator of E, until a certificate reports it.  The verdict reads one
chain: the integer vectors of the primitive remainder sequence of H and
H' (Collins, 1967), H first.  Its members have the signs of the rational
Sturm chain's, and the last is gcd(H, H'), so the chain also tells
whether H is squarefree; when it is not, the squarefree part gets a chain
of its own.  The verdict is V(-inf) - V(0) on the chain of the squarefree
part, read off leading coefficients and constant terms.  No chain is built
or evaluated after it.

Once the verdict holds, the squarefree part p is real-rooted, and then so
is every derivative of p, with its roots inside p's root range.  So the
Budan-Fourier count V(a) - V(b), where V(x) is the number of sign
variations of the Taylor coefficients p(x), p'(x), p''(x)/2!, ..., is
exactly the number of roots of p in (a, b], the same number a Sturm count
gives.  The Taylor coefficients at x = a/2^k have the signs of one integer
Taylor shift by a of 2^(k deg p) p(y/2^k).

Every point p is expanded at is dyadic, a/2^k held as the integers (a, k).
The isolation starts at +-2^e, where the integer Cauchy exponent e makes
2^e the least power of two at least the Cauchy bound.  The roots mostly lie
much closer to 0: the least r >= 0 with
|lead p| 2^(r n) > sum_(i<n) |p_i| 2^(r i), n = deg p, puts every root of p,
real or complex, in the disc |z| < 2^r, and r <= e.  At a point x outside
the disc, |x| >= 2^r, every root of p(x + t) lies in one open half-plane,
so its Taylor coefficients all share one sign right of the disc and
strictly alternate left of it.  There V is 0 and deg p, and the sign of p
is that of its leading coefficient, times (-1)^(deg p) on the left, with
nothing computed.  The isolation splits intervals at dyadic points and
visits the left half first, so the isolating intervals come out left to
right.  Inside the disc, the sign of p at a/2^k is that of the integer
2^(k deg p) p(a/2^k), by homogeneous Horner with shifts, after a/2^k is put
in lowest terms.  Taylor coefficients are read only inside the disc and
only while an interval holds more than one root.  Once it holds exactly
one, the polynomial is squarefree and nonzero at both ends, so one sign of
the polynomial at the split point decides the half that keeps the root.
An interval that still counts two roots when it is narrower than the
Mahler-Mignotte root separation bound of p proves p is not squarefree and
real-rooted, and the isolation stops there.  Which squarefree factor of H
owns an isolated root is read off a sign change of the factor across the
interval.  Integer gcds give the squarefree decomposition and the shared
factor of an interlacing; fractions appear only in what a certificate
reports: H, the brackets (whose denominators are powers of two) and the
monic factors.

Roots on the line are ordered by imaginary part.  A root of E at
-1/2 + i s corresponds to w = u^2 = -4 s^2, so comparisons of imaginary
parts reduce to exact comparisons of w-roots, performed on isolating
intervals.  The intervals of one polynomial are disjoint by construction;
those of the different polynomials of an interlacing are refined until
pairwise disjoint (shared roots are split off through a gcd first).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple, Optional

from .graphs import VerificationFailed
from .polynomial import (
    Poly,
    _exact_quo,
    _int_gcd,
    _primitive,
    _sturm_prs,
    fraction_str,
    poly_str,
)


class NotSymmetric(ValueError):
    """Input lacks the reflexive functional equation; no CL transform exists.
    It holds E and formats it into the message only when that is read."""

    def __str__(self) -> str:
        return f"{self.args[0]} fails (-1)^d E(x) = E(-1-x)"


class NotCL(ValueError):
    """An interlacing precondition failed (degrees or CL membership)."""


class RootCheckFailed(VerificationFailed, ArithmeticError):
    """An exact invariant of the CL transform, the root isolation or the
    interlacing certificate failed."""


class CLTransform(NamedTuple):
    """E repackaged as u^parity * H(u^2) in the variable u = 2x + 1, with
    H = h / den: h is an integer vector, constant term first, and den > 0."""

    parity: int
    h: tuple[int, ...]
    den: int


def _even_or_odd(f: list[int]) -> bool:
    """F(-u) = F(u) or F(-u) = -F(u)."""
    return not any(f[0::2]) or not any(f[1::2])


def cl_transform(e: Poly) -> CLTransform:
    """Compute F(u) = 2^d E((u-1)/2) on integers, test the symmetry on its
    parity, strip u^parity and decompress u^2 -> w.

    The substitution u = 2x + 1 centers the canonical line at u = 0, where
    the symmetry equation says F(-u) = (-1)^d F(u).  With den E = sum a_i x^i,
    den F(u) = sum a_i 2^(d-i) (u-1)^i, an integer Taylor shift by -1."""
    if not e.num:
        raise ValueError("zero polynomial")
    d = len(e.num) - 1
    f = [c << (d - i) for i, c in enumerate(e.num)]
    _taylor_shift(f, -1)
    if not _even_or_odd(f):
        raise NotSymmetric(e)
    parity = d & 1
    # F has degree d, so an even or odd F is u^parity times an even polynomial
    if any(f[1 - parity :: 2]):
        raise RootCheckFailed(f"2^d E((u-1)/2) of {e} is not u^{parity} times an even polynomial")
    h = tuple(f[parity::2])
    if not h[-1]:
        raise RootCheckFailed(f"H has degree {max((i for i, c in enumerate(h) if c), default=-1)}, expected {d // 2}")
    return CLTransform(parity, h, e.den)


def _taylor_shift(f: list[int], a: int) -> None:
    """f(x) -> f(x + a) in place, for an integer vector f and an integer a,
    by repeated synthetic division: n (n + 1) / 2 multiply-adds."""
    n = len(f) - 1
    for i in range(n):
        acc = f[n]
        for j in range(n - 1, i - 1, -1):
            acc = f[j] = f[j] + a * acc


# ---------------------------------------------------------------------------
# Sturm verdict and Budan-Fourier isolation
# ---------------------------------------------------------------------------


def _chain(a: list[int]) -> list[list[int]]:
    """The Sturm chain of the integer vector a: the primitive remainder
    sequence of a and a'.  Only the verdict builds one."""
    return _sturm_prs(a, [i * c for i, c in enumerate(a)][1:])


def _sign(q: list[int], a: int, k: int) -> int:
    """Sign of q(a / 2^k), k >= 0: that of the integer 2^(k deg q) q(a / 2^k),
    by homogeneous Horner with the powers of 2^k as shifts.  a / 2^k is
    first put in lowest terms, which keeps the shifts short."""
    z = min(k, (a & -a).bit_length() - 1) if a else k
    a, k = a >> z, k - z
    acc, shift = 0, 0
    for c in reversed(q):
        acc = acc * a + (c << shift)
        shift += k
    return (acc > 0) - (acc < 0)


def _changes(values: list[int]) -> int:
    """Sign changes along a list of numbers, zeros skipped."""
    nonzero = [v for v in values if v]
    return sum((a < 0) != (b < 0) for a, b in zip(nonzero, nonzero[1:]))


def _nonpositive_roots(chain: list[list[int]]) -> int:
    """The distinct real roots of chain[0] in (-inf, 0]: V(-inf) - V(0) of
    its Sturm chain.  At -inf a member takes the sign of its leading
    coefficient, opposite when its degree is odd; at 0 that of its constant
    term."""
    return _changes([q[-1] if len(q) % 2 else -q[-1] for q in chain]) - _changes([q[0] for q in chain])


def _taylor_variations(p: list[int], a: int, k: int) -> int:
    """V(a / 2^k), k >= 0: the sign variations of the Taylor coefficients
    p(x), p'(x), p''(x)/2!, ... of p at x = a / 2^k.  They have the signs of
    the coefficients of P(a + t), where P(y) = 2^(k deg p) p(y / 2^k) is an
    integer vector, so one integer Taylor shift by a gives them.  a / 2^k
    is first put in lowest terms, which keeps the powers of 2^k short."""
    z = min(k, (a & -a).bit_length() - 1) if a else k
    a, k = a >> z, k - z
    n = len(p) - 1
    f = [c << (k * (n - i)) for i, c in enumerate(p)] if k else list(p)
    if a:
        _taylor_shift(f, a)
    return _changes(f)


def cauchy_exponent(a: list[int]) -> int:
    """The least e with 2^e at least Cauchy's strict bound 1 + max |a_i| / |lead a|
    on the absolute values of the roots of a, deg a >= 1."""
    return (-(-max(abs(c) for c in a[:-1]) // abs(a[-1]))).bit_length()


def disc_exponent(a: list[int]) -> int:
    """The least r >= 0 with |lead a| 2^(r n) > sum_(i<n) |a_i| 2^(r i),
    n = deg a >= 1.  Then every root z of a, real or complex, has
    |z| < 2^r, and r <= cauchy_exponent(a).  The search starts at the
    least r that beats each term alone, |lead a| 2^(r (n-i)) > |a_i|."""
    n = len(a) - 1
    lead = abs(a[-1])
    bits = lead.bit_length()
    r = max([0] + [-((bits - abs(c).bit_length()) // (n - i)) for i, c in enumerate(a[:-1]) if c])
    while True:
        acc = 0
        for c in reversed(a[:-1]):
            acc = (acc << r) + abs(c)
        if lead << (r * n) > acc:
            return r
        r += 1


def _separation_exponent(p: list[int]) -> int:
    """An s with 2^-s below the Mahler-Mignotte bound
    sqrt(3) n^(-(n+2)/2) ||p||_2^(1-n) on the distance between two roots of
    the squarefree integer vector p of degree n >= 1.  With
    ||p||_2 <= sqrt(n+1) 2^B, B the largest bit length of a coefficient, and
    n + 1 < 2^L, that bound exceeds 2^-((n-1) B + (n+1) L)."""
    n = len(p) - 1
    return (n - 1) * max(abs(c).bit_length() for c in p) + (n + 1) * (n + 1).bit_length()


def _split_point(p: list[int], a: int, b: int, k: int) -> tuple[int, int, int]:
    """(m, j, s): m / 2^(k+j) is the first of lo + (hi - lo) / 2^j,
    j = 1..6, on (lo, hi) = (a / 2^k, b / 2^k) that is not a root of p, and
    s is the sign of p there."""
    for j in range(1, 7):
        m = (a << j) + b - a
        s = _sign(p, m, k + j)
        if s:
            return m, j, s
    raise RootCheckFailed(
        f"no split point of ({Fraction(a, 1 << k)}, {Fraction(b, 1 << k)}) avoids the roots of {p}"
    )


class Isolation:
    """Exactly one root of the squarefree integer vector p in the open
    interval (lo, hi) = (a / 2^k, b / 2^k); sign_lo is the sign of p at lo
    (at hi it is the opposite).  Every end is dyadic: the isolation starts
    at a power of two and splits at dyadic points.  Bisection narrows it in
    place."""

    __slots__ = ("a", "b", "k", "sign_lo", "p")
    __hash__ = None  # mutable

    def __init__(self, a: int, b: int, k: int, sign_lo: int, p: list[int]):
        self.a = a
        self.b = b
        self.k = k
        self.sign_lo = sign_lo
        self.p = p

    @property
    def lo(self) -> Fraction:
        return Fraction(self.a, 1 << self.k)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.b, 1 << self.k)

    def bisect(self) -> None:
        """Split the interval and keep the part that holds the root.  The
        polynomial is squarefree and nonzero at both ends, so its sign at
        the split point alone decides the side."""
        m, j, s = _split_point(self.p, self.a, self.b, self.k)
        self.a, self.b, self.k = self.a << j, self.b << j, self.k + j
        if s == self.sign_lo:
            self.a = m
        else:
            self.b = m

    def refine_below_zero(self) -> None:
        while self.b > 0:
            self.bisect()

    def refine_to_width(self, e: int) -> None:
        """Bisect until the interval is at most 2^-e wide."""
        while (self.b - self.a) << e > 1 << self.k:
            self.bisect()


def _isolate(p: list[int]) -> list[Isolation]:
    """Disjoint isolating intervals for the roots of the squarefree,
    real-rooted integer vector p, left to right.  The search starts at
    +-2^e, e = cauchy_exponent(p), visits the left half of a split first,
    and expands p at a split point only where an interval holds more than
    one root.  Outside the root disc |z| < 2^r, r = disc_exponent(p), the
    Budan-Fourier count V is deg p on the left and 0 on the right, and the
    sign of p is known: there a midpoint is taken as it is, with no sign or
    expansion computed.  It is never a root, so _split_point would take it
    too, and the intervals are those of a search that computes every count.

    Input that is not squarefree or not real-rooted raises RootCheckFailed:
    an interval narrower than the root separation bound still counting two
    or more roots stops the search, which ends in a check that every root
    of p was isolated."""
    n = len(p) - 1
    if n < 1:
        return []
    e = cauchy_exponent(p)
    r = disc_exponent(p)
    s = _separation_exponent(p)
    right = (p[-1] > 0) - (p[-1] < 0)  # the sign of p right of the disc
    left = -right if n & 1 else right
    out: list[Isolation] = []
    stack = [(-1 << e, 1 << e, 0, n, 0, left, right)]
    while stack:
        a, b, k, va, vb, sa, sb = stack.pop()
        if va - vb == 1:
            if sa * sb >= 0:
                raise RootCheckFailed(
                    f"signs {sa} and {sb} at the ends of the isolating interval "
                    f"({Fraction(a, 1 << k)}, {Fraction(b, 1 << k)}) of {p}"
                )
            out.append(Isolation(a, b, k, sa, p))
        elif va - vb > 1:
            if k - (b - a).bit_length() >= s:
                raise RootCheckFailed(
                    f"({Fraction(a, 1 << k)}, {Fraction(b, 1 << k)}) is narrower than 2^-{s} and still counts "
                    f"{va - vb} roots: {p} is not squarefree and real-rooted"
                )
            m, j = a + b, 1  # the midpoint m / 2^(k+1)
            if abs(m) >> (k + 1 + r):  # outside the disc
                sm, vm = (left, n) if m < 0 else (right, 0)
            else:
                m, j, sm = _split_point(p, a, b, k)
                vm = _taylor_variations(p, m, k + j)
            a, b, k = a << j, b << j, k + j
            stack.append((m, b, k, vm, vb, sm, sb))
            stack.append((a, m, k, va, vm, sa, sm))
    if len(out) != n:
        raise RootCheckFailed(f"{len(out)} isolating intervals for the {n} roots of {p}")
    return out


def refine_pairwise_disjoint(isos: list[Isolation]) -> None:
    """Bisect overlapping isolating intervals (of polynomials with pairwise
    distinct roots) until no two intervals intersect.  The ends are
    compared as integers: x / 2^k < y / 2^l exactly when x 2^l < y 2^k."""
    changed = True
    while changed:
        changed = False
        for i in range(len(isos)):
            for j in range(i + 1, len(isos)):
                x, y = isos[i], isos[j]
                if (x.a << y.k) < (y.b << x.k) and (y.a << x.k) < (x.b << y.k):  # overlap
                    (x if (x.b - x.a) << y.k >= (y.b - y.a) << x.k else y).bisect()
                    changed = True


def _decompose(a: list[int], g: list[int]) -> list[tuple[list[int], int]]:
    """The squarefree decomposition [(f_i, i)] of a primitive integer vector
    a = c * prod f_i^i, given g = gcd(a, a') up to a constant; the f_i are
    squarefree, coprime integer vectors.  Every quotient is exact and
    integral, since the divisors are primitive (Gauss's lemma)."""
    out = []
    i = 1
    g = _primitive(g)
    w = _exact_quo(a, g)  # product of distinct factors
    while len(w) > 1:
        y = _int_gcd(w, g)
        fi = _exact_quo(w, y)
        if len(fi) > 1:
            out.append((fi, i))
        w = y
        g = _exact_quo(g, y)
        i += 1
    return out


# ---------------------------------------------------------------------------
# Canonical-line certificates
# ---------------------------------------------------------------------------


class WRoot(NamedTuple):
    """A distinct root of the transformed polynomial H, with exact rational
    bracketing and its multiplicity in H."""

    lo: Fraction
    hi: Fraction
    multiplicity: int
    exact: Optional[Fraction] = None  # set when the root is rational

    def as_dict(self) -> dict:
        return {
            "lo": fraction_str(self.lo),
            "hi": fraction_str(self.hi),
            "multiplicity": self.multiplicity,
            "exact": fraction_str(self.exact) if self.exact is not None else None,
        }


class RootCertificate(NamedTuple):
    """Verdict on canonical-line membership plus exact isolation data."""

    source: Poly
    symmetric: bool
    on_cl: bool
    parity: int
    half_square: Optional[Poly]
    w_roots: list[WRoot]
    distinct_real_in_range: int
    reason: str = ""

    def as_dict(self) -> dict:
        return {
            "degree": self.source.degree,
            "symmetric": self.symmetric,
            "on_cl": self.on_cl,
            "parity": self.parity,
            "half_square": poly_str(self.half_square) if self.half_square else None,
            "w_roots": [r.as_dict() for r in self.w_roots],
            "reason": self.reason,
        }


class _WData(NamedTuple):
    """What both certificates need of one polynomial E."""

    transform: CLTransform
    decomp: list[tuple[list[int], int]]  # squarefree decomposition of H
    part: list[int]  # the product of its factors, up to sign
    in_range: int  # distinct roots of H in (-inf, 0]

    @property
    def on_cl(self) -> bool:
        return self.in_range == len(self.part) - 1

    @property
    def degree(self) -> int:
        """The degree of E: F = u^parity H(u^2) has the degree of E."""
        return 2 * (len(self.transform.h) - 1) + self.transform.parity


def _w_data(e: Poly) -> Optional[_WData]:
    """The CL transform of E and what both certificates read off H, or None
    when E lacks the symmetry equation.

    The chain of H ends in g = gcd(H, H'), and H / g is the squarefree part.
    When g is a constant, that is H itself and the chain is its chain;
    otherwise the squarefree part gets its own chain for the verdict."""
    try:
        t = cl_transform(e)
    except NotSymmetric:
        return None
    chain = _chain(list(t.h))
    decomp = _decompose(chain[0], chain[-1])
    if len(chain[-1]) > 1:
        chain = _chain(_exact_quo(chain[0], chain[-1]))
    return _WData(t, decomp, chain[0], _nonpositive_roots(chain))


def _split_zero(w: _WData) -> tuple[list[int], int]:
    """The squarefree part without its root w = 0 (the line's center), and
    that root's multiplicity in H (0 when w = 0 is no root)."""
    s = w.part
    if s[0] != 0:
        return s, 0
    return s[1:], next(m for f, m in w.decomp if f[0] == 0)


def _factor_at(factors: list[tuple[list[int], int]], iso: Isolation) -> tuple[int, Optional[Fraction]]:
    """(multiplicity, exact rational value when the factor is linear) of the
    decomposition factor whose root the isolating interval holds.

    The open interval (lo, hi) holds exactly one root of the product of the
    factors, so a lone factor owns it, and otherwise the one factor that
    changes sign across it.  lo is no root of any factor, but hi can be
    w = 0, a simple root of the factor that holds the center; just left of
    0 a factor has the sign of f(0), or of -f'(0) when f(0) = 0."""
    for f, m in factors:
        if len(factors) > 1:
            hi = _sign(f, iso.b, iso.k) if iso.b else f[0] or -f[1]
            if (hi > 0) == (_sign(f, iso.a, iso.k) > 0):
                continue
        return m, (Fraction(-f[0], f[1]) if len(f) == 2 else None)
    raise RootCheckFailed(f"isolated root in ({iso.lo}, {iso.hi}) is missing from the decomposition")


def is_cl(e: Poly) -> RootCertificate:
    """Certify whether all roots of E lie on the canonical line.

    The verdict is positive exactly when E satisfies the symmetry equation
    and the squarefree part of H has deg(H)-many distinct real roots, all in
    (-inf, 0].  The isolating intervals of the squarefree part are
    disjoint; each is refined to avoid straddling 0.
    """
    w = _w_data(e)
    if w is None:
        return RootCertificate(
            e, False, False, e.degree & 1, None, [], 0, reason="not symmetric about the canonical line"
        )
    roots: list[WRoot] = []
    if w.on_cl:
        part, zero_mult = _split_zero(w)
        for iso in _isolate(part):
            iso.refine_below_zero()
            iso.refine_to_width(6)
            mult, exact = _factor_at(w.decomp, iso)
            if exact is not None:
                roots.append(WRoot(exact, exact, mult, exact=exact))
            else:
                roots.append(WRoot(iso.lo, iso.hi, mult))
        if zero_mult:
            roots.append(WRoot(Fraction(0), Fraction(0), zero_mult, exact=Fraction(0)))
    t = w.transform
    return RootCertificate(e, True, w.on_cl, t.parity, Poly.over(t.h, t.den), roots, w.in_range)


# ---------------------------------------------------------------------------
# Interlacing on the canonical line
# ---------------------------------------------------------------------------


class InterlaceCertificate(NamedTuple):
    """Witness of the weak alternation of two CL root sequences."""

    interlaces: bool
    shared_factor: Poly
    order: list[dict]  # merged root symbols bottom-to-top along the line
    reason: str = ""

    def as_dict(self) -> dict:
        return {
            "interlaces": self.interlaces,
            "shared_factor": poly_str(self.shared_factor),
            "order": self.order,
            "reason": self.reason,
        }


def interlaces_on_cl(g: Poly, f: Poly) -> InterlaceCertificate:
    """Certify that g CL-interlaces f (deg f = deg g + 1): ordering all roots
    along the canonical line by imaginary part, the chain
    a_1 <= b_1 <= a_2 <= ... <= b_d <= a_(d+1) holds weakly, with shared
    roots (the gcd factor) counted once in each sequence."""
    if f.degree != g.degree + 1:
        raise NotCL(f"degree ladder broken: deg f = {f.degree}, deg g = {g.degree}")
    return _interlace(_w_data(g), _w_data(f))


def _interlace(wg: Optional[_WData], wf: Optional[_WData]) -> InterlaceCertificate:
    """`interlaces_on_cl` on the `_w_data` of g and f, whose degrees the
    caller has checked; a scan that certifies one polynomial against two
    others builds its data once."""
    if wf is None or wg is None or not (wf.on_cl and wg.on_cl):
        raise NotCL("both polynomials must have all roots on the canonical line")

    pf, zf = _split_zero(wf)
    pg, zg = _split_zero(wg)

    shared = _int_gcd(pf, pg)
    if len(shared) > 1:
        parts = [("shared", shared), ("f", _exact_quo(pf, shared)), ("g", _exact_quo(pg, shared))]
    else:
        parts = [("f", pf), ("g", pg)]

    isos = [(tag, iso) for tag, p in parts for iso in _isolate(p)]
    refine_pairwise_disjoint([iso for _, iso in isos])
    for _, iso in isos:
        iso.refine_below_zero()
    top = max((iso.k for _, iso in isos), default=0)
    isos.sort(key=lambda pair: pair[1].a << (top - pair[1].k))  # lo = a / 2^k, as a multiple of 2^-top

    # the distinct roots bottom-to-top along the line: negative w-roots by w
    # ascending, the center, then the same w-roots mirrored; deg f = deg g + 1
    # makes one degree odd, so its parity always puts a root at the center
    below = [
        {
            "position": "negative-imaginary",
            "w_lo": fraction_str(iso.lo),
            "w_hi": fraction_str(iso.hi),
            "in_f": _factor_at(wf.decomp, iso)[0] if tag in ("shared", "f") else 0,
            "in_g": _factor_at(wg.decomp, iso)[0] if tag in ("shared", "g") else 0,
        }
        for tag, iso in isos
    ]
    center = {"position": "center", "in_f": 2 * zf + wf.transform.parity, "in_g": 2 * zg + wg.transform.parity}
    order = below + [center] + [dict(r, position="positive-imaginary") for r in reversed(below)]
    a_keys = [key for key, r in enumerate(order) for _ in range(r["in_f"])]
    b_keys = [key for key, r in enumerate(order) for _ in range(r["in_g"])]

    if len(a_keys) != wf.degree or len(b_keys) != wg.degree:
        raise RootCheckFailed(
            f"root count mismatch: {len(a_keys)} of {wf.degree} roots of f, {len(b_keys)} of {wg.degree} of g"
        )
    ok = all(
        a_keys[i] <= b_keys[i] <= a_keys[i + 1] for i in range(len(b_keys))
    )
    reason = "" if ok else "alternation chain broken"
    return InterlaceCertificate(ok, Poly.over(shared, shared[-1]), order, reason)


# ---------------------------------------------------------------------------
# Rational bounds for reporting imaginary parts
# ---------------------------------------------------------------------------


SQRT_SCALE = 1 << 32  # the bounds are multiples of 1 / (SQRT_SCALE * denominator)


def sqrt_bounds(q: Fraction) -> tuple[Fraction, Fraction]:
    """Exact rational lo <= sqrt(q) <= hi with lo^2 <= q <= hi^2 verified."""
    if q < 0:
        raise ValueError("negative radicand")
    big = q.numerator * q.denominator * SQRT_SCALE * SQRT_SCALE
    root = isqrt(big)
    lo = Fraction(root, q.denominator * SQRT_SCALE)
    hi = Fraction(root + 1, q.denominator * SQRT_SCALE)
    if not lo * lo <= q <= hi * hi:
        raise RootCheckFailed(f"sqrt bounds [{lo}, {hi}] do not bracket sqrt({q})")
    return lo, hi


def imaginary_bounds(w_lo: Fraction, w_hi: Fraction) -> tuple[Fraction, Fraction]:
    """Bounds on the positive imaginary part s = sqrt(-w)/2 for a w-root
    bracketed by (w_lo, w_hi), w_hi <= 0."""
    lo_s, _ = sqrt_bounds(-w_hi)
    _, hi_s = sqrt_bounds(-w_lo)
    return lo_s / 2, hi_s / 2
