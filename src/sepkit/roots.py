"""Certified root location on the canonical line Re(z) = -1/2 and certified
interlacing, by exact Sturm-sequence root isolation.

For a symmetric Ehrhart polynomial E of degree d (meaning
(-1)^d E(x) = E(-1-x)), the substitution u = 2x + 1 gives
F(u) = 2^d E((u-1)/2) with F(-u) = (-1)^d F(u), so F = u^(d mod 2) H(u^2)
for a polynomial H of degree floor(d/2).  The roots of E lie on the
canonical line exactly when every root of H is real and nonpositive, which
Sturm counting certifies without any floating point.

The path from E to the certificate runs on integers.  F comes from an
integer Taylor shift of E's numerators, and E is symmetric exactly when F
is even or odd.  The Sturm chain of H is the integer primitive remainder
sequence of H and H' (Collins, 1967): every member is a primitive integer
polynomial with the signs of the rational chain's, and its last member is
gcd(H, H').  So one sequence per polynomial tells whether H is squarefree
and, when it is, is the chain every count and isolation of that
polynomial reads; the squarefree decomposition otherwise and the shared
factor of an interlacing use integer gcds.  Signs at a rational point a/b
are signs of integers, b^deg q(a/b) by homogeneous Horner, and the
exact-zero tests of the isolation evaluate the chain's first member the
same way.  Fractions appear only in what a certificate reports: H, the
brackets and the monic factors.

Roots on the line are ordered by imaginary part.  A root of E at
-1/2 + i s corresponds to w = u^2 = -4 s^2, so comparisons of imaginary
parts reduce to exact comparisons of w-roots, performed on isolating
intervals refined until pairwise disjoint (shared roots are split off
through a gcd first).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import NamedTuple, Optional

from .polynomial import (
    Poly,
    _centered,
    _exact_quo,
    _int_gcd,
    _numerators,
    _primitive,
    _sturm_prs,
    fraction_str,
)


class NotSymmetric(ValueError):
    """Input lacks the reflexive functional equation; no CL transform exists."""


class NotCL(ValueError):
    """An interlacing precondition failed (degrees or CL membership)."""


class RootCheckFailed(ArithmeticError):
    """An exact invariant of the CL transform, the root isolation or the
    interlacing certificate failed."""


@dataclass(frozen=True)
class CLTransform:
    """E repackaged as u^parity * H(u^2) in the variable u = 2x + 1."""

    source: Poly
    parity: int
    half_square: Poly  # H

    @property
    def degree(self) -> int:
        return self.source.degree


def _even_or_odd(f: list[int]) -> bool:
    """F(-u) = F(u) or F(-u) = -F(u)."""
    return not any(f[0::2]) or not any(f[1::2])


def cl_transform(e: Poly) -> CLTransform:
    """Compute F(u) = 2^d E((u-1)/2) on integers, test the symmetry on its
    parity, strip u^parity and decompress u^2 -> w."""
    if e.is_zero():
        raise ValueError("zero polynomial")
    f, den = _centered(e)
    if not _even_or_odd(f):
        raise NotSymmetric(f"{e} fails (-1)^d E(x) = E(-1-x)")
    d = e.degree
    parity = d & 1
    # F has degree d, so an even or odd F is u^parity times an even polynomial
    if any(f[1 - parity :: 2]):
        raise RootCheckFailed(f"2^d E((u-1)/2) of {e} is not u^{parity} times an even polynomial")
    h = Poly([Fraction(c, den) for c in f[parity::2]])
    if h.degree != d // 2:
        raise RootCheckFailed(f"H has degree {h.degree}, expected {d // 2}")
    return CLTransform(e, parity, h)


# ---------------------------------------------------------------------------
# Sturm machinery
# ---------------------------------------------------------------------------


def _ints(p: Poly) -> list[int]:
    """The primitive integer vector of p: p times a positive constant."""
    return _primitive(_numerators(p)[0])


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm chain p, p', -rem(...), ... of p over the integers, as the
    primitive remainder sequence of p and p'.  A positive scale keeps every
    sign, so the variation counts are those of the rational chain; for p
    with repeated roots the chain ends in gcd(p, p') up to a constant."""
    a = _ints(p)
    return [Poly(q) for q in _sturm_prs(a, [i * c for i, c in enumerate(a)][1:])]


def _sign_at(q: Poly, x: Fraction) -> int:
    """Sign of q(x) for a member q of a `sturm_chain`: with x = a/b, b > 0,
    the sign of the integer b^deg(q) q(a/b), by homogeneous Horner."""
    a, b = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(q.coeffs):
        acc = acc * a + c.numerator * scale
        scale *= b
    return (acc > 0) - (acc < 0)


def _sign_at_inf(p: Poly, positive: bool) -> int:
    if p.is_zero():
        return 0
    lead = p.coeffs[-1]
    s = (lead > 0) - (lead < 0)
    if positive or p.degree % 2 == 0:
        return s
    return -s


def _variations(chain: list[Poly], x, positive_inf: Optional[bool] = None) -> int:
    signs = []
    for p in chain:
        s = _sign_at_inf(p, positive_inf) if x is None else _sign_at(p, x)
        if s != 0:
            signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(
    p: Poly,
    lo: Optional[Fraction],
    hi: Optional[Fraction],
    chain: Optional[list[Poly]] = None,
) -> int:
    """Distinct real roots of squarefree p in the half-open interval (lo, hi],
    with None meaning the corresponding infinity; `chain`, when given, is
    `sturm_chain(p)`.

    With zeros skipped in the sign sequences, the variation count V satisfies
    V(a) - V(b) = #roots in (a, b] even when a or b is itself a root.
    """
    if p.degree <= 0:
        return 0
    chain = chain or sturm_chain(p)
    va = _variations(chain, lo, positive_inf=False if lo is None else None)
    vb = _variations(chain, hi, positive_inf=True if hi is None else None)
    return va - vb


def cauchy_bound(p: Poly) -> Fraction:
    """Strict bound on the absolute value of every real root."""
    lead = abs(p.coeffs[-1])
    return 1 + max((abs(c) / lead for c in p.coeffs[:-1]), default=Fraction(0))


def _split_point(chain: list[Poly], lo: Fraction, hi: Fraction) -> Fraction:
    """The first of lo + (hi - lo)/k, k = 2, 3, 5, 7, 11, 13, that is not a
    root of the chain's polynomial."""
    span = hi - lo
    for k in (2, 3, 5, 7, 11, 13):
        mid = lo + span / k
        if _sign_at(chain[0], mid) != 0:
            return mid
    raise RootCheckFailed(f"no split point of ({lo}, {hi}) avoids the roots of {chain[0]}")


@dataclass
class Isolation:
    """Exactly one root of `poly` in the open interval (lo, hi); `chain` is
    `sturm_chain(poly)`."""

    poly: Poly
    lo: Fraction
    hi: Fraction
    chain: list[Poly] = field(repr=False)

    def count(self) -> int:
        return sturm_count(self.poly, self.lo, self.hi, self.chain)

    def bisect(self) -> None:
        """Halve the interval, keeping the root and non-root endpoints."""
        mid = _split_point(self.chain, self.lo, self.hi)
        if sturm_count(self.poly, self.lo, mid, self.chain) == 1:
            self.hi = mid
        else:
            self.lo = mid

    def refine_below(self, bound: Fraction) -> None:
        while self.hi > bound:
            self.bisect()

    def refine_to_width(self, width: Fraction) -> None:
        while self.hi - self.lo > width:
            self.bisect()

    def width(self) -> Fraction:
        return self.hi - self.lo


def isolate_real_roots(p: Poly, chain: Optional[list[Poly]] = None) -> list[Isolation]:
    """Disjoint isolating intervals for all real roots of squarefree p,
    sorted left to right; `chain`, when given, is `sturm_chain(p)`."""
    if p.degree <= 0:
        return []
    chain = chain or sturm_chain(p)
    bound = cauchy_bound(p)
    lo, hi = -bound, bound
    while _sign_at(chain[0], lo) == 0:
        lo -= 1
    while _sign_at(chain[0], hi) == 0:
        hi += 1
    out: list[Isolation] = []
    stack = [(lo, hi, sturm_count(p, lo, hi, chain))]
    while stack:
        a, b, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            out.append(Isolation(p, a, b, chain))
            continue
        mid = _split_point(chain, a, b)
        cl = sturm_count(p, a, mid, chain)
        stack.append((a, mid, cl))
        stack.append((mid, b, cnt - cl))
    out.sort(key=lambda iv: iv.lo)
    return out


def refine_pairwise_disjoint(isos: list[Isolation]) -> None:
    """Bisect overlapping isolating intervals (of polynomials with pairwise
    distinct roots) until no two intervals intersect."""
    changed = True
    while changed:
        changed = False
        for i in range(len(isos)):
            for j in range(i + 1, len(isos)):
                a, b = isos[i], isos[j]
                if a.lo < b.hi and b.lo < a.hi:  # overlap
                    (a if a.width() >= b.width() else b).bisect()
                    changed = True


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """[(f_i, i)] with p = c * prod f_i^i, the f_i squarefree, coprime and
    monic."""
    a = _ints(p)
    return _decompose(a, _int_gcd(a, [i * c for i, c in enumerate(a)][1:]))


def _decompose(a: list[int], g: list[int]) -> list[tuple[Poly, int]]:
    """The squarefree decomposition of a primitive integer vector a, given
    g = gcd(a, a') up to a constant.  Every quotient is exact and integral,
    since the divisors are primitive (Gauss's lemma)."""
    out = []
    i = 1
    g = _primitive(g)
    w = _exact_quo(a, g)  # product of distinct factors
    while len(w) > 1:
        y = _int_gcd(w, g)
        fi = _exact_quo(w, y)
        if len(fi) > 1:
            out.append((Poly(fi).monic(), i))
        w = y
        g = _exact_quo(g, y)
        i += 1
    return out


# ---------------------------------------------------------------------------
# Canonical-line certificates
# ---------------------------------------------------------------------------


@dataclass
class WRoot:
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


@dataclass
class RootCertificate:
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
        from .polynomial import poly_str

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
    decomp: list[tuple[Poly, int]]  # squarefree decomposition of H
    squarefree: Poly  # the product of its factors
    chain: list[Poly]  # sturm_chain(squarefree), up to sign
    in_range: int  # distinct roots of H in (-inf, 0]

    @property
    def on_cl(self) -> bool:
        return self.in_range == self.squarefree.degree


def _w_data(e: Poly) -> Optional[_WData]:
    """The CL transform of E and what both certificates read off H, or None
    when E lacks the symmetry equation.

    The chain of H ends in gcd(H, H').  When that is a constant, H is
    squarefree: its decomposition is H alone, and the chain is that of the
    squarefree part.  Otherwise the decomposition starts from that gcd, and
    the squarefree part gets its own chain."""
    try:
        t = cl_transform(e)
    except NotSymmetric:
        return None
    h = t.half_square
    chain = sturm_chain(h)
    if chain[-1].degree > 0:
        decomp = _decompose([c.numerator for c in chain[0].coeffs], [c.numerator for c in chain[-1].coeffs])
        s = Poly.one()
        for f, _ in decomp:
            s = s * f
        chain = sturm_chain(s)
    elif h.degree > 0:
        decomp = [(h.monic(), 1)]
        s = decomp[0][0]
    else:
        decomp, s = [], Poly.one()
    return _WData(t, decomp, s, chain, sturm_count(s, None, Fraction(0), chain))


def _split_zero(w: _WData) -> tuple[Poly, int, Optional[list[Poly]]]:
    """The squarefree part without its root w = 0 (the line's center), that
    root's multiplicity in H (0 when w = 0 is no root), and the chain of
    the former when it is the squarefree part itself."""
    s = w.squarefree
    if s[0] != 0:
        return s, 0, w.chain
    return Poly(s.coeffs[1:]), next(m for f, m in w.decomp if f[0] == 0), None


def _factor_chains(w: _WData) -> list[tuple[Poly, int, list[Poly]]]:
    """The factors of the decomposition with their multiplicities and
    chains; a single factor is the squarefree part, whose chain is known."""
    if len(w.decomp) == 1:
        f, m = w.decomp[0]
        return [(f, m, w.chain)]
    return [(f, m, sturm_chain(f)) for f, m in w.decomp]


def _factor_at(factors: list[tuple[Poly, int, list[Poly]]], iso: Isolation) -> tuple[int, Optional[Fraction]]:
    """(multiplicity, exact rational value when the factor is linear) of the
    decomposition factor whose root the isolating interval holds.

    The root lies in the open interval (lo, hi), and hi can be w = 0, a root
    of the factor that holds the center, so a root at hi is not counted."""
    for f, m, chain in factors:
        if sturm_count(f, iso.lo, iso.hi, chain) - (_sign_at(chain[0], iso.hi) == 0) == 1:
            return m, (-f[0] / f[1] if f.degree == 1 else None)
    raise RootCheckFailed(f"isolated root in ({iso.lo}, {iso.hi}) is missing from the decomposition")


def is_cl(e: Poly) -> RootCertificate:
    """Certify whether all roots of E lie on the canonical line.

    The verdict is positive exactly when E satisfies the symmetry equation
    and the squarefree part of H has deg(H)-many distinct real roots, all in
    (-inf, 0].  Isolating intervals are refined to be pairwise disjoint and
    to avoid straddling 0.
    """
    w = _w_data(e)
    if w is None:
        return RootCertificate(
            e, False, False, e.degree & 1, None, [], 0, reason="not symmetric about the canonical line"
        )
    roots: list[WRoot] = []
    if w.on_cl:
        s_neg, zero_mult, chain = _split_zero(w)
        factors = _factor_chains(w)
        isos = isolate_real_roots(s_neg, chain)
        refine_pairwise_disjoint(isos)
        for iso in isos:
            iso.refine_below(Fraction(0))
            iso.refine_to_width(Fraction(1, 64))
            mult, exact = _factor_at(factors, iso)
            if exact is not None:
                roots.append(WRoot(exact, exact, mult, exact=exact))
            else:
                roots.append(WRoot(iso.lo, iso.hi, mult))
        if zero_mult:
            roots.append(WRoot(Fraction(0), Fraction(0), zero_mult, exact=Fraction(0)))
        roots.sort(key=lambda r: r.hi)
    t = w.transform
    return RootCertificate(e, True, w.on_cl, t.parity, t.half_square, roots, w.in_range)


# ---------------------------------------------------------------------------
# Interlacing on the canonical line
# ---------------------------------------------------------------------------


@dataclass
class InterlaceCertificate:
    """Witness of the weak alternation of two CL root sequences."""

    interlaces: bool
    shared_factor: Poly
    order: list[dict]  # merged root symbols bottom-to-top along the line
    reason: str = ""

    def as_dict(self) -> dict:
        from .polynomial import poly_str

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
    wf, wg = _w_data(f), _w_data(g)
    if wf is None or wg is None or not (wf.on_cl and wg.on_cl):
        raise NotCL("both polynomials must have all roots on the canonical line")

    sf_neg, zf, cf = _split_zero(wf)
    sg_neg, zg, cg = _split_zero(wg)
    ff, fg = _factor_chains(wf), _factor_chains(wg)

    shared = sf_neg.gcd(sg_neg)
    if shared.degree > 0:
        parts = [("shared", shared, None), ("f", sf_neg.divmod(shared)[0], None), ("g", sg_neg.divmod(shared)[0], None)]
    else:
        parts = [("f", sf_neg, cf), ("g", sg_neg, cg)]

    isos: list[tuple[str, Isolation]] = []
    for tag, poly, chain in parts:
        if poly.degree > 0:
            for iso in isolate_real_roots(poly, chain):
                isos.append((tag, iso))
    refine_pairwise_disjoint([iso for _, iso in isos])
    for _, iso in isos:
        iso.refine_below(Fraction(0))
    isos.sort(key=lambda pair: pair[1].lo)

    # multiplicities per source polynomial for each distinct negative w-root
    entries = []
    for tag, iso in isos:
        mf = _factor_at(ff, iso)[0] if tag in ("shared", "f") else 0
        mg = _factor_at(fg, iso)[0] if tag in ("shared", "g") else 0
        entries.append({"lo": iso.lo, "hi": iso.hi, "mf": mf, "mg": mg, "tag": tag})

    m = len(entries)
    center_f = 2 * zf + wf.transform.parity
    center_g = 2 * zg + wg.transform.parity

    # global symbol keys along the line: negatives by w ascending, the center,
    # positives by w descending
    a_keys: list[int] = []
    b_keys: list[int] = []
    order_out = []
    for j, ent in enumerate(entries):
        a_keys += [j] * ent["mf"]
        b_keys += [j] * ent["mg"]
        order_out.append(
            {
                "position": "negative-imaginary",
                "w_lo": fraction_str(ent["lo"]),
                "w_hi": fraction_str(ent["hi"]),
                "in_f": ent["mf"],
                "in_g": ent["mg"],
            }
        )
    a_keys += [m] * center_f
    b_keys += [m] * center_g
    if center_f or center_g:
        order_out.append({"position": "center", "in_f": center_f, "in_g": center_g})
    for j in range(m - 1, -1, -1):
        ent = entries[j]
        a_keys += [2 * m - j] * ent["mf"]
        b_keys += [2 * m - j] * ent["mg"]
        order_out.append(
            {
                "position": "positive-imaginary",
                "w_lo": fraction_str(ent["lo"]),
                "w_hi": fraction_str(ent["hi"]),
                "in_f": ent["mf"],
                "in_g": ent["mg"],
            }
        )

    if len(a_keys) != f.degree or len(b_keys) != g.degree:
        raise RootCheckFailed(
            f"root count mismatch: {len(a_keys)} of {f.degree} roots of f, {len(b_keys)} of {g.degree} of g"
        )
    ok = all(
        a_keys[i] <= b_keys[i] <= a_keys[i + 1] for i in range(len(b_keys))
    )
    reason = "" if ok else "alternation chain broken"
    return InterlaceCertificate(ok, shared, order_out, reason)


# ---------------------------------------------------------------------------
# Rational bounds for reporting imaginary parts
# ---------------------------------------------------------------------------


def sqrt_bounds(q: Fraction, scale: int = 1 << 32) -> tuple[Fraction, Fraction]:
    """Exact rational lo <= sqrt(q) <= hi with lo^2 <= q <= hi^2 verified."""
    if q < 0:
        raise ValueError("negative radicand")
    big = q.numerator * q.denominator * scale * scale
    root = isqrt(big)
    lo = Fraction(root, q.denominator * scale)
    hi = Fraction(root + 1, q.denominator * scale)
    if not lo * lo <= q <= hi * hi:
        raise RootCheckFailed(f"sqrt bounds [{lo}, {hi}] do not bracket sqrt({q})")
    return lo, hi


def imaginary_bounds(w_lo: Fraction, w_hi: Fraction) -> tuple[Fraction, Fraction]:
    """Bounds on the positive imaginary part s = sqrt(-w)/2 for a w-root
    bracketed by (w_lo, w_hi), w_hi <= 0."""
    lo_s, _ = sqrt_bounds(-w_hi)
    _, hi_s = sqrt_bounds(-w_lo)
    return lo_s / 2, hi_s / 2
