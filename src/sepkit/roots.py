"""Certified root location on the canonical line Re(z) = -1/2 and certified
interlacing, by exact Sturm-sequence root isolation.

For a symmetric Ehrhart polynomial E of degree d (meaning
(-1)^d E(x) = E(-1-x)), the substitution u = 2x + 1 gives
F(u) = 2^d E((u-1)/2) with F(-u) = (-1)^d F(u), so F = u^(d mod 2) H(u^2)
for a polynomial H of degree floor(d/2).  The roots of E lie on the
canonical line exactly when every root of H is real and nonpositive, which
Sturm counting certifies without any floating point.

There is one Sturm chain, over the integers: every member is scaled to its
primitive integer part, which keeps its signs.  Signs at a rational point
a/b are signs of integers, b^deg q(a/b) by homogeneous Horner, and the
exact-zero tests of the isolation evaluate the chain's first member the
same way.  Each polynomial's transform, squarefree decomposition and
verdict are computed once per certificate, and each factor's chain once.

Roots on the line are ordered by imaginary part.  A root of E at
-1/2 + i s corresponds to w = u^2 = -4 s^2, so comparisons of imaginary
parts reduce to exact comparisons of w-roots, performed on isolating
intervals refined until pairwise disjoint (shared roots are split off
through a gcd first).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import NamedTuple, Optional

from .polynomial import Poly, fraction_str, is_symmetric_about_cl


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


def cl_transform(e: Poly) -> CLTransform:
    """Compute F(u) = 2^d E((u-1)/2), strip u^parity, decompress u^2 -> w."""
    if e.is_zero():
        raise ValueError("zero polynomial")
    if not is_symmetric_about_cl(e):
        raise NotSymmetric(f"{e} fails (-1)^d E(x) = E(-1-x)")
    d = e.degree
    f = Fraction(2) ** d * e.compose(Poly((Fraction(-1, 2), Fraction(1, 2))))
    parity = d & 1
    coeffs = list(f.coeffs)
    # F is u^parity times an even polynomial; the symmetry guarantees the
    # complementary coefficients vanish.
    if any(coeffs[i] for i in range(1 - parity, len(coeffs), 2)):
        raise RootCheckFailed(f"2^d E((u-1)/2) of {e} is not u^{parity} times an even polynomial")
    h = Poly(coeffs[parity::2])
    if h.degree != d // 2:
        raise RootCheckFailed(f"H has degree {h.degree}, expected {d // 2}")
    return CLTransform(e, parity, h)


# ---------------------------------------------------------------------------
# Sturm machinery
# ---------------------------------------------------------------------------


def _primitive_int(p: Poly) -> Poly:
    """Scale a rational polynomial by a positive constant to a primitive
    integer polynomial (content 1, same sign pattern)."""
    if p.is_zero():
        return p
    denom = lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * denom) for c in p.coeffs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return Poly([v // g for v in ints])


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm chain p, p', -rem(...), ... of squarefree p over the integers:
    each member is replaced by its primitive part.  A positive scale keeps
    every sign, so the variation counts are those of the rational chain."""
    chain = [_primitive_int(p), _primitive_int(p.derivative())]
    while not chain[-1].is_zero():
        chain.append(_primitive_int(-(chain[-2] % chain[-1])))
    chain.pop()
    return chain


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


def isolate_real_roots(p: Poly) -> list[Isolation]:
    """Disjoint isolating intervals for all real roots of squarefree p,
    sorted left to right."""
    if p.degree <= 0:
        return []
    chain = sturm_chain(p)
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
    """[(f_i, i)] with p = c * prod f_i^i, the f_i squarefree and coprime."""
    out = []
    i = 1
    g = p.gcd(p.derivative())
    w = p.divmod(g)[0]  # product of distinct factors
    while w.degree > 0:
        y = w.gcd(g)
        fi = w.divmod(y)[0]
        if fi.degree > 0:
            out.append((fi.monic(), i))
        w = y
        g = g.divmod(y)[0]
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
    in_range: int  # distinct roots of H in (-inf, 0]

    @property
    def on_cl(self) -> bool:
        return self.in_range == self.squarefree.degree


def _w_data(e: Poly) -> Optional[_WData]:
    """The CL transform of E and what both certificates read off H, or None
    when E lacks the symmetry equation."""
    try:
        t = cl_transform(e)
    except NotSymmetric:
        return None
    decomp = squarefree_decomposition(t.half_square)
    s = Poly.one()
    for f, _ in decomp:
        s = s * f
    return _WData(t, decomp, s, sturm_count(s, None, Fraction(0)))


def _split_zero(s: Poly, decomp: list[tuple[Poly, int]]) -> tuple[Poly, int]:
    """The squarefree part without its root w = 0 (the line's center), and
    that root's multiplicity in H (0 when w = 0 is no root)."""
    if s[0] != 0:
        return s, 0
    return Poly(s.coeffs[1:]), next(m for f, m in decomp if f[0] == 0)


def _factor_chains(decomp: list[tuple[Poly, int]]) -> list[tuple[Poly, int, list[Poly]]]:
    return [(f, m, sturm_chain(f)) for f, m in decomp]


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
        s_neg, zero_mult = _split_zero(w.squarefree, w.decomp)
        factors = _factor_chains(w.decomp)
        isos = isolate_real_roots(s_neg)
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

    sf_neg, zf = _split_zero(wf.squarefree, wf.decomp)
    sg_neg, zg = _split_zero(wg.squarefree, wg.decomp)
    ff, fg = _factor_chains(wf.decomp), _factor_chains(wg.decomp)

    shared = sf_neg.gcd(sg_neg)
    f_only = sf_neg.divmod(shared)[0] if shared.degree > 0 else sf_neg
    g_only = sg_neg.divmod(shared)[0] if shared.degree > 0 else sg_neg

    isos: list[tuple[str, Isolation]] = []
    for tag, poly in (("shared", shared), ("f", f_only), ("g", g_only)):
        if poly.degree > 0:
            for iso in isolate_real_roots(poly):
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
