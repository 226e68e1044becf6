"""Sturm verdicts, Budan-Fourier isolation, canonical-line certificates,
interlacing."""

import hashlib
import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import fraction_routes as fr
from test_polynomial import _count_fractions
from sepkit.formulas import ehrhart_111n, ehrhart_1mn, ehrhart_22n, ehrhart_bipartite, hstar_tripartite
from sepkit.polynomial import HStar, Poly, _primitive, cross_polynomial, ehrhart_from_hstar
import sepkit.roots as roots
from sepkit.roots import (
    NotCL,
    NotSymmetric,
    RootCheckFailed,
    cl_transform,
    imaginary_bounds,
    interlaces_on_cl,
    is_cl,
    sqrt_bounds,
)

F = Fraction


def ints(p):
    """The primitive integer vector of p: p times a positive constant."""
    return _primitive(list(p.num))


def half_square(t):
    """The H of a CL transform, h / den."""
    return Poly([F(c, t.den) for c in t.h])


def isolate(p):
    """Isolating intervals of the roots of squarefree, real-rooted p, left
    to right."""
    return roots._isolate(ints(p))


def decompose(p):
    """The squarefree decomposition of p: integer factors and multiplicities."""
    a = ints(p)
    return roots._decompose(a, roots._int_gcd(a, [i * c for i, c in enumerate(a)][1:]))


def compose(p, inner):
    """p(inner(x)), by the Fraction route."""
    return Poly(fr.compose(list(p.coeffs), list(inner.coeffs)))


def monic(decomp):
    return [([F(c, f[-1]) for c in f], m) for f, m in decomp]


def count(p, lo, hi):
    """Distinct real roots of squarefree p in (lo, hi], None meaning an
    infinity, read off the variation counts of the rational Sturm chain of
    tests/fraction_routes.py.  With zeros skipped, V(a) - V(b) counts the
    roots in (a, b] even when a or b is a root.  At -inf a member of odd
    degree takes the opposite sign of its leading coefficient."""
    chain = fr.sturm_chain(list(p.coeffs))
    return sturm_variations(chain, lo, -1) - sturm_variations(chain, hi, 1)


def sturm_variations(chain, x, at_inf=1):
    """V(x) of a rational Sturm chain, zeros skipped; x None is at_inf
    times infinity."""
    values = [q[-1] * at_inf ** (len(q) - 1) for q in chain] if x is None else [fr.value(q, x) for q in chain]
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


class TestCLTransform:
    def test_quadratic(self):
        t = cl_transform(Poly((1, 2, 2)))
        assert t.parity == 0 and half_square(t) == Poly((2, 2))

    def test_linear(self):
        t = cl_transform(Poly((1, 2)))
        assert t.parity == 1 and half_square(t).degree == 0

    def test_cross_three(self):
        t = cl_transform(cross_polynomial(3))
        h = half_square(t)
        assert t.parity == 1 and h.degree == 1
        assert -h[0] / h[1] == -5  # root w = -5, so roots -1/2 +- i sqrt(5)/2

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric) as caught:
            cl_transform(Poly((1, 1)))
        assert str(caught.value) == f"{Poly((1, 1))} fails (-1)^d E(x) = E(-1-x)"


class TestSturm:
    def test_examples(self):
        assert count(Poly((1, 1)), None, F(0)) == 1
        assert count(Poly((-1, 0, 1)), None, F(0)) == 1
        assert count(Poly((1, 0, 1)), None, None) == 0

    def test_half_open_endpoints(self):
        p = Poly((-1, 0, 1))  # roots -1, 1
        assert count(p, None, F(-1)) == 1
        assert count(p, F(-1), F(1)) == 1
        assert count(p, F(-1), F(0)) == 0
        assert count(p, F(-2), F(1)) == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_counts_known_roots(self, seed):
        """Referee: polynomials built from distinct rational roots, times a
        quadratic with no real root and a random rational scale, have
        exactly the known number of roots in (lo, hi], with endpoints on the
        roots, between them and at infinity."""
        rnd = random.Random(seed)
        for _ in range(8):
            known = sorted({F(rnd.randint(-40, 40), rnd.randint(1, 9)) for _ in range(rnd.randint(1, 8))})
            p = Poly((rnd.randint(1, 9), rnd.randint(-2, 2), rnd.randint(3, 9)))  # b^2 < 4ac
            for r in known:
                p = p * Poly((-r, 1))
            p = p * F(rnd.choice((-1, 1)) * rnd.randint(1, 50), rnd.randint(1, 50))
            chain = roots._chain(ints(p))
            assert all(type(c) is int for q in chain for c in q)
            assert roots._nonpositive_roots(chain) == sum(1 for r in known if r <= 0)
            between = [known[0] - 1] + [(a + b) / 2 for a, b in zip(known, known[1:])] + [known[-1] + 1]
            points = [None] + sorted(known + between) + [None]
            rational = fr.sturm_chain(list(p.coeffs))
            v = [sturm_variations(rational, x, -1 if i == 0 else 1) for i, x in enumerate(points)]
            for i, lo in enumerate(points[:-1]):
                for j, hi in enumerate(points[i + 1:], i + 1):
                    want = sum(1 for r in known if (lo is None or lo < r) and (hi is None or r <= hi))
                    assert v[i] - v[j] == want

    def test_cauchy_exponent(self):
        """2^e is the least power of two at least 1 + max |a_i| / |lead a|."""
        rnd = random.Random(3)
        vectors = [[0, 1], [4, 4], [-3, 1], [8, 0, -2]]  # bounds 1, 2, 4 and 5
        for _ in range(2000):
            lead = rnd.choice((-1, 1)) * rnd.randint(1, 40)
            vectors.append([rnd.randint(-99, 99) for _ in range(rnd.randint(1, 6))] + [lead])
        for a in vectors:
            bound = 1 + F(max(map(abs, a[:-1])), abs(a[-1]))
            e = roots.cauchy_exponent(a)
            assert 2**e >= bound and (e == 0 or 2 ** (e - 1) < bound), a

    def test_isolation(self):
        p = Poly((-2, 1)) * Poly((1, 1)) * Poly((5, 1))  # roots 2, -1, -5
        isos = isolate(p)
        assert len(isos) == 3
        for iso in isos:
            assert count(p, iso.lo, iso.hi) == 1
        spans = [(iso.lo, iso.hi) for iso in isos]
        assert spans == sorted(spans)

    def test_isolation_of_close_roots(self):
        # 1/1001 and 1/1000 lie about 2^-20 apart; the separation guard
        # lets the bisection go on until they are apart, at width 2^-17
        known = (F(-7, 3), F(1, 1001), F(1, 1000), F(5, 2))
        p = Poly.one()
        for r in known:
            p = p * Poly((-r, 1))
        isos = isolate(p)
        assert [iso.lo < r < iso.hi for iso, r in zip(isos, known)] == [True] * 4
        assert isos[1].hi - isos[1].lo == F(1, 2**17)

    def test_refinement_evaluates_one_sign(self, monkeypatch):
        """A refinement step evaluates only the polynomial, at its split
        point, and the half it keeps still isolates the root."""
        p = [-2, 0, 1]
        iso = roots._isolate(p)[1]  # sqrt(2); no split point is a root
        real_sign, variations = roots._sign, roots._taylor_variations
        calls = []
        monkeypatch.setattr(roots, "_sign", lambda q, a, k: calls.append((q, F(a, 2**k))) or real_sign(q, a, k))
        for _ in range(20):
            lo, hi = iso.lo, iso.hi
            del calls[:]
            iso.bisect()
            assert calls == [(p, (lo + hi) / 2)]
            assert (iso.lo, iso.hi) in ((lo, (lo + hi) / 2), ((lo + hi) / 2, hi))
            assert variations(p, iso.a, iso.k) - variations(p, iso.b, iso.k) == 1
            assert iso.sign_lo == real_sign(p, iso.a, iso.k)
        assert iso.lo ** 2 < 2 < iso.hi ** 2

    def test_isolation_expands_each_split_point_once(self, monkeypatch):
        """The isolation tree reuses the sign of the polynomial that it
        already has at the start and at every split point, and the Taylor
        expansion at every split point: p is never evaluated twice at one
        point, nor expanded twice at one point."""
        p = ints(Poly((-5, 1)) * Poly((1, 1)) * Poly((-1, 3)) * Poly((-2, 1)) * Poly((-9, 4)))
        real_sign, real_variations = roots._sign, roots._taylor_variations
        signs, expansions = [], []
        monkeypatch.setattr(roots, "_sign", lambda q, a, k: signs.append((tuple(q), F(a, 2**k))) or real_sign(q, a, k))
        monkeypatch.setattr(
            roots, "_taylor_variations", lambda q, a, k: expansions.append(F(a, 2**k)) or real_variations(q, a, k)
        )
        isos = roots._isolate(p)
        assert [iso.lo < r < iso.hi for iso, r in zip(isos, (-1, F(1, 3), 2, F(9, 4), 5))] == [True] * 5
        assert len(expansions) > 5  # the tree split several times
        assert len(expansions) == len(set(expansions))
        assert len(signs) == len(set(signs))
        assert set(expansions) <= {x for _, x in signs}  # a split point is first tried by its sign

    def test_lone_factor_evaluates_no_sign(self, monkeypatch):
        """The one factor of a decomposition owns every isolated root."""
        iso = roots._isolate([-2, 0, 1])[1]
        calls = []
        monkeypatch.setattr(roots, "_sign", lambda *a: calls.append(a))
        assert roots._factor_at([([-2, 0, 1], 3)], iso) == (3, None)
        assert roots._factor_at([([-3, 2], 2)], iso) == (2, F(3, 2))
        assert calls == []

    def test_factor_lookup_evaluates_the_ends(self, monkeypatch):
        """With several factors, each factor is evaluated at lo and hi only,
        until one changes sign across the interval."""
        iso = roots._isolate([-2, 0, 1])[1]
        real = roots._sign
        points = []
        monkeypatch.setattr(roots, "_sign", lambda q, a, k: points.append((tuple(q), F(a, 2**k))) or real(q, a, k))
        factors = [([1, 1], 1), ([-25, 0, 1], 2), ([-2, 0, 1], 3), ([5, 1], 4)]
        assert roots._factor_at(factors, iso) == (3, None)
        assert sorted(points) == sorted((tuple(f), x) for f, _ in factors[:3] for x in (iso.lo, iso.hi))

    def test_squarefree_decomposition(self):
        p = Poly((1, 1)) ** 2 * Poly((3, 1)) ** 3 * Poly((0, 1))
        assert {(tuple(f), m) for f, m in monic(decompose(p))} == {
            ((F(0), F(1)), 1),
            ((F(1), F(1)), 2),
            ((F(3), F(1)), 3),
        }


def random_rational(rnd):
    return F(rnd.randint(-40, 40), rnd.randint(1, 9))


def random_polys(seed):
    """Products of rational linear factors, some repeated, times a quadratic
    with no real root and a random rational scale, or plain random
    rational polynomials."""
    rnd = random.Random(seed)
    for _ in range(10):
        p = Poly((rnd.randint(1, 9), rnd.randint(-2, 2), rnd.randint(3, 9)))
        for _ in range(rnd.randint(1, 6)):
            p = p * Poly((-random_rational(rnd), 1)) ** rnd.choice((1, 1, 2, 3))
        yield p * random_rational(rnd) if rnd.random() < 0.9 else p
        yield Poly([random_rational(rnd) for _ in range(rnd.randint(2, 9))] + [F(rnd.randint(1, 9))])


SYMMETRIC = [ehrhart_bipartite(m, n) for m, n in ((1, 1), (2, 3), (4, 4), (5, 9), (12, 13))]
SYMMETRIC += [ehrhart_1mn(3, 8), ehrhart_111n(9), ehrhart_22n(14), cross_polynomial(7), Poly((1, 4, 4)) * 3]


class TestIntegerReferees:
    """The integer paths against the Fraction routes they replaced."""

    def test_cl_transform_against_compose(self):
        rnd = random.Random(11)
        for e in SYMMETRIC:
            t = cl_transform(e)
            assert (t.parity, list(half_square(t).coeffs)) == fr.cl_transform(list(e.coeffs))
        # E(x) = G(2x + 1) with G even or odd is symmetric; most others are not
        for k in range(1, 9):
            g = [random_rational(rnd) if i % 2 == k % 2 else 0 for i in range(k)] + [F(rnd.randint(1, 5))]
            e = compose(Poly(g), Poly((1, 2)))
            t = cl_transform(e)
            assert (t.parity, list(half_square(t).coeffs)) == fr.cl_transform(list(e.coeffs))
            other = e + Poly((0,) * (k - 1) + (1,))
            if fr.is_symmetric(list(other.coeffs)):
                assert cl_transform(other).parity == k & 1
            else:
                with pytest.raises(NotSymmetric):
                    cl_transform(other)

    @pytest.mark.parametrize("seed", range(4))
    def test_sturm_chain_member_by_member(self, seed):
        for p in list(random_polys(seed)) + [half_square(cl_transform(e)) for e in SYMMETRIC]:
            assert roots._chain(ints(p)) == fr.sturm_chain(list(p.coeffs))

    def test_sturm_chain_with_degree_gaps(self):
        # x^n + a x + b: the remainder of p by p' is linear, so the chain
        # skips degrees, and a pseudo-remainder by a member with a negative
        # leading coefficient must still keep every sign
        for n in (4, 5, 6, 7):
            for a, b in ((1, 1), (3, -2), (-1, 5), (F(1, 3), F(-7, 2))):
                p = Poly([b, a] + [0] * (n - 2) + [1])
                assert roots._chain(ints(p)) == fr.sturm_chain(list(p.coeffs))

    @pytest.mark.parametrize("seed", range(4))
    def test_squarefree_decomposition_against_fraction_gcd(self, seed):
        for p in random_polys(seed):
            want = fr.squarefree_decomposition(list(p.coeffs))
            assert monic(decompose(p)) == want


class TestIntegerVerdict:
    """The verdict path builds no Fraction: H stays an integer vector from
    E's numerators through its chain, and the isolation holds its dyadic
    ends as integers."""

    @pytest.mark.parametrize(
        "e,multiplicities",
        [
            pytest.param(ehrhart_bipartite(16, 16), [1], id="16,16"),
            pytest.param(ehrhart_111n(9), [1], id="1,1,1,9"),
            # E(x) = H((2x + 1)^2) with H = (w + 1)^2 (w + 3)
            pytest.param(
                compose(Poly((3, 7, 5, 1)), compose(Poly((0, 0, 1)), Poly((1, 2)))), [1, 2], id="not-squarefree"
            ),
            pytest.param(Poly((1, 1)), None, id="asymmetric"),
        ],
    )
    def test_w_data_builds_no_fraction(self, monkeypatch, e, multiplicities):
        built, w = _count_fractions(monkeypatch, lambda: roots._w_data(e))
        assert built == 0
        if multiplicities is None:
            assert w is None
        else:
            assert w.on_cl and [m for _, m in w.decomp] == multiplicities

    def test_isolation_builds_no_fraction(self, monkeypatch):
        # (w + 1/1000)(w + 3)(w + 5): refining below 0 bisects the interval
        # of -1/1000 many times
        p = ints(Poly((F(1, 1000), 1)) * Poly((3, 1)) * Poly((5, 1)))

        def call():
            isos = roots._isolate(p)
            for iso in isos:
                iso.refine_below_zero()
                iso.refine_to_width(6)
            return [(iso.a, iso.b, iso.k) for iso in isos]

        built, ends = _count_fractions(monkeypatch, call)
        assert built == 0
        assert [F(a, 2**k) < r < F(b, 2**k) <= 0 for (a, b, k), r in zip(ends, (-5, -3, F(-1, 1000)))] == [True] * 3


def wh(e):
    """The H of E, as a Poly."""
    return half_square(cl_transform(e))


def from_half_square(h, parity):
    """E(x) = u^parity H(u^2) with u = 2x + 1."""
    u = Poly((1, 2))
    return compose(h, compose(Poly((0, 0, 1)), u)) * (u if parity else Poly.one())


# H_g = (w + 1)(w + 4) and H_f = (w + 1)(w + 9) share the root w = -1; with
# the center, f's roots -9, -1, 0 then bracket g's -4 and -1 along the line
SHARED_PAIR = (
    from_half_square(Poly((1, 1)) * Poly((4, 1)), 0),
    from_half_square(Poly((1, 1)) * Poly((9, 1)), 1),
)


class TestIsCL:
    def test_on_line(self):
        assert is_cl(Poly((1, 2, 2))).on_cl
        assert is_cl(Poly((1, 1, 1))).on_cl  # roots -1/2 +- i sqrt(3)/2

    def test_symmetric_but_off_line(self):
        cert = is_cl(Poly((-2, 1, 1)))  # (x+2)(x-1)
        assert cert.symmetric and not cert.on_cl

    def test_asymmetric(self):
        cert = is_cl(Poly((1, 1)))
        assert not cert.symmetric and not cert.on_cl

    @pytest.mark.parametrize("n", range(1, 13))
    def test_cross_polytopes(self, n):
        cert = is_cl(ehrhart_bipartite(1, n))
        assert cert.on_cl
        # certificate accounting: every distinct root isolated, all w <= 0,
        # multiplicities summing to half the degree
        assert all(r.hi <= 0 for r in cert.w_roots)
        assert cert.half_square.degree == n // 2
        assert sum(r.multiplicity for r in cert.w_roots) == n // 2

    @pytest.mark.parametrize("m,n", [(2, 4), (3, 5), (2, 7)])
    def test_multiplicity_accounting_bipartite(self, m, n):
        e = ehrhart_bipartite(m, n)
        cert = is_cl(e)
        assert cert.on_cl
        assert sum(r.multiplicity for r in cert.w_roots) == e.degree // 2
        assert all(r.hi <= 0 for r in cert.w_roots)

    def test_certificate_counts_multiplicity(self):
        cert = is_cl(Poly((1, 4, 4)))  # (2x+1)^2
        assert cert.on_cl
        assert [(r.exact, r.multiplicity) for r in cert.w_roots] == [(F(0), 1)]

    def test_root_next_to_the_center(self):
        # H(w) = w (w + 1/1000)^2; the bisection ends the isolating interval
        # of w = -1/1000 at w = 0, the root of the factor w
        h = Poly((0, 1)) * Poly((F(1, 1000), 1)) ** 2
        e = compose(compose(h, Poly((0, 0, 1))), Poly((1, 2)))  # E(x) = H((2x + 1)^2)
        cert = is_cl(e)
        assert cert.on_cl
        assert [(r.exact, r.multiplicity) for r in cert.w_roots] == [(F(-1, 1000), 2), (F(0), 1)]

    def test_certificate_pinned(self):
        assert is_cl(ehrhart_bipartite(5, 5)).as_dict() == {
            "degree": 9,
            "symmetric": True,
            "on_cl": True,
            "parity": 1,
            "half_square": ["245283/1120", "121229/504", "11909/240", "157/56", "79/2016"],
            "w_roots": [
                {"lo": "-3047/64", "hi": "-1523/32", "multiplicity": 1, "exact": None},
                {"lo": "-1079/64", "hi": "-539/32", "multiplicity": 1, "exact": None},
                {"lo": "-379/64", "hi": "-189/32", "multiplicity": 1, "exact": None},
                {"lo": "-19/16", "hi": "-75/64", "multiplicity": 1, "exact": None},
            ],
            "reason": "",
        }

    def test_chains_only_for_the_verdict(self, monkeypatch):
        """The chain of H that tells it is squarefree gives the verdict, and
        the isolation builds no chain: is_cl builds one chain for a
        squarefree H, and interlaces_on_cl builds the two verdict chains
        and, when the squarefree parts share a factor, one gcd of them."""
        built, gcds = [], []
        real_chain, real_gcd = roots._chain, roots._int_gcd
        monkeypatch.setattr(roots, "_chain", lambda a: built.append(a) or real_chain(a))
        monkeypatch.setattr(roots, "_int_gcd", lambda a, b: gcds.append((a, b)) or real_gcd(a, b))
        assert is_cl(ehrhart_bipartite(16, 16)).on_cl
        assert len(built) == 1
        del built[:]
        assert interlaces_on_cl(ehrhart_bipartite(4, 4), ehrhart_bipartite(4, 5)).interlaces
        assert len(built) == 2
        del built[:], gcds[:]
        g, f = SHARED_PAIR
        cert = interlaces_on_cl(g, f)
        assert cert.interlaces and cert.shared_factor == Poly((1, 1))
        assert len(built) == 2
        # the decomposition of a squarefree H takes its gcd with a constant
        assert [(a, b) for a, b in gcds if len(a) > 1 and len(b) > 1] == [(ints(wh(f)), ints(wh(g)))]

    def test_serialization_round_trips(self):
        cert = is_cl(ehrhart_bipartite(2, 3))
        blob = json.dumps(cert.as_dict())
        assert json.loads(blob)["on_cl"] is True


class TestInterlacing:
    def test_base_example(self):
        cert = interlaces_on_cl(Poly((1, 2)), Poly((1, 2, 2)))
        assert cert.interlaces

    def test_chain_example(self):
        cert = interlaces_on_cl(Poly((1, 2, 2)), cross_polynomial(3))
        assert cert.interlaces

    def test_shared_root(self):
        cert = interlaces_on_cl(Poly((1, 2)), Poly((1, 4, 4)))
        assert cert.interlaces
        assert cert.shared_factor.degree == 0  # sharing happens at the center

    def test_degree_gate(self):
        with pytest.raises(NotCL):
            interlaces_on_cl(Poly((1, 2)), Poly((1, 0, 0, 4)))

    def test_non_cl_gate(self):
        with pytest.raises(NotCL):
            interlaces_on_cl(Poly((-2, 1, 1)), cross_polynomial(3))

    def test_asymmetric_gate(self):
        with pytest.raises(NotCL):
            interlaces_on_cl(Poly((1, 1)), Poly((1, 2, 2)))
        with pytest.raises(NotCL):
            interlaces_on_cl(Poly((1, 2)), Poly((1, 2, 3)))

    def test_certificate_pinned(self):
        def neg(w_lo, w_hi, in_f, in_g):
            return {"position": "negative-imaginary", "w_lo": w_lo, "w_hi": w_hi, "in_f": in_f, "in_g": in_g}

        brackets = [
            ("-64", "-32", 1, 0),
            ("-32", "-16", 0, 1),
            ("-16", "-8", 1, 0),
            ("-8", "-4", 0, 1),
            ("-4", "-2", 1, 0),
            ("-2", "-1", 0, 1),
            ("-1", "0", 1, 0),
        ]
        below = [neg(*b) for b in brackets]
        above = [dict(entry, position="positive-imaginary") for entry in reversed(below)]
        center = {"position": "center", "in_f": 0, "in_g": 1}
        assert interlaces_on_cl(ehrhart_bipartite(4, 4), ehrhart_bipartite(4, 5)).as_dict() == {
            "interlaces": True,
            "shared_factor": ["1"],
            "order": below + [center] + above,
            "reason": "",
        }

    def test_non_interlacing_pair(self):
        # f's extreme roots must bracket g's; here they nest instead:
        # the w-root of the Ehrhart polynomial of h* = (1,b,1) is (b-6)/(b+2),
        # so b_f = 5 (w = -1/7) sits inside b_g = 1 (w = -5/3)
        f = Poly((1, 2)) * ehrhart_from_hstar(HStar((1, 5, 1), 2))
        g = ehrhart_from_hstar(HStar((1, 1, 1), 2))
        assert is_cl(f).on_cl and is_cl(g).on_cl
        cert = interlaces_on_cl(g, f)
        assert not cert.interlaces and cert.reason

    @pytest.mark.parametrize("n", range(1, 9))
    def test_ones_chain(self, n):
        assert interlaces_on_cl(ehrhart_bipartite(1, n), ehrhart_bipartite(1, n + 1)).interlaces
        assert interlaces_on_cl(ehrhart_bipartite(1, n), ehrhart_1mn(1, n)).interlaces


def sweep():
    """is_cl inputs: closed-form families and three made-up polynomials (H
    with a repeated root, with a root at the center, and with a double root
    at w = -1/1000 next to it); interlaces_on_cl inputs: the four chains the
    benchmark certifies, as (g, f) pairs."""
    polys = [ehrhart_bipartite(m, n) for m in range(1, 11) for n in range(m, 21 - m)]
    polys += [ehrhart_1mn(m, n) for m in range(1, 5) for n in range(m, 9)]
    polys += [ehrhart_111n(n) for n in range(1, 9)] + [ehrhart_22n(n) for n in range(1, 9)]
    polys += [
        ehrhart_from_hstar(hstar_tripartite(a, b, c))
        for a in range(1, 4)
        for b in range(a, 5)
        for c in range(b, 6)
    ]
    w, u2 = Poly((0, 1)), compose(Poly((0, 0, 1)), Poly((1, 2)))  # u^2 = (2x + 1)^2
    for h in (Poly((1, 1)) ** 2 * Poly((3, 1)), w * Poly((4, 1)) ** 2, w * Poly((F(1, 1000), 1)) ** 2):
        polys.append(compose(h, u2))  # E(x) = H((2x + 1)^2)
    pairs = []
    for n in range(1, 11):
        pairs += [
            (ehrhart_bipartite(1, n), ehrhart_1mn(1, n)),
            (ehrhart_1mn(1, n), ehrhart_111n(n)),
            (ehrhart_1mn(1, n), ehrhart_1mn(1, n + 1)),
        ]
    pairs += [(ehrhart_bipartite(n, n), ehrhart_bipartite(n, n + 1)) for n in range(1, 9)]
    return polys, pairs


class TestSweepDigest:
    # sha256 of the certificates' JSON, taken when the brackets became
    # dyadic; TestBracketReferee checks them independently
    DIGEST = "51278746553e8b79e03eb30a2226131a890666198bd516d30aef7f83f062f72e"

    def test_certificates_unchanged(self):
        """is_cl and interlaces_on_cl over the sweep, byte for byte."""
        polys, pairs = sweep()
        certs = [is_cl(e).as_dict() for e in polys] + [interlaces_on_cl(g, f).as_dict() for g, f in pairs]
        assert (len(polys), len(pairs)) == (173, 38)
        assert hashlib.sha256(json.dumps(certs).encode()).hexdigest() == self.DIGEST


class TestCertificatePins:
    """sha256 of the certificates' JSON beyond the sweep, taken before the
    isolation knew the root disc: the 100-vertex K_{1,99}, K_{30,30}, and
    one large pair of the K_{m,m} < K_{m,m+1} ladder."""

    @staticmethod
    def digest(cert):
        return hashlib.sha256(json.dumps(cert.as_dict()).encode()).hexdigest()

    def test_is_cl_1_99(self):
        assert self.digest(is_cl(ehrhart_bipartite(1, 99))) == (
            "2e7a5cfa564e77e53162d2f3ed74743aacadebddb5a408d25cea08ed0d3fda5e"
        )

    def test_is_cl_30_30(self):
        assert self.digest(is_cl(ehrhart_bipartite(30, 30))) == (
            "6c656519ef540feb05a48db38d170271c0ec23b3e04d35ad72ae7e675b8f2719"
        )

    def test_interlace_30_30_in_30_31(self):
        assert self.digest(interlaces_on_cl(ehrhart_bipartite(30, 30), ehrhart_bipartite(30, 31))) == (
            "f8b8d8875f1fe904dd7cee9d6c4a03710f02950642cf0a4218f5339643d78d02"
        )


def squarefree_chain(h):
    """The rational Sturm chain of the squarefree part of H, whose gcd with
    H' is the last member of H's own chain."""
    chain = fr.sturm_chain(h)
    if len(chain[-1]) == 1:
        return chain
    part, rem = fr.divmod_(h, chain[-1])
    assert rem == []
    return fr.sturm_chain(part)


def dyadic(x):
    return x.denominator & (x.denominator - 1) == 0


class TestBracketReferee:
    """The brackets against the rational Sturm chain of tests/fraction_routes.py:
    each holds exactly one root of the squarefree part of H, the brackets of
    one certificate are pairwise disjoint, and every end is dyadic."""

    def check_is_cl(self, e):
        cert = is_cl(e)
        if not cert.on_cl:
            return 0
        chain = squarefree_chain(list(cert.half_square.coeffs))
        brackets = sorted((r.lo, r.hi) for r in cert.w_roots)
        assert all(hi <= lo for (_, hi), (lo, _) in zip(brackets, brackets[1:]))
        inexact = [(r.lo, r.hi) for r in cert.w_roots if r.exact is None]
        for lo, hi in inexact:
            assert lo < hi <= 0 and dyadic(lo) and dyadic(hi)
            assert fr.roots_between(chain, lo, hi) == 1
        return len(inexact)

    def check_interlacing(self, g, f):
        chains = [squarefree_chain(list(is_cl(e).half_square.coeffs)) for e in (f, g)]
        brackets = [
            (F(entry["w_lo"]), F(entry["w_hi"]), entry["in_f"], entry["in_g"])
            for entry in interlaces_on_cl(g, f).as_dict()["order"]
            if entry["position"] == "negative-imaginary"
        ]
        assert all(hi <= lo for (_, hi, *_), (lo, *_) in zip(brackets, brackets[1:]))
        for lo, hi, *mults in brackets:
            assert lo < hi <= 0 and dyadic(lo) and dyadic(hi)
            assert [fr.roots_between(chain, lo, hi) for chain in chains] == [min(m, 1) for m in mults]
        return len(brackets)

    def test_sweep(self):
        polys, pairs = sweep()
        assert sum(self.check_is_cl(e) for e in polys) == 842
        assert sum(self.check_interlacing(g, f) for g, f in pairs) == 249

    def test_large_bipartite(self):
        assert self.check_is_cl(ehrhart_bipartite(40, 40)) == 39


def cl_certify_families():
    """Every Ehrhart polynomial the benchmark's cl-certify workload can
    draw: K_{m,m}, K_{a,b} with a + b = 25 or 27 and a >= 6, K_{a,b,c} with
    a + b + c = 12 or 15, K_{1,m,n} with m + n = 16 or 20, K_{1,1,1,n} and
    K_{2,2,n} with n = 12 or 16."""
    polys = [ehrhart_bipartite(m, m) for m in (10, 12, 14, 16)]
    polys += [ehrhart_bipartite(a, s - a) for s in (25, 27) for a in range(6, s // 2 + 1)]
    polys += [
        ehrhart_from_hstar(hstar_tripartite(a, b, s - a - b))
        for s in (12, 15)
        for a in range(1, s // 3 + 1)
        for b in range(a, (s - a) // 2 + 1)
    ]
    polys += [ehrhart_1mn(m, s - m) for s in (16, 20) for m in range(1, s // 2 + 1)]
    return polys + [ehrhart_111n(n) for n in (12, 16)] + [ehrhart_22n(n) for n in (12, 16)]


class TestBudanFourierReferee:
    """The isolation's Budan-Fourier counts against Sturm counts on the
    rational chain of tests/fraction_routes.py, for the squarefree part of
    every H that is on the line in the sweep and the cl-certify families:
    V(x) - V(y) counts the roots in (x, y] both ways, at seeded random
    dyadic points x < y inside the Cauchy bound, at 0 and at its ends."""

    def test_counts_equal_sturm_counts(self):
        polys, pairs = sweep()
        parts = {}
        for e in polys + [e for pair in pairs for e in pair] + cl_certify_families():
            w = roots._w_data(e)
            if w.on_cl and len(w.part) > 1:
                parts[tuple(w.part)] = None
        rnd = random.Random(27)
        checked = 0
        for part in parts:
            p = list(part)
            chain = fr.sturm_chain([F(c) for c in p])
            e = roots.cauchy_exponent(p)
            points = {(0, 0), (-1 << e, 0), (1 << e, 0)}
            for _ in range(6):
                k = rnd.randint(0, 12)
                points.add((rnd.randint(-1 << (e + k), 1 << (e + k)), k))
            points = sorted(points, key=lambda x: F(x[0], 2 ** x[1]))
            bf = [roots._taylor_variations(p, a, k) for a, k in points]
            sturm = [sturm_variations(chain, F(a, 2**k)) for a, k in points]
            assert (bf[0], bf[-1]) == (len(p) - 1, 0)
            for i in range(len(points)):
                for j in range(i + 1, len(points)):
                    assert bf[i] - bf[j] == sturm[i] - sturm[j], (p, points[i], points[j])
                    checked += 1
        assert len(parts) > 200 and checked > 20 * len(parts)


def disc_holds(a, r):
    """|lead a| 2^(r n) > sum_(i<n) |a_i| 2^(r i), n = deg a."""
    n = len(a) - 1
    return abs(a[-1]) * 2 ** (r * n) > sum(abs(c) * 2 ** (r * i) for i, c in enumerate(a[:-1]))


def isolation_inputs():
    """Every vector that is_cl and interlaces_on_cl isolate over the sweep
    and the cl-certify families, in call order, without repeats."""
    polys, pairs = sweep()
    inputs = {}
    real = roots._isolate
    roots._isolate = lambda p: inputs.setdefault(tuple(p)) or real(p)
    try:
        for e in polys + cl_certify_families():
            is_cl(e)
        for g, f in pairs:
            interlaces_on_cl(g, f)
    finally:
        roots._isolate = real
    return [list(p) for p in inputs]


class TestRootDisc:
    """Outside the disc |z| < 2^r, r = disc_exponent(p), the isolation
    knows V and the sign of p without computing them."""

    def test_disc_exponent(self):
        """r is the least exponent of the disc inequality, at most the
        Cauchy exponent, and at +-2^r V is deg p and 0, also for vectors
        that are not real-rooted."""
        rnd = random.Random(31)
        vectors = [[0, 1], [5, 0, 1], [-2, 0, 1], [1, 0, 0, 0, 0, 0, 0, 1]]
        for _ in range(2000):
            lead = rnd.choice((-1, 1)) * rnd.randint(1, 40)
            big = rnd.choice((9, 99, 10**6))
            vectors.append([rnd.randint(-big, big) for _ in range(rnd.randint(1, 9))] + [lead])
        polys, pairs = sweep()
        for e in polys + [e for pair in pairs for e in pair]:
            w = roots._w_data(e)
            vectors += [v for v in (list(w.transform.h), w.part) if len(v) > 1]
        assert len(vectors) > 2300
        for a in vectors:
            r = roots.disc_exponent(a)
            assert r <= roots.cauchy_exponent(a), a
            assert disc_holds(a, r) and (r == 0 or not disc_holds(a, r - 1)), a
            assert roots._taylor_variations(a, -1 << r, 0) == len(a) - 1, a
            assert roots._taylor_variations(a, 1 << r, 0) == 0, a

    def test_shortcut_against_the_old_walk(self, monkeypatch):
        """With the disc exponent raised to the Cauchy exponent no split
        point lies outside the disc, so the walk computes every sign and V,
        as it did before the disc; both give the same intervals.  No sign or
        V is computed at a point outside the disc."""
        inputs = isolation_inputs()
        assert len(inputs) > 200
        real_sign, real_variations = roots._sign, roots._taylor_variations
        points = []
        monkeypatch.setattr(roots, "_sign", lambda q, a, k: points.append((a, k)) or real_sign(q, a, k))
        monkeypatch.setattr(
            roots, "_taylor_variations", lambda q, a, k: points.append((a, k)) or real_variations(q, a, k)
        )
        fast, computed = [], 0
        for p in inputs:
            del points[:]
            fast.append([(iso.a, iso.b, iso.k, iso.sign_lo) for iso in roots._isolate(p)])
            r = roots.disc_exponent(p)
            assert all(abs(a) < 1 << (k + r) for a, k in points), p
            computed += len(points)
        del points[:]
        monkeypatch.setattr(roots, "disc_exponent", roots.cauchy_exponent)
        old = [[(iso.a, iso.b, iso.k, iso.sign_lo) for iso in roots._isolate(p)] for p in inputs]
        assert fast == old
        assert 2 * computed < len(points)  # the disc saves most of the walk

    def test_k16_expansions(self, monkeypatch):
        """The roots of the squarefree part of H(K_{16,16}) lie inside 2^12,
        its Cauchy bound is 2^87: 19 expansions, one per split point."""
        p, _ = roots._split_zero(roots._w_data(ehrhart_bipartite(16, 16)))
        assert (roots.cauchy_exponent(p), roots.disc_exponent(p)) == (87, 12)
        real = roots._taylor_variations
        expansions = []
        monkeypatch.setattr(roots, "_taylor_variations", lambda q, a, k: expansions.append((a, k)) or real(q, a, k))
        assert len(roots._isolate(p)) == len(p) - 1
        assert len(expansions) == 19


class TestBounds:
    def test_sqrt_bounds(self):
        lo, hi = sqrt_bounds(F(3))
        assert lo * lo <= 3 <= hi * hi and hi - lo < F(1, 10**6)

    def test_imaginary_bounds(self):
        lo, hi = imaginary_bounds(F(-4), F(-1))
        assert lo <= F(1, 2) and hi >= 1


class TestInvariantChecks:
    """Each exact invariant raises when the failure is injected."""

    def test_transform_parity(self, monkeypatch):
        monkeypatch.setattr(roots, "_even_or_odd", lambda f: True)
        with pytest.raises(RootCheckFailed, match="even polynomial"):
            cl_transform(Poly((1, 0, 1)))

    def test_transform_degree(self):
        # a stand-in for E = 1 + 2x with numerators padded to degree 3:
        # F = 8 E((u-1)/2) is odd, but its u^3 coefficient vanishes
        padded = SimpleNamespace(num=(1, 2, 0, 0), den=1)
        with pytest.raises(RootCheckFailed, match="H has degree 0, expected 1"):
            cl_transform(padded)

    def test_isolation_split_point(self, monkeypatch):
        # the search starts at (-1, 1); roots at -1 + 2/2^j, j = 1..6
        p = Poly.one()
        for j in range(1, 7):
            p = p * Poly((1 - F(2, 2**j), 1))
        monkeypatch.setattr(roots, "cauchy_exponent", lambda q: 0)
        with pytest.raises(RootCheckFailed, match="no split point"):
            isolate(p)

    def test_bisection_split_point(self):
        # roots at every candidate split point 1/2^j, j = 1..6, of (0, 1)
        p = Poly.one()
        for j in range(1, 7):
            p = p * Poly((-F(1, 2**j), 1))
        iso = roots.Isolation(0, 1, 0, 1, ints(p))
        with pytest.raises(RootCheckFailed, match="no split point"):
            iso.bisect()

    def test_isolation_end_signs(self, monkeypatch):
        # (x - 1)^2 on (-4, 4), split at 0: a count of one root in (-4, 0],
        # where the polynomial is positive at both ends
        monkeypatch.setattr(roots, "_taylor_variations", lambda p, a, k: 1)
        with pytest.raises(RootCheckFailed, match="signs 1 and 1 at the ends"):
            roots._isolate([1, -2, 1])

    @pytest.mark.parametrize(
        "p",
        [
            pytest.param([1, 0, 1], id="x^2+1"),
            pytest.param([2, -3, 0, 1], id="(x-1)^2(x+2)"),
            pytest.param(ints(Poly((1, 1)) * Poly((3, 1, 1)) * Poly((-2, 1)) ** 3), id="complex-pair-and-triple-root"),
        ],
    )
    def test_isolation_needs_squarefree_real_roots(self, p):
        # Budan-Fourier overcounts near a complex pair or a repeated root;
        # the separation bound ends the bisection there
        with pytest.raises(RootCheckFailed, match="is not squarefree and real-rooted"):
            roots._isolate(p)

    def test_isolation_root_count(self, monkeypatch):
        # x^2 - 2 with the counts and signs of a polynomial that has three
        # roots in (0, 4): three isolating intervals for two roots.  Such a
        # polynomial has its roots in a disc wider than that of x^2 - 2,
        # radius 2, so the disc grows to the start (-4, 4) of the search
        variations = {F(0): 3, F(2): 2, F(3): 1}
        signs = {F(-4): 1, F(0): -1, F(2): 1, F(3): -1, F(4): 1}
        monkeypatch.setattr(roots, "disc_exponent", roots.cauchy_exponent)
        monkeypatch.setattr(roots, "_taylor_variations", lambda p, a, k: variations[F(a, 2**k)])
        monkeypatch.setattr(roots, "_sign", lambda p, a, k: signs[F(a, 2**k)])
        with pytest.raises(RootCheckFailed, match="3 isolating intervals for the 2 roots"):
            roots._isolate([-2, 0, 1])

    def test_isolation_wrong_disc(self, monkeypatch):
        # a disc of radius 1 for the roots -3, -5, -7: the walk takes V = 3
        # at -64, -32, ..., -1 and computes V(-1/2) = 0, so (-1, -1/2) seems
        # to hold all three roots until it is narrower than their separation
        monkeypatch.setattr(roots, "disc_exponent", lambda q: 0)
        with pytest.raises(RootCheckFailed, match="is not squarefree and real-rooted"):
            isolate(Poly((3, 1)) * Poly((5, 1)) * Poly((7, 1)))

    def test_factor_lookup(self):
        factors = decompose(Poly((2, 1)) * Poly((3, 1)) ** 2)  # roots -2, -3
        lookup = [roots._factor_at(factors, iso) for iso in isolate(Poly((6, 5, 1)))]
        assert lookup == [(2, F(-3)), (1, F(-2))]
        other = roots.Isolation(-3, -1, 1, -1, [1, 1])  # (-3/2, -1/2) holds the root -1
        with pytest.raises(RootCheckFailed, match="missing from the decomposition"):
            roots._factor_at(factors, other)

    def test_interlace_root_count(self, monkeypatch):
        g, f = ehrhart_bipartite(1, 4), ehrhart_bipartite(1, 5)
        assert interlaces_on_cl(g, f).interlaces
        monkeypatch.setattr(roots, "_factor_at", lambda factors, iso: (0, None))
        with pytest.raises(RootCheckFailed, match="root count mismatch"):
            interlaces_on_cl(g, f)

    def test_sqrt_bounds_bracket(self, monkeypatch):
        real_isqrt = roots.isqrt
        monkeypatch.setattr(roots, "isqrt", lambda x: real_isqrt(x) - 2)
        with pytest.raises(RootCheckFailed, match="do not bracket"):
            sqrt_bounds(F(2))
