"""Exact polynomial arithmetic and the Ehrhart-side conversions."""

import gc
import random
import sys
from fractions import Fraction
from itertools import islice
from math import comb, factorial

import pytest

import fraction_routes as fr
from sepkit.counting import hstar_oracle
from sepkit.formulas import closed_form_hstar, ehrhart_bipartite, hstar_111n, hstar_1mn, hstar_22n, hstar_bipartite, hstar_tripartite
from sepkit.graphs import Signature
from sepkit.polynomial import (
    HStar,
    InvalidHStar,
    NegativeHStar,
    NonIntegerCount,
    NotPalindromic,
    ONE_PLUS_T,
    Poly,
    TWO_X_PLUS_1,
    _falling,
    _pseudo_divmod,
    _sturm_prs,
    cross_coefficients,
    cross_polynomial,
    cross_recombine,
    ehrhart_from_hstar,
    fraction_str,
    gamma_expand,
    gamma_of_palindromic,
    gamma_vector,
    gammalemma_check,
    hstar_from_ehrhart,
    series_numerator,
)
import sepkit.roots as roots
from sepkit.roots import NotSymmetric, cl_transform
from sepkit.triangulation import hstar_split_by_facet_type, hstar_triangulation


def symmetric(e):
    """Whether cl_transform accepts E: it raises NotSymmetric exactly when
    (-1)^deg(E) E(x) = E(-1-x) fails."""
    try:
        cl_transform(e)
    except NotSymmetric:
        return False
    return True


class TestPolyCore:
    def test_arithmetic_and_normalization(self):
        p = Poly((1, 2, 0, 0))
        assert p.degree == 1
        assert p + Poly((0, -2)) == Poly((1,))
        assert Poly((1, 1)) * Poly((1, -1)) == Poly((1, 0, -1))
        assert (Poly((1, 1)) ** 3)[2] == 3
        assert Poly((2, 4)) / 2 == Poly((1, 2))

    def test_divmod_and_gcd(self):
        """Division and gcds run on integer vectors: pseudo-division, and the
        primitive remainder sequence, which ends in the gcd up to a constant."""
        a = [0, 2, 3, 1]  # x (x + 1) (x + 2)
        assert _pseudo_divmod(a, [1, 1]) == ([0, 2, 1], [], 1)
        assert _pseudo_divmod(a, [2, 3]) == ([4, 21, 9], [-8], 27)  # 27 a = (9x^2 + 21x + 4)(3x + 2) - 8
        assert _sturm_prs(a, [5, 6, 1])[-1] == [-1, -1]  # against (x + 1)(x + 5)

    def test_compose_and_eval(self):
        p = Poly((1, 0, 1))  # 1 + x^2
        assert p(Fraction(1, 2)) == Fraction(5, 4)

    def test_operations_park_no_tuples(self):
        """Results are not built through a throwaway `tuple(<generator>)`:
        CPython grows such a tuple by resizing, so freeing it parks it on the
        free list for its size until a full collection (about 4,000 blocks
        here)."""
        p = Poly((1, 2, 3, 4, 5, 6, 7))

        def rounds(n):
            for _ in range(n):
                p + p, -p, p * 3, p / 3, Poly(fr.derivative(p.coeffs))

        rounds(10)
        gc.collect()  # a full collection empties the free lists
        before = sys.getallocatedblocks()
        rounds(3000)
        assert sys.getallocatedblocks() - before < 500

    def test_immutability(self):
        p = Poly((1, 2))
        with pytest.raises(AttributeError):
            p.coeffs = ()

    def test_iteration_ends(self):
        """Iteration runs over the coefficients; `__getitem__` alone, which
        reads 0 past the end, would make it endless."""
        p = Poly((1, 2))
        assert list(islice(iter(p), 5)) == [1, 2]

    def test_canonical_form(self):
        """Integer numerators over the least positive denominator, so equal
        polynomials hold equal integers and hash alike."""
        p = Poly((Fraction(1, 2), Fraction(1, 3)))
        assert (p.num, p.den) == ((3, 2), 6)
        assert (Poly.zero().num, Poly.zero().den) == ((), 1)
        assert (Poly((4, 0)) * 0).den == 1
        q = p / -3
        assert (q.num, q.den) == ((-3, -2), 18) and q.coeffs == (Fraction(-1, 6), Fraction(-1, 9))
        assert Poly.over((6, 4, 0), -12) == Poly((Fraction(-1, 2), Fraction(-1, 3)))
        with pytest.raises(ZeroDivisionError):
            p / 0
        routes = [
            p,
            Poly.over((9, 6), 18),
            Poly((1, 0, 1)) * p - Poly((0, 0, Fraction(1, 2), Fraction(1, 3))),
            (Poly((3, 2)) * Poly((1, 1)) - Poly((0, 3, 2))) / 6,
        ]
        assert {(r.num, r.den) for r in routes} == {((3, 2), 6)}
        assert {hash(r) for r in routes} == {hash(p)}


class TestHStarValidation:
    """Each invariant raises InvalidHStar with its own message."""

    @staticmethod
    def _message(coeffs, dim):
        with pytest.raises(InvalidHStar) as err:
            HStar(coeffs, dim)
        return str(err.value)

    def test_rejects_negative(self):
        assert self._message((1, -1), 1) == "h* coefficient -1 is not a nonnegative integer"

    def test_rejects_non_integer(self):
        assert self._message((1, Fraction(1, 2)), 1) == "h* coefficient 1/2 is not a nonnegative integer"

    def test_rejects_non_unit_constant(self):
        assert self._message((2, 1), 1) == "h* constant term must be 1"

    def test_rejects_degree_overflow(self):
        assert self._message((1, 1, 1), 1) == "h* degree 2 exceeds dim 1"


def _count_fractions(monkeypatch, call):
    """The number of Fractions that call() builds, and its result."""
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    call()  # imports and first-use set-up are not counted
    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", counting_new)
        result = call()
    return len(built), result


def _is_integral(h):
    return len(h.coefficients) == h.dim + 1 and all(type(c) is int for c in h.coefficients)


@pytest.mark.parametrize(
    "call",
    [
        lambda: roots._w_data(ehrhart_bipartite(30, 30)),
        lambda: cl_transform(ehrhart_from_hstar(closed_form_hstar(Signature((3, 4, 5))))),
        lambda: hstar_split_by_facet_type(Signature((1, 1, 2, 3))),
    ],
    ids=["w_data 30,30", "cl_transform 3,4,5", "facet split 1,1,2,3"],
)
def test_poly_routes_build_no_fraction(monkeypatch, call):
    """A Poly is built, combined and transformed on its integer numerators."""
    assert _count_fractions(monkeypatch, call)[0] == 0


class TestIntegerHStar:
    def test_pads_and_stores_ints(self):
        h = HStar((Fraction(1), Fraction(4, 1), 1), 4)
        assert h.coefficients == (1, 4, 1, 0, 0) and _is_integral(h)
        assert h == HStar([1, 4, 1], 4) and hash(h) == hash(HStar([1, 4, 1], 4))
        assert h != HStar((1, 4, 1), 2)
        assert str(h) == "1,4,1,0,0"
        assert HStar(Poly((1, 4, 1)), 2) == HStar((1, 4, 1), 2)

    @pytest.mark.parametrize(
        "name,call",
        [
            ("oracle", lambda: hstar_oracle(Signature((2, 2, 1)))),
            ("triangulation", lambda: hstar_triangulation(Signature((2, 2, 1)))),
            ("bipartite", lambda: hstar_bipartite(3, 4)),
            ("1mn", lambda: hstar_1mn(2, 3)),
            ("22n", lambda: hstar_22n(3)),
            ("closed form", lambda: closed_form_hstar(Signature((2, 2, 1)))),
            ("tripartite", lambda: hstar_tripartite(2, 2, 1)),
        ],
    )
    def test_integer_routes_build_no_fraction(self, monkeypatch, name, call):
        built, h = _count_fractions(monkeypatch, call)
        assert built == 0, name
        assert _is_integral(h)

    def test_readers_build_no_fraction(self, monkeypatch):
        h = hstar_oracle(Signature((2, 2, 1)))
        assert _count_fractions(monkeypatch, lambda: str(h)) == (0, "1,12,28,12,1")
        assert _count_fractions(monkeypatch, lambda: h.coefficients) == (0, (1, 12, 28, 12, 1))

    def test_every_route_returns_dim_plus_one_ints(self):
        sig = Signature((2, 2, 1))
        routes = [
            hstar_oracle(sig),
            hstar_triangulation(sig),
            closed_form_hstar(sig),
            closed_form_hstar(Signature((1, 1, 2, 2))),
            hstar_tripartite(2, 2, 1),
            hstar_bipartite(3, 4),
            hstar_1mn(2, 3),
            hstar_111n(3),
            hstar_22n(3),
            hstar_from_ehrhart(ehrhart_from_hstar(hstar_22n(1)), 4),
        ]
        assert all(_is_integral(h) for h in routes)


class TestEhrhartConversion:
    def test_point_polytope(self):
        assert ehrhart_from_hstar(HStar((1,), 0)) == Poly((1,))

    def test_segment(self):
        assert ehrhart_from_hstar(HStar((1, 1), 1)) == Poly((1, 2))

    def test_hexagon(self):
        assert ehrhart_from_hstar(HStar((1, 4, 1), 2)) == Poly((1, 3, 3))

    def test_inverse_examples(self):
        assert hstar_from_ehrhart(Poly((1, 2)), 1).coefficients == (1, 1)
        assert hstar_from_ehrhart(Poly((1,)), 0).coefficients == (1,)
        # Ehrhart series of the 2-dimensional cross-polytope
        assert hstar_from_ehrhart(Poly((1, 2, 2)), 2).coefficients == (1, 2, 1)

    def test_non_integer_count_rejected(self):
        with pytest.raises(NonIntegerCount):
            hstar_from_ehrhart(Poly((1, Fraction(1, 2))), 1)

    def test_negative_hstar_rejected(self):
        with pytest.raises(NegativeHStar):
            hstar_from_ehrhart(Poly((1, 7, -6)), 2)

    @pytest.mark.parametrize("dim", range(13))
    def test_round_trip(self, dim):
        # a palindromic-ish h* with growing coefficients
        coeffs = [1] + [3 * i + 2 for i in range(1, dim + 1)]
        h = HStar(coeffs, dim)
        assert hstar_from_ehrhart(ehrhart_from_hstar(h), dim) == h

    def test_e_at_zero_is_one(self):
        for coeffs, d in [((1, 4, 1), 2), ((1, 9, 9, 1), 3), ((1, 1), 1)]:
            assert ehrhart_from_hstar(HStar(coeffs, d))(0) == 1


class TestSymmetry:
    def test_examples(self):
        assert symmetric(Poly((1, 2)))
        assert symmetric(Poly((1, 2, 2)))
        assert not symmetric(Poly((1, 1)))


class TestGammaVector:
    def test_peeling_examples(self):
        assert gamma_vector(HStar((1, 5, 5, 1), 3)) == Poly((1, 2))
        assert gamma_vector(HStar([1, 3, 3, 1], 3)) == Poly((1,))
        assert gamma_vector(HStar((1, 12, 28, 12, 1), 4)) == Poly((1, 8, 6))

    def test_rejects_non_palindromic(self):
        with pytest.raises(NotPalindromic):
            gamma_vector(HStar((1, 2, 2), 2))

    @pytest.mark.parametrize("d", range(1, 13))
    def test_recombination_round_trip(self, d):
        coeffs = [1] * (d + 1)
        for i in range(1, (d + 1) // 2):
            coeffs[i] = coeffs[d - i] = i + 2
        h = HStar(coeffs, d)
        gamma = gamma_vector(h)
        rebuilt = Poly.zero()
        for i in range(gamma.degree + 1):
            rebuilt = rebuilt + gamma[i] * ONE_PLUS_T ** (d - 2 * i) * Poly((0, 1)) ** i
        assert rebuilt == Poly(h.coefficients)


class TestCrossPolynomials:
    def test_small_values(self):
        assert cross_polynomial(0) == Poly((1,))
        assert cross_polynomial(1) == Poly((1, 2))
        assert cross_polynomial(2) == Poly((1, 2, 2))
        assert cross_polynomial(3) == Poly((1, Fraction(8, 3), 2, Fraction(4, 3)))

    @pytest.mark.parametrize("n", range(2, 21))
    def test_recursion(self, n):
        lhs = cross_polynomial(n)
        rhs = (
            Fraction(1, n) * TWO_X_PLUS_1 * cross_polynomial(n - 1)
            + Fraction(n - 1, n) * cross_polynomial(n - 2)
        )
        assert lhs == rhs

    def test_cross_coefficients_examples(self):
        e22 = ehrhart_from_hstar(HStar((1, 5, 5, 1), 3))
        assert cross_coefficients(e22, 3) == Poly((Fraction(3, 2), Fraction(-1, 2)))
        assert e22(1) == 9
        assert cross_recombine(cross_coefficients(e22, 3), 3) == e22

        e112 = ehrhart_from_hstar(HStar((1, 7, 7, 1), 3))
        cc = cross_coefficients(e112, 3)
        assert cc == Poly((2, -1))
        assert e112 == Poly((3, 10, 12, 8)) / 3

        cd = cross_polynomial(6)
        assert cross_coefficients(cd, 6) == Poly((1,))

    @pytest.mark.parametrize("d", range(1, 13))
    def test_cross_round_trip(self, d):
        coeffs = [1] * (d + 1)
        for i in range(1, (d + 1) // 2):
            coeffs[i] = coeffs[d - i] = 2 * i + 3
        e = ehrhart_from_hstar(HStar(coeffs, d))
        assert cross_recombine(cross_coefficients(e, d), d) == e

    def test_propagates_not_palindromic(self):
        with pytest.raises(NotPalindromic):
            cross_coefficients(Poly((1, 3, 1)), 2)  # numerator not palindromic


class TestSeriesNumerators:
    def test_series_numerator_signed_input(self):
        # (2x+1) * E is a legal signed input for the numerator extraction
        e = TWO_X_PLUS_1 * ehrhart_from_hstar(HStar((1, 1), 1))
        n = series_numerator(e, 2)
        assert n.degree <= 2

    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("n", range(0, 4))
    def test_gammalemma_grid(self, d, n):
        assert gammalemma_check(d, n)


def test_fraction_str():
    assert fraction_str(Fraction(3, 2)) == "3/2"
    assert fraction_str(Fraction(-4, 2)) == "-2"
    assert fraction_str(Fraction(0)) == "0"


def test_gamma_recombination_failure_raises(monkeypatch):
    import sepkit.polynomial as polynomial

    assert polynomial.gamma_of_palindromic(Poly((1, 4, 1)), 2) == Poly((1, 2))
    expand = polynomial.gamma_expand
    monkeypatch.setattr(polynomial, "gamma_expand", lambda gamma, d: [c + 1 for c in expand(gamma, d)])
    with pytest.raises(polynomial.RecombinationFailed):
        polynomial.gamma_of_palindromic(Poly((1, 4, 1)), 2)


# ---------------------------------------------------------------------------
# Referees: the integer arithmetic against the Fraction routes it replaced
# ---------------------------------------------------------------------------

CLOSED_FORMS = [
    ("bipartite", hstar_bipartite, (0, 4)),
    ("bipartite", hstar_bipartite, (3, 9)),
    ("bipartite", hstar_bipartite, (10, 10)),
    ("bipartite", hstar_bipartite, (19, 20)),
    ("1mn", hstar_1mn, (1, 7)),
    ("1mn", hstar_1mn, (5, 15)),
    ("1mn", hstar_1mn, (20, 20)),
    ("111n", hstar_111n, (3,)),
    ("111n", hstar_111n, (18,)),
    ("111n", hstar_111n, (38,)),
    ("22n", hstar_22n, (2,)),
    ("22n", hstar_22n, (18,)),
    ("22n", hstar_22n, (37,)),
    ("tripartite", hstar_tripartite, (2, 3, 4)),
    ("tripartite", hstar_tripartite, (3, 4, 6)),
]


# the gamma vector each family states, and its degree d
STATED_GAMMA = {
    "bipartite": lambda a, b: ([comb(2 * i, i) * comb(a, i) * comb(b, i) for i in range(min(a, b) + 1)], a + b + 1),
    "1mn": lambda m, n: ([comb(2 * i, i) * comb(m, i) * comb(n, i) for i in range(min(m, n) + 1)], m + n),
    "111n": lambda n: ([1, 2 * (2 * n + 1), 3 * (n - 1) * n], n + 2),
    "22n": lambda n: ([1, 2 * (3 * n + 1), 2 * comb(3 * n, 2), 20 * comb(n, 3)], n + 3),
}


def random_rational_poly(rnd, degree):
    coeffs = [Fraction(rnd.randint(-30, 30), rnd.randint(1, 12)) for _ in range(degree)]
    return Poly(coeffs + [Fraction(rnd.choice((-1, 1)) * rnd.randint(1, 30), rnd.randint(1, 12))])


class TestIntegerReferees:
    @pytest.mark.parametrize("name,family,args", CLOSED_FORMS, ids=[f"{n}{a}" for n, _, a in CLOSED_FORMS])
    def test_ehrhart_from_hstar(self, name, family, args):
        h = family(*args)
        assert h.dim <= 40
        e = ehrhart_from_hstar(h)
        assert list(e.coeffs) == fr.ehrhart(list(h.coefficients), h.dim)
        assert list(series_numerator(e, h.dim).coeffs) == fr.series_numerator(list(e.coeffs), h.dim)
        assert hstar_from_ehrhart(e, h.dim) == h

    @pytest.mark.parametrize("name,family,args", CLOSED_FORMS, ids=[f"{n}{a}" for n, _, a in CLOSED_FORMS])
    def test_closed_form_is_its_gamma_vector(self, name, family, args):
        h = family(*args)
        if name in STATED_GAMMA:
            gamma, d = STATED_GAMMA[name](*args)
            assert d == h.dim and all(2 * i <= d for i, g in enumerate(gamma) if g)
        else:
            # the tripartite formula states no gamma vector; its h* is
            # gamma-positive (Ohsugi and Tsuchiya, 2021)
            gamma, d = list(gamma_vector(h).coeffs), h.dim
            assert all(g.denominator == 1 and g >= 0 for g in gamma)
        assert list(h.coefficients) == fr.gamma_expand(gamma, d)

    @pytest.mark.parametrize("seed", range(3))
    def test_gamma_expand(self, seed):
        rnd = random.Random(seed)
        for d in range(0, 15):
            gamma = [Fraction(rnd.randint(-9, 9), rnd.randint(1, 6)) for _ in range(d // 2 + 1)]
            assert fr.strip(gamma_expand(gamma, d)) == fr.gamma_expand(gamma, d)

    def test_binom_poly_and_cross_polynomials(self):
        for d in range(0, 12):
            for shift in range(-3, d + 3):
                assert [Fraction(c, factorial(d)) for c in _falling(shift, d)] == fr.strip(fr.binom(shift, d))
            assert list(cross_polynomial(d).coeffs) == fr.ehrhart([Fraction(comb(d, k)) for k in range(d + 1)], d)

    def test_gamma_of_rational_palindromic_input(self):
        """The cross-coefficient path: the series numerator of a rational
        combination of cross-polynomials is palindromic, and its gamma
        vector is the Fraction route's, Fraction for Fraction."""
        rnd = random.Random(7)
        for d in range(0, 13):
            for _ in range(3):
                cross = [Fraction(rnd.randint(-9, 9), rnd.randint(1, 8)) for _ in range(d // 2 + 1)]
                e = Poly.zero()
                for i, c in enumerate(cross):
                    e = e + c * cross_polynomial(d - 2 * i)
                h = series_numerator(e, d)
                gamma = gamma_of_palindromic(h, d)
                assert all(type(g) is Fraction for g in gamma.coeffs)
                assert list(gamma.coeffs) == fr.gamma_of_palindromic(list(h.coeffs), d)
                assert cross_recombine(cross_coefficients(e, d), d) == e

    def test_series_numerator_of_rational_input(self):
        rnd = random.Random(3)
        for degree in range(0, 9):
            e = random_rational_poly(rnd, degree)
            for d in (degree, degree + 2):
                assert list(series_numerator(e, d).coeffs) == fr.series_numerator(list(e.coeffs), d)

    @pytest.mark.parametrize("seed", range(4))
    def test_ring_operations(self, seed):
        rnd = random.Random(seed)
        for _ in range(25):
            a = random_rational_poly(rnd, rnd.randint(0, 9))
            b = random_rational_poly(rnd, rnd.randint(0, 6))
            c = random_rational_poly(rnd, rnd.randint(1, 4))
            assert list((a * b).coeffs) == fr.mul(list(a.coeffs), list(b.coeffs))
            assert list((a - b).coeffs) == fr.add(list(a.coeffs), [-x for x in b.coeffs])
            assert list((a - 1).coeffs) == fr.add(list(a.coeffs), [-1])
            assert list((1 - a).coeffs) == fr.add([1], [-x for x in a.coeffs])
            # division and gcds on the integer numerators, the larger degree first
            ai, bi = sorted((list(a.num), list(b.num)), key=len, reverse=True)
            q, r, scale = _pseudo_divmod(ai, bi)
            quo, rem = fr.divmod_(fr.strip(ai), fr.strip(bi))
            assert (fr.strip(q), fr.strip(r)) == ([x * scale for x in quo], [x * scale for x in rem])
            # a common factor c, so the gcd is not always 1
            ac, bc = sorted((list((a * c).num), list((b * c).num)), key=len, reverse=True)
            assert fr.monic(fr.strip(_sturm_prs(ac, bc)[-1])) == fr.gcd_(fr.strip(ac), fr.strip(bc))
            assert fr.monic(fr.strip(_sturm_prs(ai, [])[-1])) == fr.monic(fr.strip(ai))

    def test_symmetry_against_reflection(self):
        rnd = random.Random(5)
        closed = [ehrhart_from_hstar(family(*args)) for _, family, args in CLOSED_FORMS[:6]]
        for e in closed + [random_rational_poly(rnd, k) for k in range(6)] + [Poly((1, 4, 4)), Poly((7,))]:
            assert symmetric(e) == fr.is_symmetric(list(e.coeffs))
        assert all(symmetric(e) for e in closed)


def test_gamma_failures_keep_their_classes_and_messages(monkeypatch):
    import sepkit.polynomial as polynomial

    with pytest.raises(NotPalindromic) as err:
        gamma_of_palindromic(Poly((1, 3, Fraction(1, 2))), 2)
    assert str(err.value) == "not palindromic w.r.t. degree 2: Poly(1 + 3*x + 1/2*x^2)"
    with pytest.raises(ValueError) as err:
        gamma_of_palindromic(Poly((1, 2, 3, 4)), 2)
    assert type(err.value) is ValueError and str(err.value) == "degree exceeds stated dimension"
    expand = polynomial.gamma_expand
    monkeypatch.setattr(polynomial, "gamma_expand", lambda gamma, d: [c + 1 for c in expand(gamma, d)])
    with pytest.raises(polynomial.RecombinationFailed) as err:
        gamma_of_palindromic(Poly((1, 4, 1)), 2)
    assert str(err.value) == "gamma vector of Poly(1 + 4*x + x^2) recombines to Poly(2 + 5*x + 2*x^2)"


def test_gamma_expand_rejects_a_term_past_the_degree():
    assert gamma_expand([1, 2, 0, 0], 2) == [1, 4, 1]
    assert gamma_expand([], 2) == [0, 0, 0]
    with pytest.raises(ValueError):
        gamma_expand([1, 0, 5], 3)


def test_inexact_integer_division_raises():
    from sepkit.polynomial import _exact_quo

    assert _exact_quo([-1, 0, 1], [1, 1]) == [-1, 1]
    with pytest.raises(ArithmeticError):
        _exact_quo([1, 0, 1], [1, 1])  # x^2 + 1 = (x + 1)(x - 1) + 2
    with pytest.raises(ArithmeticError):
        _exact_quo([1, 0, 2], [1, 3])  # 3 does not divide the leading 2
