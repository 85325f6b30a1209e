"""Ring arithmetic, series inversion and constant term extraction."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from latpoly import (
    LaurentPolynomial,
    NonInvertibleSubstitution,
    NonUnitLeadingCoefficient,
    ONE,
    SizeLimit,
    TruncatedSeries,
    TruncationInsufficient,
    ZERO,
    as_poly,
    constant_term_ratio,
    monomial,
    parse_polynomial,
    series_invert,
    sym,
)
from latpoly.symbolic import (
    _NAMES as _slot_names,
    _Quotient,
    _dot,
    _inverse_state,
    _inversion_order,
    _parse_cached,
    _render,
    _rho_poly,
    _unit_split,
)

RHO = sym("rho")
X = sym("x")
RHO_INV = monomial(1, rho=-1)


def dict_convolution(a: dict, b: dict) -> dict:
    """Independent multiplication oracle: plain exponent-dict convolution
    for univariate Laurent polynomials given as {exponent: coefficient}."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def rho_dict(p: LaurentPolynomial) -> dict:
    """{rho exponent: rational coefficient} of a univariate-in-rho value."""
    out = {}
    for mono, coeff in p.terms().items():
        assert all(name == "rho" for name, _ in mono)
        out[dict(mono).get("rho", 0)] = coeff
    return out


# -- arithmetic ---------------------------------------------------------------

def test_difference_of_squares():
    assert (RHO + RHO_INV) * (RHO - RHO_INV) == monomial(1, rho=2) - monomial(1, rho=-2)


def test_additive_identity():
    p = 3 * X ** 2 - sym("kappa") + Fraction(1, 2)
    assert p + ZERO == p
    assert p + 0 == p


def test_symbolic_expansion():
    b0, b1 = sym("b0"), sym("b1")
    assert (X - b0) * (X - b1) == X ** 2 - (b0 + b1) * X + b0 * b1


def test_pow_trinomial_oracle():
    # oracle: direct exponent-dict convolution, no polynomial code involved
    base = {1: 1, 0: 2, -1: 1}
    expected = dict_convolution(base, base)
    assert rho_dict((RHO + 2 + RHO_INV) ** 2) == expected
    assert expected == {2: 1, 1: 4, 0: 6, -1: 4, -2: 1}


def test_pow_zero_is_one():
    assert (RHO + 7 * X) ** 0 == ONE
    assert ZERO ** 0 == ONE


def test_pow_binomial_oracle():
    p = (RHO + RHO_INV) ** 3
    expected = {3 - 2 * k: comb(3, k) for k in range(4)}
    assert rho_dict(p) == expected


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        LaurentPolynomial({(): 0.5})
    # nor is a bool, which would otherwise pass for an int
    for make in (as_poly, lambda v: monomial(v, x=1),
                 lambda v: LaurentPolynomial({(): v})):
        with pytest.raises(TypeError):
            make(True)
    assert ONE != True  # noqa: E712
    # an int or Fraction factor scales a polynomial; a float or bool does not
    for value in (0.5, 2.0, True, False):
        for make in (lambda v: X * v, lambda v: v * X, lambda v: X + v, lambda v: v - X):
            with pytest.raises(TypeError):
                make(value)
    assert X * 2 == 2 * X == X + X and Fraction(1, 2) * X == X * Fraction(1, 2)


def test_negative_exponent_restricted_to_rho():
    with pytest.raises(ValueError):
        LaurentPolynomial({(("x", -1),): 1})
    assert monomial(1, rho=-3).min_exponent("rho") == -3


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        (RHO + 1) ** -1


def test_bool_power_refused():
    # True is an int to Python, but not an exponent, as monomial(1, x=True)
    # already says
    for n in (True, False):
        with pytest.raises(ValueError):
            X ** n


# -- constant term ------------------------------------------------------------

def test_constant_term_examples():
    p = (RHO + 2 + RHO_INV) ** 2
    assert p.constant_term() == 6
    assert (RHO + RHO_INV).constant_term() == ZERO
    kappa, omega = sym("kappa"), sym("omega")
    assert (kappa + omega * RHO ** 2).constant_term() == kappa


def test_constant_term_convolution_property():
    # p with only positive rho powers, q with only negative ones: the
    # constant term of p*q is the sum over matching exponents
    p_dict = {1: Fraction(2), 2: Fraction(-1), 4: Fraction(3)}
    q_dict = {-1: Fraction(5), -2: Fraction(1, 2), -3: Fraction(7)}
    p = sum((monomial(c, rho=e) for e, c in p_dict.items()), ZERO)
    q = sum((monomial(c, rho=e) for e, c in q_dict.items()), ZERO)
    expected = sum(p_dict[e] * q_dict[-e] for e in p_dict if -e in q_dict)
    assert (p * q).constant_term() == expected


# -- series inversion ---------------------------------------------------------

def test_series_invert_geometric():
    s = series_invert(1 - RHO, 3)
    assert s.coefficients() == {0: ONE, 1: ONE, 2: ONE, 3: ONE}
    assert s.truncation_order == 3


def test_series_invert_shifted_multiply_back():
    kh = sym("kappa_hat")
    d = RHO_INV * (1 - kh * RHO ** 2)
    s = series_invert(d, 2)
    assert s.coefficients() == {1: ONE, 3: kh}
    # multiply back: congruent to 1 through order 2
    product = s.mul_poly(d)
    for e in range(0, 3):
        assert product.coefficient(e) == (ONE if e == 0 else ZERO)


def test_series_invert_non_unit_leading():
    kh = sym("kappa_hat")
    with pytest.raises(NonUnitLeadingCoefficient):
        series_invert(kh * RHO_INV + RHO, 3)
    # nonzero rational part mixed with symbols in the lowest coefficient is
    # also refused: its inverse is not polynomial in the decorations
    with pytest.raises(NonUnitLeadingCoefficient):
        series_invert((1 + kh) + RHO, 3)
    with pytest.raises(NonUnitLeadingCoefficient):
        series_invert(ZERO, 1)


def test_series_constant_term_and_truncation():
    s = series_invert(1 - X, 4, var="x")
    assert s.constant_term() == ONE
    with pytest.raises(TruncationInsufficient):
        s.coefficient(5)
    negative = TruncatedSeries("rho", {}, -1)
    with pytest.raises(TruncationInsufficient):
        negative.constant_term()
    with pytest.raises(ValueError, match="stored exponent 4 beyond truncation order 3"):
        TruncatedSeries("x", {4: 1}, 3)


def test_constant_term_ratio_geometric():
    # CT[ (rho + 1/rho)^2 / (1 - rho) ] with 1/(1-rho) = 1 + rho + ...
    num = (RHO + RHO_INV) ** 2
    assert constant_term_ratio(num, 1 - RHO) == 2 + 1  # rho^0 and rho^-2 terms


def test_a_ratio_over_zero_raises_what_the_inversion_raises():
    # the inversion order reads the denominator's lowest exponent from its
    # checked split, so a zero denominator is refused as series_invert
    # refuses it, not with the bare ValueError of an empty exponent scan
    for num in (ONE, RHO + RHO_INV):
        with pytest.raises(NonUnitLeadingCoefficient, match="zero polynomial"):
            constant_term_ratio(num, ZERO)
    with pytest.raises(NonUnitLeadingCoefficient, match="zero polynomial"):
        series_invert(ZERO, 2)


# -- substitution -------------------------------------------------------------

def test_substitute_cancellation():
    b, lam = Fraction(2), Fraction(3)
    p = X - b
    image = RHO + b + monomial(lam, rho=-1)
    assert p.substitute({"x": image}) == RHO + monomial(lam, rho=-1)


def test_substitute_square():
    p = X ** 2
    assert p.substitute({"x": RHO + RHO_INV}) == RHO ** 2 + 2 + monomial(1, rho=-2)


def test_substitute_evaluation():
    kappa, omega = sym("kappa"), sym("omega")
    assert (kappa * omega + kappa ** 2).substitute({"kappa": 1}) == omega + 1


def test_substitute_simultaneous():
    a, b = sym("a"), sym("b")
    p = a + b
    # bindings apply to the original symbols only
    assert p.substitute({"a": b, "b": a}) == a + b


def test_substitute_negative_exponent_needs_monomial():
    p = monomial(1, rho=-1)
    assert p.substitute({"rho": 2 * RHO}) == monomial(Fraction(1, 2), rho=-1)
    with pytest.raises(NonInvertibleSubstitution):
        p.substitute({"rho": RHO + 1})
    with pytest.raises(NonInvertibleSubstitution):
        p.substitute({"rho": X + 0})  # inverse would need x^-1


# -- division, reversal, rendering ---------------------------------------------

def test_divmod_monic():
    b0 = sym("b0")
    divisor = X ** 2 - b0 * X + 3
    quotient = X ** 3 + (1 - b0) * X
    remainder = b0 * X + Fraction(1, 2)
    dividend = quotient * divisor + remainder
    q, r = dividend.divmod_monic(divisor, "x")
    assert q == quotient and r == remainder
    with pytest.raises(ValueError):
        dividend.divmod_monic(2 * X + 1, "x")


def test_reverse():
    p = X ** 2 - 2
    assert p.reverse("x", 2) == 1 - 2 * X ** 2
    with pytest.raises(ValueError):
        p.reverse("x", 1)


def test_render_ordering():
    kappa, omega = sym("kappa"), sym("omega")
    assert (kappa ** 2 + kappa * omega).render() == "kappa^2 + kappa*omega"
    p = (RHO + 2 + RHO_INV) ** 2
    assert p.render() == "rho^2 + 4*rho + 6 + 4*rho^-1 + rho^-2"
    assert (X * 0).render() == "0"
    assert (-X + 1).render() == "-x + 1"
    assert (Fraction(3, 2) * X).render() == "3/2*x"


def _in_documented_order(p, fmt) -> str:
    """p's text with its terms in the documented order, each term written
    as a one-term polynomial: descending total degree, then descending
    exponent vector over the sorted names of p's symbols."""
    terms = p.terms()
    names = sorted({n for mono in terms for n, _ in mono})

    def key(mono):
        exps = dict(mono)
        return sum(exps.values()), [exps.get(n, 0) for n in names]

    text = ""
    for mono in sorted(terms, key=key, reverse=True):
        c = terms[mono]
        body = fmt(LaurentPolynomial({mono: abs(c)}))
        if not text:
            text = body if c > 0 else f"-{body}"
        else:
            text += f" {'+' if c > 0 else '-'} {body}"
    return text or "0"


@st.composite
def prefix_named_polys(draw):
    """Terms over names that are prefixes of one another, and rho."""
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        mono = tuple((n, draw(st.integers(0, 3))) for n in ("b", "b0", "b_0", "bb"))
        mono += (("rho", draw(st.integers(-3, 2))),)
        coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        terms[mono] = coeff
    return LaurentPolynomial(terms)


@settings(max_examples=150, deadline=None)
@given(prefix_named_polys())
def test_render_and_latex_follow_the_documented_term_order(p):
    assert p.render() == _in_documented_order(p, LaurentPolynomial.render)
    assert p.latex() == _in_documented_order(p, LaurentPolynomial.latex)


@settings(max_examples=60, deadline=None)
@given(prefix_named_polys())
def test_render_of_equal_values_is_the_uncached_text(p):
    text = _render.__wrapped__(p)
    twin = LaurentPolynomial(p.terms())
    assert twin is not p and twin == p
    assert p.render() == text
    # an equal but distinct object is a hit: its value is formatted once
    hits = _render.cache_info().hits
    assert twin.render() == text
    assert _render.cache_info().hits == hits + 1
    # more distinct values than the bound push p out; it is then formatted
    # again, to the same text
    for k in range(_render.cache_info().maxsize + 1):
        (X + k).render()
    misses = _render.cache_info().misses
    assert twin.render() == text and p.render() == text
    assert _render.cache_info().misses == misses + 1


def test_latex():
    kappa = sym("kappa")
    assert (kappa ** 2 + 1).latex() == "\\kappa^{2} + 1"
    assert (Fraction(1, 2) * sym("x")).latex() == "\\frac{1}{2} x"
    assert sym("kappa_1").latex() == "\\kappa_{1}"


def test_latex_keeps_distinct_symbols_distinct():
    # only a name stem, stemDIGITS or stem_DIGITS becomes a subscripted
    # symbol; any other name prints with its underscores escaped
    assert (sym("b") + sym("b_")).latex() == "b + b\\_"
    assert sym("a_b_1").latex() == "a\\_b\\_1"
    assert sym("kappa_").latex() == "kappa\\_"
    # the documented exception: b0 and b_0 both print as b_{0}
    assert sym("b0").latex() == sym("b_0").latex() == "b_{0}"
    assert sym("bb").latex() == "bb"


def test_series_latex_follows_render_layout():
    kappa = sym("kappa")
    s = TruncatedSeries("x", {0: 1, 1: -kappa, 2: kappa ** 2 + 1, 3: 1}, 4)
    assert s.render() == "1 - kappa*x + (kappa^2 + 1)*x^2 + x^3 + O(x^5)"
    assert s.latex() == ("1 - \\kappa x + (\\kappa^{2} + 1) x^{2} + x^{3}"
                         " + O(x^{5})")
    assert TruncatedSeries("x", {}, 0).latex() == "0 + O(x^{1})"


def test_parse_polynomial():
    assert parse_polynomial("kappa-1") == sym("kappa") - 1
    assert parse_polynomial("3/2") == Fraction(3, 2)
    assert parse_polynomial("(x-1)*(x+1)") == X ** 2 - 1
    assert parse_polynomial("2*rho^-2") == monomial(2, rho=-2)
    assert parse_polynomial("x^3 - 2*x") == X ** 3 - 2 * X
    with pytest.raises(ValueError):
        parse_polynomial("1.5")
    with pytest.raises(ValueError):
        parse_polynomial("x^-1")
    with pytest.raises(ValueError):
        parse_polynomial("kappa-1", allowed_symbols={"omega"})
    for text in ("", "   ", "\t"):
        with pytest.raises(ValueError, match="the expression is empty"):
            parse_polynomial(text)
    with pytest.raises(ValueError, match="unexpected end of expression"):
        parse_polynomial("x +")
    with pytest.raises(ValueError, match="expected \\) at the end"):
        parse_polynomial("(x")
    with pytest.raises(ValueError, match="exponent must be an integer"):
        parse_polynomial("x^1/2")
    with pytest.raises(ValueError, match="unexpected token '\\*'"):
        parse_polynomial("*x")
    with pytest.raises(ValueError, match="nested too deeply"):
        parse_polynomial("(" * 1200 + "x" + ")" * 1200)
    assert parse_polynomial("(" * 50 + "x" + ")" * 50) == X
    assert parse_polynomial(" x + 1 ") == X + 1


def test_parse_polynomial_parses_each_text_once():
    # an unrestricted parse is cached by its text and shared: the
    # polynomial is immutable, so every caller may hold the same object
    z = parse_polynomial("z")
    assert parse_polynomial("z") is z == sym("z")
    # a restricted parse is cached by its text and its allowed symbols, so
    # a second call shares the first one's polynomial, and a symbol outside
    # them is refused on every call: the cache keeps no refusal
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown symbol 'z'"):
            parse_polynomial("z", allowed_symbols={"x"})
    zx = parse_polynomial("z + x", allowed_symbols={"z", "x"})
    assert parse_polynomial("z + x", allowed_symbols=["x", "z"]) is zx == z + X
    assert parse_polynomial("z", allowed_symbols={"z"}) == z
    # a refused text is refused on every call, not cached
    for text in ("1.5", "2*1.5", "", "  ", "z +"):
        for _ in range(2):
            with pytest.raises(ValueError):
                parse_polynomial(text)


def test_parse_polynomial_refuses_what_is_not_text():
    # one named TypeError for every non-str, raised before the parse cache
    # is read, so an unhashable value fails the same way as a hashable one
    before = _parse_cached.cache_info()
    for value in (5, None, ["x"], b"x", X):
        for allowed in (None, {"x"}):
            with pytest.raises(TypeError, match="parsed from a str"):
                parse_polynomial(value, allowed_symbols=allowed)
    after = _parse_cached.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_whole_coefficients_are_int():
    (coeff,) = parse_polynomial("4/2*x").terms().values()
    assert type(coeff) is int
    half = as_poly(Fraction(1, 2))
    for value in (half * 2, half + Fraction(1, 2)):
        assert value == 1 and type(value.terms()[()]) is int


def test_parse_render_round_trip():
    p = 3 * X ** 2 * sym("kappa") - monomial(Fraction(5, 3), rho=-2) + 7
    assert parse_polynomial(p.render()) == p


# -- ring axioms (property based) ----------------------------------------------

@st.composite
def polys(draw):
    names = ("rho", "x", "kappa")
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        exps = []
        for name in names:
            lo = -2 if name == "rho" else 0
            e = draw(st.integers(lo, 2))
            if e:
                exps.append((name, e))
        coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        mono = tuple(exps)
        terms[mono] = terms.get(mono, 0) + coeff
    return LaurentPolynomial(terms)


@settings(max_examples=120, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


def _fraction_terms(p) -> dict:
    return {m: Fraction(c) for m, c in p.terms().items()}


def _schoolbook(a: dict, b: dict, sign: int = 0) -> dict:
    """The product of two term maps (or, with ``sign``, the sum a + sign*b)
    in plain Fraction arithmetic, as an independent reference."""
    out: dict = {}
    if sign:
        for terms, s in ((a, 1), (b, sign)):
            for m, c in terms.items():
                out[m] = out.get(m, 0) + s * c
    else:
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                exps = dict(m1)
                for n, e in m2:
                    exps[n] = exps.get(n, 0) + e
                m = tuple(sorted((n, e) for n, e in exps.items() if e))
                out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


@settings(max_examples=120, deadline=None)
@given(polys(), polys())
def test_arithmetic_matches_fraction_reference(a, b):
    """Sums and products run on int numerators over a common denominator;
    their coefficients, equality and hashes must be those of the same
    values computed term by term in Fraction."""
    fa, fb = _fraction_terms(a), _fraction_terms(b)
    for value, expected in ((a * b, _schoolbook(fa, fb)), (a + b, _schoolbook(fa, fb, 1)),
                            (a - b, _schoolbook(fa, fb, -1))):
        terms = value.terms()
        assert terms == expected
        assert all(type(c) is (int if Fraction(c).denominator == 1 else Fraction)
                   for c in terms.values())
        rebuilt = LaurentPolynomial(expected)
        assert rebuilt == value and hash(rebuilt) == hash(value)
        assert parse_polynomial(value.render()) == value


@settings(max_examples=60, deadline=None)
@given(polys(), st.integers(0, 5))
def test_pow_matches_repeated_multiplication(a, n):
    expected = ONE
    for _ in range(n):
        expected = expected * a
    assert a ** n == expected


@settings(max_examples=60, deadline=None)
@given(polys(), st.integers(1, 4), st.integers(0, 6))
def test_series_invert_round_trip(tail, unit, order):
    # generated tails reach rho^-2, so rho^3 * tail starts at rho^1 and
    # d = unit + rho^3 * tail always satisfies the inversion precondition
    d = unit + RHO ** 3 * tail
    s = series_invert(d, order)
    product = s.mul_poly(d)
    for e in range(product.min_index(), order + 1):
        assert product.coefficient(e) == (ONE if e == 0 else ZERO)


def test_hash_consistency():
    a = X ** 2 - 1
    b = (X - 1) * (X + 1)
    assert a == b and hash(a) == hash(b)
    assert as_poly(2) == LaurentPolynomial({(): Fraction(2)})
    assert hash(as_poly(2)) == hash(LaurentPolynomial({(): Fraction(2)}))


def test_constant_hashes_as_its_value():
    # a constant polynomial compares equal to its value, so it must hash
    # as that value too, or sets and dict lookups split equal keys
    for poly, value in ((ZERO, 0), (ONE, 1), (as_poly(Fraction(1, 2)), Fraction(1, 2))):
        assert poly == value and hash(poly) == hash(value)
    # a whole constant hashes as its int, a non-whole one as its Fraction
    for value in (0, 1, -1, 2 ** 70, -(2 ** 70), Fraction(-7, 3), Fraction(2 ** 70, 3)):
        poly = as_poly(value)
        assert poly == value and hash(poly) == hash(value)
        assert {value: "v"}.get(poly) == "v" and {poly: "p"}.get(value) == "p"
    assert len({1, ONE}) == 1 and len({0, ZERO}) == 1
    assert {ONE: "a"}.get(1) == "a"
    assert {Fraction(1, 2): "h"}.get(as_poly(Fraction(1, 2))) == "h"


def test_non_int_exponent_refused():
    for make in (lambda: monomial(1, x=2.5), lambda: monomial(1, x=True),
                 lambda: monomial(1, rho=Fraction(-2)),
                 lambda: LaurentPolynomial({(("x", "3"),): 1}),
                 lambda: LaurentPolynomial({(("x", 0.0),): 1})):
        with pytest.raises(TypeError):
            make()
    assert monomial(1, x=2) == X ** 2


@st.composite
def product_pairs(draw):
    """Pairs whose first factor is a polynomial or an exact scalar (an int
    or a Fraction, 0 and negatives included), some with a zero operand and
    some followed by their own negation, so that parts of the sum cancel."""
    scalars = st.one_of(st.integers(-9, 9), st.just(0),
                        st.fractions(-3, 3, max_denominator=12))
    pairs = []
    for _ in range(draw(st.integers(0, 5))):
        a = draw(st.one_of(polys(), scalars))
        b = draw(st.one_of(polys(), st.just(ZERO), st.just(ONE)))
        pairs.append((a, b))
        if draw(st.booleans()):
            pairs.append((-a, b))
    return draw(st.permutations(pairs))


def _schoolbook_dot(entries) -> dict:
    """The sum of the products of entries of any length in Fraction
    arithmetic, one factor at a time; a scalar first factor is read as a
    constant."""
    out: dict = {}
    for a, *factors in entries:
        product = _fraction_terms(a) if isinstance(a, LaurentPolynomial) else {(): Fraction(a)}
        for f in factors:
            product = _schoolbook(product, _fraction_terms(f))
        out = _schoolbook(out, product, 1)
    return out


@settings(max_examples=150, deadline=None)
@given(product_pairs())
def test_dot_is_the_sum_of_the_products(pairs):
    got = _dot(pairs)
    assert got.terms() == _schoolbook_dot(pairs)
    # held in lowest terms: it hashes as the constructor's equal value
    assert hash(got) == hash(LaurentPolynomial(got.terms()))
    assert _dot([]) == ZERO
    assert _dot(pairs + [(a, -b) for a, b in pairs]) == ZERO


@st.composite
def product_entries(draw):
    """Entries of 2 to 5 factors: a polynomial or exact scalar first, then
    polynomials with Fraction coefficients, among them constants (0, a
    Fraction, -1) and the unit 1; some entries are followed by their own
    negation, so that parts of the sum cancel."""
    scalars = st.one_of(st.integers(-9, 9), st.fractions(-3, 3, max_denominator=12))
    factors = st.one_of(polys(), st.just(ONE), st.just(-ONE), st.just(ZERO),
                        st.fractions(-3, 3, max_denominator=12).map(as_poly))
    entries = []
    for _ in range(draw(st.integers(0, 4))):
        a = draw(st.one_of(polys(), scalars))
        rest = draw(st.lists(factors, min_size=1, max_size=4))
        entries.append((a, *rest))
        if draw(st.booleans()):
            entries.append((-a, *rest))
    return draw(st.permutations(entries))


@settings(max_examples=150, deadline=None)
@given(product_entries())
def test_dot_is_the_sum_of_the_products_of_any_length(entries):
    got = _dot(entries)
    assert got.terms() == _schoolbook_dot(entries)
    assert hash(got) == hash(LaurentPolynomial(got.terms()))
    # an entry is the pair of its first factor and the product of the rest
    for a, *rest in entries:
        tail = ONE
        for f in rest:
            tail = tail * f
        assert _dot([(a, *rest)]) == _dot([(a, tail)])


def test_dot_refuses_an_entry_whose_summed_bound_passes_the_field():
    # every factor and every pair of them is in bounds; four together
    # reach 2**31, past the field, and are refused before any key is formed
    f = monomial(1, x=2 ** 29)
    for entry in ((1, f, f, f, f), (f, f, f, f), (Fraction(1, 2), f, X, f, f, f)):
        with pytest.raises(SizeLimit):
            _dot([(ONE, X), entry])
    assert _dot([(2, f, f, f)]) == monomial(2, x=3 * 2 ** 29)
    # a constant only scales: this one holds a bound of 2**30 from its
    # making, and adds none to the entry
    one = monomial(1, rho=2 ** 29) * monomial(1, rho=-(2 ** 29))
    assert one == ONE and one._bound == 2 ** 30
    assert _dot([(1, f, f, f, one)]) == monomial(1, x=3 * 2 ** 29)


def test_dot_grows_its_denominator_then_reduces():
    # the pairs bring denominators 1, 3, 2 and 6 in that order, so the
    # accumulator is rescaled twice while it holds terms; the last pair
    # cancels the third, and the sum 6x + 3y over 6 reduces to (2x + y)/2;
    # the second list brings its 6 by a scalar first factor
    y = sym("y")
    half, third, sixth = (as_poly(Fraction(1, n)) for n in (2, 3, 6))
    for pairs in ([(X, ONE), (y, third), (X, half), (sixth, y), (-half, X)],
                  [(X, ONE), (y, third), (X, half), (Fraction(1, 6), y), (-half, X)]):
        got = _dot(iter(pairs))
        assert got.terms() == _schoolbook_dot(pairs) == {(("x", 1),): 1,
                                                          (("y", 1),): Fraction(1, 2)}
        assert got._den == 2 and hash(got) == hash(LaurentPolynomial(got.terms()))


def test_dot_fills_an_empty_sum_from_a_scalar_pair():
    # a scalar pair that meets an empty sum is copied or scaled in one
    # step; the sum is a new dict, so the operand is left as it was
    y = sym("y")
    p = X + 2 * y
    before = dict(p._num)
    assert (p + y).terms() == {(("x", 1),): 1, (("y", 1),): 3}
    assert p - p == ZERO and p * 0 == ZERO and (p * 0)._num == {}
    for pairs in ([(0, p), (1, y)], [(Fraction(-2, 3), p)], [(0, p), (0, y)],
                  [(3, p), (Fraction(1, 2), X), (-3, p)]):
        got = _dot(pairs)
        assert got.terms() == _schoolbook_dot(pairs)
        assert hash(got) == hash(LaurentPolynomial(got.terms()))
    assert p._num == before


# -- the cached, order-extendable inverse and single-coefficient products -----

@st.composite
def unit_led(draw):
    """u * rho**m plus higher powers of rho: the lowest coefficient is a
    nonzero rational u, so d inverts."""
    m = draw(st.integers(-2, 2))
    unit = Fraction(draw(st.sampled_from([-3, -1, 1, 2])), draw(st.integers(1, 3)))
    # generated tails reach rho^-2, so rho^(m+3) * tail starts above rho^m
    return monomial(unit, rho=m) + RHO ** (m + 3) * draw(polys())


@settings(max_examples=60, deadline=None)
@given(unit_led(), st.lists(st.integers(0, 8), min_size=1, max_size=6))
def test_series_invert_is_history_independent(d, orders):
    fresh = {}
    for order in set(orders):
        _inverse_state.cache_clear()
        fresh[order] = series_invert(d, order)
    _inverse_state.cache_clear()
    for order in orders:  # rising and falling, extending and reading prefixes
        got = series_invert(d, order)
        assert got == fresh[order]
        assert got.truncation_order == fresh[order].truncation_order
        # a caller's mutation must not reach the cache
        got._coeffs.clear()
        got._coeffs[got.truncation_order] = sym("kappa")
        got.truncation_order += 1


def test_mul_poly_reads_only_the_exponents_its_terms_reach():
    # two terms a million apart: the product's exponents are the sums of
    # pairs of terms within the trusted order, found with no loop over the
    # exponents between them
    x = sym("x")
    s = TruncatedSeries("x", {0: 1, 10**6: 1}, 10**6)
    start = time.perf_counter()
    product = s.mul_poly(1 + x)
    elapsed = time.perf_counter() - start
    assert product == TruncatedSeries("x", {0: 1, 1: 1, 10**6: 1}, 10**6)
    assert s.mul_poly(1 + x, exponent=1).coefficient(1) == ONE
    assert elapsed < 0.5


@settings(max_examples=60, deadline=None)
@given(unit_led(), polys(), st.integers(0, 6))
def test_mul_poly_single_coefficient(d, p, order):
    s = series_invert(d, order)
    full = s.mul_poly(p)
    top = full.truncation_order
    for e in range(min(s.min_index() + min(p.split("rho"), default=0), top) - 1, top + 1):
        single = s.mul_poly(p, exponent=e)
        assert single.coefficient(e) == full.coefficient(e)
        assert single.truncation_order == top
        for other in (e - 1, e + 1):
            with pytest.raises(TruncationInsufficient):
                single.coefficient(other)
        with pytest.raises(TruncationInsufficient):
            single.mul_poly(ONE)
    with pytest.raises(TruncationInsufficient):
        s.mul_poly(p, exponent=top + 1)


@settings(max_examples=60, deadline=None)
@given(polys())
def test_split_is_kept_and_every_call_gets_its_own_dict(p):
    """A polynomial keeps its split, so the parts are built once; a caller
    that mutates its dict leaves the next split whole, and a split by
    another variable is still right."""
    def expected(var):  # split of an equal polynomial, built afresh
        return LaurentPolynomial(p.terms()).split(var)

    first = p.split("rho")
    assert first == expected("rho")
    assert all(p.split("rho")[e] is c for e, c in first.items())
    first.clear()
    first[7] = sym("kappa")
    assert p.split("rho") == expected("rho")
    for var in ("x", "rho", "kappa", "rho"):
        parts = p.split(var)
        assert parts == expected(var), var
        assert _dot([(c, monomial(1, **{var: e})) for e, c in parts.items()]) == p
        parts.pop(min(parts, default=0), None)


def test_unit_split_keeps_no_split_of_its_denominator():
    # the cached split's tail already holds d's parts, so d (kept alive by
    # the cache) does not keep them a second time
    d = 2 - 3 * RHO + sym("unit_split_kappa") * RHO ** 2
    inv = series_invert(d, 5)
    hits = _unit_split.cache_info().hits
    _unit_split(d, "rho")
    assert _unit_split.cache_info().hits == hits + 1
    assert d._parts is None
    product = inv.mul_poly(d)
    assert [product.coefficient(k) for k in range(6)] == [ONE] + [ZERO] * 5


@settings(max_examples=100, deadline=None)
@given(unit_led(), polys().filter(lambda p: not p.is_zero), st.integers(-4, 6))
def test_inversion_order_is_the_least_that_reads(d, p, e):
    order = _inversion_order(p, d, e, "rho")
    read = series_invert(d, order).mul_poly(p, exponent=e).coefficient(e)
    assert read == series_invert(d, order + 4).mul_poly(p).coefficient(e)
    if e == 0:
        assert constant_term_ratio(p, d) == read
    if order > 0:
        with pytest.raises(TruncationInsufficient):
            series_invert(d, order - 1).mul_poly(p, exponent=e)


# -- polynomials in rho and series built from checked ints --------------------

FIELD_EDGE = 2 ** 31  # the first |exponent| that SizeLimit refuses


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(
           st.one_of(st.integers(-6, 6),
                     st.sampled_from([FIELD_EDGE - 1, 1 - FIELD_EDGE, FIELD_EDGE, -FIELD_EDGE])),
           st.one_of(st.integers(-5, 5),
                     st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))),
           max_size=6),
       st.integers(1, 4))
def test_rho_builder_equals_the_tuple_constructor(coeffs, den):
    # ints, Fractions (whole ones too), zeros, negative exponents and the
    # empty map; an exponent at the field limit is refused by both
    terms = {(("rho", e),): Fraction(c, den) for e, c in coeffs.items()}
    if any(abs(e) >= FIELD_EDGE for e in coeffs):
        with pytest.raises(SizeLimit):
            LaurentPolynomial(terms)
        with pytest.raises(SizeLimit):
            _rho_poly(coeffs, den)
        return
    built, expected = _rho_poly(coeffs, den), LaurentPolynomial(terms)
    # lowest terms make the held form unique, so equal values hold alike
    assert (built._den, built._num) == (expected._den, expected._num)
    assert built.terms() == expected.terms()
    assert hash(built) == hash(expected)
    assert built._bound >= max((abs(e) for e in built._num), default=0)


def _rebuilt(s: TruncatedSeries) -> TruncatedSeries:
    """s through the checked public constructor."""
    return TruncatedSeries(s.var, s.coefficients(), s.truncation_order)


@settings(max_examples=100, deadline=None)
@given(unit_led(), polys(), st.integers(0, 6), st.integers(0, 8))
def test_trusted_series_equal_the_checked_constructor(d, p, order, below):
    inv = series_invert(d, order)
    product = inv.mul_poly(p)
    e = product.truncation_order - below
    single = inv.mul_poly(p, e)
    for s in (inv, product, single):
        kept = s.coefficients()
        assert all(not c.is_zero for c in kept.values())
        assert all(k <= s.truncation_order for k in kept)
        again = _rebuilt(s)
        assert (again.var, again.coefficients(), again.truncation_order) == (
            s.var, kept, s.truncation_order)
    assert inv == _rebuilt(inv) and product == _rebuilt(product)
    assert single.coefficient(e) == product.coefficient(e)
    assert set(single.coefficients()) <= {e}


def test_series_invert_shared_across_threads():
    d = 1 - 2 * RHO + sym("kappa") * RHO ** 2 - RHO ** 3
    orders = [3, 12, 7, 15, 1, 10, 15, 5]
    expected = {n: series_invert(d, n) for n in orders}
    failures = []

    def worker(shift):
        for n in orders[shift:] + orders[:shift]:
            if series_invert(d, n) != expected[n]:
                failures.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):  # each round extends a fresh state from 8 threads
            _inverse_state.cache_clear()
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []


@settings(max_examples=60, deadline=None)
@given(unit_led(), polys().filter(lambda p: not p.is_zero),
       st.lists(st.integers(0, 8), min_size=1, max_size=4))
def test_quotient_state_is_the_product_with_the_inverse(d, n, orders):
    # rho^shift * (c_0 + c_1 rho + ...) is n/d: every coefficient it holds is
    # the one that multiplying n by the series of 1/d trusts
    state = _Quotient(d, "rho", n)
    assert state.shift == n.min_exponent("rho") - d.min_exponent("rho")
    for order in orders:  # rising and falling, extending and reading prefixes
        c = state.upto(order)
        assert len(c) == order + 1
        product = series_invert(d, order).mul_poly(n)
        assert product.truncation_order == order + state.shift
        for k, ck in enumerate(c):
            assert ck == product.coefficient(k + state.shift), (order, k)
        c.append(sym("kappa"))  # a caller's list is its own


def test_quotient_state_shared_across_threads():
    d = 1 - 2 * RHO + sym("kappa") * RHO ** 2 - RHO ** 3
    n = monomial(3, rho=-2) + sym("beta") * RHO - RHO ** 4
    orders = [3, 12, 7, 15, 1, 10, 15, 5]
    expected = _Quotient(d, "rho", n).upto(max(orders))
    failures = []

    def worker(state, shift):
        for k in orders[shift:] + orders[:shift]:
            if state.upto(k) != expected[:k + 1]:
                failures.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):  # each round extends a fresh state from 4 threads
            state = _Quotient(d, "rho", n)
            threads = [threading.Thread(target=worker, args=(state, k)) for k in range(0, 8, 2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []


# -- packed monomials -----------------------------------------------------------

# registered before any symbol of the packing tests, so those get high slots
for _i in range(40):
    sym(f"pad{_i}")
_WIDE = 2 ** 30 - 1   # two such exponents still add up below the field limit


@st.composite
def packed_polys(draw):
    """Polynomials whose rho exponents reach far below zero beside symbols
    in high slots with large exponents, so the signed field borrows."""
    names = ("rho", "x", "hi_a", "hi_b")
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mono = []
        for name in names:
            lo = -_WIDE if name == "rho" else 0
            e = draw(st.one_of(st.integers(-2 if name == "rho" else 0, 2),
                               st.integers(lo, _WIDE)))
            mono.append((name, e))
        coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        key = tuple(draw(st.permutations(mono)))
        terms[key] = terms.get(key, 0) + coeff
    return LaurentPolynomial(terms)


@settings(max_examples=150, deadline=None)
@given(packed_polys(), packed_polys())
def test_packed_arithmetic_matches_tuple_merge(a, b):
    """Products and sums of packed monomials equal the tuple-merge
    reference, and terms() gives back sorted tuples that rebuild the value."""
    fa, fb = _fraction_terms(a), _fraction_terms(b)
    for value, expected in ((a * b, _schoolbook(fa, fb)), (a + b, _schoolbook(fa, fb, 1)),
                            (a - b, _schoolbook(fa, fb, -1))):
        terms = value.terms()
        assert terms == expected
        for mono in terms:
            assert list(mono) == sorted(mono)
            assert all(type(e) is int and e for _, e in mono)
        assert LaurentPolynomial(terms) == value
        assert value.symbols() == {n for mono in expected for n, _ in mono}
        if not value.is_zero:
            rho = [dict(m).get("rho", 0) for m in expected]
            assert (value.min_exponent("rho"), value.max_exponent("rho")) == (min(rho), max(rho))
            assert sorted(value.split("rho")) == sorted(set(rho))


def test_exponent_past_the_field_refused():
    with pytest.raises(SizeLimit):
        sym("x") ** (2 ** 40)
    with pytest.raises(SizeLimit):
        monomial(1, rho=-(2 ** 40))
    with pytest.raises(SizeLimit):
        monomial(1, x=2 ** 30) * monomial(1, x=2 ** 30)
    top = monomial(1, x=2 ** 30 - 1) * monomial(1, x=2 ** 30, rho=-(2 ** 30 - 1))
    assert top.terms() == {(("rho", -(2 ** 30 - 1)), ("x", 2 ** 31 - 1)): 1}


def test_dot_refuses_a_pair_past_the_field():
    # the one pair whose bounds reach the limit fails the whole sum, as
    # its product alone would
    big = monomial(1, x=2 ** 30)
    with pytest.raises(SizeLimit):
        _dot([(ONE, X), (big, big), (X, X)])
    top = _dot([(monomial(1, x=2 ** 30 - 1), big), (ONE, X)])
    assert top == monomial(1, x=2 ** 31 - 1) + X


def test_product_over_many_symbols_is_exact():
    names = [f"many{i}" for i in range(320)]
    m = monomial(3, rho=-3)
    for i, name in enumerate(names):
        m = m * sym(name) ** (i % 5 + 1)
    expected = (("rho", -3),) + tuple(sorted((n, i % 5 + 1) for i, n in enumerate(names)))
    assert m.terms() == {tuple(sorted(expected)): 3}
    assert (m + 1) * (m - 1) == m * m - 1
    assert m.substitute(dict.fromkeys(names, 2)) == monomial(
        3 * 2 ** sum(i % 5 + 1 for i in range(320)), rho=-3)
    assert parse_polynomial(m.render()) == m


def test_pickle_survives_another_slot_order():
    # the loading process hands out its slots in another order
    value = sym("pickled_b") ** 2 * monomial(Fraction(1, 3), rho=-2) + sym("pickled_a")
    code = ("import pickle, sys; from latpoly import sym; sym('pickled_a'); "
            "print(pickle.loads(sys.stdin.buffer.read()).render())")
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(value),
                         capture_output=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.decode().strip() == value.render()
    assert pickle.loads(pickle.dumps(value)) == value


def test_slot_registration_across_threads():
    """Eight threads meet every new symbol at once: each must get one slot,
    and the values the threads build must be equal."""
    names = [f"thread_sym{i}" for i in range(2000)]
    built = [[] for _ in range(8)]
    start = threading.Barrier(8)

    def worker(k):
        start.wait()
        for name in names:
            built[k].append(sym(name) * monomial(1, rho=-1) + X)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(_slot_names) == len(set(_slot_names))
    for i, name in enumerate(names):
        expected = {(("rho", -1), (name, 1)): 1, (("x", 1),): 1}
        for results in built:
            assert results[i].terms() == expected
            assert results[i] == built[0][i]
