import random
import warnings
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from narayana.generating import narayana_polynomial
import narayana.polynomials as polynomials_module
from narayana.polynomials import (
    SQUARE_FREE_SPLIT_DEGREE,
    IntPolynomial,
    RealRootCertificate,
    _derivative,
    _descartes_root_count,
    _palindromic_certificate,
    _plain_certificate,
    _remainder_chain,
    _root_bound_exponent,
    is_log_concave,
    is_real_rooted,
    is_unimodal,
    newton_inequalities_hold,
    poly_gcd,
    square_free_part,
    sturm_real_root_count,
)


def P(*coeffs):
    return IntPolynomial(coeffs)


def test_normalization_strips_trailing_zeros():
    assert P(1, 2, 0, 0).coefficients == (1, 2)
    assert P(0, 0).coefficients == ()
    assert P(1, 2) == IntPolynomial([1, 2, 0])


def test_zero_polynomial():
    zero = IntPolynomial()
    assert zero.is_zero
    assert zero.degree == -1
    assert zero.leading_coefficient == 0
    assert not zero
    assert zero == 0


def test_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        IntPolynomial([1.5])
    with pytest.raises(TypeError):
        IntPolynomial([Fraction(1, 2)])
    with pytest.raises(TypeError, match="got bool"):
        IntPolynomial([True, 2, True])
    assert IntPolynomial([1]) != True  # noqa: E712
    with pytest.raises(TypeError):
        IntPolynomial([1]) + True
    with pytest.raises(TypeError):
        IntPolynomial([1]) * True


def test_arithmetic_examples():
    one_plus_t = P(1, 1)
    assert one_plus_t * one_plus_t == P(1, 2, 1)
    assert P(1, 3, 1).derivative() == P(3, 2)
    assert P(1, 3, 1)(1) == 5
    assert P(1, 3, 1) + P(0, -3) == P(1, 0, 1)
    assert P(1, 1) - P(1, 1) == IntPolynomial()
    assert 2 * P(1, 1) == P(2, 2)
    assert P(1, 1) * 0 == 0


def test_shift_and_monomial():
    assert P(1, 3, 1).shift(2) == P(0, 0, 1, 3, 1)
    assert IntPolynomial().shift(3).is_zero
    assert IntPolynomial.monomial(3, 5) == P(0, 0, 0, 5)
    with pytest.raises(ValueError):
        P(1).shift(-1)


def test_evaluate_at_rational():
    assert P(1, 3, 1)(Fraction(1, 2)) == Fraction(11, 4)
    assert P(1, 3, 1)(-1) == -1
    with pytest.raises(TypeError):
        P(1, 1)(0.5)


def test_coefficient_access():
    p = P(1, 3, 1)
    assert [p.coefficient(k) for k in range(5)] == [1, 3, 1, 0, 0]
    assert p.coefficient(-1) == 0


def test_content_and_primitive():
    assert P(2, 4, 6).content() == 2
    assert P(2, 4, 6).primitive() == P(1, 2, 3)
    assert P(-2, -4).primitive() == P(1, 2)
    assert IntPolynomial().primitive().is_zero


def test_poly_gcd():
    one_plus_t = P(1, 1)
    assert poly_gcd(one_plus_t * one_plus_t, one_plus_t * P(1, 2)) == one_plus_t
    assert poly_gcd(P(2, 2), P(4)) == P(2)
    assert poly_gcd(P(0), P(0)).is_zero
    assert poly_gcd(P(0), P(-3, -3)) == P(3, 3)
    assert poly_gcd(P(-1, -1), P(1, 1)) == P(1, 1)


def test_square_free_part_examples():
    assert square_free_part(P(1, 2, 1)) == P(1, 1)
    assert square_free_part(P(0, 0, 1, 1)) == P(0, 1, 1)
    assert square_free_part(P(1, 3, 1)) == P(1, 3, 1)
    assert square_free_part(P(-2, -2)) == P(1, 1)
    assert square_free_part(P(7)) == P(1)
    with pytest.raises(ValueError):
        square_free_part(IntPolynomial())


def test_sturm_examples():
    assert sturm_real_root_count(P(-2, 0, 1)) == 2
    assert sturm_real_root_count(P(1, 3, 1), None, 0) == 2
    assert sturm_real_root_count(P(1, 1, 1)) == 0
    assert sturm_real_root_count(P(1, 1)) == 1
    assert sturm_real_root_count(P(5)) == 0


def test_sturm_half_open_convention():
    t = P(0, 1)
    assert sturm_real_root_count(t, -1, 0) == 1
    assert sturm_real_root_count(t, 0, 1) == 0
    assert sturm_real_root_count(P(-1, 0, 1), Fraction(-3, 2), 1) == 2


def test_sturm_rejects_bad_input():
    with pytest.raises(ValueError):
        sturm_real_root_count(P(1, 2, 1))
    with pytest.raises(ValueError):
        sturm_real_root_count(IntPolynomial())
    with pytest.raises(ValueError):
        sturm_real_root_count(P(1, 1), 2, 1)
    with pytest.raises(TypeError):
        sturm_real_root_count(P(1, 1), 0.0, None)


def test_real_rooted_examples():
    assert is_real_rooted(P(1, 3, 1))
    assert not is_real_rooted(P(1, 1, 1))
    assert is_real_rooted(P(5))
    assert is_real_rooted(P(0, 1))
    with pytest.raises(ValueError):
        is_real_rooted(IntPolynomial())


def test_real_rooted_ignores_multiplicity():
    cube = P(1, 1) * P(1, 1) * P(1, 1)
    certificate = is_real_rooted(cube)
    assert certificate.real_rooted
    assert certificate.square_free_degree == 1
    assert certificate.distinct_real_roots == 1
    assert is_real_rooted(P(0, 0, 1, 1))
    mixed = P(1, 1, 1) * P(1, 1, 1)
    assert not is_real_rooted(mixed)


def _chain_variations(poly):
    """Sign variations of the remainder chain of p and p' at -infinity and
    +infinity, read off the leading coefficients of its elements."""
    if poly.degree < 1:
        return 0, 0
    chain = _remainder_chain(poly.coefficients, poly.derivative().coefficients)

    def variations(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_positive = [q[-1] > 0 for q in chain]
    at_negative = [(q[-1] > 0) == (len(q) % 2 == 1) for q in chain]
    return variations(at_negative), variations(at_positive)


def test_real_rooted_certificate_fields():
    poly = P(1, 3, 1)
    certificate = is_real_rooted(poly)
    at_negative, at_positive = _chain_variations(poly)
    assert (at_negative, at_positive) == (2, 0)
    assert at_negative - at_positive == certificate.distinct_real_roots
    assert (certificate.real_rooted, certificate.square_free_degree) == (True, 2)
    assert bool(certificate) is True


def _quadratic_real_rooted(a, b, c):
    return b * b - 4 * a * c >= 0


def _cubic_real_rooted(a, b, c, d):
    disc = (
        18 * a * b * c * d
        - 4 * b**3 * d
        + b**2 * c**2
        - 4 * a * c**3
        - 27 * a**2 * d**2
    )
    return disc >= 0


def test_real_rooted_matches_discriminant_on_small_box():
    span = range(-4, 5)
    for a in span:
        if a == 0:
            continue
        for b in span:
            for c in span:
                expected = _quadratic_real_rooted(a, b, c)
                assert bool(is_real_rooted(P(c, b, a))) == expected, (a, b, c)


def test_log_concave_and_unimodal_examples():
    assert is_log_concave(P(1, 3, 1))
    assert is_unimodal(P(1, 3, 1))
    assert not is_log_concave(P(1, 1, 2, 1))
    assert is_unimodal(P(1, 1, 2, 1))
    assert is_log_concave(P(7))
    assert is_unimodal(P(7))
    assert not is_log_concave(P(1, 0, 1))
    assert not is_unimodal(P(1, 0, 1))
    assert is_unimodal(P(1, 2, 2, 1))
    assert is_unimodal(P(3, 2, 1))


def test_negative_coefficients_warn():
    with pytest.warns(UserWarning):
        is_log_concave(P(-1, 2))
    with pytest.warns(UserWarning):
        is_unimodal(P(1, -2, 1))
    with pytest.warns(UserWarning):
        newton_inequalities_hold(P(1, -2, 1))


def test_newton_examples():
    assert newton_inequalities_hold(P(1, 3, 1))
    assert newton_inequalities_hold(P(1, 1))
    assert newton_inequalities_hold(P(5))
    # log-concave witness that misses the strengthened bound
    witness = P(1, 2, 2, 1)
    assert is_log_concave(witness)
    assert not newton_inequalities_hold(witness)
    assert not is_real_rooted(witness)


def _newton_by_fractions(a):
    n = len(a) - 1
    return all(
        Fraction(a[k] * a[k])
        >= Fraction(a[k - 1] * a[k + 1]) * Fraction(k + 1, k) * Fraction(n - k + 1, n - k)
        for k in range(1, n)
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=3, max_size=9).filter(lambda a: a[-1] != 0))
def test_newton_matches_the_fraction_formula(a):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert newton_inequalities_hold(IntPolynomial(a)) == _newton_by_fractions(a)


@pytest.mark.parametrize("n", range(2, 12))
def test_binomial_rows_meet_newton_with_equality(n):
    row = [comb(n, k) for k in range(n + 1)]
    for k in range(1, n):
        assert row[k] ** 2 * k * (n - k) == row[k - 1] * row[k + 1] * (k + 1) * (n - k + 1)
    assert newton_inequalities_hold(IntPolynomial(row))
    for k in range(1, n):
        lowered = row[:k] + [row[k] - 1] + row[k + 1 :]
        assert not newton_inequalities_hold(IntPolynomial(lowered)), (n, k)


@st.composite
def polynomials(draw, max_degree=5, bound=20):
    coeffs = draw(
        st.lists(
            st.integers(min_value=-bound, max_value=bound),
            min_size=1,
            max_size=max_degree + 1,
        )
    )
    return IntPolynomial(coeffs)


@given(polynomials(), polynomials(), st.fractions())
def test_evaluation_is_a_ring_homomorphism(p, q, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)


@given(polynomials())
def test_derivative_of_product(p):
    q = IntPolynomial([2, 0, 1])
    left = (p * q).derivative()
    right = p.derivative() * q + p * q.derivative()
    assert left == right


@given(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 6)), min_size=1, max_size=5))
def test_real_rooted_products_pass_the_whole_chain(factors):
    poly = IntPolynomial.one()
    for slope, root in factors:
        poly = poly * IntPolynomial([root, slope])
    certificate = is_real_rooted(poly)
    assert certificate.real_rooted
    assert newton_inequalities_hold(poly)
    assert is_log_concave(poly)
    assert is_unimodal(poly)


@settings(max_examples=60)
@given(polynomials(max_degree=6, bound=15), st.integers(-8, 8), st.integers(-8, 8))
def test_sturm_count_is_additive_over_splits(p, a, b):
    if p.is_zero or p.degree < 1:
        return
    q = square_free_part(p)
    if q.degree < 1:
        return
    lo, hi = min(a, b), max(a, b)
    total = sturm_real_root_count(q)
    split = (
        sturm_real_root_count(q, None, lo)
        + sturm_real_root_count(q, lo, hi)
        + sturm_real_root_count(q, hi, None)
    )
    assert total == split


def test_sturm_additivity_deterministic_sample():
    rng = random.Random(402)
    for _ in range(200):
        degree = rng.randint(1, 6)
        coeffs = [rng.randint(-30, 30) for _ in range(degree)] + [rng.randint(1, 30)]
        q = square_free_part(IntPolynomial(coeffs))
        if q.degree < 1:
            continue
        cuts = sorted(rng.sample(range(-50, 51), 3))
        pieces = [
            sturm_real_root_count(q, None, cuts[0]),
            sturm_real_root_count(q, cuts[0], cuts[1]),
            sturm_real_root_count(q, cuts[1], cuts[2]),
            sturm_real_root_count(q, cuts[2], None),
        ]
        assert sum(pieces) == sturm_real_root_count(q)


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(st.fractions(-6, 6, max_denominator=3), st.integers(1, 3)),
        max_size=4,
        unique_by=lambda pair: pair[0],
    ),
    st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 6)), max_size=2, unique=True),
    st.integers(-5, 5).filter(bool),
)
def test_certificate_matches_a_known_root_structure(roots, quadratics, scale):
    # distinct rational roots with multiplicities, times distinct monic
    # quadratics t^2 + b t + c whose c exceeds b^2/4, so they have no real root
    poly = IntPolynomial([scale])
    for root, multiplicity in roots:
        for _ in range(multiplicity):
            poly = poly * IntPolynomial([-root.numerator, root.denominator])
    for b, excess in quadratics:
        poly = poly * IntPolynomial([b * b // 4 + excess, b, 1])
    certificate = is_real_rooted(poly)
    assert certificate.real_rooted == (not quadratics)
    assert certificate.square_free_degree == len(roots) + 2 * len(quadratics)
    assert certificate.distinct_real_roots == len(roots)
    at_negative, at_positive = _chain_variations(poly)
    assert at_negative - at_positive == certificate.distinct_real_roots


# palindromic factors with real roots: (a t + 1)(t + a), 1 + t and (t - 1)^2;
# and others: t^2 + b t + 1 with |b| < 2 (a pair on the unit circle), and
# c + e t + f t^2 + e t^3 + c t^4
_real_rooted_palindromes = st.one_of(
    st.integers(-5, 5).filter(bool).map(lambda a: IntPolynomial([a, a * a + 1, a])),
    st.just(IntPolynomial([1, 1])),
    st.just(IntPolynomial([1, -2, 1])),
)
_other_palindromes = st.one_of(
    st.integers(-1, 1).map(lambda b: IntPolynomial([1, b, 1])),
    st.tuples(st.integers(-6, 6).filter(bool), st.integers(-9, 9), st.integers(-12, 12)).map(
        lambda c: IntPolynomial([c[0], c[1], c[2], c[1], c[0]])
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_real_rooted_palindromes, min_size=1, max_size=6, unique=True),
    st.lists(_other_palindromes, max_size=2),
    st.booleans(),
    st.integers(-4, 4).filter(bool),
)
def test_palindromic_certificate_equals_the_plain_chain(real, other, squared, scale):
    poly = IntPolynomial([scale])
    for factor in real + other:
        poly = poly * factor
    if squared:
        poly = poly * poly
    assert poly.coefficients == poly.coefficients[::-1]
    assert is_real_rooted(poly) == _plain_certificate(poly.coefficients)


def test_palindromic_route_accepts_and_declines():
    t_plus_one = P(1, 1)
    # accepted: simple roots of q below -2, at 2 (from (t - 1)^2), at -2
    # (from (1 + t)^2, and from (1 + t)^3 of odd degree)
    for p in (
        narayana_polynomial(4, 3),
        P(1, -2, 1) * P(2, 5, 2),
        t_plus_one * t_plus_one,
        t_plus_one * t_plus_one * t_plus_one,
        P(3, 10, 3) * t_plus_one,
    ):
        certificate = _palindromic_certificate(p.coefficients)
        assert certificate is not None and certificate.real_rooted
        assert certificate == _plain_certificate(p.coefficients)
    # declined: q not square-free, a root of q in (-2, 2), a non-real root
    for p in (P(1, 2, 1) * P(1, 2, 1), P(1, 1, 1), P(1, 2, 1, 2, 1), P(1, 0, 3, 0, 1)):
        assert _palindromic_certificate(p.coefficients) is None
        assert is_real_rooted(p) == _plain_certificate(p.coefficients)


def test_every_narayana_polynomial_up_to_100_cells_certifies():
    for n in range(1, 101):
        for m in range(1, 100 // n + 1):
            poly = narayana_polynomial(n, m)
            certificate = is_real_rooted(poly)
            assert certificate.real_rooted, (n, m)
            assert certificate.distinct_real_roots == poly.degree, (n, m)


def _eulerian(n):
    """A_n(t) = sum_k A(n, k) t^k, of degree n - 1, by the Eulerian recurrence."""
    row = [1]
    for size in range(2, n + 1):
        row = [(k + 1) * (row[k] if k < len(row) else 0) + (size - k) * (row[k - 1] if k else 0)
               for k in range(size)]
    return IntPolynomial(row)


def _with_roots(roots):
    """prod (b t - a) over the roots a/b, in lowest terms."""
    poly = IntPolynomial.one()
    for root in roots:
        poly = poly * P(-root.numerator, root.denominator)
    return poly


_dyadic = st.builds(lambda k, j: Fraction(k, 2**j), st.integers(-64, 64), st.integers(0, 6))


@st.composite
def _square_free_products(draw):
    """A square-free product and its number of real roots: distinct rational
    roots (dyadic k/2^j, which fall on bisection midpoints, 0 and both
    signs), close pairs a/1000 and (a+1)/1000, distinct irreducible
    quadratics t^2 + b t + c, and in half the draws the Eulerian A_29, whose
    coefficients pass 100 bits (A_n(-1) != 0 for odd n, so its roots, real
    and irrational, are none of the others); fewer other factors come with
    it, which keeps the chain of the product cheap."""
    eulerian = draw(st.booleans())
    room = 1 if eulerian else 2
    roots = set(draw(st.lists(_dyadic, max_size=3 * room)))
    for a in draw(st.lists(st.integers(-3000, 3000), max_size=room)):
        roots |= {Fraction(a, 1000), Fraction(a + 1, 1000)}
    poly = _with_roots(roots) * draw(st.integers(-3, 3).filter(bool))
    quadratics = st.tuples(st.integers(-4, 4), st.integers(1, 6))
    for b, excess in draw(st.lists(quadratics, max_size=room, unique=True)):
        poly = poly * P(b * b // 4 + excess, b, 1)
    if eulerian:
        return poly * _eulerian(29), len(roots) + 28
    return poly, len(roots)


@settings(max_examples=60, deadline=None)
@given(_square_free_products())
def test_descartes_count_equals_the_chain(product):
    poly, count = product
    if poly.degree < 1:
        return
    at_negative, at_positive = _chain_variations(poly)
    assert _descartes_root_count(poly.coefficients) == at_negative - at_positive == count


@pytest.mark.parametrize("j", range(2, 9))
def test_descartes_count_at_the_root_bound_and_the_midpoints(j):
    # roots at -2**j and 2**j, with two more at 1 and 2 so that the positive
    # side is bisected: Fujiwara's bound puts 2**j at half the bound, and a
    # bound one bit lower would put it on the boundary
    poly = P(-(4**j), 0, 1) * P(-1, 1) * P(-2, 1)
    assert 2**j < 2 ** _root_bound_exponent(poly.coefficients) <= 2 ** (j + 1)
    assert _descartes_root_count(poly.coefficients) == 4
    # k/4 for |k| <= j, 0 among them: every root is a dyadic midpoint
    quarters = _with_roots(Fraction(k, 4) for k in range(-j, j + 1))
    assert _descartes_root_count(quarters.coefficients) == 2 * j + 1
    assert _descartes_root_count((quarters * P(1, 0, 1)).coefficients) == 2 * j + 1


# factors with simple roots: real-rooted palindromes (a t + 1)(t + a) and
# 1 + t, rational linear factors b t + c, and irreducible quadratics
_split_factors = st.one_of(
    st.integers(-5, 5).filter(lambda a: abs(a) > 1).map(lambda a: IntPolynomial([a, a * a + 1, a])),
    st.just(IntPolynomial([1, 1])),
    st.tuples(st.integers(1, 4), st.integers(-6, 6)).map(lambda bc: IntPolynomial([bc[1], bc[0]])),
    st.tuples(st.integers(1, 5), st.integers(-5, 5), st.integers(1, 9))
    .filter(lambda q: q[1] * q[1] < 4 * q[0] * q[2])
    .map(lambda q: IntPolynomial([q[2], q[1], q[0]])),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_split_factors, st.integers(1, 3)), min_size=1, max_size=9),
    st.integers(-3, 3).filter(bool),
)
def test_square_free_split_equals_the_plain_chain(factors, scale):
    poly = IntPolynomial([scale])
    for factor, multiplicity in factors:
        for _ in range(multiplicity):
            poly = poly * factor
    assert is_real_rooted(poly) == _plain_certificate(poly.coefficients)
    # against gcd(p, p') read off the remainder chain alone
    chain = polynomials_module._remainder_chain(poly.coefficients, poly.derivative().coefficients)
    chain_gcd = IntPolynomial(chain[-1]).primitive()
    assert poly_gcd(poly, poly.derivative()).primitive() == chain_gcd
    assert square_free_part(poly) * chain_gcd == poly.primitive()


def _palindromic_product(factors):
    """prod (a t + 1)(t + a), with the distinct real roots -a and -1/a."""
    poly = IntPolynomial.one()
    for a in factors:
        poly = poly * P(a, a * a + 1, a)
    return poly


# palindromic inputs whose q has degree h >= 16, which the half-degree route
# decides on the Descartes counter alone: r(x) = q(-2 - x) must have h
# positive roots, and q must be proved square-free
_BASE30 = _palindromic_product(range(2, 17))


def _no_chain(a, b):
    raise AssertionError("a remainder chain was built")


@pytest.mark.parametrize(
    "make",
    [lambda: narayana_polynomial(10, 10), lambda: narayana_polynomial(12, 12), lambda: _eulerian(47)],
    ids=["N(10,10)", "N(12,12)", "A_47"],
)
def test_the_half_degree_counter_accepts_without_any_chain(make, monkeypatch):
    poly = make()
    assert poly.degree // 2 >= SQUARE_FREE_SPLIT_DEGREE
    monkeypatch.setattr(polynomials_module, "_remainder_chain", _no_chain)
    assert is_real_rooted(poly) == RealRootCertificate(True, poly.degree, poly.degree)


# q(-2) = 0; q has a root 5/2 > 2 and p the positive roots 2 and 1/2; q is not
# square-free, though r has h sign variations; q has the root -1 in (-2, 2);
# q has the roots -3 +- i, and r h sign variations but h - 2 positive roots;
# and one that the counter accepts
_HALF_DEGREE_CASES = {
    "(1+t)^2": _BASE30 * P(1, 1) * P(1, 1),
    "(t-2)(2t-1)": _BASE30 * P(2, -5, 2),
    "squared": _BASE30 * P(20, 401, 20) * P(20, 401, 20),
    "t^2+t+1": _BASE30 * P(1, 1, 1),
    "-3+-i": _BASE30 * P(1, 6, 12, 6, 1),
    "A_35": _eulerian(35),
}


@pytest.mark.parametrize("poly", _HALF_DEGREE_CASES.values(), ids=_HALF_DEGREE_CASES.keys())
def test_the_half_degree_route_equals_the_plain_chain(poly, monkeypatch):
    assert poly.degree // 2 >= SQUARE_FREE_SPLIT_DEGREE
    counter = polynomials_module._positive_root_count

    def square_free_only(coefficients, k):
        chain = _remainder_chain(coefficients, _derivative(coefficients))
        assert len(chain[-1]) == 1, "the counter got an input with a repeated root"
        return counter(coefficients, k)

    monkeypatch.setattr(polynomials_module, "_positive_root_count", square_free_only)
    assert is_real_rooted(poly) == _plain_certificate(poly.coefficients)


@pytest.mark.parametrize(
    "poly",
    [poly for name, poly in _HALF_DEGREE_CASES.items() if name != "A_35"],
    ids=[name for name in _HALF_DEGREE_CASES if name != "A_35"],
)
def test_the_half_degree_route_declines_without_the_chain_of_q(poly, monkeypatch):
    # from h = 16 a declined count leaves p to the split; the chain of q is
    # not built as a second try
    monkeypatch.setattr(polynomials_module, "_remainder_chain", _no_chain)
    assert _palindromic_certificate(poly.coefficients) is None


@pytest.mark.parametrize("n, m", [(n, n) for n in range(7, 12)] + [(4, 12), (4, 15), (4, 20), (3, 20), (5, 9)])
def test_descartes_counts_every_root_of_narayana_polynomials(n, m):
    # on p itself: no Dickson step, no shift and no half degree
    poly = narayana_polynomial(n, m)
    assert poly.degree >= 32
    assert _descartes_root_count(poly.coefficients) == poly.degree


def _takes_the_split(poly, monkeypatch):
    """is_real_rooted(poly), asserting that the chain of poly itself is never
    built, neither for a certificate nor as a gcd's fallback."""
    lengths = []
    plain = polynomials_module._plain_certificate
    chain = polynomials_module._remainder_chain

    def plain_spy(coefficients):
        lengths.append(len(coefficients))
        return plain(coefficients)

    def chain_spy(a, b):
        lengths.append(len(a))
        return chain(a, b)

    monkeypatch.setattr(polynomials_module, "_plain_certificate", plain_spy)
    monkeypatch.setattr(polynomials_module, "_remainder_chain", chain_spy)
    certificate = is_real_rooted(poly)
    monkeypatch.undo()
    assert len(poly.coefficients) not in lengths
    return certificate


@pytest.mark.parametrize(
    "make",
    [
        lambda: _eulerian(47) * P(7, 3) * P(7, 3),
        lambda: _palindromic_product(range(2, 24)) * P(5, 2) * P(5, 2),
        lambda: narayana_polynomial(5, 5) * narayana_polynomial(5, 5),
    ],
    ids=["eulerian47-square", "palindromic44-square", "narayana55-squared"],
)
def test_repeated_roots_take_the_split_and_equal_the_chain(make, monkeypatch):
    poly = make()
    assert poly.degree >= SQUARE_FREE_SPLIT_DEGREE
    certificate = _takes_the_split(poly, monkeypatch)
    assert certificate.real_rooted
    assert certificate == _plain_certificate(poly.coefficients)


@pytest.mark.parametrize(
    "make, expected",
    [
        (lambda: _eulerian(47) * P(1, 1, 1), (False, 48, 46)),
        (lambda: P(1, 1, 1) * P(1, 1, 1) * _eulerian(14), (False, 15, 13)),
    ],
    ids=["eulerian47-palindromic-no", "eulerian14-repeated-no"],
)
def test_the_no_path_builds_no_chain_of_p(make, expected, monkeypatch):
    # a palindromic input whose q has a non-real root, and one whose repeated
    # factor t^2 + t + 1 is not real-rooted; the expected counts are those the
    # chain of p gives (0.3 s for the first, so it is not rebuilt here)
    poly = make()
    assert poly.degree >= SQUARE_FREE_SPLIT_DEGREE
    certificate = _takes_the_split(poly, monkeypatch)
    assert (certificate.real_rooted, certificate.square_free_degree, certificate.distinct_real_roots) == expected


# (3t + 1)^2 t (t + 1)(t + 5): 3 divides the leading coefficient, and modulo
# 3 the polynomial is t (t + 1)(t + 2), square-free, so an image modulo 3
# would miss the repeated root; modulo 5, t + 5 = t inflates the image's degree
_UNLUCKY = P(1, 3) * P(1, 3) * P(0, 1) * P(1, 1) * P(5, 1)


@pytest.mark.parametrize("moduli", [(3,), (5,), (3, 5), (5, 2**127 - 1), ()])
def test_a_wrong_modulus_is_never_accepted(moduli, monkeypatch):
    monkeypatch.setattr(polynomials_module, "_GCD_MODULI", moduli)
    assert square_free_part(_UNLUCKY) == P(1, 3) * P(0, 1) * P(1, 1) * P(5, 1)
    assert poly_gcd(_UNLUCKY, _UNLUCKY.derivative()) == P(1, 3)
    for poly in (_UNLUCKY * _eulerian(13), _UNLUCKY * _eulerian(13) * P(1, 1, 1), _eulerian(16) * P(1, 3) * P(1, 3)):
        assert poly.degree >= SQUARE_FREE_SPLIT_DEGREE
        assert is_real_rooted(poly) == _plain_certificate(poly.coefficients)


@pytest.mark.parametrize("image", [[3, 1], [5, 0, 1], [1, -2, 1]], ids=["t+3", "t^2+5", "(t-1)^2"])
def test_a_wrong_image_is_never_accepted(image, monkeypatch):
    # none of these divides the polynomials below, so none divides a pair
    # whose gcd Yun's steps look for
    monkeypatch.setattr(polynomials_module, "_gcd_image", lambda a, b, modulus: list(image))
    assert poly_gcd(_UNLUCKY, _UNLUCKY.derivative()) == P(1, 3)
    for poly in (_UNLUCKY * _eulerian(13), narayana_polynomial(5, 5) * narayana_polynomial(5, 5)):
        assert is_real_rooted(poly) == _plain_certificate(poly.coefficients)
