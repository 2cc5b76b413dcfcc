"""Exact univariate polynomial arithmetic over the integers.

Coefficients are arbitrary-precision Python integers stored densely, low
degree first. Real-root counting runs on Sturm sequences built from integer
pseudo-remainders that are only ever rescaled by positive factors, so sign
patterns are exact; evaluations at rational points use ``Fraction``. A
palindromic polynomial of degree d is certified through a polynomial q of
degree h = floor(d/2) in t + 1/t: from h = 16 on, by counting the roots of
q below -2 with Descartes' rule of signs and bisection on integer Bernstein
coefficients, and below that by the Sturm chain of q. Failing that, a
polynomial of degree 16 or more is split into Yun's square-free factors,
with gcds from images modulo Mersenne primes accepted only by exact
division, and each factor's real roots are counted by the same Descartes
counter; below degree 16 the Sturm chain of p decides. The certificate is
always the one the chain gives. No floating point enters any certification
path. ``compare_sequences`` reports the first mismatch of two coefficient
vectors (``IdentityReport``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, zip_longest
from math import comb, gcd, lcm
from operator import add, ne, or_
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]


class IntPolynomial:
    """Dense integer-coefficient polynomial; ``coefficients[k]`` multiplies t^k.

    Canonical form: no trailing zero coefficients, so equal polynomials carry
    identical tuples. The zero polynomial is the empty tuple and has degree -1.
    """

    __slots__ = ("coefficients",)

    coefficients: tuple[int, ...]

    def __init__(self, coefficients: Iterable[int] = ()) -> None:
        coeffs = list(coefficients)
        for c in coeffs:
            if type(c) is not int:
                raise TypeError(f"integer coefficients required, got {type(c).__name__}")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients = tuple(coeffs)

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "IntPolynomial":
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return cls((0,) * exponent + (coefficient,))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def leading_coefficient(self) -> int:
        return self.coefficients[-1] if self.coefficients else 0

    def coefficient(self, exponent: int) -> int:
        if 0 <= exponent < len(self.coefficients):
            return self.coefficients[exponent]
        return 0

    def __eq__(self, other: object) -> bool:
        if type(other) is int:
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coefficients))

    def __add__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if type(other) is int:
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    __radd__ = __add__

    def __sub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if type(other) is int:
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        return (-self) + other

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if type(other) is int:
            return IntPolynomial(tuple(other * c for c in self.coefficients))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPolynomial()
        a, b = self.coefficients, other.coefficients
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return IntPolynomial(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by t**k."""
        if k < 0:
            raise ValueError("shift exponent must be nonnegative")
        if self.is_zero or k == 0:
            return self
        return IntPolynomial((0,) * k + self.coefficients)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(_derivative(self.coefficients))

    def __call__(self, point: Rational) -> Rational:
        if isinstance(point, float):
            raise TypeError("exact evaluation only; pass int or Fraction")
        return _evaluate(self.coefficients, point)

    def content(self) -> int:
        """Positive gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coefficients:
            g = gcd(g, c)
        return g

    def primitive(self) -> "IntPolynomial":
        """Content divided out, leading coefficient normalized positive."""
        if self.is_zero:
            return self
        return IntPolynomial(_primitive(self.coefficients))

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coefficients)!r})"


# Moduli of the gcd images, in the order they are tried: Mersenne primes.
_GCD_MODULI = tuple(2**k - 1 for k in (127, 521, 1279, 2203, 4423))

# Least degree at which is_real_rooted splits p into square-free factors and
# counts their real roots by Descartes' rule instead of building the chain of
# p: on Eulerian and palindromic products times a squared linear factor, the
# split and the chain of p cost the same at degree 16, and the split is
# cheaper from there on; below it, the chain also beats the Descartes counter
# (see README). It is also the least degree h of q at which the palindromic
# route counts q's roots below -2 instead of building the chain of q. The two
# crossovers were not measured at the same point: at h = 16 the chain of q
# is still the cheaper on plain Eulerian inputs (the counter wins between
# h = 16 and h = 19) and on the small-coefficient narayana2 family at every
# h tried; the certify round as a whole is cheaper with the counter.
SQUARE_FREE_SPLIT_DEGREE = 16


def _strip(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _derivative(coefficients: Sequence[int]) -> list[int]:
    return [k * coefficients[k] for k in range(1, len(coefficients))]


def _evaluate(coefficients: Sequence[int], point: Rational) -> Rational:
    acc: Rational = 0
    for c in reversed(coefficients):
        acc = acc * point + c
    return acc


def _primitive(coefficients: Sequence[int]) -> list[int]:
    """A nonzero polynomial divided by its content, with positive leading
    coefficient."""
    g = gcd(*coefficients)
    if coefficients[-1] < 0:
        g = -g
    return [c // g for c in coefficients]


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Remainder of lc(b)**(deg a - deg b + 1) * a modulo b, over the integers.

    One step per degree of the quotient, even when its coefficient is 0, so
    the multiplier is fixed and its sign (needed by the Sturm construction)
    is deterministic.
    """
    lead = b[-1]
    r = list(a)
    for offset in range(len(a) - len(b), -1, -1):
        q = r.pop()
        r = [lead * c for c in r[:offset]] + [lead * c - q * d for c, d in zip(r[offset:], b)]
    return r


def _exact_div(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Quotient a / b when b divides a exactly over the integers."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return []
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    quotient = [0] * (len(a) - len(b) + 1)
    while r and len(r) - 1 >= db:
        qc, remainder = divmod(r[-1], lead)
        if remainder:
            raise ArithmeticError("polynomial division is not exact")
        offset = len(r) - 1 - db
        quotient[offset] = qc
        for i, bc in enumerate(b):
            r[offset + i] -= qc * bc
        _strip(r)
    if r:
        raise ArithmeticError("polynomial division is not exact")
    return quotient


def _remainder_chain(a: Sequence[int], b: Sequence[int]) -> list[Sequence[int]]:
    """Signed remainder sequence a, b, -rem(a, b), ... of two nonzero
    coefficient lists with deg a >= deg b, up to its last nonzero element,
    which is a gcd of a and b up to a constant factor.

    Each remainder is divided by its (positive) content; along with the
    sign-corrected pseudo-remainder this only ever rescales by positive
    factors, which leaves sign variation counts intact. For (p, p') this is
    the Sturm chain of p, and by the generalized Sturm theorem it counts the
    distinct real roots of p even when p is not square-free.
    """
    chain = [a, b]
    while len(b) > 1:
        rem = _strip(_pseudo_remainder(a, b))
        if not rem:
            break
        # the multiplier lc(b)**(deg a - deg b + 1) is negative exactly then
        if not (b[-1] < 0 and (len(a) - len(b)) % 2 == 0):
            rem = [-c for c in rem]
        g = gcd(*rem)
        if g != 1:
            rem = [c // g for c in rem]
        chain.append(rem)
        a, b = b, rem
    return chain


def _gcd_image(a: Sequence[int], b: Sequence[int], modulus: int) -> list[int]:
    """The monic gcd of a and b modulo a prime that does not divide the
    leading coefficient of a, by Euclid's algorithm on pseudo-remainders,
    which needs a modular inverse only at the end."""
    x = [c % modulus for c in a]
    y = _strip([c % modulus for c in b])
    while y:
        lead, degree = y[-1], len(y) - 1
        while len(x) > degree:
            q, shifted = x[-1], [0] * (len(x) - 1 - degree) + y
            x = _strip([(lead * u - q * v) % modulus for u, v in zip(x, shifted)])
        x, y = y, x
    if len(x) == 1:
        return [1]
    inverse = pow(x[-1], -1, modulus)
    return [c * inverse % modulus for c in x]


def _proved_gcd(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """(g, a / g, b / g) for the primitive gcd g of two nonzero polynomials,
    with positive leading coefficient.

    g comes from a gcd image modulo a prime that divides neither leading
    coefficient, so that the gcd's image divides it and its degree bounds
    deg g. An image of degree 0 thus proves g = 1. Otherwise the image,
    scaled by the gcd of the leading coefficients, lifted to symmetric
    residues and made primitive, is accepted only if it divides a and b
    exactly: a common divisor of degree at least deg g is g. When it does
    not, the next modulus is tried, and after the last the remainder chain
    gives g.
    """
    scale = gcd(a[-1], b[-1])
    for modulus in _GCD_MODULI:
        if a[-1] % modulus == 0 or b[-1] % modulus == 0:
            continue
        image = _gcd_image(a, b, modulus)
        if len(image) == 1:
            return [1], list(a), list(b)
        half = modulus // 2
        candidate = _primitive(
            [r - modulus if r > half else r for r in (scale * c % modulus for c in image)]
        )
        try:
            return candidate, _exact_div(a, candidate), _exact_div(b, candidate)
        except ArithmeticError:
            continue
    g = _primitive(_remainder_chain(a, b)[-1])
    return g, _exact_div(a, g), _exact_div(b, g)


def _square_free_factors(coefficients: Sequence[int]) -> list[list[int]] | None:
    """Yun's square-free decomposition p = c * a_1 * a_2**2 * ... * a_k**k
    of a p of positive degree: its factors a_i of positive degree, which are
    square-free and pairwise coprime, or None when p is square-free.

    With b_1 = p / gcd(p, p') and c_1 = p' / gcd(p, p'), each step takes
    d_i = c_i - b_i', a_i = gcd(b_i, d_i), b_(i+1) = b_i / a_i and
    c_(i+1) = d_i / a_i; d_i = 0 exactly when b_i = a_i is the last factor.
    """
    g, b, c = _proved_gcd(coefficients, _derivative(coefficients))
    if len(g) == 1:
        return None
    factors = []
    while True:
        d = _strip([x - y for x, y in zip_longest(c, _derivative(b), fillvalue=0)])
        if not d:
            return factors + [b]
        a, b, c = _proved_gcd(b, d)
        if len(a) > 1:
            factors.append(a)


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Greatest common divisor over the integers, normalized to a primitive
    polynomial with positive leading coefficient times the content gcd.

    The primitive part is a modular gcd image accepted only by exact division
    of both inputs, with the remainder chain as fallback (``_proved_gcd``).
    """
    if a.is_zero and b.is_zero:
        return IntPolynomial()
    if a.is_zero:
        return b.primitive() * b.content()
    if b.is_zero:
        return a.primitive() * a.content()
    g = _proved_gcd(a.coefficients, b.coefficients)[0]
    return IntPolynomial(g) * gcd(a.content(), b.content())


def square_free_part(p: IntPolynomial) -> IntPolynomial:
    """The polynomial with the same roots as ``p``, each simple.

    Computed as p / gcd(p, p'), then made primitive with positive leading
    coefficient.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no square-free part")
    if p.degree == 0:
        return IntPolynomial.one()
    quotient = _proved_gcd(p.coefficients, _derivative(p.coefficients))[1]
    return IntPolynomial(_primitive(quotient))


def _variations(values: Iterable[Rational]) -> int:
    """Sign changes along a sequence of numbers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(map(ne, signs, signs[1:]))


def _root_bound_exponent(coefficients: Sequence[int]) -> int:
    """A k with every complex root of p strictly inside |z| < 2**k.

    Fujiwara's bound: with 2**s >= |a_(d-i) / a_d| ** (1/i) for every i, a z
    with |z| >= 2**(s+1) has |a_d z**d| > sum over i of |a_(d-i) z**(d-i)|,
    because each term is at most |a_d| |z|**d / 2**i. The least such s is
    found in integers from the least e_i >= 0 with |a_d| 2**e_i >= |a_(d-i)|.
    """
    lead = abs(coefficients[-1])
    s = 0
    for i, c in enumerate(reversed(coefficients[:-1]), 1):
        c = abs(c)
        e = max(0, c.bit_length() - lead.bit_length())
        if lead << e < c:
            e += 1
        s = max(s, -(-e // i))
    return s + 1


def _bernstein_halves(b: list[int]) -> tuple[list[int], list[int]]:
    """The Bernstein coefficients of both halves of an interval, times 2**d,
    by de Casteljau's triangle of sums: row r holds 2**r times the averages."""
    d = len(b) - 1
    left, right = [b[0] << d], [b[-1] << d]
    for shift in range(d - 1, -1, -1):
        b = list(map(add, b, b[1:]))
        left.append(b[0] << shift)
        right.append(b[-1] << shift)
    right.reverse()
    return left, right


def _shifted_by_one(coefficients: list[int]) -> list[int]:
    """Coefficients of p, highest degree first, turned in place into those
    of p(y + 1): one Taylor shift by d rounds of prefix sums."""
    for n in range(len(coefficients), 1, -1):
        coefficients[:n] = accumulate(coefficients[:n])
    return coefficients


def _positive_root_count(coefficients: Sequence[int], k: int) -> int:
    """Distinct roots in (0, 2**k) of a square-free p with p(0) != 0, by
    Descartes' rule of signs with bisection (Collins and Akritas 1976) in the
    Bernstein basis (Mourrain, Rouillier and Roy 2005).

    The sign variations of p's coefficients bound its positive roots and have
    their parity, so 0 or 1 variations is the count. Otherwise p(2**k u) is
    written as sum_j b_j C(d, j) u**j (1 - u)**(d - j) on [0, 1]. The
    numbers C(d, j) b_j are the coefficients of sum_i a_i 2**(k i) y**i
    (1 + y)**(d - i), a Taylor shift that d rounds of prefix sums compute,
    and the lcm of the binomials makes every b_j an integer. Their sign
    variations bound the roots in the open interval in the same way, so an
    interval with 0 or 1 is settled and any other is halved, a root at its
    midpoint counted once. For square-free p the halving ends (Krandick and
    Mehlhorn 2006).
    """
    variations = _variations(coefficients)
    if variations < 2:
        return variations
    d = len(coefficients) - 1
    bernstein = _shifted_by_one([c << (k * i) for i, c in enumerate(coefficients)])
    binomials = [comb(d, j) for j in range(d + 1)]
    scale = lcm(*binomials)
    bernstein = [c * (scale // b) for c, b in zip(bernstein, binomials)]
    g = gcd(*bernstein)
    count = 0
    pending = [[c // g for c in bernstein]]
    while pending:
        b = pending.pop()
        variations = _variations(b)
        if variations < 2:
            count += variations
            continue
        # drop the common power of 2 that the halving piles up
        low = reduce(or_, b)
        b = [c >> ((low & -low).bit_length() - 1) for c in b]
        left, right = _bernstein_halves(b)
        count += not right[0]
        pending += (left, right)
    return count


def _descartes_root_count(coefficients: Sequence[int]) -> int:
    """Number of distinct real roots of a square-free p of positive degree:
    the root 0 if p has it, and the roots in (0, 2**k) of p(t) and of p(-t),
    with 2**k a root bound (``_root_bound_exponent``)."""
    at_zero = int(not coefficients[0])
    if at_zero:
        coefficients = coefficients[1:]
    if len(coefficients) == 1:
        return at_zero
    k = _root_bound_exponent(coefficients)
    mirror = [-c if i % 2 else c for i, c in enumerate(coefficients)]
    return at_zero + _positive_root_count(coefficients, k) + _positive_root_count(mirror, k)


def _variations_at_infinity(chain: Sequence[Sequence[int]], positive: bool) -> int:
    # at -infinity, an element of odd degree (even length) has the sign of -lc
    return _variations(q[-1] if positive or len(q) % 2 else -q[-1] for q in chain)


def _variations_at_point(chain: Sequence[Sequence[int]], point: Rational) -> int:
    return _variations(_evaluate(q, point) for q in chain)


def sturm_real_root_count(
    p: IntPolynomial,
    lower: Rational | None = None,
    upper: Rational | None = None,
) -> int:
    """Number of distinct real roots of a square-free ``p`` in (lower, upper].

    ``None`` endpoints mean unbounded on that side; endpoints must be exact
    (int or Fraction). Non-square-free input is rejected.
    """
    if p.is_zero:
        raise ValueError("root counting needs a nonzero polynomial")
    for endpoint in (lower, upper):
        if isinstance(endpoint, float):
            raise TypeError("exact endpoints only; pass int or Fraction")
    if lower is not None and upper is not None and lower > upper:
        raise ValueError("lower endpoint exceeds upper endpoint")
    if p.degree == 0:
        return 0
    chain = _remainder_chain(p.coefficients, _derivative(p.coefficients))
    if len(chain[-1]) > 1:
        raise ValueError("input is not square-free; take square_free_part first")
    at_lower = (
        _variations_at_infinity(chain, positive=False)
        if lower is None
        else _variations_at_point(chain, lower)
    )
    at_upper = (
        _variations_at_infinity(chain, positive=True)
        if upper is None
        else _variations_at_point(chain, upper)
    )
    return at_lower - at_upper


@dataclass(frozen=True)
class RealRootCertificate:
    """Exact evidence for or against every root being real.

    The verdict compares the number of distinct real roots against the degree
    of the square-free part; those agree exactly when all roots are real.
    Whichever route of ``is_real_rooted`` answers, both numbers are those the
    Sturm chain of the square-free part of ``p`` gives.
    """

    real_rooted: bool
    square_free_degree: int
    distinct_real_roots: int

    def __bool__(self) -> bool:
        return self.real_rooted


def _plain_certificate(coefficients: Sequence[int]) -> RealRootCertificate:
    """The certificate read off one remainder chain of p and p', as
    described on ``is_real_rooted``."""
    if not coefficients:
        raise ValueError("the zero polynomial has no root certificate")
    if len(coefficients) == 1:
        return RealRootCertificate(True, 0, 0)
    chain = _remainder_chain(coefficients, _derivative(coefficients))
    square_free_degree = len(coefficients) - len(chain[-1])
    count = _variations_at_infinity(chain, positive=False) - _variations_at_infinity(chain, positive=True)
    return RealRootCertificate(count == square_free_degree, square_free_degree, count)


def _half_degree(coefficients: Sequence[int]) -> list[int]:
    """q of degree h with p(t) = t**h * q(t + 1/t), for palindromic p of
    degree 2h.

    Built from the Dickson polynomials D_j(s) = t**j + t**-j at s = t + 1/t,
    D_0 = 2, D_1 = s, D_(j+1) = s D_j - D_(j-1), as
    q = a_h + sum_j a_(h+j) D_j, in O(h**2) integer operations.
    """
    h = (len(coefficients) - 1) // 2
    q = [coefficients[h]] + [0] * h
    previous, current = [2], [0, 1]
    for j in range(1, h + 1):
        a = coefficients[h + j]
        for i, c in enumerate(current):
            q[i] += a * c
        following = [0] + current
        for i, c in enumerate(previous):
            following[i] -= c
        previous, current = current, following
    return q


def _below_minus_two(q: Sequence[int]) -> list[int]:
    """r(x) = q(-2 - x), whose positive roots are the roots of q below -2:
    q(-2 y) shifted to y + 1, then x = 2 y - 2 divides r_i out of 2**i r_i."""
    shifted = _shifted_by_one([c * (-2) ** i for i, c in enumerate(q)][::-1])
    return [c >> i for i, c in enumerate(reversed(shifted))]


def _palindromic_certificate(coefficients: Sequence[int]) -> RealRootCertificate | None:
    """The certificate of a real-rooted palindromic p of degree d >= 2,
    found at half the degree, or None when this route cannot certify it or
    p is no such polynomial.

    For odd d, p = (1 + t) p1; otherwise p1 = p. With p1 = t**h q(t + 1/t),
    each root s of q gives the roots t, 1/t of t**2 - s t + 1, which are real
    exactly when s is real and |s| >= 2, and coincide (at t = -1 or 1) exactly
    when s = -2 or 2. So p is real-rooted when q has h distinct real roots
    (which makes it square-free), none in (-2, 2), and then p has
    2h - [q(-2) = 0] - [q(2) = 0] + [d odd and q(-2) != 0] distinct roots.

    From h = ``SQUARE_FREE_SPLIT_DEGREE`` on, the Descartes counter decides,
    on r(x) = q(-2 - x): when q(-2) != 0, ``_proved_gcd`` proves q
    square-free and r has h roots in (0, 2**k) (which needs h sign
    variations), q has h simple roots below -2 and p has 2h + [d odd]
    simple negative ones. Any other p of that degree gets None: the chain
    of q could certify only q(-2) = 0 or roots of q at or above 2, and the
    split into square-free factors certifies those too. Below that degree
    the chain of q counts its roots in (-2, 2] as V(-2) - V(2), and None
    (q has a repeated or non-real root, or one in (-2, 2)) leaves the
    decision to the other routes.
    """
    if len(coefficients) < 3 or coefficients != coefficients[::-1]:
        return None
    odd = len(coefficients) % 2 == 0
    q = _half_degree(_exact_div(coefficients, (1, 1)) if odd else coefficients)
    h = len(q) - 1
    if h >= SQUARE_FREE_SPLIT_DEGREE:
        r = _below_minus_two(q)
        if (
            r[0]
            and _variations(r) == h
            and len(_proved_gcd(q, _derivative(q))[0]) == 1
            and _positive_root_count(r, _root_bound_exponent(r)) == h
        ):
            return RealRootCertificate(True, 2 * h + odd, 2 * h + odd)
        return None
    chain = _remainder_chain(q, _derivative(q))
    # h distinct real roots make q square-free, so that needs no check of its own
    if _variations_at_infinity(chain, False) - _variations_at_infinity(chain, True) != h:
        return None
    root_at_minus_two = _evaluate(q, -2) == 0
    root_at_two = _evaluate(q, 2) == 0
    if _variations_at_point(chain, -2) - _variations_at_point(chain, 2) != root_at_two:
        return None
    square_free_degree = 2 * h - root_at_minus_two - root_at_two + (odd and not root_at_minus_two)
    return RealRootCertificate(True, square_free_degree, square_free_degree)


def is_real_rooted(p: IntPolynomial) -> RealRootCertificate:
    """Certify whether every complex root of ``p`` is real.

    The certificate compares the number of distinct real roots with the
    degree of the square-free part; constants are trivially real-rooted.
    A palindromic ``p`` of degree d >= 2 is tried first at half the degree:
    after dividing out 1 + t when d is odd, p = t**h q(t + 1/t) with
    h = floor(d/2), and ``p`` is accepted when q has h simple real roots,
    none in (-2, 2). From h = ``SQUARE_FREE_SPLIT_DEGREE`` on, q proved
    square-free by a gcd image of degree 0 and h roots of q below -2,
    counted by Descartes' rule on q(-2 - x), accept ``p``, and nothing
    else does; below it, one chain of q and q' decides.

    Otherwise, below degree ``SQUARE_FREE_SPLIT_DEGREE``, one remainder chain
    of p and p' decides: its last element is gcd(p, p'), and its sign
    variations at -infinity and +infinity count the distinct real roots.
    From that degree on, Yun's algorithm splits ``p`` into square-free
    factors, with gcds from modular images accepted only by exact division
    (``_proved_gcd``); a gcd image of degree 0 proves ``p`` square-free,
    and ``p`` is then the only factor. Each factor is accepted by the
    palindromic route or its real roots are counted by Descartes' rule of
    signs (``_descartes_root_count``). Every route gives the chain's
    certificate.
    """
    coefficients = p.coefficients
    certificate = _palindromic_certificate(coefficients)
    if certificate is not None:
        return certificate
    if len(coefficients) <= SQUARE_FREE_SPLIT_DEGREE:
        return _plain_certificate(coefficients)
    factors = _square_free_factors(coefficients)
    if factors is None:
        # the palindromic route has declined p already
        square_free_degree = len(coefficients) - 1
        count = _descartes_root_count(coefficients)
    else:
        square_free_degree = sum(len(f) - 1 for f in factors)
        count = sum(_square_free_root_count(f) for f in factors)
    return RealRootCertificate(count == square_free_degree, square_free_degree, count)


def _square_free_root_count(coefficients: Sequence[int]) -> int:
    """Distinct real roots of a square-free factor of positive degree."""
    if _palindromic_certificate(coefficients) is not None:
        return len(coefficients) - 1
    return _descartes_root_count(coefficients)


def _warn_on_negative(coefficients: Sequence[int], check: str) -> None:
    if any(c < 0 for c in coefficients):
        warnings.warn(
            f"{check}: negative coefficients present, so this check does not "
            "connect to real-rootedness",
            stacklevel=3,
        )


def is_log_concave(p: IntPolynomial) -> bool:
    """Every interior coefficient squared dominates the product of its
    neighbors (exact integer comparisons; internal zeros are not assumed
    away)."""
    coeffs = p.coefficients
    _warn_on_negative(coeffs, "is_log_concave")
    return all(
        coeffs[k] * coeffs[k] >= coeffs[k - 1] * coeffs[k + 1]
        for k in range(1, len(coeffs) - 1)
    )


def is_unimodal(p: IntPolynomial) -> bool:
    """The coefficient sequence rises (weakly) and then falls (weakly)."""
    coeffs = p.coefficients
    _warn_on_negative(coeffs, "is_unimodal")
    descending = False
    for prev, cur in zip(coeffs, coeffs[1:]):
        if cur < prev:
            descending = True
        elif cur > prev and descending:
            return False
    return True


def newton_inequalities_hold(p: IntPolynomial) -> bool:
    """Log-concavity strengthened by the classical binomial correction:

        a_k^2 >= a_{k-1} * a_{k+1} * (k+1)/k * (n-k+1)/(n-k)

    for interior k, with n the degree. Every real-rooted polynomial with
    nonnegative coefficients satisfies this; it implies plain log-concavity.
    Degree below 2 is vacuously true.
    """
    n = p.degree
    if n < 2:
        return True
    a = p.coefficients
    _warn_on_negative(a, "newton_inequalities_hold")
    # both sides times k * (n-k) > 0, so the comparison stays in integers
    return all(
        a[k] * a[k] * k * (n - k) >= a[k - 1] * a[k + 1] * (k + 1) * (n - k + 1)
        for k in range(1, n)
    )


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of an exact coefficient-wise comparison of two integer
    vectors, with the first mismatch (if any) pinned down."""

    passed: bool
    description: str
    left: tuple[int, ...]
    right: tuple[int, ...]
    mismatch_index: int | None = None

    def __bool__(self) -> bool:
        return self.passed

    def detail(self) -> str:
        if self.passed:
            return f"{self.description}: ok"
        i = self.mismatch_index or 0
        left = self.left[i] if i < len(self.left) else 0
        right = self.right[i] if i < len(self.right) else 0
        return (
            f"{self.description}: index {i} differs, left={left} right={right}; "
            f"left={list(self.left)} right={list(self.right)}"
        )


def compare_sequences(
    description: str, left: Sequence[int], right: Sequence[int]
) -> IdentityReport:
    mismatch = None
    for i in range(max(len(left), len(right))):
        a = left[i] if i < len(left) else 0
        b = right[i] if i < len(right) else 0
        if a != b:
            mismatch = i
            break
    return IdentityReport(mismatch is None, description, tuple(left), tuple(right), mismatch)
