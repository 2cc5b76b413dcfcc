"""Exact univariate polynomial arithmetic over the integers.

Coefficients are arbitrary-precision Python integers stored densely, low
degree first. Real-root counting runs on Sturm sequences built from integer
pseudo-remainders that are only ever rescaled by positive factors, so sign
patterns are exact; evaluations at rational points use ``Fraction``. A
palindromic polynomial of degree d is certified through a polynomial of
degree floor(d/2) in t + 1/t, with the same certificate as the plain chain.
No floating point enters any certification path. ``compare_sequences``
reports the first mismatch of two coefficient vectors (``IdentityReport``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
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
            if not isinstance(c, int):
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
        if isinstance(other, int):
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
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    __radd__ = __add__

    def __sub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        return (-self) + other

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
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
        return IntPolynomial(tuple(k * c for k, c in enumerate(self.coefficients))[1:])

    def __call__(self, point: Rational) -> Rational:
        if isinstance(point, float):
            raise TypeError("exact evaluation only; pass int or Fraction")
        acc: Rational = 0
        for c in reversed(self.coefficients):
            acc = acc * point + c
        return acc

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
        g = self.content()
        if self.leading_coefficient < 0:
            g = -g
        return IntPolynomial(tuple(c // g for c in self.coefficients))

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coefficients)!r})"


def _strip(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Remainder of lc(b)**(deg a - deg b + 1) * a modulo b, over the integers.

    The multiplier is fixed even when reduction finishes early, so its sign
    (needed by the Sturm construction) is deterministic.
    """
    db = len(b) - 1
    lead = b[-1]
    r = list(a)
    k = len(a) - len(b) + 1
    while True:
        _strip(r)
        dr = len(r) - 1
        if dr < db or not r:
            break
        r_lead = r[-1]
        r = [lead * c for c in r]
        offset = dr - db
        for i, bc in enumerate(b):
            r[offset + i] -= r_lead * bc
        k -= 1
    if k > 0 and r:
        scale = lead ** k
        r = [scale * c for c in r]
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


def _remainder_chain(a: IntPolynomial, b: IntPolynomial) -> list[IntPolynomial]:
    """Signed remainder sequence a, b, -rem(a, b), ... of two nonzero
    polynomials with deg a >= deg b, up to its last nonzero element, which is
    a gcd of a and b up to a constant factor.

    Each remainder is divided by its (positive) content; along with the
    sign-corrected pseudo-remainder this only ever rescales by positive
    factors, which leaves sign variation counts intact. For (p, p') this is
    the Sturm chain of p, and by the generalized Sturm theorem it counts the
    distinct real roots of p even when p is not square-free.
    """
    chain = [a, b]
    while chain[-1].degree > 0:
        x, y = chain[-2], chain[-1]
        raw = _strip(_pseudo_remainder(x.coefficients, y.coefficients))
        if not raw:
            break
        multiplier_negative = (
            y.leading_coefficient < 0 and (x.degree - y.degree + 1) % 2 == 1
        )
        rem = raw if multiplier_negative else [-c for c in raw]
        g = gcd(*rem)
        chain.append(IntPolynomial(c // g for c in rem))
    return chain


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Greatest common divisor over the integers, normalized to a primitive
    polynomial with positive leading coefficient times the content gcd.

    Read off the last element of the remainder chain, whose content-reduced
    pseudo-remainders keep coefficient growth in check without any rational
    arithmetic.
    """
    if a.is_zero and b.is_zero:
        return IntPolynomial()
    if a.is_zero:
        return b.primitive() * b.content()
    if b.is_zero:
        return a.primitive() * a.content()
    if a.degree < b.degree:
        a, b = b, a
    return _remainder_chain(a, b)[-1].primitive() * gcd(a.content(), b.content())


def square_free_part(p: IntPolynomial) -> IntPolynomial:
    """The polynomial with the same roots as ``p``, each simple.

    Computed as p / gcd(p, p'), then made primitive with positive leading
    coefficient.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no square-free part")
    if p.degree == 0:
        return IntPolynomial.one()
    g = poly_gcd(p, p.derivative())
    quotient = IntPolynomial(_exact_div(p.coefficients, g.coefficients))
    return quotient.primitive()


def _sign(x: Rational) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _variations(signs: Iterable[int]) -> int:
    seq = [s for s in signs if s]
    return sum(1 for x, y in zip(seq, seq[1:]) if x != y)


def _variations_at_infinity(chain: Sequence[IntPolynomial], positive: bool) -> int:
    signs = []
    for q in chain:
        s = _sign(q.leading_coefficient)
        if not positive and q.degree % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def _variations_at_point(chain: Sequence[IntPolynomial], point: Rational) -> int:
    return _variations(_sign(q(point)) for q in chain)


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
    chain = _remainder_chain(p, p.derivative())
    if chain[-1].degree > 0:
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
    """Sturm-count evidence for or against every root being real.

    The verdict compares the number of distinct real roots against the degree
    of the square-free part; those agree exactly when all roots are real. The
    two variation counts are those of the remainder chain of ``p`` and ``p'``
    at minus and plus infinity; their difference is the distinct real root
    count. For square-free ``p`` that chain is the Sturm chain of ``p``.

    ``is_real_rooted`` may accept a palindromic ``p`` without building that
    chain (see there); the five fields are then still the ones the chain of
    ``p`` gives, because for real-rooted ``p`` they are forced: the chain has
    at most ``square_free_degree + 1`` elements, so its variations are
    ``square_free_degree`` at minus infinity and 0 at plus infinity.
    """

    real_rooted: bool
    square_free_degree: int
    distinct_real_roots: int
    variations_at_negative_infinity: int
    variations_at_positive_infinity: int

    def __bool__(self) -> bool:
        return self.real_rooted


def _plain_certificate(p: IntPolynomial) -> RealRootCertificate:
    """The certificate read off one remainder chain of ``p`` and ``p'``, as
    described on ``is_real_rooted``."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no root certificate")
    if p.degree == 0:
        return RealRootCertificate(True, 0, 0, 0, 0)
    chain = _remainder_chain(p, p.derivative())
    square_free_degree = p.degree - chain[-1].degree
    at_neg = _variations_at_infinity(chain, positive=False)
    at_pos = _variations_at_infinity(chain, positive=True)
    count = at_neg - at_pos
    return RealRootCertificate(
        count == square_free_degree, square_free_degree, count, at_neg, at_pos
    )


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


def _palindromic_certificate(coefficients: Sequence[int]) -> RealRootCertificate | None:
    """The certificate of a real-rooted palindromic p of degree d >= 2,
    found at half the degree, or None when this route cannot certify it.

    For odd d, p = (1 + t) p1; otherwise p1 = p. With p1 = t**h q(t + 1/t),
    each root s of q gives the roots t, 1/t of t**2 - s t + 1, which are real
    exactly when s is real and |s| >= 2, and coincide (at t = -1 or 1) exactly
    when s = -2 or 2. So p is real-rooted when q has h distinct real roots
    (which makes it square-free), none in (-2, 2), and then p has
    2h - [q(-2) = 0] - [q(2) = 0] + [d odd and q(-2) != 0] distinct roots.
    The chain of q counts its roots in (-2, 2] as V(-2) - V(2). None (q has
    a repeated or non-real root, or one in (-2, 2)) leaves the decision to
    the plain chain.
    """
    odd = len(coefficients) % 2 == 0
    q = IntPolynomial(_half_degree(_exact_div(coefficients, (1, 1)) if odd else coefficients))
    h = q.degree
    chain = _remainder_chain(q, q.derivative())
    # h distinct real roots make q square-free, so that needs no check of its own
    if _variations_at_infinity(chain, False) - _variations_at_infinity(chain, True) != h:
        return None
    root_at_minus_two = q(-2) == 0
    root_at_two = q(2) == 0
    if _variations_at_point(chain, -2) - _variations_at_point(chain, 2) != root_at_two:
        return None
    square_free_degree = 2 * h - root_at_minus_two - root_at_two + (odd and not root_at_minus_two)
    return RealRootCertificate(True, square_free_degree, square_free_degree, square_free_degree, 0)


def is_real_rooted(p: IntPolynomial) -> RealRootCertificate:
    """Certify whether every complex root of ``p`` is real.

    One remainder chain of ``p`` and ``p'`` gives both counts that are
    compared: its last element is gcd(p, p'), whose degree is what the
    multiplicities add beyond the square-free part, and its sign variations
    count the distinct real roots. Constant polynomials are trivially
    real-rooted.

    A palindromic ``p`` (coefficients equal to their reverse) of degree
    d >= 2 is tried first at half the degree: after dividing out 1 + t when
    d is odd, p = t**h q(t + 1/t) with deg q = h = floor(d/2), and one chain
    of ``q`` and ``q'`` with its variations at -infinity, -2, 2 and +infinity
    accepts ``p`` when q has h simple real roots, none in (-2, 2). Every other
    input, palindromic or not, gets the chain of ``p``. Either way the
    certificate equals the one that chain gives, field by field.
    """
    coefficients = p.coefficients
    if p.degree >= 2 and coefficients == coefficients[::-1]:
        certificate = _palindromic_certificate(coefficients)
        if certificate is not None:
            return certificate
    return _plain_certificate(p)


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
