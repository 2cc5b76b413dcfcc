"""Descent generating functions and the exact identities connecting them.

``narayana_polynomial`` is computed by a closed form, without enumeration:
the tableau descent polynomial of the rectangle from Stanley's EC2 Prop.
7.19.12 at q = 1, with each principal specialization s_lambda(1^N) from the
hook-content formula (EC2 Cor. 7.21.4). The enumerating tallies stream over
the ballot sequences without materializing object lists, so memory stays
proportional to the polynomial degree; they remain the reference the closed
form is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import perm, prod
from operator import gt, lt
from typing import Iterable, Sequence

from .combinatorics import (Partition, _ballot_sequences, _check_budget, _hooks, _pair_count,
                            _word_quotas, syt_count_hook)
from .polynomials import IntPolynomial


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


def compare_polynomials(
    description: str, left: IntPolynomial, right: IntPolynomial
) -> IdentityReport:
    return compare_sequences(description, left.coefficients, right.coefficients)


def _tally(words: Iterable[Sequence[int]], length: int, compare) -> list[int]:
    """Count the words of the given length by how many adjacent pairs (a, b)
    satisfy ``compare(a, b)``; entry k of the result counts the words with
    exactly k such pairs."""
    tallies = [0] * max(1, length)
    for word in words:
        tallies[_pair_count(word, compare)] += 1
    return tallies


def _descent_closed_form(shape: Partition) -> list[int]:
    """Descent generating function over the standard fillings of the shape,
    without enumeration, in O(p^2) integer operations for p cells.

    Stanley, EC2 Prop. 7.19.12 at q = 1: the sum over fillings of t^des is
    (1 - t)^(p+1) times sum_{k<p} s_lambda(1^(k+1)) t^k, cut at degree p-1.
    Each s_lambda(1^N) is the product over cells (i, j) of N + j - i divided
    by the product of the hooks (EC2 Cor. 7.21.4).
    """
    parts = shape.parts
    p = shape.cells
    if p == 0:
        return [1]
    hook_product = prod(_hooks(shape))
    # 0-indexed row i holds the contents N-i .. N-i+parts[i]-1; with fewer
    # than len(parts) variables some row holds content 0 and s_lambda(1^N) = 0
    series = [
        prod(perm(count - i + row - 1, row) for i, row in enumerate(parts)) // hook_product
        if count >= len(parts)
        else 0
        for count in range(1, p + 1)
    ]
    for _ in range(p + 1):
        # multiply by 1 - t, dropping the term of degree p
        series = [a - b for a, b in zip(series, [0] + series)]
    return series


def narayana_polynomial(n: int, m: int, max_cells: int | None = None) -> IntPolynomial:
    """Descent generating function over all lattice words with m symbols,
    each used n times.

    Coefficient of t^k counts the words with exactly k descents; the constant
    term is 1 because the sorted word is the unique descent-free word. By
    convention the polynomial is 1 when n or m is zero.

    Computed without enumeration: by the tableau identity it is the descent
    polynomial of the m-by-n rectangle divided by t^(m-1), and that
    polynomial has a closed form (EC2 Prop. 7.19.12 with the hook-content
    formula, EC2 Cor. 7.21.4). The cell budget still applies, as a bound on
    the degree handed to the certifier.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    _check_budget(n * m, max_cells)
    if n == 0 or m == 0:
        return IntPolynomial([1])
    return IntPolynomial(_descent_closed_form(Partition.rectangle(n, m))[m - 1 :])


def syt_descent_polynomial(shape: Partition, max_cells: int | None = None) -> IntPolynomial:
    """Descent generating function over all standard fillings of the shape,
    by enumerating them.

    Coefficient of t^k counts the tableaux in which exactly k entries have
    their successor in a strictly lower row.
    """
    _check_budget(shape.cells, max_cells)
    # k+1 lies in a strictly lower row than k exactly when the row word ascends at k
    return IntPolynomial(_tally(_ballot_sequences(shape.parts), shape.cells, lt))


def rectangular_catalan(n: int, m: int) -> int:
    """Count of the lattice words, equivalently of the standard fillings of
    the m-by-n rectangle, via hook lengths (no enumeration, so no budget)."""
    return syt_count_hook(Partition.rectangle(n, m))


def verify_tableau_identity(
    n: int, m: int, max_cells: int | None = None
) -> IdentityReport:
    """Check, coefficient by coefficient, that the word descent polynomial
    times t^(m-1) equals the tableau descent polynomial of the m-by-n
    rectangle. The cleared form avoids negative exponents. The left side
    comes from the closed form and the right side from enumerating the
    tableaux, so the two computations are independent."""
    left = narayana_polynomial(n, m, max_cells).shift(max(m - 1, 0))
    right = syt_descent_polynomial(Partition.rectangle(n, m), max_cells)
    return compare_polynomials(f"tableau identity n={n} m={m}", left, right)


def verify_sulanke_equidistribution(
    n: int, m: int, max_cells: int | None = None
) -> IdentityReport:
    """Check Sulanke's equidistribution on ballot paths: the ascent generating
    function equals the descent generating function shifted down by m-1.

    The path of a word mirrors its alphabet (see ``word_to_path``), so path
    ascents are word descents and path descents are word ascents; both are
    tallied on the words directly, so this compares word-descent enumeration
    against word-ascent enumeration. Word ascents are also the tableau
    descents of the m-by-n rectangle. :func:`verify_tableau_identity` is the
    independent check: it compares the closed form of
    :func:`narayana_polynomial` against tableau enumeration.
    """
    _check_budget(n * m, max_cells)
    quotas = _word_quotas(n, m)
    left = IntPolynomial(_tally(_ballot_sequences(quotas), n * m, gt)).shift(max(m - 1, 0))
    right = IntPolynomial(_tally(_ballot_sequences(quotas), n * m, lt))
    return compare_polynomials(f"path equidistribution n={n} m={m}", left, right)
