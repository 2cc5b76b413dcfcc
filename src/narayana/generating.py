"""Descent generating functions and the exact identities connecting them.

Tallies stream over the enumerators without materializing object lists, so
memory stays proportional to the polynomial degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt, lt
from typing import Sequence

from .combinatorics import Partition, _ballot_sequences, _check_budget, syt_count_hook
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


def _tally(quotas: Sequence[int], compare) -> list[int]:
    """Count the ballot sequences with the given symbol quotas by how many
    adjacent pairs (a, b) satisfy ``compare(a, b)``; entry k of the result
    counts the words with exactly k such pairs."""
    tallies = [0] * max(1, sum(quotas))
    for word in _ballot_sequences(quotas):
        tallies[sum(map(compare, word, word[1:]))] += 1
    return tallies


def narayana_polynomial(n: int, m: int, max_cells: int | None = None) -> IntPolynomial:
    """Descent generating function over all lattice words with m symbols,
    each used n times.

    Coefficient of t^k counts the words with exactly k descents; the constant
    term is 1 because the sorted word is the unique descent-free word. By
    convention the polynomial is 1 when n or m is zero.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    _check_budget(n * m, max_cells)
    return IntPolynomial(_tally((n,) * m, gt))


def syt_descent_polynomial(shape: Partition, max_cells: int | None = None) -> IntPolynomial:
    """Descent generating function over all standard fillings of the shape.

    Coefficient of t^k counts the tableaux in which exactly k entries have
    their successor in a strictly lower row.
    """
    _check_budget(shape.cells, max_cells)
    # k+1 lies in a strictly lower row than k exactly when the row word ascends at k
    return IntPolynomial(_tally(shape.parts, lt))


def rectangular_catalan(n: int, m: int) -> int:
    """Count of the lattice words, equivalently of the standard fillings of
    the m-by-n rectangle, via hook lengths (no enumeration, so no budget)."""
    return syt_count_hook(Partition.rectangle(n, m))


def verify_tableau_identity(
    n: int, m: int, max_cells: int | None = None
) -> IdentityReport:
    """Check, coefficient by coefficient, that the word descent polynomial
    times t^(m-1) equals the tableau descent polynomial of the m-by-n
    rectangle. The cleared form avoids negative exponents."""
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
    tallied on the words directly. Word ascents are also the tableau
    descents of the m-by-n rectangle, so this is a named view of the same
    tallies as :func:`verify_tableau_identity`, not independent evidence.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    _check_budget(n * m, max_cells)
    quotas = (n,) * m
    left = IntPolynomial(_tally(quotas, gt)).shift(max(m - 1, 0))
    right = IntPolynomial(_tally(quotas, lt))
    return compare_polynomials(f"path equidistribution n={n} m={m}", left, right)
