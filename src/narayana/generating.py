"""Descent generating functions and the exact identities connecting them.

``narayana_polynomial`` is computed by a closed form, without enumeration:
the tableau descent polynomial of the rectangle from Stanley's EC2 Prop.
7.19.12 at q = 1, with each principal specialization s_lambda(1^N) from the
hook-content formula (EC2 Cor. 7.21.4). The tableau and word tallies behind
``syt_descent_polynomial`` and the Sulanke check come from one DP over the
ballot prefixes, grouped by their symbol counts, without listing the words.
The closed form and that DP are two independent computations; ``_tally`` over
the enumerated ballot sequences remains the test oracle for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, perm, prod
from operator import gt, lt
from typing import Iterable, Sequence

from .combinatorics import (Partition, _check_budget, _hooks, _pair_count, _word_quotas,
                            syt_count_hook)
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


def _ballot_tally(quotas: Sequence[int], compare) -> list[int]:
    """The tally ``_tally(_ballot_sequences(quotas), sum(quotas), compare)``
    without listing the words, by one pass over the prefixes, shortest first.

    The state (counts, s) holds the tally of the prefixes with those symbol
    counts that end in s; the count vectors are the order ideals of the
    Ferrers diagram of the quotas, so the cost is polynomial in the shape.
    Symbol s may follow while counts[s] < quotas[s] and, for s > 1,
    counts[s-1] > counts[s], the rule of ``_ballot_sequences``; appending s
    after r shifts the tally by one when ``compare(r, s)``. A state
    (counts + s, s) is reached from the count vector counts alone, so each
    is written once.
    """
    k = len(quotas)
    cells = sum(quotas)
    # each tally is one int with `width` bits per coefficient: no coefficient
    # exceeds the number of arrangements of the quotas, so sums, differences
    # of a tally and a part of it, and shifts never carry between slots
    width = (factorial(cells) // prod(map(factorial, quotas))).bit_length()
    # the empty prefix ends in the placeholder 0, which pairs with nothing
    layer: dict[tuple[int, ...], dict[int, int]] = {(0,) * k: {0: 1}}
    for _ in range(cells):
        following: dict[tuple[int, ...], dict[int, int]] = {}
        for counts, ends in layer.items():
            total = sum(ends.values())
            for s in range(1, k + 1):
                count = counts[s - 1]
                if not (count < quotas[s - 1] and (s == 1 or counts[s - 2] > count)):
                    continue
                paired = sum(tally for r, tally in ends.items() if r and compare(r, s))
                grown = counts[: s - 1] + (count + 1,) + counts[s:]
                following.setdefault(grown, {})[s] = total - paired + (paired << width)
        layer = following
    # a word has fewer than max(1, cells) pairs; quotas that are not a
    # partition admit no complete word and leave no state
    packed = sum(sum(ends.values()) for ends in layer.values())
    mask = (1 << width) - 1
    return [packed >> (width * i) & mask for i in range(max(1, cells))]


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
    by the DP over row-word prefixes (``_ballot_tally``), without listing
    the tableaux.

    Coefficient of t^k counts the tableaux in which exactly k entries have
    their successor in a strictly lower row.
    """
    _check_budget(shape.cells, max_cells)
    # k+1 lies in a strictly lower row than k exactly when the row word ascends at k
    return IntPolynomial(_ballot_tally(shape.parts, lt))


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
    comes from the closed form and the right side from the DP over the
    row-word prefixes of the tableaux, so the two computations are
    independent."""
    # the rectangle has m rows, or none when n or m is zero
    left = narayana_polynomial(n, m, max_cells).shift(m - 1 if n and m else 0)
    right = syt_descent_polynomial(Partition.rectangle(n, m), max_cells)
    return compare_polynomials(f"tableau identity n={n} m={m}", left, right)


def verify_sulanke_equidistribution(
    n: int, m: int, max_cells: int | None = None
) -> IdentityReport:
    """Check Sulanke's equidistribution on ballot paths: the ascent generating
    function equals the descent generating function shifted down by m-1.

    The path of a word mirrors its alphabet (see ``word_to_path``), so path
    ascents are word descents and path descents are word ascents; both are
    tallied on the words directly, by two runs of the one prefix DP
    (``_ballot_tally``), so this compares two tallies of the same kernel.
    Word ascents are also the tableau descents of the m-by-n rectangle.
    :func:`verify_tableau_identity` is the independent check: it compares
    the closed form of :func:`narayana_polynomial` against that DP.
    """
    _check_budget(n * m, max_cells)
    quotas = _word_quotas(n, m)
    left = IntPolynomial(_ballot_tally(quotas, gt)).shift(m - 1 if n and m else 0)
    right = IntPolynomial(_ballot_tally(quotas, lt))
    return compare_polynomials(f"path equidistribution n={n} m={m}", left, right)
