"""Descent generating functions and the exact identities connecting them.

``narayana_polynomial`` is computed by a closed form, without enumeration:
the tableau descent polynomial of the rectangle from Stanley's EC2 Prop.
7.19.12 at q = 1, with each principal specialization s_lambda(1^N) from the
hook-content formula (EC2 Cor. 7.21.4). The tableau and word tallies are
Eulerian polynomials of Ferrers posets (EC1 §3.15), by the one DP of
``posets.eulerian_polynomial``: column-strict labels give tableau descents
(eq. (3.3)), the natural labels of the rectangle word descents. The checks
form a triangle: ``theorem21`` is the word DP against the closed form,
``sulanke`` the word DP against the tableau DP, and ``eq33`` (in ``posets``)
the tableau DP against the closed form. The suites read each rectangle's
word and tableau polynomials off ``posets.rectangle_eulerian_sweep``, one
DP per row count, and hand them to the checks here; called alone, a check
runs the DP on its own rectangle. The tests tally the enumerated ballot
sequences as their oracle.
"""

from __future__ import annotations

from .combinatorics import Partition, _descent_closed_form, syt_count_hook
from .polynomials import IdentityReport, IntPolynomial, compare_sequences
from .posets import column_strict_ferrers_poset, eulerian_polynomial, ferrers_poset


def narayana_polynomial(n: int, m: int) -> IntPolynomial:
    """Descent generating function over all lattice words with m symbols,
    each used n times.

    Coefficient of t^k counts the words with exactly k descents; the constant
    term is 1 because the sorted word is the unique descent-free word. By
    convention the polynomial is 1 when n or m is zero.

    Computed without enumeration: by the tableau identity it is the descent
    polynomial of the m-by-n rectangle divided by t^(m-1), and that
    polynomial has a closed form (EC2 Prop. 7.19.12 with the hook-content
    formula, EC2 Cor. 7.21.4) in O(p^2) integer operations for p cells.
    """
    rectangle = Partition.rectangle(n, m)
    if not rectangle.cells:
        return IntPolynomial([1])
    return IntPolynomial(_descent_closed_form(rectangle)[m - 1 :])


def syt_descent_polynomial(shape: Partition) -> IntPolynomial:
    """Descent generating function over all standard fillings of the shape,
    by eq. (3.3) the Eulerian polynomial of its column-strict labeled Ferrers
    poset. Coefficient of t^k counts the tableaux in which exactly k entries
    have their successor in a strictly lower row. Bounded by the DP's ideal
    cap alone.
    """
    return eulerian_polynomial(column_strict_ferrers_poset(shape))


def _shifted_word_descents(n: int, m: int, words: IntPolynomial | None = None) -> IntPolynomial:
    """t^(m-1) (1 for an empty rectangle) times the word descent polynomial
    of weight (n, m): the Eulerian polynomial of the naturally labeled m-by-n
    Ferrers poset, whose linear extensions spell the lattice words by their
    rows, with label descents exactly at word descents. ``words`` is that
    Eulerian polynomial when already known."""
    rectangle = Partition.rectangle(n, m)
    if words is None:
        words = eulerian_polynomial(ferrers_poset(rectangle))
    return words.shift(max(rectangle.rows - 1, 0))


def rectangular_catalan(n: int, m: int) -> int:
    """Count of the lattice words, equivalently of the standard fillings of
    the m-by-n rectangle, via hook lengths (no enumeration, so no budget)."""
    return syt_count_hook(Partition.rectangle(n, m))


def verify_tableau_identity(n: int, m: int, words: IntPolynomial | None = None) -> IdentityReport:
    """Check Theorem 2.1, coefficient by coefficient: the word descent
    polynomial times t^(m-1) equals the tableau descent polynomial of the
    m-by-n rectangle. The left side is the word DP (``words`` when given,
    the Eulerian polynomial of the naturally labeled rectangle, which the
    ``theorem21`` suite reads off ``rectangle_eulerian_sweep``), the right
    side the closed form of :func:`narayana_polynomial`: two independent
    computations."""
    left = _shifted_word_descents(n, m, words).coefficients
    right = IntPolynomial(_descent_closed_form(Partition.rectangle(n, m))).coefficients
    return compare_sequences(f"tableau identity n={n} m={m}", left, right)


def verify_sulanke_equidistribution(
    n: int, m: int, words: IntPolynomial | None = None, tableaux: IntPolynomial | None = None
) -> IdentityReport:
    """Check Sulanke's equidistribution on ballot paths: the ascent generating
    function equals the descent generating function shifted down by m-1.

    The path of a word mirrors its alphabet (see ``word_to_path``), so path
    ascents are word descents and path descents are word ascents, the
    tableau descents of the m-by-n rectangle. The left side is the word DP,
    the right side the tableau DP: one kernel on two labelings that order
    every pair of rows oppositely. ``words`` and ``tableaux``, when given,
    are the Eulerian polynomials of the rectangle naturally and
    column-strict labeled (the ``sulanke`` suite reads both off
    ``rectangle_eulerian_sweep``).
    """
    left = _shifted_word_descents(n, m, words).coefficients
    if tableaux is None:
        tableaux = syt_descent_polynomial(Partition.rectangle(n, m))
    right = tableaux.coefficients
    return compare_sequences(f"path equidistribution n={n} m={m}", left, right)
