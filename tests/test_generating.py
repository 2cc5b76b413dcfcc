import time
from operator import gt, lt

import pytest
from hypothesis import given, strategies as st

from narayana.combinatorics import (BudgetExceededError, Partition, _descent_closed_form,
                                    _scanned_blocks, enumerate_lattice_words,
                                    enumerate_partitions)
from narayana.generating import (
    narayana_polynomial,
    rectangular_catalan,
    syt_descent_polynomial,
    verify_sulanke_equidistribution,
    verify_tableau_identity,
)
from narayana.polynomials import IntPolynomial, compare_sequences
from narayana.posets import column_strict_ferrers_poset, eulerian_polynomial, ferrers_poset


def _tally(words, length, compare):
    """Count the words of the given length by how many adjacent pairs (a, b)
    satisfy ``compare(a, b)``; entry k of the result counts the words with
    exactly k such pairs."""
    tallies = [0] * max(1, length)
    for word in words:
        tallies[sum(map(compare, word, word[1:]))] += 1
    return tallies


def test_trivial_weights_give_one():
    for m in (1, 2, 5):
        assert narayana_polynomial(1, m) == IntPolynomial([1])
    assert narayana_polynomial(0, 3) == IntPolynomial([1])
    assert narayana_polynomial(3, 0) == IntPolynomial([1])


@pytest.mark.parametrize("n,m", [(-1, 2), (0, 2.5), (True, 0), (2.0, 2)])
def test_weights_that_are_not_nonnegative_ints_are_refused(n, m):
    # an empty rectangle answers 1, but only for a weight of two ints
    with pytest.raises(ValueError, match="n and m must be nonnegative integers"):
        narayana_polynomial(n, m)


def test_classical_narayana_row():
    assert narayana_polynomial(3, 2) == IntPolynomial([1, 3, 1])
    assert narayana_polynomial(4, 2) == IntPolynomial([1, 6, 6, 1])


def test_catalan_evaluations():
    assert [narayana_polynomial(n, 2)(1) for n in range(1, 6)] == [1, 2, 5, 14, 42]


def test_syt_descent_polynomial_examples():
    assert syt_descent_polynomial(Partition((5,))) == IntPolynomial([1])
    assert syt_descent_polynomial(Partition((1, 1, 1, 1))) == IntPolynomial.monomial(3)
    assert syt_descent_polynomial(Partition((3, 3))) == IntPolynomial([0, 1, 3, 1])


def test_tableau_identity():
    assert verify_tableau_identity(1, 4)
    assert verify_tableau_identity(3, 2)
    report = verify_tableau_identity(4, 3)
    assert report
    assert report.left == report.right
    assert sum(report.left) == rectangular_catalan(4, 3) == 462


def test_sulanke_equidistribution():
    assert verify_sulanke_equidistribution(5, 1)
    assert verify_sulanke_equidistribution(3, 3)
    report = verify_sulanke_equidistribution(2, 2)
    assert report.left == (0, 1, 1)
    assert report.right == (0, 1, 1)


def test_rectangular_catalan():
    assert rectangular_catalan(4, 1) == 1
    assert rectangular_catalan(3, 2) == 5
    assert rectangular_catalan(4, 3) == 462
    assert rectangular_catalan(4, 3) == len(list(enumerate_lattice_words(4, 3)))


def test_polynomial_value_at_one_counts_objects():
    for n, m in [(2, 3), (3, 2), (4, 2), (2, 4), (5, 2)]:
        poly = narayana_polynomial(n, m)
        assert poly(1) == rectangular_catalan(n, m)
        assert all(c >= 0 for c in poly.coefficients)
        assert poly.coefficient(0) == 1


@pytest.mark.parametrize("n", range(1, 8))
def test_two_letter_polynomials_are_palindromic(n):
    coeffs = narayana_polynomial(n, 2).coefficients
    assert coeffs == tuple(reversed(coeffs))


def test_report_pinpoints_first_mismatch():
    report = compare_sequences("demo", (1, 2, 3), (1, 5, 3))
    assert not report
    assert report.mismatch_index == 1
    assert "index 1" in report.detail()
    assert "left=2" in report.detail()
    assert "right=5" in report.detail()
    ok = compare_sequences("demo", (1, 2), (1, 2))
    assert ok and ok.detail().endswith("ok")


def test_length_mismatch_is_detected():
    report = compare_sequences("demo", (1, 2), (1, 2, 4))
    assert not report
    assert report.mismatch_index == 2


@given(st.sampled_from([(n, m) for n in range(15) for m in range(15) if n * m <= 14]))
def test_closed_form_matches_word_descent_counts(pair):
    n, m = pair
    counts = [0] * max(1, n * m)
    for word in enumerate_lattice_words(n, m):
        counts[word.descent_count()] += 1
    assert narayana_polynomial(n, m) == IntPolynomial(counts)


@given(st.integers(0, 10).flatmap(lambda total: st.sampled_from(list(enumerate_partitions(total)))))
def test_closed_form_matches_tableau_enumeration(shape):
    assert IntPolynomial(_descent_closed_form(shape)) == syt_descent_polynomial(shape)


def test_closed_form_is_palindromic_and_counts_tableaux_up_to_64_cells():
    for n in range(65):
        for m in range(65):
            if n * m > 64:
                continue
            coeffs = narayana_polynomial(n, m).coefficients
            assert coeffs == tuple(reversed(coeffs)), (n, m)
            assert sum(coeffs) == rectangular_catalan(n, m), (n, m)


@pytest.mark.parametrize(
    "compare,build", [(gt, ferrers_poset), (lt, column_strict_ferrers_poset)],
    ids=["gt", "lt"],
)
def test_ballot_tally_matches_the_enumerated_tally_up_to_12_cells(compare, build):
    # the descent tally of the ballot sequences of each shape, by the DP on
    # its Ferrers poset: the natural labeling descends where the row word
    # descends, the column-strict one where it ascends
    for total in range(13):
        for shape in enumerate_partitions(total):
            words = (head + rest for head, tails in _scanned_blocks(shape.parts) for rest in tails)
            expected = IntPolynomial(_tally(words, total, compare))
            assert eulerian_polynomial(build(shape)) == expected, shape


@pytest.mark.parametrize(
    "build", [ferrers_poset, column_strict_ferrers_poset], ids=["natural", "column-strict"]
)
def test_ferrers_eulerian_polynomial_of_the_empty_shape_is_one(build):
    assert eulerian_polynomial(build(Partition(()))) == IntPolynomial([1])
    assert syt_descent_polynomial(Partition(())) == IntPolynomial([1])


def test_tableau_dp_reaches_the_8_by_8_rectangle():
    # 12,870 order ideals, inside DEFAULT_MAX_IDEALS
    shape = Partition.rectangle(8, 8)
    expected = IntPolynomial(_descent_closed_form(shape))
    assert syt_descent_polynomial(shape) == expected


def test_tableau_dp_refuses_the_9_by_9_rectangle_by_its_ideal_cap():
    # 48,620 order ideals: the ideal cap, the DP's one budget, refuses it,
    # while narayana_polynomial reaches 9-by-9 by the closed form
    shape = Partition.rectangle(9, 9)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="the ideal cap"):
        syt_descent_polynomial(shape)
    assert time.perf_counter() - start < 2.0
    assert narayana_polynomial(9, 9)(1) == rectangular_catalan(9, 9)


@pytest.mark.parametrize("n,m", [(5, 5), (6, 5)])
def test_engines_reach_past_the_cell_cap_without_an_override(n, m):
    # 25 and 30 cells: the closed form has no cap, and the two DPs are
    # bounded by their ideal cap alone (252 and 462 ideals)
    shape = Partition.rectangle(n, m)
    closed = IntPolynomial(_descent_closed_form(shape))
    assert narayana_polynomial(n, m).shift(m - 1) == closed
    assert syt_descent_polynomial(shape) == closed
    for check in (verify_tableau_identity, verify_sulanke_equidistribution):
        report = check(n, m)
        assert report, report.detail()
        assert report.right == closed.coefficients, check.__name__


@pytest.mark.parametrize("n,m", [(0, 0), (0, 3), (3, 0)])
def test_identities_hold_on_empty_rectangles(n, m):
    assert verify_tableau_identity(n, m)
    assert verify_sulanke_equidistribution(n, m)


@pytest.mark.parametrize("n,m", [(5, 4), (4, 5)])
def test_twenty_cell_rectangles_check_in_well_under_a_second(n, m):
    # enumerating the 1.66M words of 5-by-4 took about half a minute
    for check in (verify_tableau_identity, verify_sulanke_equidistribution):
        start = time.perf_counter()
        assert check(n, m)
        assert time.perf_counter() - start < 1.0, check.__name__
