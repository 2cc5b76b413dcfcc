"""Acceptance suite: exhaustive desk-scale verification of every identity
plus the oracle cross-checks. One pass/fail line is printed per criterion;
all comparisons are exact integer equalities."""

import random
import time

from narayana.bijections import (
    path_to_word,
    perm_to_tableau,
    tableau_to_word,
    word_to_path,
    word_to_tableau,
)
from narayana.combinatorics import (
    LatticeWord,
    Partition,
    enumerate_lattice_words,
    enumerate_partitions,
    enumerate_syt,
    syt_count_hook,
)
from narayana.generating import (
    narayana_polynomial,
    verify_sulanke_equidistribution,
    verify_tableau_identity,
)
from narayana.polynomials import (
    IntPolynomial,
    is_log_concave,
    is_real_rooted,
    is_unimodal,
    newton_inequalities_hold,
    square_free_part,
    sturm_real_root_count,
)
from narayana.posets import (
    antichain_poset,
    column_strict_ferrers_poset,
    column_strict_labeling,
    eulerian_polynomial,
    verify_ferrers_eulerian_identity,
    verify_order_gf,
)


def _weights(max_cells):
    return [
        (n, m)
        for n in range(1, max_cells + 1)
        for m in range(1, max_cells // n + 1)
    ]


def _shapes(max_cells):
    return [
        shape
        for total in range(1, max_cells + 1)
        for shape in enumerate_partitions(total)
    ]


def _report(number, ok, text):
    print(f"criterion {number:02d} [{'PASS' if ok else 'FAIL'}] {text}")
    return ok


def test_criterion_01_tableau_identity_up_to_16_cells():
    started = time.time()
    failures = [
        report.detail()
        for n, m in _weights(16)
        if not (report := verify_tableau_identity(n, m))
    ]
    elapsed = time.time() - started
    ok = not failures and elapsed < 120.0
    assert _report(1, ok, f"tableau identity, nm <= 16, {elapsed:.1f}s"), failures[:3]


def test_criterion_02_path_equidistribution_up_to_16_cells():
    failures = [
        report.detail()
        for n, m in _weights(16)
        if not (report := verify_sulanke_equidistribution(n, m))
    ]
    assert _report(2, not failures, "ascent/descent equidistribution, nm <= 16"), failures[:3]


def test_criterion_03_real_rootedness_and_the_implication_chain():
    failures = []
    for n, m in _weights(18):
        poly = narayana_polynomial(n, m)
        certificate = is_real_rooted(poly)
        newton = newton_inequalities_hold(poly)
        log_concave = is_log_concave(poly)
        unimodal = is_unimodal(poly)
        if not certificate.real_rooted:
            failures.append(f"n={n} m={m}: not real-rooted")
        # each implication link, asserted per instance
        if certificate.real_rooted and not newton:
            failures.append(f"n={n} m={m}: real-rooted but newton fails")
        if newton and not log_concave:
            failures.append(f"n={n} m={m}: newton holds but not log-concave")
        if log_concave and not unimodal:
            failures.append(f"n={n} m={m}: log-concave but not unimodal")
    assert _report(3, not failures, "real-rooted + newton + log-concave + unimodal, nm <= 18"), failures[:3]


def test_criterion_04_eulerian_identity_on_all_small_shapes():
    shapes = _shapes(10)
    failures = []
    for shape in shapes:
        report = verify_ferrers_eulerian_identity(shape)
        if not report:
            failures.append(report.detail())
            continue
        if not is_real_rooted(IntPolynomial(report.left)):
            failures.append(f"shape {shape}: descent polynomial not real-rooted")
    assert _report(
        4, not failures, f"poset Eulerian = tableau descents + real-rooted, {len(shapes)} shapes <= 10 cells"
    ), failures[:3]


def test_criterion_05_order_polynomial_series_identity():
    cases = [column_strict_ferrers_poset(shape) for shape in _shapes(7)]
    cases.append(antichain_poset(3))
    failures = [
        report.detail()
        for poset in cases
        if not (report := verify_order_gf(poset))
    ]
    assert _report(
        5, not failures, f"order polynomial vs series, {len(cases)} posets, every coefficient"
    ), failures[:3]


def test_criterion_06_word_tableau_regression():
    word = LatticeWord.from_string("121113223233", 4, 3)
    tableau = word_to_tableau(word)
    ok = (
        tableau.rows == ((1, 3, 4, 5), (2, 7, 8, 10), (6, 9, 11, 12))
        and tableau_to_word(tableau) == word
        and word.ascent_count() == 4
        and tableau.descent_count() == 4
    )
    assert _report(6, ok, "12-cell word/tableau regression")


def test_criterion_07_labeled_grid_regression():
    shape = Partition((4, 2, 1))
    labeling = column_strict_labeling(shape)
    pi = (4, 2, 1, 5, 6, 7, 3)
    tableau = perm_to_tableau(pi, labeling, shape)
    descents = sum(1 for a, b in zip(pi, pi[1:]) if a > b)
    ok = (
        labeling == ((4, 5, 6, 7), (2, 3), (1,))
        and tableau.rows == ((1, 4, 5, 6), (2, 7), (3,))
        and descents == 3
        and tableau.descent_count() == 3
    )
    assert _report(7, ok, "7-cell labeled grid regression")


def test_criterion_08_counting_oracles_agree():
    failures = []
    for shape in _shapes(12):
        if syt_count_hook(shape) != sum(1 for _ in enumerate_syt(shape)):
            failures.append(str(shape))
    catalan = [narayana_polynomial(n, 2)(1) for n in range(1, 7)]
    if catalan != [1, 2, 5, 14, 42, 132]:
        failures.append(f"catalan row: {catalan}")
    assert _report(
        8, not failures, "hook formula vs enumeration <= 12 cells, catalan row"
    ), failures[:3]


def test_criterion_09_bijection_round_trips():
    failures = []
    for n, m in _weights(14):
        for word in enumerate_lattice_words(n, m):
            tableau = word_to_tableau(word)
            if tableau_to_word(tableau) != word:
                failures.append(f"word round trip: {word}")
                break
            path = word_to_path(word)
            if path_to_word(path) != word:
                failures.append(f"path round trip: {word}")
                break
            if path.ascent_count() != word.descent_count() or path.descent_count() != word.ascent_count():
                failures.append(f"statistic swap: {word}")
                break
        for tableau in enumerate_syt(Partition.rectangle(n, m)):
            if word_to_tableau(tableau_to_word(tableau)) != tableau:
                failures.append(f"tableau round trip: {tableau}")
                break
    assert _report(9, not failures, "bijection round trips, nm <= 14"), failures[:3]


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


def test_criterion_10_analysis_oracles():
    failures = []
    span = range(-10, 11)
    for a in span:
        if a == 0:
            continue
        for b in span:
            for c in span:
                if bool(is_real_rooted(IntPolynomial([c, b, a]))) != _quadratic_real_rooted(a, b, c):
                    failures.append(f"quadratic {a},{b},{c}")
    for a in span:
        if a == 0:
            continue
        for b in span:
            for c in span:
                for d in span:
                    got = bool(is_real_rooted(IntPolynomial([d, c, b, a])))
                    if got != _cubic_real_rooted(a, b, c, d):
                        failures.append(f"cubic {a},{b},{c},{d}")

    rng = random.Random(20260810)
    checked = 0
    while checked < 1000:
        degree = rng.randint(1, 6)
        coeffs = [rng.randint(-25, 25) for _ in range(degree)] + [rng.randint(1, 25)]
        square_free = square_free_part(IntPolynomial(coeffs))
        if square_free.degree < 1:
            continue
        checked += 1
        cuts = sorted(rng.sample(range(-60, 61), 3))
        pieces = (
            sturm_real_root_count(square_free, None, cuts[0])
            + sturm_real_root_count(square_free, cuts[0], cuts[1])
            + sturm_real_root_count(square_free, cuts[1], cuts[2])
            + sturm_real_root_count(square_free, cuts[2], None)
        )
        if pieces != sturm_real_root_count(square_free):
            failures.append(f"additivity {coeffs} at {cuts}")
    assert _report(
        10, not failures, "discriminant agreement (deg 2, 3) + sturm additivity x1000"
    ), failures[:3]
