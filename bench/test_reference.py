"""Tests of the benchmark's reference computations and answer checks.

Run with ``python3 bench/test_reference.py`` or ``python3 -m pytest
bench/test_reference.py``. Expected values are hand values from the
literature or brute force by definition, never the program's output.
"""

from __future__ import annotations

import itertools
import json

import reference as ref
from workloads import Result, _check_analyze, _check_enumerate, _check_poly, _check_verify


def test_hand_values():
    assert ref.narayana(4, 3) == [1, 22, 113, 190, 113, 22, 1]
    assert ref.narayana(3, 2) == [1, 3, 1]
    assert ref.narayana(5, 1) == [1]
    assert ref.partition_count(10) == 42
    assert [ref.partition_count(k) for k in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert ref.hook_count((4, 4)) == 14
    assert ref.hook_count((3, 3, 3)) == 42
    assert ref.hook_count((5, 5, 5, 5)) == 1662804
    assert ref.eulerian(4) == [1, 11, 11, 1]
    assert ref.narayana_two(4) == [1, 6, 6, 1]
    assert ref.weight_count(10) == 27
    assert len(list(ref.partitions(10))) == 42


def _brute_descents(parts):
    """Descent polynomial of the standard fillings, by listing every
    arrangement of the row word and keeping those that fill the shape."""
    tallies = [0] * max(1, sum(parts))
    row_word = [row for row, length in enumerate(parts, start=1) for _ in range(length)]
    for word in set(itertools.permutations(row_word)):
        counts = [0] * (len(parts) + 1)
        for row in word:
            counts[row] += 1
            if row > 1 and counts[row] > counts[row - 1]:
                break
        else:
            tallies[sum(1 for a, b in zip(word, word[1:]) if b > a)] += 1
    while len(tallies) > 1 and tallies[-1] == 0:
        tallies.pop()
    return tallies


def test_closed_form_matches_brute_force():
    for cells in range(1, 8):
        for parts in ref.partitions(cells):
            assert ref.descent_polynomial(parts) == _brute_descents(parts), parts
            assert sum(ref.descent_polynomial(parts)) == ref.hook_count(parts), parts


def test_word_checkers():
    assert ref.is_lattice((1, 2, 1, 2), 2, 2)
    assert not ref.is_lattice((1, 2, 2, 1), 2, 2)
    assert not ref.is_lattice((1, 1, 2), 2, 2)
    assert ref.is_ballot((2, 2, 1, 1), 2, 2)
    assert not ref.is_ballot((1, 2, 2, 1), 2, 2)
    assert ref.tableau_row_word(((1, 2), (3,)), (2, 1)) == (1, 1, 2)
    assert ref.tableau_row_word(((1, 3), (2,)), (2, 1)) == (1, 2, 1)
    assert ref.tableau_row_word(((2, 1), (3,)), (2, 1)) is None
    assert ref.tableau_row_word(((1, 2), (3,)), (3,)) is None


def test_checks_accept_good_and_reject_bad_answers():
    poly = {"n": 4, "m": 3, "coefficients": ["1", "22", "113", "190", "113", "22", "1"],
            "degree": 6, "catalan": "462"}
    assert _check_poly(4, 3)(Result(0, json.dumps(poly), ""))
    poly["catalan"] = "461"
    assert not _check_poly(4, 3)(Result(0, json.dumps(poly), ""))

    analysis = {"degree": 3, "real_rooted": True, "distinct_real_roots": 3,
                "log_concave": True, "unimodal": True, "newton": True}
    assert _check_analyze([1, 11, 11, 1], True, 3)(Result(0, json.dumps(analysis), ""))
    analysis["newton"] = False
    assert not _check_analyze([1, 11, 11, 1], True, 3)(Result(0, json.dumps(analysis), ""))

    words = "1122\n1212\n"
    assert _check_enumerate("words", (2, 2))(Result(0, words, ""))
    assert not _check_enumerate("words", (2, 2))(Result(0, "1212\n1122\n", ""))
    assert not _check_enumerate("words", (2, 2))(Result(0, "1122\n1221\n", ""))
    assert _check_enumerate("paths", (2, 2))(Result(0, "2211\n2121\n", ""))
    assert _check_enumerate("syt", (2, 1))(Result(0, "1,2;3\n1,3;2\n", ""))
    assert not _check_enumerate("syt", (2, 1))(Result(0, "1,3;2\n1,2;3\n", ""))

    sweep = "theorem21 n=1 m=1: PASS\nsuite theorem21: 1/1 passed\n"
    assert _check_verify("theorem21", 1)(Result(0, sweep, ""))
    assert not _check_verify("theorem21", 2)(Result(0, sweep, ""))
    assert not _check_verify("theorem21", 1)(Result(1, sweep, ""))


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
