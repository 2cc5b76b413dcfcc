import pytest
from hypothesis import given, strategies as st

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
    StandardTableau,
    enumerate_lattice_words,
    enumerate_syt,
    _rows_from_word,
)
from narayana.posets import column_strict_labeling

SAMPLE_WORD = LatticeWord.from_string("121113223233", 4, 3)
SAMPLE_ROWS = ((1, 3, 4, 5), (2, 7, 8, 10), (6, 9, 11, 12))


def test_sample_word_maps_to_known_tableau():
    tableau = word_to_tableau(SAMPLE_WORD)
    assert tableau.rows == SAMPLE_ROWS
    assert tableau_to_word(tableau) == SAMPLE_WORD
    assert SAMPLE_WORD.ascent_count() == tableau.descent_count() == 4


def test_small_cases():
    assert word_to_tableau(LatticeWord((1, 1, 2, 2), 2, 2)).rows == ((1, 2), (3, 4))
    column = word_to_tableau(LatticeWord((1, 2, 3), 1, 3))
    assert column.rows == ((1,), (2,), (3,))
    row = word_to_tableau(LatticeWord((1, 1, 1), 3, 1))
    assert row.rows == ((1, 2, 3),)
    assert str(tableau_to_word(row)) == "111"


def test_word_to_tableau_matches_the_rows_constructor():
    weights = [(n, m) for n in range(10) for m in range(10) if n * m <= 9]
    for n, m in weights:
        for word in enumerate_lattice_words(n, m):
            tableau = word_to_tableau(word)
            expected = StandardTableau(_rows_from_word(word.symbols, m))
            assert tableau == expected and tableau._row_word == expected._row_word
            assert str(tableau) == str(expected)


def test_tableau_to_word_requires_rectangles():
    staircase = StandardTableau(((1, 2), (3,)))
    with pytest.raises(ValueError, match="rectangular"):
        tableau_to_word(staircase)


def test_word_path_correspondence():
    assert word_to_path(LatticeWord((1, 2, 3), 1, 3)).steps == (3, 2, 1)
    path = word_to_path(LatticeWord((1, 1, 2, 2), 2, 2))
    assert path.steps == (2, 2, 1, 1)
    assert path.ascent_count() == 0
    assert path.descent_count() == 1
    assert path_to_word(path) == LatticeWord((1, 1, 2, 2), 2, 2)


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 6) for m in range(1, 6) if n * m <= 10])
def test_round_trips_exhaustive(n, m):
    for word in enumerate_lattice_words(n, m):
        tableau = word_to_tableau(word)
        assert tableau_to_word(tableau) == word
        assert word.ascent_count() == tableau.descent_count()
        path = word_to_path(word)
        assert path_to_word(path) == word
        assert path.ascent_count() == word.descent_count()
        assert path.descent_count() == word.ascent_count()
    for tableau in enumerate_syt(Partition.rectangle(n, m)):
        assert word_to_tableau(tableau_to_word(tableau)) == tableau


def test_perm_to_tableau_known_case():
    shape = Partition((4, 2, 1))
    labeling = column_strict_labeling(shape)
    assert labeling == ((4, 5, 6, 7), (2, 3), (1,))
    tableau = perm_to_tableau((4, 2, 1, 5, 6, 7, 3), labeling, shape)
    assert tableau.rows == ((1, 4, 5, 6), (2, 7), (3,))
    pi = (4, 2, 1, 5, 6, 7, 3)
    descents = sum(1 for a, b in zip(pi, pi[1:]) if a > b)
    assert descents == tableau.descent_count() == 3


def test_perm_to_tableau_single_row():
    shape = Partition((4,))
    tableau = perm_to_tableau((1, 2, 3, 4), ((1, 2, 3, 4),), shape)
    assert tableau.rows == ((1, 2, 3, 4),)


def test_perm_to_tableau_rejects_bad_input():
    shape = Partition((2, 1))
    labeling = column_strict_labeling(shape)  # ((2, 3), (1,))
    assert perm_to_tableau((2, 3, 1), labeling, shape).rows == ((1, 2), (3,))
    with pytest.raises(ValueError, match="Jordan-Holder"):
        perm_to_tableau((3, 2, 1), labeling, shape)
    with pytest.raises(ValueError, match="permutation"):
        perm_to_tableau((1, 1, 2), labeling, shape)
    with pytest.raises(ValueError, match="labeling"):
        perm_to_tableau((1, 2, 3), ((1, 2), (3,)), Partition((2, 2)))
    with pytest.raises(ValueError, match="labeling"):
        perm_to_tableau((1, 2, 3), ((1, 2), (9,)), shape)


@pytest.mark.parametrize(
    "pi, labeling, message",
    [
        ((3, 4, True, 2), ((3, 4), (1, 2)), "permutation"),
        ((3, 4, 1.0, 2), ((3, 4), (1, 2)), "permutation"),
        ((3, 4, 1, 2), ((3, 4), (True, 2)), "labeling"),
        ((3, 4, 1, 2), ((3, 4.0), (1, 2)), "labeling"),
    ],
    ids=["bool in pi", "float in pi", "bool label", "float label"],
)
def test_perm_to_tableau_refuses_values_that_are_not_ints(pi, labeling, message):
    # with ints in their place, (3, 4, 1, 2) fills ((1, 2), (3, 4))
    with pytest.raises(ValueError, match=message):
        perm_to_tableau(pi, labeling, Partition((2, 2)))


WEIGHTS = [(n, m) for n in range(1, 5) for m in range(1, 5) if n * m <= 9]


@st.composite
def lattice_words(draw):
    n, m = draw(st.sampled_from(WEIGHTS))
    return draw(st.sampled_from(list(enumerate_lattice_words(n, m))))


@given(lattice_words())
def test_maps_are_inverse_on_random_words(word):
    assert tableau_to_word(word_to_tableau(word)) == word
    assert path_to_word(word_to_path(word)) == word
