"""Correspondences between lattice words, ballot paths, standard tableaux,
and the permutations read off labeled grid posets.

Each map is a pure function of immutable inputs; the word/tableau pair and
the word/path pair are mutually inverse, and all of them transport descent
statistics in a testable way.
"""

from __future__ import annotations

from typing import Sequence

from .combinatorics import (
    BallotPath,
    LatticeWord,
    Partition,
    StandardTableau,
    _relabel,
    _rows_from_word,
    _trusted,
)


def word_to_tableau(word: LatticeWord) -> StandardTableau:
    """Fill row i with the positions at which symbol i occurs in the word.

    The result is a standard filling of the m-by-n rectangle: row i lists,
    left to right, where the first, second, ... occurrence of i sits. The
    word has passed the ballot scan, which is the whole check of these rows,
    so the tableau is built without a second one.
    """
    symbols = word.symbols
    return _trusted(StandardTableau, rows=_rows_from_word(symbols, word.m), _row_word=symbols)


def tableau_to_word(tableau: StandardTableau) -> LatticeWord:
    """Read off the row index of each entry 1..p in order.

    Only defined for rectangular shapes, where the readout is a lattice word;
    other shapes raise a ValueError.
    """
    parts = tableau.shape.parts
    if parts and not tableau.shape.is_rectangular():
        raise ValueError(f"word readout needs a rectangular shape, got ({tableau.shape})")
    return LatticeWord(tableau._row_word, parts[0] if parts else 0, len(parts))


def word_to_path(word: LatticeWord) -> BallotPath:
    """Replace each symbol with a unit step in the mirrored coordinate
    (1 and m swap, 2 and m-1 swap, and so on).

    Ascents of the path match descents of the word and vice versa.
    """
    return BallotPath(_relabel(word.symbols, word.m), word.n, word.m)


def path_to_word(path: BallotPath) -> LatticeWord:
    """Inverse of :func:`word_to_path`."""
    return LatticeWord(_relabel(path.steps, path.m), path.n, path.m)


def perm_to_tableau(
    pi: Sequence[int],
    labeling: Sequence[Sequence[int]],
    shape: Partition,
) -> StandardTableau:
    """Place k at the cell whose label equals pi[k-1].

    ``labeling`` assigns a distinct label 1..p to each cell of the shape,
    given row by row. The filling is a standard tableau exactly when the
    visited cell sequence is a linear extension of the grid order; in that
    case position k is a descent of pi if and only if k is a descent of the
    tableau.
    """
    rows = [tuple(row) for row in labeling]
    if tuple(len(row) for row in rows) != shape.parts:
        raise ValueError(f"labeling does not match shape ({shape})")
    p = shape.cells
    cell_of_label: dict[int, tuple[int, int]] = {}
    for i, row in enumerate(rows):
        for j, label in enumerate(row):
            if type(label) is not int or not 1 <= label <= p or label in cell_of_label:
                raise ValueError("labeling must assign each of 1..p to exactly one cell")
            cell_of_label[label] = (i, j)
    values = tuple(pi)
    if not all(type(value) is int for value in values) or sorted(values) != list(range(1, p + 1)):
        raise ValueError(f"pi must be a permutation of 1..{p}, got {values}")
    grid = [[0] * length for length in shape.parts]
    for k, value in enumerate(values, start=1):
        i, j = cell_of_label[value]
        grid[i][j] = k
    try:
        return StandardTableau(tuple(tuple(row) for row in grid))
    except ValueError as exc:
        raise ValueError(
            "permutation is not in the Jordan-Holder set of this labeling"
        ) from exc
