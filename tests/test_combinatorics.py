from collections import Counter
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, strategies as st

from narayana import combinatorics
from narayana.combinatorics import (
    DEFAULT_MAX_CELLS,
    BallotPath,
    BudgetExceededError,
    LatticeWord,
    Partition,
    StandardTableau,
    enumerate_ballot_paths,
    enumerate_lattice_words,
    enumerate_lines,
    enumerate_partitions,
    enumerate_syt,
    is_lattice_word,
    syt_count_hook,
    _ballot_blocks,
    _count_back,
    _prefix_count,
    _relabel,
    _rows_from_word,
    _scan_ballot,
    _scanned_blocks,
    _split,
)

SAMPLE_WORD = "121113223233"


def _ballot_words(quotas):
    """The checked ballot sequences of the quotas, one word per completion."""
    return [prefix + rest for prefix, tails in _scanned_blocks(quotas) for rest in tails]


@st.composite
def partitions(draw, max_cells=10):
    total = draw(st.integers(min_value=1, max_value=max_cells))
    bins = draw(st.integers(min_value=1, max_value=total))
    counts = Counter(
        draw(st.lists(st.integers(0, bins - 1), min_size=total, max_size=total))
    )
    return Partition(tuple(sorted(counts.values(), reverse=True)))


class TestPartition:
    def test_validation(self):
        Partition((3, 2, 2, 1))
        Partition(())
        with pytest.raises(ValueError):
            Partition((2, 3))
        with pytest.raises(ValueError):
            Partition((2, 0))
        with pytest.raises(ValueError):
            Partition((-1,))

    def test_bool_parts_are_refused(self):
        with pytest.raises(ValueError, match="part 1 must be a positive integer, got True"):
            Partition((True,))
        with pytest.raises(ValueError, match="part 2"):
            Partition((2, True))

    def test_cells_and_rows(self):
        shape = Partition((4, 2, 1))
        assert shape.cells == 7
        assert shape.rows == 3
        assert str(shape) == "4,2,1"

    def test_rectangle(self):
        assert Partition.rectangle(4, 3).parts == (4, 4, 4)
        assert Partition.rectangle(0, 3).parts == ()
        assert Partition.rectangle(3, 0).parts == ()
        with pytest.raises(ValueError):
            Partition.rectangle(-1, 2)

    def test_from_string(self):
        assert Partition.from_string("3,2,1").parts == (3, 2, 1)
        with pytest.raises(ValueError):
            Partition.from_string("3,x")

    def test_conjugate(self):
        assert Partition((4, 2, 1)).conjugate().parts == (3, 2, 1, 1)
        assert Partition(()).conjugate().parts == ()

    @given(partitions())
    def test_conjugate_is_an_involution(self, shape):
        assert shape.conjugate().conjugate() == shape

    def test_is_rectangular(self):
        assert Partition((3, 3)).is_rectangular()
        assert not Partition((3, 2)).is_rectangular()


class TestIsLatticeWord:
    def test_twelve_cell_word(self):
        assert is_lattice_word([int(c) for c in SAMPLE_WORD], 4, 3)

    def test_smallest_violation(self):
        assert not is_lattice_word([2, 1], 1, 2)

    def test_direct_prefix_scan(self):
        assert is_lattice_word([1, 1, 2, 2, 1, 2], 3, 2)

    def test_wrong_counts(self):
        assert not is_lattice_word([1, 1, 2], 2, 2)

    def test_symbol_out_of_alphabet(self):
        with pytest.raises(ValueError, match="position 3"):
            is_lattice_word([1, 2, 5], 1, 2)
        with pytest.raises(ValueError, match="position 1"):
            is_lattice_word([0, 1], 1, 1)


class TestLatticeWord:
    def test_statistics(self):
        word = LatticeWord.from_string(SAMPLE_WORD, 4, 3)
        assert word.ascent_count() == 4
        assert word.descent_count() == 3

    def test_constant_word(self):
        word = LatticeWord((1,) * 6, 6, 1)
        assert word.ascent_count() == 0
        assert word.descent_count() == 0

    def test_increasing_word(self):
        word = LatticeWord(tuple(range(1, 6)), 1, 5)
        assert word.ascent_count() == 4
        assert word.descent_count() == 0

    def test_sorted_word_has_no_descent(self):
        word = LatticeWord((1, 1, 2, 2, 3, 3), 2, 3)
        assert word.descent_count() == 0

    def test_invalid_word_rejected(self):
        with pytest.raises(ValueError):
            LatticeWord((2, 1), 1, 2)
        with pytest.raises(ValueError):
            LatticeWord((1, 1), 1, 2)

    def test_bool_symbols_are_refused(self):
        # True == 1, but a word holds ints only
        with pytest.raises(ValueError, match="symbol True at position 1"):
            LatticeWord((True, 2), 1, 2)
        with pytest.raises(ValueError, match="symbol True at position 2"):
            is_lattice_word([1, True], 1, 2)

    @pytest.mark.parametrize("n,m", [(2.0, 2), (2, 2.0), (True, 2), (2, True), (-1, 2)])
    def test_weights_that_are_not_nonnegative_ints_are_refused(self, n, m):
        # 2.0 == 2 and True == 1, but a weight holds ints only, as a partition does
        for build in (
            lambda: LatticeWord((1, 2, 1, 2), n, m),
            lambda: BallotPath((2, 1, 2, 1), n, m),
            lambda: is_lattice_word((1, 2, 1, 2), n, m),
            lambda: next(enumerate_lattice_words(n, m)),
            lambda: next(enumerate_ballot_paths(n, m)),
            lambda: Partition.rectangle(n, m),
        ):
            with pytest.raises(ValueError, match="n and m must be nonnegative integers"):
                build()

    def test_from_string_comma_form(self):
        assert LatticeWord.from_string("1,2,1,2", 2, 2).symbols == (1, 2, 1, 2)

    def test_str(self):
        assert str(LatticeWord((1, 2, 1, 2), 2, 2)) == "1212"


class TestBallotPath:
    def test_region_enforced(self):
        BallotPath((2, 1), 1, 2)
        with pytest.raises(ValueError, match="prefix of length 1"):
            BallotPath((1, 2), 1, 2)

    def test_counts_enforced(self):
        with pytest.raises(ValueError):
            BallotPath((2, 2), 1, 2)

    @pytest.mark.parametrize(
        "steps,n,m,message",
        [
            ((1, 2), 1, 2, "prefix of length 1 pushes coordinate 1 above coordinate 2"),
            ((3, 2, 2, 1, 1), 2, 3, "prefix of length 3 pushes coordinate 2 above coordinate 3"),
            ((2, 2), 1, 2, "step 2 occurs 2 times, expected 1"),
            ((3, 2, 1), 2, 3, "step 3 occurs 1 times, expected 2"),
            ((3, 3, 2, 2, 1), 2, 3, "step 1 occurs 1 times, expected 2"),
        ],
    )
    def test_error_messages(self, steps, n, m, message):
        with pytest.raises(ValueError) as info:
            BallotPath(steps, n, m)
        assert str(info.value) == message

    @pytest.mark.parametrize("steps", [(2, 3), (0, 1), (2, 1.0), (2, "1"), (2, True)])
    def test_steps_outside_the_coordinates(self, steps):
        with pytest.raises(ValueError, match=r"1\.\.2"):
            BallotPath(steps, 1, 2)

    def test_statistics_swap_against_word(self):
        path = BallotPath((3, 2, 3, 3, 3, 1, 2, 2, 1, 2, 1, 1), 4, 3)
        assert path.ascent_count() == 3
        assert path.descent_count() == 4

    def test_single_coordinate(self):
        path = BallotPath((1, 1, 1), 3, 1)
        assert path.ascent_count() == 0
        assert path.descent_count() == 0


class TestStandardTableau:
    def test_twelve_cell_tableau_descents(self):
        tableau = StandardTableau(((1, 3, 4, 5), (2, 7, 8, 10), (6, 9, 11, 12)))
        assert tableau.descent_set() == frozenset({1, 5, 8, 10})
        assert tableau.descent_count() == 4

    def test_single_row_and_column(self):
        assert StandardTableau(((1, 2, 3, 4),)).descent_set() == frozenset()
        column = StandardTableau(((1,), (2,), (3,)))
        assert column.descent_set() == frozenset({1, 2})

    def test_row_of(self):
        tableau = StandardTableau(((1, 2), (3, 4)))
        assert tableau.row_of(3) == 2
        with pytest.raises(ValueError):
            tableau.row_of(9)

    def test_shape_and_str(self):
        tableau = StandardTableau(((1, 2), (3, 4)))
        assert tableau.shape == Partition((2, 2))
        assert str(tableau) == "1,2;3,4"

    def test_validation(self):
        with pytest.raises(ValueError, match="row 1"):
            StandardTableau(((2, 1), (3, 4)))
        with pytest.raises(ValueError, match="column 1"):
            StandardTableau(((2, 3), (1, 4)))
        with pytest.raises(ValueError, match="entries"):
            StandardTableau(((1, 2), (3, 5)))
        with pytest.raises(ValueError, match="weakly decreasing"):
            StandardTableau(((1,), (2, 3)))

    @pytest.mark.parametrize("rows", [((True,),), ((1, 2), (True,)), ((1.0,),)])
    def test_non_integer_entries_are_refused(self, rows):
        with pytest.raises(ValueError, match="not an integer"):
            StandardTableau(rows)

    def test_column_error_names_the_first_failing_column(self):
        with pytest.raises(ValueError, match=r"column 3 is not strictly increasing: \[6, 5\]"):
            StandardTableau(((1, 2, 6), (3, 4, 5)))
        with pytest.raises(ValueError, match="column 2"):
            StandardTableau(((1, 4), (2, 3), (5,)))


class TestEnumeration:
    def test_unique_word_for_n_one(self):
        assert [str(w) for w in enumerate_lattice_words(1, 3)] == ["123"]
        assert [str(w) for w in enumerate_lattice_words(1, 4)] == ["1234"]

    def test_two_by_two(self):
        assert [str(w) for w in enumerate_lattice_words(2, 2)] == ["1122", "1212"]

    def test_catalan_counts(self):
        assert len(list(enumerate_lattice_words(3, 2))) == 5
        assert len(list(enumerate_lattice_words(4, 2))) == 14

    def test_degenerate_weights(self):
        assert [w.symbols for w in enumerate_lattice_words(0, 4)] == [()]
        assert [w.symbols for w in enumerate_lattice_words(4, 0)] == [()]

    def test_lexicographic_order_and_validity(self):
        words = [w.symbols for w in enumerate_lattice_words(3, 2)]
        assert words == sorted(words)
        assert all(is_lattice_word(w, 3, 2) for w in words)

    def test_budget(self):
        with pytest.raises(BudgetExceededError, match=str(DEFAULT_MAX_CELLS)):
            next(enumerate_lattice_words(23, 1))
        assert len(list(enumerate_lattice_words(23, 1, max_cells=23))) == 1

    def test_paths_match_words(self):
        paths = [p.steps for p in enumerate_ballot_paths(2, 2)]
        assert paths == [(2, 2, 1, 1), (2, 1, 2, 1)]


def _arrangements(quotas):
    """Every distinct arrangement of the multiset holding quotas[r-1] copies
    of r: each symbol in turn takes a set of the positions still free."""
    total = sum(quotas)
    word = [0] * total

    def place(symbol, free):
        if symbol > len(quotas):
            yield tuple(word)
            return
        for spots in combinations(free, quotas[symbol - 1]):
            for spot in spots:
                word[spot] = symbol
            yield from place(symbol + 1, [f for f in free if f not in spots])

    yield from place(1, list(range(total)))


# small quotas: some split up to four symbols before the end, the rest walk
# the whole word
GENERATOR_QUOTAS = sorted(
    {shape.parts for total in range(9) for shape in enumerate_partitions(total)}
    | {(n,) * m for n in range(1, 10) for m in range(1, 10) if n * m <= 9}
    | {(), (0, 0, 0)}
)


@pytest.mark.parametrize("quotas", GENERATOR_QUOTAS, ids=str)
def test_ballot_generator_matches_the_filtered_arrangements(quotas):
    expected = sorted(w for w in _arrangements(quotas) if _scan_ballot(w, quotas) is None)
    assert _ballot_words(quotas) == expected


def test_long_prefix_walks_need_no_recursion():
    # the prefix walk is iterative, so thousands of symbols stay in reach
    assert len(list(enumerate_lattice_words(2000, 1, max_cells=2000))) == 1
    assert len(list(enumerate_syt(Partition((1,) * 1500), max_cells=1500))) == 1


def _two_row_words(a, b):
    """Every word of a 1's and b 2's: the 2's take each set of positions."""
    for twos in combinations(range(a + b), b):
        word = [1] * (a + b)
        for spot in twos:
            word[spot] = 2
        yield tuple(word)


def _two_column_words(a, b):
    """The row words of the fillings of two columns of lengths a and b that
    increase down each column: the second column takes each set of b of the
    entries 1..a+b, and an entry's row is its rank in its column."""
    for second in combinations(range(a + b), b):
        ranks = [0, 0]
        word = []
        for entry in range(a + b):
            column = entry in second
            ranks[column] += 1
            word.append(ranks[column])
        yield tuple(word)


# every shape of two rows or two columns of up to 16 cells, and the 20-cell
# ones whose second row or column is short (all 20-cell ones take ~15 s)
TWO_ROWS = [(n - b, b) for n in range(17) for b in range(n // 2 + 1)] + [
    (20 - b, b) for b in range(4)
]


@pytest.mark.parametrize("a, b", TWO_ROWS, ids=str)
def test_two_rows_and_two_columns_match_an_independent_generator(a, b):
    rows = (a, b)[: 2 if b else 1]
    expected = sorted(w for w in _two_row_words(a, b) if _scan_ballot(w, rows) is None)
    assert _ballot_words(rows) == expected
    columns = (2,) * b + (1,) * (a - b)
    expected = sorted({w for w in _two_column_words(a, b) if _scan_ballot(w, columns) is None})
    assert _ballot_words(columns) == expected


def test_completions_counted_back_to_the_empty_prefix_are_the_hook_count():
    # the split chooser's count, run past its window down to the empty
    # prefix, counts every word once: every shape of at most 12 cells and
    # every rectangle of at most 22
    shapes = [shape.parts for total in range(13) for shape in enumerate_partitions(total)]
    shapes += [(n,) * m for n in range(1, 23) for m in range(1, 22 // n + 1) if n * m > 12]
    for parts in shapes:
        caps = (0,) + parts
        level = {caps: 1}
        for _ in range(sum(parts)):
            level = _count_back(level)
        assert level == {(0,) * len(caps): syt_count_hook(Partition(parts))}, parts


def test_prefix_counts_are_the_hook_counts_of_the_count_vectors():
    for total in range(15):
        for shape in enumerate_partitions(total):
            for padding in range(3):
                counts = (0,) + shape.parts + (0,) * padding
                if len(counts) > 1:
                    assert _prefix_count(counts) == syt_count_hook(shape), counts
    assert _prefix_count((0, 2000)) == _prefix_count((0,) + (1,) * 1500) == 1


def _split_costs(quotas):
    """For each prefix length L, the prefixes of length L plus the
    completions of the count vectors they reach; and the completions of
    every count vector. Both read off the list of the words, with no hook
    length and no count."""
    total = sum(quotas)
    prefixes = [set() for _ in range(total + 1)]
    rests = {}  # count vector (with the placeholder 0) -> its completions
    for word in _ballot_words(quotas):
        counts = [0] * (len(quotas) + 1)
        for length in range(total + 1):
            prefixes[length].add(word[:length])
            rests.setdefault(tuple(counts), set()).add(word[length:])
            if length < total:
                counts[word[length]] += 1
    costs = [len(heads) for heads in prefixes]
    for counts, completions in rests.items():
        costs[sum(counts)] += len(completions)
    return costs, {counts: len(completions) for counts, completions in rests.items()}


@pytest.mark.parametrize(
    "quotas",
    sorted({shape.parts for total in range(1, 11) for shape in enumerate_partitions(total)})
    + [(4, 4, 4, 4), (10, 10), (2,) * 10, (5, 4, 2, 1), (6, 3, 3, 1)],
    ids=str,
)
def test_the_split_is_the_cheapest_prefix_length(quotas):
    # the longest L of least prefixes plus completions, found by trying all
    costs, completions = _split_costs(quotas)
    split, counted = _split((0,) + quotas)
    assert split == max(length for length, cost in enumerate(costs) if cost == min(costs))
    assert all(counts in counted for counts in completions if sum(counts) >= split)
    assert counted == {counts: completions[counts] for counts in counted}


@pytest.mark.parametrize(
    "quotas, blocks",
    [((10, 10), None), ((4, 4, 4, 4), None), ((15, 3, 2, 1, 1), 2000),
     ((6, 5, 4, 3, 2, 1, 1), 2000), ((7, 7, 4, 2, 1, 1), 2000)],
    ids=str,
)
def test_no_block_waits_for_a_table_larger_than_the_lines_before_it(quotas, blocks):
    # the first block of every shape is one word, and a table is taken only
    # when it holds at most one completion more than the lines already out
    lines = 0
    for count, (prefix, table) in enumerate(_ballot_blocks(quotas)):
        assert len(table) <= lines + 1, (count, prefix)
        if count == 0:
            assert len(prefix) + len(table[0]) == sum(quotas) and len(table) == 1
        lines += len(table)
        if count == blocks:
            break


class TestSytEnumeration:
    def test_forced_fillings(self):
        assert [str(t) for t in enumerate_syt(Partition((1, 1, 1)))] == ["1;2;3"]
        assert len(list(enumerate_syt(Partition((2, 2))))) == 2

    def test_counts_match_words(self):
        assert len(list(enumerate_syt(Partition((3, 3))))) == 5
        assert len(list(enumerate_syt(Partition((3, 3))))) == len(
            list(enumerate_lattice_words(3, 2))
        )

    def test_order_is_lexicographic_by_row_readout(self):
        readouts = []
        for tableau in enumerate_syt(Partition((3, 2))):
            row_word = [0] * tableau.size
            for index, row in enumerate(tableau.rows, start=1):
                for entry in row:
                    row_word[entry - 1] = index
            readouts.append(tuple(row_word))
        assert readouts == sorted(readouts)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            next(enumerate_syt(Partition((12, 12))))

    @pytest.mark.parametrize(
        "parts",
        [(4,), (2, 2), (3, 2, 1), (4, 4, 4), (2, 2, 2, 1), (5, 3, 1)],
    )
    def test_hook_count_matches_enumeration(self, parts):
        shape = Partition(parts)
        assert syt_count_hook(shape) == len(list(enumerate_syt(shape)))


class TestHookCounts:
    def test_known_values(self):
        assert syt_count_hook(Partition((7,))) == 1
        assert syt_count_hook(Partition((2, 2))) == 2
        assert syt_count_hook(Partition((4, 4, 4))) == 462
        assert syt_count_hook(Partition((4, 2, 1))) == 35
        assert syt_count_hook(Partition(())) == 1


class TestEnumeratePartitions:
    def test_counts(self):
        expected = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15}
        for total, count in expected.items():
            assert len(list(enumerate_partitions(total))) == count

    def test_descending_lexicographic_order(self):
        parts = [shape.parts for shape in enumerate_partitions(4)]
        assert parts == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


WEIGHTS = [(n, m) for n in range(1, 5) for m in range(1, 5) if n * m <= 10]


@st.composite
def lattice_words(draw):
    n, m = draw(st.sampled_from(WEIGHTS))
    pool = list(enumerate_lattice_words(n, m))
    return draw(st.sampled_from(pool))


@given(lattice_words())
def test_adjacent_pairs_partition_into_ascents_descents_plateaus(word):
    plateaus = sum(1 for a, b in zip(word.symbols, word.symbols[1:]) if a == b)
    assert word.ascent_count() + word.descent_count() + plateaus == word.n * word.m - 1
    assert word.ascent_count() + word.descent_count() <= word.n * word.m - 1


@given(st.sampled_from(WEIGHTS))
def test_enumeration_count_matches_hook_oracle(weight):
    n, m = weight
    words = list(enumerate_lattice_words(n, m))
    assert len(words) == syt_count_hook(Partition.rectangle(n, m))
    assert len(set(words)) == len(words)


def _brute_standard(rows):
    """Rows and columns strictly increase, checked cell by cell."""
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if j + 1 < len(row) and not entry < row[j + 1]:
                return False
            if i + 1 < len(rows) and j < len(rows[i + 1]) and not entry < rows[i + 1][j]:
                return False
    return True


@given(st.data())
def test_tableau_check_matches_brute_row_and_column_check(data):
    shape = data.draw(partitions(max_cells=7))
    entries = iter(data.draw(st.permutations(range(1, shape.cells + 1))))
    rows = tuple(tuple(next(entries) for _ in range(part)) for part in shape.parts)
    try:
        StandardTableau(rows)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == _brute_standard(rows)


@pytest.mark.parametrize(
    "n,m", [(n, m) for n in range(1, 9) for m in range(1, 9) if n * m <= 8]
)
def test_path_check_matches_word_check_on_every_word(n, m):
    # every word over 1..m of length nm while that is small, otherwise every
    # arrangement of the quotas (n, ..., n)
    if m ** (n * m) <= 6561:
        words = product(range(1, m + 1), repeat=n * m)
    else:
        words = set(permutations([s for s in range(1, m + 1) for _ in range(n)]))
    for word in words:
        try:
            BallotPath(_relabel(word, m), n, m)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == is_lattice_word(word, n, m), word


@pytest.mark.parametrize("m", range(1, 4))
def test_scan_from_reached_counts_matches_the_whole_scan(m):
    # a prefix scanned from zero counts, then the rest from the counts it
    # reached, gives the whole scan's answer at every cut of every word
    quotas = (2,) * m
    for length in range(2 * m + 1):
        for word in product(range(1, m + 1), repeat=length):
            whole = _scan_ballot(word, quotas)
            for cut in range(length + 1):
                reached = [0] * m
                failure = _scan_ballot(word[:cut], None, start=reached)
                if failure is None:
                    assert reached == [word[:cut].count(s) for s in range(1, m + 1)]
                    failure = _scan_ballot(word[cut:], quotas, start=reached)
                assert failure == whole, (word, cut)


# blocks for the quotas (2, 2): one good block, then a fault of each kind
GOOD_TABLE = [(1, 2, 2)]
FAULTY_BLOCKS = {
    "non-ballot prefix": ((2, 1), [(1, 2)]),
    # 1212 is good, 1221 is not: nothing of the table may be yielded
    "non-ballot completion": ((1,), [(2, 1, 2), (2, 2, 1)]),
    "ballot word off its quotas": ((1, 2), [(1,)]),
    # the table already checked, now met from other counts: 11122
    "checked table from other counts": ((1, 1), GOOD_TABLE),
}
ENUMERATORS = {
    "words": (lambda: enumerate_lattice_words(2, 2), LatticeWord((1, 1, 2, 2), 2, 2)),
    "paths": (lambda: enumerate_ballot_paths(2, 2), BallotPath((2, 2, 1, 1), 2, 2)),
    "syt": (lambda: enumerate_syt(Partition((2, 2))), StandardTableau(((1, 2), (3, 4)))),
    "word lines": (lambda: enumerate_lines("words", (2, 2)), "1122"),
    "path lines": (lambda: enumerate_lines("paths", (2, 2)), "2211"),
    "syt lines": (lambda: enumerate_lines("syt", (2, 2)), "1,2;3,4"),
}


@pytest.mark.parametrize("kind", ENUMERATORS)
@pytest.mark.parametrize("fault", FAULTY_BLOCKS)
def test_a_faulty_generator_word_raises_before_it_is_yielded(monkeypatch, kind, fault):
    def blocks(quotas):
        if tuple(quotas) != (2, 2):
            raise AssertionError(f"unexpected quotas {quotas}")
        yield (1,), GOOD_TABLE
        yield FAULTY_BLOCKS[fault]

    monkeypatch.setattr(combinatorics, "_ballot_blocks", blocks)
    enumerate_all, good = ENUMERATORS[kind]
    seen = []
    with pytest.raises(ValueError, match="ballot generator fault"):
        for item in enumerate_all():
            seen.append(item)
    assert seen == [good]


def test_enumerated_objects_equal_the_public_constructors_up_to_9_cells():
    for total in range(10):
        for shape in enumerate_partitions(total):
            parts = shape.parts
            for tableau in enumerate_syt(shape):
                public = StandardTableau(_rows_from_word(tableau._row_word, len(parts)))
                assert tableau == public and hash(tableau) == hash(public), tableau
                assert tableau._row_word == public._row_word
                assert str(tableau) == str(public)
            if parts and shape.is_rectangular():
                n, m = parts[0], len(parts)
                for word in enumerate_lattice_words(n, m):
                    public = LatticeWord(word.symbols, n, m)
                    assert word == public and hash(word) == hash(public), word
                    assert type(word.symbols) is tuple
                for path in enumerate_ballot_paths(n, m):
                    public = BallotPath(path.steps, n, m)
                    assert path == public and hash(path) == hash(public), path
                    assert type(path.steps) is tuple


def test_row_of_and_descent_set_agree_with_the_row_word():
    for tableau in enumerate_syt(Partition((3, 2, 1))):
        row_word = [0] * tableau.size
        for index, row in enumerate(tableau.rows, start=1):
            for entry in row:
                row_word[entry - 1] = index
        assert [tableau.row_of(e) for e in range(1, tableau.size + 1)] == row_word
        ascents = {i for i in range(1, tableau.size) if row_word[i - 1] < row_word[i]}
        assert tableau.descent_set() == frozenset(ascents)
        assert tableau.descent_count() == len(ascents)


def _joined(symbols, m):
    """The string form of a word or path as a join of the symbols."""
    return ("" if m <= 9 else ",").join(map(str, symbols))


def test_word_and_path_strings_are_the_joined_symbols():
    # every rectangle of at most 14 cells: m = 10..14 take the comma form,
    # where a one-word column is a whole-word prefix with an empty completion
    for n in range(15):
        for m in range(15 if n == 0 else 14 // n + 1):
            words = list(enumerate_lattice_words(n, m))
            paths = list(enumerate_ballot_paths(n, m))
            assert [str(w) for w in words] == [_joined(w.symbols, m) for w in words]
            assert [str(p) for p in paths] == [_joined(p.steps, m) for p in paths]
            assert all(LatticeWord.from_string(str(w), n, m) == w for w in words)
            assert list(enumerate_lines("words", (n,) * m)) == list(map(str, words)), (n, m)
            assert list(enumerate_lines("paths", (n,) * m)) == list(map(str, paths)), (n, m)
    assert str(LatticeWord(tuple(range(1, 11)), 1, 10)) == "1,2,3,4,5,6,7,8,9,10"
    assert str(BallotPath((2, 1), 1, 2)) == "21"
    assert str(LatticeWord((), 0, 3)) == ""


def test_line_generator_refuses_bad_requests():
    with pytest.raises(ValueError, match="unknown kind"):
        next(enumerate_lines("tableaux", (2, 2)))
    for kind, quotas in (
        ("words", (2, 1)), ("words", (1, True)), ("paths", (-1,)), ("paths", (2, 2.0)),
        ("syt", (2, 0)), ("syt", (1, 2)),
    ):
        with pytest.raises(ValueError):
            next(enumerate_lines(kind, quotas))
    with pytest.raises(BudgetExceededError):
        next(enumerate_lines("syt", (5, 5, 5, 5, 5)))
    assert list(enumerate_lines("words", (3, 3), max_cells=6)) == [
        "111222", "112122", "112212", "121122", "121212"
    ]


@pytest.mark.parametrize("quotas", [(True, True), (1.5, 1.5), (2.0, 2.0)])
@pytest.mark.parametrize("kind", ["words", "paths"])
def test_line_weights_that_are_not_ints_are_refused(kind, quotas):
    # the weight is checked where the constructors check it
    with pytest.raises(ValueError, match="n and m must be nonnegative integers"):
        next(enumerate_lines(kind, quotas))


def test_tableau_strings_are_the_joined_rows():
    # every tableau of every shape of at most 12 cells, so entries 10..12 occur
    for total in range(13):
        for shape in enumerate_partitions(total):
            tableaux = list(enumerate_syt(shape))
            expected = [";".join([",".join(map(str, row)) for row in t.rows]) for t in tableaux]
            assert list(map(str, tableaux)) == expected
            assert list(enumerate_lines("syt", shape.parts)) == expected
    assert str(StandardTableau(((1, 2, 5), (3, 4)))) == "1,2,5;3,4"
