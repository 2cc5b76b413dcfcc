"""Partitions, lattice words, ballot paths, and standard Young tableaux.

All objects are immutable values, safe to share across threads. The
enumerators walk a quota-and-dominance prefix tree that extends a word one
symbol at a time, so only valid objects are ever materialized and output
order is lexicographic. The walk is iterative and stops at a prefix length
chosen from exact counts: f^c prefixes reach the symbol count vector c (the
hook length formula), and the completions of c are counted back from the
full quotas. The rest of each word comes from a table of completions, one
per count vector reached, built once per call and only when it holds at
most one completion more than the lines already yielded, so no line waits
for a table larger than the output before it.

Words, paths and tableaux are checked by the one ballot scan that mirrors
that generator, always in the alphabet of words. The public constructors
run it in full on every object: a word directly, a path as its relabeled
word (``_relabel``, the one place that knows the word/path mirror), and a
tableau as its row word. The enumerators run it inside the generator, where
its work is shared: each walked prefix once from zero counts, and each
completion table once per count vector that a prefix scan reached, from
those counts. Every symbol of every enumerated word is checked, and
``_trusted`` builds the objects from the checked sequences without a second
scan.

``_line_blocks`` gives the string forms of those objects and builds none
of them. It yields each checked block as (head, templates): the head is
the prefix's string (a word or path) or row strings (a tableau), formatted
once per block, and each template is a completion's line with one %s
where each head string goes, made once, where its table is checked. A
block's lines are then one %-format of its templates joined, filled with
the head once per line: ``narayana enumerate`` writes them that way, and
``enumerate_lines`` splits them into lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import factorial, perm, prod
from operator import concat, gt, lt
from typing import Callable, Iterator, Sequence

DEFAULT_MAX_CELLS = 22
# maps the bytes 0..9 to their ASCII digits, for the one-digit string form
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
# the annotation of words, paths, row words, rows, parts and count vectors
IntTuple = tuple[int, ...]


class BudgetExceededError(RuntimeError):
    """Raised when an input exceeds the one budget of its engine: the cell cap
    of the enumerators (``poly`` applies it to bound the degree certified), the
    order-ideal cap of the Eulerian DP, the extension cap of the linear
    extension enumerator, or the work budget of the ideal-chain count."""


def _check_budget(cells: int, max_cells: int | None) -> None:
    cap = DEFAULT_MAX_CELLS if max_cells is None else max_cells
    if cells > cap:
        raise BudgetExceededError(
            f"{cells} cells exceed the cell cap of {cap} (override with max_cells)"
        )


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive integer parts; the empty partition is allowed.

    Rows and columns are 1-indexed at every interface.
    """

    parts: IntTuple

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        for i, part in enumerate(parts):
            if type(part) is not int or part < 1:  # bool is an int subclass, and refused too
                raise ValueError(f"part {i + 1} must be a positive integer, got {part!r}")
            if i and parts[i - 1] < part:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")

    @classmethod
    def rectangle(cls, n: int, m: int) -> "Partition":
        """The shape with m rows of length n (empty if either side is zero)."""
        rows = _word_quotas(n, m)
        return cls(rows if n else ())

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        """Parse comma separated row lengths, e.g. ``"3,2,1"``."""
        try:
            parts = tuple(int(chunk) for chunk in text.split(",") if chunk.strip())
        except ValueError as exc:
            raise ValueError(f"invalid partition {text!r}") from exc
        return cls(parts)

    @property
    def cells(self) -> int:
        return sum(self.parts)

    @property
    def rows(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        """Transpose of the diagram (columns become rows)."""
        return Partition(tuple(_conjugate(self.parts)))

    def is_rectangular(self) -> bool:
        return all(part == self.parts[0] for part in self.parts)

    def __str__(self) -> str:
        return ",".join(str(part) for part in self.parts)


def _word_quotas(n: int, m: int) -> IntTuple:
    """Symbol quotas of the words of weight (n, m): each of 1..m occurs n times."""
    if not (type(n) is int and type(m) is int and n >= 0 and m >= 0):  # a bool is refused too
        raise ValueError(f"n and m must be nonnegative integers, got {n!r} and {m!r}")
    return (n,) * m


def _scan_ballot(
    symbols: Sequence[int],
    quotas: Sequence[int] | None,
    start: list[int] | None = None,
) -> tuple[int, int] | None:
    """The check that mirrors ``_ballot_blocks(quotas)``: None for a ballot
    sequence, else (position, symbol) of the shortest prefix holding more
    symbol's than (symbol-1)'s, or (0, smallest symbol off its quota). A symbol
    that is not an int in 1..len(quotas) raises a ValueError naming the
    position.

    ``start``, when given, holds the symbol counts of a prefix scanned before
    (start[s-1] for symbol s): the scan goes on from them, numbers positions
    after that prefix, and on success leaves in the list the counts it
    reached. With ``quotas`` None the symbols are themselves a prefix: the
    alphabet is 1..len(start) and no quota is checked."""
    k = len(start) if quotas is None else len(quotas)
    done = sum(start) if start else 0
    # the sentinel exceeds every count, so symbol 1 is never dominated
    counts = [done + len(symbols) + 1, *(start or [0] * k)]
    for position, symbol in enumerate(symbols, start=done + 1):
        if not (type(symbol) is int and 0 < symbol <= k):  # a bool is refused too
            raise ValueError(
                f"symbol {symbol!r} at position {position} is outside the alphabet 1..{k}"
            )
        count = counts[symbol] + 1
        if count > counts[symbol - 1]:
            return position, symbol
        counts[symbol] = count
    if start is not None:
        start[:] = counts[1:]
    if quotas is None:
        return None
    for symbol, quota in enumerate(quotas, start=1):
        if counts[symbol] != quota:
            return 0, symbol
    return None


def _pair_count(word: Sequence[int], compare) -> int:
    """Number of adjacent pairs (a, b) of the word with ``compare(a, b)``."""
    return sum(map(compare, word, word[1:]))


def is_lattice_word(symbols: Sequence[int], n: int, m: int) -> bool:
    """True when every symbol 1..m occurs exactly n times and every prefix
    holds at least as many i's as (i+1)'s.

    Symbols outside 1..m raise a ValueError naming the position.
    """
    return _scan_ballot(tuple(symbols), _word_quotas(n, m)) is None


@dataclass(frozen=True)
class LatticeWord:
    """Word over {1..m} with all symbol quotas equal to n and the prefix
    dominance property."""

    symbols: IntTuple
    n: int
    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        failure = _scan_ballot(self.symbols, _word_quotas(self.n, self.m))
        if failure is not None:
            position, symbol = failure
            if position:
                reason = f"prefix of length {position} holds more {symbol}'s than {symbol - 1}'s"
            else:
                reason = f"symbol {symbol} occurs {self.symbols.count(symbol)} times, expected {self.n}"
            raise ValueError(f"not a lattice word: {reason}")

    @classmethod
    def from_string(cls, text: str, n: int, m: int) -> "LatticeWord":
        """Parse a word from digits ("1212") or a comma separated list."""
        if "," in text:
            symbols = tuple(int(chunk) for chunk in text.split(",") if chunk.strip())
        else:
            symbols = tuple(int(ch) for ch in text.strip())
        return cls(symbols, n, m)

    def ascent_count(self) -> int:
        return _pair_count(self.symbols, lt)

    def descent_count(self) -> int:
        return _pair_count(self.symbols, gt)

    def __str__(self) -> str:
        return _symbols_string(self.symbols, self.m)


def _symbols_string(symbols: IntTuple, m: int) -> str:
    """Digits run together for an alphabet of at most 9 symbols, else comma
    separated. The constructors' scan has bounded the symbols to 1..m, so
    the one-digit form is a byte translation."""
    if m <= 9:
        return bytes(symbols).translate(_DIGITS).decode()
    return _comma_join(symbols)


def _comma_join(values: Sequence[int]) -> str:
    """The integers written out and separated by commas."""
    return ",".join(map(str, values))


def _relabel(symbols: Sequence[int], m: int) -> IntTuple:
    """Mirror the alphabet 1..m (s to m+1-s); maps words to paths and back."""
    return tuple(map((m + 1).__sub__, symbols))


@dataclass(frozen=True)
class BallotPath:
    """Unit-step path from the origin to (n, ..., n) in m coordinates whose
    every prefix keeps coordinate values weakly increasing left to right;
    equivalently, its mirrored word is a lattice word."""

    steps: IntTuple
    n: int
    m: int

    def __post_init__(self) -> None:
        steps = tuple(self.steps)
        object.__setattr__(self, "steps", steps)
        m = self.m
        quotas = _word_quotas(self.n, m)
        try:
            # a bool is refused here: relabeled, it would be an int
            if not all(type(step) is int for step in steps):
                raise ValueError
            failure = _scan_ballot(_relabel(steps, m), quotas)
        except ValueError:
            raise ValueError(f"steps must be integers in 1..{m}, got {steps}") from None
        if failure is not None:
            position, symbol = failure
            step = m + 1 - symbol
            if position:
                raise ValueError(
                    f"prefix of length {position} pushes coordinate {step} above "
                    f"coordinate {step + 1}"
                )
            raise ValueError(f"step {step} occurs {steps.count(step)} times, expected {self.n}")

    def ascent_count(self) -> int:
        return _pair_count(self.steps, lt)

    def descent_count(self) -> int:
        return _pair_count(self.steps, gt)

    def __str__(self) -> str:
        return _symbols_string(self.steps, self.m)


@dataclass(frozen=True)
class StandardTableau:
    """Filling of a partition diagram by 1..p, strictly increasing along every
    row and down every column; kept with its row word, the row of each entry."""

    rows: tuple[IntTuple, ...]
    _row_word: IntTuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        lengths = tuple(map(len, rows))
        if 0 in lengths:
            raise ValueError("empty rows are not allowed")
        if any(map(lt, lengths, lengths[1:])):
            raise ValueError(f"row lengths must be weakly decreasing, got {lengths}")
        p = sum(lengths)
        row_word = [0] * p
        for i, row in enumerate(rows, start=1):
            if not all(type(entry) is int for entry in row):  # a bool is refused too
                raise ValueError(f"row {i} holds an entry that is not an integer: {row}")
            if not all(map(lt, row, row[1:])):
                raise ValueError(f"row {i} is not strictly increasing: {row}")
            if not (0 < row[0] and row[-1] <= p):
                raise ValueError(f"entries must be exactly 1..{p}")
            for entry in row:
                row_word[entry - 1] = i
        if 0 in row_word:
            raise ValueError(f"entries must be exactly 1..{p}")
        # with increasing rows, the columns increase exactly when the row word
        # is a ballot sequence
        failure = _scan_ballot(row_word, lengths)
        if failure is not None:
            raise _column_error(rows, row_word, *failure)
        object.__setattr__(self, "_row_word", tuple(row_word))

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(row) for row in self.rows))

    @property
    def size(self) -> int:
        return len(self._row_word)

    def row_of(self, entry: int) -> int:
        """1-indexed row containing the entry."""
        if type(entry) is int and 0 < entry <= self.size:  # a bool is refused too
            return self._row_word[entry - 1]
        raise ValueError(f"entry {entry} is not in the tableau")

    def descent_set(self) -> frozenset[int]:
        """Entries i whose successor i+1 sits in a strictly lower row."""
        word = self._row_word
        return frozenset(i for i in range(1, len(word)) if word[i - 1] < word[i])

    def descent_count(self) -> int:
        return _pair_count(self._row_word, lt)

    def __str__(self) -> str:
        rows = self.rows
        return _rows_format(tuple(map(len, rows))) % sum(rows, ())


def _trusted(cls: type, **fields: object):
    """The frozen value of cls with these fields, which the public constructor
    would set after its check, built without that check: for a word or path
    that the ballot scan has accepted, or a tableau of such a row word with
    the rows ``_rows_from_word`` makes of it, which increase and cover 1..p."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


@lru_cache(maxsize=64)
def _rows_format(lengths: IntTuple) -> str:
    """The %-format of a tableau's string form for these row lengths: the
    entries of a row joined by commas, the rows by semicolons."""
    return ";".join([",".join(["%d"] * length) for length in lengths])


def _column_error(
    rows: Sequence[Sequence[int]], row_word: Sequence[int], entry: int, i: int
) -> ValueError:
    """The error for increasing rows whose row word fails the ballot scan at
    (entry, i): the entry ends row i at column j while row i-1 holds fewer
    than j smaller entries."""
    j = row_word[:entry].count(i)
    column = [row[j - 1] for row in rows if len(row) >= j]
    return ValueError(f"column {j} is not strictly increasing: {column}")


def _row_positions(
    row_word: Sequence[int], row_count: int, first: int = 1
) -> tuple[IntTuple, ...]:
    """Tuple i-1 lists the positions of i in the row word, numbered from
    first; a row that i never occurs in is empty."""
    rows: list[list[int]] = [[] for _ in range(row_count)]
    for entry, row in enumerate(row_word, start=first):
        rows[row - 1].append(entry)
    return tuple(map(tuple, rows))


def _rows_from_word(row_word: Sequence[int], row_count: int) -> tuple[IntTuple, ...]:
    """Row i lists the positions of i in the row word; empty rows are dropped."""
    return tuple(row for row in _row_positions(row_word, row_count) if row)


def _steps(counts: IntTuple, caps: IntTuple) -> Iterator[tuple[int, IntTuple]]:
    """(symbol, grown counts) for each symbol that may follow a ballot prefix
    with these symbol counts, in increasing order: one under its quota and
    under the count of the symbol before it. counts[0] and caps[0] are
    placeholders."""
    for symbol in range(1, len(caps)):
        count = counts[symbol]
        if count < caps[symbol] and (symbol == 1 or counts[symbol - 1] > count):
            yield symbol, counts[:symbol] + (count + 1,) + counts[symbol + 1:]


def _completions(
    counts: IntTuple,
    caps: IntTuple,
    tables: dict[IntTuple, list[IntTuple]],
) -> list[IntTuple]:
    """The words that complete a prefix with these symbol counts to the
    quotas caps[1:], in lexicographic order, memoized in tables, which have
    none for these counts yet; counts[0] and caps[0] are placeholders. Not a
    closure, which would hold the tables in a reference cycle until the next
    garbage collection.

    Built bottom-up, without recursion: the count vectors from counts to caps
    that have no table yet are gathered one depth at a time, and their
    tables are built deepest first, each from the tables one symbol on."""
    levels = [[counts]]
    while levels[-1]:
        levels.append(list(dict.fromkeys(
            grown for vector in levels[-1] for _, grown in _steps(vector, caps)
            if grown not in tables
        )))
    for level in reversed(levels):
        for vector in level:
            tables[vector] = [
                (symbol,) + rest
                for symbol, grown in _steps(vector, caps)
                for rest in tables[grown]
            ] if vector != caps else [()]
    return tables[counts]


def _count_back(level: dict[IntTuple, int]) -> dict[IntTuple, int]:
    """The completion counts one depth back: every count vector with one
    symbol fewer than a vector of level, mapped to the sum of the counts of
    the vectors of level it grows into. counts[0] is a placeholder."""
    back: dict[IntTuple, int] = {}
    for counts, number in level.items():
        last = len(counts) - 1
        for symbol in range(1, last + 1):
            count = counts[symbol]
            if count and (symbol == last or counts[symbol + 1] < count):
                shrunk = counts[:symbol] + (count - 1,) + counts[symbol + 1:]
                back[shrunk] = back.get(shrunk, 0) + number
    return back


def _prefix_count(counts: IntTuple) -> int:
    """The ballot prefixes that reach these symbol counts: f^counts, by the
    hook length formula (Frame-Robinson-Thrall) in Frobenius' form,
    d! * prod(l_i - l_j, i < j) / prod(l_i!) over the first-column hook
    lengths l_i of the r nonzero rows, on the counts or on their conjugate,
    whichever has fewer rows. So the work is O(r^2) for the smaller r and
    none of it is per cell; d!/l_1! is a falling product, as l_1 <= d.
    counts[0] is a placeholder."""
    parts = counts[1:]
    rows = len(parts) - parts.count(0)
    if rows > parts[0]:
        parts = _conjugate(parts)
        rows = len(parts)
    cells = sum(parts)
    lengths = [part + rows - i for i, part in enumerate(parts[:rows], start=1)] or [0]
    return (
        perm(cells, cells - lengths[0])
        * prod(a - b for a, b in combinations(lengths, 2))
        // prod(map(factorial, lengths[1:]))
    )


def _split(caps: IntTuple) -> tuple[int, dict[IntTuple, int]]:
    """The prefix length at which ``_ballot_blocks`` splits the ballot
    sequences of the quotas caps[1:] (caps[0] a placeholder), and the
    completions of every count vector that a prefix of that length or longer
    reaches. The length L minimises the prefixes of length L plus the
    completions of the count vectors that they reach; the longest such L
    wins a tie.

    Both are exact counts: f^c prefixes reach count vector c, and the
    completions are counted back from the full quotas one depth at a time.
    The completions never shrink as L falls and at least one prefix is
    always walked, so the count stops at the first depth whose completions
    plus one reach the least cost seen: no shorter prefix can cost less."""
    level = {caps: 1}
    counted = dict(level)
    split = sum(caps)
    least = _prefix_count(caps) + 1
    for depth in range(split - 1, -1, -1):
        level = _count_back(level)
        completions = sum(level.values())
        if completions + 1 >= least:
            break
        counted.update(level)
        cost = completions + sum(map(_prefix_count, level))
        if cost < least:
            least, split = cost, depth
    return split, counted


def _ballot_blocks(
    quotas: Sequence[int],
) -> Iterator[tuple[IntTuple, list[IntTuple]]]:
    """The ballot sequences of the quotas as (prefix, completions) blocks,
    unchecked: the words prefix + rest, for the blocks in turn and the rests
    of each in turn, are all the words in which symbol r appears quotas[r-1]
    times and no prefix holds more r's than (r-1)'s, in lexicographic order.
    The quotas are weakly decreasing.

    Iterative backtracking over one reused buffer walks the prefixes, so the
    walk needs no recursion at any length. A prefix of the length that
    ``_split`` chooses, or longer, ends its block when the completion table
    of its symbol counts exists, or holds no more completions than the lines
    already yielded plus one; else the walk goes on. So the first line waits
    for no large table, and a table is built once the output has paid for
    it. Each table is the same list for every prefix with those counts,
    built when a prefix first takes it and memoized for the call. On the
    10-by-2 rectangle the split is 10 symbols: 7 blocks of 11 to 14 symbols
    make its first 44 words, then 250 prefixes of 10 symbols with 6 tables
    of 252 completions in all make the other 16,752. On a single row or
    column the walk takes the whole word, whose table holds the one empty
    completion.
    """
    k = len(quotas)
    caps = (0,) + tuple(quotas)
    total = sum(caps)
    tables: dict[IntTuple, list[IntTuple]] = {}
    if not total:
        yield (), _completions(caps, caps, tables)
        return
    split, counted = _split(caps)
    counts = [0] * (k + 1)
    word = [0] * total
    position = 0
    symbol = 1
    lines = 0
    while True:
        while symbol <= k and not (
            counts[symbol] < caps[symbol]
            and (symbol == 1 or counts[symbol - 1] > counts[symbol])
        ):
            symbol += 1
        if symbol > k:
            position -= 1
            if position < 0:
                return
            symbol = word[position]
            counts[symbol] -= 1
            symbol += 1
            continue
        word[position] = symbol
        counts[symbol] += 1
        position += 1
        if position >= split:
            key = tuple(counts)
            table = tables.get(key)
            if table is None and counted[key] <= lines + 1:
                table = _completions(key, caps, tables)
            if table is not None:
                lines += len(table)
                yield tuple(word[:position]), table
                position -= 1
                symbol = word[position]
                counts[symbol] -= 1
                symbol += 1
                continue
        symbol = 1


def _scanned_blocks(
    quotas: Sequence[int], convert: Callable[[IntTuple, IntTuple], object] | None = None
) -> Iterator[tuple[IntTuple, list]]:
    """The blocks of ``_ballot_blocks(quotas)``, each checked by the ballot
    scan before it is yielded; a word that fails raises a ValueError.

    The scan runs where the blocks share work: each prefix from zero counts,
    and each completion table from the counts that the prefix scan reached,
    once per count vector that it is met with. So every symbol of every word
    is scanned, but no word is scanned whole. ``convert``, when given, maps
    each completion of a table once, at its check, as convert(completion,
    reached counts), and the blocks carry the mapped completions in place of
    the table."""
    k = len(quotas)
    # reached counts -> (the table checked from them, its completions as yielded)
    checked = {}
    for prefix, table in _ballot_blocks(quotas):
        reached = [0] * k
        failure = _scan_ballot(prefix, None, start=reached)
        key = tuple(reached)
        entry = checked.get(key)
        rest = ()  # the completion that failed, if one did
        if failure is None and (entry is None or entry[0] is not table):
            for rest in table:
                failure = _scan_ballot(rest, quotas, start=reached.copy())
                if failure is not None:
                    break
            else:
                tails = table if convert is None else [convert(rest, key) for rest in table]
                entry = checked[key] = (table, tails)
        if failure is not None:
            raise ValueError(f"ballot generator fault: {prefix + rest} fails the scan at {failure}")
        yield prefix, entry[1]


def enumerate_lattice_words(
    n: int, m: int, max_cells: int | None = None
) -> Iterator[LatticeWord]:
    """Yield every lattice word of the given weight once, lexicographically.

    Callers may partition work by first symbol: all words sharing a first
    symbol form a contiguous block of the output.
    """
    _check_budget(n * m, max_cells)
    for prefix, tails in _scanned_blocks(_word_quotas(n, m)):
        for rest in tails:
            yield _trusted(LatticeWord, symbols=prefix + rest, n=n, m=m)


def enumerate_ballot_paths(
    n: int, m: int, max_cells: int | None = None
) -> Iterator[BallotPath]:
    """Yield every ballot path to (n, ..., n) once; the order mirrors the
    lexicographic word order under the symbol/step relabeling."""
    _check_budget(n * m, max_cells)
    for prefix, tails in _scanned_blocks(_word_quotas(n, m), lambda rest, _: _relabel(rest, m)):
        head = _relabel(prefix, m)
        for tail in tails:
            yield _trusted(BallotPath, steps=head + tail, n=n, m=m)


def enumerate_syt(
    shape: Partition, max_cells: int | None = None
) -> Iterator[StandardTableau]:
    """Yield every standard filling of the shape once, ordered
    lexicographically by the sequence of row indices of 1, 2, ..., p."""
    _check_budget(shape.cells, max_cells)
    parts = shape.parts
    k = len(parts)

    def with_rows(rest: IntTuple, reached: IntTuple) -> tuple[IntTuple, tuple[IntTuple, ...]]:
        return rest, _row_positions(rest, k, sum(reached) + 1)

    for prefix, tails in _scanned_blocks(parts, with_rows):
        head = _row_positions(prefix, k)
        for rest, tail in tails:
            yield _trusted(
                StandardTableau, rows=tuple(map(concat, head, tail)), _row_word=prefix + rest
            )


def _line_blocks(
    kind: str, quotas: Sequence[int], max_cells: int | None = None
) -> Iterator[tuple[tuple[str, ...], list[str]]]:
    """The checked blocks of the enumerator of the kind as (head, templates),
    without building its objects: for ``"words"`` and ``"paths"`` the quotas
    are (n,)*m, for ``"syt"`` the shape's parts. The lines of a block are
    ``template % head`` for its templates in turn, in the enumerator's order.

    A template is made once per checked completion, at its check, and holds
    one %s where the prefix goes: before the completion's string for a word
    or path, whose head is the prefix's string, and before each of the
    completion's row strings for a tableau, whose head is the prefix's row
    strings. A completion's string starts with a comma exactly when the
    comma form joins it to a nonempty prefix part, so it depends only on the
    counts that key the check."""
    if kind not in ("words", "paths", "syt"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "syt":
        quotas = Partition(tuple(quotas)).parts
    else:
        given = tuple(quotas)
        quotas = _word_quotas(given[0] if given else 0, len(given))
        # == alone would take a quota of 2.0 or True for the int 2 or 1
        if given != quotas or len(set(map(type, given))) > 1:
            raise ValueError(f"quotas of words and paths must be (n,)*m, got {given}")
    _check_budget(sum(quotas), max_cells)
    k = len(quotas)
    if kind == "syt":

        def rows_template(rest: IntTuple, reached: IntTuple) -> str:
            rows = _row_positions(rest, k, sum(reached) + 1)
            return ";".join([
                ("%s," if count and row else "%s") + _comma_join(row)
                for count, row in zip(reached, rows)
            ])

        for prefix, templates in _scanned_blocks(quotas, rows_template):
            yield tuple(map(_comma_join, _row_positions(prefix, k))), templates
        return
    mirrored = kind == "paths"

    def symbols_string(symbols: IntTuple) -> str:
        return _symbols_string(_relabel(symbols, k) if mirrored else symbols, k)

    def symbols_template(rest: IntTuple, reached: IntTuple) -> str:
        # in the comma form, a completion joins a prefix with a comma when
        # both are nonempty; a prefix may be a whole word, or empty
        return ("%s," if k > 9 and rest and any(reached) else "%s") + symbols_string(rest)

    for prefix, templates in _scanned_blocks(quotas, symbols_template):
        yield (symbols_string(prefix),), templates


def enumerate_lines(
    kind: str, quotas: Sequence[int], max_cells: int | None = None
) -> Iterator[str]:
    """The string forms of the objects that the enumerator of the kind
    yields, in its order, without building the objects: for ``"words"`` and
    ``"paths"`` the quotas are (n,)*m, for ``"syt"`` the shape's parts.

    The lines of each block of ``_line_blocks`` come from one %-format, as
    ``narayana enumerate`` writes them: the templates joined by newlines and
    filled with the head once per line, then split at the newlines, which
    no line holds. A table is never empty, so each split gives just its
    block's lines."""
    for head, templates in _line_blocks(kind, quotas, max_cells):
        yield from ("\n".join(templates) % (head * len(templates))).split("\n")


def _conjugate(parts: Sequence[int]) -> list[int]:
    """Column lengths of the diagram with these weakly decreasing row lengths:
    entry j counts the rows longer than j. Rows of length zero hold no cells."""
    conjugate = []
    rows = len(parts)
    for j in range(parts[0] if parts else 0):
        while parts[rows - 1] <= j:
            rows -= 1
        conjugate.append(rows)
    return conjugate


def _hooks(shape: Partition) -> list[int]:
    """Hook length of every cell of the shape, row by row."""
    conjugate = _conjugate(shape.parts)
    return [
        row_length - j + conjugate[j] - i - 1
        for i, row_length in enumerate(shape.parts)
        for j in range(row_length)
    ]


def syt_count_hook(shape: Partition) -> int:
    """Number of standard fillings of the shape, by the hook length formula.

    Exact integer; serves as the counting oracle against enumeration.
    """
    return factorial(shape.cells) // prod(_hooks(shape))


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


def enumerate_partitions(total: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of ``total`` in descending lexicographic order."""
    if total < 0:
        raise ValueError("total must be nonnegative")

    def generate(remaining: int, cap: int) -> Iterator[IntTuple]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in generate(remaining - first, first):
                yield (first,) + rest

    for parts in generate(total, max_part if max_part is not None else total):
        yield Partition(parts)
