"""Partitions, lattice words, ballot paths, and standard Young tableaux.

All objects are immutable values validated on construction, safe to share
across threads. The enumerators walk a quota-and-dominance prefix tree that
extends a word one symbol at a time, so only valid objects are ever
materialized and output order is lexicographic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial, prod
from typing import Iterator, Sequence

DEFAULT_MAX_CELLS = 22


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would exceed its configured size cap."""


def _check_budget(cells: int, max_cells: int | None) -> None:
    cap = DEFAULT_MAX_CELLS if max_cells is None else max_cells
    if cells > cap:
        raise BudgetExceededError(
            f"{cells} cells exceed the enumeration cap of {cap} (override with max_cells)"
        )


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive integer parts; the empty partition is allowed.

    Rows and columns are 1-indexed at every interface.
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        for i, part in enumerate(parts):
            if not isinstance(part, int) or part < 1:
                raise ValueError(f"part {i + 1} must be a positive integer, got {part!r}")
            if i and parts[i - 1] < part:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")

    @classmethod
    def rectangle(cls, n: int, m: int) -> "Partition":
        """The shape with m rows of length n (empty if either side is zero)."""
        if n < 0 or m < 0:
            raise ValueError("rectangle sides must be nonnegative")
        return cls((n,) * m if n > 0 else ())

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
        if not self.parts:
            return Partition(())
        return Partition(
            tuple(sum(1 for part in self.parts if part > j) for j in range(self.parts[0]))
        )

    def is_rectangular(self) -> bool:
        return all(part == self.parts[0] for part in self.parts)

    def __str__(self) -> str:
        return ",".join(str(part) for part in self.parts)


def _scan_word(symbols: Sequence[int], n: int, m: int) -> str | None:
    """Check the quota and prefix dominance conditions.

    Returns None when valid, otherwise a human readable reason. Symbols
    outside the alphabet raise immediately, naming the offending position.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    counts = [0] * (m + 1)
    for position, symbol in enumerate(symbols, start=1):
        if not isinstance(symbol, int) or symbol < 1 or symbol > m:
            raise ValueError(
                f"symbol {symbol!r} at position {position} is outside the alphabet 1..{m}"
            )
        counts[symbol] += 1
        if symbol > 1 and counts[symbol] > counts[symbol - 1]:
            return (
                f"prefix of length {position} holds more {symbol}'s "
                f"than {symbol - 1}'s"
            )
    for symbol in range(1, m + 1):
        if counts[symbol] != n:
            return f"symbol {symbol} occurs {counts[symbol]} times, expected {n}"
    return None


def is_lattice_word(symbols: Sequence[int], n: int, m: int) -> bool:
    """True when every symbol 1..m occurs exactly n times and every prefix
    holds at least as many i's as (i+1)'s.

    Symbols outside 1..m raise a ValueError naming the position.
    """
    return _scan_word(tuple(symbols), n, m) is None


@dataclass(frozen=True)
class LatticeWord:
    """Word over {1..m} with all symbol quotas equal to n and the prefix
    dominance property."""

    symbols: tuple[int, ...]
    n: int
    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        reason = _scan_word(self.symbols, self.n, self.m)
        if reason is not None:
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
        return sum(1 for a, b in zip(self.symbols, self.symbols[1:]) if a < b)

    def descent_count(self) -> int:
        return sum(1 for a, b in zip(self.symbols, self.symbols[1:]) if a > b)

    def __str__(self) -> str:
        if self.m <= 9:
            return "".join(str(s) for s in self.symbols)
        return ",".join(str(s) for s in self.symbols)


def _relabel(symbols: Sequence[int], m: int) -> tuple[int, ...]:
    """Mirror the alphabet 1..m; maps words to paths and paths back to words."""
    return tuple(m - s + 1 for s in symbols)


@dataclass(frozen=True)
class BallotPath:
    """Unit-step path from the origin to (n, ..., n) in m coordinates whose
    every prefix keeps coordinate values weakly increasing left to right."""

    steps: tuple[int, ...]
    n: int
    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        if self.n < 0 or self.m < 0:
            raise ValueError("n and m must be nonnegative")
        counts = [0] * (self.m + 2)
        for position, step in enumerate(self.steps, start=1):
            if not isinstance(step, int) or step < 1 or step > self.m:
                raise ValueError(
                    f"step {step!r} at position {position} is outside 1..{self.m}"
                )
            counts[step] += 1
            if step < self.m and counts[step] > counts[step + 1]:
                raise ValueError(
                    f"prefix of length {position} pushes coordinate {step} above "
                    f"coordinate {step + 1}"
                )
        for step in range(1, self.m + 1):
            if counts[step] != self.n:
                raise ValueError(
                    f"step {step} occurs {counts[step]} times, expected {self.n}"
                )

    def ascent_count(self) -> int:
        return sum(1 for a, b in zip(self.steps, self.steps[1:]) if a < b)

    def descent_count(self) -> int:
        return sum(1 for a, b in zip(self.steps, self.steps[1:]) if a > b)

    def __str__(self) -> str:
        if self.m <= 9:
            return "".join(str(s) for s in self.steps)
        return ",".join(str(s) for s in self.steps)


@dataclass(frozen=True)
class StandardTableau:
    """Filling of a partition diagram by 1..p, strictly increasing along every
    row and down every column."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        lengths = tuple(len(row) for row in rows)
        if any(length == 0 for length in lengths):
            raise ValueError("empty rows are not allowed")
        if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
            raise ValueError(f"row lengths must be weakly decreasing, got {lengths}")
        p = sum(lengths)
        entries = sorted(entry for row in rows for entry in row)
        if entries != list(range(1, p + 1)):
            raise ValueError(f"entries must be exactly 1..{p}")
        for i, row in enumerate(rows, start=1):
            if any(a >= b for a, b in zip(row, row[1:])):
                raise ValueError(f"row {i} is not strictly increasing: {row}")
        for j in range(lengths[0] if lengths else 0):
            column = [row[j] for row in rows if len(row) > j]
            if any(a >= b for a, b in zip(column, column[1:])):
                raise ValueError(f"column {j + 1} is not strictly increasing: {column}")

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(row) for row in self.rows))

    @property
    def size(self) -> int:
        return sum(len(row) for row in self.rows)

    @cached_property
    def _row_index(self) -> dict[int, int]:
        return {
            entry: i for i, row in enumerate(self.rows, start=1) for entry in row
        }

    def row_of(self, entry: int) -> int:
        """1-indexed row containing the entry."""
        try:
            return self._row_index[entry]
        except KeyError:
            raise ValueError(f"entry {entry} is not in the tableau") from None

    def descent_set(self) -> frozenset[int]:
        """Entries i whose successor i+1 sits in a strictly lower row."""
        rows_by_entry = self._row_index
        return frozenset(
            i for i in range(1, self.size) if rows_by_entry[i + 1] > rows_by_entry[i]
        )

    def descent_count(self) -> int:
        return len(self.descent_set())

    def __str__(self) -> str:
        return ";".join(",".join(str(entry) for entry in row) for row in self.rows)


def _ballot_sequences(quotas: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All words in which symbol r appears quotas[r-1] times and no prefix
    holds more r's than (r-1)'s, in lexicographic order.

    Iterative backtracking over one reused buffer; a tuple copy is taken only
    when a complete word is emitted.
    """
    k = len(quotas)
    total = sum(quotas)
    if total == 0:
        yield ()
        return
    caps = (0,) + tuple(quotas)
    counts = [0] * (k + 1)
    word = [0] * total
    position = 0
    symbol = 1
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
        if position == total:
            yield tuple(word)
            position -= 1
            symbol = word[position]
            counts[symbol] -= 1
            symbol += 1
        else:
            symbol = 1


def enumerate_lattice_words(
    n: int, m: int, max_cells: int | None = None
) -> Iterator[LatticeWord]:
    """Yield every lattice word of the given weight once, lexicographically.

    Callers may partition work by first symbol: all words sharing a first
    symbol form a contiguous block of the output.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    _check_budget(n * m, max_cells)
    for symbols in _ballot_sequences((n,) * m):
        yield LatticeWord(symbols, n, m)


def enumerate_ballot_paths(
    n: int, m: int, max_cells: int | None = None
) -> Iterator[BallotPath]:
    """Yield every ballot path to (n, ..., n) once; the order mirrors the
    lexicographic word order under the symbol/step relabeling."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    _check_budget(n * m, max_cells)
    for symbols in _ballot_sequences((n,) * m):
        yield BallotPath(_relabel(symbols, m), n, m)


def enumerate_syt(
    shape: Partition, max_cells: int | None = None
) -> Iterator[StandardTableau]:
    """Yield every standard filling of the shape once, ordered
    lexicographically by the sequence of row indices of 1, 2, ..., p."""
    _check_budget(shape.cells, max_cells)
    parts = shape.parts
    for row_word in _ballot_sequences(parts):
        rows: list[list[int]] = [[] for _ in parts]
        for entry, row in enumerate(row_word, start=1):
            rows[row - 1].append(entry)
        yield StandardTableau(tuple(tuple(row) for row in rows))


def _hooks(shape: Partition) -> list[int]:
    """Hook length of every cell of the shape, row by row."""
    conjugate = shape.conjugate().parts
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


def enumerate_partitions(total: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of ``total`` in descending lexicographic order."""
    if total < 0:
        raise ValueError("total must be nonnegative")

    def generate(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in generate(remaining - first, first):
                yield (first,) + rest

    for parts in generate(total, max_part if max_part is not None else total):
        yield Partition(parts)
