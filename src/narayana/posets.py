"""Labeled posets: linear extensions, Jordan-Holder permutations, Eulerian
polynomials, and order polynomials.

A poset is given by cover relations on elements 1..p plus a bijective
labeling; the full order is the transitive closure, built once per poset as
one bitmask of strictly smaller elements per element. Ferrers posets (cells
of a partition under the componentwise order) with column-strict labelings
are the family of main interest.

Each engine has one fixed budget, a constant here. Eulerian polynomials
come from one dynamic program over the order ideals, bounded by their number
(DEFAULT_MAX_IDEALS); it is the package's only descent DP, and ``generating``
runs it on labeled Ferrers posets for the tableau and word tallies. Each
ideal visits only its frontier (its maximal and addable elements), kept
along the listed covers; an element joins the frontier once its strict
lower set, read off the transitive closure, is placed.
``ferrers_eulerian_sweep`` runs it once for every shape of at most N cells:
N layers on the column-strict Ferrers poset of the union of those shapes,
whose ideals are the shapes; ``rectangle_eulerian_sweep`` runs it once per
row count m, on the m-row rectangle of at most N cells, whose ideals of
full columns are the narrower rectangles.
``linear_extensions`` and ``jordan_holder_set`` remain as the enumerators it
is tested against, up to DEFAULT_MAX_EXTENSION_ELEMENTS elements. Order
polynomial values come from the Eulerian series at every size;
``verify_order_gf`` checks the whole Eulerian numerator against the strict
chains of order ideals (Stanley EC1 3.12, labeled as in 3.15), counted in
one layered pass over the ideals from the listed covers and labels alone
and bounded by the work it does (DEFAULT_MAX_CHAIN_WORK units of scanning,
building and stepping). ``ferrers_order_sweep`` runs that pass and the DP
once each for every shape of at most N cells, on the same union shape, and
reads each shape's chains and Eulerian polynomial off its ideal. The tests
compare both with a backtracking search over the maps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import comb, factorial
from typing import Iterator, Sequence

from .combinatorics import BudgetExceededError, Partition, _descent_closed_form
from .polynomials import IdentityReport, IntPolynomial, compare_sequences

DEFAULT_MAX_EXTENSION_ELEMENTS = 12
# units of ideal-chain work (see _ideal_chain_counts): a 12-element antichain
# takes 1,103,830 (0.05M scanned, 0.53M offered, 0.53M stepped); refusing
# antichains, chains or unions of chains costs at most ~0.3 us a unit, so
# those refusals come in under a second, and a wide antichain is refused
# before the 2^20 targets of its empty ideal are stored
DEFAULT_MAX_CHAIN_WORK = 2_000_000
DEFAULT_MAX_IDEALS = 2**14


@dataclass(frozen=True)
class LabeledPoset:
    """Finite poset on elements 1..size with a bijective labeling.

    ``covers`` lists (lower, upper) pairs; they must generate an acyclic
    order. Covers are stored deduplicated and sorted, so structurally equal
    posets compare equal. The size, covers and labels hold ints only (a bool
    or a float is refused), so every poset built survives its ``to_json``.
    """

    size: int
    covers: tuple[tuple[int, int], ...]
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        pairs = tuple((a, b) for a, b in self.covers)
        labels = tuple(self.labels)
        for value in (self.size, *(e for pair in pairs for e in pair), *labels):
            if type(value) is not int:  # bool is an int subclass, and refused too
                raise ValueError(f"expected an integer, got {value!r}")
        if self.size < 0:
            raise ValueError("size must be nonnegative")
        covers = tuple(sorted(set(pairs)))
        object.__setattr__(self, "covers", covers)
        object.__setattr__(self, "labels", labels)
        for a, b in covers:
            if not (1 <= a <= self.size and 1 <= b <= self.size):
                raise ValueError(f"cover ({a},{b}) is outside 1..{self.size}")
            if a == b:
                raise ValueError(f"cover ({a},{b}) relates an element to itself")
        # the length check first, so a huge size is rejected before range() is listed
        if len(labels) != self.size or sorted(labels) != list(range(1, self.size + 1)):
            raise ValueError(f"labels must be a permutation of 1..{self.size}")
        if len(self._topological_order) < self.size:
            raise ValueError("cover relations contain a cycle")

    @cached_property
    def _topological_order(self) -> tuple[int, ...]:
        """Smallest-first topological order of the elements; elements on or
        above a cycle never become ready, so then it is shorter than size."""
        indegree = [0] * (self.size + 1)
        above: list[list[int]] = [[] for _ in range(self.size + 1)]
        for a, b in self.covers:
            indegree[b] += 1
            above[a].append(b)
        ready = [e for e in range(1, self.size + 1) if indegree[e] == 0]
        heapify(ready)
        order: list[int] = []
        while ready:
            element = heappop(ready)
            order.append(element)
            for other in above[element]:
                indegree[other] -= 1
                if indegree[other] == 0:
                    heappush(ready, other)
        return tuple(order)

    @classmethod
    def with_identity_labels(
        cls, size: int, covers: Sequence[tuple[int, int]]
    ) -> "LabeledPoset":
        return cls(size, tuple(covers), tuple(range(1, size + 1)))

    @cached_property
    def _below(self) -> tuple[int, ...]:
        """Entry e is the bitmask with bit a set for every a strictly below e
        (entry 0 is unused). Covers are walked in topological order of their
        upper element, so each lower element's mask is complete when read."""
        position = {element: idx for idx, element in enumerate(self._topological_order)}
        below = [0] * (self.size + 1)
        for a, b in sorted(self.covers, key=lambda cover: position[cover[1]]):
            below[b] |= below[a] | 1 << a
        return tuple(below)

    def leq(self, a: int, b: int) -> bool:
        return a == b or (a > 0 and 0 < b <= self.size and bool(self._below[b] >> a & 1))

    def label_of(self, element: int) -> int:
        return self.labels[element - 1]

    def is_naturally_labeled(self) -> bool:
        """True when labels weakly increase along the order."""
        return all(self.labels[a - 1] < self.labels[b - 1] for a, b in self.covers)

    def relabeled(self, labels: Sequence[int]) -> "LabeledPoset":
        return LabeledPoset(self.size, self.covers, tuple(labels))

    def canonical_key(self) -> str:
        covers = ";".join(f"{a}<{b}" for a, b in self.covers)
        labels = ",".join(str(v) for v in self.labels)
        return f"p={self.size}|covers={covers}|labels={labels}"

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "covers": [list(pair) for pair in self.covers],
            "labels": list(self.labels),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LabeledPoset":
        try:
            size = data["size"]
            covers = tuple((a, b) for a, b in data["covers"])
            labels = tuple(data["labels"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"invalid poset description: {exc}") from exc
        return cls(size, covers, labels)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LabeledPoset":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid poset description: {exc}") from exc
        return cls.from_dict(data)


def chain_poset(size: int, labels: Sequence[int] | None = None) -> LabeledPoset:
    covers = tuple((e, e + 1) for e in range(1, size))
    return LabeledPoset(size, covers, tuple(labels) if labels else tuple(range(1, size + 1)))


def antichain_poset(size: int, labels: Sequence[int] | None = None) -> LabeledPoset:
    return LabeledPoset(size, (), tuple(labels) if labels else tuple(range(1, size + 1)))


def ferrers_cells(shape: Partition) -> tuple[tuple[int, int], ...]:
    """Cells (row, column) of the shape in row-major order, 1-indexed."""
    return tuple(
        (i, j) for i, length in enumerate(shape.parts, start=1) for j in range(1, length + 1)
    )


def _ferrers_covers(shape: Partition) -> list[tuple[int, int]]:
    """Covers of the shape's cells under the componentwise order, with
    element ids in row-major cell order: each cell is covered by its right
    neighbor and by the cell below."""
    index = {cell: e for e, cell in enumerate(ferrers_cells(shape), start=1)}
    return [
        (e, index[upper])
        for (i, j), e in index.items()
        for upper in ((i, j + 1), (i + 1, j))
        if upper in index
    ]


def ferrers_poset(shape: Partition) -> LabeledPoset:
    """Cells of the shape under the componentwise order, with identity labels
    (element ids follow row-major cell order, see ``_ferrers_covers``)."""
    return LabeledPoset.with_identity_labels(shape.cells, _ferrers_covers(shape))


def column_strict_labeling(shape: Partition) -> tuple[tuple[int, ...], ...]:
    """The canonical labeling that decreases down columns and increases along
    rows: bottom row first, each row left to right, ascending."""
    rows: list[list[int]] = [[0] * length for length in shape.parts]
    label = 1
    for i in range(len(shape.parts) - 1, -1, -1):
        for j in range(shape.parts[i]):
            rows[i][j] = label
            label += 1
    return tuple(tuple(row) for row in rows)


def is_column_strict(labeling: Sequence[Sequence[int]]) -> bool:
    """Check the two cell inequalities: strictly larger than the cell below,
    strictly smaller than the cell to the right."""
    rows = [tuple(row) for row in labeling]
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            if j + 1 < len(row) and not value < row[j + 1]:
                return False
            if i + 1 < len(rows) and j < len(rows[i + 1]) and not value > rows[i + 1][j]:
                return False
    return True


def column_strict_ferrers_poset(
    shape: Partition, labeling: Sequence[Sequence[int]] | None = None
) -> LabeledPoset:
    """Ferrers poset of the shape carrying a column-strict labeling (the
    canonical one unless another valid labeling is supplied)."""
    rows = (
        column_strict_labeling(shape)
        if labeling is None
        else tuple(tuple(row) for row in labeling)
    )
    if tuple(len(row) for row in rows) != shape.parts:
        raise ValueError(f"labeling does not match shape ({shape})")
    if not is_column_strict(rows):
        raise ValueError("labeling is not column strict")
    flat = tuple(value for row in rows for value in row)
    return LabeledPoset(shape.cells, tuple(_ferrers_covers(shape)), flat)


def linear_extensions(poset: LabeledPoset) -> Iterator[tuple[int, ...]]:
    """Every order-compatible arrangement of the elements, exactly once,
    ordered lexicographically by element id."""
    if poset.size > DEFAULT_MAX_EXTENSION_ELEMENTS:
        raise BudgetExceededError(
            f"poset has {poset.size} elements, extension cap is {DEFAULT_MAX_EXTENSION_ELEMENTS}"
        )
    p = poset.size
    below = poset._below
    prefix: list[int] = []

    def extend(placed_mask: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == p:
            yield tuple(prefix)
            return
        for element in range(1, p + 1):
            bit = 1 << element
            if placed_mask & bit:
                continue
            if below[element] & ~placed_mask:
                continue
            prefix.append(element)
            yield from extend(placed_mask | bit)
            prefix.pop()

    yield from extend(0)


def jordan_holder_set(poset: LabeledPoset) -> Iterator[tuple[int, ...]]:
    """Permutations obtained by reading the labels along each linear
    extension; in bijection with the extensions."""
    labels = poset.labels
    for extension in linear_extensions(poset):
        yield tuple(labels[e - 1] for e in extension)


def eulerian_polynomial(poset: LabeledPoset) -> IntPolynomial:
    """Descent generating function over the Jordan-Holder permutations.

    For an antichain this is the classical Eulerian polynomial of the
    symmetric group, whatever the labeling.

    Computed without listing the extensions, by the ideal DP of
    ``_eulerian_layers`` run to the whole poset; more than DEFAULT_MAX_IDEALS
    ideals raise ``BudgetExceededError``.
    """
    p = poset.size
    for layer in _eulerian_layers(poset, p):
        pass
    # a permutation of p labels has fewer than max(1, p) descents
    (ends,) = layer.values()
    return _unpacked(sum(ends.values()), factorial(p).bit_length(), max(1, p))


def _eulerian_layers(poset: LabeledPoset, size: int) -> Iterator[dict[int, dict[int, int]]]:
    """For m = 0..size, the states of every order ideal of m elements, keyed
    by its bitmask; the Eulerian polynomial of an ideal is the sum of its
    states, each packed in one int with factorial(size).bit_length() bits
    per coefficient.

    One pass over the order ideals, smallest first. The state (I, x) holds
    the descent polynomial of the extensions of the ideal I that end in x;
    placing y after x shifts it by one when the label of x exceeds the label
    of y. A state (I + y, y) has the one predecessor ideal I, so each is
    written once. More than DEFAULT_MAX_IDEALS ideals raises
    ``BudgetExceededError`` while the layer that passes the cap is being
    built; the layers past ``size`` are never built.

    Each ideal visits only its frontier: its maximal elements, in which its
    extensions end, and its addable ones. A frontier is a mask with one bit
    per element in descending-label rank (bit 0 for the largest label), and
    the states of an ideal are keyed by these rank bits. Placing y drops the
    listed lower covers of y from the frontier (y stays, now maximal) and
    adds each listed upper cover z of y whose strictly smaller elements
    (``_below``) all lie in the grown ideal: only an element covering y can
    become addable, and every Hasse cover is among the listed covers.
    """
    below = poset._below
    p = poset.size
    # labels are 1..p, so the element of label l has rank p - l
    rank_bit = [0, *[1 << (p - label) for label in poset.labels]]
    # by rank bit: the element's bit in an ideal, the frontier bits it
    # removes when placed (its listed lower covers), and its listed upper
    # covers, each with the elements below it
    by_rank = {rank_bit[e]: [1 << e, 0, []] for e in range(1, p + 1)}
    for a, b in poset.covers:
        by_rank[rank_bit[b]][1] |= rank_bit[a]
        by_rank[rank_bit[a]][2].append((below[b], rank_bit[b]))
    # an ideal of at most `size` elements has at most size! extensions, so
    # sums, differences of a sum and a part of it, and shifts never carry
    # between slots
    width = factorial(size).bit_length()
    # the empty ideal's one state ends in the placeholder 0, which is no
    # rank bit; its frontier is the elements without a listed lower cover,
    # the minimal ones
    layer: dict[int, dict[int, int]] = {0: {0: 1}}
    frontiers = {0: sum([bit for bit, (_, lower, _) in by_rank.items() if not lower])}
    ideals = 1
    yield layer
    for _ in range(size):
        following: dict[int, dict[int, int]] = {}
        following_frontiers: dict[int, int] = {}
        # each distinct frontier of the layer has its bits listed once, in
        # rank order: the many ideals of a wide poset share few frontiers
        walks: dict[int, list[int]] = {}
        for ideal, ends in layer.items():
            total = sum(ends.values())
            frontier = frontiers[ideal]
            walk = walks.get(frontier)
            if walk is None:
                walk = walks[frontier] = []
                rest = frontier
                while rest:
                    bit = rest & -rest
                    walk.append(bit)
                    rest ^= bit
            # largest label first: the running sum over the maximal elements
            # met so far holds exactly the states whose last label exceeds
            # that of the next addable element
            greater = 0
            for bit in walk:
                value = ends.get(bit)
                if value is not None:
                    greater += value
                    continue
                element, lower_covers, upper_covers = by_rank[bit]
                grown = ideal | element
                grown_ends = following.get(grown)
                if grown_ends is None:
                    ideals += 1
                    if ideals > DEFAULT_MAX_IDEALS:
                        raise BudgetExceededError(
                            f"poset has more than {DEFAULT_MAX_IDEALS} order ideals, "
                            f"the ideal cap"
                        )
                    grown_frontier = frontier & ~lower_covers
                    for cover_below, cover in upper_covers:
                        if not cover_below & ~grown:
                            grown_frontier |= cover
                    following_frontiers[grown] = grown_frontier
                    grown_ends = following[grown] = {}
                grown_ends[bit] = total - greater + (greater << width)
        layer = following
        frontiers = following_frontiers
        yield layer


def _slots(packed: int, width: int, terms: int) -> tuple[int, ...]:
    mask = (1 << width) - 1
    return tuple(packed >> (width * i) & mask for i in range(terms))


def _unpacked(packed: int, width: int, terms: int) -> IntPolynomial:
    return IntPolynomial(_slots(packed, width, terms))


def ferrers_eulerian_sweep(cells: int) -> Iterator[tuple[Partition, IntPolynomial]]:
    """Every shape of 1..cells cells, once each, with the Eulerian polynomial
    of its column-strict labeled Ferrers poset, all from one ideal DP.

    The DP runs for ``cells`` layers on the union shape
    U = (cells, cells // 2, ..., cells // cells). Row i of a shape of k <= cells
    cells has at most k / i cells, so the shape fits in U, and the ideals of U
    with k elements are exactly the shapes of k cells. U's canonical labels
    order its cells by row descending, then column ascending, as each
    shape's own labels order its cells, so each ideal's polynomial is its
    shape's.
    """
    poset, rows = _union_poset(cells)
    width = factorial(cells).bit_length()
    layers = _eulerian_layers(poset, cells)
    next(layers)  # the empty ideal
    for size, layer in enumerate(layers, start=1):
        for ideal, ends in layer.items():
            yield _ideal_shape(ideal, rows), _unpacked(sum(ends.values()), width, size)


def ferrers_order_sweep(
    cells: int,
) -> Iterator[tuple[Partition, IntPolynomial, tuple[int, ...]]]:
    """Every shape of 1..cells cells, with the Eulerian polynomial W and the
    strict chain counts s_k (see ``_ideal_chain_counts``) of its
    column-strict labeled Ferrers poset: one chain pass and one ideal DP,
    both on the union shape U of ``ferrers_eulerian_sweep``.

    A shape's strict chains are the chains of U that end at its ideal: U's
    listed covers among the shape's cells are the shape's own, and U's
    labels order those cells as the shape's labels do, so the same covers
    are inverted. The chains are counted first, so a sweep past the chain
    budget is refused before the DP runs.
    """
    poset, rows = _union_poset(cells)
    chain_layers = list(_ideal_chain_layers(poset, cells))
    chain_width = (cells**cells).bit_length()
    width = factorial(cells).bit_length()
    layers = zip(_eulerian_layers(poset, cells), chain_layers)
    next(layers)  # the empty ideal
    for size, (layer, chains) in enumerate(layers, start=1):
        for ideal, ends in layer.items():
            yield (_ideal_shape(ideal, rows), _unpacked(sum(ends.values()), width, size),
                   _slots(chains[ideal], chain_width, size + 1))


def _union_poset(cells: int) -> tuple[LabeledPoset, list[tuple[int, int]]]:
    """The column-strict Ferrers poset of U = (cells, cells // 2, ...,
    cells // cells), with the (shift, mask) of each row's bits in an
    ideal's mask."""
    parts = tuple(cells // i for i in range(1, cells + 1))
    # element ids are row-major (see _ferrers_covers): row i of U holds U_i
    # bits of an ideal's mask, from bit 1 + U_1 + ... + U_(i-1) up
    rows = [(start, (1 << part) - 1) for start, part in zip(accumulate(parts, initial=1), parts)]
    return column_strict_ferrers_poset(Partition(parts)), rows


def rectangle_eulerian_sweep(
    cells: int, column_strict: bool = False
) -> Iterator[tuple[Partition, IntPolynomial]]:
    """Every rectangle of 1..cells cells (m rows of length n), once each, with
    the Eulerian polynomial of its Ferrers poset, naturally labeled (row-major
    labels, see ``ferrers_poset``) or column-strict labeled: one ideal DP
    per row count.

    For m rows the DP runs on the rectangle R of m rows of length
    cells // m, and the m-by-n rectangle is the ideal of R's first n
    columns. R's natural labels order those cells row by row, and its
    canonical column-strict labels bottom row first, each row left to
    right, as the m-by-n rectangle's own labels do, so each ideal's
    polynomial is its rectangle's.
    """
    for m in range(1, cells + 1):
        longest = cells // m
        whole = Partition.rectangle(longest, m)
        poset = column_strict_ferrers_poset(whole) if column_strict else ferrers_poset(whole)
        width = factorial(whole.cells).bit_length()
        for size, layer in enumerate(_eulerian_layers(poset, whole.cells)):
            n, rest = divmod(size, m)
            if n and not rest:
                # element ids are row-major: row i of R starts at bit 1 + i * longest
                columns = sum(((1 << n) - 1) << (1 + i * longest) for i in range(m))
                yield Partition.rectangle(n, m), _unpacked(sum(layer[columns].values()), width, size)


def _ideal_shape(ideal: int, rows: Sequence[tuple[int, int]]) -> Partition:
    """The shape of an order ideal of a Ferrers poset: its cells per row."""
    lengths = ((ideal >> shift & mask).bit_count() for shift, mask in rows)
    return Partition(tuple(length for length in lengths if length))


def _series_value(w: IntPolynomial, p: int, n: int) -> int:
    """Order polynomial at n of a p-element poset with Eulerian polynomial w."""
    if n == 0:
        return int(p == 0)
    return sum(c * comb(n - 1 - j + p, p) for j, c in enumerate(w.coefficients))


def _cover_masks(poset: LabeledPoset) -> tuple[list[int], list[int]]:
    """Entry e of the first list is the bitmask of e's listed lower covers;
    entry e of the second keeps those whose label exceeds e's, the covers
    that may not share a level with e (entry 0 of each is unused)."""
    lower = [0] * (poset.size + 1)
    inverted = [0] * (poset.size + 1)
    labels = poset.labels
    for a, b in poset.covers:
        lower[b] |= 1 << a
        if labels[a - 1] > labels[b - 1]:
            inverted[b] |= 1 << a
    return lower, inverted


def _ideal_chain_counts(poset: LabeledPoset) -> tuple[int, ...]:
    """Entry k, s_k, counts the strict chains {} = J_0 < ... < J_k = P of
    order ideals whose levels J_i - J_(i-1) hold no listed pair (a, b) with
    label(a) > label(b). A map counted by ``order_polynomial_value`` at n is
    a weak chain of n such levels (the (P, w)-partitions of Stanley, EC1
    3.15), and dropping its repeats leaves a strict one, so the value at n
    is the sum of s_k * C(n, k) (the chains of J(P), EC1 3.12).

    The last layer of ``_ideal_chain_layers`` run to the whole poset; past
    DEFAULT_MAX_CHAIN_WORK units of work it raises ``BudgetExceededError``.
    """
    p = poset.size
    for layer in _ideal_chain_layers(poset, p):
        pass
    (packed,) = layer.values()
    return _slots(packed, (p**p).bit_length(), p + 1)


def _ideal_chain_layers(poset: LabeledPoset, size: int) -> Iterator[dict[int, int]]:
    """For m = 0..size, the strict chains of every order ideal of m elements,
    keyed by its bitmask: one int per ideal, with slot k, of
    (size**size).bit_length() bits, counting the strict chains of k levels
    from the empty ideal up to it (see ``_ideal_chain_counts``). A chain of
    k levels maps the ideal's m <= size elements onto them, so no count
    reaches k^m <= size^size and the sums never carry between slots.

    Ideals and steps come from the listed covers, the labels and the
    topological order alone, not from the transitive closure or the ideal
    DP of ``eulerian_polynomial``, so the two engines stay independent: the
    DP reads the listed covers only to grow its frontiers, admits an
    element by the transitive closure (``_below``), and shares no code with
    this pass. One pass over the ideals by size adds each one's chain
    polynomial, shifted one slot up, into each of its strict targets of at
    most ``size`` elements; the layers past ``size`` are never built.

    The work is counted where it is done, in units of one element scanned,
    one target offered or one step taken: each ideal is charged the scan of
    the p elements, and each element the targets it is offered to and the
    steps it adds, before they join the list. An element is offered to no
    target when one of its listed lower covers lies outside the ideal and
    outside every target built so far. A step costs one unit more per 2^11
    bits of the chain polynomial it moves, so long posets, whose polynomials
    are wide, pay for them. Past DEFAULT_MAX_CHAIN_WORK units it raises
    ``BudgetExceededError``.
    """
    p = poset.size
    # layers 0..size-1 hold at least one ideal each, which scans p elements
    # and offers an addable one at least its own ideal, so a long poset is
    # refused before any scan of its wide bitmasks
    if (p + 1) * size > DEFAULT_MAX_CHAIN_WORK:
        raise _chain_budget_error()
    budget = DEFAULT_MAX_CHAIN_WORK
    lower, inverted = _cover_masks(poset)
    order = poset._topological_order
    width = (size**size).bit_length()
    # by_size[m]: the packed chain polynomial of each ideal of m elements
    # reached so far; a size is complete once every smaller one is done
    by_size: list[dict[int, int]] = [{} for _ in range(size + 1)]
    by_size[0][0] = 1
    for m in range(size):
        layer = by_size[m]
        by_size[m] = {}  # a finished size is read only by the caller
        yield layer
        for ideal, chains in layer.items():
            budget -= p
            shifted = chains << width
            step = 1 + (shifted.bit_length() >> 11)
            # the targets of an ideal grow element by element in topological
            # order, so each element's lower covers are settled when it is
            # offered. Every target is the ideal plus elements added to some
            # target (reached), so an element with a lower cover outside
            # those is offered to none; a target of `size` elements is
            # offered nothing
            targets = [ideal]
            reached = ideal
            for e in order:
                if ideal >> e & 1 or lower[e] & ~reached:
                    continue
                bit = 1 << e
                needed = lower[e]
                clash = inverted[e] & ~ideal
                added = [
                    target | bit for target in targets if not needed & ~target and not clash & target
                ]
                budget -= len(targets) + step * len(added)
                if budget < 0:
                    raise _chain_budget_error()
                if added:
                    reached |= bit
                for target in added:
                    count = target.bit_count()
                    grown = by_size[count]
                    grown[target] = grown[target] + shifted if target in grown else shifted
                    if count < size:
                        targets.append(target)
    yield by_size[size]


def _chain_budget_error() -> BudgetExceededError:
    return BudgetExceededError(
        f"counting ideal chains takes more than {DEFAULT_MAX_CHAIN_WORK} units of work, "
        f"the chain budget"
    )


def order_polynomial_value(poset: LabeledPoset, n: int) -> int:
    """Number of maps from the elements into {1..n} that weakly drop along
    the order and strictly drop across label inversions.

    Computed at every size by expanding the Eulerian numerator against
    binomials, in O(p) once ``eulerian_polynomial`` is known.
    ``verify_order_gf`` checks that numerator against the strict ideal
    chains, and the tests compare both with a search over the maps.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _series_value(eulerian_polynomial(poset), poset.size, n)


def verify_order_gf(
    poset: LabeledPoset | Partition,
    eulerian: IntPolynomial | None = None,
    strict: Sequence[int] | None = None,
) -> IdentityReport:
    """Check the order series identity x W(x) = sum_k s_k x^k (1-x)^(p-k)
    coefficient by coefficient, with W the Eulerian polynomial and s_k the
    strict ideal chains of ``_ideal_chain_counts``.

    A shape stands for its column-strict labeled Ferrers poset. W and the
    s_k are ``eulerian`` and ``strict`` when given (the ``ordergf`` suite
    reads both off ``ferrers_order_sweep``), else computed on the poset.
    Both sides are the numerator of sum_n Omega(P, n) x^n over (1-x)^(p+1),
    so every coefficient of W is compared; for p = 0 the left side is W
    itself, since Omega(P, 0) = 1 there. The chains read only the listed
    covers, the labels and the topological order; W comes from the ideal DP,
    which admits each element by the transitive closure and reads the listed
    covers only to find the candidates. The chains are counted first, so a poset
    past their budget is refused before the DP runs on it.
    """
    p = poset.cells if isinstance(poset, Partition) else poset.size
    if isinstance(poset, Partition) and (strict is None or eulerian is None):
        poset = column_strict_ferrers_poset(poset)
    if strict is None:
        strict = _ideal_chain_counts(poset)
    if eulerian is None:
        eulerian = eulerian_polynomial(poset)
    w = eulerian.coefficients
    left = (0, *w) if p else w
    # after step k, right holds sum_(j <= k) s_j x^j (1-x)^(k-j)
    right: list[int] = []
    for count in strict:
        right = [a - b for a, b in zip(right + [count], [0] + right)]
    return compare_sequences(f"order series p={p}", left, right)


def verify_ferrers_eulerian_identity(
    shape: Partition,
    labeling: Sequence[Sequence[int]] | None = None,
    eulerian: IntPolynomial | None = None,
) -> IdentityReport:
    """Check that the Eulerian polynomial of the column-strict labeled
    Ferrers poset equals the tableau descent polynomial of the shape.

    The left side is the order-ideal DP: ``eulerian`` when given (the
    ``eq33`` suite reads it off ``ferrers_eulerian_sweep``), else
    ``eulerian_polynomial`` of the labeled poset. The right side is the
    closed form of EC2 Prop. 7.19.12 with the hook-content formula, so
    neither enumerates and the two are independent."""
    if eulerian is None:
        eulerian = eulerian_polynomial(column_strict_ferrers_poset(shape, labeling))
    left = eulerian.coefficients
    right = IntPolynomial(_descent_closed_form(shape)).coefficients
    return compare_sequences(f"ferrers eulerian identity shape={shape}", left, right)
