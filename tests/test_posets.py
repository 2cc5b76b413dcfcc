import inspect
import random
import time
from itertools import permutations
from math import comb, factorial, prod
from operator import gt

import pytest
from hypothesis import example, given, settings, strategies as st

from narayana.bijections import perm_to_tableau
from narayana.combinatorics import (
    DEFAULT_MAX_CELLS,
    BudgetExceededError,
    Partition,
    enumerate_partitions,
    syt_count_hook,
)
from narayana.generating import syt_descent_polynomial
from narayana.polynomials import IntPolynomial
from narayana import posets
from narayana.posets import (
    DEFAULT_MAX_CHAIN_WORK,
    LabeledPoset,
    antichain_poset,
    chain_poset,
    column_strict_ferrers_poset,
    column_strict_labeling,
    eulerian_polynomial,
    ferrers_cells,
    ferrers_eulerian_sweep,
    ferrers_order_sweep,
    ferrers_poset,
    is_column_strict,
    jordan_holder_set,
    linear_extensions,
    order_polynomial_value,
    rectangle_eulerian_sweep,
    verify_ferrers_eulerian_identity,
    verify_order_gf,
    _ideal_chain_counts,
)


def _assignment_count(poset: LabeledPoset, n: int) -> int:
    # The reference that the strict chain counts and the series are compared
    # with: the maps of ``order_polynomial_value``, counted by backtracking.
    # Elements are processed in a topological order, so when an element is
    # placed all of its lower covers already hold values and give an upper
    # bound (off by one across strict drops). Elements nothing depends on
    # contribute a plain factor instead of a branch.
    p = poset.size
    if p == 0:
        return 1
    if n <= 0:
        return 0
    position = {element: idx for idx, element in enumerate(poset._topological_order)}
    bounds: list[list[tuple[int, int]]] = [[] for _ in range(p)]
    has_dependent = [False] * p
    labels = poset.labels
    for a, b in poset.covers:
        drop = 1 if labels[a - 1] > labels[b - 1] else 0
        bounds[position[b]].append((position[a], drop))
        has_dependent[position[a]] = True
    values = [0] * p

    def count_from(idx: int) -> int:
        if idx == p:
            return 1
        limit = n
        for source, drop in bounds[idx]:
            candidate = values[source] - drop
            if candidate < limit:
                limit = candidate
        if limit <= 0:
            return 0
        if not has_dependent[idx]:
            return limit * count_from(idx + 1)
        total = 0
        for value in range(limit, 0, -1):
            values[idx] = value
            total += count_from(idx + 1)
        return total

    return count_from(0)


class TestLabeledPoset:
    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="permutation"):
            LabeledPoset(3, (), (1, 1, 2))

    def test_rejects_bad_covers(self):
        with pytest.raises(ValueError, match="outside"):
            LabeledPoset(2, ((1, 5),), (1, 2))
        with pytest.raises(ValueError, match="itself"):
            LabeledPoset(2, ((1, 1),), (1, 2))

    def test_rejects_non_integers(self):
        # the constructor refuses what from_json refuses, so every poset it
        # builds survives its own to_json
        for size, covers, labels in [
            (2, ((1.5, 2),), (True, 2.0)),
            (2.0, (), (1, 2)),
            (2, ((1, "2"),), (1, 2)),
            (2, (), (1, False)),
        ]:
            with pytest.raises(ValueError, match="expected an integer"):
                LabeledPoset(size, covers, labels)

    def test_rejects_cycles(self):
        with pytest.raises(ValueError, match="cycle"):
            LabeledPoset(3, ((1, 2), (2, 3), (3, 1)), (1, 2, 3))

    def test_covers_are_canonicalized(self):
        poset = LabeledPoset(3, ((2, 3), (1, 2), (1, 2)), (1, 2, 3))
        assert poset.covers == ((1, 2), (2, 3))

    def test_order_queries(self):
        diamond = ferrers_poset(Partition((2, 2)))
        assert diamond.leq(1, 4)
        assert diamond.leq(2, 2)
        assert not diamond.leq(2, 3)
        assert not diamond.leq(4, 1)
        # covers listed out of topological order, with the chain 4 < 3 < 1 < 2
        chain = LabeledPoset(4, ((3, 1), (1, 2), (4, 3)), (1, 2, 3, 4))
        assert chain.leq(4, 2)
        assert chain.leq(3, 2)
        assert not chain.leq(2, 4)
        assert not chain.leq(1, 3)
        # elements outside 1..size are related to nothing but themselves
        assert not chain.leq(1, -2) and not chain.leq(-1, 2) and not chain.leq(4, 5)

    def test_natural_labeling_predicate(self):
        assert chain_poset(4).is_naturally_labeled()
        assert ferrers_poset(Partition((3, 2))).is_naturally_labeled()
        assert not column_strict_ferrers_poset(Partition((2, 2))).is_naturally_labeled()

    def test_json_round_trip(self):
        poset = column_strict_ferrers_poset(Partition((3, 1)))
        again = LabeledPoset.from_json(poset.to_json())
        assert again == poset
        with pytest.raises(ValueError, match="invalid poset"):
            LabeledPoset.from_json("{")
        with pytest.raises(ValueError, match="invalid poset"):
            LabeledPoset.from_json('{"size": 2}')

    def test_canonical_key_distinguishes_labelings(self):
        base = ferrers_poset(Partition((2, 1)))
        assert base.canonical_key() != base.relabeled((2, 1, 3)).canonical_key()


class TestFerrers:
    def test_cells_row_major(self):
        assert ferrers_cells(Partition((2, 1))) == ((1, 1), (1, 2), (2, 1))

    def test_single_cell(self):
        poset = ferrers_poset(Partition((1,)))
        assert poset.size == 1
        assert poset.covers == ()

    def test_hook_shape(self):
        poset = ferrers_poset(Partition((2, 1)))
        assert poset.size == 3
        assert poset.covers == ((1, 2), (1, 3))

    def test_diamond(self):
        poset = ferrers_poset(Partition((2, 2)))
        assert poset.size == 4
        assert len(poset.covers) == 4


class TestColumnStrictLabeling:
    def test_bottom_up_example(self):
        assert column_strict_labeling(Partition((4, 2, 1))) == ((4, 5, 6, 7), (2, 3), (1,))

    def test_single_column(self):
        assert column_strict_labeling(Partition((1, 1, 1))) == ((3,), (2,), (1,))

    def test_single_row(self):
        assert column_strict_labeling(Partition((4,))) == ((1, 2, 3, 4),)

    def test_predicate(self):
        assert is_column_strict(((4, 5, 6, 7), (2, 3), (1,)))
        assert is_column_strict(((2, 4), (1, 3)))
        assert not is_column_strict(((1, 2), (3, 4)))
        assert not is_column_strict(((2, 1),))

    def test_poset_construction_validates(self):
        shape = Partition((2, 2))
        custom = column_strict_ferrers_poset(shape, ((2, 4), (1, 3)))
        assert custom.labels == (2, 4, 1, 3)
        with pytest.raises(ValueError, match="column strict"):
            column_strict_ferrers_poset(shape, ((1, 2), (3, 4)))
        with pytest.raises(ValueError, match="shape"):
            column_strict_ferrers_poset(shape, ((2, 4, 5), (1, 3)))

    def test_poset_is_the_relabeled_ferrers_poset_up_to_8_cells(self):
        for total in range(9):
            for shape in enumerate_partitions(total):
                flat = tuple(value for row in column_strict_labeling(shape) for value in row)
                poset = column_strict_ferrers_poset(shape)
                assert poset == ferrers_poset(shape).relabeled(flat), shape
        custom = column_strict_ferrers_poset(Partition((2, 2)), ((2, 4), (1, 3)))
        assert custom == ferrers_poset(Partition((2, 2))).relabeled((2, 4, 1, 3))


class TestLinearExtensions:
    def test_chain_has_one(self):
        assert list(linear_extensions(chain_poset(4))) == [(1, 2, 3, 4)]

    def test_antichain_has_factorial(self):
        extensions = list(linear_extensions(antichain_poset(4)))
        assert len(extensions) == factorial(4)
        assert extensions == sorted(extensions)

    def test_diamond_has_two(self):
        assert list(linear_extensions(ferrers_poset(Partition((2, 2))))) == [
            (1, 2, 3, 4),
            (1, 3, 2, 4),
        ]

    def test_empty_poset(self):
        assert list(linear_extensions(antichain_poset(0))) == [()]

    def test_budget(self):
        with pytest.raises(BudgetExceededError, match="cap"):
            next(linear_extensions(antichain_poset(13)))

    @pytest.mark.parametrize("parts", [(2, 1), (3, 2), (2, 2, 1), (4, 2, 1)])
    def test_ferrers_extension_count_is_the_tableau_count(self, parts):
        shape = Partition(parts)
        count = sum(1 for _ in linear_extensions(ferrers_poset(shape)))
        assert count == syt_count_hook(shape)


class TestJordanHolder:
    def test_natural_chain(self):
        assert list(jordan_holder_set(chain_poset(3))) == [(1, 2, 3)]

    def test_known_permutation_present(self):
        poset = column_strict_ferrers_poset(Partition((4, 2, 1)))
        assert (4, 2, 1, 5, 6, 7, 3) in set(jordan_holder_set(poset))

    def test_size_matches_extensions(self):
        poset = column_strict_ferrers_poset(Partition((2, 2, 1)))
        assert len(list(jordan_holder_set(poset))) == len(list(linear_extensions(poset)))


class TestEulerianPolynomial:
    def test_chain(self):
        assert eulerian_polynomial(chain_poset(5)) == IntPolynomial([1])

    def test_classical_antichain_values(self):
        assert eulerian_polynomial(antichain_poset(3)) == IntPolynomial([1, 4, 1])
        assert eulerian_polynomial(antichain_poset(4)) == IntPolynomial([1, 11, 11, 1])

    def test_antichain_is_labeling_independent(self):
        relabeled = antichain_poset(4, labels=(3, 1, 4, 2))
        assert eulerian_polynomial(relabeled) == IntPolynomial([1, 11, 11, 1])

    @pytest.mark.parametrize("parts", [(2, 2), (3, 2), (2, 2, 2), (3, 3), (4, 2, 1)])
    def test_matches_tableau_descents(self, parts):
        shape = Partition(parts)
        report = verify_ferrers_eulerian_identity(shape)
        assert report, report.detail()
        assert report.left == syt_descent_polynomial(shape).coefficients

    @pytest.mark.parametrize("parts", [(2, 1), (2, 2), (3, 1), (2, 2, 1)])
    def test_all_column_strict_labelings_agree(self, parts):
        shape = Partition(parts)
        p = shape.cells
        lengths = shape.parts
        expected = syt_descent_polynomial(shape)
        found = 0
        for values in permutations(range(1, p + 1)):
            rows = []
            offset = 0
            for length in lengths:
                rows.append(values[offset:offset + length])
                offset += length
            if not is_column_strict(rows):
                continue
            found += 1
            poset = column_strict_ferrers_poset(shape, rows)
            assert eulerian_polynomial(poset) == expected
        assert found >= 1

    def test_descents_transport_through_perm_to_tableau(self):
        shape = Partition((3, 2, 1))
        labeling = column_strict_labeling(shape)
        poset = column_strict_ferrers_poset(shape)
        images = set()
        for pi in jordan_holder_set(poset):
            tableau = perm_to_tableau(pi, labeling, shape)
            descents = sum(1 for a, b in zip(pi, pi[1:]) if a > b)
            assert descents == tableau.descent_count()
            images.add(tableau)
        # the filling map is a bijection onto the standard tableaux
        from narayana.combinatorics import enumerate_syt

        assert images == set(enumerate_syt(shape))


class TestFerrersEulerianSweep:
    def test_matches_the_dp_of_each_shape(self):
        swept = dict(ferrers_eulerian_sweep(12))
        shapes = [shape for total in range(1, 13) for shape in enumerate_partitions(total)]
        assert len(swept) == len(shapes) == 271
        for shape in shapes:
            assert swept[shape] == eulerian_polynomial(column_strict_ferrers_poset(shape)), shape

    @pytest.mark.parametrize("cells", range(1, 11))
    def test_yields_every_shape_once(self, cells):
        shapes = [shape for shape, _ in ferrers_eulerian_sweep(cells)]
        expected = [shape for total in range(1, cells + 1) for shape in enumerate_partitions(total)]
        assert sorted(shapes, key=lambda shape: shape.parts) == sorted(
            expected, key=lambda shape: shape.parts
        )
        assert Partition((cells,)) in shapes
        assert Partition((1,) * cells) in shapes

    def test_reaches_the_cell_cap_within_the_ideal_cap(self):
        assert sum(1 for _ in ferrers_eulerian_sweep(DEFAULT_MAX_CELLS)) == 4507
        assert list(ferrers_eulerian_sweep(0)) == []


class TestFerrersOrderSweep:
    def test_matches_both_engines_on_each_shape(self):
        swept = {shape: (w, strict) for shape, w, strict in ferrers_order_sweep(12)}
        shapes = [shape for total in range(1, 13) for shape in enumerate_partitions(total)]
        assert len(swept) == len(shapes) == 271
        for shape in shapes:
            poset = column_strict_ferrers_poset(shape)
            assert swept[shape] == (eulerian_polynomial(poset), _ideal_chain_counts(poset)), shape

    def test_small_sweeps_are_pinned(self):
        assert list(ferrers_order_sweep(1)) == [(Partition((1,)), IntPolynomial([1]), (0, 1))]
        # a row of two or three cells is also one level, since a row has no
        # inverted cover
        strict = {shape.parts: chains for shape, _, chains in ferrers_order_sweep(3)}
        assert strict == {
            (1,): (0, 1), (2,): (0, 1, 1), (1, 1): (0, 0, 1),
            (3,): (0, 1, 2, 1), (2, 1): (0, 0, 2, 2), (1, 1, 1): (0, 0, 0, 1),
        }
        assert list(ferrers_order_sweep(0)) == []

    def test_reaches_the_cell_cap_within_the_chain_budget(self, monkeypatch):
        # the chains of every shape up to 22 cells take 1,016,195 units
        monkeypatch.setattr(posets, "DEFAULT_MAX_CHAIN_WORK", 1_016_195)
        assert sum(1 for _ in ferrers_order_sweep(DEFAULT_MAX_CELLS)) == 4507
        monkeypatch.setattr(posets, "DEFAULT_MAX_CHAIN_WORK", 1_016_194)
        with pytest.raises(BudgetExceededError, match="chain budget"):
            next(ferrers_order_sweep(DEFAULT_MAX_CELLS))


class TestRectangleEulerianSweep:
    @pytest.mark.parametrize("cells", range(1, 17))
    @pytest.mark.parametrize(
        "column_strict, build", [(False, ferrers_poset), (True, column_strict_ferrers_poset)],
        ids=["natural", "column-strict"],
    )
    def test_yields_each_rectangle_once_with_its_own_w(self, cells, column_strict, build):
        swept = list(rectangle_eulerian_sweep(cells, column_strict))
        expected = {
            Partition.rectangle(n, m)
            for n in range(1, cells + 1)
            for m in range(1, cells // n + 1)
        }
        assert len(swept) == len(expected) and {shape for shape, _ in swept} == expected
        for shape, w in swept:
            assert w == eulerian_polynomial(build(shape)), shape

    def test_reaches_the_cell_cap_within_the_ideal_cap(self):
        for column_strict in (False, True):
            assert sum(1 for _ in rectangle_eulerian_sweep(DEFAULT_MAX_CELLS, column_strict)) == 74
        assert list(rectangle_eulerian_sweep(0)) == []


@st.composite
def labeled_posets(draw, max_size=8):
    """Random covers a < b on element ids (so acyclic) with shuffled labels."""
    size = draw(st.integers(0, max_size))
    pairs = [(a, b) for a in range(1, size + 1) for b in range(a + 1, size + 1)]
    covers = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    labels = draw(st.permutations(range(1, size + 1)))
    return LabeledPoset(size, tuple(covers), tuple(labels))


def _extension_tally(poset):
    """The oracle: descents counted on every Jordan-Holder permutation."""
    tallies = [0] * max(1, poset.size)
    for pi in jordan_holder_set(poset):
        tallies[sum(map(gt, pi, pi[1:]))] += 1
    return IntPolynomial(tallies)


class TestEulerianDP:
    def test_matches_the_extension_tally_on_every_small_ferrers_poset(self):
        shapes = [shape for total in range(1, 11) for shape in enumerate_partitions(total)]
        assert len(shapes) == 138
        for shape in shapes:
            poset = column_strict_ferrers_poset(shape)
            assert eulerian_polynomial(poset) == _extension_tally(poset), shape

    @settings(max_examples=150, deadline=None)
    @given(labeled_posets())
    @example(antichain_poset(0))
    def test_matches_the_extension_tally_on_random_posets(self, poset):
        assert eulerian_polynomial(poset) == _extension_tally(poset)

    def test_matches_the_extension_tally_on_scrambled_posets(self):
        # ids out of topological order and implied covers listed: the
        # frontier is grown from the listed covers and must still find every
        # addable element exactly when its lower set is placed
        for poset in _scrambled_posets(320):
            assert eulerian_polynomial(poset) == _extension_tally(poset), poset.canonical_key()

    def test_chains_natural_reversed_and_shuffled(self):
        # a chain has one extension, so W is t^d for the d descents of its
        # labels read up the chain
        assert eulerian_polynomial(chain_poset(2000)) == IntPolynomial([1])
        assert eulerian_polynomial(chain_poset(600, range(600, 0, -1))) == IntPolynomial(
            [0] * 599 + [1]
        )
        labels = list(range(1, 601))
        random.Random(1).shuffle(labels)
        assert sum(map(gt, labels, labels[1:])) == 301
        assert eulerian_polynomial(chain_poset(600, labels)) == IntPolynomial([0] * 301 + [1])

    def test_ideal_budget_fails_at_once(self):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="order ideals"):
            eulerian_polynomial(antichain_poset(40))
        assert time.perf_counter() - start < 1.0

    def test_reaches_past_the_extension_cap(self):
        # 14! extensions and 2^14 ideals, exactly the ideal cap; the Eulerian
        # numbers by their alternating sum
        p = 14
        eulerian = [
            sum((-1) ** i * comb(p + 1, i) * (k + 1 - i) ** p for i in range(k + 1))
            for k in range(p)
        ]
        assert eulerian_polynomial(antichain_poset(p)) == IntPolynomial(eulerian)
        with pytest.raises(BudgetExceededError):
            eulerian_polynomial(antichain_poset(15))


def _reverse_ssyt_count(shape: Partition, n: int) -> int:
    """s_lambda(1^n) by the hook-content formula: the number of fillings from
    {1..n} that weakly drop along rows and strictly drop down columns."""
    parts = shape.parts
    columns = [sum(1 for row in parts if row > j) for j in range(parts[0])]
    cells = [(i, j) for i, row in enumerate(parts) for j in range(row)]
    contents = prod(n + j - i for i, j in cells)
    return contents // prod(parts[i] - j + columns[j] - i - 1 for i, j in cells)


class TestOrderPolynomial:
    def test_chain_with_natural_labels(self):
        assert [order_polynomial_value(chain_poset(2), n) for n in (1, 2, 3)] == [1, 3, 6]
        assert order_polynomial_value(chain_poset(4), 1) == 1
        # weakly decreasing sequences of length 4 from {1..3}
        assert order_polynomial_value(chain_poset(4), 3) == 15

    def test_antichain_is_a_power(self):
        assert [order_polynomial_value(antichain_poset(2), n) for n in (1, 2, 3)] == [1, 4, 9]
        assert order_polynomial_value(antichain_poset(3), 4) == 64
        assert order_polynomial_value(antichain_poset(5), 2) == 32

    def test_forced_strict_drop_kills_n_one(self):
        inverted = chain_poset(2, labels=(2, 1))
        assert order_polynomial_value(inverted, 1) == 0
        assert order_polynomial_value(inverted, 2) == 1

    def test_column_strict_diamond(self):
        poset = column_strict_ferrers_poset(Partition((2, 2)))
        assert order_polynomial_value(poset, 1) == 0
        assert order_polynomial_value(poset, 2) == 1

    def test_zero_arguments(self):
        assert order_polynomial_value(chain_poset(2), 0) == 0
        assert order_polynomial_value(antichain_poset(0), 0) == 1

    def test_methods_agree(self):
        for poset in (
            chain_poset(5),
            antichain_poset(4),
            column_strict_ferrers_poset(Partition((3, 2))),
            column_strict_ferrers_poset(Partition((2, 2, 1))),
        ):
            for n in range(0, 7):
                assert _assignment_count(poset, n) == order_polynomial_value(poset, n), (
                    poset.canonical_key(), n,
                )

    def test_series_above_the_ideal_chain_cap(self):
        with pytest.raises(ValueError, match="nonnegative"):
            order_polynomial_value(chain_poset(2), -1)
        # thirteen elements are past the chain budget of verify_order_gf; the
        # series answers at every size
        with pytest.raises(BudgetExceededError, match="chain budget"):
            verify_order_gf(antichain_poset(13))
        assert order_polynomial_value(antichain_poset(14), 2) == 2**14

    def test_hook_content_oracle_matches_assignment_search(self):
        for total in range(1, 8):
            for shape in enumerate_partitions(total):
                poset = column_strict_ferrers_poset(shape)
                for n in range(0, 6):
                    assert _assignment_count(poset, n) == _reverse_ssyt_count(shape, n), (shape, n)

    def test_thirteen_cells_past_the_old_extension_cap(self):
        shapes = list(enumerate_partitions(13))
        assert len(shapes) == 101
        for shape in shapes:
            poset = column_strict_ferrers_poset(shape)
            values = [order_polynomial_value(poset, n) for n in range(1, 6)]
            assert values == [_reverse_ssyt_count(shape, n) for n in range(1, 6)], shape
        assert order_polynomial_value(antichain_poset(13), 2) == 2**13

    def test_weakly_increasing_in_n(self):
        poset = column_strict_ferrers_poset(Partition((2, 1)))
        values = [order_polynomial_value(poset, n) for n in range(0, 8)]
        assert values == sorted(values)
        assert all(v <= n ** 3 for n, v in enumerate(values))


class TestOrderSeriesIdentity:
    def test_chain_closed_form(self):
        report = verify_order_gf(chain_poset(4))
        assert report, report.detail()

    def test_diamond(self):
        assert verify_order_gf(column_strict_ferrers_poset(Partition((2, 2))))
        # a shape stands for its column-strict labeled Ferrers poset
        assert verify_order_gf(Partition((2, 2)))

    def test_antichain_matches_cubes(self):
        poset = antichain_poset(3)
        assert verify_order_gf(poset)
        for n in range(1, 8):
            assert order_polynomial_value(poset, n) == n ** 3

    def test_empty_poset(self):
        assert verify_order_gf(antichain_poset(0))


class TestOrderSeriesMutations:
    """Faults that ``verify_order_gf`` must report."""

    def test_every_coefficient_of_w_is_compared(self, monkeypatch):
        # +1 in one coefficient of W, at every index below p, the top one too
        shapes = [shape for total in range(1, 9) for shape in enumerate_partitions(total)]
        eulerian = posets.eulerian_polynomial
        for shape in [*shapes, Partition((5, 5, 4, 3, 3))]:
            poset = column_strict_ferrers_poset(shape)
            p = poset.size
            w = [*eulerian(poset).coefficients, *[0] * p][:p]
            for j in range(p):
                faulty = IntPolynomial([c + (i == j) for i, c in enumerate(w)])
                monkeypatch.setattr(posets, "eulerian_polynomial", lambda _, f=faulty: f)
                assert not verify_order_gf(poset), (shape, j)

    def test_a_dropped_inversion_rule_fails(self, monkeypatch):
        cover_masks = posets._cover_masks

        def ignore_inversions(poset):
            lower, inverted = cover_masks(poset)
            return lower, [0] * len(inverted)

        monkeypatch.setattr(posets, "_cover_masks", ignore_inversions)
        assert not verify_order_gf(column_strict_ferrers_poset(Partition((3, 2))))

    def test_a_pass_that_also_takes_identity_steps_fails(self, monkeypatch):
        # each ideal also steps to itself once before its chains move on
        source = inspect.getsource(posets._ideal_chain_layers)
        step = "shifted = chains << width"
        assert source.count(step) == 1
        namespace = dict(vars(posets))
        exec(source.replace(step, "shifted = (chains + (chains << width)) << width"), namespace)
        monkeypatch.setattr(posets, "_ideal_chain_layers", namespace["_ideal_chain_layers"])
        diamond = column_strict_ferrers_poset(Partition((2, 2)))
        for poset in (chain_poset(2), antichain_poset(3), diamond):
            assert not verify_order_gf(poset), poset.canonical_key()


def _scrambled_posets(count: int, seed: int = 14) -> list[LabeledPoset]:
    """Seeded random labeled posets of at most 8 elements. Relations are
    drawn between ranks r < s and given to shuffled ids, so topological
    order and id order differ; a drawn pair that other drawn pairs already
    imply stays listed."""
    rng = random.Random(seed)
    posets = []
    for _ in range(count):
        size = rng.randint(0, 8)
        ids = rng.sample(range(1, size + 1), size)
        density = rng.random()
        covers = tuple(
            (ids[r], ids[s])
            for r in range(size)
            for s in range(r + 1, size)
            if rng.random() < density
        )
        posets.append(LabeledPoset(size, covers, tuple(rng.sample(range(1, size + 1), size))))
    return posets


def _implied(poset: LabeledPoset, a: int, b: int) -> bool:
    return any(
        poset.leq(a, c) and poset.leq(c, b) for c in range(1, poset.size + 1) if c not in (a, b)
    )


class TestIdealChainCounts:
    """The strict chain counts against the assignment search and the series."""

    @staticmethod
    def _agree(poset: LabeledPoset) -> None:
        # past n = p as well: a spurious top coefficient of the Eulerian DP
        # adds a multiple of C(n - 1, p), which is 0 for every n <= p
        strict = _ideal_chain_counts(poset)
        assert len(strict) == poset.size + 1
        for n in range(max(12, poset.size + 2)):
            brute = _assignment_count(poset, n)
            assert brute == order_polynomial_value(poset, n), (poset.canonical_key(), n)
            chains = sum(count * comb(n, k) for k, count in enumerate(strict))
            assert brute == chains, (poset.canonical_key(), n)

    def test_every_ferrers_poset_up_to_8_cells(self):
        shapes = [shape for total in range(1, 9) for shape in enumerate_partitions(total)]
        assert len(shapes) == 66
        for shape in shapes:
            self._agree(column_strict_ferrers_poset(shape))
            self._agree(ferrers_poset(shape))

    def test_chains_and_antichains(self):
        for size in range(9):
            self._agree(chain_poset(size))
            self._agree(antichain_poset(size))
            self._agree(chain_poset(size, labels=range(size, 0, -1)))
        # the strict chains of an antichain are its ordered set partitions
        assert _ideal_chain_counts(antichain_poset(3)) == (0, 1, 6, 6)

    def test_scrambled_random_posets(self):
        posets = _scrambled_posets(320)
        scrambled = sum(p._topological_order != tuple(range(1, p.size + 1)) for p in posets)
        implied = [
            p.labels[a - 1] > p.labels[b - 1]
            for p in posets
            for a, b in p.covers
            if _implied(p, a, b)
        ]
        assert scrambled >= 150 and implied.count(True) >= 300 and implied.count(False) >= 300
        for poset in posets:
            self._agree(poset)

    def test_small_posets_are_pinned(self):
        # the diamond's inverted covers 1 < 3 and 2 < 4 leave it one chain
        # of two levels ({1, 2} then {3, 4}) and three of three
        diamond = column_strict_ferrers_poset(Partition((2, 2)))
        assert _ideal_chain_counts(antichain_poset(0)) == (1,)
        assert _ideal_chain_counts(antichain_poset(1)) == (0, 1)
        assert _ideal_chain_counts(chain_poset(3)) == (0, 1, 2, 1)
        assert _ideal_chain_counts(diamond) == (0, 0, 1, 3, 2)
        for poset in (antichain_poset(0), antichain_poset(1), chain_poset(3), diamond):
            assert verify_order_gf(poset)


def _antichain_work(size: int) -> int:
    """Units charged for an antichain: the 2^size - 1 ideals below the top
    each scan size elements, and the targets offered and the strict steps
    each number 3^size - 1 - (2^size - 1)."""
    return (2**size - 1) * size + 2 * (3**size - 2**size)


def _reversed_chain_work(size: int) -> int:
    """Units charged for a chain with reversed labels: the ideal of m
    elements scans size elements and offers one target to element m + 1 and
    two to element m + 2, which joins neither, so every later element has a
    lower cover outside them all and is offered none; its one step moves the
    single chain x^m one slot up, an int of (m + 1) * width + 1 bits, at one
    unit more per 2^11 of them."""
    width = (size**size).bit_length()
    return sum(
        size + 1 + 2 * (m + 2 <= size) + 1 + ((m + 1) * width + 1 >> 11) for m in range(size)
    )


class TestChainBudget:
    # a 200-element chain has 1529-bit slots, so from its second ideal on
    # each step moves more than 2^11 bits and costs more than one unit
    @pytest.mark.parametrize(
        "poset, work, strict",
        [(antichain_poset(3), _antichain_work(3), (0, 1, 6, 6)),
         (chain_poset(200, labels=range(200, 0, -1)), _reversed_chain_work(200),
          (0,) * 200 + (1,))],
        ids=["antichain3", "reversed200"],
    )
    def test_the_work_is_counted_exactly(self, monkeypatch, poset, work, strict):
        monkeypatch.setattr(posets, "DEFAULT_MAX_CHAIN_WORK", work)
        assert _ideal_chain_counts(poset) == strict
        monkeypatch.setattr(posets, "DEFAULT_MAX_CHAIN_WORK", work - 1)
        with pytest.raises(BudgetExceededError, match="chain budget"):
            _ideal_chain_counts(poset)

    def test_twelve_element_antichain_fits(self):
        assert _antichain_work(3) == 7 * 3 + 19 + 19
        assert _antichain_work(12) == 1_103_830 <= DEFAULT_MAX_CHAIN_WORK < _antichain_work(13)
        assert verify_order_gf(antichain_poset(12))

    @pytest.mark.parametrize(
        "poset",
        [antichain_poset(13), antichain_poset(19), antichain_poset(20), antichain_poset(40),
         chain_poset(1000), chain_poset(100_000), chain_poset(1000, labels=range(1000, 0, -1)),
         chain_poset(1800, labels=range(1800, 0, -1))],
        ids=["antichain13", "antichain19", "antichain20", "antichain40", "chain1000",
             "chain100000", "reversed1000", "reversed1800"],
    )
    def test_refusals_come_quickly(self, poset):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="chain budget"):
            verify_order_gf(poset)
        assert time.perf_counter() - start < 2
