"""Reference computations the benchmark checks the program against.

Nothing here imports ``narayana``: every expected value comes from a closed
form, a recurrence, or a direct check of the defining condition, so a wrong
answer from the program cannot also be the expected answer.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def conjugate(parts):
    return tuple(sum(1 for part in parts if part > j) for j in range(parts[0])) if parts else ()


def hooks(parts):
    columns = conjugate(parts)
    return [
        row - j + columns[j] - i - 1
        for i, row in enumerate(parts)
        for j in range(row)
    ]


def hook_count(parts) -> int:
    """Standard fillings of the shape, by the hook length formula."""
    product = 1
    for h in hooks(parts):
        product *= h
    return factorial(sum(parts)) // product


def _schur_at_ones(parts, count: int) -> int:
    """s_lambda(1^count), by the hook-content formula."""
    numerator = 1
    for i, row in enumerate(parts):
        for j in range(row):
            numerator *= count + j - i
    denominator = 1
    for h in hooks(parts):
        denominator *= h
    return numerator // denominator


def descent_polynomial(parts) -> list[int]:
    """Descent generating function of the standard fillings of the shape.

    Stanley, EC2 Prop. 7.19.12 at q = 1: the sum over fillings of t^des
    equals (1 - t)^(p+1) times sum_k s_lambda(1^(k+1)) t^k, cut at degree
    p - 1.
    """
    p = sum(parts)
    if p == 0:
        return [1]
    series = [_schur_at_ones(parts, k + 1) for k in range(p)]
    out = [
        sum((-1) ** i * comb(p + 1, i) * series[k - i] for i in range(k + 1))
        for k in range(p)
    ]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def narayana(n: int, m: int) -> list[int]:
    """N(n, m; t): the descent polynomial of the m-by-n rectangle divided by
    t^(m-1)."""
    coefficients = descent_polynomial((n,) * m)
    shift = m - 1
    if any(coefficients[:shift]):
        raise ArithmeticError(f"rectangle {n}x{m}: low coefficients are not zero")
    return coefficients[shift:]


def eulerian(n: int) -> list[int]:
    """Classical Eulerian polynomial A_n(t) (descents over S_n), degree n-1."""
    row = [1]
    for size in range(2, n + 1):
        row = [
            (k + 1) * (row[k] if k < len(row) else 0)
            + (size - k) * (row[k - 1] if 0 < k <= len(row) else 0)
            for k in range(size)
        ]
    return row


def narayana_two(n: int) -> list[int]:
    """N(n, 2; t) = sum_k N(n, k+1) t^k with the Narayana numbers
    N(n, k) = C(n, k) C(n, k-1) / n."""
    return [comb(n, k) * comb(n, k - 1) // n for k in range(1, n + 1)]


def multiply(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def evaluate(coefficients, point: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coefficients):
        acc = acc * point + c
    return acc


def partition_count(total: int) -> int:
    """p(total), by the standard parts-at-most-k recurrence."""
    ways = [1] + [0] * total
    for part in range(1, total + 1):
        for value in range(part, total + 1):
            ways[value] += ways[value - part]
    return ways[total]


def partitions(total: int, largest: int | None = None):
    """Partitions of ``total`` as weakly decreasing tuples."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest or total), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def weight_count(max_cells: int) -> int:
    """Pairs (n, m) of positive integers with n * m <= max_cells."""
    return sum(max_cells // n for n in range(1, max_cells + 1))


def is_lattice(symbols, n: int, m: int) -> bool:
    """Each of 1..m occurs n times and no prefix holds more (i+1)'s than i's."""
    counts = [0] * (m + 2)
    counts[0] = len(symbols) + 1
    for s in symbols:
        if not 1 <= s <= m:
            return False
        counts[s] += 1
        if counts[s] > counts[s - 1]:
            return False
    return len(symbols) == n * m and all(counts[s] == n for s in range(1, m + 1))


def is_ballot(steps, n: int, m: int) -> bool:
    """Unit steps in coordinates 1..m, each n times, and no prefix pushes a
    coordinate above the next one."""
    counts = [0] * (m + 2)
    counts[m + 1] = len(steps) + 1
    for s in steps:
        if not 1 <= s <= m:
            return False
        counts[s] += 1
        if counts[s] > counts[s + 1]:
            return False
    return len(steps) == n * m and all(counts[s] == n for s in range(1, m + 1))


def tableau_row_word(rows, parts):
    """Row index of each entry 1..p if ``rows`` is a standard filling of the
    shape, otherwise None."""
    if tuple(len(row) for row in rows) != tuple(parts):
        return None
    p = sum(parts)
    row_of = [0] * (p + 1)
    for i, row in enumerate(rows, start=1):
        for j, entry in enumerate(row):
            if not 1 <= entry <= p or row_of[entry]:
                return None
            if j and row[j - 1] >= entry:
                return None
            if i > 1 and rows[i - 2][j] >= entry:
                return None
            row_of[entry] = i
    return tuple(row_of[1:])
