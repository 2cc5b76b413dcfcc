"""The four workloads: seeded request lists and the checks on each answer.

A workload is a list of requests, each an argv for ``narayana.cli.main``
plus a check on the result. One run repeats the list as whole rounds. The
seed fixes the order of a round and the free choices inside it (which of two
conjugate shapes, which factors), while the multiset of request sizes stays
the same for every seed, so that run-to-run spread measures the program and
the host rather than the draw.

Placeholders in an argv: ``{cache}`` is a cache file that is new in every
round, ``{own_cache}`` one that is new for every request, and ``{work}`` the
run's scratch directory.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

import reference as ref


@dataclass
class Result:
    code: int
    out: str
    err: str


@dataclass
class Request:
    argv: tuple[str, ...]
    check: Callable[[Result], bool]
    # A request on a known fault: a False check counts it as failed rather
    # than as a wrong answer.
    fault: bool = False


class Workload:
    name = ""

    def requests(self, seed: int) -> list[Request]:
        raise NotImplementedError

    def warmup(self) -> list[Request]:
        raise NotImplementedError

    def files(self, seed: int) -> dict[str, str]:
        """Input files the requests read, by name under ``{work}``."""
        return {}


# -- poly ---------------------------------------------------------------------


def _check_poly(n: int, m: int):
    def check(result: Result) -> bool:
        if result.code != 0:
            return False
        payload = json.loads(result.out)
        coefficients = [int(c) for c in payload["coefficients"]]
        return (
            payload["n"] == n and payload["m"] == m
            and coefficients == ref.narayana(n, m)
            and payload["degree"] == len(coefficients) - 1
            and int(payload["catalan"]) == ref.hook_count((n,) * m)
        )

    return check


def _poly_request(n: int, m: int) -> Request:
    argv = ("poly", "--n", str(n), "--m", str(m), "--format", "json", "--cache", "{cache}")
    return Request(argv, _check_poly(n, m))


class Poly(Workload):
    """Every rectangle with both sides at least 2 and at most 20 cells once
    cold, in seeded order, then 33 repeats that the cache serves: each
    rectangle once and six seeded ones a second time, in seeded order."""

    name = "poly"
    EXTRA_HITS = 6

    def requests(self, seed):
        rng = random.Random(seed)
        cold = [(n, m) for n in range(2, 11) for m in range(2, 11) if n * m <= 20]
        rng.shuffle(cold)
        hits = cold + rng.sample(cold, self.EXTRA_HITS)
        rng.shuffle(hits)
        return [_poly_request(n, m) for n, m in cold + hits]

    def warmup(self):
        return [_poly_request(2, 2), _poly_request(2, 2), _poly_request(3, 3)]


# -- certify ------------------------------------------------------------------


def _check_analyze(coefficients, real_rooted: bool, distinct: int):
    nonnegative = all(c >= 0 for c in coefficients)

    def check(result: Result) -> bool:
        if result.code != 0:
            return False
        payload = json.loads(result.out)
        ok = (
            payload["degree"] == len(coefficients) - 1
            and payload["real_rooted"] is real_rooted
            and payload["distinct_real_roots"] == distinct
        )
        if ok and real_rooted and nonnegative:
            ok = payload["log_concave"] and payload["newton"] and payload["unimodal"]
        return ok

    return check


def _analyze_request(coefficients, real_rooted: bool, distinct: int) -> Request:
    argv = ("analyze", "--format", "json", "--coeffs", ",".join(map(str, coefficients)))
    return Request(argv, _check_analyze(coefficients, real_rooted, distinct))


def _palindromic_product(rng, degree: int):
    """prod (a t + 1)(t + a) with a = 2i+2 or 2i+3 for i < degree/2; the
    roots -a and -1/a are distinct."""
    poly = [1]
    for i in range(degree // 2):
        a = 2 * i + rng.choice((2, 3))
        poly = ref.multiply(poly, [1, a])
        poly = ref.multiply(poly, [a, 1])
    return poly


def _linear_product(rng, degree: int):
    """prod (t + r) with r = i+1 or i+3/2 for i < degree, cleared of
    denominators; the roots -r are distinct."""
    poly = [1]
    for i in range(degree):
        poly = ref.multiply(poly, rng.choice(([i + 1, 1], [2 * i + 3, 2])))
    return poly


def _irreducible_quadratic(rng):
    while True:
        a, b, c = rng.randint(1, 9), rng.randint(0, 9), rng.randint(1, 9)
        if b * b < 4 * a * c:
            return [a, b, c]


def _new_square(rng, poly):
    """(b t + c)^2 with -c/b not a root of ``poly``."""
    while True:
        b, c = rng.randint(1, 5), rng.randint(1, 40)
        if gcd(b, c) == 1 and ref.evaluate(poly, Fraction(-c, b)) != 0:
            return ref.multiply([c, b], [c, b])


def _family(rng, family: str, degree: int):
    if family == "eulerian":
        return ref.eulerian(degree + 1)
    if family == "narayana2":
        return ref.narayana_two(degree + 1)
    if family == "palindromic":
        return _palindromic_product(rng, degree)
    return _linear_product(rng, degree)


class Certify(Workload):
    """Coefficient lists whose root structure is known by construction or by
    theorem, at degree 10 to 58: a base family plain, or of degree two less
    times an irreducible quadratic or a squared linear factor."""

    name = "certify"
    # (family, total degree, variant, requests), in tiers of nearly equal
    # cost, costliest first. The tail percentile (11th costliest of 48) falls
    # in the middle of the second tier and the median in the middle of the
    # fourth, so neither jumps between tiers from run to run. The seed picks
    # the factors of the product families from narrow bands, which keeps the
    # cost of each request nearly independent of the seed.
    ROUND = (
        ("eulerian", 46, "plain", 1), ("eulerian", 46, "quadratic", 1),
        ("eulerian", 46, "square", 1), ("palindromic", 46, "plain", 1),
        ("palindromic", 46, "quadratic", 1), ("palindromic", 46, "square", 1),
        ("eulerian", 54, "plain", 1),

        ("palindromic", 38, "plain", 3), ("palindromic", 38, "quadratic", 2),
        ("palindromic", 38, "square", 2),

        ("eulerian", 34, "plain", 1), ("eulerian", 34, "quadratic", 1),
        ("eulerian", 34, "square", 1), ("linear", 54, "plain", 1),
        ("linear", 54, "quadratic", 1), ("linear", 54, "square", 1),

        ("linear", 42, "plain", 4), ("linear", 42, "square", 4),

        ("eulerian", 10, "plain", 1), ("eulerian", 14, "quadratic", 1),
        ("eulerian", 18, "square", 1), ("eulerian", 22, "plain", 1),
        ("narayana2", 58, "plain", 1), ("narayana2", 44, "plain", 1),
        ("narayana2", 46, "quadratic", 1), ("narayana2", 30, "quadratic", 1),
        ("narayana2", 50, "square", 1), ("narayana2", 36, "square", 1),
        ("palindromic", 22, "plain", 1), ("palindromic", 18, "quadratic", 1),
        ("palindromic", 14, "square", 1), ("palindromic", 10, "plain", 1),
        ("linear", 34, "quadratic", 1), ("linear", 30, "square", 1),
        ("linear", 26, "plain", 1), ("linear", 12, "plain", 1),
        ("linear", 20, "quadratic", 1), ("linear", 16, "square", 1),
    )

    @staticmethod
    def request(rng, family: str, degree: int, variant: str) -> Request:
        if variant == "plain":
            # every base polynomial has simple real roots only
            return _analyze_request(_family(rng, family, degree), True, degree)
        base = _family(rng, family, degree - 2)
        if variant == "quadratic":
            return _analyze_request(ref.multiply(base, _irreducible_quadratic(rng)), False, degree - 2)
        return _analyze_request(ref.multiply(base, _new_square(rng, base)), True, degree - 1)

    def requests(self, seed):
        rng = random.Random(seed)
        out = [
            self.request(rng, family, degree, variant)
            for family, degree, variant, count in self.ROUND
            for _ in range(count)
        ]
        rng.shuffle(out)
        return out

    def warmup(self):
        rng = random.Random(0)
        return [self.request(rng, "eulerian", 6, variant) for variant in ("plain", "quadratic", "square")]


# -- verify -------------------------------------------------------------------


def _expected_cases(suite: str, max_cells: int) -> int:
    if suite in ("theorem21", "sulanke"):
        return ref.weight_count(max_cells)
    shapes = sum(ref.partition_count(k) for k in range(1, max_cells + 1))
    return shapes + 1 if suite == "ordergf" else shapes


def _check_verify(suite: str, cases: int):
    def check(result: Result) -> bool:
        lines = result.out.splitlines()
        passes = sum(1 for line in lines if line.startswith(f"{suite} ") and line.endswith(": PASS"))
        return (
            result.code == 0
            and passes == cases
            and not any("FAIL" in line for line in lines)
            and lines[-1] == f"suite {suite}: {cases}/{cases} passed"
        )

    return check


def _verify_request(suite: str, max_cells: int) -> Request:
    argv = ("verify", "--suite", suite, "--max-cells", str(max_cells), "--jobs", "1",
            "--cache", "{own_cache}")
    return Request(argv, _check_verify(suite, _expected_cases(suite, max_cells)))


def _check_usage_error(result: Result) -> bool:
    message = result.err.strip()
    return result.code == 2 and bool(message) and "\n" not in message


CYCLIC_POSET = {"size": 3, "covers": [[1, 2], [2, 3], [3, 1]], "labels": [1, 2, 3]}


def _labeled_ferrers(rng, parts):
    """Ferrers poset of the shape (row-major element ids, covers to the right
    and down) with a seeded labeling."""
    index, covers = {}, []
    for i, row in enumerate(parts):
        for j in range(row):
            index[i, j] = len(index) + 1
    for (i, j), element in index.items():
        for neighbour in ((i, j + 1), (i + 1, j)):
            if neighbour in index:
                covers.append([element, index[neighbour]])
    labels = list(range(1, len(index) + 1))
    rng.shuffle(labels)
    return {"size": len(index), "covers": covers, "labels": labels}


class Verify(Workload):
    """Identity sweeps of all four suites at sizes of 10 ms to 1 s each,
    seeded labeled posets through ``--poset``, and requests on a cyclic
    poset file, whose documented outcome is a usage error."""

    name = "verify"
    # (suite, max cells, requests), in tiers of nearly equal cost, costliest
    # first: the tail percentile (11th costliest of the 40 answered) falls in
    # the middle of the second tier and the median in the middle of the
    # third. The seeded posets and the cyclic requests cost least.
    SWEEPS = (
        ("eq33", 11, 1), ("theorem21", 16, 1), ("sulanke", 16, 2), ("eq33", 10, 2), ("ordergf", 7, 1),
        ("eq33", 9, 4), ("ordergf", 6, 3),
        ("eq33", 8, 6), ("theorem21", 14, 6),
        ("ordergf", 5, 2), ("sulanke", 14, 2), ("sulanke", 12, 2),
    )
    # seeded posets: one shape of each pair per request, 7 cells
    POSET_SHAPES = (((4, 3), (2, 2, 2, 1)), ((3, 2, 2), (3, 3, 1)), ((5, 2), (2, 2, 1, 1, 1)),
                    ((4, 2, 1), (3, 2, 1, 1)))
    CYCLIC = 3

    def files(self, seed):
        rng = random.Random(seed)
        files = {"cyclic.json": json.dumps(CYCLIC_POSET)}
        for k, pair in enumerate(self.POSET_SHAPES * 2):
            files[f"poset{k}.json"] = json.dumps(_labeled_ferrers(rng, rng.choice(pair)))
        return files

    def requests(self, seed):
        rng = random.Random(seed + 1)
        out = [
            _verify_request(suite, max_cells)
            for suite, max_cells, count in self.SWEEPS
            for _ in range(count)
        ]
        for k in range(len(self.POSET_SHAPES) * 2):
            argv = ("verify", "--suite", "ordergf", "--jobs", "1", "--poset", f"{{work}}/poset{k}.json",
                    "--cache", "{own_cache}")
            out.append(Request(argv, _check_verify("ordergf", 1)))
        for _ in range(self.CYCLIC):
            argv = ("verify", "--suite", "ordergf", "--jobs", "1", "--poset", "{work}/cyclic.json",
                    "--cache", "{own_cache}")
            out.append(Request(argv, _check_usage_error, fault=True))
        rng.shuffle(out)
        return out

    def warmup(self):
        return [_verify_request(suite, 4) for suite in ("theorem21", "sulanke", "eq33", "ordergf")]


# -- enumerate ----------------------------------------------------------------


def _check_enumerate(kind: str, parts: tuple[int, ...]):
    """Line count equals the hook length count, every line is a valid object
    of the request, and lines strictly increase in the documented order."""
    count = ref.hook_count(parts)

    def keys(lines):
        if kind == "syt":
            for line in lines:
                rows = tuple(tuple(int(x) for x in row.split(",")) for row in line.split(";"))
                yield ref.tableau_row_word(rows, parts)
            return
        n, m = parts[0], len(parts)
        for line in lines:
            symbols = tuple(int(x) for x in (line.split(",") if m > 9 else line))
            if kind == "words":
                yield symbols if ref.is_lattice(symbols, n, m) else None
            else:
                # paths list in the word order under the step relabeling
                yield tuple(m - s + 1 for s in symbols) if ref.is_ballot(symbols, n, m) else None

    def check(result: Result) -> bool:
        lines = result.out.splitlines()
        if result.code != 0 or len(lines) != count:
            return False
        previous = ()
        for key in keys(lines):
            if key is None or not previous < key:
                return False
            previous = key
        return True

    return check


def _enumerate_request(kind: str, parts: tuple[int, ...]) -> Request:
    if kind == "syt" and len(set(parts)) > 1:
        shape = ("--shape", ",".join(map(str, parts)))
    else:
        shape = ("--n", str(parts[0]), "--m", str(len(parts)))
    return Request(("enumerate", "--kind", kind) + shape, _check_enumerate(kind, parts))


class Enumerate(Workload):
    """Every word, path or tableau of rectangles and non-rectangular shapes
    of about 1k to 24k objects each."""

    name = "enumerate"
    # (kind, (n, m)) for the rectangle of m rows of n, or ("syt", cells,
    # count) for a non-rectangular shape with that many cells and tableaux,
    # in tiers of nearly equal cost, costliest first. The tail percentile
    # (11th costliest of 43) falls in the middle of the second tier and the
    # median in the middle of the fourth. For a slot the seed picks one of
    # the shapes with exactly that count, a shape or its conjugate at least.
    ROUND = (
        ("syt", (4, 4)), ("syt", (10, 2)), ("paths", (4, 4)), ("paths", (2, 10)),
        ("paths", (10, 2)), ("words", (4, 4)), ("words", (2, 10)),

        ("syt", (2, 9)), ("syt", (9, 2)), ("syt", (3, 5)), ("syt", (5, 3)),
        ("words", (10, 2)), ("syt", 12, 5632), ("syt", 12, 5775),

        ("paths", (3, 5)), ("paths", (5, 3)), ("paths", (2, 9)), ("paths", (9, 2)),

        ("words", (2, 9)), ("words", (9, 2)), ("words", (3, 5)), ("words", (5, 3)),
        ("syt", (2, 8)), ("syt", 11, 2310), ("syt", 12, 1925), ("syt", 12, 2112),
        ("syt", 13, 1430),

        ("words", (2, 8)), ("words", (8, 2)), ("paths", (2, 8)), ("paths", (8, 2)),
        ("syt", (8, 2)), ("syt", 11, 990), ("syt", 11, 1155), ("syt", 11, 1320),
        ("syt", 12, 1155), ("syt", 14, 1001), ("syt", 13, 936), ("syt", 11, 1100),
        ("syt", 12, 945), ("syt", 11, 1232), ("syt", 11, 1188), ("syt", 12, 1320),
    )

    def requests(self, seed):
        rng = random.Random(seed)
        out = []
        for kind, *spec in self.ROUND:
            if len(spec) == 1:
                n, m = spec[0]
                parts = (n,) * m
            else:
                cells, count = spec
                parts = rng.choice([
                    parts for parts in ref.partitions(cells)
                    if len(set(parts)) > 1 and ref.hook_count(parts) == count
                ])
            out.append(_enumerate_request(kind, parts))
        rng.shuffle(out)
        return out

    def warmup(self):
        return [
            _enumerate_request("words", (2, 2, 2)),
            _enumerate_request("paths", (2, 2, 2)),
            _enumerate_request("syt", (3, 2)),
        ]


WORKLOADS = {w.name: w for w in (Poly(), Certify(), Verify(), Enumerate())}
