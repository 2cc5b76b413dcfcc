"""Per-layer timing for the traced run, installed from outside the program.

Each layer is one ``narayana`` module. Its chosen public functions are
replaced by timing wrappers under every name a caller looks them up by: the
defining module, every module that imported the name (``narayana.cli``
calls ``narayana_polynomial`` through its own global, and
``narayana.posets`` calls ``syt_descent_polynomial`` the same way), and the
package namespace. The methods of ``PolynomialCache`` are wrapped on the
class. Generators are wrapped so that only the time spent inside ``next``
counts. A stack of open spans gives each wrapped function its self time, the
duration of its calls minus the part covered by wrapped calls they made; a
layer's self time is the sum over its functions.

Every metric is per round of the workload, and 0 where the workload does not
reach the layer.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

# Functions wrapped in each module. Work in a function not listed here is
# counted in the self time of the wrapped function that called it.
WRAPPED = {
    "cli": ("main",),
    "cache": ("narayana_key", "wpoly_key"),
    "combinatorics": (
        "enumerate_lattice_words", "enumerate_ballot_paths", "enumerate_syt",
        "enumerate_partitions", "syt_count_hook",
    ),
    "bijections": (
        "word_to_tableau", "tableau_to_word", "word_to_path", "path_to_word",
        "perm_to_tableau",
    ),
    "generating": (
        "narayana_polynomial", "syt_descent_polynomial", "verify_sulanke_equidistribution",
        "verify_tableau_identity", "rectangular_catalan",
    ),
    "posets": (
        "eulerian_polynomial", "order_polynomial_value", "verify_ferrers_eulerian_identity",
        "verify_order_gf",
    ),
    "polynomials": (
        "is_real_rooted", "square_free_part", "poly_gcd", "sturm_real_root_count",
        "is_log_concave", "is_unimodal", "newton_inequalities_hold",
    ),
}
CACHE_METHODS = ("get_coefficients", "put", "save")
ENUMERATORS = WRAPPED["combinatorics"][:4]
TALLIES = ("narayana_polynomial", "syt_descent_polynomial", "verify_sulanke_equidistribution")
CHECKS = ("is_log_concave", "is_unimodal", "newton_inequalities_hold")
DEGREE_BANDS = (("deg_le16", 0, 16), ("deg17_32", 17, 32), ("deg33_64", 33, 64))


class Tracer:
    """Accumulates inclusive time, self time and counts per wrapped name."""

    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.steps = 0
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self) -> None:
        self._stack.append([time.perf_counter(), 0.0])

    def _leave(self, name: str) -> float:
        end = time.perf_counter()
        start, children = self._stack.pop()
        duration = end - start
        self.inclusive[name] += duration
        self.self_time[name] += duration - children
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def _wrap_function(self, name: str, func):
        observe = getattr(self, f"_observe_{name}", None)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            self._enter()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = self._leave(name)
            if observe is not None:
                observe(args, result, duration)
            return result

        return wrapper

    def _wrap_generator(self, name: str, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            inner = func(*args, **kwargs)
            while True:
                self._enter()
                try:
                    item = next(inner)
                except StopIteration:
                    self._leave(name)
                    return
                except BaseException:
                    self._leave(name)
                    raise
                self._leave(name)
                self.steps += 1
                self.counts[f"{name}.items"] += 1
                yield item

        return wrapper

    def _wrap_method(self, cls, name: str):
        func = getattr(cls, name)
        observe = getattr(self, f"_observe_cache_{name}", None)

        @functools.wraps(func)
        def wrapper(cache, *args, **kwargs):
            self.calls[f"cache.{name}"] += 1
            before = _file_identity(cache.path) if name == "save" else None
            self._enter()
            try:
                result = func(cache, *args, **kwargs)
            finally:
                self._leave(f"cache.{name}")
            if observe is not None:
                observe(cache, result, before)
            return result

        return wrapper

    # -- counters read off arguments and results --------------------------

    def _observe_tally(self, args, result, duration) -> None:
        poly = result.right if hasattr(result, "right") else result.coefficients
        self.counts["generating.words"] += sum(poly)

    _observe_narayana_polynomial = _observe_tally
    _observe_syt_descent_polynomial = _observe_tally
    _observe_verify_sulanke_equidistribution = _observe_tally

    def _observe_eulerian_polynomial(self, args, result, duration) -> None:
        self.counts["posets.extensions"] += sum(result.coefficients)

    def _observe_is_real_rooted(self, args, result, duration) -> None:
        degree = args[0].degree
        for band, low, high in DEGREE_BANDS:
            if low <= degree <= high:
                self.inclusive[f"certify.{band}"] += duration

    def _observe_cache_get_coefficients(self, cache, result, before) -> None:
        self.counts["cache.hits" if result is not None else "cache.misses"] += 1

    def _observe_cache_save(self, cache, result, before) -> None:
        after = _file_identity(cache.path)
        if after is not None and after != before:
            self.counts["cache.saves"] += 1
            self.counts["cache.bytes_written"] += after[2]

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every listed function under every name that refers to it."""
        modules = [
            module for key, module in sys.modules.items()
            if module is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        replacements = {}
        for layer, names in WRAPPED.items():
            module = sys.modules[f"{package.__name__}.{layer}"]
            for name in names:
                func = getattr(module, name)
                if inspect.isgeneratorfunction(func):
                    wrapper = self._wrap_generator(name, func)
                else:
                    wrapper = self._wrap_function(name, func)
                replacements[id(func)] = (func, wrapper)
        for module in modules:
            for attribute, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attribute, hit[1])
        cache_class = sys.modules[f"{package.__name__}.cache"].PolynomialCache
        for name in CACHE_METHODS:
            self._patch(cache_class, name, self._wrap_method(cache_class, name))

    def _patch(self, owner, attribute: str, value) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, value = self._restore.pop()
            setattr(owner, attribute, value)

    # -- report -----------------------------------------------------------

    def overhead_seconds(self) -> float:
        """Time the wrappers added: wrapped calls and generator steps made,
        times the cost of one of each, measured here on empty functions."""
        probe = Tracer()
        trials = 20000

        def nothing():
            return None

        def items():
            yield from range(trials)

        wrapped = probe._wrap_function("probe", nothing)
        start = time.perf_counter()
        for _ in range(trials):
            nothing()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(trials):
            wrapped()
        per_call = max(0.0, time.perf_counter() - start - plain) / trials
        start = time.perf_counter()
        for _ in items():
            pass
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in probe._wrap_generator("probe", items)():
            pass
        per_step = max(0.0, time.perf_counter() - start - plain) / trials
        calls = sum(self.calls.values())
        return calls * per_call + self.steps * per_step

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per round of the workload."""
        inc, own, calls, counts = self.inclusive, self.self_time, self.calls, self.counts

        def ms(seconds: float) -> float:
            return seconds * 1000.0 / rounds

        def per_round(count: float) -> float:
            return count / rounds

        def us_per(seconds: float, count: float) -> float:
            return seconds * 1e6 / count if count else 0.0

        cache_names = [f"cache.{name}" for name in CACHE_METHODS] + list(WRAPPED["cache"])
        enum_s = sum(inc[name] for name in ENUMERATORS)
        objects = sum(counts[f"{name}.items"] for name in ENUMERATORS)
        bijections_s = sum(own[name] for name in WRAPPED["bijections"])
        bijection_calls = sum(calls[name] for name in WRAPPED["bijections"])
        tally_s = sum(inc[name] for name in TALLIES)
        words = counts["generating.words"]
        extensions = counts["posets.extensions"]
        out = {
            "cli.self_ms": (ms(own["main"]), "ms"),
            "cli.requests": (per_round(calls["main"]), "count"),
            "cache.self_ms": (ms(sum(own[name] for name in cache_names)), "ms"),
            "cache.hits": (per_round(counts["cache.hits"]), "count"),
            "cache.misses": (per_round(counts["cache.misses"]), "count"),
            "cache.saves": (per_round(counts["cache.saves"]), "count"),
            "cache.bytes_written": (per_round(counts["cache.bytes_written"]), "B"),
            "combinatorics.enum_ms": (ms(enum_s), "ms"),
            "combinatorics.objects": (per_round(objects), "count"),
            "combinatorics.us_per_object": (us_per(enum_s, objects), "us"),
            "combinatorics.hook_ms": (ms(inc["syt_count_hook"]), "ms"),
            "bijections.self_ms": (ms(bijections_s), "ms"),
            "bijections.calls": (per_round(bijection_calls), "count"),
            "bijections.us_per_call": (us_per(bijections_s, bijection_calls), "us"),
            "generating.tally_ms": (ms(tally_s), "ms"),
            "generating.words": (per_round(words), "count"),
            "generating.us_per_word": (us_per(tally_s, words), "us"),
            "generating.identity_ms": (ms(own["verify_tableau_identity"]), "ms"),
            "posets.eulerian_ms": (ms(inc["eulerian_polynomial"]), "ms"),
            "posets.extensions": (per_round(extensions), "count"),
            "posets.us_per_extension": (us_per(inc["eulerian_polynomial"], extensions), "us"),
            "posets.order_ms": (ms(inc["order_polynomial_value"]), "ms"),
            "posets.order_values": (per_round(calls["order_polynomial_value"]), "count"),
            "posets.identity_ms": (
                ms(own["verify_ferrers_eulerian_identity"] + own["verify_order_gf"]), "ms"
            ),
            "polynomials.certify_ms": (ms(inc["is_real_rooted"]), "ms"),
            "polynomials.square_free_ms": (ms(inc["square_free_part"]), "ms"),
            "polynomials.gcd_ms": (ms(inc["poly_gcd"]), "ms"),
            "polynomials.checks_ms": (ms(sum(inc[name] for name in CHECKS)), "ms"),
            "polynomials.certificates": (per_round(calls["is_real_rooted"]), "count"),
        }
        for band, _, _ in DEGREE_BANDS:
            out[f"polynomials.certify_ms.{band}"] = (ms(inc[f"certify.{band}"]), "ms")
        return out


def _file_identity(path: str):
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return (stat.st_ino, stat.st_mtime_ns, stat.st_size)
