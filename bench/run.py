"""Benchmark of the ``narayana`` command line, run in-process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload poly|certify|verify|enumerate \\
        --seed N --seconds S --trace 0|1

Each request goes through ``narayana.cli.main`` in this process, one at a
time (closed loop, one client, ``--jobs 1``), with stdout and stderr captured
in memory, and its answer is checked against ``reference.py``. A fixed
reference loop owned by this file is timed right before and right after every
request; a request's time divided by the mean of those two samples is its
time in reference units, which cancels the drift of a shared host's speed.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the functions of each module are
wrapped from outside (see ``layers.py``) and the metrics are per layer.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc

import layers
from workloads import WORKLOADS, Result

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SOURCE = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")
SETUPS = 5
SAMPLE_PERIOD = 0.1
TAIL_BEYOND = 10

# The reference loop defines the unit of every ``_ref`` metric: changing it
# changes the unit, and results before and after cannot be compared. Its mix
# follows the program's (a backtracking generator of lattice words, tuples,
# small objects, strings, dicts and big-integer arithmetic) because on a
# shared host such a mix slows down with the program under contention, where
# a loop of one kind of operation drifts apart from it.


class _Box:
    __slots__ = ("word", "size")

    def __init__(self, word: tuple[int, ...], size: int):
        self.word = word
        self.size = size


def _lattice_words(k: int, length: int):
    word = [0] * length
    counts = [0] * (k + 1)
    quota = length // k

    def extend(position: int):
        if position == length:
            yield tuple(word)
            return
        for s in range(1, k + 1):
            if counts[s] < quota and (s == 1 or counts[s - 1] > counts[s]):
                counts[s] += 1
                word[position] = s
                yield from extend(position + 1)
                counts[s] -= 1

    yield from extend(0)


def reference_loop() -> int:
    """Fixed work in the program's mix of interpreter operations."""
    total = 0
    for _ in range(2):
        for word in _lattice_words(3, 9):
            total += sum(1 for a, b in zip(word, word[1:]) if a > b)
            box = _Box(word, len(word))
            total += len("".join(str(s) for s in box.word))
        table: dict[tuple[int, int], int] = {}
        for i in range(300):
            key = (i & 15, i % 3)
            table[key] = table.get(key, 0) + i
        total += len(table)
    big, modulus = 7 ** 400, 5 ** 300
    for i in range(200):
        big = big * 13 + i
        total += (big % modulus) & 1
    return total


def ref_sample() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class InRequestSampler:
    """Samples the reference loop every ``SAMPLE_PERIOD`` seconds while a
    request runs, from a timer signal, so that a long request is compared
    with the host's speed during it and not only at its two ends. The time
    the samples take is kept apart and subtracted from the request.

    The signal handler stays installed for the life of the process, so that
    a tick still pending when a request ends finds a handler that ignores
    it."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.active = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if not self.active:
            return
        start = time.perf_counter()
        self.samples.append(ref_sample())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.samples, self.spent, self.active = [], 0.0, True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.active = False


def call(cli, argv: list[str], sampler: InRequestSampler) -> tuple[float, list[float], Result]:
    """Run one request the way a shell would see it: the exit code, stdout
    and stderr. An exception escaping ``main`` is exit code 1. Returns the
    request's seconds, the reference samples taken during it, and the
    result."""
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), sampler:
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            if isinstance(exc.code, str):
                print(exc.code, file=sys.stderr)
        except Exception:  # an uncaught exception: traceback and exit code 1
            code, escaped = 1, traceback.format_exc()
        elapsed = time.perf_counter() - start - sampler.spent
    return elapsed, list(sampler.samples), Result(code, out.getvalue(), err.getvalue() + (escaped or ""))


def _check(request, result: Result) -> bool:
    """The request's check; an answer it cannot parse is wrong."""
    try:
        return bool(request.check(result))
    except (ValueError, KeyError, TypeError, IndexError):
        return False


class Runner:
    """Runs rounds of one workload's requests and keeps what they measured."""

    def __init__(self, workload, seed: int, work: str):
        self.workload = workload
        self.requests = workload.requests(seed)
        self.work = work
        self.warmups = 0
        self.memory_peak = 0
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.round_wall: list[float] = []
        self.round_work_ref: list[float] = []
        self.latency_ref: list[float] = []
        self.ref_samples: list[float] = []
        self._checked: dict[tuple, bool] = {}
        self.sampler = InRequestSampler()
        for name, text in workload.files(seed).items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as handle:
                handle.write(text)

    def _argv(self, request, cache: str, own_cache: str = "") -> list[str]:
        return [
            arg.replace("{cache}", cache).replace("{own_cache}", own_cache).replace("{work}", self.work)
            for arg in request.argv
        ]

    def _passes(self, index: int, request, result: Result) -> bool:
        # rounds repeat the same requests: an answer identical to one already
        # checked is not checked again
        digest = hashlib.sha1(f"{result.code}\0{result.out}\0{result.err}".encode()).digest()
        key = (index, digest)
        if key not in self._checked:
            self._checked[key] = _check(request, result)
        return self._checked[key]

    def warmup(self, cli) -> None:
        self.warmups += 1
        cache = os.path.join(self.work, f"warmup-{self.warmups}.json")
        for index, request in enumerate(self.workload.warmup()):
            own_cache = os.path.join(self.work, f"warmup-{self.warmups}-{index}.json")
            _, _, result = call(cli, self._argv(request, cache, own_cache), self.sampler)
            if not _check(request, result):
                self.wrong.append(f"warm-up {' '.join(request.argv)}")

    def run_round(self, cli, memory: bool = False) -> None:
        """Run every request once. With ``memory``, each request runs under
        tracemalloc and ``memory_peak`` keeps the largest peak of the bytes
        a request allocated."""
        prefix = os.path.join(self.work, f"round-{self.rounds}")
        wall = work_ref = 0.0
        for index, request in enumerate(self.requests):
            argv = self._argv(request, f"{prefix}.json", f"{prefix}-{index}.json")
            before = ref_sample()
            if memory:
                tracemalloc.start()
            try:
                elapsed, during, result = call(cli, argv, self.sampler)
            finally:
                if memory:
                    self.memory_peak = max(self.memory_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            after = ref_sample()
            samples = [before, *during, after]
            self.ref_samples += samples
            self.attempted += 1
            wall += elapsed
            if self._passes(index, request, result):
                in_ref = elapsed / statistics.fmean(samples)
                work_ref += in_ref
                self.latency_ref.append(in_ref)
            elif request.fault:
                self.failed += 1
            else:
                self.wrong.append(" ".join(argv))
        for name in os.listdir(self.work):
            if name.startswith(os.path.basename(prefix)):
                os.unlink(os.path.join(self.work, name))
        self.rounds += 1
        self.round_wall.append(wall)
        self.round_work_ref.append(work_ref)

    def run_for(self, cli, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            self.run_round(cli)
            if time.perf_counter() - start >= seconds:
                break
        self.ref_ms = statistics.median(self.ref_samples) * 1000

    @property
    def tail_percentile(self) -> int:
        """Highest whole percentile with at least ten requests of one round
        beyond it."""
        answered = sum(1 for request in self.requests if not request.fault)
        return (100 * (answered - TAIL_BEYOND)) // answered


def percentile(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def set_up(runner: Runner):
    """Import the package afresh and serve the warm-up requests. Returns the
    CLI module and the seconds taken."""
    for name in [name for name in sys.modules if name == "narayana" or name.startswith("narayana.")]:
        del sys.modules[name]
    start = time.perf_counter()
    cli = importlib.import_module("narayana.cli")
    runner.warmup(cli)
    return cli, time.perf_counter() - start


def end_to_end(runner: Runner, setup: list[float]) -> dict:
    return {
        "wall_s": (statistics.median(runner.round_wall), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "work_ref": (statistics.median(runner.round_work_ref), "ref"),
        "request_p50_ref": (statistics.median(runner.latency_ref), "ref"),
        "request_tail_ref": (percentile(runner.latency_ref, runner.tail_percentile), "ref"),
    }


def per_layer(runner: Runner, cli, seconds: float) -> dict:
    """One round with each request under tracemalloc for the memory peak,
    then rounds under the layer tracer until ``seconds`` have passed in all,
    at least one. The two are kept apart because tracemalloc slows
    allocation-heavy code several times over, which would distort the layer
    times."""
    start = time.perf_counter()
    runner.run_round(cli, memory=True)
    runner.ref_samples.clear()
    tracer = layers.Tracer()
    tracer.install(sys.modules["narayana"])
    try:
        runner.run_for(cli, seconds - (time.perf_counter() - start))
    finally:
        tracer.uninstall()
    traced_rounds = runner.rounds - 1
    metrics = tracer.metrics(traced_rounds)
    metrics["trace.overhead_s"] = (tracer.overhead_seconds() / traced_rounds, "s")
    metrics["mem.tracemalloc_peak_kb"] = (runner.memory_peak / 1024, "KiB")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SOURCE)
    try:
        package = importlib.import_module("narayana")
    except ImportError as exc:
        print(f"error: cannot import narayana from {SOURCE}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(package.__file__))) != SOURCE:
        print(f"error: narayana was imported from {package.__file__}, not {SOURCE}", file=sys.stderr)
        return 2

    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        runner = Runner(WORKLOADS[args.workload], args.seed, work)
        setup = []
        for _ in range(SETUPS):
            cli, seconds = set_up(runner)
            setup.append(seconds)
        if args.trace:
            metrics = per_layer(runner, cli, args.seconds)
        else:
            runner.run_for(cli, args.seconds)
            metrics = end_to_end(runner, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for wrong in runner.wrong[:10]:
        print(f"wrong answer: {wrong}", file=sys.stderr)
    print(
        f"# {args.workload} seed={args.seed} rounds={runner.rounds} "
        f"requests/round={len(runner.requests)} tail=p{runner.tail_percentile} "
        f"ref_sample_ms={runner.ref_ms:.4f}"
    )
    print(json.dumps({
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
