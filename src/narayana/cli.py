"""Command line interface.

Subcommands: ``poly`` (compute one polynomial with analysis flags),
``enumerate`` (stream words, tableaux, or paths, one per line, written in
blocks of ``ENUMERATE_BLOCK`` lines), ``verify`` (exhaustive
identity sweeps), and ``analyze`` (coefficient diagnostics for arbitrary
input). Every command is deterministic.

Exit codes: 0 success (also when the reader closes stdout early),
1 verification counterexample, 2 usage error, 3 enumeration budget exceeded
(or out of memory).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from itertools import islice

from . import __version__
from .combinatorics import (
    DEFAULT_MAX_CELLS,
    BudgetExceededError,
    Partition,
    _check_budget,
    enumerate_lines,
    enumerate_partitions,
)
from .generating import (
    narayana_polynomial,
    rectangular_catalan,
    verify_sulanke_equidistribution,
    verify_tableau_identity,
)
from .polynomials import IntPolynomial, is_log_concave, is_real_rooted, is_unimodal, newton_inequalities_hold
from .posets import (
    LabeledPoset,
    antichain_poset,
    column_strict_ferrers_poset,
    verify_ferrers_eulerian_identity,
    verify_order_gf,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# suite: default ceiling; every sweep stops at the cell cap DEFAULT_MAX_CELLS
# and enumerates nothing (theorem21: word DP vs closed form, sulanke: word DP
# vs tableau DP, eq33: tableau DP vs closed form, ordergf: strict ideal
# chains vs the Eulerian numerator; each engine is bounded by its own budget
# in the library)
SUITES = {"theorem21": 16, "sulanke": 16, "eq33": 10, "ordergf": 7}

FORMAT_CHOICES = {"poly": ("plain", "json", "csv"), "analyze": ("plain", "json")}

# lines per write of ``enumerate``, which bounds the memory its output holds
ENUMERATE_BLOCK = 4096


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="narayana",
        description="Exact rectangular Narayana polynomials, descent statistics, "
        "and real-rootedness certificates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--config",
        metavar="FILE",
        help="JSON file with defaults for jobs, max_cells, format",
    )
    commands = parser.add_subparsers(dest="command", metavar="command")

    poly = commands.add_parser(
        "poly", help="compute one polynomial with analysis flags"
    )
    poly.add_argument("--n", type=_nonnegative, required=True, help="symbol quota")
    poly.add_argument("--m", type=_nonnegative, required=True, help="alphabet size")
    poly.add_argument(
        "--format", choices=FORMAT_CHOICES["poly"], default=None,
        help="output format (default plain)",
    )
    poly.add_argument("--max-cells", type=_positive, default=None, dest="max_cells")
    _add_cache_flags(poly)

    enum = commands.add_parser("enumerate", help="stream objects one per line")
    enum.add_argument("--kind", choices=("words", "syt", "paths"), required=True)
    enum.add_argument("--n", type=_nonnegative, help="symbol quota, or row length of a syt rectangle")
    enum.add_argument("--m", type=_nonnegative, help="alphabet size, or row count of a syt rectangle")
    enum.add_argument(
        "--shape", help='syt only, instead of --n and --m: row lengths, e.g. "3,2,1"'
    )
    enum.add_argument("--limit", type=_positive, default=None)
    enum.add_argument("--max-cells", type=_positive, default=None, dest="max_cells")

    verify = commands.add_parser(
        "verify", help="run exhaustive identity sweeps; nonzero exit on failure"
    )
    verify.add_argument(
        "--suite", choices=(*SUITES, "all"), required=True
    )
    verify.add_argument(
        "--max-cells",
        type=_positive,
        default=None,
        dest="max_cells",
        help=f"sweep ceiling (at most the cell cap, {DEFAULT_MAX_CELLS})",
    )
    verify.add_argument(
        "--series-terms",
        metavar="N",
        dest="series_terms",
        help="accepted and ignored (ordergf compares every coefficient)",
    )
    verify.add_argument(
        "--jobs", type=_positive, default=None, help="worker processes (default 1)"
    )
    verify.add_argument(
        "--poset",
        metavar="FILE",
        help="JSON poset description; restricts the ordergf suite to that poset",
    )
    _add_cache_flags(verify)

    analyze = commands.add_parser(
        "analyze", help="diagnostics for an arbitrary integer coefficient list"
    )
    analyze.add_argument(
        "--coeffs", required=True, help='coefficients low to high, e.g. "1,3,1"'
    )
    analyze.add_argument(
        "--format", choices=FORMAT_CHOICES["analyze"], default=None,
        help="output format (default plain)",
    )

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call. Parsing leaves a
    parser unchanged and returns a fresh namespace, and the config is applied
    to that namespace per call, so one parser serves every request of the
    process."""
    return build_parser()


def _add_cache_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--cache", metavar="PATH", help="accepted and ignored (no command keeps a cache)"
    )
    subparser.add_argument("--no-cache", action="store_true", help="accepted and ignored")


def _read_config(parser: argparse.ArgumentParser, path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        parser.error(f"config {path} must hold a JSON object")
    return data


def _apply_config(parser: argparse.ArgumentParser, args) -> None:
    """Fill the settings the command line left unset.

    Explicit flags win over config values, which win over built-in
    defaults. A config value goes through the same validator as its flag,
    and a bad file or value is a usage error.
    """
    config = _read_config(parser, args.config) if args.config else {}

    def setting(key: str, check, default):
        if key not in config:
            return default
        value = config[key]
        try:
            return check(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError) as exc:
            parser.error(f"config {args.config}: invalid {key} {value!r}: {exc}")

    def choice(value):
        choices = FORMAT_CHOICES[args.command]
        if value not in choices:
            raise ValueError(f"choose from {', '.join(choices)}")
        return value

    if hasattr(args, "max_cells") and args.max_cells is None:
        args.max_cells = setting("max_cells", lambda v: _positive(str(v)), None)
    if hasattr(args, "jobs") and args.jobs is None:
        args.jobs = setting("jobs", lambda v: _positive(str(v)), 1)
    if hasattr(args, "series_terms") and (
        args.series_terms is not None or "series_terms" in config
    ):
        print("note: series terms are ignored; ordergf compares every coefficient", file=sys.stderr)
    if hasattr(args, "format") and args.format is None:
        args.format = setting("format", choice, "plain")


def _analysis_flags(poly: IntPolynomial) -> dict:
    return {
        "real_rooted": bool(is_real_rooted(poly)),
        "log_concave": is_log_concave(poly),
        "unimodal": is_unimodal(poly),
    }


def cmd_poly(args) -> int:
    # poly's one cap, on the degree certified; before the rectangle is built
    _check_budget(args.n * args.m, args.max_cells)
    poly = narayana_polynomial(args.n, args.m)
    flags = _analysis_flags(poly)
    if args.format == "plain":
        print(" ".join(str(c) for c in poly.coefficients))
    elif args.format == "csv":
        print("exponent,coefficient")
        for exponent, coefficient in enumerate(poly.coefficients):
            print(f"{exponent},{coefficient}")
    else:
        payload = {
            "n": args.n,
            "m": args.m,
            "coefficients": [str(c) for c in poly.coefficients],
            "degree": poly.degree,
            "catalan": str(rectangular_catalan(args.n, args.m)),
            **flags,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def cmd_enumerate(args) -> int:
    if args.kind in ("words", "paths"):
        if args.shape is not None:
            return _usage_error(f"--kind {args.kind} takes --n and --m, not --shape")
        if args.n is None or args.m is None:
            return _usage_error(f"--kind {args.kind} needs --n and --m")
        # the cap before the quotas, which hold m entries
        _check_budget(args.n * args.m, args.max_cells)
        quotas = (args.n,) * args.m
    else:
        if args.shape is not None and (args.n is not None or args.m is not None):
            return _usage_error("--kind syt takes --shape or --n and --m, not both")
        if args.shape:
            try:
                shape = Partition.from_string(args.shape)
            except ValueError as exc:
                return _usage_error(str(exc))
        elif args.n is not None and args.m is not None:
            _check_budget(args.n * args.m, args.max_cells)
            shape = Partition.rectangle(args.n, args.m)
        else:
            return _usage_error("--kind syt needs --shape or both --n and --m")
        quotas = shape.parts
    lines = islice(enumerate_lines(args.kind, quotas, max_cells=args.max_cells), args.limit)
    while block := list(islice(lines, ENUMERATE_BLOCK)):
        block.append("")
        sys.stdout.write("\n".join(block))
    return EXIT_OK


def _cases(suite: str, cells: int, poset: LabeledPoset | None) -> list[tuple]:
    """The suite's (label, check, arguments) triples, in output order. Each
    check is a module-level library function, so a case pickles by reference."""
    if suite in ("theorem21", "sulanke"):
        check = verify_tableau_identity if suite == "theorem21" else verify_sulanke_equidistribution
        return [(f"n={n} m={m}", check, (n, m))
                for n in range(1, cells + 1) for m in range(1, cells // n + 1)]
    if suite == "ordergf" and poset is not None:
        return [(f"poset p={poset.size}", verify_order_gf, (poset,))]
    shapes = [shape for total in range(1, cells + 1) for shape in enumerate_partitions(total)]
    if suite == "eq33":
        return [(f"shape={shape}", verify_ferrers_eulerian_identity, (shape,)) for shape in shapes]
    cases = [(f"shape={shape}", verify_order_gf, (column_strict_ferrers_poset(shape),))
             for shape in shapes]
    return cases + [("antichain p=3", verify_order_gf, (antichain_poset(3),))]


def _check(case: tuple):
    _, check, arguments = case
    return check(*arguments)


def cmd_verify(args) -> int:
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    poset = None
    if args.poset and "ordergf" not in suites:
        return _usage_error("--poset applies only to --suite ordergf or all")
    if args.poset:
        try:
            with open(args.poset, "r", encoding="utf-8") as handle:
                poset = LabeledPoset.from_json(handle.read())
        except ValueError as exc:
            return _usage_error(f"invalid poset file {args.poset}: {exc}")
    planned = []
    for suite in suites:
        sweeps = suite != "ordergf" or poset is None
        if sweeps and args.max_cells is not None and args.max_cells > DEFAULT_MAX_CELLS:
            print(f"note: suite {suite} sweeps up to {DEFAULT_MAX_CELLS} cells (its cap)",
                  file=sys.stderr)
        cells = min(args.max_cells or SUITES[suite], DEFAULT_MAX_CELLS)
        planned.append((suite, _cases(suite, cells, poset)))
    pooled = args.jobs > 1 and sum(len(each) for _, each in planned) > 1
    first_failure = None
    with ProcessPoolExecutor(args.jobs) if pooled else contextlib.nullcontext() as executor:
        run = functools.partial(executor.map if pooled else map, _check)
        # only a --poset case can exceed a budget (the costliest sweep case,
        # shape 9,5,3,2,1,1,1, takes 5% of the chain budget): it runs before
        # the first line is printed, so a refusal leaves stdout empty, and
        # the output streams suite by suite
        kept = {}
        if poset is not None:
            kept["ordergf"] = list(run(dict(planned)["ordergf"]))
        for suite, each in planned:
            suite_reports = kept[suite] if suite in kept else list(run(each))
            for (label, _, _), report in zip(each, suite_reports):
                print(f"{suite} {label}: " + ("PASS" if report else f"FAIL ({report.detail()})"))
                if not report and first_failure is None:
                    first_failure = f"{suite} {label}: {report.detail()}"
            print(f"suite {suite}: {sum(map(bool, suite_reports))}/{len(each)} passed", flush=True)
    if first_failure is not None:
        print(f"first counterexample: {first_failure}")
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def cmd_analyze(args) -> int:
    try:
        coefficients = [int(chunk.strip()) for chunk in args.coeffs.split(",")]
    except ValueError:
        return _usage_error(f"cannot parse coefficient list {args.coeffs!r}")
    poly = IntPolynomial(coefficients)
    if poly.is_zero:
        return _usage_error("the zero polynomial is not analyzable")
    certificate = is_real_rooted(poly)
    results = {
        "degree": poly.degree,
        "real_rooted": certificate.real_rooted,
        "distinct_real_roots": certificate.distinct_real_roots,
        "log_concave": is_log_concave(poly),
        "unimodal": is_unimodal(poly),
        "newton": newton_inequalities_hold(poly),
    }
    if args.format == "json":
        print(json.dumps(results, indent=2, sort_keys=True))
    else:
        for name, value in results.items():
            rendered = str(value).lower() if isinstance(value, bool) else value
            print(f"{name}={rendered}")
    return EXIT_OK


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = _shared_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    _apply_config(parser, args)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return globals()[f"cmd_{args.command}"](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError:
        # the reader closed the pipe (``| head``): the end of output, not an error
        return EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    """The console script. When the reader has closed stdout, what is left in
    its buffer can never be written: stdout is then pointed at os.devnull, so
    that the flush at interpreter exit neither fails nor reports."""
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)
