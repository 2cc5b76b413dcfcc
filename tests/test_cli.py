import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import narayana
from narayana import cli, combinatorics, posets
from narayana.cli import ENUMERATE_BLOCK, SUITES, main
from narayana.combinatorics import Partition, _line_blocks
from narayana.generating import IdentityReport
from narayana.polynomials import IntPolynomial
from narayana.posets import LabeledPoset, antichain_poset, chain_poset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoly:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "3", "--m", "2", "--no-cache")
        assert code == 0
        assert out.strip() == "1 3 1"

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "1", "--m", "5", "--no-cache")
        assert code == 0
        assert out.strip() == "1"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "poly", "--n", "4", "--m", "3", "--format", "json", "--no-cache"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"] == ["1", "22", "113", "190", "113", "22", "1"]
        assert payload["catalan"] == "462"
        assert payload["real_rooted"] is True
        assert payload["log_concave"] is True
        assert payload["unimodal"] is True

    def test_json_round_trip_is_idempotent(self, capsys):
        _, out, _ = run(
            capsys, "poly", "--n", "3", "--m", "2", "--format", "json", "--no-cache"
        )
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) == out.strip()

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "poly", "--n", "3", "--m", "2", "--format", "csv", "--no-cache"
        )
        assert code == 0
        assert out.splitlines() == ["exponent,coefficient", "0,1", "1,3", "2,1"]

    def test_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "poly", "--n", "23", "--m", "1", "--no-cache")
        assert code == 3
        assert "cap" in err

    def test_max_cells_override(self, capsys):
        code, out, _ = run(
            capsys, "poly", "--n", "23", "--m", "1", "--max-cells", "23", "--no-cache"
        )
        assert code == 0
        assert out.strip() == "1"

    def test_above_the_default_budget(self, capsys):
        code, out, _ = run(
            capsys,
            "poly", "--n", "8", "--m", "4", "--max-cells", "32", "--no-cache",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["degree"] == 21
        assert sum(int(c) for c in payload["coefficients"]) == int(payload["catalan"])
        assert payload["real_rooted"] is True

    @pytest.mark.parametrize("m", ["3000000", "1000000000000"])
    def test_oversized_rectangle_hits_the_cap_at_once(self, capsys, m):
        code, out, err = run(capsys, "poly", "--n", "1", "--m", m, "--no-cache")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_out_of_memory_is_a_budget_error(self, capsys, monkeypatch):
        def exhausted(n, m):
            raise MemoryError

        monkeypatch.setattr("narayana.cli.narayana_polynomial", exhausted)
        code, out, err = run(capsys, "poly", "--n", "1", "--m", "1", "--no-cache")
        assert code == 3
        assert out == ""
        assert err == "error: out of memory\n"

    def test_degree_81_certifies(self, capsys):
        code, out, _ = run(
            capsys,
            "poly", "--n", "10", "--m", "10", "--max-cells", "100",
            "--format", "json", "--no-cache",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["degree"] == 81
        assert payload["real_rooted"] is True


# the stdout of ``poly --n 4 --m 2`` in each format
POLY_4_2 = {
    "plain": "1 6 6 1\n",
    "json": '{\n  "catalan": "14",\n  "coefficients": [\n    "1",\n    "6",\n    "6",\n'
    '    "1"\n  ],\n  "degree": 3,\n  "log_concave": true,\n  "m": 2,\n  "n": 4,\n'
    '  "real_rooted": true,\n  "unimodal": true\n}\n',
    "csv": "exponent,coefficient\n0,1\n1,6\n2,6\n3,1\n",
}
# flags, environment, config: each way to name a cache file, all ignored
CACHE_SETTINGS = {
    "no flag": ([], {}, None),
    "--cache F": (["--cache", "F.json"], {}, None),
    "--no-cache": (["--no-cache"], {}, None),
    "NARAYANA_CACHE=F": ([], {"NARAYANA_CACHE": "F.json"}, None),
    "config cache F": ([], {}, {"cache": "F.json"}),
}


@pytest.mark.parametrize("setting", CACHE_SETTINGS.values(), ids=CACHE_SETTINGS.keys())
def test_poly_ignores_cache_settings_and_writes_no_file(capsys, tmp_path, monkeypatch, setting):
    flags, environment, config = setting
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NARAYANA_CACHE", raising=False)
    for key, value in environment.items():
        monkeypatch.setenv(key, value)
    prefix = []
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        prefix = ["--config", "config.json"]
    for fmt, expected in POLY_4_2.items():
        argv = [*prefix, "poly", "--n", "4", "--m", "2", "--format", fmt, *flags]
        assert run(capsys, *argv) == (0, expected, ""), fmt
        assert os.listdir(tmp_path) == ([] if config is None else ["config.json"]), fmt


# sha256 of the stdout of ``enumerate``; the two --limit runs end just at
# and just past the first block boundary
ENUMERATE_DIGESTS = {
    "--kind words --n 4 --m 4": "91be637a5d8bf61445f862463a9e3d6003014a29ebcf029faa86842ba78549e4",
    "--kind paths --n 4 --m 4": "17fd8a8f43e3b10023f5ed5612bbb473c88cbf87f24c3c5cb0c107edf329ace7",
    "--kind syt --n 4 --m 4": "92ce014becc74261fb9656090522c324de7615565678a736f5e364e9134ced33",
    "--kind words --n 2 --m 10": "7358663bfa42c2a87784f388ca72330e161d3156c1731bc7a6b15c38b85352ba",
    "--kind syt --shape 5,4,3,1 --limit 4096":
        "3f032d47638cc43964b79c3810c942944a113e76cc297f020e52c73a305d0112",
    "--kind syt --shape 5,4,3,1 --limit 4097":
        "9c8dc55a79368fe49895e3ddbf035cfed8e9271fe04a6f23a6d68ec7ead022af",
    # the comma form of words and paths, two-digit tableau rows, and a
    # request short enough that its one prefix is empty
    "--kind paths --n 2 --m 10": "b135b9cf16ed8f76c11ef8f937b8c3cc54d0cda63d94698aa7df1c5f22dd8123",
    "--kind syt --n 2 --m 10": "a82c1fd7e0180d1c336cde1b96c2a149a7a9de28fe1f793a39a68e864bc129ab",
    "--kind paths --n 3 --m 2": "ad937adf7a861f58c939adedcd2d7ac03b03864cbf8d33946bab2d096ee50c4b",
    "--kind words --n 1 --m 12": "9281791c16c9fdadc26b2d524d2db70375000750f2334e050c47a6c25c5198b2",
}


# requests of the block writer tests, with the (kind, quotas) of their blocks:
# words in digit form, paths in comma form and a tableau shape that is not a
# rectangle, each of more than two writes
BLOCK_WRITER_REQUESTS = {
    "--kind words --n 4 --m 4": ("words", (4,) * 4),
    "--kind paths --n 2 --m 10": ("paths", (2,) * 10),
    "--kind syt --shape 5,4,3,1": ("syt", (5, 4, 3, 1)),
}


def _writes(argv):
    """The strings that ``enumerate`` with these arguments writes to stdout."""
    writes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
        assert main(["enumerate", *argv]) == 0
    return writes


def _a_cut_inside_a_table(kind, quotas, after):
    """A line count of at least ``after`` that ends strictly inside a
    completion table and not at a write boundary."""
    done = 0
    for _, templates in _line_blocks(kind, quotas):
        cut = done + len(templates) // 2
        if done >= after and len(templates) > 2 and cut % ENUMERATE_BLOCK:
            return cut
        done += len(templates)
    raise AssertionError(f"no table of more than two lines after line {after}")


class TestEnumerate:
    def test_words(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--kind", "words", "--n", "2", "--m", "2")
        assert code == 0
        assert out.splitlines() == ["1122", "1212"]

    def test_single_column_tableau(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--kind", "syt", "--shape", "1,1,1")
        assert code == 0
        assert out.splitlines() == ["1;2;3"]

    def test_unique_word(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--kind", "words", "--n", "1", "--m", "4")
        assert code == 0
        assert out.splitlines() == ["1234"]

    def test_rectangle_shape_from_n_m(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--kind", "syt", "--n", "2", "--m", "2")
        assert code == 0
        assert out.splitlines() == ["1,2;3,4", "1,3;2,4"]

    def test_paths(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--kind", "paths", "--n", "1", "--m", "3")
        assert code == 0
        assert out.splitlines() == ["321"]

    def test_limit(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--kind", "words", "--n", "3", "--m", "2", "--limit", "2"
        )
        assert code == 0
        assert out.splitlines() == ["111222", "112122"]

    def test_missing_arguments(self, capsys):
        code, _, err = run(capsys, "enumerate", "--kind", "words", "--n", "2")
        assert code == 2
        assert "needs" in err

    @pytest.mark.parametrize("kind", ["words", "paths", "syt"])
    def test_oversized_rectangle_hits_the_cap(self, capsys, kind):
        code, out, err = run(
            capsys, "enumerate", "--kind", kind, "--n", "1", "--m", "1000000000000"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_shape(self, capsys):
        code, _, err = run(capsys, "enumerate", "--kind", "syt", "--shape", "2,x")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("--kind", "words", "--n", "2", "--m", "2", "--shape", "3,1"),
            ("--kind", "paths", "--n", "2", "--m", "2", "--shape", "3,1"),
            ("--kind", "syt", "--n", "2", "--m", "2", "--shape", "3,1"),
            ("--kind", "syt", "--m", "2", "--shape", "3,1"),
        ],
        ids=["words", "paths", "syt", "syt-m-only"],
    )
    def test_conflicting_flags_are_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "enumerate", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", ENUMERATE_DIGESTS)
    def test_output_bytes_are_pinned(self, capsys, argv):
        code, out, err = run(capsys, "enumerate", *argv.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_DIGESTS[argv]

    def test_output_is_written_in_bounded_blocks(self, monkeypatch):
        writes = []
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
        argv = ["--kind", "syt", "--shape", "5,4,3,1", "--limit", str(2 * ENUMERATE_BLOCK + 1)]
        assert main(["enumerate", *argv]) == 0
        assert [block.count("\n") for block in writes] == [ENUMERATE_BLOCK, ENUMERATE_BLOCK, 1]
        assert all(block.endswith("\n") for block in writes)

    @pytest.mark.parametrize("where", ["first write", "inside a table", "write boundary", "second write boundary"])
    @pytest.mark.parametrize("argv", BLOCK_WRITER_REQUESTS)
    def test_a_limit_writes_the_first_lines_of_the_full_run(self, argv, where):
        kind, quotas = BLOCK_WRITER_REQUESTS[argv]
        limit = {
            "first write": 100,
            "inside a table": _a_cut_inside_a_table(kind, quotas, after=ENUMERATE_BLOCK + 1),
            "write boundary": ENUMERATE_BLOCK,
            "second write boundary": 2 * ENUMERATE_BLOCK,
        }[where]
        full = _writes(argv.split())
        writes = _writes([*argv.split(), "--limit", str(limit)])
        assert "".join(writes) == "".join("".join(full).splitlines(keepends=True)[:limit])
        # every write but the last holds exactly ENUMERATE_BLOCK whole lines
        for each in (full, writes):
            counts = [block.count("\n") for block in each]
            assert counts[:-1] == [ENUMERATE_BLOCK] * (len(counts) - 1)
            assert 0 < counts[-1] <= ENUMERATE_BLOCK and all(block.endswith("\n") for block in each)
        assert sum(counts) == limit

    def test_limit_1_builds_only_the_tables_of_the_first_block(self, monkeypatch):
        built = set()
        completions = combinatorics._completions

        def spy(counts, caps, tables):
            table = completions(counts, caps, tables)
            built.update(tables)
            return table

        monkeypatch.setattr(combinatorics, "_completions", spy)
        for argv, (kind, quotas) in BLOCK_WRITER_REQUESTS.items():
            built.clear()
            next(_line_blocks(kind, quotas))
            first = set(built)
            built.clear()
            assert len(_writes([*argv.split(), "--limit", "1"])) == 1
            assert built == first and first, argv


class TestVerify:
    def test_sulanke_small_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "sulanke", "--max-cells", "4")
        assert code == 0
        lines = out.splitlines()
        cases = [line for line in lines if line.startswith("sulanke ")]
        assert len(cases) == 8
        assert all(line.endswith("PASS") for line in cases)
        assert "suite sulanke: 8/8 passed" in lines

    def test_theorem21_small_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "theorem21", "--max-cells", "6")
        assert code == 0
        assert "suite theorem21: 14/14 passed" in out

    @pytest.mark.parametrize("suite", ["theorem21", "sulanke"])
    def test_word_suites_reach_their_cap(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-cells", "22")
        assert code == 0
        assert sum(line.endswith(": PASS") for line in out.splitlines()) == 74
        assert f"suite {suite}: 74/74 passed" in out
        assert err == ""

    def test_all_suites(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "all", "--max-cells", "4", "--no-cache"
        )
        assert code == 0
        for suite in ("theorem21", "sulanke", "eq33", "ordergf"):
            assert f"suite {suite}:" in out

    @pytest.mark.parametrize(
        "series_terms", [[], ["--series-terms", "11"]], ids=["plain", "ignored"]
    )
    def test_all_suites_stream_suite_by_suite(self, monkeypatch, series_terms):
        # the stdout that each suite's first case sees: theorem21 is printed
        # before sulanke runs, and eq33 before ordergf runs, since no sweep
        # case can exceed a budget
        seen = {}

        def spy(name, check):
            def first_call_sees_stdout(*arguments):
                seen.setdefault(name, sys.stdout.getvalue())
                return check(*arguments)
            monkeypatch.setattr(f"narayana.cli.{check.__name__}", first_call_sees_stdout)

        spy("sulanke", cli.verify_sulanke_equidistribution)
        spy("ordergf", cli.verify_order_gf)
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        argv = ["verify", "--suite", "all", "--max-cells", "4", *series_terms]
        assert main(argv) == 0
        assert seen["sulanke"].endswith("suite theorem21: 8/8 passed\n")
        assert seen["ordergf"].endswith("suite eq33: 11/11 passed\n")

    @staticmethod
    def _record_sweeps(monkeypatch) -> list:
        """Replace each suite's cases by none, recording (suite, cells)."""
        sweeps = []

        def record(suite, cells, poset):
            sweeps.append((suite, cells))
            return []

        monkeypatch.setattr("narayana.cli._cases", record)
        return sweeps

    def test_clamped_ceiling_is_noted_on_stderr_only(self, capsys, monkeypatch):
        # every suite sweeps up to the cell cap, and only a ceiling above it is noted
        sweeps = self._record_sweeps(monkeypatch)
        code, out, err = run(capsys, "verify", "--suite", "all", "--max-cells", "23")
        assert code == 0
        assert sweeps == [(suite, 22) for suite in SUITES]
        assert out.splitlines() == [f"suite {suite}: 0/0 passed" for suite in SUITES]
        assert err.splitlines() == [
            f"note: suite {suite} sweeps up to 22 cells (its cap)" for suite in SUITES
        ]
        sweeps.clear()
        code, _, err = run(capsys, "verify", "--suite", "all", "--max-cells", "22")
        assert code == 0
        assert sweeps == [(suite, 22) for suite in SUITES]
        assert err == ""

    def test_clamped_config_ceiling_is_noted(self, capsys, tmp_path, monkeypatch):
        sweeps = self._record_sweeps(monkeypatch)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_cells": 23}))
        code, _, err = run(capsys, "--config", str(config), "verify", "--suite", "ordergf")
        assert code == 0
        assert sweeps == [("ordergf", 22)]
        assert err.splitlines() == ["note: suite ordergf sweeps up to 22 cells (its cap)"]

    @pytest.mark.parametrize("cells,cases", [("9", 97), ("10", 139)])
    def test_ordergf_sweeps_past_eight_cells_without_a_note(self, capsys, cells, cases):
        code, out, err = run(capsys, "verify", "--suite", "ordergf", "--max-cells", cells)
        assert code == 0
        assert out.splitlines()[-1] == f"suite ordergf: {cases}/{cases} passed"
        assert err == ""

    @pytest.mark.parametrize(
        "config,flags",
        [(None, ["--series-terms", "2"]), (None, ["--series-terms", "-1"]),
         ('{"series_terms": -1}', []), ('{"series_terms": 100000000}', ["--series-terms", "0"])],
        ids=["flag", "negative-flag", "config", "both"],
    )
    def test_series_terms_are_ignored_with_one_note(self, capsys, tmp_path, config, flags):
        argv = ["verify", "--suite", "ordergf", "--max-cells", "5"]
        _, plain, _ = run(capsys, *argv)
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(config)
            argv = ["--config", str(path), *argv]
        code, out, err = run(capsys, *argv, *flags)
        assert code == 0
        assert out == plain
        assert err == "note: series terms are ignored; ordergf compares every coefficient\n"

    def test_unclamped_ceiling_prints_no_note(self, capsys, tmp_path):
        poset = tmp_path / "poset.json"
        poset.write_text(chain_poset(2).to_json())
        for argv in (
            ("verify", "--suite", "eq33", "--max-cells", "3"),
            ("verify", "--suite", "ordergf", "--max-cells", "20", "--poset", str(poset)),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 0
            assert err == ""

    @pytest.mark.parametrize(
        "argv",
        [("--suite", "eq33", "--max-cells", "5"),
         ("--suite", "eq33", "--max-cells", "8"),
         ("--suite", "theorem21", "--max-cells", "12"),
         ("--suite", "sulanke", "--max-cells", "12"),
         ("--suite", "all", "--max-cells", "6"),
         ("--suite", "ordergf", "--poset", "{poset}")],
        ids=["eq33", "eq33-8", "theorem21-12", "sulanke-12", "all", "ordergf-poset"],
    )
    def test_parallel_jobs_match_serial(self, capsys, tmp_path, argv):
        poset = tmp_path / "poset.json"
        poset.write_text(LabeledPoset(3, ((1, 2), (1, 3)), (2, 1, 3)).to_json())
        argv = ["verify", *(arg.format(poset=poset) for arg in argv), "--no-cache"]
        code, serial, serial_err = run(capsys, *argv)
        assert code == 0
        code, parallel, parallel_err = run(capsys, *argv, "--jobs", "2")
        assert code == 0
        assert (serial, serial_err) == (parallel, parallel_err)

    def test_counterexample_exit_code(self, capsys, monkeypatch):
        def failing(n, m, words):
            return IdentityReport(False, f"fake n={n} m={m}", (1, 2), (1, 3), 1)

        monkeypatch.setattr("narayana.cli.verify_tableau_identity", failing)
        code, out, _ = run(capsys, "verify", "--suite", "theorem21", "--max-cells", "2")
        assert code == 1
        details = {
            pair: f"fake n={pair[0]} m={pair[1]}: index 1 differs, left=2 right=3; "
            "left=[1, 2] right=[1, 3]"
            for pair in ((1, 1), (1, 2), (2, 1))
        }
        assert out.splitlines() == [
            *(f"theorem21 n={n} m={m}: FAIL ({detail})" for (n, m), detail in details.items()),
            "suite theorem21: 0/3 passed",
            f"first counterexample: theorem21 n=1 m=1: {details[(1, 1)]}",
        ]

    def test_step_rule_fault_is_a_counterexample(self, capsys, monkeypatch):
        # a transfer matrix that lets a label inversion share a level counts
        # too many maps on every poset with an inverted cover
        cover_masks = posets._cover_masks

        def ignore_inversions(poset):
            lower, inverted = cover_masks(poset)
            return lower, [0] * len(inverted)

        monkeypatch.setattr("narayana.posets._cover_masks", ignore_inversions)
        code, out, _ = run(capsys, "verify", "--suite", "ordergf", "--max-cells", "4")
        assert code == 1
        lines = out.splitlines()
        failed = [line.split(":")[0] for line in lines if ": FAIL (" in line]
        # a one-row shape and the antichain have no inverted cover
        assert failed == [
            f"ordergf shape={shape}"
            for shape in ("1,1", "2,1", "1,1,1", "3,1", "2,2", "2,1,1", "1,1,1,1")
        ]
        assert lines[-2] == "suite ordergf: 5/12 passed"
        assert lines[-1].startswith("first counterexample: ordergf shape=1,1: ")

    def test_verify_writes_no_cache_file(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        code, _, _ = run(
            capsys,
            "verify", "--suite", "eq33", "--max-cells", "3", "--cache", str(cache),
        )
        assert code == 0
        assert not cache.exists()

    def test_ordergf_accepts_poset_file(self, capsys, tmp_path):
        poset = LabeledPoset(3, ((1, 2), (1, 3)), (2, 1, 3))
        path = tmp_path / "poset.json"
        path.write_text(poset.to_json())
        code, out, _ = run(
            capsys,
            "verify", "--suite", "ordergf", "--poset", str(path), "--no-cache",
        )
        assert code == 0
        assert "poset p=3" in out

    def test_twelve_element_antichain_passes(self, capsys, tmp_path):
        path = tmp_path / "poset.json"
        path.write_text(antichain_poset(12).to_json())
        code, out, err = run(capsys, "verify", "--suite", "ordergf", "--poset", str(path))
        assert code == 0
        assert out.splitlines() == ["ordergf poset p=12: PASS", "suite ordergf: 1/1 passed"]
        assert err == ""

    def _refused_in_time(self, capsys, tmp_path, *argv):
        """Run each over-budget poset file and check the refusal: exit 3
        within 2 s, nothing on stdout, one error line."""
        for poset in (antichain_poset(14), chain_poset(1000)):
            path = tmp_path / "poset.json"
            path.write_text(poset.to_json())
            start = time.perf_counter()
            code, out, err = run(capsys, "verify", *argv, "--poset", str(path))
            assert time.perf_counter() - start < 2, poset.size
            assert code == 3
            assert out == ""
            assert err == (
                f"error: counting ideal chains takes more than {posets.DEFAULT_MAX_CHAIN_WORK} "
                "units of work, the chain budget\n"
            )

    def test_oversized_poset_file_hits_the_cap_at_once(self, capsys, tmp_path, monkeypatch):
        def enumerated(*_):
            raise AssertionError("the Eulerian DP ran past the chain budget")

        monkeypatch.setattr("narayana.posets.eulerian_polynomial", enumerated)
        self._refused_in_time(capsys, tmp_path, "--suite", "ordergf")

    def test_oversized_poset_file_stops_all_suites_before_any_runs(self, capsys, tmp_path):
        self._refused_in_time(capsys, tmp_path, "--suite", "all")

    def test_eq33_checks_every_w_read_off_the_sweep(self, capsys, monkeypatch):
        # a read-off that names each ideal by its conjugate shape hands every
        # case the W of the conjugate, which the closed form must refuse
        read_off = posets._ideal_shape
        monkeypatch.setattr(posets, "_ideal_shape", lambda *args: read_off(*args).conjugate())
        code, out, _ = run(capsys, "verify", "--suite", "eq33", "--max-cells", "6")
        assert code == 1
        lines = out.splitlines()
        # only the 5 self-conjugate shapes of at most 6 cells pass
        assert sum(": FAIL (" in line for line in lines) == 24
        assert "eq33 shape=2,2: PASS" in lines
        assert "suite eq33: 5/29 passed" in lines
        assert lines[-1].startswith("first counterexample: eq33 shape=2: ")

    @pytest.mark.parametrize(
        "suite, misread",
        [("theorem21", lambda n, m: (n - 1, m)),
         ("sulanke", lambda n, m: (n - 1, m)),
         ("sulanke", lambda n, m: (m, n))],
        ids=["theorem21-narrower", "sulanke-narrower", "sulanke-transposed"],
    )
    def test_word_suites_check_every_w_read_off_the_sweep(self, capsys, monkeypatch, suite, misread):
        # a read-off that hands the m-by-n case the W of the m-by-(n - 1)
        # rectangle, or of the n-by-m one, is refused by the other side. The
        # n-by-m rectangle's W is no fault for theorem21: W is the same for
        # every natural labeling, and the transposed row-major labels are one
        # (sulanke's column-strict side tells the two apart)
        sweep = posets.rectangle_eulerian_sweep

        def misread_sweep(cells, column_strict=False):
            swept = {Partition(()): IntPolynomial([1]), **dict(sweep(cells, column_strict))}
            for shape in [shape for shape in swept if shape.cells]:
                yield shape, swept[Partition.rectangle(*misread(shape.parts[0], shape.rows))]

        monkeypatch.setattr(cli, "rectangle_eulerian_sweep", misread_sweep)
        code, out, _ = run(capsys, "verify", "--suite", suite, "--max-cells", "8")
        assert code == 1
        lines = out.splitlines()
        assert any(line.startswith(f"{suite} n=") and ": FAIL (" in line for line in lines)
        assert f"suite {suite}: 20/20 passed" not in lines
        assert lines[-1].startswith(f"first counterexample: {suite} n=")

    def test_eq33_sweeps_past_the_extension_cap(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "eq33", "--max-cells", "14")
        assert code == 0
        lines = out.splitlines()
        assert sum(line.endswith(": PASS") for line in lines) == 507
        assert lines[-1] == "suite eq33: 507/507 passed"
        assert err == ""

    @pytest.mark.parametrize(
        "content",
        [json.dumps({"size": 3, "covers": [[1, 2], [2, 3], [3, 1]], "labels": [1, 2, 3]}),
         "not json at all",
         json.dumps({"size": 1000000000000, "covers": [], "labels": [1]})],
        ids=["cyclic", "not-json", "huge-size"],
    )
    @pytest.mark.parametrize("suite", ["ordergf", "all"])
    def test_bad_poset_file_is_a_usage_error(self, capsys, tmp_path, content, suite):
        path = tmp_path / "poset.json"
        path.write_text(content)
        code, out, err = run(
            capsys, "verify", "--suite", suite, "--max-cells", "2", "--poset", str(path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "bad,good",
        [({"size": True, "covers": [], "labels": [1.9]},
          {"size": 1, "covers": [], "labels": [1]}),
         ({"size": 2, "covers": [], "labels": ["1", "2"]},
          {"size": 2, "covers": [], "labels": [1, 2]}),
         ({"size": 2, "covers": [], "labels": "12"},
          {"size": 2, "covers": [], "labels": [1, 2]}),
         ({"size": 2, "covers": [[1.5, 2]], "labels": [1, 2]},
          {"size": 2, "covers": [[1, 2]], "labels": [1, 2]}),
         ({"size": 2, "covers": [[True, 2]], "labels": [1, 2]},
          {"size": 2, "covers": [[1, 2]], "labels": [1, 2]}),
         ({"size": 2.0, "covers": [], "labels": [2, 1]},
          {"size": 2, "covers": [], "labels": [2, 1]})],
        ids=["bool-size-float-label", "string-labels", "label-string", "float-cover",
             "bool-cover", "float-size"],
    )
    def test_poset_file_takes_only_json_integers(self, capsys, tmp_path, bad, good):
        path = tmp_path / "poset.json"
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "verify", "--suite", "ordergf", "--poset", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: invalid poset file {path}: ") and err.count("\n") == 1
        path.write_text(json.dumps(good))
        code, out, err = run(capsys, "verify", "--suite", "ordergf", "--poset", str(path))
        assert code == 0
        assert out.startswith(f"ordergf poset p={good['size']}: PASS\n")
        assert err == ""

    @pytest.mark.parametrize("suite", ["theorem21", "sulanke", "eq33"])
    def test_poset_outside_ordergf_is_a_usage_error(self, capsys, tmp_path, suite):
        code, out, err = run(
            capsys, "verify", "--suite", suite, "--poset", str(tmp_path / "nope.json"),
        )
        assert code == 2
        assert out == ""
        assert err == "error: --poset applies only to --suite ordergf or all\n"

    def test_missing_poset_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "verify", "--suite", "ordergf", "--poset", str(tmp_path / "nope.json"),
            "--no-cache",
        )
        assert code == 2


class TestAnalyze:
    def test_real_rooted(self, capsys):
        code, out, _ = run(capsys, "analyze", "--coeffs", "1,3,1")
        assert code == 0
        assert "real_rooted=true" in out.splitlines()
        assert "distinct_real_roots=2" in out.splitlines()
        assert "newton=true" in out.splitlines()

    def test_not_real_rooted(self, capsys):
        code, out, _ = run(capsys, "analyze", "--coeffs", "1,1,1")
        assert code == 0
        assert "real_rooted=false" in out.splitlines()

    def test_constant(self, capsys):
        code, out, _ = run(capsys, "analyze", "--coeffs", "5")
        assert code == 0
        assert "real_rooted=true" in out.splitlines()

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "analyze", "--coeffs", "1,3,1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["real_rooted"] is True
        assert json.dumps(payload, indent=2, sort_keys=True) == out.strip()

    def test_library_warnings_take_one_line_each(self, capsys):
        code, out, err = run(capsys, "analyze", "--coeffs", "1,0,-2,0,1")
        assert code == 0
        assert "unimodal=false" in out.splitlines()
        suffix = ": negative coefficients present, so this check does not connect to real-rootedness"
        assert err.splitlines() == [
            f"warning: {check}{suffix}"
            for check in ("is_log_concave", "is_unimodal", "newton_inequalities_hold")
        ]

    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, "analyze", "--coeffs", "1,a,3")
        assert code == 2
        assert "cannot parse" in err

    def test_zero_polynomial_rejected(self, capsys):
        code, _, err = run(capsys, "analyze", "--coeffs", "0,0")
        assert code == 2


POLY = ["poly", "--n", "1", "--m", "1", "--no-cache"]
VERIFY = ["verify", "--suite", "ordergf", "--no-cache"]


class TestConfigAndUsage:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "bogus"])
        assert excinfo.value.code == 2

    def test_no_command_prints_usage(self, capsys):
        code, _, err = run(capsys)
        assert code == 2

    def test_config_file_sets_defaults(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_cells": 23}))
        code, out, _ = run(
            capsys,
            "--config", str(config), "poly", "--n", "23", "--m", "1", "--no-cache",
        )
        assert code == 0
        assert out.strip() == "1"

    def test_unreadable_config_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--config", str(tmp_path / "nope.json"), "poly", "--n", "1", "--m", "1"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "config, argv",
        [
            ("not json", POLY),
            ("[1, 2]", POLY),
            ('{"max_cells": -1}', VERIFY),
            ('{"max_cells": 2.5}', POLY),
            ('{"jobs": 0}', VERIFY),
            ('{"jobs": "two"}', VERIFY),
            ('{"format": "xml"}', POLY),
            ('{"format": "csv"}', ["analyze", "--coeffs", "1,1"]),
        ],
    )
    def test_bad_config_is_a_usage_error(self, capsys, tmp_path, config, argv):
        path = tmp_path / "config.json"
        path.write_text(config)
        with pytest.raises(SystemExit) as excinfo:
            main(["--config", str(path), *argv])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"config {path}" in err


# each sequence runs in one process through the shared parser; every step is
# then run again in a fresh process: argv, and the environment it adds.
# Neither process writes a file.
SEQUENCES = {
    "usage error, then a valid request": [
        (["poly", "--n", "-1", "--m", "2"], {}),
        (["poly", "--n", "3", "--m", "2", "--no-cache"], {}),
    ],
    "config, then none": [
        (["--config", "config.json", "poly", "--n", "3", "--m", "2"], {}),
        (["poly", "--n", "3", "--m", "2"], {}),
    ],
    "environment cache, then none": [
        (["poly", "--n", "4", "--m", "2", "--format", "json"], {"NARAYANA_CACHE": "from-env.json"}),
        (["poly", "--n", "4", "--m", "2", "--format", "json"], {}),
    ],
    "--no-cache after --cache": [
        (["poly", "--n", "3", "--m", "2", "--cache", "c.json"], {}),
        (["poly", "--n", "4", "--m", "3", "--no-cache"], {}),
    ],
}
CONFIG = {"format": "csv", "cache": "from-config.json"}
# the directory the package is imported from, for the fresh processes
SOURCE = str(Path(narayana.__file__).parents[1])


def _fresh(argv: list[str], extra: dict, cwd: Path) -> tuple[int, str, str]:
    env = {key: value for key, value in os.environ.items() if key != "NARAYANA_CACHE"}
    env.update(extra, COLUMNS="80", PYTHONPATH=SOURCE)
    done = subprocess.run(
        [sys.executable, "-m", "narayana", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


class TestSharedParser:
    @pytest.mark.parametrize("steps", SEQUENCES.values(), ids=SEQUENCES.keys())
    def test_requests_in_one_process_match_fresh_processes(
        self, capsys, tmp_path, monkeypatch, steps
    ):
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        for directory in (shared, fresh):
            directory.mkdir()
            (directory / "config.json").write_text(json.dumps(CONFIG))
        monkeypatch.chdir(shared)
        monkeypatch.setenv("COLUMNS", "80")
        for argv, extra in steps:
            monkeypatch.delenv("NARAYANA_CACHE", raising=False)
            for key, value in extra.items():
                monkeypatch.setenv(key, value)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert (code, out, err) == _fresh(argv, extra, fresh), argv
            assert os.listdir(shared) == os.listdir(fresh) == ["config.json"], argv


def test_commands_are_looked_up_when_called(capsys, monkeypatch):
    # the parser is shared by every call, so it must not hold the commands
    code, out, _ = run(capsys, "analyze", "--coeffs", "1,2,1")
    assert code == 0 and out
    monkeypatch.setattr("narayana.cli.cmd_analyze", lambda args: print("patched") or 7)
    code, out, _ = run(capsys, "analyze", "--coeffs", "1,2,1")
    assert (code, out) == (7, "patched\n")


class TestClosedPipe:
    def test_reader_closing_stdout_ends_the_output(self):
        env = dict(os.environ, PYTHONPATH=SOURCE)
        process = subprocess.Popen(
            [sys.executable, "-m", "narayana", "enumerate", "--kind", "words", "--n", "5", "--m", "4"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        # 1,662,804 lines, far more than a pipe holds, so the writer meets the closed end
        assert process.stdout.readline() == b"11111222223333344444\n"
        process.stdout.close()
        err = process.stderr.read()
        process.stderr.close()
        assert process.wait(timeout=60) == 0
        assert err == b""
