"""Golden transcript of the command line: exit code and exact stdout.

Each case runs ``narayana.cli.main`` in-process and compares the result with
the stored transcript in ``tests/golden_cli.json``, byte for byte. No command
writes a file; the ``--no-cache`` that the ``poly`` and ``verify`` cases pass
is accepted and ignored, and stays because each case's argv keys the
transcript.

Regenerate the transcript (only when a change of output is intended) with:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from narayana.cli import main

TRANSCRIPT = Path(__file__).with_name("golden_cli.json")

POLY_SIZES = (("3", "2"), ("4", "3"), ("5", "2"), ("2", "4"), ("0", "3"))
ANALYZE_INPUTS = (
    "1,3,1",
    "1,22,113,190,113,22,1",
    "1,1,1",
    "1,2,1",
    "1,0,-2,0,1",
    "0,0,9,27,27",
    "5",
)

CASES: tuple[tuple[str, ...], ...] = (
    *(
        ("poly", "--n", n, "--m", m, "--format", fmt, "--no-cache")
        for n, m in POLY_SIZES
        for fmt in ("plain", "json", "csv")
    ),
    ("poly", "--n", "23", "--m", "1", "--no-cache"),
    ("enumerate", "--kind", "words", "--n", "2", "--m", "2"),
    ("enumerate", "--kind", "words", "--n", "3", "--m", "3"),
    ("enumerate", "--kind", "words", "--n", "3", "--m", "3", "--limit", "5"),
    ("enumerate", "--kind", "paths", "--n", "2", "--m", "3"),
    ("enumerate", "--kind", "paths", "--n", "3", "--m", "2", "--limit", "3"),
    ("enumerate", "--kind", "syt", "--n", "2", "--m", "3"),
    ("enumerate", "--kind", "syt", "--shape", "3,2,1"),
    ("enumerate", "--kind", "syt", "--shape", "4,2", "--limit", "4"),
    ("verify", "--suite", "all", "--max-cells", "10", "--no-cache"),
    *(
        ("analyze", "--coeffs", coeffs, "--format", fmt)
        for coeffs in ANALYZE_INPUTS
        for fmt in ("plain", "json")
    ),
)


def run_case(argv: tuple[str, ...]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue()}


def _stored() -> dict[tuple[str, ...], dict]:
    entries = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    return {tuple(entry["argv"]): entry for entry in entries}


def test_transcript_covers_exactly_the_cases():
    assert set(_stored()) == set(CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_case_matches_transcript(argv):
    assert run_case(argv) == _stored()[argv]


if __name__ == "__main__":
    transcript = [run_case(argv) for argv in CASES]
    TRANSCRIPT.write_text(json.dumps(transcript, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(transcript)} cases to {TRANSCRIPT}", file=sys.stderr)
