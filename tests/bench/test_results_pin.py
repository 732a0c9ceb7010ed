"""The tables pin: ``docs/RESULTS.txt`` is regenerated and must not move.

``python -m repro experiments`` prints every E/X table to stdout, and its
stdout is a function of the code alone (virtual time depends only on seed
and config; the wall-clock notes go to stderr).  So the gate is equality
with the committed file, the same pattern as ``test_perf.py``.  A PR that
moves a cell commits the regenerated file
(``python -m repro experiments > docs/RESULTS.txt``) and the diff is the
record.

EXPERIMENTS.md quotes the tables: every fenced block under an ``## E..`` or
``## X..`` heading must be an excerpt of the committed file.
"""

import re
from pathlib import Path

from repro.__main__ import main

ROOT = Path(__file__).resolve().parents[2]
RESULTS = ROOT / "docs" / "RESULTS.txt"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"


def _lines(text):
    return [line.rstrip() for line in text.splitlines()]


def test_committed_tables_regenerate_byte_identically(capsys):
    assert main(["experiments"]) == 0
    regenerated = capsys.readouterr().out
    committed = RESULTS.read_text()
    # Experiment by experiment first, so a failure names what moved.
    split = re.compile(r"^(?=### )", re.M)
    for got, pinned in zip(split.split(regenerated), split.split(committed)):
        assert got == pinned, got.splitlines()[0]
    assert regenerated == committed


def test_experiments_md_quotes_the_committed_tables():
    results = "\n".join(_lines(RESULTS.read_text()))
    quoted = 0
    for section in re.split(r"^## ", EXPERIMENTS.read_text(), flags=re.M):
        if not re.match(r"[EX]\d+ ", section):
            continue
        for block in re.findall(r"^```\n(.*?)^```", section, re.S | re.M):
            excerpt = "\n".join(_lines(block))
            assert excerpt in results, section.splitlines()[0]
            quoted += 1
    assert quoted >= 15  # at least one table per experiment
