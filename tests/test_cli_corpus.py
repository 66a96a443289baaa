"""The CLI contract corpus, run in process: every case of
``tests/cli_corpus/cases.py`` prints its block of ``expected.txt``."""
import runpy
from pathlib import Path

import pytest

CORPUS = runpy.run_path(str(Path(__file__).parent / "cli_corpus" / "run.py"))
EXPECTED = CORPUS["expected_blocks"]()


def test_expected_file_holds_every_case_in_order():
    assert list(EXPECTED) == [case[0] for case in CORPUS["CASES"]]


@pytest.mark.parametrize("case", CORPUS["CASES"], ids=[case[0] for case in CORPUS["CASES"]])
def test_case_prints_its_expected_block(case):
    assert CORPUS["run_case"](case, CORPUS["in_process"]) == EXPECTED[case[0]]
