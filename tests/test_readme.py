"""The README's examples run as written and print what it says they print."""
import re
import shlex
from pathlib import Path

import pytest

from crrpricing.cli import main
from crrpricing.payoff import MAX_PAYOFF_DEPTH

README = (Path(__file__).parent.parent / "README.md").read_text()


def code_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.DOTALL | re.MULTILINE)


def cli_examples() -> list[tuple[str, str]]:
    """Each ``crrpricing ...`` line followed by a ``# -> expected output`` line."""
    pairs = []
    for block in code_blocks("sh"):
        lines = block.splitlines()
        for command, comment in zip(lines, lines[1:]):
            if command.startswith("crrpricing ") and comment.startswith("# -> "):
                pairs.append((command, comment.removeprefix("# -> ")))
    return pairs


def test_library_quick_start_runs():
    [quick_start] = code_blocks("python")
    exec(compile(quick_start, "README.md", "exec"), {})


def test_every_documented_command_is_checked():
    assert [command.split()[1] for command, _ in cli_examples()] == ["price", "replicate", "check"]


@pytest.mark.parametrize("command, expected", cli_examples(), ids=lambda x: x.split()[1])
def test_cli_example_prints_its_line(capsys, tmp_path, monkeypatch, command, expected):
    [config] = code_blocks("json")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "market.json").write_text(config)
    assert main(shlex.split(command)[1:]) == 0
    assert expected in capsys.readouterr().out.splitlines()


def test_documented_payoff_depth_limit():
    assert f"Expressions nest at most {MAX_PAYOFF_DEPTH} levels deep." in README
