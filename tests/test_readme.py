"""Every `$ fewbody ...` example in README.md prints what the README shows.

Each fenced block that opens with a `$ fewbody` command is run in a fresh
directory.  The lines under the command must appear in its stdout in order,
each right after the one before, except that a line reading `...`
(indentation aside) stands for any run of lines, none included.
"""
import re
import shlex
from pathlib import Path

import pytest

from fewbody.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```\n\$ fewbody ([^\n]*)\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_shows_an_example_of_every_verb() -> None:
    # and of -h, so that the README's flag list is pinned against cli.HELP
    shown = sorted({command.split()[0] for command, _ in BLOCKS})
    assert shown == ["-h", "density", "hom", "verify"]


@pytest.mark.parametrize("command, shown", BLOCKS, ids=[c.split()[0] for c, _ in BLOCKS])
def test_readme_example_prints_what_it_shows(
    command: str, shown: str, tmp_path: Path, capsys, monkeypatch
) -> None:
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FEWBODY_OUTPUT_DIR", raising=False)
    main(shlex.split(command))
    out = capsys.readouterr().out
    pattern = "".join(
        "(?:.*\n)*" if line.strip() == "..." else re.escape(line) + "\n"
        for line in shown.splitlines()
    )
    assert re.fullmatch(pattern, out), f"README shows:\n{shown}\nthe command printed:\n{out}"
