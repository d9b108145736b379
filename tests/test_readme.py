"""The README's examples run as shown.

The Python quick tour is executed as written.  The command-line examples
whose output the README shows in full are run through cli.main on the files
the README creates, and their stdout is compared with the shown output,
JSON lines wrapped for width joined back into one.
"""

import re
import shlex
from pathlib import Path

import pytest

from madic import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
SHELL = re.findall(r"```sh\n(.*?)```", README, re.S)
SHOWN = [
    "classify t.json",
    "enumerate --n 2 --format table",
    "separate --space partition --table t.json --points pts.json",
    "reduce --construct 1 --g t.json",
]


def _transcript() -> dict[str, list[str]]:
    """Each `$ ` command of the shell blocks with the lines shown after it."""
    out: dict[str, list[str]] = {}
    for block in SHELL:
        command = None
        for line in block.splitlines():
            if line.startswith("$ "):
                command = line[2:].split("#")[0].strip()
                out[command] = []
            elif command is not None and line.strip():
                out[command].append(line)
            else:
                command = None
    return out


TRANSCRIPT = _transcript()


def test_quick_tour_runs():
    (tour,) = re.findall(r"## Quick tour\n\n```python\n(.*?)```", README, re.S)
    exec(compile(tour, "README quick tour", "exec"), {})


@pytest.mark.parametrize("args", SHOWN)
def test_shown_cli_output(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command, lines in TRANSCRIPT.items():
        echo = re.fullmatch(r"echo '(.*)' > (\S+)", command)
        if echo:
            Path(echo[2]).write_text(echo[1] + "\n")
        elif command.startswith("cat "):
            Path(command[4:]).write_text("\n".join(lines) + "\n")
    shown = TRANSCRIPT[f"madic {args}"]
    assert shown, f"the README shows no output for madic {args}"
    assert cli.main(shlex.split(args)) == 0
    out = capsys.readouterr().out
    if shown[0].startswith("{"):
        assert out == "".join(line.strip() for line in shown) + "\n"
    else:
        assert out == "\n".join(shown) + "\n"
