"""The README's code is executable: the library tour runs as written and
every command-line example parses with the CLI's own parser."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from onlinectrl import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str = "") -> str:
    """The first fenced block with the given language after a heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    match = re.search(rf"^```{lang}\n(.*?)^```", section, re.M | re.S)
    assert match, f"no ```{lang} block under {heading!r}"
    return match.group(1)


def test_library_tour_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_block("Library tour", "python"), "README.md", "exec"), {})
    float(out.getvalue())  # it prints the final regret


def test_command_line_examples_parse():
    lines = [line for line in _block("Command line").splitlines()
             if line.startswith("onlinectrl ")]
    assert {line.split()[1] for line in lines} == {"run", "constants", "certify"}
    parser = cli._build_parser()
    for line in lines:
        args = shlex.split(line.replace("[", " ").replace("]", " "))[1:]
        parser.parse_args(args)  # an unknown flag exits with SystemExit
