"""README's command examples fit the program.

Each `vsr3d ...` line of README.md, with its `#` comment stripped, must
parse and pass config validation the way `cli.main` does before it runs a
command, so a renamed or retyped flag cannot leave the docs behind.
"""

import shlex
from pathlib import Path

import pytest

from vsr3d.cli import _build_parser
from vsr3d.config import FIELD_TYPES, load_config

README = Path(__file__).resolve().parent.parent / "README.md"
COMMAND_LINES = [line.split("#", 1)[0].strip()
                 for line in README.read_text(encoding="utf-8").splitlines()
                 if line.startswith("vsr3d ")]


def test_readme_has_command_lines():
    assert COMMAND_LINES


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_command_line_parses_and_validates(line):
    argv = shlex.split(line)[1:]
    args = _build_parser().parse_args(argv)
    assert args.command == argv[0]
    overrides = {key: ",".join(value) if isinstance(value, list) else value
                 for key, value in vars(args).items() if key in FIELD_TYPES}
    load_config(args.config, overrides)
