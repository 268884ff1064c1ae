"""The README's command-line examples and prose name only flags and values the parser accepts."""

import re
import shlex
from pathlib import Path

import pytest
from conftest import subcommand_parsers

from gradient_decay.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _command_lines():
    """The gradient-decay commands of the sh block under "## Command line", continuations joined."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [" ".join(line.split()) for line in lines if line.startswith("gradient-decay ")]


def test_every_subcommand_has_an_example():
    commands = {shlex.split(line)[1] for line in _command_lines()}
    assert commands == {"verify", "sweep", "trace", "calib", "warmup-demo"}


@pytest.mark.parametrize("line", _command_lines())
def test_example_parses(line):
    build_parser().parse_args(shlex.split(line)[1:])


def test_prose_names_real_flags():
    # `--key=value` is the config file's placeholder, not a flag
    options = {o for p in subcommand_parsers().values() for a in p._actions for o in a.option_strings}
    named = set(re.findall(r"`(--[a-z][a-z0-9-]*)", README.read_text(encoding="utf-8"))) - {"--key"}
    assert "--blob-sigma" in named
    assert sorted(named - options) == []
