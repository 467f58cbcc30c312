"""The README's ``## Command line`` synopsis and the parser agree: each
flag the synopsis lists for a command is one that command accepts, and
each flag that not every command has is listed for the commands that have
it."""

import argparse
import re
from pathlib import Path

from jifnorm.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def synopsis() -> dict[str, set[str]]:
    """The ``--flags`` of each command in the README's command-line block;
    a line that does not start with ``jifnorm`` continues the command
    above it."""
    section = README.read_text(encoding="utf-8").split(
        "\n## Command line\n", 1)[1]
    flags: dict[str, set[str]] = {}
    for line in section.split("```", 2)[1].splitlines():
        if line.startswith("jifnorm "):
            command = line.split()[1]
            flags[command] = set()
        if flags:
            flags[command] |= set(re.findall(r"--[a-z][a-z0-9-]*", line))
    return flags


def parser_flags() -> dict[str, set[str]]:
    """The long flags each subcommand's parser accepts, less ``--help``."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in p._actions for s in a.option_strings
                   if s.startswith("--")} - {"--help"}
            for name, p in sub.choices.items()}


def test_readme_flags_are_accepted():
    accepted = parser_flags()
    listed = synopsis()
    assert sorted(listed) == sorted(accepted)
    for command, flags in listed.items():
        assert flags <= accepted[command], (command, flags - accepted[command])


def test_command_specific_flags_are_listed():
    accepted = parser_flags()
    shared = set.intersection(*accepted.values())
    listed = synopsis()
    for command, flags in accepted.items():
        missing = flags - shared - listed[command]
        assert not missing, (command, missing)
