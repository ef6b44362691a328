"""The README's examples stay true to the code: its config example parses,
and every flag its CLI section names is an option of some subcommand."""

import argparse
import re
from pathlib import Path

from vocalsim.cli import build_parser
from vocalsim.config import parse_config_text

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme() -> str:
    return README.read_text(encoding="utf-8")


def _cli_section() -> str:
    text = _readme()
    start = text.index("\n## CLI\n")
    return text[start : text.index("\n## ", start + 1)]


def _parser_options() -> set:
    (subparsers,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        option
        for parser in subparsers.choices.values()
        for action in parser._actions
        for option in action.option_strings
    }


def test_ini_example_parses():
    blocks = re.findall(r"```ini\n(.*?)```", _readme(), re.S)
    assert len(blocks) == 1
    parse_config_text(blocks[0], "README.md").validate()


def test_cli_section_names_only_real_flags():
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", _cli_section()))
    assert "--reference-audio" in named
    assert named - _parser_options() == set()
