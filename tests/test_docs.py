"""The README's code runs as written, the documented command line is the parser's,
and the package exports every name its `__all__` lists."""

import re
import warnings
from pathlib import Path

import pytest

import emdclf
from emdclf import cli
from emdclf.cli import RunConfig, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_export_list_resolves_without_repeats():
    assert [name for name in emdclf.__all__ if not hasattr(emdclf, name)] == []
    assert len(set(emdclf.__all__)) == len(emdclf.__all__)


def test_library_quick_start_runs():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, f"{README.name}: Library quick start", "exec"), namespace)
    assert namespace["vec"].values.shape == (45,)
    assert len(namespace["dec"].imfs) >= 1


def readme_commands():
    section = README.read_text().split("## Command line", 1)[1]
    return re.search(r"```\n(.*?)```", section, re.S).group(1)


def docstring_commands():
    return cli.__doc__.split("--------\n", 1)[1].split("\n\n", 1)[0]


def usage(block):
    """{command: its usage text} from a command list; indented lines continue a command."""
    commands = {}
    for line in block.splitlines():
        if line.startswith(" "):
            commands[command] += line
        elif line:
            command, _, rest = line.removeprefix("emdclf ").partition(" ")
            commands[command] = rest
    return commands


def help_text(capsys, *argv):
    with pytest.raises(SystemExit):
        main([*argv, "--help"])
    return capsys.readouterr().out


DOCUMENTED = pytest.mark.parametrize("block", [readme_commands, docstring_commands],
                                     ids=["README", "cli docstring"])


@DOCUMENTED
def test_documented_flags_are_the_parsers(block, capsys):
    commands = usage(block())
    assert set(commands) == set(re.search(r"\{([\w,]+)\}", help_text(capsys)).group(1).split(","))
    for command, text in commands.items():
        flags = set(re.findall(r"--[a-z][a-z-]*", help_text(capsys, command))) - {"--help"}
        assert set(re.findall(r"--[a-z][a-z-]*", text)) == flags, command


@DOCUMENTED
def test_bracketed_defaults_are_runconfig_defaults(block):
    parser, defaults = cli._build_parser(), RunConfig()
    for command, text in usage(block()).items():
        required = [command] + re.sub(r"\[[^\]]*\]", "", text).split()
        given = vars(parser.parse_args(required))
        for flag, value in re.findall(r"\[(--[a-z-]+) ([^\]]+)\]", text):
            parsed = vars(parser.parse_args(required + [flag, value]))
            (dest,) = set(parsed) - set(given)  # an absent flag leaves no attribute
            assert parsed[dest] == getattr(defaults, dest), (command, flag)
