"""The README's examples run as written and reach the numbers it states."""

import json
import shlex
from pathlib import Path

from nanoembed.cli import COMMAND_TABLE, build_parser, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(heading: str, lang: str) -> str:
    """The first ```lang block after the '## heading' line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_library_snippet_prints_stated_numbers(capsys):
    code = code_block("Library", "python")
    stated = code.rstrip().splitlines()[-1].split("#", 1)[1].strip()
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip() == stated == "0.9375 1.0"


def test_cli_quickstart_trains_to_perfect_precision(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(code_block("Command line", "json"))
    commands = [shlex.split(line) for line in code_block("Command line", "bash").splitlines()]
    quickstart = [argv for argv in commands if argv[1] in ("stage1", "stage2", "eval")]
    assert [argv[1] for argv in quickstart] == ["stage1", "stage2", "eval"]
    for argv in quickstart:
        assert argv[0] == "nanoembed"
        assert main(argv[1:]) == 0
    report = json.loads((tmp_path / "out" / "eval" / "report.json").read_text())
    assert report["precision_at"]["1"] == 1.0


def test_command_lines_parse_and_cover_every_command():
    lines = code_block("Command line", "bash").splitlines()
    parser = build_parser()
    parsed = [parser.parse_args(shlex.split(line)[1:]) for line in lines]
    assert all(line.startswith("nanoembed ") for line in lines)
    assert {args.command for args in parsed} == set(COMMAND_TABLE)


def test_modules_table_names_every_module():
    table = README.split("\n## Modules\n", 1)[1].split("\n## ", 1)[0]
    listed = [line.split("`")[1] for line in table.splitlines() if line.startswith("| `")]
    package = Path(__file__).resolve().parents[1] / "src" / "nanoembed"
    modules = [p.stem for p in package.glob("*.py") if p.stem != "__init__"]
    assert sorted(listed) == sorted(modules)
