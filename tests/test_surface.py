"""Every top-level function and class in the package has a caller.

A name counts as reached when it appears anywhere in ``src/``, in the
acceptance criteria or in the benchmark scripts, other than at its own
definition. Unit tests do not count: a helper that only its own tests
call is library surface that no command reaches.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nanoembed"

# name -> why it stays although nothing in the searched files calls it.
ALLOWED = {
    "write_corpus": "writes the line-delimited format that read_corpus and a config's corpus.path read",
}


def searched_texts() -> list[str]:
    paths = [*sorted((ROOT / "src").rglob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    paths += sorted((ROOT / "bench").glob("*.py"))
    return [path.read_text() for path in paths]


def top_level_names() -> dict[str, str]:
    names = {}
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(module.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names[node.name] = module.name
    return names


def unreached_names() -> dict[str, str]:
    texts = searched_texts()
    unreached = {}
    for name, module in top_level_names().items():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if sum(len(word.findall(text)) for text in texts) <= 1:
            unreached[name] = module
    return unreached


def test_every_top_level_name_is_reached():
    unreached = {name: module for name, module in unreached_names().items() if name not in ALLOWED}
    assert not unreached, f"named only at their definition (delete them or allow them with a reason): {unreached}"


def test_allowlist_names_only_unreached_definitions():
    assert set(ALLOWED) <= set(unreached_names())
