"""Every top-level function and class in the package has a caller, and
every exception class has a caller that tells it apart from its base.

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


def exception_bases() -> dict[str, str]:
    """Exception class name -> the name of its base, for every one in the package."""
    bases = {}
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.ClassDef):
                names = [base.id for base in node.bases if isinstance(base, ast.Name)]
                if any(name.endswith(("Error", "Exception")) for name in names):
                    bases[node.name] = names[0]
    return bases


def caught_names(handler: ast.ExceptHandler) -> set[str]:
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.id if isinstance(t, ast.Name) else t.attr for t in types if isinstance(t, (ast.Name, ast.Attribute))}


def untold_exceptions() -> dict[str, str]:
    """Exception classes that neither an acceptance criterion names nor a
    src/ except clause catches apart from their base."""
    clauses = [
        caught_names(node)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
    ]
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    return {
        name: base
        for name, base in exception_bases().items()
        if not re.search(rf"\b{name}\b", acceptance)
        and not any(name in names and base not in names for names in clauses)
    }


def test_every_exception_class_is_told_apart():
    untold = untold_exceptions()
    assert not untold, f"no caller tells these apart from their base (raise the base instead): {untold}"
