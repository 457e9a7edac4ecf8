"""Every top-level function and class in the package has a caller, every
public class member has a reader, every import is used, and every
exception class has a caller that tells it apart from its base.

A name counts as reached when it appears anywhere in ``src/``, in the
acceptance criteria or in the benchmark scripts, other than at its own
definition. A member (method, property or dataclass field) counts as
reached when one of those files loads an attribute of its name outside the
member's own body, when a benchmark script names it as a
``"Class.member"`` string, or when it is a field of a dataclass that
``dataclasses.asdict`` writes out. Unit tests do not count: a helper that
only its own tests call is library surface that no command reaches.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nanoembed"

# name -> why it stays although nothing in the searched files calls it.
ALLOWED = {
    "write_corpus": "writes the line-delimited format that read_corpus and a config's corpus.path read",
}


# "Class.member" -> why it stays although nothing in the searched files reads it.
ALLOWED_MEMBERS = {
    "GradCheckReport.passed": "the only reader of the tolerance that criterion 01 passes",
    "CacheStats.embedding_values": "the pass-1 values that tests mine on to show cached picks equal naive ones",
    "CacheStats.pass2_overhead": "shows the bounded pass-2 memory that the README's gradcache row claims",
}


def searched_paths() -> list[Path]:
    paths = [*sorted((ROOT / "src").rglob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    return paths + sorted((ROOT / "bench").glob("*.py"))


def searched_texts() -> list[str]:
    return [path.read_text() for path in searched_paths()]


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
    assert set(ALLOWED_MEMBERS) <= set(unreached_members())


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list
    )


def attribute_loads(tree: ast.AST) -> Counter:
    return Counter(
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def asdict_args(tree: ast.AST) -> list[ast.expr]:
    return [
        node.args[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "asdict"
    ]


def serialized_classes(tree: ast.Module) -> set[str]:
    """Classes whose fields a dataclasses.asdict call in this module writes
    out: asdict(self) serializes the enclosing class, asdict(x) and
    asdict(y.x) every class that x is annotated with in the module."""
    annotated: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            name, annotation = node.arg, node.annotation
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name, annotation = node.target.id, node.annotation
        else:
            continue
        annotated.setdefault(name, set()).update(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(annotation)
            if isinstance(n, (ast.Name, ast.Attribute))
        )
    serialized = {
        cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(isinstance(arg, ast.Name) and arg.id == "self" for arg in asdict_args(cls))
    }
    for arg in asdict_args(tree):
        if isinstance(arg, (ast.Name, ast.Attribute)):
            serialized |= annotated.get(arg.id if isinstance(arg, ast.Name) else arg.attr, set())
    return serialized


def members() -> dict[str, tuple[str, Counter | None]]:
    """"Class.member" -> (module, the attribute loads in the member's own
    body, None for a dataclass field), for every public method, property
    and dataclass field in the package."""
    found = {}
    for module in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(module.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name, own = node.name, attribute_loads(node)
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) and is_dataclass(cls):
                    name, own = node.target.id, None
                else:
                    continue
                if not name.startswith("_"):
                    found[f"{cls.name}.{name}"] = (module.name, own)
    return found


def unreached_members() -> dict[str, str]:
    trees = {path: ast.parse(path.read_text()) for path in searched_paths()}
    loads = sum((attribute_loads(tree) for tree in trees.values()), Counter())
    named = {
        node.value
        for path, tree in trees.items()
        if path.parent.name == "bench"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    serialized = set().union(*(serialized_classes(tree) for path, tree in trees.items() if path.parent == PACKAGE))
    unreached = {}
    for member, (module, own) in members().items():
        cls, name = member.split(".")
        if own is None and cls in serialized or member in named:
            continue
        if loads[name] <= (own or Counter())[name]:
            unreached[member] = module
    return unreached


def test_every_class_member_is_reached():
    unreached = {member: module for member, module in unreached_members().items() if member not in ALLOWED_MEMBERS}
    assert not unreached, f"members no command reads (delete them or allow them with a reason): {unreached}"


def unused_imports() -> dict[str, list[str]]:
    """Module -> the names it imports and never uses."""
    unused = {}
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text())
        imported = [
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names = [name for name in imported if name != "annotations" and name not in used]
        if names:
            unused[module.name] = names
    return unused


def test_every_import_is_used():
    unused = unused_imports()
    assert not unused, f"imported and never used: {unused}"


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
