"""The public surface of src/: every public name has a caller there, or is
API that the README names with its reason, and the package exports exactly
what its __init__ imports."""
from __future__ import annotations

import ast
import re
from pathlib import Path

import mallows

SRC = Path(__file__).resolve().parents[1] / "src" / "mallows"
README = Path(__file__).resolve().parents[1] / "README.md"

#: public names with no caller in src/, each kept as library API
API_WITHOUT_CALLER = {
    "eliminate_left",
    "q_pochhammer",
    "sample_two_sided_inversion",
}


def _uncalled(src: Path) -> set[str]:
    """The public module-level functions and classes of the package in src
    that no code in src reads outside their own definition.

    A read is a Name or Attribute node, so docstrings, comments and imports
    are not callers.  __init__.py re-exports names and is left out;
    __main__.py is read like any module, so it calls cli.main.
    """
    defined, refs = _definitions_and_references(src)
    return {name for name in defined if not _callers(name, defined, refs)}


def _definitions_and_references(src: Path):
    """({name: (file, first line, last line)} of the public module-level
    functions and classes, [(name, file, line)] of every name read in code)."""
    defined, refs = {}, []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                assert node.name not in defined, f"{node.name} defined twice"
                defined[node.name] = (path.name, node.lineno, node.end_lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((node.id, path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, path.name, node.lineno))
    return defined, refs


def _callers(name, defined, refs):
    file, first, last = defined[name]
    return [(f, line) for n, f, line in refs
            if n == name and not (f == file and first <= line <= last)]


def test_every_public_name_has_a_caller_in_src():
    assert _uncalled(SRC) == API_WITHOUT_CALLER


def test_a_caller_is_code_outside_the_definition(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import f, g, h, C\nh()\n")
    (tmp_path / "a.py").write_text(
        '"""f() is named here."""\n'
        "def f():\n    return f()  # f() again\n\n"
        "def g():\n    pass\n\n"
        "def h():\n    pass\n\n"
        "class C:\n    def copy(self):\n        return C()\n\n"
        "def _private():\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import f\n\ndef use():\n    return g\n")
    (tmp_path / "__main__.py").write_text("from .b import use\nuse()\n")
    assert _uncalled(tmp_path) == {"f", "h", "C"}


def test_readme_gives_each_uncalled_name_its_reason():
    text = README.read_text()
    section = text.split("\n## Library API with no caller in the package\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    listed = set(re.findall(r"^- `([A-Za-z_]+)`", section, flags=re.M))
    assert listed == API_WITHOUT_CALLER


def test_the_export_list_is_what_init_imports():
    # a name deleted from a module but left in __all__ fails to resolve; a
    # name imported into __init__ but left out of __all__ is not exported
    assert len(mallows.__all__) == len(set(mallows.__all__))
    assert [n for n in mallows.__all__ if not hasattr(mallows, n)] == []
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name
                for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names if not alias.name.startswith("_")}
    assert imported <= set(mallows.__all__)
