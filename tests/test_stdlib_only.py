"""The runtime is stdlib-only: every absolute import in ``src/tropdeg``
names a module of the standard library.  The double-description format
lives behind ``polyhedra``: no other module imports its kernel."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tropdeg"


#: the double-description kernel and its input format, private to ``polyhedra``
DD_NAMES = {"dual_description", "homogenized_constraints"}


def nodes(path: Path):
    """Every AST node of a file."""
    return ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def absolute_imports(path: Path):
    """(line, top-level module) of every absolute import in a file."""
    for node in nodes(path):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_src_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = [f"{path.name}:{line}: {name}" for path in files
               for line, name in absolute_imports(path)
               if name not in sys.stdlib_module_names]
    assert not foreign, "non-stdlib imports: " + ", ".join(foreign)


def test_only_polyhedra_imports_the_double_description():
    files = [path for path in sorted(SRC.glob("*.py")) if path.name != "polyhedra.py"]
    assert files
    leaks = [f"{path.name}:{node.lineno}: {alias.name}" for path in files
             for node in nodes(path) if isinstance(node, ast.ImportFrom)
             for alias in node.names if alias.name in DD_NAMES]
    assert not leaks, "double description imported outside polyhedra: " + \
        ", ".join(leaks)
