"""The runtime is stdlib-only: every absolute import in ``src/tropdeg``
names a module of the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tropdeg"


def absolute_imports(path: Path):
    """(line, top-level module) of every absolute import in a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
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
