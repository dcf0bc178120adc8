"""The runtime is stdlib-only: every absolute import in ``src/tropdeg``
names a module of the standard library, and none of the modules that
are slow to import (``dataclasses`` pulls in ``inspect``, ``ast``, ``dis``
and ``tokenize``), so every CLI call starts without them.  The
double-description format lives behind ``polyhedra``: no other module
imports its kernel, and inside ``polyhedra`` only the cut (H->V) and the
hull (V->H) run it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tropdeg"

#: standard modules the library must not import: each costs start-up time
SLOW_IMPORTS = {"dataclasses", "typing", "inspect"}


#: the double-description kernel, private to ``polyhedra``
DD_NAMES = {"dual_description"}


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


def test_src_imports_no_slow_module():
    files = sorted(SRC.glob("*.py"))
    assert files
    slow = [f"{path.name}:{line}: {name}" for path in files
            for line, name in absolute_imports(path) if name in SLOW_IMPORTS]
    assert not slow, "slow imports: " + ", ".join(slow)


def test_cli_import_loads_no_slow_module():
    # -S: no site-packages, so no installed .pth file adds imports of its own
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = ("import sys, tropdeg.cli; "
            "print(' '.join(sorted({'dataclasses', 'inspect'} & set(sys.modules))))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []


def test_only_polyhedra_imports_the_double_description():
    files = [path for path in sorted(SRC.glob("*.py")) if path.name != "polyhedra.py"]
    assert files
    leaks = [f"{path.name}:{node.lineno}: {alias.name}" for path in files
             for node in nodes(path) if isinstance(node, ast.ImportFrom)
             for alias in node.names if alias.name in DD_NAMES]
    assert not leaks, "double description imported outside polyhedra: " + \
        ", ".join(leaks)


def dd_calls(node) -> int:
    """Calls of ``dual_description`` in a node."""
    return sum(isinstance(n, ast.Call) and getattr(n.func, "id", None) in DD_NAMES
               for n in ast.walk(node))


def test_only_the_cut_and_the_hull_run_the_double_description():
    tree = ast.parse((SRC / "polyhedra.py").read_text(encoding="utf-8"))
    methods = {f"{cls.name}.{f.name}": f for cls in tree.body
               if isinstance(cls, ast.ClassDef)
               for f in cls.body if isinstance(f, ast.FunctionDef)}
    callers = {name for name, f in methods.items() if dd_calls(f)}
    assert callers == {"Polyhedron._cut", "Polyhedron._from_generator_rows"}
    # and no call outside those methods
    assert dd_calls(tree) == sum(dd_calls(methods[name]) for name in callers)
