"""README's "Library layout" table names only what the library defines.

Every backticked token in the table's rows that is a Python identifier,
optionally followed by a call signature, must name an attribute of a
``tropdeg`` module, an attribute of a class defined in one, or a dataclass
field.  Single-letter names and the notation ``L_n`` and ``MSupp`` are
not names of the library.  A deleted or renamed function thus cannot stay
in the docs.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import re

import tropdeg
from conftest import ROOT

IDENTIFIER = re.compile(r"([A-Za-z_]\w*)(\(.*\))?")
NOTATION = {"L_n", "MSupp"}


def layout_names():
    """The identifiers of the backticked tokens of the layout table's rows."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `tropdeg.")]
    assert rows
    for token in (t for row in rows for t in re.findall(r"`([^`]+)`", row)):
        match = IDENTIFIER.fullmatch(token)
        if match and len(match[1]) > 1 and match[1] not in NOTATION:
            yield match[1]


def library_names():
    """Module attributes, class attributes and dataclass fields of tropdeg."""
    names = set()
    for info in pkgutil.iter_modules(tropdeg.__path__):
        module = importlib.import_module(f"tropdeg.{info.name}")
        names |= set(vars(module))
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                names |= set(dir(obj))
                if dataclasses.is_dataclass(obj):
                    names |= {f.name for f in dataclasses.fields(obj)}
    return names


def test_layout_names_resolve():
    known = library_names()
    names = list(layout_names())
    assert len(names) > 50
    assert sorted({n for n in names if n not in known}) == []
