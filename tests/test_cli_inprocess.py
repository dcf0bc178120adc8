"""CLI reports independent of what ran before them in the same interpreter.

Every command of ``test_cli_golden.py`` runs through ``cli.main`` in this
one interpreter, with the intern pool and the caches left warm by whatever
ran before, in file order and in two seeded shuffles.  Each exit code,
stdout digest and written file digest must equal ``cli_golden.json``.  The fresh-interpreter replay
stays in ``test_cli_golden.py``.  The exit code of each library error
class is pinned here too.
"""

import contextlib
import dataclasses
import inspect
import io
import json
import random

import pytest

from test_cli_golden import COMMANDS, GOLDEN, ROOT, argv, record
from tropdeg import cli, errors


@pytest.mark.parametrize("shuffle_seed", [None, 1, 2],
                         ids=["file-order", "shuffle-1", "shuffle-2"])
def test_in_process_replay_matches_golden(shuffle_seed, monkeypatch, tmp_path):
    expected = json.loads(GOLDEN.read_text())
    commands = list(COMMANDS)
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(commands)
    monkeypatch.delenv("TROPDEG_SEED", raising=False)
    monkeypatch.chdir(ROOT)
    for i, command in enumerate(commands):
        out = io.StringIO()
        written = tmp_path / f"{i}.cyc"
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv(command, written))
        stdout = out.getvalue()
        got = record(command, code, stdout.encode(), written)
        assert got == expected[command], f"tropdeg {command}\nstdout:\n{stdout}"


#: every class of ``tropdeg.errors``: its direct base and the exit code of
#: ``cli.main`` when a command raises it
ERROR_CLASSES = {
    "TropdegError": ("Exception", 2),
    "InputError": ("TropdegError", 1),
    "ContractError": ("TropdegError", 2),
    "InvariantError": ("TropdegError", 3),
    "ZeroVectorError": ("ContractError", 2),
    "EmptyPolyhedronError": ("ContractError", 2),
    "DimensionMismatchError": ("ContractError", 2),
    "InvalidComplexError": ("ContractError", 2),
    "WrongDimensionError": ("ContractError", 2),
    "WrongDimensionsError": ("ContractError", 2),
    "WrongCodimensionError": ("ContractError", 2),
    "UnbalancedCycleError": ("ContractError", 2),
    "TypeMismatchError": ("ContractError", 2),
    "NonPositiveDivisorError": ("ContractError", 2),
    "EmptySubsetError": ("ContractError", 2),
    "BadBlockIndexError": ("DimensionMismatchError", 2),
    "SeedDependenceError": ("InvariantError", 3),
}


def test_error_classes_are_pinned():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    assert defined == set(ERROR_CLASSES)


@pytest.mark.parametrize("name", sorted(ERROR_CLASSES))
def test_error_class_base_and_exit_code(name, monkeypatch):
    base, exit_code = ERROR_CLASSES[name]
    error = getattr(errors, name)
    assert [b.__name__ for b in error.__bases__] == [base]

    def handler(args):
        raise error("raised by the test handler")

    spec = dataclasses.replace(cli.COMMANDS["hyperplane"], handler=handler)
    monkeypatch.setitem(cli.COMMANDS, "hyperplane", spec)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["hyperplane", "0,0"]) == exit_code
    assert json.loads(out.getvalue())["error"] == "raised by the test handler"
