"""CLI reports independent of what ran before them in the same interpreter.

Every command of ``test_cli_golden.py`` runs through ``cli.main`` in this
one interpreter, with the intern pool and the caches left warm by whatever
ran before, in file order and in two seeded shuffles.  Each exit code and
stdout digest must equal ``cli_golden.json``.  The fresh-interpreter replay
stays in ``test_cli_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from test_cli_golden import COMMANDS, GOLDEN, ROOT
from tropdeg import cli


@pytest.mark.parametrize("shuffle_seed", [None, 1, 2],
                         ids=["file-order", "shuffle-1", "shuffle-2"])
def test_in_process_replay_matches_golden(shuffle_seed, monkeypatch):
    expected = json.loads(GOLDEN.read_text())
    commands = list(COMMANDS)
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(commands)
    monkeypatch.delenv("TROPDEG_SEED", raising=False)
    monkeypatch.chdir(ROOT)
    for command in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(command.split())
        stdout = out.getvalue()
        got = {"exit": code,
               "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}
        assert got == expected[command], f"tropdeg {command}\nstdout:\n{stdout}"
