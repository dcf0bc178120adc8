"""CLI reports pinned byte for byte.

``cli_golden.json`` maps each command line below to the sha256 of its
stdout and its exit code.  The test replays every command in a fresh
interpreter from the repository root and, on a mismatch, shows the actual
stdout.  ``python tests/test_cli_golden.py`` rewrites the record from the
current code; do that only when a report is meant to change.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

# The README commands that write no file.
README = [
    "check-balance fixtures/standard_line.cyc",
    "multidegree fixtures/example33a.cyc --type 1,1",
    "ranks fixtures/example33b.cyc",
    "criterion fixtures/example33b.cyc --type 1,0,1",
    "msupp fixtures/example33a.cyc --mode bruteforce",
    "admissible fixtures/example33a.cyc --strategy coords",
    "project fixtures/example33a.cyc --blocks 1",
    "minkowski fixtures/example33a.cyc 0,0,0,1",
    "translate fixtures/standard_line.cyc 1,2",
    "product fixtures/diagonal_11.cyc fixtures/diagonal_11.cyc",
    "positive-divisor fixtures/standard_plane.cyc",
    "pair-positive fixtures/standard_line.cyc fixtures/scaled_line_d2.cyc",
    "submodular fixtures/example33b.cyc",
    "facet-witness fixtures/example33b.cyc --type 1,0,1",
]

# Every type vector of the two counterexample fixtures, at two seeds.
TYPES = {
    "example33a": ["0,2", "1,1", "2,0"],
    "example33b": ["0,1,1", "1,0,1", "1,1,0", "2,0,0"],
}
MULTIDEGREES = [f"multidegree fixtures/{name}.cyc --type {t} --seed {seed}"
                for name, types in TYPES.items() for t in types
                for seed in (0, 5)]

MSUPP = [f"msupp fixtures/{name}.cyc --mode bruteforce" for name in TYPES]

# The admissibility search, the CLI's user of Minkowski sums, on every
# shipped fixture with both candidate strategies.
FIXTURES = sorted(p.stem for p in (ROOT / "fixtures").glob("*.cyc"))
ADMISSIBLE = [f"admissible fixtures/{name}.cyc --strategy {strategy}"
              for name in FIXTURES for strategy in ("coords", "spans")]

# Balance checks (codimension-1 normals), recession fans (containment on
# a common refinement) and stable intersections (displacement flags).
BALANCE = [f"{command} fixtures/{name}.cyc" for name in FIXTURES
           for command in ("check-balance", "recession")]
INTERSECT = [
    "intersect fixtures/standard_line.cyc fixtures/scaled_line_d2.cyc",
    "intersect fixtures/standard_plane.cyc fixtures/standard_plane.cyc",
    "intersect fixtures/coordinate_hyperplanes_3.cyc fixtures/standard_plane.cyc",
    "intersect fixtures/example33a.cyc fixtures/example33a.cyc --seed 5",
    "intersect fixtures/coordinate_hyperplanes_2.cyc fixtures/standard_line.cyc"
    " --seed 3",
]

COMMANDS = list(dict.fromkeys(README + MULTIDEGREES + MSUPP + ADMISSIBLE
                              + BALANCE + INTERSECT))


def run(command: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("TROPDEG_SEED", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return subprocess.run([sys.executable, "-m", "tropdeg.cli", *command.split()],
                          capture_output=True, env=env, cwd=ROOT)


def record(proc: subprocess.CompletedProcess) -> dict:
    return {"exit": proc.returncode,
            "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}


def test_golden_covers_commands():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_report_matches_golden(command):
    expected = json.loads(GOLDEN.read_text())[command]
    proc = run(command)
    assert record(proc) == expected, (
        f"tropdeg {command}\nstdout:\n{proc.stdout.decode(errors='replace')}"
        f"\nstderr:\n{proc.stderr.decode(errors='replace')}")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: record(run(c)) for c in COMMANDS},
                                 indent=1, sort_keys=True) + "\n")
