"""CLI reports pinned byte for byte.

``cli_golden.json`` maps each command line below to the sha256 of its
stdout and its exit code.  A subcommand that can write its output cycle
(``WRITES``) runs with ``-o``, and its record also pins the sha256 of the
written file (``null`` when it writes none).  The test replays every
command in a fresh interpreter from the repository root and, on a
mismatch, shows the actual stdout.  ``python tests/test_cli_golden.py``
rewrites the record from the current code; do that only when a report or
a cycle file is meant to change.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

# The subcommands that take -o.
WRITES = ("intersect", "recession", "translate", "product", "minkowski",
          "project", "hyperplane")

# The README commands, without their -o; ``degree`` reads a written file.
README = [
    "check-balance fixtures/standard_line.cyc",
    "intersect fixtures/standard_line.cyc fixtures/scaled_line_d2.cyc --seed 7",
    "multidegree fixtures/example33a.cyc --type 1,1",
    "ranks fixtures/example33b.cyc",
    "criterion fixtures/example33b.cyc --type 1,0,1",
    "msupp fixtures/example33a.cyc --mode bruteforce",
    "admissible fixtures/example33a.cyc --strategy coords",
    "project fixtures/example33a.cyc --blocks 1",
    "minkowski fixtures/example33a.cyc 0,0,0,1",
    "hyperplane 0,-1,-2",
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

# Divisors read from files: powers of a non-standard divisor (the chain of
# stable self-intersections), of a file holding the standard line and of
# one holding a translated line (``translated_line.cyc``, written by
# ``hyperplane 1/2,-3,0``; the closed-form fan, translated).  The
# translated line is test data, not a shipped fixture.
DIVISORS = [
    "multidegree fixtures/example33a.cyc --type 2,0"
    " --divisor 1:fixtures/coordinate_hyperplanes_2.cyc",
    "msupp fixtures/example33a.cyc --mode bruteforce"
    " --divisor 2:fixtures/coordinate_hyperplanes_2.cyc",
    "multidegree fixtures/example33a.cyc --type 0,2"
    " --divisor 2:fixtures/standard_line.cyc",
    "multidegree fixtures/example33a.cyc --type 0,2"
    " --divisor 2:tests/translated_line.cyc",
    "msupp fixtures/example33a.cyc --mode bruteforce"
    " --divisor 1:tests/translated_line.cyc",
]

# Tropical hyperplanes: zero, integer and rational coefficients in R^1 to
# R^4; the record pins the written file too.
HYPERPLANES = [f"hyperplane {coeffs}" for coeffs in
               ("0,5", "1/2,-3,0,7/3", "3,1,4,1,5", "0,0,0,0,0")]

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

# Pure Minkowski sums (the README's is impure and writes no file) and a
# translation by rationals: written files with rays, lineality and
# non-integral vertices.
WRITTEN = [
    "minkowski fixtures/example33b.cyc 1,0,0,0",
    "minkowski fixtures/scaled_line_d2.cyc 1,0",
    "minkowski fixtures/coordinate_hyperplanes_3.cyc 1,0,0",
    "translate fixtures/example33b.cyc 1/2,-2/3,0,7",
]

COMMANDS = list(dict.fromkeys(README + MULTIDEGREES + MSUPP + DIVISORS + HYPERPLANES
                              + ADMISSIBLE + BALANCE + INTERSECT + WRITTEN))


def argv(command: str, out: Path) -> list[str]:
    """The command's arguments, with ``-o out`` for a subcommand of ``WRITES``."""
    args = command.split()
    return args + ["-o", str(out)] if args[0] in WRITES else args


def record(command: str, code: int, stdout: bytes, out: Path) -> dict:
    """The golden record of a run of ``argv(command, out)``."""
    rec = {"exit": code, "stdout_sha256": hashlib.sha256(stdout).hexdigest()}
    if command.split()[0] in WRITES:
        rec["file_sha256"] = (hashlib.sha256(out.read_bytes()).hexdigest()
                              if out.exists() else None)
    return rec


def run(command: str, out: Path) -> tuple[subprocess.CompletedProcess, dict]:
    """Run the command in a fresh interpreter; return the process and its
    record."""
    env = dict(os.environ)
    env.pop("TROPDEG_SEED", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, "-m", "tropdeg.cli", *argv(command, out)],
                          capture_output=True, env=env, cwd=ROOT)
    return proc, record(command, proc.returncode, proc.stdout, out)


def test_golden_covers_commands():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(COMMANDS)


def test_writes_are_the_output_subcommands():
    from tropdeg.cli import COMMANDS as SUBCOMMANDS
    assert sorted(WRITES) == sorted(name for name, spec in SUBCOMMANDS.items()
                                    if "output" in spec.flags)


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_report_matches_golden(command, tmp_path):
    expected = json.loads(GOLDEN.read_text())[command]
    proc, rec = run(command, tmp_path / "out.cyc")
    assert rec == expected, (
        f"tropdeg {command}\nstdout:\n{proc.stdout.decode(errors='replace')}"
        f"\nstderr:\n{proc.stderr.decode(errors='replace')}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = {c: run(c, Path(tmp) / f"{i}.cyc")[1]
                   for i, c in enumerate(COMMANDS)}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
