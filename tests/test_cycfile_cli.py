import hashlib
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (FIXTURE_DIR, coordinate_subspaces, cycle_to_dict,
                      dumps_oracle, fixture_path, fresh, tropical_linear_space)
from tropdeg import cli, cycfile, cycles, fixtures
from tropdeg.cycles import (BlockStructure, TropicalCycle, check_balancing,
                            validate_complex)
from tropdeg.errors import InputError, InvariantError
from tropdeg.ops import minkowski_sum_subspace, tropical_hyperplane
from tropdeg.polyhedra import Polyhedron

PYTHON = sys.executable


def run_cli(*args, env_seed=None, cwd=None):
    import os
    env = dict(os.environ)
    env.pop("TROPDEG_SEED", None)
    if env_seed is not None:
        env["TROPDEG_SEED"] = str(env_seed)
    proc = subprocess.run([PYTHON, "-m", "tropdeg.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)
    return proc


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_generator_files_pinned():
    """Cycle files of generator seeds 0-59, pinned byte for byte."""
    text = "".join(cycfile.dumps(fixtures.generate_admissible(s)) for s in range(60))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "3ca882b8bd4b6ba65a68e6a9cb0d5ce83109d80fa717dd2b37b139e9754c685f"


def test_product_roundtrip_identity():
    """A product of translated hyperplanes, whose cells have equalities and
    inequalities with nonzero constant terms, survives its file."""
    cycle = cycles.product(tropical_hyperplane([0, 1, 2]), tropical_hyperplane([0, 3]))
    again = cycfile.loads(cycfile.dumps(cycle))
    assert again == cycle
    assert cycfile.dumps(again) == cycfile.dumps(cycle)


def _hand_built_cycles():
    """An empty cycle, a 0-dimensional one, and facets with vertices of
    every sign, size and denominator, with rays and lineality together
    and with weight 0."""
    big = 2 ** 64
    yield TropicalCycle(BlockStructure((2,)), [])
    yield TropicalCycle(BlockStructure((1, 1)), [
        (Polyhedron.from_generators(2, [(Fraction(1, 2), -3)]), 2),
        (Polyhedron.from_generators(2, [(0, 0)]), 0)])
    yield TropicalCycle(BlockStructure((2, 1)), [
        (Polyhedron.from_generators(3, [(-big - 1, Fraction(-7, 3), 3 * big),
                                        (Fraction(big + 1, 2), 0, -1),
                                        (Fraction(-1, big), 5, Fraction(1, 3))]), 1),
        (Polyhedron.from_generators(3, [(Fraction(-5, 2), 0, 0)], rays=[(1, 0, 0)],
                                    lineality=[(0, 1, 1)]), 3),
        (Polyhedron.from_generators(3, [(0, 0, 0)], rays=[(0, 0, -1), (2, 2, 0)],
                                    lineality=[(1, 2, 3), (0, 1, -1)]), 7)])


def _dump_pool():
    """(name, cycle) of generator seeds 0-59, the pure coordinate Minkowski
    sums of seeds 0-4 and 27, the shipped fixtures, tropical linear spaces
    of seeds 0-99 and the hand-built cycles."""
    for s in range(60):
        yield f"seed {s}", fixtures.generate_admissible(s)
    for s in (0, 1, 2, 3, 4, 27):
        cycle = fixtures.generate_admissible(s)
        for coords, gens in coordinate_subspaces(cycle.m):
            try:
                result = minkowski_sum_subspace(cycle, gens)
            except InvariantError:  # seed 27's known push-forward defect
                continue
            if result.is_pure:
                yield f"seed {s} + span {coords}", result.cycle
    for name, build in fixtures.CORPUS.items():
        yield name, build()
    for s in range(100):
        yield f"linear space {s}", tropical_linear_space(s)
    for i, cycle in enumerate(_hand_built_cycles()):
        yield f"hand-built {i}", cycle


@pytest.fixture(scope="module")
def dump_pool():
    return list(_dump_pool())


def test_dumps_matches_json_encoder(dump_pool):
    """The direct writer gives the text of ``json``'s indent encoder."""
    assert len(dump_pool) > 250
    assert [name for name, cycle in dump_pool
            if cycfile.dumps(cycle) != dumps_oracle(cycle)] == []


def test_roundtrip_identity(dump_pool):
    """Parse -> serialize -> parse is the identity on the same pool."""
    for name, cycle in dump_pool:
        text = cycfile.dumps(cycle)
        again = cycfile.loads(text)
        assert again == cycle, name
        assert cycfile.dumps(again) == text, name


def test_rational_strings():
    text = json.dumps({
        "blocks": [2],
        "facets": [{"vertices": [["1/2", 3]], "rays": [[1, 0]], "weight": 2}],
    })
    cycle = cycfile.loads(text)
    facet = cycle.facets[0]
    assert facet.poly.vertices == ((Fraction(1, 2), Fraction(3)),)
    assert facet.weight == 2


def test_parse_errors():
    with pytest.raises(InputError):
        cycfile.loads("not json")
    with pytest.raises(InputError):
        cycfile.loads(json.dumps({"facets": []}))
    with pytest.raises(InputError):
        cycfile.loads(json.dumps({"blocks": [2], "facets": [
            {"vertices": [[0, 0, 0]], "weight": 1}]}))     # wrong length
    with pytest.raises(InputError):
        cycfile.loads(json.dumps({"blocks": [1], "facets": [
            {"vertices": [[0]], "weight": -1}]}))
    with pytest.raises(InputError):
        cycfile.loads(json.dumps({"blocks": [1], "facets": [
            {"vertices": [[0.5]], "weight": 1}]}))         # floats rejected
    with pytest.raises(InputError):
        cycfile.loads(json.dumps({"blocks": [1], "facets": [
            {"vertices": [], "rays": [[1]], "weight": 1}]}))


def test_load_rejects_non_utf8(tmp_path):
    bad = tmp_path / "bad.cyc"
    bad.write_bytes(b'{"blocks": [2], "facets": []}\xff')
    with pytest.raises(InputError, match="not UTF-8"):
        cycfile.load(bad)


def test_shipped_fixtures_parse_validate_balance():
    for path in sorted(FIXTURE_DIR.glob("*.cyc")):
        cycle = cycfile.load(path)
        if "unbalanced" in path.name:
            continue
        assert validate_complex(cycle).ok, path.name
        assert check_balancing(cycle).balanced, path.name


def test_fixture_files_match_builders():
    for name, build in fixtures.CORPUS.items():
        assert cycfile.load(fixture_path(name)) == build()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_check_balance():
    proc = run_cli("check-balance", str(fixture_path("standard_line")))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["outputs"]["balanced"] is True


@pytest.mark.parametrize("argv", [
    ["check-balance", "fixtures/example33a.cyc"],
    ["admissible", "fixtures/example33a.cyc"],
    ["intersect", "fixtures/standard_line.cyc", "fixtures/scaled_line_d2.cyc"],
])
def test_cli_validates_each_input_once(argv, monkeypatch, capsys):
    calls = []

    def counting(cycle):
        calls.append(cycle)
        return real(cycle)

    real = cycles.validate_complex
    monkeypatch.setattr(cycles, "validate_complex", counting)
    monkeypatch.chdir(FIXTURE_DIR.parent)
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["command"] == argv[0]
    assert len(calls) == len(argv) - 1
    assert len({id(c) for c in calls}) == len(calls)


def _bad_inputs(tmp_path):
    """A cycle file that is not a valid complex (a facet listed twice) and
    one that is valid but unbalanced (a single ray), with the words their
    reports must contain."""
    data = cycle_to_dict(fixtures.standard_line())
    data["facets"].append(data["facets"][0])
    twice = tmp_path / "twice.cyc"
    twice.write_text(json.dumps(data))
    ray = tmp_path / "ray.cyc"
    cycfile.save(ray, cycles.TropicalCycle(cycles.BlockStructure((2,)), [
        (Polyhedron.from_generators(2, [(0, 0)], rays=[(1, 0)]), 1)]))
    return {"invalid": (twice, "not a valid complex"), "unbalanced": (ray, "balancing")}


def test_cli_check_balance_flags_repeated_facet(tmp_path):
    twice, _ = _bad_inputs(tmp_path)["invalid"]
    proc = run_cli("check-balance", str(twice))
    assert proc.returncode == 0
    outputs = json.loads(proc.stdout)["outputs"]
    assert outputs["valid_complex"] is False
    assert len(outputs["bad_pairs"]) == 1


def test_cli_multidegree_example33a():
    proc = run_cli("multidegree", str(fixture_path("example33a")), "--type", "1,1")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["outputs"]["multidegree"] == 0


def test_cli_admissible_example33a():
    proc = run_cli("admissible", str(fixture_path("example33a")),
                   "--strategy", "coords")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["outputs"]["status"] == "CounterexampleFound"
    witness = report["outputs"]["witness_subspace"]
    assert len(witness) == 1 and sum(map(abs, witness[0])) == 1


def test_cli_determinism():
    args = ("intersect", str(fixture_path("standard_line")),
            str(fixture_path("scaled_line_d2")), "--seed", "5")
    out1 = run_cli(*args)
    out2 = run_cli(*args)
    assert out1.returncode == 0
    assert out1.stdout == out2.stdout


def test_cli_env_seed(tmp_path):
    args = ("multidegree", str(fixture_path("diagonal_11")), "--type", "1,0")
    with_env = run_cli(*args, env_seed=17)
    report = json.loads(with_env.stdout)
    assert report["seed"] == 17
    assert report["outputs"]["multidegree"] == 1


def test_cli_exit_codes(tmp_path):
    missing = run_cli("degree", str(tmp_path / "nope.cyc"))
    assert missing.returncode == 1

    bad = tmp_path / "bad.cyc"
    bad.write_text("{]")
    assert run_cli("degree", str(bad)).returncode == 1

    # degree of a 1-dimensional cycle violates the contract
    wrong = run_cli("degree", str(fixture_path("standard_line")))
    assert wrong.returncode == 2

    unbalanced = tmp_path / "unbalanced.cyc"
    line = fixtures.standard_line()
    data = cycle_to_dict(line)
    data["facets"][0]["weight"] = 2
    unbalanced.write_text(json.dumps(data))
    proc = run_cli("intersect", str(unbalanced), str(fixture_path("standard_line")))
    assert proc.returncode == 2

    assert run_cli("nonsense").returncode == 1


MALFORMED = {
    "not_utf8": b'{"blocks": [2], "facets": []}\xff\xfe',
    "facets_not_list": b'{"blocks": [2], "facets": 5}',
    "facet_not_object": b'{"blocks": [2], "facets": [5]}',
    "vector_not_list": b'{"blocks": [2], "facets": [{"vertices": [5]}]}',
    "zero_block_size": b'{"blocks": [0], "facets": []}',
    "no_blocks": b'{"blocks": [], "facets": []}',
    # unknown keys: "ray" would leave a point, "facet" the empty cycle
    "unknown_facet_key": b'{"blocks": [2], "facets": [{"vertices": [[0, 0]], '
                         b'"ray": [[1, 0]]}]}',
    "unknown_file_key": b'{"blocks": [2], "facet": []}',
}


@pytest.mark.parametrize("as_divisor", [False, True], ids=["file", "divisor"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_cli_malformed_input_reports_error(tmp_path, name, as_divisor):
    bad = tmp_path / "bad.cyc"
    bad.write_bytes(MALFORMED[name])
    if as_divisor:
        args = ("multidegree", str(fixture_path("diagonal_11")), "--type", "1,0",
                "--divisor", f"1:{bad}")
    else:
        args = ("degree", str(bad))
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "error" in json.loads(proc.stdout)


BAD_ARGUMENTS = {
    # span vectors whose length is not the ambient dimension
    "minkowski standard_line 0,0,5": 2,
    "minkowski standard_line 1": 2,
    # admissibility strategies that name no candidate set
    "admissible standard_line --strategy bogus": 1,
    "admissible standard_line --strategy random:x": 1,
    "admissible standard_line --strategy random:-3": 1,
    # a divisor for a block the cycle does not have, refused before loading
    "multidegree diagonal_11 --type 1,0 --divisor 3:missing.cyc": 1,
    "multidegree diagonal_11 --type 1,0 --divisor 0:missing.cyc": 1,
}


@pytest.mark.parametrize("command", sorted(BAD_ARGUMENTS))
def test_cli_bad_arguments_report_error(command):
    name, fixture, *rest = command.split()
    proc = run_cli(name, str(fixture_path(fixture)), *rest)
    assert proc.returncode == BAD_ARGUMENTS[command]
    assert "Traceback" not in proc.stderr
    assert "error" in json.loads(proc.stdout)


def test_cli_output_file(tmp_path):
    out = tmp_path / "out.cyc"
    proc = run_cli("recession", str(fixture_path("standard_line")),
                   "-o", str(out))
    assert proc.returncode == 0
    assert cycfile.load(out) == fixtures.standard_line()


def test_cli_translate_product_degree(tmp_path):
    moved = tmp_path / "moved.cyc"
    proc = run_cli("translate", str(fixture_path("standard_line")), "1,2",
                   "-o", str(moved))
    assert proc.returncode == 0
    inter = tmp_path / "inter.cyc"
    proc = run_cli("intersect", str(fixture_path("standard_line")), str(moved),
                   "-o", str(inter))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["outputs"]["degree"] == 1
    proc = run_cli("degree", str(inter))
    assert json.loads(proc.stdout)["outputs"]["degree"] == 1

    proc = run_cli("product", str(fixture_path("diagonal_11")),
                   str(fixture_path("diagonal_11")))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outputs"]["cycle"]["blocks"] == [1, 1, 1, 1]


def test_cli_hyperplane_and_positive(tmp_path):
    hyp = tmp_path / "hyp.cyc"
    proc = run_cli("hyperplane", "0,-1,-2", "-o", str(hyp))
    assert proc.returncode == 0
    proc = run_cli("positive-divisor", str(hyp))
    assert json.loads(proc.stdout)["outputs"]["positive"] is True


def test_cli_project_and_minkowski():
    proc = run_cli("project", str(fixture_path("example33a")), "--blocks", "1")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["outputs"]["pure"] is True
    assert report["outputs"]["projection_dim"] == 2
    assert report["outputs"]["absorbed_facets"]
    assert report["caveats"]

    proc = run_cli("minkowski", str(fixture_path("example33a")), "0,0,0,1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outputs"]["pure"] is False


def test_cli_ranks_criterion_msupp_submodular_witness():
    f33b = str(fixture_path("example33b"))
    report = json.loads(run_cli("ranks", f33b).stdout)
    assert report["outputs"]["ranks"]["1"] == 2
    assert report["outputs"]["ranks"]["3"] == 1
    assert report["outputs"]["ranks"]["1,3"] == 2

    report = json.loads(run_cli("criterion", f33b, "--type", "1,0,1").stdout)
    assert report["outputs"]["holds"] is True
    assert report["caveats"]

    report = json.loads(run_cli("msupp", str(fixture_path("example33a")),
                                "--mode", "bruteforce").stdout)
    assert sorted(map(tuple, report["outputs"]["msupp"])) == [(0, 2), (2, 0)]

    report = json.loads(run_cli("submodular", f33b).stdout)
    assert report["outputs"]["submodular"] is True

    report = json.loads(run_cli("facet-witness", f33b, "--type", "1,0,1").stdout)
    assert report["outputs"]["found"] is False


def test_cli_pair_positive():
    proc = run_cli("pair-positive", str(fixture_path("standard_line")),
                   str(fixture_path("scaled_line_d2")))
    assert json.loads(proc.stdout)["outputs"]["positive"] is True


def test_cli_pair_positive_refuses_unbalanced_input(tmp_path):
    ray, _ = _bad_inputs(tmp_path)["unbalanced"]
    line = str(fixture_path("standard_line"))
    for cmd in ("pair-positive", "intersect"):
        proc = run_cli(cmd, str(ray), line)
        assert proc.returncode == 2
        assert "balancing" in proc.stdout + proc.stderr


#: a command line of each balanced command with one input BAD; OUT is an
#: output file that the command must not write
GATED = [
    ("intersect", "BAD", "LINE", "-o", "OUT"),
    ("intersect", "LINE", "BAD", "-o", "OUT"),
    ("recession", "BAD", "-o", "OUT"),
    ("minkowski", "BAD", "1,1", "-o", "OUT"),
    ("project", "BAD", "--blocks", "1", "-o", "OUT"),
    ("pair-positive", "BAD", "LINE"),
    ("pair-positive", "LINE", "BAD"),
    ("admissible", "BAD"),
    ("multidegree", "BAD", "--type", "1"),
    # the gate runs before the handler parses its arguments
    ("multidegree", "BAD", "--type", "9"),
    ("minkowski", "BAD", "1,x"),
]


def test_gated_command_lines_cover_the_balanced_commands():
    assert {argv[0] for argv in GATED} == \
        {name for name, spec in cli.COMMANDS.items() if spec.balanced}


@pytest.mark.parametrize("kind", ["invalid", "unbalanced"])
@pytest.mark.parametrize("template", GATED, ids=" ".join)
def test_cli_gates_balanced_commands(template, kind, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("TROPDEG_SEED", raising=False)
    path, words = _bad_inputs(tmp_path)[kind]
    out = tmp_path / "out.cyc"
    names = {"BAD": str(path), "LINE": str(fixture_path("standard_line")),
             "OUT": str(out)}
    assert cli.main([names.get(a, a) for a in template]) == cli.EXIT_CONTRACT
    report = json.loads(capsys.readouterr().out)
    assert words in report["error"]
    assert "outputs" not in report
    assert not out.exists()


def test_cli_divisor_override(tmp_path):
    div = tmp_path / "div.cyc"
    cycfile.save(div, fixtures.coordinate_hyperplanes(1))
    proc = run_cli("multidegree", str(fixture_path("diagonal_11")),
                   "--type", "1,0", "--divisor", f"1:{div}")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outputs"]["multidegree"] == 1


# ---------------------------------------------------------------------------
# flag surface: each subcommand parses exactly the flags it declares
# ---------------------------------------------------------------------------

#: a command-line value of each flag and what argparse makes of it
FLAG_VALUES = {
    "seed": ("3", 3),
    "type": ("1,1", "1,1"),
    "blocks": ("1", "1"),
    "strategy": ("spans", "spans"),
    "divisor": ("1:d.cyc", ["1:d.cyc"]),
    "mode": ("bruteforce", "bruteforce"),
    "output": ("out.cyc", "out.cyc"),
}


def _placeholders(spec):
    return [*spec.files, *(name for name, _, _ in spec.positional)]


def test_flag_values_cover_flags():
    assert sorted(FLAG_VALUES) == sorted(cli.FLAGS)


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_cli_declared_flags_parse(command):
    spec = cli.COMMANDS[command]
    parser = cli._build_parser()
    for flag in spec.flags:
        text, parsed = FLAG_VALUES[flag]
        for option in cli.FLAGS[flag][0]:
            args = parser.parse_args([command, *_placeholders(spec), option, text])
            assert getattr(args, flag) == parsed


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_cli_undeclared_flags_exit_1(command, capsys):
    spec = cli.COMMANDS[command]
    for flag in sorted(set(cli.FLAGS) - set(spec.flags)):
        for option in cli.FLAGS[flag][0]:
            argv = [command, *_placeholders(spec), option, FLAG_VALUES[flag][0]]
            assert cli.main(argv) == cli.EXIT_INPUT, argv
            out, err = capsys.readouterr()
            assert out == ""
            assert "unrecognized arguments" in json.loads(err)["error"]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_cli_flag_prefixes_exit_1(command, capsys):
    """Flags are never abbreviated: each proper prefix of a declared long
    flag is an unrecognized argument."""
    spec = cli.COMMANDS[command]
    for flag in spec.flags:
        for option in cli.FLAGS[flag][0]:
            for end in range(3, len(option)) if option.startswith("--") else ():
                argv = [command, *_placeholders(spec), option[:end],
                        FLAG_VALUES[flag][0]]
                assert cli.main(argv) == cli.EXIT_INPUT, argv
                out, err = capsys.readouterr()
                assert out == ""
                assert "unrecognized arguments" in json.loads(err)["error"]


def test_cli_msupp_divisor_needs_bruteforce(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("TROPDEG_SEED", raising=False)
    argv = ["msupp", str(fixture_path("example33a")), "--divisor",
            f"1:{tmp_path / 'missing.cyc'}"]
    assert cli.main(argv) == cli.EXIT_INPUT
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "--divisor needs --mode bruteforce"
    assert cli.main([*argv, "--mode", "criterion"]) == cli.EXIT_INPUT


def test_readme_lists_each_command_flags():
    text = (FIXTURE_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z-]+)` \|[^|\n]*\|([^|\n]*)\|$", section, re.M)
    documented = {name: sorted(re.findall(r"`(-[-a-z]+)", flags))
                  for name, flags in rows}
    declared = {name: sorted(cli.FLAGS[flag][0][0] for flag in spec.flags)
                for name, spec in cli.COMMANDS.items()}
    assert documented == declared
