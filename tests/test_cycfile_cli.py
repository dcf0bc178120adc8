import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURE_DIR, fixture_path, fresh
from tropdeg import cli, cycfile, cycles, fixtures
from tropdeg.cycles import check_balancing, validate_complex
from tropdeg.errors import InputError
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

def test_roundtrip_identity():
    for name in fixtures.CORPUS:
        cycle = fixtures.CORPUS[name]()
        text = cycfile.dumps(cycle)
        again = cycfile.loads(text)
        assert again == cycle
        assert cycfile.dumps(again) == text


def test_rational_strings():
    text = json.dumps({
        "blocks": [2],
        "facets": [{"vertices": [["1/2", 3]], "rays": [[1, 0]], "weight": 2}],
    })
    cycle = cycfile.loads(text)
    facet = cycle.facets[0]
    from fractions import Fraction
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
    data = cycfile.cycle_to_dict(line)
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
    ray = tmp_path / "ray.cyc"
    cycfile.save(ray, cycles.TropicalCycle(cycles.BlockStructure((2,)), [
        (Polyhedron.from_generators(2, [(0, 0)], rays=[(1, 0)]), 1)]))
    line = str(fixture_path("standard_line"))
    for cmd in ("pair-positive", "intersect"):
        proc = run_cli(cmd, str(ray), line)
        assert proc.returncode == 2
        assert "balancing" in proc.stdout + proc.stderr


def test_cli_divisor_override(tmp_path):
    div = tmp_path / "div.cyc"
    cycfile.save(div, fixtures.coordinate_hyperplanes(1))
    proc = run_cli("multidegree", str(fixture_path("diagonal_11")),
                   "--type", "1,0", "--divisor", f"1:{div}")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outputs"]["multidegree"] == 1
