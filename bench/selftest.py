"""Self-test of the benchmark itself.

  python3 bench/selftest.py

Run from the root of a tropdeg checkout.  Checks that

* every traced function and program attribute the tracer reads still
  resolves, so a rename fails here instead of silently dropping a metric;
* ``BENCHMARK.json`` names exactly the metrics the runs emit, with units;
* a tiny run of each workload, untraced and traced, emits every end-to-end
  and per-layer metric, and two traced runs at one seed repeat every count;
* corrupting every recorded outcome drives ``failed_frac`` to 1.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layertrace  # noqa: E402
import run  # noqa: E402

TINY = 2
#: counts that must repeat exactly between traced runs at one seed
EXACT_SUFFIXES = (".calls", ".constraints_in", ".rays_out", ".redraws",
                  "intern_pool_entries")


def bench_run(workload: str, trace: int, *extra) -> dict:
    argv = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
            "--seed", "5", "--seconds", "1", "--trace", str(trace),
            "--limit", str(TINY), *extra]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(argv)} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names() -> None:
    layertrace.resolve_all()
    from tropdeg import fixtures, ops
    line = fixtures.standard_line()
    out = ops.stable_intersect(line, fixtures.scaled_line(2), seed=7)
    assert "displacement_redraws" in out._cache, \
        "stable_intersect no longer records displacement_redraws"


def declared() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_metrics(result: dict, want: dict, what: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{what}: metrics differ from BENCHMARK.json: " \
        f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{what}: {name} not a number"
    assert result["correct"] and result["failed"] == 0, f"{what}: {result}"


def check_corrupted(workload: str) -> None:
    with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    bad = {w: {item: "corrupted" for item in outs} for w, outs in expected.items()}
    work = os.path.join(BENCH, ".work")
    os.makedirs(work, exist_ok=True)
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=work, delete=False) as fh:
        json.dump(bad, fh)
    try:
        result = bench_run(workload, 0, "--expected", fh.name)
    finally:
        os.remove(fh.name)
    assert result["failed"] == result["attempted"] and not result["correct"], \
        f"{workload}: corrupted outcomes gave {result['failed']} of {result['attempted']}"


def main() -> int:
    os.chdir(ROOT)
    check_names()
    e2e, per_layer = declared()
    for workload in run.WORKLOADS:
        check_metrics(bench_run(workload, 0), e2e, f"{workload} untraced")
        first, second = bench_run(workload, 1), bench_run(workload, 1)
        check_metrics(first, per_layer, f"{workload} traced")
        for name, m in first["metrics"].items():
            if name.endswith(EXACT_SUFFIXES):
                assert m["value"] == second["metrics"][name]["value"], \
                    f"{workload}: {name} differs between traced runs"
        check_corrupted(workload)
        print(f"ok {workload}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
