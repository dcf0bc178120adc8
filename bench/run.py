"""tropdeg benchmark: one workload, one seed, one run.

  python3 bench/run.py --workload md_sweep --seed 0 --seconds 20 --trace 0

Run from the root of a tropdeg checkout (stdlib only, nothing to build).
Workloads (see bench/DESIGN.md for why each was chosen):

  md_sweep         multidegree + criterion for every type vector of 40
                   generated cycles (the acceptance suite3 pipeline)
  minkowski_sweep  Minkowski sums with every proper coordinate subspace of
                   30 generated cycles (check_admissible's coords candidates)
  cli_cold         each README command in a fresh ``python -m tropdeg.cli``

Set-up (input generation in its own interpreter, then import and parse in
another) is repeated before and after the measured passes and reported as
the median.  Every pass of the measured loop runs in a fresh interpreter;
passes repeat while the next one is expected to end within ``--seconds``,
and at least enough run for 100 items.  Timings are scaled to a reference
host speed, measured by a calibration kernel that each pass runs between
items.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the same passes untraced and then traced, and prints the per-layer
metrics.  Every item's output is checked against bench/expected.json and
the workload's own independent check.  The last stdout line is the result
as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layertrace  # noqa: E402
import worker  # noqa: E402

WORKLOADS = ("md_sweep", "minkowski_sweep", "cli_cold")
#: set-ups per run, half before and half after the measured passes, so
#: that their median spans the run; a CLI set-up takes only about 0.15 s
SETUP_REPEATS = {"md_sweep": 5, "minkowski_sweep": 5, "cli_cold": 9}
#: every run, traced or not, ends well within 180 s
DEADLINE_S = 170.0
#: median time of one iteration of ``worker.calibration_kernel`` on the
#: 2-core host the benchmark was sized on; timings are reported at the host
#: speed that gives this kernel time
CAL_REF_S = 0.8e-3
REQUIRED = ("src/tropdeg/__init__.py", "src/tropdeg/cli.py",
            "fixtures/example33a.cyc", "fixtures/example33b.cyc")


class Run:
    """Paths and the wall-clock budget of one benchmark run."""

    def __init__(self, workload: str, seed: int, limit: int | None):
        self.workload, self.seed, self.limit = workload, seed, limit
        self.started = time.monotonic()
        self.work = os.path.join("bench", ".work")
        self.tmp = os.path.join(self.work, f"run-{workload}-{seed}-{os.getpid()}")
        self.inputs = self.inputs_text = None
        os.makedirs(self.tmp)

    def spawn(self, *args) -> float:
        """Run ``worker.py`` in a fresh interpreter; return its wall time."""
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise TimeoutError(f"run exceeded {DEADLINE_S:.0f} s")
        argv = [sys.executable, "bench/worker.py", args[0], self.workload,
                "--seed", str(self.seed), *map(str, args[1:])]
        if self.limit is not None:
            argv += ["--limit", str(self.limit)]
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=remaining)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"worker {args[0]} failed ({proc.returncode}):\n"
                               f"{proc.stderr[-2000:]}")
        return elapsed

    def setup(self, reps) -> list[float]:
        """One set-up sample per rep; the generated inputs must be identical
        every time."""
        samples = []
        for rep in reps:
            if self.workload == "cli_cold":
                samples.append(self.spawn("load"))
                continue
            path = os.path.join(self.tmp, f"inputs{rep}.json")
            gen_s = self.spawn("gen", "--out", path)
            load_s = self.spawn("load", "--inputs", path)
            samples.append(gen_s + load_s)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if self.inputs_text is None:
                self.inputs_text, self.inputs = text, path
            elif text != self.inputs_text:
                raise RuntimeError("input generation is not deterministic")
        return samples

    def passes(self, inputs, seconds: float, min_items: int,
               traced: bool) -> list[dict]:
        """Measured passes, each in a fresh interpreter: at least one, and
        enough for ``min_items`` items, then more while the next is
        expected to end within ``seconds``."""
        results, elapsed, last = [], 0.0, 0.0
        while (not results or sum(len(r["items"]) for r in results) < min_items
               or elapsed + last <= seconds):
            n = len(results)
            out = os.path.join(self.tmp, f"pass{n}{'t' if traced else ''}.json")
            extra = ["--pass-no", n, "--out", out]
            if traced:
                os.makedirs(os.path.join(self.work, "spans"), exist_ok=True)
                extra += ["--trace", os.path.join(
                    self.work, "spans", f"{self.workload}-seed{self.seed}-pass{n}.tsv")]
            if inputs:
                extra += ["--inputs", inputs]
            last = self.spawn("pass", *extra)
            elapsed += last
            with open(out, encoding="utf-8") as fh:
                results.append(json.load(fh))
        return results

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return max(0.0, min(1.0, x))
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def quantile(sorted_values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a weighted mean of all
    order statistics, with weights from a beta distribution centred on q.
    Unlike a single order statistic it does not jump between the items on
    either side of a gap in the latency distribution, which makes it much
    steadier from run to run on the heavy-tailed latencies here."""
    n = len(sorted_values)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(sorted_values))


def check(records, expected: dict) -> dict:
    """Failure accounting against the recorded outcomes.

    An item fails when it raises, when its own check fails, or when its
    output differs from the recorded one.  A failure is unexpected unless
    it is the recorded exception of a known defect; an item whose recorded
    outcome is such an exception and that now passes its own check counts
    as fixed, not failed.
    """
    failed, unexpected, fixed = 0, [], set()
    for item, _, out, own_check in records:
        want = expected.get(item)
        known_defect = want is not None and want.startswith("raise ")
        if out.startswith("raise "):
            failed += 1
            if out != want:
                unexpected.append(f"{item}: {out}")
        elif own_check is not None:
            failed += 1
            unexpected.append(f"{item}: {own_check}")
        elif out != want:
            if known_defect:
                fixed.add(item)
            else:
                failed += 1
                unexpected.append(f"{item}: output {out} != recorded {want}")
    missing = sorted(set(expected) - {r[0] for r in records})
    unexpected += [f"{item}: not run" for item in missing]
    return {"failed": failed, "unexpected": unexpected, "fixed": sorted(fixed)}


def source_identity() -> dict:
    digest = hashlib.sha256()
    src = os.path.join("src", "tropdeg")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        lines = proc.stdout.split()
        if proc.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def reference_scale(passes) -> float:
    """Factor that takes this run's timings to the reference host speed: the
    reference kernel time over the median of the passes' calibration blocks."""
    return CAL_REF_S / statistics.median(s for p in passes for s in p["cal_s"])


def end_to_end(passes, setup_samples, scale: float) -> dict:
    lat = sorted(r[1] * 1e3 * scale for p in passes for r in p["items"])
    loop_s = sum(p["loop_s"] for p in passes) * scale
    return {
        "items_per_s": {"value": len(lat) / loop_s, "unit": "1/s"},
        "item_ms_p50": {"value": quantile(lat, 0.5), "unit": "ms"},
        "item_ms_p90": {"value": quantile(lat, 0.9), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_samples) * scale, "unit": "s"},
        "peak_rss_mb": {"value": max(p["peak_rss_kib"] for p in passes) / 1024,
                        "unit": "MiB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", default=os.path.join(BENCH, "expected.json"),
                        help="recorded outcomes to check against")
    parser.add_argument("--record", action="store_true",
                        help="write this run's outcomes to --expected instead")
    parser.add_argument("--limit", type=int, default=None,
                        help="first N generator seeds or CLI commands, one pass "
                             "(the benchmark's self-test)")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print(f"not a tropdeg checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    layertrace.resolve_all()

    run = Run(args.workload, args.seed, args.limit)
    try:
        reps = range(SETUP_REPEATS[args.workload])
        setup_samples = run.setup(reps[:(len(reps) + 1) // 2])
        inputs = run.inputs
        min_items = worker.MIN_ITEMS if args.limit is None else 1
        # a traced run measures the minimum passes, untraced and traced
        seconds = 0 if args.trace else args.seconds
        passes = run.passes(inputs, seconds, min_items, traced=False)
        traced = run.passes(inputs, 0, min_items, traced=True) if args.trace else []
        setup_samples += run.setup(reps[(len(reps) + 1) // 2:])
    finally:
        run.close()

    records = [r for p in passes + traced for r in p["items"]]
    if args.record:
        return record(args, records)
    with open(args.expected, encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]
    if args.limit is not None:
        expected = {item: out for item, out in expected.items()
                    if worker.input_index(item) < args.limit}
    verdict = check(records, expected)

    if args.trace:
        ratio = (sum(p["loop_s"] for p in traced) * reference_scale(traced) /
                 (sum(p["loop_s"] for p in passes[:len(traced)])
                  * reference_scale(passes[:len(traced)])))
        metrics = layertrace.per_layer_metrics(
            layertrace.merge([p["counters"] for p in traced]), ratio)
    else:
        metrics = end_to_end(passes, setup_samples, reference_scale(passes))
    attempted = len(records)
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            **source_identity(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "passes": len(passes), "traced_passes": len(traced),
            "items": attempted, "items_per_pass": len(passes[0]["items"]),
            "setup_samples_s": setup_samples,
            "reference_scale": reference_scale(passes),
            "wall_clock": {name: metric["value"] for name, metric in
                           end_to_end(passes, setup_samples, 1.0).items()},
            "failed_frac": verdict["failed"] / attempted,
            "known_defects_fixed": verdict["fixed"],
            "unexpected": verdict["unexpected"][:20]}

    for name, metric in metrics.items():
        print(f"{args.workload:16s} {name:48s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{args.workload:16s} {'failed_frac':48s} {meta['failed_frac']:>14.6g} "
          f"ratio ({verdict['failed']} of {attempted} items)")
    for line in verdict["unexpected"][:20]:
        print(f"UNEXPECTED {line}")
    os.makedirs(os.path.join(run.work, "results"), exist_ok=True)
    result = {"correct": not verdict["unexpected"], "attempted": attempted,
              "failed": verdict["failed"], "metrics": metrics}
    with open(os.path.join(run.work, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, **result,
                   "items": [[item, ms * 1e3, out] for item, ms, out, _ in records]}, fh)
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


def record(args, records) -> int:
    """Store the outcomes of a run at the recorded commit."""
    bad = [f"{item}: {check}" for item, _, _, check in records if check]
    if bad:
        print("not recording; own checks fail:\n" + "\n".join(bad), file=sys.stderr)
        return 1
    try:
        with open(args.expected, encoding="utf-8") as fh:
            expected = json.load(fh)
    except FileNotFoundError:
        expected = {}
    expected[args.workload] = {item: out for item, _, out, _ in records}
    with open(args.expected, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(expected[args.workload])} outcomes for {args.workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
