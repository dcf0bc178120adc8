"""One benchmark process: input generation, set-up, or one measured pass.

``run.py`` starts every mode in a fresh interpreter from the root of the
checkout, so each pass begins with empty caches and an empty intern pool:

  python3 bench/worker.py gen  WORKLOAD --out INPUTS        inputs as cycfile text
  python3 bench/worker.py load WORKLOAD --inputs INPUTS     import and parse only
  python3 bench/worker.py pass WORKLOAD --seed N --inputs INPUTS --out RESULT
                               [--trace SPANS] [--pass-no N] [--limit N]
  python3 bench/worker.py cli  ITEM PREFIX -- ARGS...     traced ``tropdeg`` CLI

Each measured item records its latency, an outcome string (a digest of the
output, or ``raise <Class>: <message>``) and the result of the workload's
own independent check.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction

sys.path.insert(0, "src")
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

#: generator seeds; a prefix of the acceptance suite's ``range(200)``.  It
#: stops before seed 40, whose three items take about 30% of a pass of
#: seeds 0-49, so that two cold passes fit in one run
MD_SEEDS = range(40)
#: includes generator seed 27, whose (e1, e2, e4) sum raises InvariantError
MK_SEEDS = range(30)
#: each run measures at least this many items, in as many passes as that
#: takes, so the 90th percentile has at least ten items beyond it
MIN_ITEMS = 100

FIXTURES = "fixtures"
CLI_OUT = os.path.join("bench", ".work", "cli")
#: README commands on the shipped fixtures; ``intersect -o`` feeds ``degree``
CLI_COMMANDS = [
    ["check-balance", "fixtures/standard_line.cyc"],
    ["intersect", "fixtures/standard_line.cyc", "fixtures/scaled_line_d2.cyc",
     "--seed", "7", "-o", f"{CLI_OUT}/out.cyc"],
    ["degree", f"{CLI_OUT}/out.cyc"],
    ["multidegree", "fixtures/example33a.cyc", "--type", "1,1"],
    ["ranks", "fixtures/example33b.cyc"],
    ["criterion", "fixtures/example33b.cyc", "--type", "1,0,1"],
    ["msupp", "fixtures/example33a.cyc", "--mode", "bruteforce"],
    ["admissible", "fixtures/example33a.cyc", "--strategy", "coords"],
    ["admissible", "fixtures/example33b.cyc", "--strategy", "coords"],
    ["project", "fixtures/example33a.cyc", "--blocks", "1"],
    ["minkowski", "fixtures/example33a.cyc", "0,0,0,1"],
    ["hyperplane", "0,-1,-2", "-o", f"{CLI_OUT}/line.cyc"],
    ["translate", "fixtures/standard_line.cyc", "1,2"],
    ["product", "fixtures/diagonal_11.cyc", "fixtures/diagonal_11.cyc"],
    ["positive-divisor", "fixtures/standard_plane.cyc"],
    ["pair-positive", "fixtures/standard_line.cyc", "fixtures/scaled_line_d2.cyc"],
    ["submodular", "fixtures/example33b.cyc"],
    ["facet-witness", "fixtures/example33b.cyc", "--type", "1,0,1"],
]


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def raised(exc: BaseException) -> str:
    return f"raise {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def generate(workload: str, limit: int | None) -> dict:
    """Cycfile text per generator seed, from ``fixtures.generate_admissible``."""
    from tropdeg import cycfile, fixtures
    seeds = (MD_SEEDS if workload == "md_sweep" else MK_SEEDS)[:limit]
    return {str(s): cycfile.dumps(fixtures.generate_admissible(s)) for s in seeds}


def parse(workload: str, texts: dict) -> list:
    from tropdeg import cycfile
    if workload == "cli_cold":
        return [cycfile.load(os.path.join(FIXTURES, name))
                for name in sorted(os.listdir(FIXTURES)) if name.endswith(".cyc")]
    return [(int(s), cycfile.loads(text)) for s, text in texts.items()]


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

#: a fixed rational matrix; the calibration kernel row-reduces it
CAL_MATRIX = ((3, -1, 4, 1, -5, 9), (2, 6, -5, 3, 5, -8), (9, 7, 9, -3, 2, 3),
              (8, -4, 6, 2, 6, 4), (3, 3, -8, 3, 2, 7))
#: a calibration block of this length runs before and after every pass and,
#: between items, whenever this long has passed since the last one
CAL_BLOCK_S = 0.1
CAL_EVERY_S = 1.0


def calibration_kernel() -> int:
    """Fixed pure-Python work that does not use tropdeg: exact row reduction
    with ``Fraction``, integer arithmetic and a dict of tuples, the kinds of
    work tropdeg's own code does."""
    rows = [[Fraction(v) for v in r] for r in CAL_MATRIX]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                f = row[col]
                rows[i] = [a - f * b for a, b in zip(row, rows[rank])]
        rank += 1
    table = {}
    for i in range(500):
        table[(i, i % 13)] = [i]
    return rank + len(table) + sum((i * i) % 7 for i in range(3000))


CAL_RESULT = 5 + 500 + sum((i * i) % 7 for i in range(3000))


class Calibrator:
    """Times the calibration kernel in short blocks between items.  The host
    the benchmark runs on drifts in speed by 10-25% over minutes; timings
    are scaled by the kernel's speed in the same process and minutes."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.last = -math.inf

    def block(self) -> None:
        start = time.perf_counter()
        n = 0
        while True:
            if calibration_kernel() != CAL_RESULT:
                raise RuntimeError("calibration kernel gave a wrong result")
            n += 1
            end = time.perf_counter()
            if end - start >= CAL_BLOCK_S:
                break
        self.samples.append((end - start) / n)
        self.spent += end - start
        self.last = end

    def due(self) -> None:
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            self.block()


# ---------------------------------------------------------------------------
# measured loops
# ---------------------------------------------------------------------------

def md_items(cycles, wseed: int, tracer):
    """One item per (cycle, type vector); rank_function counts toward the
    cycle's first item.  The calls are those of the acceptance suite, whose
    displacement seed is the generator seed; the workload seed sets the
    order of the cycles.  A seeded displacement would change the cost of
    single items, and so the latency percentiles, from seed to seed."""
    from tropdeg.multidegree import (exchange_property, multidegree,
                                     positivity_criterion, rank_function,
                                     type_vectors)
    cycles = list(cycles)
    random.Random(wseed).shuffle(cycles)
    for gseed, cycle in cycles:
        start = time.perf_counter()
        if tracer:
            tracer.item = f"{gseed}:ranks"
        try:
            ranks, rank_error = rank_function(cycle), None
            rank_part = ranks.table
        except Exception as exc:  # every item of this cycle fails
            ranks, rank_error = None, exc
        positive = set()
        vectors = type_vectors(cycle)
        for pos, n in enumerate(vectors):
            item = f"{gseed}:{','.join(map(str, n))}"
            if tracer:
                tracer.item = item
            check = None
            try:
                if rank_error:
                    raise rank_error
                deg = multidegree(cycle, n, seed=gseed)
                crit = positivity_criterion(cycle, n, ranks)
            except Exception as exc:  # an item fails; the sweep goes on
                out = raised(exc)
            else:
                witness = crit.facet_witness
                out = digest((rank_part, deg, crit.holds, crit.violating_subset,
                              None if witness is None else
                              (witness.poly.key, witness.weight)))
                if deg > 0:
                    positive.add(n)
                if (deg > 0) != crit.holds:
                    check = f"multidegree {deg} but criterion {crit.holds}"
                elif pos == len(vectors) - 1 and not exchange_property(positive):
                    check = "positive support violates the exchange property"
            rank_part = None
            yield item, time.perf_counter() - start, out, check
            start = time.perf_counter()


def mk_items(cycles, wseed: int, tracer):
    """One item per proper nonzero coordinate subspace V of each cycle, the
    candidate set of ``check_admissible --strategy coords``, spanned by the
    coordinate vectors.  The workload seed sets the order of the cycles, so
    every seed does the same work."""
    from tropdeg import cycfile
    from tropdeg.ops import minkowski_sum_subspace
    cycles = list(cycles)
    random.Random(wseed).shuffle(cycles)
    for gseed, cycle in cycles:
        m = cycle.m
        for size in range(1, m):
            for coords in itertools.combinations(range(m), size):
                item = f"{gseed}:{','.join(map(str, coords))}"
                gens = [tuple(int(t == j) for t in range(m)) for j in coords]
                if tracer:
                    tracer.item = item
                check = None
                start = time.perf_counter()
                try:
                    result = minkowski_sum_subspace(cycle, gens)
                except Exception as exc:  # an item fails; the sweep goes on
                    elapsed = time.perf_counter() - start
                    out = raised(exc)
                else:
                    elapsed = time.perf_counter() - start
                    if result.is_pure:
                        out = digest(cycfile.dumps(result.cycle))
                    else:
                        out = digest(str(result.impurity))
                        check = f"impure sum of an admissible cycle: {result.impurity}"
                yield item, elapsed, out, check


#: the paper's answers, by index into CLI_COMMANDS
PAPER_ANSWERS = {
    # example33a has multidegree 0 in type (1,1) although the criterion holds
    3: lambda o: o["outputs"]["multidegree"] == 0,
    # tropical Bezout: standard line . (line of weight 2) has degree 2
    1: lambda o: o["outputs"]["degree"] == 2,
    2: lambda o: o["outputs"]["degree"] == 2,
    # example33b is refuted by the coordinate subspace V = R*e3
    8: lambda o: o["outputs"]["witness_subspace"] == [[0, 0, 1, 0]],
}


def cli_items(wseed: int, pass_no: int, spans_path: str | None, limit: int):
    """Each command in a fresh interpreter, in a seeded order per pass; the
    intersect/degree pair stays together."""
    os.makedirs(CLI_OUT, exist_ok=True)
    units = [[i] for i in range(limit) if i not in (1, 2)] + \
            [[i for i in (1, 2) if i < limit]]
    random.Random(f"{wseed}:{pass_no}").shuffle(units)
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"]
                                 if env.get("PYTHONPATH") else "")
    env.pop("TROPDEG_SEED", None)
    for index in itertools.chain.from_iterable(units):
        args = CLI_COMMANDS[index]
        item = f"{' '.join(args[:2])}#{index}"
        if spans_path:
            argv = [sys.executable, __file__, "cli", item,
                    f"{spans_path}.{index}", "--", *args]
        else:
            argv = [sys.executable, "-m", "tropdeg.cli", *args]
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=120)
        elapsed = time.perf_counter() - start
        out = f"exit {proc.returncode} {hashlib.sha256(proc.stdout).hexdigest()}"
        check = None
        if proc.returncode != 0:
            check = f"exit code {proc.returncode}: {proc.stderr.decode()[-200:]}"
        elif index in PAPER_ANSWERS:
            try:
                ok = PAPER_ANSWERS[index](json.loads(proc.stdout))
            except (ValueError, KeyError, TypeError) as exc:
                ok, check = False, f"unreadable report: {exc!r}"
            if not ok and check is None:
                check = "report differs from the paper's answer"
        yield item, elapsed, out, check


def input_index(item: str) -> int:
    """Generator seed or command index an item id belongs to."""
    return int(item.rsplit("#", 1)[1]) if "#" in item else int(item.split(":")[0])


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def run_pass(args):
    tracer = None
    if args.trace and args.workload != "cli_cold":
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    if args.workload == "cli_cold":
        limit = min(args.limit or len(CLI_COMMANDS), len(CLI_COMMANDS))
        items = cli_items(args.seed, args.pass_no, args.trace, limit)
    else:
        with open(args.inputs, encoding="utf-8") as fh:
            cycles = parse(args.workload, json.load(fh))
        loop = md_items if args.workload == "md_sweep" else mk_items
        items = loop(cycles, args.seed, tracer)
    records = []
    cal = Calibrator()
    cal.block()
    spent = cal.spent
    start = time.perf_counter()
    for item, elapsed, out, check in items:
        records.append([item, elapsed, out, check])
        cal.due()
    loop_s = time.perf_counter() - start - (cal.spent - spent)
    cal.block()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    result = {"loop_s": loop_s, "items": records, "cal_s": cal.samples,
              "peak_rss_kib": resource.getrusage(who).ru_maxrss}
    if tracer:
        tracer.write_spans(args.trace)
        result["counters"] = tracer.counters()
    elif args.trace:
        result["counters"] = gather_cli_traces(args.trace, limit)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def gather_cli_traces(spans_path: str, limit: int) -> dict:
    """Merge the traced CLI processes' counters and spans into one file."""
    from layertrace import merge
    parts = []
    with open(spans_path, "w", encoding="utf-8") as out:
        for index in range(limit):
            prefix = f"{spans_path}.{index}"
            with open(prefix + ".json", encoding="utf-8") as fh:
                parts.append(json.load(fh))
            with open(prefix + ".spans", encoding="utf-8") as fh:
                header = fh.readline()
                if index == 0:
                    out.write(header)
                out.writelines(fh)
            os.remove(prefix + ".json")
            os.remove(prefix + ".spans")
    return merge(parts)


def run_traced_cli(item: str, prefix: str, argv) -> int:
    """``tropdeg.cli.main`` under the tracer; spans and counters go to files."""
    from layertrace import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.item = item
    from tropdeg import cli
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.write_spans(prefix + ".spans")
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(tracer.counters(), fh)


def main(argv) -> int:
    if argv and argv[0] == "cli":
        return run_traced_cli(argv[1], argv[2], argv[4:])
    parser = argparse.ArgumentParser(description="one benchmark process")
    parser.add_argument("mode", choices=("gen", "load", "pass"))
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--inputs", help="generated inputs (JSON)")
    parser.add_argument("--out", help="where gen writes inputs, or pass its result")
    parser.add_argument("--trace", help="traced pass: span file to write")
    parser.add_argument("--pass-no", type=int, default=0)
    parser.add_argument("--limit", type=int, default=None,
                        help="first N generator seeds or CLI commands only")
    args = parser.parse_args(argv)
    if args.mode == "gen":
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(generate(args.workload, args.limit), fh)
    elif args.mode == "load":
        import tropdeg.cli  # noqa: F401  (the import every CLI call pays)
        texts = None
        if args.workload != "cli_cold":
            with open(args.inputs, encoding="utf-8") as fh:
                texts = json.load(fh)
        parse(args.workload, texts)
    else:
        run_pass(args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
