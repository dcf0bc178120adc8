"""Command-line interface with machine-readable JSON reports.

Each subcommand is one ``COMMANDS`` entry: its handler, its cycle-file and
positional arguments, the flags of ``FLAGS`` it reads (no other flag
parses) and whether its inputs must be valid, balanced complexes.  One
dispatcher loads the files, checks balance, resolves the seed, runs the
handler and builds the report; a handler only computes its outputs.

Exit codes: 0 success, 1 input or parse error, 2 contract violation
(an operation called outside its contract, e.g. unbalanced input where
balance is required), 3 internal invariant failure.  Identical command
line + seed reproduces byte-identical reports; TROPDEG_SEED provides the
default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import cycfile
from . import cycles as cyc
from . import multidegree as md
from . import ops
from .cycles import TropicalCycle
from .errors import ContractError, InputError, InvariantError, TropdegError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONTRACT = 2
EXIT_INVARIANT = 3

#: every flag a subcommand may declare: option strings, argparse keywords
FLAGS = {
    "seed": (("--seed",), dict(type=int, help="seed (default: TROPDEG_SEED or 0)")),
    "type": (("--type",), dict(help="type vector n1,...,nk")),
    "blocks": (("--blocks",), dict(help="block subset i,j,...")),
    "strategy": (("--strategy",), dict(default="coords", help=(
        "admissibility strategy: coords|spans|random:N (+-joined)"))),
    "divisor": (("--divisor",), dict(action="append", default=[], metavar="i:FILE",
                                     help="override the block-i divisor")),
    "mode": (("--mode",), dict(choices=["criterion", "bruteforce"],
                               default="criterion")),
    "output": (("-o", "--output"), dict(help="write the resulting cycle file here")),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _ArgumentError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT
    try:
        report = _run(args)
    except (InputError, OSError) as exc:
        _print_report({"command": args.command, "error": str(exc)})
        return EXIT_INPUT
    except InvariantError as exc:
        _print_report({"command": args.command, "error": str(exc)})
        return EXIT_INVARIANT
    except TropdegError as exc:
        _print_report({"command": args.command, "error": str(exc)})
        return EXIT_CONTRACT
    _print_report(report)
    return EXIT_OK


def _run(args) -> dict:
    """Load, check and seed as ``COMMANDS`` declares, run the handler, save
    and summarize its output cycle, and return the report."""
    spec = COMMANDS[args.command]
    loaded = [_load(getattr(args, name)) for name in spec.files]
    cycles = [cycle for cycle, _ in loaded]
    if spec.balanced:
        for cycle in cycles:
            _require_balance(cycle)
    if "seed" in spec.flags:
        args.seed = _seed(args)
    outputs, out_cycle, caveats = spec.handler(args, *cycles)
    if out_cycle is not None:
        outputs["cycle"] = _cycle_summary(out_cycle)
        if "output" in spec.flags and args.output:
            cycfile.save(args.output, out_cycle)
    report = {"command": args.command, "inputs": [info for _, info in loaded],
              "outputs": outputs, "caveats": sorted(caveats)}
    if "seed" in spec.flags:
        report["seed"] = args.seed
    return report


def _print_report(report) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=1) + "\n")


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tropdeg", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        p = sub.add_parser(name, help=spec.help, allow_abbrev=False)
        for file in spec.files:
            p.add_argument(file, help="cycle file")
        for arg, nargs, help_ in spec.positional:
            p.add_argument(arg, nargs=nargs, help=help_)
        for flag in spec.flags:
            names, kwargs = FLAGS[flag]
            p.add_argument(*names, **kwargs)
    return parser


# -- helpers -----------------------------------------------------------------

def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("TROPDEG_SEED", "0")
    try:
        return int(env)
    except ValueError as exc:
        raise InputError(f"bad TROPDEG_SEED {env!r}") from exc


def _load(path) -> tuple[TropicalCycle, dict]:
    with open(path, "rb") as fh:
        raw = fh.read()
    cycle = cycfile.loads_bytes(raw, path)
    return cycle, {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}


def _parse_ints(text, what) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except (ValueError, AttributeError) as exc:
        raise InputError(f"bad {what} {text!r}") from exc


def _parse_rats(text, what) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError, AttributeError) as exc:
        raise InputError(f"bad {what} {text!r}") from exc


def _required_ints(args, flag) -> tuple[int, ...]:
    """The integers of a flag the command cannot run without."""
    if getattr(args, flag) is None:
        raise InputError(f"{args.command} requires --{flag}")
    return _parse_ints(getattr(args, flag), f"--{flag}")


def _divisors(args, cycle) -> md.DivisorSet:
    divs = md.DivisorSet.standard(cycle.ambient)
    for spec_item in args.divisor:
        try:
            block_str, path = spec_item.split(":", 1)
            block = int(block_str)
        except ValueError as exc:
            raise InputError(f"bad --divisor {spec_item!r}, want i:FILE") from exc
        if not 1 <= block <= cycle.ambient.k:
            raise InputError(f"--divisor block {block} out of 1..{cycle.ambient.k}")
        divs = divs.replaced(block, _load(path)[0])
    return divs


def _cycle_summary(cycle: TropicalCycle) -> dict:
    return {
        "blocks": list(cycle.ambient.blocks),
        "dim": cycle.dim,
        "facets": len(cycle.support_facets),
        "total_weight": sum(f.weight for f in cycle.support_facets),
    }


def _pushforward_result(result, outputs):
    """Outputs, output cycle and caveats of a ``PushforwardResult``."""
    outputs["pure"] = result.is_pure
    if not result.is_pure:
        outputs["impurity"] = str(result.impurity)
        return outputs, None, ()
    if not result.absorbed:
        return outputs, result.cycle, ()
    outputs["absorbed_facets"] = list(result.absorbed)
    return outputs, result.cycle, ["lower-dimensional image facets absorbed"]


def _require_balance(cycle) -> None:
    report = cyc.complex_report(cycle)
    if not report.ok:
        raise ContractError(f"input is not a valid complex: {report}")
    cyc.require_balanced(cycle)


# -- command handlers ---------------------------------------------------------
# Each takes the parsed arguments and the loaded cycle files and returns
# (outputs, output cycle or None, caveats).

def _cmd_check_balance(args, cycle):
    complex_report = cyc.complex_report(cycle)
    outputs = {"valid_complex": complex_report.ok,
               "pure": complex_report.pure,
               "weights_ok": complex_report.weights_ok,
               "bad_pairs": [list(p) for p in complex_report.bad_pairs]}
    if complex_report.ok:
        balance = cyc.check_balancing(cycle)
        outputs["balanced"] = balance.balanced
        outputs["violations"] = [
            [[cycfile.rational_str(x) for x in v] for v in rec.face.vertices]
            for rec in balance.violations]
    return outputs, None, ()


def _cmd_intersect(args, c1, c2):
    out = ops.stable_intersect(c1, c2, seed=args.seed)
    outputs = {"displacement_redraws": out._cache.get("displacement_redraws", 0)}
    if out.dim in (None, 0):
        outputs["degree"] = cyc.degree0(out)
    return outputs, out, ()


def _cmd_degree(args, cycle):
    return {"degree": cyc.degree0(cycle)}, None, ()


def _cmd_recession(args, cycle):
    return {}, cyc.recession_cycle(cycle), ()


def _cmd_translate(args, cycle):
    return {}, cyc.translate(cycle, _parse_rats(args.vector, "vector")), ()


def _cmd_product(args, c1, c2):
    return {}, cyc.product(c1, c2), ()


def _cmd_minkowski(args, cycle):
    vectors = [_parse_ints(v, "vector") for v in args.vectors]
    return _pushforward_result(ops.minkowski_sum_subspace(cycle, vectors), {})


def _cmd_project(args, cycle):
    subset = _required_ints(args, "blocks")
    result = ops.projection_pushforward(cycle, subset)
    return _pushforward_result(
        result, {"projection_dim": ops.projection_dim(cycle, subset)})


def _cmd_hyperplane(args):
    coeffs = _parse_rats(args.coeffs, "coefficients")
    if len(coeffs) < 2:
        raise InputError("need at least c0,c1")
    return {}, ops.tropical_hyperplane(coeffs), ()


def _cmd_positive_divisor(args, cycle):
    positive, witness = ops.is_positive_divisor(cycle)
    outputs = {"positive": positive}
    if witness is not None:
        outputs["witness_line"] = list(witness)
    return outputs, None, ()


def _cmd_pair_positive(args, c1, c2):
    positive, witness = ops.pair_positive(c1, c2)
    outputs = {"positive": positive}
    if witness is not None:
        outputs["witness_facets"] = list(witness)
    return outputs, None, ()


def _cmd_admissible(args, cycle):
    verdict = ops.check_admissible(cycle, strategy=args.strategy, seed=args.seed)
    outputs = {"status": verdict.status,
               "strategy": verdict.strategy,
               "tested": verdict.tested}
    if verdict.witness is not None:
        outputs["witness_subspace"] = [list(v) for v in verdict.witness]
    return outputs, None, [
        "refutation search only; NoCounterexampleFound is not a proof"]


def _cmd_multidegree(args, cycle):
    n = _required_ints(args, "type")
    value = md.multidegree(cycle, n, _divisors(args, cycle), seed=args.seed)
    return {"type": list(n), "multidegree": value}, None, ()


def _cmd_ranks(args, cycle):
    ranks = md.rank_function(cycle)
    table = {",".join(map(str, s)) or "{}": r for s, r in ranks.table}
    return {"ranks": table}, None, ()


def _cmd_criterion(args, cycle):
    n = _required_ints(args, "type")
    result = md.positivity_criterion(cycle, n)
    outputs = {"type": list(n), "holds": result.holds}
    if result.violating_subset is not None:
        outputs["violating_subset"] = list(result.violating_subset)
    outputs["facet_witness_found"] = result.facet_witness is not None
    return outputs, None, [result.caveat]


def _cmd_msupp(args, cycle):
    if args.mode == "criterion":
        if args.divisor:
            raise InputError("--divisor needs --mode bruteforce")
        divs, caveats = None, [md.ADMISSIBILITY_CAVEAT]
    else:
        divs, caveats = _divisors(args, cycle), []
    support = md.msupp(cycle, divs, mode=args.mode, seed=args.seed)
    return ({"mode": args.mode, "msupp": sorted(list(n) for n in support)},
            None, caveats)


def _cmd_submodular(args, cycle):
    ok, witness = md.check_submodular(md.rank_function(cycle))
    outputs = {"submodular": ok}
    if witness is not None:
        outputs["violating_pair"] = [list(witness[0]), list(witness[1])]
    return outputs, None, ()


def _cmd_facet_witness(args, cycle):
    n = _required_ints(args, "type")
    facet = md.facet_witness(cycle, n)
    outputs = {"type": list(n), "found": facet is not None}
    if facet is not None:
        outputs["facet"] = cycfile.facet_to_dict(facet)
    return outputs, None, ()


@dataclass(frozen=True)
class Command:
    handler: Callable
    help: str
    files: tuple[str, ...] = ("file",)
    positional: tuple = ()          # (name, nargs, help) after the files
    flags: tuple[str, ...] = ()     # keys of FLAGS
    balanced: bool = False          # inputs must be valid and balanced


_PAIR = ("file1", "file2")  # two cycle-file arguments

COMMANDS = {
    "check-balance": Command(_cmd_check_balance, "validate and check balancing"),
    "intersect": Command(_cmd_intersect, "stable intersection of two cycles", _PAIR,
                         flags=("seed", "output"), balanced=True),
    "degree": Command(_cmd_degree, "degree of a 0-dimensional cycle"),
    "recession": Command(_cmd_recession, "recession cycle (a fan)",
                         flags=("output",), balanced=True),
    "translate": Command(_cmd_translate, "translate a cycle", positional=((
        "vector", None, "translation vector, rationals comma-separated"),),
        flags=("output",)),
    "product": Command(_cmd_product, "direct product of two cycles", _PAIR,
                       flags=("output",)),
    "minkowski": Command(
        _cmd_minkowski, "Minkowski sum with span of integer vectors",
        positional=(("vectors", "+", "integer vectors, e.g. 0,0,0,1"),),
        flags=("output",), balanced=True),
    "project": Command(_cmd_project, "push forward along a block projection "
                       "(--blocks)", flags=("blocks", "output"), balanced=True),
    "hyperplane": Command(
        _cmd_hyperplane, "tropical hyperplane from m+1 coefficients", (),
        (("coeffs", None, "c0,c1,...,cm"),), flags=("output",)),
    "positive-divisor": Command(_cmd_positive_divisor, "positivity of a divisor"),
    "pair-positive": Command(
        _cmd_pair_positive,
        "positivity of a complementary-dimension stable intersection", _PAIR,
        balanced=True),
    "admissible": Command(
        _cmd_admissible, "translation-admissibility refutation search",
        flags=("seed", "strategy"), balanced=True),
    "multidegree": Command(
        _cmd_multidegree, "multidegree of the given type (--type)",
        flags=("seed", "type", "divisor"), balanced=True),
    "ranks": Command(_cmd_ranks, "projection dimensions over all block subsets"),
    "criterion": Command(_cmd_criterion,
                         "projection-rank positivity criterion (--type)",
                         flags=("type",)),
    "msupp": Command(_cmd_msupp, "type vectors with positive multidegree (--mode)",
                     flags=("seed", "mode", "divisor")),
    "submodular": Command(_cmd_submodular, "submodularity of the rank function"),
    "facet-witness": Command(_cmd_facet_witness,
                             "facet witnessing the criterion (--type)",
                             flags=("type",)),
}

if __name__ == "__main__":
    sys.exit(main())
