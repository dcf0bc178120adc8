"""Command-line interface with machine-readable JSON reports.

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
from fractions import Fraction

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


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT
    try:
        report, out_cycle = args.handler(args)
    except (InputError, OSError) as exc:
        _print_report({"command": args.command, "error": str(exc)})
        return EXIT_INPUT
    except InvariantError as exc:
        _print_report({"command": args.command, "error": str(exc)})
        return EXIT_INVARIANT
    except ContractError as exc:
        _print_report({"command": args.command, "error": str(exc)})
        return EXIT_CONTRACT
    except TropdegError as exc:
        _print_report({"command": args.command, "error": str(exc)})
        return EXIT_CONTRACT
    if out_cycle is not None and args.output:
        cycfile.save(args.output, out_cycle)
    _print_report(report)
    return EXIT_OK


def _print_report(report) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=1) + "\n")


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tropdeg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, handler, help_, files=1, positional=()):
        p = sub.add_parser(name, help=help_)
        if files == 1:
            p.add_argument("file", help="cycle file")
        else:
            for i in range(files):
                p.add_argument(f"file{i + 1}", help="cycle file")
        for extra, nargs, help2 in positional:
            p.add_argument(extra, nargs=nargs, help=help2)
        p.add_argument("--seed", type=int, default=None,
                       help="seed (default: TROPDEG_SEED or 0)")
        p.add_argument("--type", dest="type_vector", default=None,
                       help="type vector n1,...,nk")
        p.add_argument("--blocks", dest="block_subset", default=None,
                       help="block subset i,j,...")
        p.add_argument("--strategy", default="coords",
                       help="admissibility strategy: coords|spans|random:N (+-joined)")
        p.add_argument("--divisor", action="append", default=[],
                       metavar="i:FILE", help="override the block-i divisor")
        p.add_argument("--mode", choices=["criterion", "bruteforce"],
                       default="criterion")
        p.add_argument("-o", "--output", default=None,
                       help="write the resulting cycle file here")
        p.set_defaults(handler=handler)
        return p

    cmd("check-balance", _cmd_check_balance, "validate and check balancing")
    cmd("intersect", _cmd_intersect, "stable intersection of two cycles", files=2)
    cmd("degree", _cmd_degree, "degree of a 0-dimensional cycle")
    cmd("recession", _cmd_recession, "recession cycle (a fan)")
    cmd("translate", _cmd_translate, "translate a cycle",
        positional=[("vector", None, "translation vector, rationals comma-separated")])
    cmd("product", _cmd_product, "direct product of two cycles", files=2)
    cmd("minkowski", _cmd_minkowski, "Minkowski sum with span of integer vectors",
        positional=[("vectors", "+", "integer vectors, e.g. 0,0,0,1")])
    cmd("project", _cmd_project, "push forward along a block projection (--blocks)")
    cmd("hyperplane", _cmd_hyperplane, "tropical hyperplane from m+1 coefficients",
        files=0, positional=[("coeffs", None, "c0,c1,...,cm")])
    cmd("positive-divisor", _cmd_positive_divisor, "positivity of a divisor")
    cmd("pair-positive", _cmd_pair_positive,
        "positivity of a complementary-dimension stable intersection", files=2)
    cmd("admissible", _cmd_admissible, "translation-admissibility refutation search")
    cmd("multidegree", _cmd_multidegree, "multidegree of the given type (--type)")
    cmd("ranks", _cmd_ranks, "projection dimensions over all block subsets")
    cmd("criterion", _cmd_criterion, "projection-rank positivity criterion (--type)")
    cmd("msupp", _cmd_msupp, "type vectors with positive multidegree (--mode)")
    cmd("submodular", _cmd_submodular, "submodularity of the rank function")
    cmd("facet-witness", _cmd_facet_witness, "facet witnessing the criterion (--type)")
    return parser


# -- helpers -----------------------------------------------------------------

def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("TROPDEG_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"bad TROPDEG_SEED {env!r}") from exc
    return 0


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


def _require(args, attr, flag):
    value = getattr(args, attr)
    if value is None:
        raise InputError(f"{args.command} requires {flag}")
    return value


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
        divisor, _ = _load(path)
        divs = divs.replaced(block, divisor)
    return divs


def _report(args, inputs, outputs, seed=None, caveats=()):
    report = {
        "command": args.command,
        "inputs": inputs,
        "outputs": outputs,
        "caveats": sorted(caveats),
    }
    if seed is not None:
        report["seed"] = seed
    return report


def _cycle_summary(cycle: TropicalCycle) -> dict:
    return {
        "blocks": list(cycle.ambient.blocks),
        "dim": cycle.dim,
        "facets": len(cycle.support_facets),
        "total_weight": sum(f.weight for f in cycle.support_facets),
    }


def _pushforward_report(args, info, result, outputs):
    """Report and output cycle of a ``PushforwardResult``."""
    outputs["pure"] = result.is_pure
    if not result.is_pure:
        outputs["impurity"] = str(result.impurity)
        return _report(args, [info], outputs), None
    outputs["cycle"] = _cycle_summary(result.cycle)
    caveats = []
    if result.absorbed:
        outputs["absorbed_facets"] = list(result.absorbed)
        caveats.append("lower-dimensional image facets absorbed")
    return _report(args, [info], outputs, caveats=caveats), result.cycle


def _require_balance(cycle) -> None:
    report = cyc.complex_report(cycle)
    if not report.ok:
        raise ContractError(f"input is not a valid complex: {report}")
    cyc.require_balanced(cycle)


# -- command handlers ---------------------------------------------------------

def _cmd_check_balance(args):
    cycle, info = _load(args.file)
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
    return _report(args, [info], outputs), None


def _cmd_intersect(args):
    c1, i1 = _load(args.file1)
    c2, i2 = _load(args.file2)
    _require_balance(c1)
    _require_balance(c2)
    seed = _seed(args)
    out = ops.stable_intersect(c1, c2, seed=seed)
    outputs = {"cycle": _cycle_summary(out)}
    if out.dim in (None, 0):
        outputs["degree"] = cyc.degree0(out)
    outputs["displacement_redraws"] = out._cache.get("displacement_redraws", 0)
    return _report(args, [i1, i2], outputs, seed=seed), out


def _cmd_degree(args):
    cycle, info = _load(args.file)
    return _report(args, [info], {"degree": cyc.degree0(cycle)}), None


def _cmd_recession(args):
    cycle, info = _load(args.file)
    _require_balance(cycle)
    out = cyc.recession_cycle(cycle)
    return _report(args, [info], {"cycle": _cycle_summary(out)}), out


def _cmd_translate(args):
    cycle, info = _load(args.file)
    vector = _parse_rats(args.vector, "vector")
    out = cyc.translate(cycle, vector)
    return _report(args, [info], {"cycle": _cycle_summary(out)}), out


def _cmd_product(args):
    c1, i1 = _load(args.file1)
    c2, i2 = _load(args.file2)
    out = cyc.product(c1, c2)
    return _report(args, [i1, i2], {"cycle": _cycle_summary(out)}), out


def _cmd_minkowski(args):
    cycle, info = _load(args.file)
    _require_balance(cycle)
    vectors = [_parse_ints(v, "vector") for v in args.vectors]
    result = ops.minkowski_sum_subspace(cycle, vectors)
    return _pushforward_report(args, info, result, {})


def _cmd_project(args):
    cycle, info = _load(args.file)
    _require_balance(cycle)
    subset = _parse_ints(_require(args, "block_subset", "--blocks"), "--blocks")
    result = ops.projection_pushforward(cycle, subset)
    outputs = {"projection_dim": ops.projection_dim(cycle, subset)}
    return _pushforward_report(args, info, result, outputs)


def _cmd_hyperplane(args):
    coeffs = _parse_rats(args.coeffs, "coefficients")
    if len(coeffs) < 2:
        raise InputError("need at least c0,c1")
    out = ops.tropical_hyperplane(coeffs)
    return _report(args, [], {"cycle": _cycle_summary(out)}), out


def _cmd_positive_divisor(args):
    cycle, info = _load(args.file)
    positive, witness = ops.is_positive_divisor(cycle)
    outputs = {"positive": positive}
    if witness is not None:
        outputs["witness_line"] = list(witness)
    return _report(args, [info], outputs), None


def _cmd_pair_positive(args):
    c1, i1 = _load(args.file1)
    c2, i2 = _load(args.file2)
    positive, witness = ops.pair_positive(c1, c2)
    outputs = {"positive": positive}
    if witness is not None:
        outputs["witness_facets"] = list(witness)
    return _report(args, [i1, i2], outputs), None


def _cmd_admissible(args):
    cycle, info = _load(args.file)
    _require_balance(cycle)
    seed = _seed(args)
    verdict = ops.check_admissible(cycle, strategy=args.strategy, seed=seed)
    outputs = {"status": verdict.status,
               "strategy": verdict.strategy,
               "tested": verdict.tested}
    if verdict.witness is not None:
        outputs["witness_subspace"] = [list(v) for v in verdict.witness]
    caveats = ["refutation search only; NoCounterexampleFound is not a proof"]
    return _report(args, [info], outputs, seed=seed, caveats=caveats), None


def _cmd_multidegree(args):
    cycle, info = _load(args.file)
    _require_balance(cycle)
    n = _parse_ints(_require(args, "type_vector", "--type"), "--type")
    divs = _divisors(args, cycle)
    seed = _seed(args)
    value = md.multidegree(cycle, n, divs, seed=seed)
    return _report(args, [info], {"type": list(n), "multidegree": value},
                   seed=seed), None


def _cmd_ranks(args):
    cycle, info = _load(args.file)
    ranks = md.rank_function(cycle)
    table = {",".join(map(str, s)) or "{}": r for s, r in ranks.table}
    return _report(args, [info], {"ranks": table}), None


def _cmd_criterion(args):
    cycle, info = _load(args.file)
    n = _parse_ints(_require(args, "type_vector", "--type"), "--type")
    result = md.positivity_criterion(cycle, n)
    outputs = {"type": list(n), "holds": result.holds}
    if result.violating_subset is not None:
        outputs["violating_subset"] = list(result.violating_subset)
    outputs["facet_witness_found"] = result.facet_witness is not None
    return _report(args, [info], outputs, caveats=[result.caveat]), None


def _cmd_msupp(args):
    cycle, info = _load(args.file)
    seed = _seed(args)
    divs = _divisors(args, cycle) if args.mode == "bruteforce" else None
    support = md.msupp(cycle, divs, mode=args.mode, seed=seed)
    outputs = {"mode": args.mode, "msupp": sorted(list(n) for n in support)}
    caveats = []
    if args.mode == "criterion":
        caveats.append(md.ADMISSIBILITY_CAVEAT)
    return _report(args, [info], outputs, seed=seed, caveats=caveats), None


def _cmd_submodular(args):
    cycle, info = _load(args.file)
    ranks = md.rank_function(cycle)
    ok, witness = md.check_submodular(ranks)
    outputs = {"submodular": ok}
    if witness is not None:
        outputs["violating_pair"] = [list(witness[0]), list(witness[1])]
    return _report(args, [info], outputs), None


def _cmd_facet_witness(args):
    cycle, info = _load(args.file)
    n = _parse_ints(_require(args, "type_vector", "--type"), "--type")
    facet = md.facet_witness(cycle, n)
    outputs = {"type": list(n), "found": facet is not None}
    if facet is not None:
        outputs["facet"] = {
            "vertices": [[cycfile.rational_str(x) for x in v]
                         for v in facet.poly.vertices],
            "rays": [list(r) for r in facet.poly.rays],
            "lineality": [list(l) for l in facet.poly.lineality],
            "weight": facet.weight,
        }
    return _report(args, [info], outputs), None


if __name__ == "__main__":
    sys.exit(main())
