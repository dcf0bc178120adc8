"""Per-layer tracing of tropdeg from outside the program.

``install()`` wraps the public functions listed in ``LAYERS`` and rebinds
the wrapper in every ``tropdeg`` module namespace that holds the original
object, because ``from .linalg import rref`` copies the binding into
``polyhedra``.  Classmethods on ``Polyhedron`` are wrapped as classmethods.

Every wrapped call becomes a span (function, start, end, parent span, item
id) kept in memory; ``write_spans`` writes them out when the run ends.  A
function's self time is its span time minus the time of its wrapped child
spans.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time

#: module -> public functions traced in it (``Class.method`` for methods)
LAYERS = {
    "linalg": ["rref", "snf", "int_kernel", "lattice_index", "in_span"],
    "polyhedra": ["dual_description", "Polyhedron.from_hrep",
                  "Polyhedron.from_generators", "Polyhedron.all_faces",
                  "common_refinement", "is_covered"],
    "cycles": ["validate_complex", "check_balancing", "codim1_faces", "product"],
    "ops": ["stable_intersect", "pushforward_linear", "minkowski_sum_subspace",
            "projection_dim"],
    "multidegree": ["multidegree", "pullback", "rank_function",
                    "positivity_criterion"],
    "cycfile": ["loads"],
    "cli": ["main"],
}

NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]

#: counters read from arguments, return values and program state
EXTRA_COUNTS = [
    "polyhedra.dual_description.constraints_in",
    "polyhedra.dual_description.rays_out",
    "ops.stable_intersect.redraws",
]


def _resolve(module, dotted: str):
    """(owner, attribute, raw attribute) for ``name`` or ``Class.name``."""
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def resolve_all() -> dict:
    """Import every traced module and resolve every traced name.

    Raises ``LookupError`` naming each function that no longer resolves, so
    a rename in the program fails loudly instead of dropping a metric.
    """
    found, missing = {}, []
    for mod_name, fns in LAYERS.items():
        module = importlib.import_module(f"tropdeg.{mod_name}")
        for fn in fns:
            try:
                found[f"{mod_name}.{fn}"] = _resolve(module, fn)
            except (AttributeError, KeyError):
                missing.append(f"tropdeg.{mod_name}.{fn}")
    from tropdeg.polyhedra import Polyhedron
    if not isinstance(getattr(Polyhedron, "_interned", None), dict):
        missing.append("tropdeg.polyhedra.Polyhedron._interned")
    if missing:
        raise LookupError("traced names no longer resolve: " + ", ".join(missing))
    return found


class Tracer:
    """In-memory span store plus the counters derived at layer boundaries."""

    def __init__(self):
        self.item = None
        self.spans: list[tuple] = []   # (name index, start ns, end ns, parent, item)
        self.calls = [0] * len(NAMES)
        self.self_ns = [0] * len(NAMES)
        self.extra = dict.fromkeys(EXTRA_COUNTS, 0)
        self.intern_calls = 0
        self.intern_hits = 0
        self.balance_calls = 0
        self.balance_cached = 0
        self._stack: list[list] = []   # open spans: [span index, child ns, child calls]
        self._pool = None

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        targets = resolve_all()
        from tropdeg.polyhedra import Polyhedron
        self._pool = Polyhedron._interned
        modules = [m for name, m in list(sys.modules.items())
                   if (name == "tropdeg" or name.startswith("tropdeg.")) and m]
        for idx, (name, (owner, attr, raw)) in enumerate(targets.items()):
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(idx, name, raw.__func__)))
                continue
            wrapper = self._wrap(idx, name, raw)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapper)

    def _wrap(self, idx: int, name: str, func):
        clock = time.perf_counter_ns
        stack, spans = self._stack, self.spans
        hook = self._hooks().get(name)

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            span = len(spans)
            spans.append(None)
            frame = [span, 0, 0]
            if stack:
                stack[-1][2] += 1
            stack.append(frame)
            pool_before = len(self._pool)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                total = end - start
                if stack:
                    stack[-1][1] += total
                self.calls[idx] += 1
                self.self_ns[idx] += total - frame[1]
                spans[span] = (idx, start, end, parent, self.item)
            if hook:
                hook(args, result, pool_before, frame[2])
            return result

        return functools.update_wrapper(traced, func)

    # -- counters read at layer boundaries ------------------------------------

    def _hooks(self) -> dict:
        return {"polyhedra.dual_description": self._dual_description,
                "polyhedra.Polyhedron.from_hrep": self._intern,
                "polyhedra.Polyhedron.from_generators": self._intern,
                "cycles.check_balancing": self._balance,
                "ops.stable_intersect": self._redraws}

    def _dual_description(self, args, result, pool_before, children):
        """Double-description sizes: constraint rows in, extreme rays out."""
        self.extra["polyhedra.dual_description.constraints_in"] += len(args[1])
        self.extra["polyhedra.dual_description.rays_out"] += len(result[0])

    def _intern(self, args, result, pool_before, children):
        """A hit returns an instance that was in the pool before the call."""
        added = itertools.islice(reversed(self._pool),
                                 max(0, len(self._pool) - pool_before))
        self.intern_calls += 1
        if result.key not in set(added):
            self.intern_hits += 1

    def _balance(self, args, result, pool_before, children):
        """A check that calls no traced child answered from a verdict the
        cycle already carried."""
        self.balance_calls += 1
        if children == 0:
            self.balance_cached += 1

    def _redraws(self, args, result, pool_before, children):
        """Displacement redraws recorded on stable-intersection results."""
        self.extra["ops.stable_intersect.redraws"] += \
            result._cache.get("displacement_redraws", 0)

    # -- results ------------------------------------------------------------

    def counters(self) -> dict:
        """Raw per-process counters; ``merge`` adds several of them up."""
        return {
            "calls": dict(zip(NAMES, self.calls)),
            "self_ns": dict(zip(NAMES, self.self_ns)),
            "extra": dict(self.extra),
            "intern": [self.intern_hits, self.intern_calls],
            "balance": [self.balance_cached, self.balance_calls],
            "pool_entries": len(self._pool),
            "spans": len(self.spans),
        }

    def write_spans(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent, item."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\titem\n")
            for idx, start, end, parent, item in self.spans:
                fh.write(f"{NAMES[idx]}\t{start}\t{end}\t{parent}\t{item}\n")


def merge(parts: list[dict]) -> dict:
    """Sum the counters of several processes; the pool size is the largest."""
    out = {"calls": dict.fromkeys(NAMES, 0), "self_ns": dict.fromkeys(NAMES, 0),
           "extra": dict.fromkeys(EXTRA_COUNTS, 0), "intern": [0, 0],
           "balance": [0, 0], "pool_entries": 0, "spans": 0}
    for part in parts:
        for group in ("calls", "self_ns", "extra"):
            for key, value in part[group].items():
                out[group][key] += value
        for group in ("intern", "balance"):
            out[group] = [a + b for a, b in zip(out[group], part[group])]
        out["pool_entries"] = max(out["pool_entries"], part["pool_entries"])
        out["spans"] += part["spans"]
    return out


def per_layer_metrics(counters: dict, overhead_ratio: float) -> dict:
    """The per-layer metrics in the benchmark's output format."""
    metrics = {}
    for name in NAMES:
        metrics[f"{name}.calls"] = {"value": counters["calls"][name], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": counters["self_ns"][name] / 1e9,
                                     "unit": "s"}
    for name in EXTRA_COUNTS:
        metrics[name] = {"value": counters["extra"][name], "unit": "count"}
    hits, calls = counters["intern"]
    cached, checks = counters["balance"]
    metrics["polyhedra.intern_pool_entries"] = {"value": counters["pool_entries"],
                                                "unit": "count"}
    metrics["polyhedra.intern_hit_ratio"] = {"value": hits / calls if calls else 0.0,
                                             "unit": "ratio"}
    metrics["cycles.check_balancing.cached_ratio"] = {
        "value": cached / checks if checks else 0.0, "unit": "ratio"}
    metrics["trace.overhead_ratio"] = {"value": overhead_ratio, "unit": "ratio"}
    return metrics
