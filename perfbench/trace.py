"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces a module's public function with a timing wrapper
at the attribute its callers look up (``rshm.py`` and ``cuts.py`` reach every
traced function through a module or a module global), and puts the original
back on :meth:`Tracer.close`.  Nothing under ``src/`` changes.

Each call opens a span.  A span's self time is its duration minus the time
covered by the spans it opened, so the self times of all spans add up to
the time covered by top-level spans.  ``simplex.solve`` spans are keyed by
the solve that caused them: ``rdp`` or ``sp`` (inside ``mip.solve_mip`` on
that model), ``cglp`` (inside disjunctive separation) or ``bound`` (every
LP of the bound report).  The bound report builds its own scheduling models
and runs its own separation rounds; those calls open no span, so their time
(apart from their LPs) is ``cuts.bound_report.self_s`` and the
``scheduling.build_sp``, ``scheduling.sp.*`` and ``cuts.separate_disjunctive``
metrics cover the root solve alone.

A probe whose module or function no longer exists is skipped, and its
metrics are left out of the result.

The wrappers time their own bookkeeping, which gives the tracing overhead
directly.  (The difference between a traced and an untraced pass would
measure it too, but on a shared host that difference is dominated by how
fast the host happens to be, not by the wrappers.)

Aggregation: ``calls``, ``self_s``, ``pivots``, ``nodes``, ``cuts_added``,
``found`` and ``not_optimal`` are totals over the run.  Model sizes
(``vars``, ``rows``, ``nnz``, ``pruned_pairs``, ``largest_component``) are the
largest over the builds, ``scheduling.sp.components`` is the mean per build,
``scheduling.contract.ratio`` is contracted edges over original edges, and
``cuts.imp1_pct``/``imp2_pct`` are means over bound reports.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

PACKAGE = "platoonopt"
SIMPLEX_KEYS = ("rdp", "sp", "cglp", "bound")
MIP_KEYS = ("rdp", "sp")


@dataclass(frozen=True)
class Probe:
    module: str
    attr: str
    span: str
    metrics: tuple[str, ...]
    keyer: Callable | None = None       # (tracer, args, kwargs) -> key
    observe: Callable | None = None     # (tracer, key, args, kwargs, result)
    within: str | None = None           # no span while this span is open


class Tracer:
    """Spans and counters for one traced pass; use as a context manager."""

    def __init__(self, probes=None):
        self.stack: list[list] = []          # open spans: [label, child_s]
        self.stats: dict[str, float] = defaultdict(float)
        self.sizes: dict[str, list[float]] = defaultdict(list)     # max
        self.samples: dict[str, list[float]] = defaultdict(list)   # mean
        self.active: list[Probe] = []
        self.missing: list[str] = []
        self.overhead_s = 0.0                # time spent in the wrappers
        self.top_spans: list[tuple[float, float]] = []   # (start, end)
        self._saved: list[tuple] = []
        for probe in probes if probes is not None else PROBES:
            self._install(probe)

    def _install(self, probe: Probe) -> None:
        try:
            module = importlib.import_module(f"{PACKAGE}.{probe.module}")
        except ImportError:
            self.missing.append(f"{probe.module}.{probe.attr}")
            return
        fn = getattr(module, probe.attr, None)
        if not callable(fn):
            self.missing.append(f"{probe.module}.{probe.attr}")
            return
        self._saved.append((module, probe.attr, fn))
        setattr(module, probe.attr, self._wrap(fn, probe))
        self.active.append(probe)

    def _wrap(self, fn, probe: Probe):
        stack, stats = self.stack, self.stats

        def traced(*args, **kwargs):
            t_in = time.perf_counter()
            if probe.within and any(f[0] == probe.within for f in stack):
                self.overhead_s += time.perf_counter() - t_in
                return fn(*args, **kwargs)
            key = probe.keyer(self, args, kwargs) if probe.keyer else None
            label = probe.span if key is None else f"{probe.span}.{key}"
            frame = [label, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                dur = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_spans.append((t0, t1))
                stats[f"{label}.calls"] += 1
                stats[f"{label}.self_s"] += dur - frame[1]
            if probe.observe:
                probe.observe(self, key, args, kwargs, result)
            self.overhead_s += (t0 - t_in) + (time.perf_counter() - t1)
            return result

        traced.__wrapped__ = fn
        return traced

    def close(self) -> None:
        """Put every wrapped function back."""
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def names(self) -> list[str]:
        """Metric names of the probes that could be installed."""
        return [m for p in self.active for m in p.metrics]

    def metrics(self) -> dict[str, float]:
        """Every metric of an installed probe, zero where nothing ran."""
        stats = self.stats
        derived = dict(stats)
        derived.update((k, max(v)) for k, v in self.sizes.items())
        derived.update((k, sum(v) / len(v)) for k, v in self.samples.items())
        derived["rshm.similarity_index.hit_ratio"] = _ratio(
            stats["rshm.similarity_index.hits"],
            stats["rshm.similarity_index.calls"])
        derived["scheduling.contract.ratio"] = _ratio(
            stats["scheduling.contract.contracted_edges"],
            stats["scheduling.contract.original_edges"])
        return {name: float(derived.get(name, 0.0)) for name in self.names()}

    def self_time(self) -> float:
        """Sum of self times over the reported metrics."""
        return sum(v for k, v in self.metrics().items() if k.endswith(".self_s"))


# ---------------------------------------------------------------------------
# Keyers and observers
# ---------------------------------------------------------------------------

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _model_key(tracer, args, kwargs):
    model = args[0] if args else kwargs["model"]
    return model.name if model.name in MIP_KEYS else "other"


def _simplex_key(tracer, args, kwargs):
    for label, _child in reversed(tracer.stack):
        if label == "cuts.separate_disjunctive":
            return "cglp"
        if label.startswith("mip.solve_mip."):
            return label.rsplit(".", 1)[1]
        if label == "cuts.bound_report":
            return "bound"
    return "other"


def _observe_mip(tracer, key, args, kwargs, sol):
    tracer.stats[f"mip.solve_mip.{key}.nodes"] += sol.nodes
    tracer.stats[f"mip.solve_mip.{key}.cuts_added"] += sol.cuts_added
    tracer.stats["mip.solve_mip.not_optimal"] += sol.status != "optimal"


def _observe_simplex(tracer, key, args, kwargs, res):
    tracer.stats[f"simplex.solve.{key}.pivots"] += res.iterations


def _observe_rdp(tracer, key, args, kwargs, handle):
    model = handle.model
    tracer.sizes["routing.rdp.vars"].append(model.num_vars)
    tracer.sizes["routing.rdp.rows"].append(model.num_constraints)
    tracer.sizes["routing.rdp.nnz"].append(
        sum(len(con.coeffs) for con in model.constraints))


def _observe_similarity(tracer, key, args, kwargs, k):
    tracer.stats["rshm.similarity_index.hits"] += k is not None


def _observe_contract(tracer, key, args, kwargs, contracted):
    routes = args[0] if args else kwargs["routes"]
    tracer.stats["scheduling.contract.original_edges"] += len(routes.all_edges())
    tracer.stats["scheduling.contract.contracted_edges"] += len(contracted.cedges)


def _components(handle) -> list[int]:
    """Vehicle counts of the blocks of the scheduling model: vehicles are
    linked when the model holds a follower variable for the pair."""
    parent = {v: v for v in handle.contracted.vehicles}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v, _key in handle.f_col:
        parent[find(u)] = find(v)
    sizes: dict = defaultdict(int)
    for v in parent:
        sizes[find(v)] += 1
    return sorted(sizes.values(), reverse=True)


def _observe_sp(tracer, key, args, kwargs, handle):
    model = handle.model
    comps = _components(handle)
    tracer.sizes["scheduling.sp.vars"].append(model.num_vars)
    tracer.sizes["scheduling.sp.rows"].append(model.num_constraints)
    tracer.sizes["scheduling.sp.pruned_pairs"].append(len(handle.pruned))
    tracer.sizes["scheduling.sp.largest_component"].append(comps[0] if comps else 0)
    tracer.samples["scheduling.sp.components"].append(len(comps))


def _observe_separation(tracer, key, args, kwargs, found):
    tracer.stats["cuts.separate_disjunctive.found"] += found is not None


def _observe_report(tracer, key, args, kwargs, report):
    bd0 = report["lp_bound_plain"]
    bd1 = report["lp_bound_disj"]
    bd2 = report["lp_bound_disj_star"]
    tracer.samples["cuts.imp1_pct"].append(100.0 * _ratio(bd0 - bd1, bd0))
    tracer.samples["cuts.imp2_pct"].append(100.0 * _ratio(bd1 - bd2, bd1))


def _simplex_metrics():
    return tuple(f"simplex.solve.{k}.{m}" for k in SIMPLEX_KEYS
                 for m in ("calls", "pivots", "self_s"))


PROBES = (
    Probe("netmodel", "candidate_edge_set", "netmodel.candidate_edge_set",
          ("netmodel.candidate_edge_set.calls",
           "netmodel.candidate_edge_set.self_s")),
    Probe("routing", "build_rdp", "routing.build_rdp",
          ("routing.build_rdp.calls", "routing.build_rdp.self_s",
           "routing.rdp.vars", "routing.rdp.rows", "routing.rdp.nnz"),
          observe=_observe_rdp),
    Probe("routing", "initial_solution", "routing.initial_solution",
          ("routing.initial_solution.self_s",)),
    Probe("rshm", "update_cost_table", "rshm.update_cost_table",
          ("rshm.update_cost_table.self_s",)),
    Probe("rshm", "similarity_index", "rshm.similarity_index",
          ("rshm.similarity_index.calls", "rshm.similarity_index.self_s",
           "rshm.similarity_index.hit_ratio"),
          observe=_observe_similarity),
    Probe("mip", "solve_mip", "mip.solve_mip",
          ("mip.solve_mip.rdp.self_s", "mip.solve_mip.rdp.nodes",
           "mip.solve_mip.sp.self_s", "mip.solve_mip.sp.nodes",
           "mip.solve_mip.sp.cuts_added", "mip.solve_mip.not_optimal"),
          keyer=_model_key, observe=_observe_mip),
    Probe("simplex", "solve", "simplex.solve", _simplex_metrics(),
          keyer=_simplex_key, observe=_observe_simplex),
    Probe("scheduling", "contract", "scheduling.contract",
          ("scheduling.contract.self_s", "scheduling.contract.ratio"),
          observe=_observe_contract),
    Probe("scheduling", "build_sp", "scheduling.build_sp",
          ("scheduling.build_sp.self_s", "scheduling.sp.vars",
           "scheduling.sp.rows", "scheduling.sp.pruned_pairs",
           "scheduling.sp.components", "scheduling.sp.largest_component"),
          observe=_observe_sp, within="cuts.bound_report"),
    Probe("scheduling", "extract_platoons", "scheduling.extract_platoons",
          ("scheduling.extract_platoons.self_s",)),
    Probe("cuts", "separate_disjunctive", "cuts.separate_disjunctive",
          ("cuts.separate_disjunctive.calls", "cuts.separate_disjunctive.found",
           "cuts.separate_disjunctive.self_s"),
          observe=_observe_separation, within="cuts.bound_report"),
    Probe("cuts", "bound_improvement_report", "cuts.bound_report",
          ("cuts.bound_report.self_s", "cuts.imp1_pct", "cuts.imp2_pct"),
          observe=_observe_report),
)

def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("ratio"):
        return "ratio"
    return "count"
