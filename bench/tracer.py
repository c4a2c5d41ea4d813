"""Per-layer tracing from outside the program.

The tracer replaces public names that ``flockpp`` looks up at call time
(module attributes, ``ReachGraph.__init__``, and ``connected_components`` as
``flockpp.core`` reaches it through its ``csgraph`` module attribute) with
wrappers that time each call.  Only the outermost call of each group is a
span; a nested call of the same group (``build_best`` calling
``build_protocol_b``) passes straight through.  A span that closes adds its
duration to every open ancestor, so self times such as "reach minus graph
build" come out without instrumenting the program.

Installing the tracer changes no behaviour: each wrapper returns what the
wrapped callable returns, and :meth:`Tracer.uninstall` restores every name.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    group: str
    name: str
    op: str
    start: float
    parent: int | None
    end: float = 0.0
    inner: dict[str, float] = field(default_factory=dict)


class _ModuleProxy:
    """Stands in for a module so that one attribute can be wrapped for a
    single caller without touching the module itself."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


def _protocol_rules(acc, result, _args):
    acc["rules_built"] += len(result.delta)


def _graph_size(acc, g, _args):
    acc["nodes"] += g.num_nodes
    acc["edges"] += g.num_edges
    acc["max_nodes"] = max(acc["max_nodes"], g.num_nodes)


def _sizes_swept(acc, g, args):
    _graph_size(acc, g, args)
    acc["sizes_swept"] += 1


def _trace_steps(acc, steps, _args):
    acc["trace_steps"] += len(steps)


def _table_rows(acc, rows, _args):
    acc["table_rows"] += len(rows)


def _sim_steps(acc, rep, _args):
    acc["sim_steps"] += rep.steps_taken


class Tracer:
    """Wraps the layer boundaries of ``flockpp`` and accumulates spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.acc: defaultdict[str, float] = defaultdict(float)
        self.op = "setup"
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from flockpp import core, lowerbound, protocols, sim, verify

        proxy = _ModuleProxy(core.csgraph)
        self._swap(core, "csgraph", proxy)
        self._wrap(proxy, "connected_components", "scc")
        self._wrap(core.ReachGraph, "__init__", "graph")
        self._wrap(verify, "reach", "reach", _graph_size)
        self._wrap(lowerbound, "reach", "reach", _sizes_swept)
        self._wrap(verify, "can_reach_predicate", "closure")
        self._wrap(verify, "check_soundness", "soundness")
        self._wrap(verify, "check_completeness", "completeness")
        self._wrap(verify, "check_consensus", "consensus")
        self._wrap(verify, "encounter_trace", "trace", _trace_steps)
        self._wrap(verify, "state_count_table", "table", _table_rows)
        for module in (verify, protocols):
            for name in dir(module):
                if name.startswith("build_"):
                    self._wrap(module, name, "build", _protocol_rules)
        self._wrap(lowerbound, "occurrence_thresholds", "occurrence")
        self._wrap(lowerbound, "occurrence_upper_bounds", "fixpoint")
        self._wrap(sim, "run", "sim", _sim_steps)
        self._wrap(sim, "successors", "spot_check")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def _swap(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, owner, attr, group, on_result=None) -> None:
        orig = getattr(owner, attr)
        label = f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if group in self._open:
                return orig(*args, **kwargs)
            return self._call(group, label, orig, args, kwargs, on_result)

        self._swap(owner, attr, wrapper)

    # -- spans -------------------------------------------------------------

    def _call(self, group, label, fn, args, kwargs, on_result):
        parent = self._stack[-1] if self._stack else None
        span = Span(group, label, self.op, time.perf_counter(), parent)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        self._open.add(group)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._open.discard(group)
            dur = span.end - span.start
            self.acc[f"time.{group}"] += dur
            self.acc[f"calls.{group}"] += 1
            for i in self._stack:
                outer = self.spans[i]
                outer.inner[group] = outer.inner.get(group, 0.0) + dur
                self.acc[f"inner.{outer.group}.{group}"] += dur
        if on_result is not None:
            on_result(self.acc, result, args)
        return result

    def snapshot(self) -> dict[str, float]:
        return dict(self.acc)


def layer_metrics(setup: dict[str, float], total: dict[str, float], rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics for one set-up plus one round.

    ``setup`` is the accumulator after the set-up and ``total`` after the
    last round; round work is averaged over ``rounds``.  Rates are formed
    from the averaged sums.
    """
    keys = set(setup) | set(total)
    a = {k: setup.get(k, 0.0) + (total.get(k, 0.0) - setup.get(k, 0.0)) / rounds for k in keys}
    a["max_nodes"] = total.get("max_nodes", 0.0)
    g = lambda k: a.get(k, 0.0)  # noqa: E731
    explore_s = g("time.reach") - g("inner.reach.graph")
    return {
        "core.reach_calls": (g("calls.reach"), "count"),
        "core.reach_s": (g("time.reach"), "s"),
        "core.explore_s": (explore_s, "s"),
        "core.explore_nodes_per_s": (g("nodes") / explore_s if explore_s else 0.0, "nodes/s"),
        "core.nodes": (g("nodes"), "count"),
        "core.graph_s": (g("time.graph"), "s"),
        "core.scc_s": (g("time.scc"), "s"),
        "core.edges": (g("edges"), "count"),
        "core.max_nodes": (g("max_nodes"), "count"),
        "core.closure_calls": (g("calls.closure"), "count"),
        "core.closure_s": (g("time.closure"), "s"),
        "verify.soundness_s": (g("time.soundness"), "s"),
        "verify.completeness_s": (g("time.completeness") - g("inner.completeness.closure"), "s"),
        "verify.consensus_s": (g("time.consensus"), "s"),
        "verify.trace_calls": (g("calls.trace"), "count"),
        "verify.trace_s": (g("time.trace"), "s"),
        "verify.trace_steps": (g("trace_steps"), "count"),
        "verify.table_rows": (g("table_rows"), "count"),
        "verify.table_s": (g("time.table") - g("inner.table.build"), "s"),
        "protocols.build_calls": (g("calls.build"), "count"),
        "protocols.build_s": (g("time.build"), "s"),
        "protocols.rules_built": (g("rules_built"), "count"),
        "lowerbound.occurrence_calls": (g("calls.occurrence"), "count"),
        "lowerbound.occurrence_s": (g("time.occurrence"), "s"),
        "lowerbound.sizes_swept": (g("sizes_swept"), "count"),
        "lowerbound.fixpoint_s": (g("time.fixpoint"), "s"),
        "sim.runs": (g("calls.sim"), "count"),
        "sim.run_s": (g("time.sim"), "s"),
        "sim.steps": (g("sim_steps"), "count"),
        "sim.steps_per_s": (g("sim_steps") / g("time.sim") if g("time.sim") else 0.0, "steps/s"),
        "sim.spot_checks": (g("calls.spot_check"), "count"),
        "sim.spot_check_s": (g("time.spot_check"), "s"),
    }
