"""Per-layer tracing by wrapping the package's public functions from outside.

Each wrapped function records a span (name, operation id, parent span,
start, end) while an operation or a set-up is open, plus counts taken from
its arguments and result.  A wrapper is bound under every name that refers
to the original function in any loaded `gridcubes` module, so calls the
package makes internally (the CLI calling the planner, recovery calling the
flow layer) are seen too.  Outside an open window the wrappers call straight
through and record nothing, which keeps the benchmark's own checks out of
the trace.

Counting runs after a span's end; the span also records when counting
finished ("close"), and that time is charged to nobody: a parent's self time
excludes its children's whole [start, close] intervals, and an inclusive
time excludes every descendant's counting.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


def clock() -> float:
    """CPU seconds of this process and of the children it has waited for.

    Every time the benchmark reports is a difference of this clock.  Unlike
    wall time it leaves out the time the shared host gives to other tenants
    while the process is ready to run, which made wall-clock medians of the
    same code drift by a fifth between runs minutes apart.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class Span:
    name: str
    op: object
    parent: int | None
    start: float
    end: float = 0.0
    close: float = 0.0
    children_close: float = 0.0    # sum of children's close - start
    children_counting: float = 0.0  # counting time inside this span's children


def _count_region_from_rectangles(args, result, parent):
    return {"grid.region_cells": len(result)}


def _count_color_tree(args, result, parent):
    return {"hierarchy.tree_nodes": sum(1 for _ in result.nodes())}


def _count_greedy_divide(args, result, parent):
    return {"division.cover_cells": result.size}


def _count_build_flow_graph(args, result, parent):
    return {"flow.graph_nodes": result.node_count, "flow.graph_arcs": len(result.arc_to) // 2}


def _count_min_cut_plan(args, result, parent):
    # Plans that combined_plan computes as its fallback are not answers.
    if parent == "flow.combined_plan":
        return {}
    return {"flow.plan_points": result.size}


def _count_combined_plan(args, result, parent):
    return {"flow.plan_points": len(result.retrieval), "flow.combined_calls": 1,
            "flow.combined_merged": int(result.from_combined)}


def _count_ps_query_plan(args, result, parent):
    from gridcubes import prefix

    ps, region = args[0], args[1]
    corners = len(prefix.rectilinear_sum(ps, region)[1])
    return {"prefix.plan_points": result.size, "prefix.corner_points": corners,
            "prefix.regions": 1, "prefix.recolor_wins": int(result.size < corners)}


def _count_run_construction(args, result, parent):
    stats = result[1]
    return {"protocol.messages_sent": stats.total_messages,
            "protocol.max_received": stats.max_received}


def _count_reconstruction(args, result, parent):
    if parent in ("recovery.recover_node", "recovery.recover_junction"):
        return {}  # an escalation; the outer reconstruction counts its reads
    return {"recovery.donors": len(result.donors), "recovery.reads": result.reads}


def _count_plan_with_failures(args, result, parent):
    from gridcubes.flow import QueryPlan
    from gridcubes.recovery import RecoveryKind

    out = {"recovery.queries": 1}
    if isinstance(result, QueryPlan):
        out["recovery.exact_plans"] = 1
        out["recovery.reads"] = result.size
    else:
        out["recovery.reads"] = result.points_read
        out["recovery.estimates"] = int(result.kind is RecoveryKind.ESTIMATE)
        out["recovery.unrecoverable"] = int(result.kind is RecoveryKind.UNRECOVERABLE)
    return out


# (module, function, counter) for every public function the per-layer
# metrics name.
TARGETS = (
    ("cli", "main", None),
    ("scenario", "load_scenario", None),
    ("grid", "region_from_rectangles", _count_region_from_rectangles),
    ("hierarchy", "build_hierarchy", None),
    ("hierarchy", "color_tree", _count_color_tree),
    ("division", "greedy_divide", _count_greedy_divide),
    ("flow", "build_flow_graph", _count_build_flow_graph),
    ("flow", "min_cut_plan", _count_min_cut_plan),
    ("flow", "combined_plan", _count_combined_plan),
    ("prefix", "build_ps_cube", None),
    ("prefix", "ps_query_plan", _count_ps_query_plan),
    ("protocol", "run_construction", _count_run_construction),
    ("recovery", "recover_node", _count_reconstruction),
    ("recovery", "recover_junction", _count_reconstruction),
    ("recovery", "plan_with_failures", _count_plan_with_failures),
    ("recovery", "recover_region", None),
    ("recovery", "failed_datapoints", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[object, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._op = None
        self._patched: list[tuple[object, str, object]] = []

    # -- windows -------------------------------------------------------
    def open(self, op) -> None:
        self._op = op

    def close(self) -> None:
        self._op = None

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        import importlib

        for module_name, func_name, counter in TARGETS:
            module = importlib.import_module(f"gridcubes.{module_name}")
            original = getattr(module, func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, counter)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "gridcubes" or name.startswith("gridcubes.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, original, counter):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            if self._op is None:
                return original(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(name, self._op, parent, clock())
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                # An error the package raises and catches itself (the planner's
                # InfeasibleError inside recovery) still ends a span.
                span.end = span.close = clock()
                self._stack.pop()
                self._finish(span)
                raise
            span.end = clock()
            self._stack.pop()
            if counter is not None:
                parent_name = self.spans[parent].name if parent is not None else None
                self.counts[span.op].update(counter(args, result, parent_name))
            span.close = clock()
            self._finish(span)
            return result

        return traced

    def _finish(self, span: Span) -> None:
        if span.parent is not None:
            p = self.spans[span.parent]
            p.children_close += span.close - span.start
            p.children_counting += (span.close - span.end) + span.children_counting

    # -- results -------------------------------------------------------
    def _has_ancestor(self, span: Span, name: str) -> bool:
        i = span.parent
        while i is not None:
            if self.spans[i].name == name:
                return True
            i = self.spans[i].parent
        return False

    def times(self, ops) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per function, summed over `ops`.

        Inclusive time counts only the outermost span of a recursive call.
        """
        ops = set(ops)
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.op not in ops:
                continue
            duration = span.end - span.start
            self_time[span.name] += duration - span.children_close
            if not self._has_ancestor(span, span.name):
                inclusive[span.name] += duration - span.children_counting
        return inclusive, self_time

    def totals(self, ops) -> Counter:
        total: Counter = Counter()
        for op in ops:
            total.update(self.counts.get(op, {}))
        return total
