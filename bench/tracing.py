"""Spans around qwsed's public functions, recorded from outside the package.

`install` replaces each function at the name its caller looks up (for
example `qwsed.sedentary.decompose`, which `classify` calls, and
`WalkEvaluator.minimize_diagonal`) by a wrapper that records a span: name,
start, end, parent span and op id.  Spans stay in memory until the run
writes them out.  A function that no longer exists is skipped, so it
simply reports nothing.  `uninstall` puts the originals back.

A span's self time is its duration minus the part of it that its child
spans cover.  Spans opened in family-scan's pool threads have the op's
outermost span as parent; two such children can run at once, and the
time they overlap is reported as `trace.parallel_ms`, so that
self-time sum = op time + parallel time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute, span name); attribute "Class.method" patches a method
TARGETS = (
    ("qwsed.cli", "main", "cli.main"),
    ("qwsed.cli", "classify", "sedentary.classify"),
    ("qwsed.cli", "build_family", "graphs.build_family"),
    ("qwsed.cli", "parse_family", "graphs.parse_family"),
    ("qwsed.cli", "read_graph_file", "graphs.read_graph_file"),
    ("qwsed.graphs", "build_family", "graphs.build_family"),
    ("qwsed.sedentary", "describe_graph", "graphs.describe_graph"),
    ("qwsed", "classify", "sedentary.classify"),
    ("qwsed.sedentary", "classify", "sedentary.classify"),
    ("qwsed.sedentary", "assemble", "matrices.assemble"),
    ("qwsed.walk", "assemble", "matrices.assemble"),
    ("qwsed.sedentary", "decompose", "spectral.decompose"),
    ("qwsed.walk", "decompose", "spectral.decompose"),
    ("qwsed.sedentary", "find_twin_sets", "spectral.find_twin_sets"),
    ("qwsed.sedentary", "verify_twin_eigenvector", "spectral.verify_twin_eigenvector"),
    ("qwsed.sedentary", "integer_coordinates", "spectral.integer_coordinates"),
    ("qwsed.sedentary", "support", "spectral.support"),
    ("qwsed.walk", "support", "spectral.support"),
    ("qwsed.spectral", "support", "spectral.support"),
    ("qwsed.sedentary", "periodicity", "spectral.periodicity"),
    ("qwsed.walk", "periodicity", "spectral.periodicity"),
    ("qwsed.walk", "WalkEvaluator.minimize_diagonal", "walk.minimize_diagonal"),
    ("qwsed.walk", "WalkEvaluator.find_perfect_state_transfer", "walk.find_pst"),
    ("qwsed.walk", "WalkEvaluator.transition_entry", "walk.transition_entry"),
    ("qwsed.sedentary", "twin_bound", "sedentary.twin_bound"),
    ("qwsed.sedentary", "subset_bound", "sedentary.subset_bound"),
    ("qwsed.sedentary", "find_equality_time", "sedentary.find_equality_time"),
    ("qwsed.sedentary", "find_zero_crossing", "sedentary.find_zero_crossing"),
    ("qwsed.sedentary", "sharpness_parity", "sedentary.sharpness_parity"),
    ("qwsed.sedentary", "product_compose", "sedentary.product_compose"),
)


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None
    op: int
    extra: dict | None = None


def _minimize_extra(args, result) -> dict:
    """Grid size, refinements and support size of one oracle call."""
    evaluator, u = args[0], args[1]
    cache = getattr(evaluator, "_diag_cache", {})
    k = len(cache[u][0]) if u in cache else None
    return {"grid": result.grid, "refinements": result.refinements, "support": k}


EXTRAS = {"walk.minimize_diagonal": _minimize_extra}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            if parent is None:
                self._root = sid
            stack.append(sid)
            start = time.perf_counter_ns()
            result = info = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if parent is None:
                    self._root = None
                if extra is not None and result is not None:
                    info = extra(args, result)
                self.spans.append(Span(sid, name, start, end, parent, self.op, info))
        return traced

    def install(self) -> None:
        for modname, attr, name in TARGETS:
            owner = importlib.import_module(modname)
            cls_name, _, attr = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


# -- self time ------------------------------------------------------------------


def _union(intervals) -> int:
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> tuple[dict[int, int], int]:
    """Self time of every span, and the time sibling spans overlap."""
    kids: dict[int | None, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        kids[s.parent].append((s.start, s.end))
    out, parallel = {}, 0
    for s in spans:
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in kids.get(s.sid, ())]
        covered = _union(clipped)
        out[s.sid] = (s.end - s.start) - covered
        parallel += sum(b - a for a, b in clipped) - covered
    return out, parallel


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-round per-layer numbers from the spans of `rounds` traced rounds."""
    own, parallel = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    ms: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        ms[s.name] += own[s.sid] / 1e6
    grid_points = refinements = 0
    grid_bytes = 0
    for s in spans:
        if s.name == "walk.minimize_diagonal" and s.extra:
            grid_points += s.extra["grid"]
            refinements += s.extra["refinements"]
            if s.extra["support"] is not None:
                grid_bytes = max(grid_bytes, s.extra["grid"] * s.extra["support"] * 16)

    def per(x):
        return x / rounds

    def layer(prefix):
        return per(sum(v for k, v in ms.items() if k.startswith(prefix + ".")))

    return {
        "graphs.build_ms": layer("graphs"),
        "matrices.assemble_calls": per(calls["matrices.assemble"]),
        "matrices.assemble_ms": per(ms["matrices.assemble"]),
        "spectral.decompose_calls": per(calls["spectral.decompose"]),
        "spectral.decompose_ms": per(ms["spectral.decompose"]),
        "spectral.twin_sets_calls": per(calls["spectral.find_twin_sets"]),
        "spectral.twin_sets_ms": per(ms["spectral.find_twin_sets"]),
        "spectral.support_calls": per(calls["spectral.support"]),
        "spectral.periodicity_calls": per(calls["spectral.periodicity"]),
        "spectral.periodicity_ms": per(ms["spectral.periodicity"]),
        "spectral.self_ms": layer("spectral"),
        "walk.minimize_calls": per(calls["walk.minimize_diagonal"]),
        "walk.minimize_ms": per(ms["walk.minimize_diagonal"]),
        "walk.grid_points": per(grid_points),
        "walk.grid_mb": grid_bytes / 1e6,
        "walk.refinements": per(refinements),
        "walk.pst_calls": per(calls["walk.find_pst"]),
        "walk.pst_ms": per(ms["walk.find_pst"]),
        "walk.self_ms": layer("walk"),
        "sedentary.classify_calls": per(calls["sedentary.classify"]),
        "sedentary.classify_self_ms": per(ms["sedentary.classify"]),
        "sedentary.twin_bound_ms": per(ms["sedentary.twin_bound"]),
        "sedentary.subset_bound_ms": per(ms["sedentary.subset_bound"]),
        "sedentary.product_compose_ms": per(ms["sedentary.product_compose"]),
        "sedentary.equality_time_calls": per(calls["sedentary.find_equality_time"]),
        "sedentary.equality_time_ms": per(ms["sedentary.find_equality_time"]),
        "sedentary.zero_crossing_ms": per(ms["sedentary.find_zero_crossing"]),
        "sedentary.sharpness_ms": per(ms["sedentary.sharpness_parity"]),
        "sedentary.self_ms": layer("sedentary"),
        "cli.self_ms": per(ms["cli.main"]),
        "trace.self_sum_ms": per(sum(own.values()) / 1e6),
        "trace.parallel_ms": per(parallel / 1e6),
    }
