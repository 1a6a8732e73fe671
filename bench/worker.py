"""One benchmark process: set up, run timed rounds of a workload, check.

Started by run.py, never by hand.  Prints one JSON line on stdout:
{"ready": <time.monotonic() when set-up ended>} with --setup-only, and
otherwise also the counts, metrics and host-noise diagnostics of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from typing import NamedTuple

from tracing import Tracer, layer_metrics


def read_steal() -> float | None:
    """Machine-wide steal time in seconds since boot, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


# The time host_reference_ms() takes on the reference machine (README).
# Every end-to-end time is reported at this host speed: as measured, times
# this constant over the reference time measured next to it.
HOST_REFERENCE_MS = 20.0
# a reference time is taken after the op that ends each segment this long
SEGMENT_S = 0.5


def host_reference_ms() -> float:
    """Time of a fixed mix of interpreter and small numpy work, the kind
    the workloads do.  On a shared host the CPU's speed changes by tens of
    percent within seconds; this time follows it (README)."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    x = np.linspace(0.0, 1.0, 64)
    for _ in range(300):
        acc += float(np.sum(np.exp(1j * x)).real)
    np.exp(1j * np.outer(np.linspace(0.0, 1.0, 1000), np.arange(300.0))).real.sum()
    return 1e3 * (time.perf_counter() - start)


def reports_of(payload) -> list[dict]:
    if isinstance(payload, list):
        return payload
    if "reports" in payload:
        return payload["reports"]
    return [payload]


class Runner:
    """Runs ops through qwsed's public entry points and returns their report text."""

    def __init__(self, qwsed, scratch: str):
        self.qwsed = qwsed
        self.out = os.path.join(scratch, "report.json")
        self.squares: dict[int, object] = {}
        self.kinds = {}

    def prepare(self, op) -> None:
        """Input construction that belongs in set-up, not in the op."""
        q = self.qwsed
        if op.product is not None and op.product[0] not in self.squares:
            m = op.product[0]
            self.squares[m] = q.cartesian_product(q.star_graph(m), q.star_graph(m))
        self.kinds.setdefault(op.kind, q.parse_matrix_kind(op.kind))

    def run(self, op) -> tuple[float, str | None, str]:
        """(latency in s, report text or None, error)."""
        q = self.qwsed
        if op.product is not None:
            m, u = op.product
            t0 = time.perf_counter()
            rep = q.classify(self.squares[m], u, self.kinds[op.kind])
            t1 = time.perf_counter()
            return t1 - t0, json.dumps(rep.to_dict()), ""
        t0 = time.perf_counter()
        rc = q.cli.main(list(op.argv) + ["--out", self.out])
        t1 = time.perf_counter()
        if rc != 0:
            return t1 - t0, None, f"exit code {rc}"
        with open(self.out, encoding="utf-8") as fh:
            return t1 - t0, fh.read(), ""


def verdict(op, text: str | None, error: str, seed: int) -> list[str]:
    """Problems with one op's output; [] when every report passes."""
    from checks import check_report

    if text is None:
        return [error or "no output"]
    problems = []
    for i, rep in enumerate(reports_of(json.loads(text))):
        for p in check_report(rep, op.graph(i), op.kind,
                              op.expect(i, rep["vertex"]),
                              offset=(0.5 + 0.37 * seed) % 1.0):
            problems.append(f"vertex {rep['vertex']}: {p}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    # -- set-up: imports, inputs, warm-up ------------------------------------
    import qwsed
    import qwsed.cli  # noqa: F401  (the CLI entry point the ops call)
    import workloads

    scratch = os.path.join(args.out_dir, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, scratch)
        warm = workloads.warmup_ops(args.workload, scratch)
        runner = Runner(qwsed, scratch)
        for op in warm + ops:
            runner.prepare(op)
        for op in warm:
            _, text, err = runner.run(op)
            if text is None:
                raise RuntimeError(f"warm-up op {op.label} failed: {err}")
        ready = time.monotonic()
        host_ms = host_reference_ms()
        if args.setup_only:
            print(json.dumps({"ready": ready, "host_ms": host_ms}))
            return 0
        result = timed(args, ops, runner)
        result.update(ready=ready, host_ms=host_ms)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


class Round(NamedTuple):
    wall: float  # s
    cpu: float  # s
    traced: bool
    lat: list[float]  # s per op
    nbytes: int
    # the same, each segment scaled to the reference host speed
    wall_f: float
    cpu_f: float
    lat_f: list[float]


def timed(args, ops, runner) -> dict:
    tracer = Tracer()
    rounds: list[Round] = []
    texts: list[list[str | None]] = []
    errors: list[list[str]] = []
    steal0 = read_steal()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    host_ms = [host_reference_ms()]
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        wall = cpu = wall_f = cpu_f = 0.0
        lat, lat_f, out, errs, nbytes = [], [], [], [], 0
        seg_w, seg_c, seg_lat = time.perf_counter(), time.process_time(), []
        for i, op in enumerate(ops):
            tracer.op = len(rounds) * len(ops) + i
            dt, text, err = runner.run(op)
            seg_lat.append(dt)
            out.append(text)
            errs.append(err)
            nbytes += len(text.encode()) if text is not None and op.argv else 0
            now = time.perf_counter()
            if now - seg_w >= SEGMENT_S or i == len(ops) - 1:
                # close the segment, then time the reference outside it
                w, c = now - seg_w, time.process_time() - seg_c
                host_ms.append(host_reference_ms())
                f = HOST_REFERENCE_MS / ((host_ms[-2] + host_ms[-1]) / 2)
                wall, cpu, wall_f, cpu_f = wall + w, cpu + c, wall_f + w * f, cpu_f + c * f
                lat += seg_lat
                lat_f += [x * f for x in seg_lat]
                seg_w, seg_c, seg_lat = time.perf_counter(), time.process_time(), []
        if traced:
            tracer.uninstall()
        rounds.append(Round(wall, cpu, traced, lat, nbytes, wall_f, cpu_f, lat_f))
        texts.append(out)
        errors.append(errs)
        elapsed = time.perf_counter() - start
        if elapsed + wall / 2 >= args.seconds and (not args.trace or len(rounds) % 2 == 0):
            break
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    steal1 = read_steal()
    peak_rss_mb = ru1.ru_maxrss * 1024 / 1e6

    # -- checks, outside every timed span --------------------------------------
    # a report identical to one already checked for the same op shares its
    # verdict, so each distinct report is checked once
    cache: dict[tuple[int, str], list[str]] = {}
    attempted = failed = unexpected = 0
    first_problem = {}
    for r_texts, r_errs in zip(texts, errors):
        for i, (op, text, err) in enumerate(zip(ops, r_texts, r_errs)):
            if text is None:
                found = verdict(op, text, err, args.seed)
            elif (i, text) in cache:
                found = cache[i, text]
            else:
                found = cache[i, text] = verdict(op, text, err, args.seed)
            attempted += 1
            if found:
                failed += 1
                unexpected += not op.known_fault
                first_problem.setdefault(op.label, found[0])
    for label, problem in first_problem.items():
        print(f"failed: {label}: {problem}", file=sys.stderr)

    plain = [r for r in rounds if not r.traced]
    lat_ms = sorted(1e3 * x for r in plain for x in r.lat_f)
    metrics = {
        "wall_s": (statistics.median(r.wall_f for r in plain), "s"),
        "cpu_s": (statistics.median(r.cpu_f for r in plain), "s"),
        "op_ms.p50": (statistics.median(lat_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    diagnostics = {
        "rounds": len(rounds),
        "ops_per_round": len(ops),
        "timed_s": sum(r.wall for r in rounds),
        "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
        "involuntary_switches": ru1.ru_nivcsw - ru0.ru_nivcsw,
        "voluntary_switches": ru1.ru_nvcsw - ru0.ru_nvcsw,
        "distinct_reports_checked": len(cache),
        "round_wall_s": [round(r.wall, 4) for r in rounds],
        "host_reference_ms": [round(x, 2) for x in host_ms],
        "unscaled": {"wall_s": statistics.median(r.wall for r in plain),
                     "cpu_s": statistics.median(r.cpu for r in plain),
                     "op_ms.p50": statistics.median(1e3 * x for r in plain for x in r.lat)},
    }
    if len(lat_ms) >= 100:
        diagnostics["op_ms.p90"] = statistics.quantiles(lat_ms, n=10)[-1]
    if args.trace:
        traced = [r for r in rounds if r.traced]
        layers = layer_metrics(tracer.spans, len(traced))
        # means per round, unscaled like the per-layer numbers they are
        # compared with; the overhead compares scaled times
        layers["trace.op_ms"] = statistics.fmean(1e3 * sum(r.lat) for r in traced)
        layers["trace.untraced_op_ms"] = statistics.fmean(1e3 * sum(r.lat) for r in plain)
        on = statistics.fmean(sum(r.lat_f) for r in traced)
        off = statistics.fmean(sum(r.lat_f) for r in plain)
        layers["trace.overhead_pct"] = 100.0 * (on - off) / off
        layers["cli.out_bytes"] = traced[0].nbytes
        metrics = {k: (v, _unit(k)) for k, v in layers.items()}
        write_spans(args, tracer.spans)
    return {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "diagnostics": diagnostics,
    }


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def write_spans(args, spans) -> None:
    path = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.json")
    rows = [[s.sid, s.name, s.start, s.end, s.parent, s.op, s.extra] for s in spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent", "op",
                              "extra"], "spans": rows}, fh)


if __name__ == "__main__":
    sys.exit(main())
