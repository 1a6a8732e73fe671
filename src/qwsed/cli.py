"""Command-line front end.

Subcommands:
  analyze       classify one or more vertices, emit JSON reports
  sweep         CSV time series t,re,im,abs of a diagonal entry
  family-scan   classify across a parameter range, JSON reports plus trend
  oracle        run only the diagonal minimization, emit its result
  mixing-check  test uniform mixing or fractional revival at a time

Exit code 0 covers every mathematical outcome including unresolved; 2 is
reserved for operational failures (bad flags, unreadable files, selectors
that match nothing).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graphs import (
    GraphError,
    WeightedGraph,
    build_family,
    describe_graph,
    parse_family,
    read_graph_file,
)
from .matrices import MatrixKind, parse_matrix_kind
from .sedentary import CertificateRefused, ClassifyOptions, classify, classify_vertices
from .spectral import DEFAULT_CLUSTER_TOL
from .walk import (
    WalkError,
    WalkEvaluator,
    check_fractional_revival,
    check_uniform_mixing,
)

_RANGE = re.compile(r"(\d+)\.\.(\d+)")


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs, resolved from flags."""

    command: str
    graph_path: str | None
    family: str | None
    matrix: MatrixKind
    vertex: str
    window: float | None
    grid: int | None
    cluster_tol: float
    out: str | None
    format: str | None
    time: float | None = None
    pair: str | None = None

    def __post_init__(self):
        if (self.graph_path is None) == (self.family is None):
            raise GraphError("exactly one of --graph and --family is required")


def _config(args: argparse.Namespace) -> RunConfig:
    if args.window is not None and not (math.isfinite(args.window) and args.window > 0.0):
        raise GraphError(f"--window must be a finite positive time, got {args.window!r}")
    return RunConfig(
        command=args.command,
        graph_path=args.graph,
        family=args.family,
        matrix=parse_matrix_kind(args.matrix),
        vertex=args.vertex,
        window=args.window,
        grid=args.grid,
        cluster_tol=args.cluster_tol if args.cluster_tol is not None
        else DEFAULT_CLUSTER_TOL,
        out=args.out,
        format=args.format,
        time=getattr(args, "time", None),
        pair=getattr(args, "pair", None),
    )


def _load_graph(cfg: RunConfig) -> WeightedGraph:
    if cfg.graph_path is not None:
        return read_graph_file(cfg.graph_path)
    return build_family(parse_family(cfg.family))


def _resolve_vertices(graph: WeightedGraph, selector: str) -> list[int]:
    """Selector forms: integer id, 'all', exact label, or role prefix."""
    s = selector.strip()
    if s.lower() == "all":
        return list(range(graph.n))
    if s.lstrip("+-").isdigit():
        u = int(s)
        if not 0 <= u < graph.n:
            raise GraphError(f"vertex {u} out of range for {graph.n} vertices")
        return [u]
    if graph.labels is not None:
        exact = [i for i, lab in enumerate(graph.labels) if lab == s]
        if exact:
            return exact
        role = [i for i, lab in enumerate(graph.labels)
                if lab.partition(":")[0] == s]
        if role:
            return role
    raise GraphError(f"vertex selector {s!r} matches nothing")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dump(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _classify_options(cfg: RunConfig) -> ClassifyOptions:
    window = (0.0, cfg.window) if cfg.window is not None else None
    return ClassifyOptions(window=window, grid=cfg.grid,
                           cluster_tol=cfg.cluster_tol)


def _require_json(cfg: RunConfig) -> None:
    if cfg.format == "csv":
        raise GraphError(f"{cfg.command} emits JSON; csv applies to sweep")


# -- subcommands -----------------------------------------------------------------


def cmd_analyze(cfg: RunConfig) -> int:
    _require_json(cfg)
    graph = _load_graph(cfg)
    reports = [r.to_dict() for r in classify_vertices(
        graph, _resolve_vertices(graph, cfg.vertex), cfg.matrix,
        _classify_options(cfg))]
    _emit(_dump(reports[0] if len(reports) == 1 else reports), cfg.out)
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.format == "json":
        raise GraphError("sweep emits csv; json applies to report commands")
    graph = _load_graph(cfg)
    u = _resolve_vertices(graph, cfg.vertex)[0]
    w = WalkEvaluator.for_graph(graph, cfg.matrix, cfg.cluster_tol)
    horizon = cfg.window if cfg.window is not None else 2.0 * math.pi
    npts = cfg.grid or 4096
    ts = np.linspace(0.0, horizon, npts)
    vals = w.diagonal_entry_series(u, ts)
    rows = ["t,re,im,abs"]
    for t, z in zip(ts, vals):
        rows.append(f"{t:.17g},{z.real:.17g},{z.imag:.17g},{abs(z):.17g}")
    _emit("\n".join(rows) + "\n", cfg.out)
    return 0


def _normalize_keywords(text: str) -> str:
    """Rewrite keyword family parameters into the positional form."""
    head, _, rest = text.partition(":")
    if "=" not in rest:
        return text
    kind = head.strip().lower()
    seg, sep, tail = rest.partition(":")
    if tail and "=" in tail:
        raise GraphError("keyword parameters belong in the first segment")
    kv: dict[str, int] = {}
    for tok in seg.split(","):
        key, eq, val = tok.partition("=")
        if not eq:
            raise GraphError(f"cannot mix keyword and positional parameters "
                             f"in {text!r}")
        kv[key.strip()] = int(val)
    if kind == "rook":
        k, n = kv.pop("k"), kv.pop("n")
        params = [n] * k
    elif kind == "hamming":
        params = [kv.pop("k"), kv.pop("n")]
    else:
        raise GraphError(f"keyword parameters are not defined for {kind!r}")
    if kv:
        raise GraphError(f"unknown keyword parameters {sorted(kv)} for {kind!r}")
    joined = ",".join(str(p) for p in params)
    return f"{kind}:{joined}" + (f":{tail}" if tail else "")


def expand_family_range(text: str) -> list[str]:
    """Expand the single a..b range in a family spec into member specs."""
    matches = list(_RANGE.finditer(text))
    if len(matches) > 1:
        raise GraphError("family-scan takes exactly one ranged parameter")
    if not matches:
        return [_normalize_keywords(text)]
    m = matches[0]
    lo, hi = int(m.group(1)), int(m.group(2))
    if hi < lo:
        raise GraphError(f"empty range {lo}..{hi}")
    return [_normalize_keywords(text[:m.start()] + str(v) + text[m.end():])
            for v in range(lo, hi + 1)]


def _scan_worker(member: str, cfg: RunConfig) -> tuple[int, dict]:
    """Vertex count and report of one family member."""
    graph = build_family(parse_family(member))
    u = _resolve_vertices(graph, cfg.vertex)[0]
    return graph.n, classify(graph, u, cfg.matrix, _classify_options(cfg)).to_dict()


def _thread_cap() -> int:
    env = os.environ.get("QWSED_THREADS", "").strip()
    if env:
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


def cmd_family_scan(cfg: RunConfig) -> int:
    _require_json(cfg)
    if cfg.family is None:
        raise GraphError("family-scan needs --family")
    members = expand_family_range(cfg.family)
    if len(members) == 1:
        _emit(_dump(_scan_worker(members[0], cfg)[1]), cfg.out)
        return 0
    with ThreadPoolExecutor(max_workers=_thread_cap()) as pool:
        results = list(pool.map(lambda s: _scan_worker(s, cfg), members))
    reports = [rep for _, rep in results]
    trend = [{"size": n, "C": rep["C"]} for n, rep in results]
    cs = [row["C"] for row in trend if row["C"] is not None]
    if len(cs) == len(trend) and cs == sorted(cs):
        direction = "nondecreasing"
    elif len(cs) == len(trend) and cs == sorted(cs, reverse=True):
        direction = "nonincreasing"
    else:
        direction = "mixed"
    payload = {
        "family": cfg.family,
        "matrix": str(cfg.matrix),
        "vertex": cfg.vertex,
        "reports": reports,
        "trend": trend,
        "trend_direction": direction,
    }
    _emit(_dump(payload), cfg.out)
    return 0


def cmd_oracle(cfg: RunConfig) -> int:
    _require_json(cfg)
    graph = _load_graph(cfg)
    u = _resolve_vertices(graph, cfg.vertex)[0]
    w = WalkEvaluator.for_graph(graph, cfg.matrix, cfg.cluster_tol)
    window = (0.0, cfg.window) if cfg.window is not None else None
    result = w.minimize_diagonal(u, window, cfg.grid)
    payload = {
        "graph": describe_graph(graph),
        "matrix": str(cfg.matrix),
        "vertex": u,
        "oracle": result.to_dict(),
    }
    _emit(_dump(payload), cfg.out)
    return 0


def cmd_mixing_check(cfg: RunConfig) -> int:
    _require_json(cfg)
    graph = _load_graph(cfg)
    w = WalkEvaluator.for_graph(graph, cfg.matrix, cfg.cluster_tol)
    payload: dict = {"graph": describe_graph(graph), "matrix": str(cfg.matrix)}
    if cfg.pair is not None:
        parts = cfg.pair.split(",")
        if len(parts) != 2:
            raise GraphError("--pair takes two vertices, e.g. 0,1")
        u = _resolve_vertices(graph, parts[0])[0]
        v = _resolve_vertices(graph, parts[1])[0]
        t = cfg.time
        if t is None:
            horizon = cfg.window if cfg.window is not None else 2.0 * math.pi
            t = w.find_fractional_revival(u, v, (0.0, horizon), cfg.grid)
            if t is None:
                payload["fractional_revival"] = None
                _emit(_dump(payload), cfg.out)
                return 0
        fr = check_fractional_revival(w, u, v, t)
        payload["fractional_revival"] = {
            "u": fr.u, "v": fr.v, "time": fr.time,
            "alpha": fr.alpha, "beta": fr.beta, "proper": fr.proper,
        }
        _emit(_dump(payload), cfg.out)
        return 0
    if cfg.time is None:
        raise GraphError("mixing-check needs --time (or --pair to search)")
    u = _resolve_vertices(graph, cfg.vertex)[0]
    payload["vertex"] = u
    payload["time"] = cfg.time
    payload["uniform_mixing"] = check_uniform_mixing(w, u, cfg.time)
    _emit(_dump(payload), cfg.out)
    return 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
    "family-scan": cmd_family_scan,
    "oracle": cmd_oracle,
    "mixing-check": cmd_mixing_check,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", metavar="PATH",
                     help="plain text graph file: 'n m' then 'u v w' lines")
    src.add_argument("--family", metavar="SPEC",
                     help="family spec such as complete:5 or rook:3,4")
    p.add_argument("--matrix", default="adjacency", metavar="KIND",
                   help="adjacency, laplacian, gen:ALPHA, norm-adj, norm-lap")
    p.add_argument("--vertex", default="0", metavar="SEL",
                   help="vertex id, 'all', a label, or a role such as apex")
    p.add_argument("--window", type=float, metavar="T",
                   help="restrict times to [0, T]")
    p.add_argument("--grid", type=int, metavar="N", help="grid point override")
    p.add_argument("--cluster-tol", type=float, dest="cluster_tol", metavar="X",
                   help="eigenvalue clustering tolerance")
    p.add_argument("--out", metavar="PATH", help="write output here, not stdout")
    p.add_argument("--format", choices=("json", "csv"),
                   help="json for reports, csv for sweep series")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwsed",
        description="Continuous-time quantum walk diagonals: certified lower "
                    "bounds, classifications, and minimization oracles.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("analyze", "classify vertices and emit JSON reports"),
            ("sweep", "emit a t,re,im,abs CSV series for a diagonal entry"),
            ("family-scan", "classify across one ranged family parameter"),
            ("oracle", "run only the diagonal minimization"),
            ("mixing-check", "test uniform mixing or fractional revival")):
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        if name == "mixing-check":
            p.add_argument("--time", type=float, metavar="T",
                           help="time to test")
            p.add_argument("--pair", metavar="U,V",
                           help="vertex pair for fractional revival")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config(args)
        return _COMMANDS[cfg.command](cfg)
    except (GraphError, WalkError, CertificateRefused, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
