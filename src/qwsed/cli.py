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
import itertools
import json
import math
import re
import sys
from collections.abc import Iterable

import numpy as np

from .graphs import (
    GraphError,
    WeightedGraph,
    build_family,
    describe_graph,
    parse_family,
    read_graph_file,
)
from .matrices import parse_matrix_kind
from .sedentary import CertificateRefused, ClassifyOptions, classify, classify_vertices
from .walk import (
    WalkError,
    WalkEvaluator,
    check_fractional_revival,
    check_uniform_mixing,
)

_RANGE = re.compile(r"(\d+)\.\.(\d+)")


def _load_graph(args: argparse.Namespace) -> WeightedGraph:
    if args.graph is not None:
        return read_graph_file(args.graph)
    return build_family(parse_family(args.family))


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


def _one_vertex(graph: WeightedGraph, selector: str, command: str) -> int:
    """The vertex a one-vertex command reads: the first one the selector
    matches (a role picks its first vertex).  'all' is refused, since only
    analyze reports on several vertices."""
    if selector.strip().lower() == "all":
        raise GraphError(f"{command} takes one vertex; --vertex all is for analyze")
    return _resolve_vertices(graph, selector)[0]


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write text, or each string of an iterable in turn, to out (stdout
    when None)."""
    parts = (text,) if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(parts)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(parts)


_JSON_STR = json.encoder.encode_basestring_ascii


def _json_float(x: float) -> str:
    # json's float text, by json's own comparisons, so that a float
    # subclass gets the text json gives it
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _write_json(o, indent: str, out: list[str]) -> None:
    """Append the text of o as json.dumps(o, indent=2) writes it at the
    depth whose newline and indentation is indent.  Types are tested in
    json's order; a type json refuses, or a key that is not a str, raises
    TypeError."""
    if isinstance(o, str):
        out.append(_JSON_STR(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_json_float(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _write_json(v, inner, out)
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for k, v in o.items():
            if not isinstance(k, str):
                raise TypeError(type(k).__name__)
            out.append(sep + _JSON_STR(k) + ": ")
            _write_json(v, inner, out)
            sep = "," + inner
        out.append(indent + "}")
    else:
        raise TypeError(type(o).__name__)


def _dump(payload) -> str:
    """The report text: the bytes of json.dumps(payload, indent=2) and a
    newline.  json writes indented text with its pure-Python encoder, so
    _write_json writes it directly; a payload it does not take (a non-str
    key, a type json refuses, a cycle) goes to json itself, which writes
    it or raises its own error."""
    out: list[str] = []
    try:
        _write_json(payload, "\n", out)
    except (TypeError, ValueError, RecursionError):
        return json.dumps(payload, indent=2) + "\n"
    out.append("\n")
    return "".join(out)


def _classify_options(args: argparse.Namespace) -> ClassifyOptions:
    window = (0.0, args.window) if args.window is not None else None
    return ClassifyOptions(window=window)


# -- subcommands -----------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    reports = [r.to_dict() for r in classify_vertices(
        graph, _resolve_vertices(graph, args.vertex), args.matrix,
        _classify_options(args))]
    _emit(_dump(reports[0] if len(reports) == 1 else reports), args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.grid < 1:
        raise GraphError(f"--grid must be a positive number of samples, got {args.grid}")
    graph = _load_graph(args)
    u = _one_vertex(graph, args.vertex, "sweep")
    w = WalkEvaluator.for_graph(graph, args.matrix)
    horizon = args.window if args.window is not None else 2.0 * math.pi
    ts = np.linspace(0.0, horizon, args.grid)
    vals = w.diagonal_entry_series(u, ts)
    # the rows are written as they are made, never held together: their
    # text takes about 255 bytes a sample, the time and value 24
    rows = (f"{t:.17g},{z.real:.17g},{z.imag:.17g},{abs(z):.17g}\n" for t, z in zip(ts, vals))
    _emit(itertools.chain(["t,re,im,abs\n"], rows), args.out)
    return 0


def expand_family_range(text: str) -> list[str]:
    """Expand the single a..b range in a family spec into member specs."""
    matches = list(_RANGE.finditer(text))
    if len(matches) > 1:
        raise GraphError("family-scan takes exactly one ranged parameter")
    if not matches:
        return [text]
    m = matches[0]
    lo, hi = int(m.group(1)), int(m.group(2))
    if hi < lo:
        raise GraphError(f"empty range {lo}..{hi}")
    return [text[:m.start()] + str(v) + text[m.end():] for v in range(lo, hi + 1)]


def _scan_worker(member: str, args: argparse.Namespace) -> tuple[int, dict]:
    """Vertex count and report of one family member."""
    graph = build_family(parse_family(member))
    u = _one_vertex(graph, args.vertex, "family-scan")
    return graph.n, classify(graph, u, args.matrix, _classify_options(args)).to_dict()


def cmd_family_scan(args: argparse.Namespace) -> int:
    if args.family is None:
        raise GraphError("family-scan needs --family")
    results = [_scan_worker(member, args) for member in expand_family_range(args.family)]
    if len(results) == 1:
        _emit(_dump(results[0][1]), args.out)
        return 0
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
        "family": args.family,
        "matrix": str(args.matrix),
        "vertex": args.vertex,
        "reports": reports,
        "trend": trend,
        "trend_direction": direction,
    }
    _emit(_dump(payload), args.out)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    u = _one_vertex(graph, args.vertex, "oracle")
    w = WalkEvaluator.for_graph(graph, args.matrix)
    window = (0.0, args.window) if args.window is not None else None
    result = w.minimize_diagonal(u, window)
    payload = {
        "graph": describe_graph(graph),
        "matrix": str(args.matrix),
        "vertex": u,
        "oracle": result.to_dict(),
    }
    _emit(_dump(payload), args.out)
    return 0


def cmd_mixing_check(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    w = WalkEvaluator.for_graph(graph, args.matrix)
    payload: dict = {"graph": describe_graph(graph), "matrix": str(args.matrix)}
    if args.pair is not None:
        _one_vertex(graph, args.vertex, "mixing-check")  # --vertex checked as without --pair
        parts = args.pair.split(",")
        if len(parts) != 2:
            raise GraphError("--pair takes two vertices, e.g. 0,1")
        u, v = (_one_vertex(graph, p, "each side of --pair") for p in parts)
        t = args.time
        if t is None:
            horizon = args.window if args.window is not None else 2.0 * math.pi
            t = w.find_fractional_revival(u, v, (0.0, horizon))
            if t is None:
                payload["fractional_revival"] = None
                _emit(_dump(payload), args.out)
                return 0
        fr = check_fractional_revival(w, u, v, t)
        payload["fractional_revival"] = {
            "u": fr.u, "v": fr.v, "time": fr.time,
            "alpha": fr.alpha, "beta": fr.beta, "proper": fr.proper,
        }
        _emit(_dump(payload), args.out)
        return 0
    if args.time is None:
        raise GraphError("mixing-check needs --time (or --pair to search)")
    u = _one_vertex(graph, args.vertex, "mixing-check")
    payload["vertex"] = u
    payload["time"] = args.time
    payload["uniform_mixing"] = check_uniform_mixing(w, u, args.time)
    _emit(_dump(payload), args.out)
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
    p.add_argument("--out", metavar="PATH", help="write output here, not stdout")


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
        if name == "sweep":
            p.add_argument("--grid", type=int, default=4096, metavar="N",
                           help="number of sample times (default 4096)")
        if name == "mixing-check":
            p.add_argument("--time", type=float, metavar="T",
                           help="time to test")
            p.add_argument("--pair", metavar="U,V",
                           help="vertex pair for fractional revival")
    return parser


_PARSER: argparse.ArgumentParser | None = None


def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on first use and kept for the process."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # the commands read args directly, with --matrix parsed here
        window = args.window
        if window is not None and not (math.isfinite(window) and window > 0.0):
            raise GraphError(f"--window must be a finite positive time, got {window!r}")
        time = getattr(args, "time", None)
        if time is not None and not math.isfinite(time):
            raise GraphError(f"--time must be a finite time, got {time!r}")
        args.matrix = parse_matrix_kind(args.matrix)
        return _COMMANDS[args.command](args)
    except (GraphError, WalkError, CertificateRefused, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
