"""Weighted graphs with loops, and the constructions the walk analysis is built on.

Vertices are dense 0-based integers.  Edges are unordered pairs with nonzero
real weights; a pair (u, u) is a loop.  Graphs are immutable: every operation
returns a new instance.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

__all__ = [
    "GraphError",
    "WeightedGraph",
    "empty_graph",
    "complete_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_multipartite_graph",
    "join",
    "union",
    "complement",
    "cartesian_product",
    "direct_product",
    "blow_up",
    "attach_tails",
    "rook_graph",
    "hamming_graph",
    "lollipop_graph",
    "barbell_graph",
    "double_star_graph",
    "threshold_graph",
    "cone",
    "double_cone",
    "x_tail_graph",
    "y_tail_graph",
    "FamilySpec",
    "FAMILY_KINDS",
    "parse_family",
    "build_family",
    "read_graph_file",
    "write_graph_file",
    "describe_graph",
]


class GraphError(ValueError):
    """Invalid graph data, construction arguments, or family parameters."""


def _canonical_edges(n: int, edges) -> tuple[tuple[int, int, float], ...]:
    seen = set()
    out = []
    for e in edges:
        if len(e) == 2:
            u, v = e
            w = 1.0
        else:
            u, v, w = e
        u, v, w = int(u), int(v), float(w)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if not math.isfinite(w) or w == 0.0:
            raise GraphError(f"edge ({u},{v}) has invalid weight {w!r}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise GraphError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        out.append((u, v, w))
    out.sort(key=lambda t: (t[0], t[1]))
    return tuple(out)


@dataclass(frozen=True)
class WeightedGraph:
    """An undirected weighted graph with optional loops.

    ``edges`` is canonicalized on construction: endpoints ordered u <= v,
    sorted lexicographically, duplicates rejected.  ``labels`` and
    ``provenance`` are annotations and do not participate in equality.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...] = ()
    labels: tuple[str, ...] | None = field(default=None, compare=False)
    provenance: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("vertex count must be nonnegative")
        object.__setattr__(self, "edges", _canonical_edges(self.n, self.edges))
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != self.n:
                raise GraphError("labels length must match vertex count")
            object.__setattr__(self, "labels", labels)

    # -- basic queries ------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def _weight_map(self) -> dict[tuple[int, int], float]:
        return {(u, v): w for u, v, w in self.edges}

    def weight(self, u: int, v: int) -> float:
        """Weight of the edge between u and v, 0.0 if absent."""
        if u > v:
            u, v = v, u
        return self._weight_map.get((u, v), 0.0)

    def has_edge(self, u: int, v: int) -> bool:
        return self.weight(u, v) != 0.0

    def neighbors(self, u: int) -> dict[int, float]:
        """Weighted neighborhood of u, excluding u itself."""
        return {v: w for v, w in self._neighbor_maps[u].items() if v != u}

    @cached_property
    def _neighbor_maps(self) -> tuple[dict[int, float], ...]:
        maps: list[dict[int, float]] = [dict() for _ in range(self.n)]
        for u, v, w in self.edges:
            maps[u][v] = w
            maps[v][u] = w
        return tuple(maps)

    def loop_weight(self, u: int) -> float:
        return self.weight(u, u)

    def adjacency_matrix(self) -> np.ndarray:
        """Symmetric adjacency matrix; a loop contributes its weight once to
        the diagonal."""
        a = np.zeros((self.n, self.n))
        for u, v, w in self.edges:
            a[u, v] = w
            a[v, u] = w
        return a

    def degree(self, u: int) -> float:
        """Weighted degree, with loops counted twice."""
        return 2.0 * self.loop_weight(u) + sum(self.neighbors(u).values())

    def degrees(self) -> np.ndarray:
        a = self.adjacency_matrix()
        return a.sum(axis=1) + np.diag(a)

    @property
    def is_simple(self) -> bool:
        return all(u != v for u, v, _ in self.edges)

    @property
    def is_unweighted(self) -> bool:
        return all(w == 1.0 for _, _, w in self.edges)

    @property
    def is_positively_weighted(self) -> bool:
        return all(w > 0.0 for _, _, w in self.edges)

    def regular_degree(self) -> float | None:
        """Common weighted degree if the graph is regular, else None."""
        if self.n == 0:
            return None
        degs = self.degrees()
        d = float(degs[0])
        if np.allclose(degs, d, rtol=1e-12, atol=1e-12):
            return d
        return None

    def with_labels(self, labels) -> "WeightedGraph":
        return replace(self, labels=tuple(labels))

    def with_provenance(self, provenance) -> "WeightedGraph":
        return replace(self, provenance=provenance)

    def content_hash(self) -> str:
        text = f"{self.n};" + ";".join(f"{u},{v},{w!r}" for u, v, w in self.edges)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- named elementary graphs ------------------------------------------------


def empty_graph(n: int) -> WeightedGraph:
    if n < 0:
        raise GraphError("empty graph needs n >= 0")
    return WeightedGraph(n)


def complete_graph(n: int) -> WeightedGraph:
    if n < 0:
        raise GraphError("complete graph needs n >= 0")
    edges = [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)]
    return WeightedGraph(n, tuple(edges))


def path_graph(n: int) -> WeightedGraph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return WeightedGraph(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))


def cycle_graph(n: int) -> WeightedGraph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    return WeightedGraph(n, tuple(edges))


def star_graph(leaves: int) -> WeightedGraph:
    """Star with a center (vertex 0) and the given number of leaves."""
    if leaves < 1:
        raise GraphError("star needs at least one leaf")
    g = WeightedGraph(1 + leaves, tuple((0, i, 1.0) for i in range(1, leaves + 1)))
    return g.with_labels(["center"] + [f"leaf:{i}" for i in range(leaves)])


def complete_multipartite_graph(sizes) -> WeightedGraph:
    sizes = [int(s) for s in sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise GraphError("multipartite sizes must be positive")
    offsets = np.cumsum([0] + sizes)
    n = int(offsets[-1])
    edges = []
    for a in range(len(sizes)):
        for b in range(a + 1, len(sizes)):
            for u in range(offsets[a], offsets[a + 1]):
                for v in range(offsets[b], offsets[b + 1]):
                    edges.append((u, v, 1.0))
    labels = [f"part{j}:{i}" for j, s in enumerate(sizes) for i in range(s)]
    return WeightedGraph(n, tuple(edges)).with_labels(labels)


# -- binary constructions ----------------------------------------------------


def join(x: WeightedGraph, y: WeightedGraph) -> WeightedGraph:
    """Disjoint union plus all unit-weight edges between the two sides.
    Vertices of x come first."""
    edges = list(x.edges)
    edges += [(u + x.n, v + x.n, w) for u, v, w in y.edges]
    edges += [(u, v + x.n, 1.0) for u in range(x.n) for v in range(y.n)]
    labels = None
    if x.labels is not None and y.labels is not None:
        labels = x.labels + y.labels
    return WeightedGraph(x.n + y.n, tuple(edges), labels=labels,
                         provenance=("join", x, y))


def union(x: WeightedGraph, y: WeightedGraph) -> WeightedGraph:
    """Disjoint union; vertices of x come first."""
    edges = list(x.edges)
    edges += [(u + x.n, v + x.n, w) for u, v, w in y.edges]
    labels = None
    if x.labels is not None and y.labels is not None:
        labels = x.labels + y.labels
    return WeightedGraph(x.n + y.n, tuple(edges), labels=labels,
                         provenance=("union", x, y))


def complement(x: WeightedGraph) -> WeightedGraph:
    if not (x.is_simple and x.is_unweighted):
        raise GraphError("complement requires a simple unweighted graph")
    present = {(u, v) for u, v, _ in x.edges}
    edges = [(u, v, 1.0) for u in range(x.n) for v in range(u + 1, x.n)
             if (u, v) not in present]
    return WeightedGraph(x.n, tuple(edges), provenance=("complement", x))


def cartesian_product(x: WeightedGraph, y: WeightedGraph) -> WeightedGraph:
    """Box product.  Vertex (u, v) gets id u*y.n + v (row-major).

    Loops combine additively: a loop at u in x and at v in y yields a loop
    of the summed weight at (u, v); a zero sum drops the loop.
    """
    ny = y.n
    acc: dict[tuple[int, int], float] = {}
    for u, v, w in x.edges:
        for t in range(ny):
            key = (u * ny + t, v * ny + t)
            acc[key] = acc.get(key, 0.0) + w
    for u, v, w in y.edges:
        for s in range(x.n):
            a, b = s * ny + u, s * ny + v
            key = (a, b) if a <= b else (b, a)
            acc[key] = acc.get(key, 0.0) + w
    edges = [(a, b, w) for (a, b), w in acc.items() if w != 0.0]
    labels = None
    if x.labels is not None and y.labels is not None:
        labels = tuple(f"{lx}|{ly}" for lx in x.labels for ly in y.labels)
    return WeightedGraph(x.n * ny, tuple(edges), labels=labels,
                         provenance=("cartesian", x, y))


def direct_product(x: WeightedGraph, y: WeightedGraph) -> WeightedGraph:
    """Tensor product: adjacency is the Kronecker product of the factors'.
    Vertex (u, v) gets id u*y.n + v."""
    a = np.kron(x.adjacency_matrix(), y.adjacency_matrix())
    n = x.n * y.n
    edges = [(u, v, float(a[u, v]))
             for u in range(n) for v in range(u, n) if a[u, v] != 0.0]
    return WeightedGraph(n, tuple(edges), provenance=("direct", x, y))


def blow_up(x: WeightedGraph, mode: str, parts) -> WeightedGraph:
    """Replace vertices (mode='vertex') or edges (mode='edge') by parts.

    Each part is (size, fill) with fill 'empty' or 'complete'.  Vertex mode:
    part j substitutes vertex j; inter-part edges copy the original weight,
    a loop at vertex j is inherited by each of its copies.  Edge mode: part j
    is inserted on the j-th non-loop edge (canonical order), every part vertex
    joined to both endpoints with the edge's weight; the original edge is
    removed.  Loops are rejected in edge mode.
    """
    parts = [(int(k), str(fill)) for k, fill in parts]
    for k, fill in parts:
        if k < 1:
            raise GraphError("blow-up part sizes must be >= 1")
        if fill not in ("empty", "complete"):
            raise GraphError(f"unknown blow-up fill {fill!r}")
    if mode == "vertex":
        if len(parts) != x.n:
            raise GraphError("vertex blow-up needs one part per vertex")
        offsets = np.cumsum([0] + [k for k, _ in parts])
        edges = []
        for j, (k, fill) in enumerate(parts):
            base = int(offsets[j])
            if fill == "complete":
                edges += [(base + a, base + b, 1.0)
                          for a in range(k) for b in range(a + 1, k)]
            lw = x.loop_weight(j)
            if lw != 0.0:
                edges += [(base + a, base + a, lw) for a in range(k)]
        for u, v, w in x.edges:
            if u == v:
                continue
            for a in range(int(offsets[u]), int(offsets[u + 1])):
                for b in range(int(offsets[v]), int(offsets[v + 1])):
                    edges.append((a, b, w))
        return WeightedGraph(int(offsets[-1]), tuple(edges),
                             provenance=("blowup-vertex", x, tuple(parts)))
    if mode == "edge":
        plain = [(u, v, w) for u, v, w in x.edges if u != v]
        if len(plain) != len(x.edges):
            raise GraphError("edge blow-up rejects loops")
        if len(parts) != len(plain):
            raise GraphError("edge blow-up needs one part per edge")
        edges = []
        nxt = x.n
        for (u, v, w), (k, fill) in zip(plain, parts):
            base = nxt
            nxt += k
            if fill == "complete":
                edges += [(base + a, base + b, 1.0)
                          for a in range(k) for b in range(a + 1, k)]
            for a in range(k):
                edges.append((u, base + a, w))
                edges.append((v, base + a, w))
        return WeightedGraph(nxt, tuple(edges),
                             provenance=("blowup-edge", x, tuple(parts)))
    raise GraphError(f"unknown blow-up mode {mode!r}")


def attach_tails(x: WeightedGraph, attachments) -> WeightedGraph:
    """Attach a fresh path of the given length to each listed vertex.

    attachments: iterable of (vertex, length).  Path vertices are appended
    after the original ones, grouped per attachment, with unit weights.
    """
    edges = list(x.edges)
    labels = list(x.labels) if x.labels is not None else None
    nxt = x.n
    for idx, (root, k) in enumerate(attachments):
        root, k = int(root), int(k)
        if not 0 <= root < x.n:
            raise GraphError(f"tail root {root} out of range")
        if k < 0:
            raise GraphError("tail length must be >= 0")
        prev = root
        for i in range(k):
            edges.append((prev, nxt, 1.0))
            if labels is not None:
                labels.append(f"tail{idx}:{i}")
            prev = nxt
            nxt += 1
    lab = tuple(labels) if labels is not None else None
    return WeightedGraph(nxt, tuple(edges), labels=lab,
                         provenance=("tails", x, tuple(attachments)))


# -- composite families ------------------------------------------------------


def rook_graph(sizes) -> WeightedGraph:
    """Box product of complete graphs with the given sizes."""
    sizes = [int(s) for s in sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise GraphError("rook sizes must be positive")
    g = complete_graph(sizes[0])
    for s in sizes[1:]:
        g = cartesian_product(g, complete_graph(s))
    # mixed-radix coordinate labels
    coords = []
    for v in range(g.n):
        rem, digit = v, []
        for s in reversed(sizes):
            digit.append(rem % s)
            rem //= s
        coords.append("cell:" + ",".join(str(d) for d in reversed(digit)))
    return g.with_labels(coords)


def hamming_graph(k: int, n: int) -> WeightedGraph:
    if k < 1:
        raise GraphError("hamming needs k >= 1")
    return rook_graph([n] * k)


def lollipop_graph(n: int, k: int) -> WeightedGraph:
    """Complete graph on n vertices with a length-k path hanging off vertex 0."""
    if n < 4 or k < 1:
        raise GraphError("lollipop needs n >= 4 and k >= 1")
    g = attach_tails(complete_graph(n), [(0, k)])
    labels = ["root"] + [f"clique:{i}" for i in range(1, n)] + \
             [f"tail:{i}" for i in range(k)]
    return g.with_labels(labels)


def barbell_graph(n: int, k: int, m: int) -> WeightedGraph:
    """Two complete graphs joined by a path with k interior vertices."""
    if n < 4 or m < 4 or k < 1:
        raise GraphError("barbell needs n, m >= 4 and k >= 1")
    edges = [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)]
    path = list(range(n, n + k))
    edges.append((0, path[0], 1.0))
    for a, b in zip(path, path[1:]):
        edges.append((a, b, 1.0))
    off = n + k
    edges.append((path[-1], off, 1.0))
    edges += [(off + u, off + v, 1.0) for u in range(m) for v in range(u + 1, m)]
    labels = ["leftroot"] + [f"left:{i}" for i in range(1, n)] + \
             [f"tail:{i}" for i in range(k)] + \
             ["rightroot"] + [f"right:{i}" for i in range(1, m)]
    return WeightedGraph(n + k + m, tuple(edges)).with_labels(labels)


def double_star_graph(k: int, ell: int) -> WeightedGraph:
    """Two adjacent centers with k and ell pendant leaves.

    Ordering: the k leaves of the first center, the two centers, then the
    ell leaves of the second center.
    """
    if k < 1 or ell < 1:
        raise GraphError("double star needs k, ell >= 1")
    u, v = k, k + 1
    edges = [(i, u, 1.0) for i in range(k)]
    edges.append((u, v, 1.0))
    edges += [(v, k + 2 + i, 1.0) for i in range(ell)]
    labels = [f"leafu:{i}" for i in range(k)] + ["internal:u", "internal:v"] + \
             [f"leafv:{i}" for i in range(ell)]
    return WeightedGraph(k + ell + 2, tuple(edges)).with_labels(labels)


def threshold_graph(sizes) -> WeightedGraph:
    """Alternating empty/complete block sequence: start with an empty block,
    then alternately join a complete block and disjoint-union an empty one."""
    sizes = [int(s) for s in sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise GraphError("threshold sizes must be positive")
    g = empty_graph(sizes[0]).with_labels([f"block0:{i}" for i in range(sizes[0])])
    for j, s in enumerate(sizes[1:], start=1):
        labels = [f"block{j}:{i}" for i in range(s)]
        if j % 2 == 1:
            g = join(g, complete_graph(s).with_labels(labels))
        else:
            g = union(g, empty_graph(s).with_labels(labels))
    return g


def cone(base: WeightedGraph) -> WeightedGraph:
    """One apex joined to every vertex of the base."""
    g = join(complete_graph(1), base)
    labels = ["apex"] + [f"base:{i}" for i in range(base.n)]
    return g.with_labels(labels)


def double_cone(base: WeightedGraph, mode: str = "disconnected") -> WeightedGraph:
    """Two apexes joined to every base vertex; 'connected' also joins the
    apexes to each other."""
    if mode not in ("connected", "disconnected"):
        raise GraphError(f"unknown double cone mode {mode!r}")
    top = complete_graph(2) if mode == "connected" else empty_graph(2)
    g = join(top, base)
    labels = ["apex:0", "apex:1"] + [f"base:{i}" for i in range(base.n)]
    return g.with_labels(labels)


def _clique_indep_join(n: int, m: int) -> WeightedGraph:
    g = join(complete_graph(n), empty_graph(m))
    labels = [f"clique:{i}" for i in range(n)] + [f"indep:{i}" for i in range(m)]
    return g.with_labels(labels)


def x_tail_graph(n: int, m: int, k: int) -> WeightedGraph:
    """Complete-join-empty core with a length-k path on each independent-set
    vertex."""
    if n < 3 or m < 3 or k < 0:
        raise GraphError("x-tail needs n, m >= 3 and k >= 0")
    core = _clique_indep_join(n, m)
    return attach_tails(core, [(n + j, k) for j in range(m)])


def y_tail_graph(n: int, m: int, k: int) -> WeightedGraph:
    """Complete-join-empty core with a length-k path on each clique vertex."""
    if n < 3 or m < 3 or k < 0:
        raise GraphError("y-tail needs n, m >= 3 and k >= 0")
    core = _clique_indep_join(n, m)
    return attach_tails(core, [(j, k) for j in range(n)])


# -- family specs and the CLI grammar ---------------------------------------

FAMILY_KINDS = (
    "complete", "empty", "path", "cycle", "star", "multipartite", "rook",
    "hamming", "lollipop", "barbell", "doublestar", "threshold", "cone",
    "doublecone", "xtail", "ytail",
)

_PARAM_COUNTS = {
    "complete": (1, 1), "empty": (1, 1), "path": (1, 1), "cycle": (1, 1),
    "star": (1, 1), "multipartite": (1, None), "rook": (1, None),
    "hamming": (2, 2), "lollipop": (2, 2), "barbell": (3, 3),
    "doublestar": (2, 2), "threshold": (1, None), "xtail": (3, 3),
    "ytail": (3, 3),
}


@dataclass(frozen=True)
class FamilySpec:
    """A named parametric graph family, as written on the command line."""

    kind: str
    params: tuple[int, ...] = ()
    mode: str | None = None
    base: WeightedGraph | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise GraphError(f"unknown family {self.kind!r}")
        object.__setattr__(self, "params", tuple(int(p) for p in self.params))

    def __str__(self) -> str:
        parts = [self.kind]
        if self.mode is not None:
            parts.append(self.mode)
        if self.params:
            parts.append(",".join(str(p) for p in self.params))
        if self.base is not None:
            parts.append(describe_graph(self.base))
        return ":".join(parts)


def parse_family(text: str) -> FamilySpec:
    """Parse a family spec string such as 'rook:3,4' or
    'doublecone:disconnected:cycle:5' or 'cone:@base.graph'."""
    head, _, rest = text.strip().partition(":")
    kind = head.lower()
    if kind not in FAMILY_KINDS:
        raise GraphError(f"unknown family {head!r}")
    if kind in ("cone", "doublecone"):
        mode = None
        if kind == "doublecone":
            mode, _, rest = rest.partition(":")
            if mode not in ("connected", "disconnected"):
                raise GraphError("doublecone mode must be connected or disconnected")
        if not rest:
            raise GraphError(f"{kind} needs a base graph")
        if rest.startswith("@"):
            base = read_graph_file(rest[1:])
        else:
            base = build_family(parse_family(rest))
        return FamilySpec(kind, mode=mode, base=base)
    if not rest:
        raise GraphError(f"family {kind!r} needs parameters")
    try:
        params = tuple(int(p) for p in rest.split(","))
    except ValueError as exc:
        raise GraphError(f"bad parameters for family {kind!r}: {rest!r}") from exc
    lo, hi = _PARAM_COUNTS[kind]
    if len(params) < lo or (hi is not None and len(params) > hi):
        raise GraphError(f"family {kind!r} takes "
                         f"{lo if hi == lo else f'{lo}+'} parameters")
    return FamilySpec(kind, params)


def build_family(spec: FamilySpec) -> WeightedGraph:
    """Materialize a family spec with its documented vertex ordering."""
    kind, p = spec.kind, spec.params
    if kind == "complete":
        g = complete_graph(p[0])
    elif kind == "empty":
        g = empty_graph(p[0])
    elif kind == "path":
        g = path_graph(p[0])
    elif kind == "cycle":
        g = cycle_graph(p[0])
    elif kind == "star":
        g = star_graph(p[0])
    elif kind == "multipartite":
        g = complete_multipartite_graph(p)
    elif kind == "rook":
        g = rook_graph(p)
    elif kind == "hamming":
        g = hamming_graph(p[0], p[1])
    elif kind == "lollipop":
        g = lollipop_graph(p[0], p[1])
    elif kind == "barbell":
        g = barbell_graph(p[0], p[1], p[2])
    elif kind == "doublestar":
        g = double_star_graph(p[0], p[1])
    elif kind == "threshold":
        g = threshold_graph(p)
    elif kind == "cone":
        g = cone(spec.base)
    elif kind == "doublecone":
        g = double_cone(spec.base, spec.mode or "disconnected")
    elif kind == "xtail":
        g = x_tail_graph(p[0], p[1], p[2])
    elif kind == "ytail":
        g = y_tail_graph(p[0], p[1], p[2])
    else:  # pragma: no cover
        raise GraphError(f"unknown family {kind!r}")
    return g.with_provenance(spec)


# -- file format --------------------------------------------------------------


def read_graph_file(path) -> WeightedGraph:
    """Read the plain text format: first line 'n m', then m lines 'u v w'."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise GraphError(f"{path}: empty graph file")
    try:
        n, m = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise GraphError(f"{path}: bad header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise GraphError(f"{path}: expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) not in (2, 3):
            raise GraphError(f"{path}: bad edge line {ln!r}")
        u, v = int(toks[0]), int(toks[1])
        w = float(toks[2]) if len(toks) == 3 else 1.0
        edges.append((u, v, w))
    return WeightedGraph(n, tuple(edges))


def write_graph_file(g: WeightedGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {g.num_edges}\n")
        for u, v, w in g.edges:
            fh.write(f"{u} {v} {w!r}\n")


def describe_graph(g: WeightedGraph) -> str:
    """Stable human-readable identity used in reports."""
    prov = g.provenance
    if isinstance(prov, FamilySpec):
        return str(prov)
    if isinstance(prov, tuple) and prov and isinstance(prov[0], str):
        op = prov[0]
        args = [describe_graph(a) for a in prov[1:] if isinstance(a, WeightedGraph)]
        if args:
            return f"{op}({','.join(args)})"
    return f"graph:{g.n}v,{g.num_edges}e,{g.content_hash()[:8]}"
