"""Weighted graphs with loops, and the constructions the walk analysis is built on.

Vertices are dense 0-based integers.  Edges are unordered pairs with nonzero
real weights; a pair (u, u) is a loop.  Graphs are immutable: every operation
returns a new instance.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field, fields
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


def _numeric_columns(edges):
    """The u, v, w columns of an edge list whose rows are all numeric pairs
    or all numeric triples, converted as int() and float() would convert
    each entry (a pair has weight 1.0).  None for any other list: ragged,
    non-numeric, or with an endpoint a float64 does not hold exactly."""
    try:
        a = np.asarray(edges)
    except (ValueError, TypeError, OverflowError):
        return None
    if a.ndim != 2 or a.shape[1] not in (2, 3) or a.dtype.kind not in "if":
        return None
    ends = a[:, :2]
    if a.dtype.kind == "f" and not np.all(np.abs(ends) < 2.0 ** 53):
        return None
    u, v = ends.astype(np.int64).T  # truncates toward zero, as int() does
    w = a[:, 2].astype(np.float64) if a.shape[1] == 3 else np.ones(len(a))
    return u, v, w


def _checked_columns(n: int, u, v, w):
    """Order each edge u <= v and sort by (u, v).  The first edge in input
    order that is out of range, has a non-finite or zero weight, or repeats
    an earlier pair raises, with that precedence within one edge."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    # lexsort is stable: a repeated pair sorts after its first occurrence
    order = np.lexsort((hi, lo))
    slo, shi = lo[order], hi[order]
    repeat = np.zeros(len(u), dtype=bool)
    repeat[order[1:]] = (slo[1:] == slo[:-1]) & (shi[1:] == shi[:-1])
    out_of_range = (lo < 0) | (hi >= n)
    bad_weight = ~np.isfinite(w) | (w == 0.0)
    bad = out_of_range | bad_weight | repeat
    if bad.any():
        i = int(np.argmax(bad))
        a, b, x = int(u[i]), int(v[i]), float(w[i])
        if out_of_range[i]:
            raise GraphError(f"edge ({a},{b}) out of range for n={n}")
        if bad_weight[i]:
            raise GraphError(f"edge ({a},{b}) has invalid weight {x!r}")
        raise GraphError(f"duplicate edge ({min(a, b)},{max(a, b)})")
    return slo, shi, w[order]


def _columns(rows):
    u, v, w = zip(*rows) if rows else ((), (), ())
    return (np.array(u, dtype=np.int64), np.array(v, dtype=np.int64),
            np.array(w, dtype=np.float64))


def _canonical_edges(n: int, edges):
    """The canonical (u, v, w) columns of an edge list.  Lists that
    _numeric_columns cannot take are converted edge by edge; an edge that
    fails to convert, or is out of range, raises once the edges before it
    have passed their checks."""
    cols = _numeric_columns(edges)
    if cols is not None:
        return _checked_columns(n, *cols)
    rows = []
    for e in edges:
        try:
            if len(e) == 2:
                u, v = e
                w = 1.0
            else:
                u, v, w = e
            u, v, w = int(u), int(v), float(w)
        except (TypeError, ValueError, OverflowError):
            _checked_columns(n, *_columns(rows))
            raise
        if not (0 <= u < n and 0 <= v < n):
            _checked_columns(n, *_columns(rows))
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        rows.append((u, v, w))
    return _checked_columns(n, *_columns(rows))


def _checked_labels(n: int, labels) -> tuple[str, ...]:
    labels = tuple(str(s) for s in labels)
    if len(labels) != n:
        raise GraphError("labels length must match vertex count")
    return labels


class _Incidence:
    """The graph's adjacency record, read from its canonical (u, v, w)
    columns by one vectorised pass.  Each edge is listed from both ends, so
    vertex u has start[u + 1] - start[u] entries (a loop gives two), and
    u's weighted degree degrees[u] counts a loop twice; loop[u] and
    non_unit[u] tell whether u has a loop or an edge of weight other than 1.
    u's neighbours are neighbors[start[u]:start[u + 1]], in increasing
    order (u twice for a loop), and weights holds their edges' weights in
    the same slice.  Those two are made on first use (_sorted) by one
    stable argsort of the edge ends.  All arrays are shared, so read-only."""

    def __init__(self, n: int, columns):
        u, v, w = columns
        self._columns = columns
        self._ends = np.concatenate((v, u))
        self.start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self._ends, minlength=n), out=self.start[1:])
        self.degrees = np.bincount(self._ends, weights=np.concatenate((w, w)),
                                   minlength=n)
        self.loop = np.zeros(n, dtype=bool)
        self.loop[u[u == v]] = True
        self.non_unit = np.zeros(n, dtype=bool)
        heavy = w != 1.0
        self.non_unit[u[heavy]] = True
        self.non_unit[v[heavy]] = True
        for a in (self.start, self.degrees, self.loop, self.non_unit):
            a.setflags(write=False)

    def unit(self, u: int) -> bool:
        """u has no loop, and every edge at u has weight 1."""
        return not (self.loop[u] or self.non_unit[u])

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        u, v, w = self._columns
        order = np.argsort(self._ends, kind="stable")
        arrays = (np.concatenate((u, v))[order], np.concatenate((w, w))[order])
        for a in arrays:
            a.setflags(write=False)
        return arrays

    @property
    def neighbors(self) -> np.ndarray:
        return self._sorted[0]

    @property
    def weights(self) -> np.ndarray:
        return self._sorted[1]


def _common_value(values: np.ndarray) -> float | None:
    """values[0] when every entry agrees with it to 1e-12 (relative and
    absolute), else None; None when there are no values."""
    if len(values) == 0:
        return None
    d = float(values[0])
    return d if np.allclose(values, d, rtol=1e-12, atol=1e-12) else None


@dataclass(frozen=True)
class WeightedGraph:
    """An undirected weighted graph with optional loops.

    ``edges`` is canonicalized on construction, once: endpoints ordered
    u <= v, sorted lexicographically, duplicates rejected.  ``columns``
    holds the same edges as read-only arrays.  ``labels`` and
    ``provenance`` are annotations and do not participate in equality;
    with_labels and with_provenance return a graph that shares this one's
    ``edges`` and ``columns``.

    What depends only on the graph object is computed on first use and
    kept on it: the three edge flags (is_simple, is_unweighted,
    is_positively_weighted), the adjacency record every per-vertex query
    reads (_incidence), the description of reports (describe_graph), and
    the spectral data classification keeps per matrix kind (_spectra).
    """

    n: int
    edges: tuple[tuple[int, int, float], ...] = ()
    labels: tuple[str, ...] | None = field(default=None, compare=False)
    provenance: object = field(default=None, compare=False, repr=False)
    columns: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("vertex count must be nonnegative")
        cols = _canonical_edges(self.n, self.edges)
        for c in cols:
            c.setflags(write=False)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "edges", tuple(zip(*(c.tolist() for c in cols))))
        if self.labels is not None:
            object.__setattr__(self, "labels", _checked_labels(self.n, self.labels))

    # -- basic queries ------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def _vertex(self, u: int) -> int:
        """u, when it is a vertex of this graph; GraphError otherwise."""
        if not 0 <= u < self.n:
            raise GraphError(f"vertex {u} out of range for n={self.n}")
        return u

    def weight(self, u: int, v: int) -> float:
        """Weight of the edge between u and v, 0.0 if absent; GraphError
        when u or v is not a vertex (as for has_edge and loop_weight)."""
        u, v = self._vertex(u), self._vertex(v)
        rec = self._incidence
        lo, hi = rec.start[u], rec.start[u + 1]
        i = lo + np.searchsorted(rec.neighbors[lo:hi], v)
        return float(rec.weights[i]) if i < hi and rec.neighbors[i] == v else 0.0

    def has_edge(self, u: int, v: int) -> bool:
        return self.weight(u, v) != 0.0

    def neighbors(self, u: int) -> dict[int, float]:
        """Weighted neighborhood of u, excluding u itself; GraphError when u
        is not a vertex."""
        u = self._vertex(u)
        rec = self._incidence
        lo, hi = rec.start[u], rec.start[u + 1]
        return {v: w for v, w in zip(rec.neighbors[lo:hi].tolist(),
                                     rec.weights[lo:hi].tolist()) if v != u}

    @cached_property
    def _incidence(self) -> _Incidence:
        return _Incidence(self.n, self.columns)

    def loop_weight(self, u: int) -> float:
        return self.weight(u, u)

    def adjacency_matrix(self) -> np.ndarray:
        """Symmetric adjacency matrix; a loop contributes its weight once to
        the diagonal."""
        u, v, w = self.columns
        a = np.zeros((self.n, self.n))
        a[u, v] = w
        a[v, u] = w
        return a

    def degrees(self) -> np.ndarray:
        """Weighted degrees of all vertices, loops counted twice (read-only)."""
        return self._incidence.degrees

    @cached_property
    def is_simple(self) -> bool:
        u, v, _ = self.columns
        return not np.any(u == v)

    @cached_property
    def is_unweighted(self) -> bool:
        return bool(np.all(self.columns[2] == 1.0))

    @cached_property
    def is_positively_weighted(self) -> bool:
        return bool(np.all(self.columns[2] > 0.0))

    def regular_degree(self) -> float | None:
        """Common weighted degree if the graph is regular, else None."""
        return _common_value(self.degrees())

    def with_labels(self, labels) -> "WeightedGraph":
        """This graph with the given labels (checked as on construction) and
        this graph's provenance.  The new graph shares ``edges`` and
        ``columns`` with this one; nothing is canonicalized again, and
        nothing computed on this graph is kept on the new one."""
        checked = None if labels is None else _checked_labels(self.n, labels)
        return self._with_annotations(checked, self.provenance)

    def with_provenance(self, provenance) -> "WeightedGraph":
        """This graph with the given provenance and this graph's labels,
        sharing ``edges`` and ``columns`` as with_labels does."""
        return self._with_annotations(self.labels, provenance)

    def _with_annotations(self, labels, provenance) -> "WeightedGraph":
        # every field copied as the frozen dataclass sets it, without
        # __post_init__; the caches live in __dict__ under other names
        g = object.__new__(type(self))
        g.__dict__.update({f.name: getattr(self, f.name) for f in fields(self)},
                          labels=labels, provenance=provenance)
        return g

    @cached_property
    def _spectra(self) -> dict:
        """The spectral data of this graph object per matrix kind, filled by
        qwsed.sedentary._graph_spectra, and under the key None the map
        from each vertex with a twin to its class, which every kind shares
        (qwsed.sedentary._twin_map); it lives as long as the graph."""
        return {}

    def content_hash(self) -> str:
        return self._content_hash

    @cached_property
    def _description(self) -> str:
        return _describe(self)

    @cached_property
    def _content_hash(self) -> str:
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


# edge rows of a graph file whose lines all have 2 or all have 3 tokens
_EDGE_ROWS = {2: np.dtype([("u", np.int64), ("v", np.int64)]),
              3: np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])}


def _parse_columns(text: str) -> tuple[int, np.ndarray] | None:
    """n and the (m, 3) edge array of a graph file's text, parsed a whole
    column at a time (a line 'u v' has weight 1).  np.loadtxt takes the same
    integer and float tokens as int() and float(), or fewer, once its
    float-parsed integers are refused.  None when the
    text is not ASCII, holds a '#', or has a header, line count, mixed line
    widths, a token np.loadtxt refuses or an endpoint beyond float64
    precision, all of which the line-by-line reader rules on."""
    if "#" in text or not text.isascii():
        return None
    header, _, body = text.lstrip().partition("\n")
    toks = header.split()
    lines = body.split("\n")
    first = next((t for t in map(str.split, lines) if t), ())
    if len(toks) != 2 or len(first) not in _EDGE_ROWS:
        return None
    try:
        n, m = int(toks[0]), int(toks[1])
        # numpy releases that parse an integer field via float (so '1.5' and
        # '1e3' pass) warn with a DeprecationWarning; refuse those tokens too
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(lines, dtype=_EDGE_ROWS[len(first)], ndmin=1)
    except (ValueError, DeprecationWarning):
        return None
    a = np.ones((len(rows), 3))
    for j, name in enumerate(rows.dtype.names):
        a[:, j] = rows[name]
    if m != len(rows) or np.any(np.abs(a[:, :2]) >= 2.0 ** 53):
        return None
    return n, a


def read_graph_file(path) -> WeightedGraph:
    """Read the plain text format: first line 'n m', then m lines 'u v w'
    (a line 'u v' has weight 1)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    parsed = _parse_columns(text)
    if parsed is not None:
        return WeightedGraph(*parsed)
    # line by line: the first bad line raises
    lines = [s for ln in text.split("\n") if (s := ln.strip()) and not ln.startswith("#")]
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
    """Stable human-readable identity used in reports: the family spec of
    a family graph, op(args) for a construction, else the vertex and edge
    counts with a content hash.  It is a pure function of g's provenance
    and edges, so it is made once per graph object and kept on it."""
    return g._description


def _describe(g: WeightedGraph) -> str:
    prov = g.provenance
    if isinstance(prov, FamilySpec):
        return str(prov)
    if isinstance(prov, tuple) and prov and isinstance(prov[0], str):
        op = prov[0]
        args = [describe_graph(a) for a in prov[1:] if isinstance(a, WeightedGraph)]
        if args:
            return f"{op}({','.join(args)})"
    return f"graph:{g.n}v,{g.num_edges}e,{g.content_hash()[:8]}"
