"""Independent checks of qwsed reports.

Nothing here calls into qwsed.  Each graph's matrix is assembled from its
edge list, and |U(t)_uu| is evaluated with scipy.linalg.expm, so a fault in
qwsed's eigendecomposition, periodicity detection or oracle cannot hide
behind the same code path on both sides.

A report is the JSON dict written by `qwsed analyze` / `family-scan`, or
`SedentaryReport.to_dict()`.  `check_report` returns a list of problems;
an empty list means the report passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

# The program's own tolerances: a stated zero must reach ZERO_TOL, a tight
# constant is matched to RECONCILE_TOL, and the oracle's argmin is any
# candidate whose squared magnitude is within ARGMIN_TIE_TOL of the best.
ZERO_TOL = 1e-8
RECONCILE_TOL = 1e-6
ARGMIN_TIE_TOL = 1e-9
PST_TOL = 1e-8
# slack for comparing values computed along two independent routes
NUMERIC_TOL = 1e-9
# paper constants are closed forms; reports must reproduce them this closely
CONSTANT_TOL = 1e-7

SEDENTARY_LABELS = ("tightly-sedentary", "sharply-sedentary", "sedentary-at-least")
LABELS = SEDENTARY_LABELS + ("not-sedentary", "unresolved")

# samples per unit of phase (t * eigenvalue spread / 2 pi) and their cap
_SAMPLES_PER_TURN = 8
_MIN_SAMPLES = 2000
_MAX_SAMPLES = 40000
_RESYNC = 256


# -- graphs as edge lists ------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """n vertices and edges (u, v, w) with u <= v; a loop is (u, u, w)."""

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for u, v, w in self.edges:
            a[u, v] = w
            a[v, u] = w
        return a

    def matrix(self, kind: str) -> np.ndarray:
        """adjacency, laplacian, norm-adj or norm-lap; a loop counts twice
        in the degree."""
        a = self.adjacency()
        deg = a.sum(axis=1) + np.diag(a)
        if kind == "adjacency":
            return a
        if kind == "laplacian":
            return np.diag(deg) - a
        if kind in ("norm-adj", "norm-lap"):
            inv = np.array([1.0 / math.sqrt(d) if d > 1e-12 else 0.0 for d in deg])
            m = inv[:, None] * a * inv[None, :]
            return np.eye(self.n) - m if kind == "norm-lap" else m
        raise ValueError(f"unknown matrix kind {kind!r}")

    def twin_class_size(self, u: int) -> int:
        """Size of u's twin class: vertices with the same loop weight and the
        same weighted neighbourhood once the pair's own edge is ignored."""
        nbrs = [dict() for _ in range(self.n)]
        for a, b, w in self.edges:
            nbrs[a][b] = w
            nbrs[b][a] = w

        def twins(x: int, y: int) -> bool:
            if nbrs[x].get(x, 0.0) != nbrs[y].get(y, 0.0):
                return False
            nx = {k: w for k, w in nbrs[x].items() if k not in (x, y)}
            ny = {k: w for k, w in nbrs[y].items() if k not in (x, y)}
            return nx == ny

        return 1 + sum(1 for v in range(self.n) if v != u and twins(u, v))


def complete(n: int) -> Graph:
    return Graph(n, tuple((u, v, 1.0) for u in range(n) for v in range(u + 1, n)))


def star(leaves: int) -> Graph:
    """Center 0, leaves 1..leaves."""
    return Graph(leaves + 1, tuple((0, i, 1.0) for i in range(1, leaves + 1)))


def cycle(n: int) -> Graph:
    return Graph(n, tuple(sorted((min(i, (i + 1) % n), max(i, (i + 1) % n), 1.0)
                                 for i in range(n))))


def cartesian(x: Graph, y: Graph) -> Graph:
    """Box product; vertex (a, b) is a * y.n + b."""
    edges = [(a * y.n + b, c * y.n + b, w) for a, c, w in x.edges for b in range(y.n)]
    edges += [(a * y.n + b, a * y.n + c, w) for b, c, w in y.edges for a in range(x.n)]
    return Graph(x.n * y.n, tuple(sorted(edges)))


def rook(sizes) -> Graph:
    g = complete(sizes[0])
    for s in sizes[1:]:
        g = cartesian(g, complete(s))
    return g


def cone(base: Graph) -> Graph:
    """Apex 0 joined to every base vertex, base shifted by one."""
    edges = [(0, v + 1, 1.0) for v in range(base.n)]
    edges += [(a + 1, b + 1, w) for a, b, w in base.edges]
    return Graph(base.n + 1, tuple(sorted(edges)))


def lollipop(n: int, k: int) -> Graph:
    """Complete graph on 0..n-1 with a path of k vertices hanging off 0."""
    path = [0] + list(range(n, n + k))
    edges = list(complete(n).edges) + [(a, b, 1.0) for a, b in zip(path, path[1:])]
    return Graph(n + k, tuple(edges))


def relabel(g: Graph, perm) -> Graph:
    """Vertex v becomes perm[v]."""
    edges = []
    for u, v, w in g.edges:
        a, b = int(perm[u]), int(perm[v])
        edges.append((min(a, b), max(a, b), w))
    return Graph(g.n, tuple(sorted(edges)))


# -- the walk, evaluated without qwsed -----------------------------------------


def diag_abs(m: np.ndarray, u: int, t: float) -> float:
    return float(abs(expm(1j * t * m)[u, u]))


def max_transfer(m: np.ndarray, u: int, t: float) -> float:
    """max over v != u of |U(t)_vu|."""
    col = np.abs(expm(1j * t * m)[:, u])
    col[u] = 0.0
    return float(col.max())


def spread(m: np.ndarray) -> float:
    """An upper bound on the eigenvalue spread from Gershgorin discs."""
    radius = np.abs(m).sum(axis=1) - np.abs(np.diag(m))
    return float(np.max(np.diag(m) + radius) - np.min(np.diag(m) - radius))


def sample_diag(m: np.ndarray, u: int, t0: float, t1: float,
                offset: float) -> np.ndarray:
    """|U(t)_uu| on an evenly spaced grid over [t0, t1] shifted by a fraction
    `offset` of one step, so the samples avoid the oracle's own grid.

    Steps propagate the column U(t) e_u with expm(i h M); every _RESYNC
    steps the column is recomputed from scratch to stop rounding drift.
    """
    span = t1 - t0
    npts = int(min(max(_MIN_SAMPLES,
                       _SAMPLES_PER_TURN * span * spread(m) / (2.0 * math.pi)),
                   _MAX_SAMPLES))
    h = span / npts
    step = expm(1j * h * m)
    out = np.empty(npts)
    col = None
    for k in range(npts):
        if k % _RESYNC == 0:
            col = expm(1j * (t0 + (k + offset) * h) * m)[:, u]
        else:
            col = step @ col
        out[k] = abs(col[u])
    return out


# -- report checks -----------------------------------------------------------------


@dataclass(frozen=True)
class Expectation:
    """A paper constant for one vertex.

    label 'not-sedentary' demands that label.  Otherwise the vertex is
    sedentary with C >= constant, and C == constant with a tight label when
    `attained` is set.
    """

    constant: float
    attained: bool = False
    label: str | None = None
    source: str = ""


NOT_SEDENTARY = Expectation(0.0, label="not-sedentary", source="vanishing diagonal")


def _stated_tight_times(rep: dict) -> list[float]:
    c = rep["C"]
    times = [t for cert in rep["certificates"]
             if cert["equality_times"] and abs(cert["bound"] - c) <= NUMERIC_TOL
             for t in cert["equality_times"]]
    oracle = rep.get("oracle")
    if not times and oracle is not None and oracle["certified"]:
        times = [oracle["argmin"]]
    return times


def _vanishing_times(rep: dict) -> list[tuple[str, float]]:
    return [(cert["kind"], t) for cert in rep["certificates"]
            if cert["bound"] == 0.0 for t in cert["equality_times"]]


def check_report(rep: dict, g: Graph, kind: str, expect: Expectation | None = None,
                 offset: float = 0.5) -> list[str]:
    """Every problem found with one report; [] when it passes."""
    label, c = rep["classification"], rep["C"]
    if label not in LABELS:
        return [f"unknown label {label!r}"]
    if (c is None) != (label == "unresolved"):
        return [f"label {label} with C = {c!r}"]
    problems: list[str] = []
    u = rep["vertex"]
    m = g.matrix(kind)

    # the oracle: its minimum is attained at its argmin, up to the oracle's
    # tie rule, and no sample of the window dips below it
    oracle = rep.get("oracle")
    floor = None
    if oracle is not None:
        at_argmin = diag_abs(m, u, oracle["argmin"])
        low = oracle["minimum"]
        if not (low - NUMERIC_TOL <= at_argmin
                and at_argmin ** 2 <= low ** 2 + ARGMIN_TIE_TOL + NUMERIC_TOL):
            problems.append(f"oracle minimum {low:.12g} but "
                            f"|U(argmin)| = {at_argmin:.12g}")
        t0, t1 = oracle["window"]
        samples = sample_diag(m, u, t0, t1, offset)
        floor = min(float(samples.min()), at_argmin)
        if samples.min() < low - NUMERIC_TOL:
            problems.append(f"sample {samples.min():.12g} below the oracle "
                            f"minimum {low:.12g}")
    if c is not None and floor is not None and c > floor + NUMERIC_TOL:
        problems.append(f"C = {c:.12g} exceeds |U(t)| = {floor:.12g}")

    problems += _backing(rep, oracle)
    if label == "tightly-sedentary":
        times = _stated_tight_times(rep)
        if not times:
            problems.append("tight label without a stated time")
        for t in times:
            val = diag_abs(m, u, t)
            if abs(val - c) > RECONCILE_TOL:
                problems.append(f"tight C = {c:.12g} but |U({t:.12g})| = {val:.12g}")
    for ckind, t in _vanishing_times(rep):
        if ckind == "not-sedentary-pst":
            peak = max_transfer(m, u, t)
            if peak < 1.0 - PST_TOL - NUMERIC_TOL:
                problems.append(f"stated transfer at {t:.12g} reaches {peak:.12g}")
            continue
        val = diag_abs(m, u, t)
        if val > ZERO_TOL:
            problems.append(f"{ckind} states a zero at {t:.12g} where "
                            f"|U| = {val:.3e}")

    # paper constants: twin classes for every report, family constants
    # where the workload names one
    size = g.twin_class_size(u)
    for cert in rep["certificates"]:
        if cert["kind"] == "twin-bound" and \
                abs(cert["bound"] - max(1.0 - 2.0 / size, 0.0)) > NUMERIC_TOL:
            problems.append(f"twin bound {cert['bound']:.12g} for a class of {size}")
    if size >= 3:
        problems += _against(rep, Expectation(1.0 - 2.0 / size,
                                              source=f"twin class of size {size}"))
    if expect is not None:
        problems += _against(rep, expect)
    return problems


def _backing(rep: dict, oracle: dict | None) -> list[str]:
    """A label and its constant must rest on the report's own evidence: C is
    the bound of a certificate or a certified oracle minimum, a sharp label
    cites a parity or closed-form certificate, and not-sedentary has C = 0
    and a certificate with bound 0."""
    label, c, certs = rep["classification"], rep["C"], rep["certificates"]
    if label == "unresolved":
        return []
    if label == "not-sedentary":
        if c != 0.0 or not any(cert["bound"] == 0.0 for cert in certs):
            return [f"not-sedentary with C = {c!r} and no vanishing certificate"]
        return []
    backed = [cert for cert in certs if abs(cert["bound"] - c) <= NUMERIC_TOL]
    on_oracle = (oracle is not None and oracle["certified"]
                 and abs(oracle["minimum"] - c) <= NUMERIC_TOL)
    if not backed and not (label == "tightly-sedentary" and on_oracle):
        return [f"C = {c:.12g} is no certificate's bound"]
    if label == "sharply-sedentary" and not any(
            cert["kind"] in ("sharpness-parity", "closed-form-family") for cert in backed):
        return ["sharp label without a parity or closed-form certificate"]
    return []


def _against(rep: dict, e: Expectation) -> list[str]:
    label, c = rep["classification"], rep["C"]
    if e.label is not None:
        return [] if label == e.label else [f"{e.source}: label {label}, "
                                            f"expected {e.label}"]
    if label not in SEDENTARY_LABELS or c is None:
        return [f"{e.source}: label {label}, expected sedentary"]
    if c < e.constant - CONSTANT_TOL:
        return [f"{e.source}: C = {c:.12g} below {e.constant:.12g}"]
    if e.attained:
        if label != "tightly-sedentary":
            return [f"{e.source}: label {label}, expected tightly-sedentary"]
        if abs(c - e.constant) > CONSTANT_TOL:
            return [f"{e.source}: C = {c:.12g}, expected {e.constant:.12g}"]
    return []
