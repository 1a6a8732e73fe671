"""Spectral decomposition and the vertex-level spectral structure the
certificates are built from: eigenvalue supports, cospectrality, twin sets,
and periodicity detection.

Arrays whose size grows with n or with a grid stay in numpy, and so does
every reduction (a cluster's np.mean, np.add.reduceat, the np.sum of a
period check) and every complex exponential.  Bookkeeping whose size is the
number of eigenvalues (the cluster tolerance, starts and order, a support's
mask, the scale, the near-integer test and the rescaling to integers) runs
on tolist() Python floats, which round as numpy's elementwise operations
do, so the results are numpy's to the bit; on the small graphs most
reports are made from, one numpy call per such step costs more than the
eigensolve.  No built-in sum() replaces a numpy reduction: its rounding
differs from numpy's pairwise sum, and from Python 3.12 on it differs
between versions too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graphs import WeightedGraph
from .matrices import Hamiltonian

__all__ = [
    "SpectralError",
    "DEFAULT_CLUSTER_TOL",
    "SpectralDecomposition",
    "decompose",
    "EigenvalueSupport",
    "support",
    "are_cospectral",
    "StrongCospectralPartition",
    "strong_cospectral",
    "TwinSet",
    "find_twin_sets",
    "verify_twin_eigenvector",
    "PeriodicityInfo",
    "periodicity",
]

DEFAULT_CLUSTER_TOL = 1e-8
# an eigenvalue is in a vertex's support when ||E_j e_u|| exceeds this
_SUPPORT_TOL = 1e-10
_MAX_DENOMINATOR = 10**6
# far below 1 / (2 _MAX_DENOMINATOR), so the integer is the closest fraction
_WHOLE_TOL = 1e-9
_INT_TOL = 1e-9
_UNIT_TOL = 1e-8
# cospectrality, strong cospectrality and twin eigenvectors hold within this
_PAIR_TOL = 1e-9


class SpectralError(RuntimeError):
    """Eigensolver failure or invalid spectral-layer input."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues (descending), the eigenvectors as columns
    grouped by eigenvalue (block V_j is columns offsets[j]:offsets[j+1], so
    E_j = V_j V_j^T), weights[u, j] = (E_j)_{u,u}, and the matrix."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray
    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_distinct(self) -> int:
        return len(self.eigenvalues)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(int(m) for m in np.diff(self.offsets))

    def cluster_sums(self, x: np.ndarray) -> np.ndarray:
        """Block sums of x's last axis, which runs over the columns of vectors."""
        return np.add.reduceat(x, self.offsets[:-1], axis=-1)

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        """Dense projectors E_j, built on each call."""
        return tuple(v @ v.T for v in np.split(self.vectors, self.offsets[1:-1], axis=1))

    def diagonal_weight(self, j: int, u: int) -> float:
        """(E_j)_{u,u}: the squared length of the projection of e_u."""
        return float(self.weights[u, j])

    def scale(self) -> float:
        """max(1, the largest |eigenvalue|)."""
        return max(1.0, max(map(abs, self.eigenvalues.tolist()), default=1.0))


def decompose(h: Hamiltonian | np.ndarray) -> SpectralDecomposition:
    """Eigendecompose a real symmetric matrix into distinct eigenvalues and
    orthonormal eigenvector blocks.

    Eigenvalues closer than DEFAULT_CLUSTER_TOL * max(1, spectral norm) are
    merged into one eigenspace; each reported eigenvalue is the mean of its
    cluster.
    """
    m = h.matrix if isinstance(h, Hamiltonian) else np.asarray(h, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SpectralError("matrix must be square")
    scale = max(1.0, float(np.abs(m).max()) if m.size else 1.0)
    if m.size and float(np.abs(m - m.T).max()) > 1e-12 * scale:
        raise SpectralError("matrix must be symmetric")
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigensolver failed: {exc}") from exc
    ev = vals.tolist()
    tol = DEFAULT_CLUSTER_TOL * max(1.0, max(map(abs, ev), default=1.0))
    # a cluster starts at the first eigenvalue and wherever consecutive ones
    # differ by more than tol; clusters are reported in descending order,
    # members ascending
    cuts = [i for i in range(1, len(ev)) if ev[i] - ev[i - 1] > tol]
    spans = list(zip([0, *cuts], [*cuts, len(ev)]))[::-1] if ev else []
    order = [i for a, b in spans for i in range(a, b)]
    offsets = np.array([0, *itertools.accumulate(b - a for a, b in spans)])
    # a singleton's mean is its eigenvalue; only true clusters are averaged
    eigenvalues = np.array([ev[a] if b - a == 1 else np.mean(vals[a:b]) for a, b in spans],
                           dtype=float)
    vectors = vecs[:, order]
    weights = np.add.reduceat(vectors * vectors, offsets[:-1], axis=1)
    mm = np.array(m)
    for a in (eigenvalues, vectors, offsets, weights, mm):
        a.setflags(write=False)
    return SpectralDecomposition(eigenvalues, vectors, offsets, weights, mm)


@dataclass(frozen=True)
class EigenvalueSupport:
    """The eigenvalues whose projectors see a vertex, with the diagonal
    projector weights (which sum to 1)."""

    vertex: int
    indices: tuple[int, ...]
    eigenvalues: tuple[float, ...]
    weights: tuple[float, ...]


def support(d: SpectralDecomposition, u: int) -> EigenvalueSupport:
    """Eigenvalue support of a vertex: indices j with ||E_j e_u|| > 1e-10."""
    if not 0 <= u < d.n:
        raise SpectralError(f"vertex {u} out of range")
    wts, lam = d.weights[u].tolist(), d.eigenvalues.tolist()
    idx = tuple(j for j, w in enumerate(wts) if math.sqrt(w) > _SUPPORT_TOL)
    return EigenvalueSupport(u, idx, tuple(lam[j] for j in idx), tuple(wts[j] for j in idx))


def are_cospectral(d: SpectralDecomposition, u: int, v: int) -> bool:
    """True when every projector gives u and v the same diagonal weight."""
    return bool(np.all(np.abs(d.weights[u] - d.weights[v]) <= _PAIR_TOL))


@dataclass(frozen=True)
class StrongCospectralPartition:
    """Outcome of the strong cospectrality test for a vertex pair.

    When the test succeeds, ``plus``/``minus`` split the support indices by
    the sign relating E_j e_u and E_j e_v.  On failure ``witness`` holds the
    first eigenvalue violating both signs (or breaking support equality).
    """

    u: int
    v: int
    strongly_cospectral: bool
    plus: tuple[int, ...] = ()
    minus: tuple[int, ...] = ()
    witness: float | None = None

    def __bool__(self) -> bool:
        return self.strongly_cospectral


def strong_cospectral(d: SpectralDecomposition, u: int, v: int
                      ) -> StrongCospectralPartition:
    """Check E_j e_u = +/- E_j e_v on every eigenspace touching u or v."""
    if u == v:
        raise SpectralError("strong cospectrality needs two distinct vertices")
    # ||E_j (e_u -+ e_v)|| = ||V_j^T (e_u -+ e_v)||: rows of the blocks
    x, y = d.vectors[u], d.vectors[v]
    seen = (np.sqrt(d.weights[u]) > _SUPPORT_TOL) | (np.sqrt(d.weights[v]) > _SUPPORT_TOL)
    plus = seen & (np.sqrt(d.cluster_sums((x - y) ** 2)) <= _PAIR_TOL)
    minus = seen & ~plus & (np.sqrt(d.cluster_sums((x + y) ** 2)) <= _PAIR_TOL)
    bad = np.flatnonzero(seen & ~plus & ~minus)
    if bad.size:
        return StrongCospectralPartition(u, v, False,
                                         witness=float(d.eigenvalues[bad[0]]))
    return StrongCospectralPartition(u, v, True, tuple(np.flatnonzero(plus).tolist()),
                                     tuple(np.flatnonzero(minus).tolist()))


@dataclass(frozen=True)
class TwinSet:
    """A maximal set of pairwise twins: common loop weight omega, common
    pairwise weight eta (0 when the set is independent) and common degree.
    Twins share their neighbourhoods under every matrix kind, so a set
    holds no kind; the eigenvalue theta of a difference of two of its
    characteristic vectors is matrices.twin_theta(kind, degree, omega, eta)."""

    vertices: tuple[int, ...]
    omega: float
    eta: float
    degree: float

    @property
    def size(self) -> int:
        return len(self.vertices)


def _twin_classes(a: np.ndarray, bucket: list[int], adjacent: bool) -> list[list[int]]:
    """Split one bucket of vertices with equal loops into twin classes: rows
    of a (diagonal cleared) equal, off the pair when the twins are adjacent."""
    classes, left = [], list(bucket)
    while left:
        u, rest = left[0], np.array(left[1:], dtype=np.intp)
        diff = a[rest] != a[u]
        if adjacent:
            diff[:, u] = False
            diff[np.arange(len(rest)), rest] = False
        same = rest[~diff.any(axis=1)].tolist()
        classes.append([u, *same])
        taken = set(same)
        left = [v for v in left[1:] if v not in taken]
    return classes


def find_twin_sets(g: WeightedGraph) -> list[TwinSet]:
    """Partition the vertices into maximal twin classes (singletons omitted).

    Weight comparisons are exact: twins are a combinatorial notion on the
    given weights, the same under every matrix kind.
    """
    a = g.adjacency_matrix()
    loops = np.diag(a).tolist()
    np.fill_diagonal(a, 0.0)
    closed = a != 0.0
    np.fill_diagonal(closed, True)
    closed = np.packbits(closed, axis=1)
    # non-adjacent twins have equal rows and loops: bucket them by the hash
    # of the row; adjacent twins share the support of their closed
    # neighbourhood.  Rows are compared exactly within a bucket.
    open_buckets: dict[tuple, list[int]] = {}
    closed_buckets: dict[tuple, list[int]] = {}
    for u, (loop, row, support) in enumerate(zip(loops, a, closed)):
        open_buckets.setdefault((loop, hash(row.tobytes())), []).append(u)
        closed_buckets.setdefault((loop, support.tobytes()), []).append(u)
    classes = []
    for buckets, adjacent in ((open_buckets, False), (closed_buckets, True)):
        for bucket in buckets.values():
            if len(bucket) > 1:
                classes += [c for c in _twin_classes(a, bucket, adjacent) if len(c) > 1]

    out = []
    for verts in sorted(classes):
        row = a[verts[0]]
        omega, eta = loops[verts[0]], float(row[verts[1]])
        degree = 2.0 * omega + sum(row[row != 0.0].tolist())
        out.append(TwinSet(tuple(verts), omega, eta, degree))
    return out


def verify_twin_eigenvector(d: SpectralDecomposition, twins: TwinSet,
                            theta: float) -> bool:
    """Check M(e_u - e_v) = theta (e_u - e_v) for every pair in the twin set,
    against the decomposed matrix.

    With R = M[:, class] - theta I[:, class], the pair defect
    ||R_u - R_v||_inf is largest over pairs as the largest row spread
    max(R) - min(R), so one pass over the class's columns checks all pairs.
    """
    m = d.matrix
    scale = max(1.0, float(np.max(np.abs(m))))
    verts = list(twins.vertices)
    r = m[:, verts]
    r[verts, np.arange(len(verts))] -= theta
    return float(np.max(r.max(axis=1) - r.min(axis=1))) <= _PAIR_TOL * scale


# -- periodicity ---------------------------------------------------------------


@dataclass(frozen=True)
class PeriodicityInfo:
    """Certified period of |U(t)_{u,u}| when one is detected.

    method: 'integer-spectrum', 'rational-rescaled', or 'undetected'.
    Detection is sound but incomplete: 'undetected' makes no claim.
    coordinates and step, when the support has more than one eigenvalue and
    a period is found, are the integers p_j (aligned with the support's
    index order, smallest 0) and the real s with lambda_j = min + s*p_j.
    """

    vertex: int
    periodic: bool
    period: float | None
    method: str
    coordinates: tuple[int, ...] | None = None
    step: float | None = None


def _rescale_to_integers(values: Sequence[float], scale: float):
    """Find integers p_j and a real step s with values = ref + s*p_j.

    Returns (p, s, ref) or None.  The step's rational structure is recovered
    with continued fractions, denominator capped at 10**6.
    """
    vals = [float(v) for v in values]
    tol = _INT_TOL * scale
    ref = min(vals)
    diffs = [v - ref for v in vals]
    pos = [x for x in diffs if x > tol]
    if not pos:
        return [0] * len(vals), 1.0, ref
    d = min(pos)
    ratios = [x / d for x in diffs]
    q = 1
    for r in ratios:
        # a ratio within _WHOLE_TOL of an integer m has m for its closest
        # fraction of denominator at most _MAX_DENOMINATOR, since every
        # other such fraction lies at least 1/_MAX_DENOMINATOR from m; so it
        # leaves q as it is, and only the others take the Fraction loop
        if abs(r - round(r)) <= _WHOLE_TOL:
            continue
        frac = Fraction(r).limit_denominator(_MAX_DENOMINATOR)
        q = q * frac.denominator // math.gcd(q, frac.denominator)
        if q > _MAX_DENOMINATOR:
            return None
    p = [int(round(r * q)) for r in ratios]
    s = d / q
    for v, pj in zip(vals, p):
        if abs(v - (ref + s * pj)) > tol:
            return None
    return p, s, ref


def periodicity(d: SpectralDecomposition, vertices: Sequence[int],
                sups: Sequence[EigenvalueSupport] | None = None
                ) -> tuple[PeriodicityInfo, ...]:
    """Detect a period of the diagonal walk entry at each of vertices, which
    share one support index set, so one set of support eigenvalues.

    |U(t)_{u,u}| is periodic exactly when the support eigenvalues become
    integers under an affine rescaling; the minimal period is then
    2*pi / (s * gcd of the integer coordinates relative to the smallest).
    The rescaling reads the eigenvalues alone, so the vertices share one
    fit, one method and one candidate period.  Each vertex's period is
    verified by evaluating |U(rho)_{u,u}| = 1 with its own weights, and a
    vertex that fails gets 'undetected'.  sups, when given, are the
    vertices' supports already computed.
    """
    if sups is None:
        sups = [support(d, u) for u in vertices]
    if not sups:
        return ()
    if any(s.indices != sups[0].indices for s in sups):
        raise SpectralError("a periodicity group must share one support index set")
    lam = sups[0].eigenvalues
    scale = d.scale()
    near_int = all(abs(x - round(x)) <= _INT_TOL * scale for x in lam)
    method = "integer-spectrum" if near_int else "rational-rescaled"
    res = _rescale_to_integers(lam, scale)
    if res is None:
        return tuple(PeriodicityInfo(s.vertex, False, None, "undetected") for s in sups)
    p, step, _ = res
    g = math.gcd(*p)
    if g == 0:
        # a single eigenvalue: U(t)_{u,u} is a phase
        return tuple(PeriodicityInfo(s.vertex, True, 2.0 * math.pi, method) for s in sups)
    rho = 2.0 * math.pi / (step * g)
    phases = np.exp(1j * rho * np.array(lam))
    out = []
    for s in sups:
        # the claim must survive a direct evaluation
        mag = abs(complex(np.sum(np.array(s.weights) * phases)))
        out.append(PeriodicityInfo(s.vertex, False, None, "undetected")
                   if abs(mag - 1.0) > _UNIT_TOL
                   else PeriodicityInfo(s.vertex, True, float(rho), method, tuple(p), step))
    return tuple(out)
