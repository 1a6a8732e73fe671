"""Spectral decomposition and the vertex-level spectral structure the
certificates are built from: eigenvalue supports, cospectrality, twin sets,
and periodicity detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import WeightedGraph
from .matrices import ADJACENCY, Hamiltonian, MatrixKind, twin_theta

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
        return max(1.0, float(np.max(np.abs(self.eigenvalues))) if len(self.eigenvalues) else 1.0)


def decompose(h: Hamiltonian | np.ndarray,
              cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SpectralDecomposition:
    """Eigendecompose a real symmetric matrix into distinct eigenvalues and
    orthonormal eigenvector blocks.

    Eigenvalues closer than cluster_tol * max(1, spectral norm) are merged
    into one eigenspace; each reported eigenvalue is the mean of its cluster.
    """
    m = h.matrix if isinstance(h, Hamiltonian) else np.asarray(h, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SpectralError("matrix must be square")
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    if m.size and float(np.max(np.abs(m - m.T))) > 1e-12 * scale:
        raise SpectralError("matrix must be symmetric")
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigensolver failed: {exc}") from exc
    tol = cluster_tol * max(1.0, float(np.max(np.abs(vals))) if len(vals) else 1.0)
    # a cluster ends where consecutive eigenvalues differ by more than tol
    cuts = np.flatnonzero(np.diff(vals) > tol) + 1
    groups = np.split(np.arange(len(vals)), cuts)[::-1] if len(vals) else []
    # a singleton's mean is its eigenvalue; only true clusters are averaged
    eigenvalues = np.array([float(vals[g[0]]) if len(g) == 1 else float(np.mean(vals[g]))
                            for g in groups])
    vectors = vecs[:, [i for g in groups for i in g]]
    offsets = np.cumsum([0] + [len(g) for g in groups])
    weights = np.add.reduceat(vectors * vectors, offsets[:-1], axis=1)
    mm = np.array(m)
    for a in (vectors, offsets, weights, mm):
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
    wts = d.weights[u]
    idx = np.flatnonzero(np.sqrt(wts) > _SUPPORT_TOL)
    return EigenvalueSupport(u, tuple(idx.tolist()), tuple(d.eigenvalues[idx].tolist()),
                             tuple(wts[idx].tolist()))


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
    pairwise weight eta (0 when the set is independent), and the eigenvalue
    theta of any difference of two of its characteristic vectors."""

    vertices: tuple[int, ...]
    omega: float
    eta: float
    degree: float
    theta: float
    kind: MatrixKind

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


def find_twin_sets(g: WeightedGraph,
                   kind: MatrixKind = ADJACENCY) -> list[TwinSet]:
    """Partition the vertices into maximal twin classes (singletons omitted).

    Weight comparisons are exact: twins are a combinatorial notion on the
    given weights.  theta is computed for the requested matrix kind.
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
        theta = twin_theta(kind, degree, omega, eta)
        out.append(TwinSet(tuple(verts), omega, eta, degree, theta, kind))
    return out


def verify_twin_eigenvector(d: SpectralDecomposition, twins: TwinSet) -> bool:
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
    r[verts, np.arange(len(verts))] -= twins.theta
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


def _rescale_to_integers(values: np.ndarray, scale: float):
    """Find integers p_j and a real step s with values = ref + s*p_j.

    Returns (p, s, ref) or None.  The step's rational structure is recovered
    with continued fractions, denominator capped at 10**6.
    """
    vals = np.asarray(values, dtype=float)
    ref = float(vals.min())
    diffs = vals - ref
    pos = diffs[diffs > _INT_TOL * scale]
    if len(pos) == 0:
        return [0] * len(vals), 1.0, ref
    d = float(pos.min())
    ratios = diffs / d
    q = 1
    for r in ratios:
        frac = Fraction(float(r)).limit_denominator(_MAX_DENOMINATOR)
        q = q * frac.denominator // math.gcd(q, frac.denominator)
        if q > _MAX_DENOMINATOR:
            return None
    p = [int(round(float(r) * q)) for r in ratios]
    s = d / q
    for v, pj in zip(vals, p):
        if abs(v - (ref + s * pj)) > _INT_TOL * scale:
            return None
    return p, s, ref


def periodicity(d: SpectralDecomposition, u: int,
                sup: EigenvalueSupport | None = None) -> PeriodicityInfo:
    """Detect a period of the diagonal walk entry at u.

    |U(t)_{u,u}| is periodic exactly when the support eigenvalues become
    integers under an affine rescaling; the minimal period is then
    2*pi / (s * gcd of the integer coordinates relative to the smallest).
    The reported period is verified by evaluating |U(rho)_{u,u}| = 1.
    sup, when given, is support(d, u) already computed.
    """
    if sup is None:
        sup = support(d, u)
    lam = np.array(sup.eigenvalues)
    wts = np.array(sup.weights)
    scale = d.scale()
    near_int = bool(np.all(np.abs(lam - np.round(lam)) <= _INT_TOL * scale))
    method = "integer-spectrum" if near_int else "rational-rescaled"
    if len(lam) <= 1:
        return PeriodicityInfo(u, True, 2.0 * math.pi, method)
    res = _rescale_to_integers(lam, scale)
    if res is None:
        return PeriodicityInfo(u, False, None, "undetected")
    p, s, _ = res
    g = 0
    for pj in p:
        g = math.gcd(g, pj)
    if g == 0:
        return PeriodicityInfo(u, True, 2.0 * math.pi, method)
    rho = 2.0 * math.pi / (s * g)
    # the claim must survive a direct evaluation
    mag = abs(complex(np.sum(wts * np.exp(1j * rho * lam))))
    if abs(mag - 1.0) > _UNIT_TOL:
        return PeriodicityInfo(u, False, None, "undetected")
    return PeriodicityInfo(u, True, float(rho), method, tuple(p), s)
