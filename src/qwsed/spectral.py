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
from typing import NamedTuple, Sequence

import numpy as np

from .graphs import WeightedGraph

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
    "PeriodFit",
    "UNDETECTED",
    "period_fit",
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
    E_j = V_j V_j^T) and weights[u, j] = (E_j)_{u,u}; no copy of the matrix."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

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

    def scale(self) -> float:
        """max(1, the largest |eigenvalue|)."""
        return max(1.0, max(map(abs, self.eigenvalues.tolist()), default=1.0))


def decompose(m: np.ndarray) -> SpectralDecomposition:
    """Eigendecompose a real symmetric matrix into distinct eigenvalues and
    orthonormal eigenvector blocks.

    Eigenvalues closer than DEFAULT_CLUSTER_TOL * max(1, spectral norm) are
    merged into one eigenspace; each reported eigenvalue is the mean of its
    cluster.
    """
    m = np.asarray(m, dtype=float)
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
    for a in (eigenvalues, vectors, offsets, weights):
        a.setflags(write=False)
    return SpectralDecomposition(eigenvalues, vectors, offsets, weights)


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
    """A maximal set of pairwise twins: common loop weight omega and common
    pairwise weight eta (0 when the set is independent).  Twins share their
    neighbourhoods under every matrix kind, so a set holds no kind; the
    eigenvalue theta of a difference e_a - e_b of two of its characteristic
    vectors is read from a kind's assembled matrix M, as M[a, a] - M[a, b]."""

    vertices: tuple[int, ...]
    omega: float
    eta: float

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
    given weights, the same under every matrix kind, so a class holds no
    degree or other per-kind value.
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

    return [TwinSet(tuple(verts), loops[verts[0]], float(a[verts[0], verts[1]]))
            for verts in sorted(classes)]


def verify_twin_eigenvector(m: np.ndarray, twins: TwinSet, theta: float) -> bool:
    """Check M(e_u - e_v) = theta (e_u - e_v) for every pair in the twin set,
    against the matrix m, at the theta the caller read from m.

    With R = M[:, class] - theta I[:, class], the pair defect
    ||R_u - R_v||_inf is largest over pairs as the largest row spread
    max(R) - min(R), so one pass over the class's columns checks all pairs.
    The tolerance is _PAIR_TOL * max(1, max |m|); a spread within _PAIR_TOL
    passes without the pass over all of m that max |m| takes.
    """
    verts = list(twins.vertices)
    r = m[:, verts]
    r[verts, np.arange(len(verts))] -= theta
    spread = float(np.max(r.max(axis=1) - r.min(axis=1)))
    return spread <= _PAIR_TOL or spread <= _PAIR_TOL * max(1.0, float(np.max(np.abs(m))))


# -- periodicity ---------------------------------------------------------------


def _limit_denominator(x: float, max_denominator: int) -> tuple[int, int]:
    """The numerator and denominator of Fraction(x).limit_denominator(
    max_denominator), in integers: the closest fraction to x with a
    denominator at most max_denominator, from the continued fraction of
    x's exact ratio.  The last convergent p1/q1 within the cap and the
    semiconvergent (p0 + k p1)/(q0 + k q1) bracket x; the one nearer x is
    returned, p1/q1 on a tie, as Fraction does."""
    num, den = x.as_integer_ratio()
    if den <= max_denominator:
        return num, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_denominator:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_denominator - q0) // q1
    # the candidates lie 1/(q1 (q0 + k q1)) apart, and p1/q1 lies d/(q1 den)
    # from x
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _rescale_to_integers(values: Sequence[float], scale: float):
    """Find integers p_j and a real step s with values = ref + s*p_j.

    Returns (p, s, ref) or None.  The step's rational structure is recovered
    with continued fractions (_limit_denominator), denominator capped at
    10**6.
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
        # leaves q as it is, and only the others take the continued fraction
        if abs(r - round(r)) <= _WHOLE_TOL:
            continue
        den = _limit_denominator(r, _MAX_DENOMINATOR)[1]
        q = q * den // math.gcd(q, den)
        if q > _MAX_DENOMINATOR:
            return None
    p = [int(round(r * q)) for r in ratios]
    s = d / q
    for v, pj in zip(vals, p):
        if abs(v - (ref + s * pj)) > tol:
            return None
    return p, s, ref


class PeriodFit(NamedTuple):
    """The period of |U(t)_{u,u}| for the vertices whose support has one
    index set, shared by all of them: the method ('integer-spectrum',
    'rational-rescaled' or 'undetected'), the period rho (None when
    undetected), and, for a support of more than one eigenvalue, the
    integers p_j (aligned with the support's index order, smallest 0), the
    real step s with lambda_j = min + s*p_j, and the phases
    exp(i rho lambda_j) that each vertex's check reads.  Detection is sound
    but incomplete: 'undetected' makes no claim."""

    method: str
    period: float | None
    coordinates: tuple[int, ...] | None = None
    step: float | None = None
    phases: np.ndarray | None = None


UNDETECTED = PeriodFit("undetected", None)


def period_fit(eigenvalues: Sequence[float], scale: float) -> PeriodFit:
    """The period candidate of a support's eigenvalues: they become
    integers p_j under an affine rescaling lambda_j = min + s*p_j
    (_rescale_to_integers), and the candidate is 2*pi / (s * gcd of the
    p_j).  It reads the eigenvalues alone, so the vertices of one support
    index set share one fit; periodicity checks it per vertex."""
    near_int = all(abs(x - round(x)) <= _INT_TOL * scale for x in eigenvalues)
    method = "integer-spectrum" if near_int else "rational-rescaled"
    res = _rescale_to_integers(eigenvalues, scale)
    if res is None:
        return UNDETECTED
    p, step, _ = res
    g = math.gcd(*p)
    if g == 0:
        # a single eigenvalue: U(t)_{u,u} is a phase
        return PeriodFit(method, 2.0 * math.pi)
    rho = 2.0 * math.pi / (step * g)
    phases = np.exp(1j * rho * np.array(eigenvalues))
    phases.setflags(write=False)
    return PeriodFit(method, rho, tuple(p), step, phases)


def periodicity(fit: PeriodFit, weights: Sequence[Sequence[float]]
                ) -> tuple[PeriodFit, ...]:
    """The period of the diagonal walk entry at each vertex of a group that
    shares one support index set: fit is that set's period_fit, and
    weights holds each member's support weights, in the set's order.

    |U(t)_{u,u}| is periodic exactly when the support eigenvalues become
    integers under an affine rescaling; the minimal period is then
    2*pi / (s * gcd of the integer coordinates relative to the smallest).
    A member keeps fit itself when |U(rho)_{u,u}| = |sum_j w_j
    exp(i rho lambda_j)| is within _UNIT_TOL of 1 with its own weights,
    and gets UNDETECTED otherwise; a fit with no phases (undetected, or a
    single eigenvalue) needs no check.
    """
    if fit.phases is None:
        return (fit,) * len(weights)
    out = []
    for w in weights:
        # the claim must survive a direct evaluation
        mag = abs(complex(np.sum(np.array(w) * fit.phases)))
        out.append(UNDETECTED if abs(mag - 1.0) > _UNIT_TOL else fit)
    return tuple(out)
