"""Evaluation of the continuous-time walk U(t) = exp(itM) through a spectral
decomposition, and the scan-and-refine primitive behind every search over
time: f(t) = reduce(sum_j coef_j e^{i lam_j t}) is evaluated on a uniform
grid (_grid_values), and the grid-local minima that a curvature bound cannot
exclude are refined together (_refine_minima) by a batched Newton iteration
on f' (_newton_batch).  Each search has one reducer: given z it returns f,
and given z, z' and z'' it returns (f, f', f'').  The sign of f' keeps every
iterate inside a bracket that holds a local minimum, a step that leaves it
or meets f'' <= 0 bisects instead, and a checked cap bounds the steps.  On a
certified period of low degree the diagonal oracle instead takes every
critical point of |U(t)_{u,u}|^2 from one polynomial's roots
(_critical_clusters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import WeightedGraph
from .matrices import ADJACENCY, MatrixKind, assemble
from .spectral import (DEFAULT_CLUSTER_TOL, PeriodicityInfo, SpectralDecomposition,
                       decompose, periodicity, support)

__all__ = [
    "WalkError",
    "DEFAULT_WINDOW",
    "WalkEvaluator",
    "VertexSpectrum",
    "MinimizationResult",
    "FractionalRevivalCheck",
    "PerfectStateTransferWitness",
    "check_uniform_mixing",
    "check_fractional_revival",
]

DEFAULT_WINDOW = 200.0 * math.pi
_GRID_BASE = 4096
_GRID_CAP = 1 << 21
# grid points per chunk: the step matrix and a block's base phases take
# O(_CHUNK * support) memory, not O(grid * support)
_CHUNK = 1024
# candidates this close to the best squared minimum count as ties
_TIE_BAND = 1e-9
_PST_TOL = 1e-8
# Newton steps a bracket may take before it only bisects
_NEWTON_STEPS = 16
# the root path takes certified windows of degree Q <= _ROOT_CAP; np.roots
# on the degree-2Q polynomial costs more than the scan beyond it
_ROOT_CAP = 32
# roots this close to the unit circle are kept as critical points
_ROOT_BAND = 1e-2
# a cluster centroid off the circle by more than this (but inside the band)
# is ambiguous, and the scan runs instead
_ROOT_EXACT = 1e-6
# root angles closer than this form one cluster (a split multiple root)
_ROOT_CLUSTER = 1e-3


class WalkError(RuntimeError):
    """Walk evaluation or minimization could not proceed as requested."""


# -- scan and refine ----------------------------------------------------------


def _grid_size(span: float, spread: float, grid: int | None = None) -> int:
    """Points of a uniform grid: 64 per period of the fastest phase
    difference, between _GRID_BASE and _GRID_CAP; an explicit grid wins."""
    if grid is not None:
        return max(int(grid), 8)
    n = max(_GRID_BASE, math.ceil(64.0 * span * spread / (2.0 * math.pi)))
    return min(n, _GRID_CAP)


def _trig_sums(lam: np.ndarray, coef: np.ndarray, times) -> np.ndarray:
    """sum_j coef[j] e^{i lam_j t}: one row per time, one column per column
    of coef, evaluated in blocks of _CHUNK times."""
    ts = np.asarray(times, dtype=float).ravel()
    blocks = [ts[i:i + _CHUNK] for i in range(0, len(ts), _CHUNK)] or [ts]
    return np.concatenate([np.exp(1j * np.outer(b, lam)) @ coef for b in blocks])


def _curvature(lam: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Per column of coef, sum_jk |c_j||c_k|(lam_j - lam_k)^2, which bounds
    |d^2/dt^2 |sum_j c_j e^{i lam_j t}|^2|; for weights summing to one it
    is 2 Var_w(lam)."""
    w = np.abs(coef)
    total = w.sum(axis=0)
    mean = (w * lam[:, None]).sum(axis=0) / np.where(total > 0.0, total, 1.0)
    return 2.0 * total * (w * (lam[:, None] - mean) ** 2).sum(axis=0)


def _grid_values(lam: np.ndarray, coef: np.ndarray, reduce,
                 window: tuple[float, float], grid: int | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Grid times (sized from the spread of lam) and reduce of the sums
    there; reduce maps one row per time, one column per coef column, to one
    value per time.  A k x _CHUNK step matrix e^{i m h lam} is built once;
    each chunk's base phase e^{i t_s lam} is computed directly, so errors do
    not accumulate along the grid, and a block of chunks is one product."""
    t0, t1 = float(window[0]), float(window[1])
    spread = float(lam.max() - lam.min()) if len(lam) > 1 else 0.0
    npts = _grid_size(t1 - t0, spread, grid)
    ts = np.linspace(t0, t1, npts)
    h = (t1 - t0) / (npts - 1)
    c = min(_CHUNK, npts)
    k, m = coef.shape
    step = np.exp(1j * h * np.outer(lam, np.arange(c)))
    starts = t0 + h * c * np.arange(-(-npts // c))
    per_block = max(1, _CHUNK // max(m, 1))
    out = []
    for i in range(0, len(starts), per_block):
        s = starts[i:i + per_block]
        base = np.exp(1j * np.outer(s, lam))[:, None, :] * coef.T
        z = (base.reshape(-1, k) @ step).reshape(len(s), m, c)
        out.append(reduce(z.transpose(0, 2, 1).reshape(len(s) * c, m)))
    return ts, np.concatenate(out)[:npts]


def _newton_batch(lam: np.ndarray, coef: np.ndarray, reduce, a: np.ndarray,
                  b: np.ndarray, x: np.ndarray, xtol: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Safeguarded Newton iteration on f' for every bracket [a_i, b_i] at
    once, from x_i inside it, where f = reduce(sum_j coef_j e^{i lam_j t}).
    Returns the final iterates and f at the last point evaluated for each.

    Each step computes e^{i lam t} once and forms z, z' and z'' with one
    product; reduce(z, z', z'') gives (f, f', f'').  The sign of f' moves a
    or b to the iterate, so the bracket keeps a local minimum and closes on
    a kink.  The Newton step -f'/f'' is taken when f'' > 0 and it lands in
    [a, b]; otherwise the iterate moves to the bracket midpoint.  A bracket
    is done when its step (zero where f' = 0) or its width is at most xtol;
    that last step is applied but not evaluated.  Newton converges in a few
    steps.  A bracket still open after _NEWTON_STEPS only bisects, which
    halves it at every step, so all are done within _NEWTON_STEPS + 2 +
    log2(width / xtol) steps; running past that is an error.
    """
    a, b, x = (np.array(v, dtype=float) for v in (a, b, x))
    fx = np.empty(len(x))
    if not len(x):
        return x, fx
    m = coef.shape[1]
    cols = np.concatenate((coef, 1j * lam[:, None] * coef,
                           -(lam * lam)[:, None] * coef), axis=1)
    cap = _NEWTON_STEPS + 2 + max(math.ceil(math.log2(float(np.max(b - a)) / xtol)), 0)
    act = np.arange(len(x))
    for i in range(cap):
        xa = x[act]
        z = np.exp(1j * np.outer(xa, lam)) @ cols
        f, g, h = reduce(z[:, :m], z[:, m:2 * m], z[:, 2 * m:])
        fx[act] = f
        aa = np.where(g < 0.0, xa, a[act])
        ba = np.where(g > 0.0, xa, b[act])
        newton = xa - g / np.where(h > 0.0, h, 1.0)
        ok = (g == 0.0) | ((h > 0.0) & (newton >= aa) & (newton <= ba)
                           & (i < _NEWTON_STEPS))
        step = np.where(ok, newton, 0.5 * (aa + ba)) - xa
        a[act], b[act], x[act] = aa, ba, xa + step
        act = act[(np.abs(step) > xtol) & (ba - aa > xtol)]
        if not act.size:
            return x, fx
    raise WalkError(f"Newton refinement left {act.size} brackets open after {cap} steps")


def _refine_minima(lam: np.ndarray, coef: np.ndarray, reduce, ts: np.ndarray,
                   vals: np.ndarray, m2: float, threshold: float, xtol: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kept grid-local minima of vals, their refined times and f there, for
    the f = reduce(sum_j coef_j e^{i lam_j t}) that vals samples on ts.

    With |f''| <= m2 and grid step h, f stays above vals[i] - m2 h^2/8 on
    the bracket [t_{i-1}, t_{i+1}] of a grid-local minimum i; a bracket
    where that exceeds threshold cannot reach it and is not refined.  The
    rest go to one _newton_batch, each starting from its t_i.
    """
    mid, lo, hi = vals[1:-1], vals[:-2], vals[2:]
    at = np.flatnonzero((mid <= lo) & (mid <= hi) & ((mid < lo) | (mid < hi))) + 1
    h = ts[1] - ts[0]
    at = at[vals[at] - m2 * h * h / 8.0 <= threshold]
    return (at, *_newton_batch(lam, coef, reduce, ts[at - 1], ts[at + 1], ts[at], xtol))


def _sq_terms(z: np.ndarray, dz: np.ndarray, d2z: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|z|^2 and its first two time derivatives, elementwise."""
    return (z.real ** 2 + z.imag ** 2,
            2.0 * (z.real * dz.real + z.imag * dz.imag),
            2.0 * (dz.real ** 2 + dz.imag ** 2 + z.real * d2z.real + z.imag * d2z.imag))


def _sq(z: np.ndarray, dz: np.ndarray | None = None, d2z: np.ndarray | None = None):
    """|first column|^2; given dz and d2z, (f, f', f'')."""
    if dz is None:
        return z[:, 0].real ** 2 + z[:, 0].imag ** 2
    return _sq_terms(z[:, 0], dz[:, 0], d2z[:, 0])


def _leak(z: np.ndarray, dz: np.ndarray | None = None, d2z: np.ndarray | None = None):
    """sum_c |z_c|^2 per row; given dz and d2z, (f, f', f'')."""
    if dz is None:
        return np.sum(z.real ** 2 + z.imag ** 2, axis=1)
    return tuple(v.sum(axis=1) for v in _sq_terms(z, dz, d2z))


def _neg_peak(z: np.ndarray, dz: np.ndarray | None = None,
              d2z: np.ndarray | None = None):
    """-max_c |z_c|^2 per row (0 with no columns); given dz and d2z,
    (f, f', f'') of the row's argmax column."""
    sq = z.real ** 2 + z.imag ** 2
    if dz is None:
        return -np.max(sq, axis=1, initial=0.0)
    rows, col = np.arange(len(z)), np.argmax(sq, axis=1)
    return tuple(-v for v in _sq_terms(z[rows, col], dz[rows, col], d2z[rows, col]))


def _sq_at(lam: np.ndarray, wts: np.ndarray, times) -> np.ndarray:
    """|sum_j wts_j e^{i lam_j t}|^2 at each time, summed per time in the
    order np.sum uses, for refinement."""
    z = (wts * np.exp(1j * np.outer(times, lam))).sum(axis=1)
    return z.real ** 2 + z.imag ** 2


def _critical_clusters(q: np.ndarray, wts: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Critical points of |g(z)|^2 on the unit circle, g(z) = sum_j wts_j
    z^{q_j} for integers q_j >= 0, as (centroid angles, member angles,
    member cluster index); angles lie in [0, 2 pi).  None when a cluster
    centroid is too far from the circle to tell.

    On |z| = 1, |g|^2 = sum_{d=-Q}^{Q} c_d z^d with c the autocorrelation of
    g's coefficients, so its derivative in the angle vanishes exactly at
    the unit-circle roots of sum_d d c_d z^{d+Q}, of degree 2Q.  A multiple
    root comes back split by about eps^(1/m); the roots whose angles are
    closer than _ROOT_CLUSTER form one cluster, and its mean, an analytic
    function of the perturbation, locates the root far better than any
    member.
    """
    big_q = int(q.max())
    v = np.zeros(big_q + 1)
    v[q] = wts
    c = np.convolve(v, v[::-1])
    roots = np.roots((np.arange(-big_q, big_q + 1) * c)[::-1])
    roots = roots[np.abs(np.abs(roots) - 1.0) < _ROOT_BAND]
    ang = np.angle(roots) % (2.0 * math.pi)
    order = np.argsort(ang)
    roots, ang = roots[order], ang[order]
    # a run across angle 0 would split in two; z = 1 is always a simple root
    # there, the maximum |U(0)| = 1, so that never touches a minimum
    label = np.concatenate(([0], np.cumsum(np.diff(ang) >= _ROOT_CLUSTER)))
    size = np.bincount(label)
    centre = (np.bincount(label, roots.real) + 1j * np.bincount(label, roots.imag)) / size
    if np.any(np.abs(np.abs(centre) - 1.0) > _ROOT_EXACT):
        return None
    return np.angle(centre) % (2.0 * math.pi), ang, label


def _root_offers(lam: np.ndarray, wts: np.ndarray, per: PeriodicityInfo
                 ) -> tuple[np.ndarray, np.ndarray] | None:
    """Times and |U|^2 offers of the window ends [0, rho] and of every root
    cluster over the period, or None when the root path does not apply."""
    q = np.array(per.coordinates) // math.gcd(*per.coordinates)
    if q.max() > _ROOT_CAP:
        return None
    found = _critical_clusters(q, wts)
    if found is None:
        return None
    centre, member, label = found
    rho = float(per.period)
    scale = rho / (2.0 * math.pi)
    best = _sq_at(lam, wts, centre * scale)
    np.minimum.at(best, label, _sq_at(lam, wts, member * scale))
    return (np.concatenate(([0.0, rho], centre * scale)),
            np.concatenate((_sq_at(lam, wts, [0.0, rho]), best)))


class VertexSpectrum(NamedTuple):
    """What every search over one vertex's diagonal reads: its eigenvalue
    support (eigenvalues, diagonal projector weights and their indices into
    the decomposition, in the decomposition's order) and its periodicity."""

    eigenvalues: np.ndarray
    weights: np.ndarray
    indices: tuple[int, ...]
    periodicity: PeriodicityInfo


@dataclass(frozen=True)
class MinimizationResult:
    """Certified (or windowed) minimum of |U(t)_{u,u}|.

    grid is the size of the uniform grid the scan uses on the window.  The
    root path of a certified window evaluates critical points instead of a
    grid but reports the same size, so reports do not depend on the path.
    refinements (not in to_dict) counts the brackets the scan refines by
    Newton steps and the critical points (root clusters) evaluated on the
    root path.
    """

    vertex: int
    minimum: float
    argmin: float
    window: tuple[float, float]
    grid: int
    certified_window: bool
    refinements: int

    def to_dict(self) -> dict:
        return {
            "minimum": self.minimum,
            "argmin": self.argmin,
            "window": list(self.window),
            "grid": self.grid,
            "certified": self.certified_window,
        }


@dataclass(frozen=True)
class FractionalRevivalCheck:
    """Diagonal and pair magnitudes at a single time; proper means the walk
    column is (numerically) supported on the pair alone with beta nonzero."""

    u: int
    v: int
    time: float
    alpha: float
    beta: float
    proper: bool


@dataclass(frozen=True)
class PerfectStateTransferWitness:
    source: int
    target: int
    time: float
    magnitude: float


class WalkEvaluator:
    """Evaluates entries of U(t) = sum_j exp(it lambda_j) E_j, holding one
    VertexSpectrum per vertex (spectrum) that the oracle and every
    certificate read, computed on first use."""

    def __init__(self, decomposition: SpectralDecomposition):
        self.decomposition = decomposition
        self._diag_cache: dict[int, VertexSpectrum] = {}

    @classmethod
    def for_graph(cls, graph: WeightedGraph, kind: MatrixKind = ADJACENCY,
                  cluster_tol: float = DEFAULT_CLUSTER_TOL) -> "WalkEvaluator":
        return cls(decompose(assemble(graph, kind), cluster_tol))

    @property
    def n(self) -> int:
        return self.decomposition.n

    # -- entry evaluation ---------------------------------------------------

    def transition_matrix(self, t: float) -> np.ndarray:
        d = self.decomposition
        phases = np.repeat(np.exp(1j * t * d.eigenvalues), d.multiplicities)
        return (d.vectors * phases) @ d.vectors.T

    def transition_entry(self, t: float, u: int, v: int) -> complex:
        d = self.decomposition
        # (E_j)_{u,v} = V_j[u] . V_j[v]
        proj = d.cluster_sums(d.vectors[u] * d.vectors[v])
        return complex(np.sum(np.exp(1j * t * d.eigenvalues) * proj))

    def spectrum(self, u: int) -> VertexSpectrum:
        """The support and periodicity of u, computed once per vertex."""
        rec = self._diag_cache.get(u)
        if rec is None:
            sup = support(self.decomposition, u)
            rec = self._diag_cache[u] = VertexSpectrum(
                np.array(sup.eigenvalues), np.array(sup.weights), sup.indices,
                periodicity(self.decomposition, u, sup))
        return rec

    def default_window(self, u: int) -> tuple[tuple[float, float], bool]:
        """The window a search over u's diagonal takes when given none, and
        whether it certifies: [0, rho] for a detected period rho; the open
        window [0, DEFAULT_WINDOW] without one; and [0, min(rho,
        DEFAULT_WINDOW)], uncertified, when rho is too long to scan in
        _GRID_CAP points."""
        lam, _, _, per = self.spectrum(u)
        if not per.periodic:
            return (0.0, DEFAULT_WINDOW), False
        spread = float(lam.max() - lam.min()) if len(lam) > 1 else 0.0
        if math.ceil(64.0 * per.period * spread / (2.0 * math.pi)) > _GRID_CAP:
            return (0.0, min(per.period, DEFAULT_WINDOW)), False
        return (0.0, per.period), True

    def _column_data(self, u: int) -> np.ndarray:
        """E_j e_u, one row per distinct eigenvalue: row j is V_j V_j[u]."""
        d = self.decomposition
        return d.cluster_sums(d.vectors * d.vectors[u]).T

    def diagonal_entry_series(self, u: int, times) -> np.ndarray:
        """Complex values of U(t)_{u,u} on a grid of times."""
        lam, wts = self.spectrum(u)[:2]
        return _trig_sums(lam, wts[:, None], times)[:, 0]

    def column_magnitude_series(self, u: int, times) -> np.ndarray:
        """Matrix of |U(t)_{v,u}| with one row per time, one column per v."""
        return np.abs(_trig_sums(self.decomposition.eigenvalues,
                                 self._column_data(u), times))

    def unitarity_defect(self, t: float) -> float:
        um = self.transition_matrix(t)
        return float(np.max(np.abs(um @ um.conj().T - np.eye(self.n))))

    # -- diagonal minimization ---------------------------------------------

    def _grid_size(self, span: float, spread: float, grid: int | None) -> int:
        # the grid every search uses, for callers that size it through the class
        return _grid_size(span, spread, grid)

    def minimize_diagonal(self, u: int, window: tuple[float, float] | None = None,
                          grid: int | None = None,
                          refine_tol: float = 1e-10) -> MinimizationResult:
        """Minimize |U(t)_{u,u}|.

        With no window, the search takes default_window(u): the certified
        window [0, rho] of a detected period, or the uncertified fallback
        when rho is too long to scan.  A vertex with no detected period has
        no window to certify, so that is an error; a window passed in is
        reported as uncertified.

        Root path.  On a certified window with no explicit grid, a support
        of more than one eigenvalue and integer coordinates q_j (relative
        to the period) of degree Q = max q_j <= _ROOT_CAP, every critical
        point of |U|^2 over the period is a unit-circle root of one
        polynomial of degree 2Q (_critical_clusters).  Each root cluster
        offers, at its centroid, the least |U|^2 over its members and its
        centroid, evaluated on the support eigenvalues themselves; refinements
        counts the clusters.  An ambiguous root cluster sends the call to
        the scan.

        Scan.  Otherwise |U(t)_{u,u}|^2 is scanned on the grid in chunks, in
        O(chunk x support) memory.  Its second derivative is at most M2 = 2
        Var_w(lam), so the bracket of a grid-local minimum g holds nothing
        below g - M2 h^2/8 (h the grid step); brackets where that exceeds the
        grid minimum plus 1e-9 can hold neither the minimum nor a tie with it
        and are skipped.  The rest (refinements counts them) are refined
        together from their grid minima by safeguarded Newton steps on the
        analytic derivative of |U|^2: the sign of the derivative keeps each
        iterate in its bracket, a step that would leave it (or meets
        negative curvature) bisects, and refine_tol bounds the last step or
        the bracket.  Each bracket offers the better of its grid sample and
        its refinement.

        On both paths the window ends offer their values; the minimum is the
        least offer and argmin the earliest offer within 1e-9 of it in
        squared magnitude, so symmetric attainment times report their first
        occurrence.  grid is the grid size for the window either way, so
        reports do not depend on the path.
        """
        if not refine_tol > 0.0:
            raise WalkError(f"refine_tol must be positive, got {refine_tol!r}")
        lam, wts, _, per = self.spectrum(u)
        certified = False
        if window is None:
            if not per.periodic:
                raise WalkError(
                    f"no certified period for vertex {u}; pass an explicit window")
            window, certified = self.default_window(u)
        t0, t1 = float(window[0]), float(window[1])
        if not (math.isfinite(t1) and t1 > t0 >= 0.0):
            raise WalkError(f"bad window {window!r}")
        found = None
        if certified and grid is None and len(lam) > 1:
            found = _root_offers(lam, wts, per)
        if found is not None:
            times, offers = found
            npts = _grid_size(t1 - t0, float(lam.max() - lam.min()))
            refinements = len(times) - 2
        else:
            coef = wts[:, None]
            ts, sq = _grid_values(lam, coef, _sq, (t0, t1), grid)
            at, x, fx = _refine_minima(lam, coef, _sq, ts, sq,
                                       float(_curvature(lam, coef)[0]),
                                       float(sq.min()) + _TIE_BAND, refine_tol)
            refined = fx < sq[at]
            offers = np.concatenate(([sq[0], sq[-1]], np.where(refined, fx, sq[at])))
            times = np.concatenate(([t0, t1], np.where(refined, x, ts[at])))
            npts, refinements = len(ts), len(at)
        best_sq = float(offers.min())
        best_t = float(times[offers <= best_sq + _TIE_BAND].min())
        best = math.sqrt(max(best_sq, 0.0))
        return MinimizationResult(u, best, best_t, (t0, t1), npts, certified,
                                  refinements)

    # -- transfer phenomena -------------------------------------------------

    def _column_scan(self, u: int, cols: list[int], reduce, combine,
                     window: tuple[float, float], grid: int | None,
                     ceiling: float) -> np.ndarray:
        """Times, in order, among the window ends and the refined grid-local
        minima of reduce(U(t)_{cols,u}) where it is at most ceiling; combine
        folds the per-column curvature bounds into one for reduce."""
        lam = self.decomposition.eigenvalues
        coef = self._column_data(u)[:, cols]
        ts, vals = _grid_values(lam, coef, reduce, window, grid)
        _, x, fx = _refine_minima(lam, coef, reduce, ts, vals,
                                  float(combine(_curvature(lam, coef), initial=0.0)),
                                  ceiling, 1e-12)
        times = np.concatenate(([ts[0]], x, [ts[-1]]))
        return times[np.concatenate(([vals[0]], fx, [vals[-1]])) <= ceiling]

    def find_perfect_state_transfer(self, u: int, window: tuple[float, float],
                                    grid: int | None = None
                                    ) -> PerfectStateTransferWitness | None:
        """Earliest time in the window where some |U(t)_{v,u}|, v != u,
        reaches 1 within 1e-8.  Numeric evidence only; the caller decides
        whether the window certifies anything."""
        others = [v for v in range(self.n) if v != u]
        times = self._column_scan(u, others, _neg_peak, np.max, window, grid,
                                  -(1.0 - _PST_TOL) ** 2)
        if not len(times):
            return None
        mags = self.column_magnitude_series(u, times[:1])[0]
        v = others[int(np.argmax(mags[others]))]
        return PerfectStateTransferWitness(u, v, float(times[0]), float(mags[v]))

    def find_fractional_revival(self, u: int, v: int,
                                window: tuple[float, float],
                                grid: int | None = None,
                                leak_tol: float = 1e-9,
                                beta_tol: float = 1e-8) -> float | None:
        """Earliest time where the walk column at u is supported on {u, v}
        with a nonzero cross term: min t with sum of |U(t)_{w,u}|^2 over
        w outside the pair below leak_tol and |U(t)_{v,u}| > beta_tol."""
        if u == v:
            raise WalkError("fractional revival needs a pair of distinct vertices")
        for t in self._column_scan(u, [w for w in range(self.n) if w not in (u, v)],
                                   _leak, np.sum, window, grid, leak_tol):
            if t > 1e-9 and abs(self.transition_entry(float(t), v, u)) > beta_tol:
                return float(t)
        return None


# -- pointwise mixing / revival checks ----------------------------------------


def check_uniform_mixing(w: WalkEvaluator, u: int, t: float,
                         tol: float = 1e-8) -> bool:
    """True when every |U(t)_{v,u}| equals 1/sqrt(n) within tol."""
    mags = w.column_magnitude_series(u, [t])[0]
    return bool(np.max(np.abs(mags - 1.0 / math.sqrt(w.n))) <= tol)


def check_fractional_revival(w: WalkEvaluator, u: int, v: int, t: float,
                             tol: float = 1e-8) -> FractionalRevivalCheck:
    """Measure alpha = |U(t)_{u,u}|, beta = |U(t)_{v,u}|; proper when
    alpha^2 + beta^2 = 1 within tol and beta exceeds tol."""
    if u == v:
        raise WalkError("fractional revival needs a pair of distinct vertices")
    alpha = abs(w.transition_entry(t, u, u))
    beta = abs(w.transition_entry(t, v, u))
    proper = bool(abs(alpha * alpha + beta * beta - 1.0) <= tol and beta > tol)
    return FractionalRevivalCheck(u, v, t, alpha, beta, proper)
