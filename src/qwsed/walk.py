"""Evaluation of the continuous-time walk U(t) = exp(itM) through a spectral
decomposition, and the scan-and-refine primitive behind every search for a
minimum over time (_scan_minima): a reducer's f of the sums z = sum_j
coef_j e^{i lam_j t} is scanned on a uniform grid, and the grid-local minima
that no derivative bound can exclude are refined together by a batched
Newton iteration on f' (_newton_batch).

Each search has one reducer (_Reducer): f of z, (f, f', f'') of z, z' and
z'', and its bounds M2 (f sags below an interval's ends by at most M2 H^2/8,
as |f''| <= M2 gives) and M3 >= |f'''| (None when f is not smooth).  The
scan reads the bounds from the reducer; no caller passes them.

Every grid value comes from one evaluator, _fine_values: a run of grid
points from one direct exponential at its start, times a step table that
all runs share, built by doubling from directly computed factors
(_phase_table).  A value is a product of at most ceil(log2 c) + 1 direct
phases wherever it lies, and runs of c points take ceil(log2 c)
exponentials plus one per run, none per grid point.  _grid_values is that
evaluator with a run every _CHUNK points.

A grid of at least _TWO_LEVEL points times terms is scanned in two levels
(_scan_minima): a coarse pass on every _COARSE-th grid point drops the
intervals whose lower bound from M2 or M3 exceeds the search's threshold,
and a fine pass evaluates the grid points of the rest, where the minimum
test, both bounds at the grid step and the refinement run
(_refine_minima).  Only intervals proven to stay above the threshold go
unevaluated, so a search finds the minima a scan of every grid point
finds.  A smaller grid is evaluated at every point and pruned by M2 alone,
which costs less there.

The Newton steps and pointwise sums evaluate arbitrary times and take
direct exponentials.  The sign of f' keeps every iterate inside a bracket
that holds a local minimum, a step that leaves it or meets f'' <= 0
bisects instead, and a checked cap bounds the steps.  find_zero_crossing
in sedentary looks for a sign change, not a minimum, and reads the full
grid from _grid_values.  On a certified period of low degree the diagonal
oracle instead takes every critical point of |U(t)_{u,u}|^2 from one
polynomial's roots (_critical_clusters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .graphs import WeightedGraph
from .matrices import ADJACENCY, MatrixKind, assemble
from .spectral import (PeriodicityInfo, SpectralDecomposition, decompose,
                       periodicity, support)

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
# a scan's coarse pass evaluates every _COARSE-th point of its grid
_COARSE = 4
# the fine pass evaluates aligned blocks of _FINE_BLOCK coarse intervals:
# kept intervals cluster, and a direct exponential per block costs more
# than the few grid points a block of several intervals adds
_FINE_BLOCK = 4
# grid points times terms (support x columns) from which a scan takes two
# levels: below it one pass over every point costs less than the bookkeeping
_TWO_LEVEL = 1 << 21
# the quadratic through three samples h apart is within M3 h^3 _CUBIC of an
# f with |f'''| <= M3 on their span: max |s(s - 1)(s - 2)|/6 on [0, 2]
_CUBIC = 1.0 / (9.0 * math.sqrt(3.0))
_TINY = float(np.finfo(float).tiny)
_PST_TOL = 1e-8
# fractional revival: the leak outside the pair and the least cross term
_LEAK_TOL = 1e-9
_BETA_TOL = 1e-8
# the pointwise uniform-mixing and fractional-revival checks
_CHECK_TOL = 1e-8
# the Newton steps of the diagonal oracle stop at this step or bracket width
_REFINE_TOL = 1e-10
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


def _cubic(lam: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Per column of coef, sum_jk |c_j||c_k||lam_j - lam_k|^3, which bounds
    |d^3/dt^3 |sum_j c_j e^{i lam_j t}|^2|."""
    w = np.abs(coef)
    return np.sum(w * (np.abs(lam[:, None] - lam[None, :]) ** 3 @ w), axis=0)


def _phase_table(lam: np.ndarray, dt: float, count: int) -> np.ndarray:
    """e^{i m dt lam} for m < count, one row per m, by doubling: rows
    [2^l, 2^(l+1)) are rows [0, 2^l) times e^{i 2^l dt lam}.  Each level's
    factor is a direct exponential, never the square of the last one (which
    would double its phase error), so row m is a product of at most
    ceil(log2 count) direct phases, and count x k entries cost
    ceil(log2 count) exponentials of k terms."""
    out = np.empty((count, len(lam)), dtype=complex)
    out[0] = 1.0
    n = 1
    while n < count:
        r = min(n, count - n)
        np.multiply(out[:r], np.exp(1j * (n * dt) * lam), out=out[n:n + r])
        n *= 2
    return out


def _fine_values(lam: np.ndarray, coef: np.ndarray, reduce, t0: float, h: float,
                 starts: np.ndarray, width: int) -> np.ndarray:
    """reduce of the sums at t0 + (s + p) h for p < width, one row of width
    values per start s (one value per time, or one row of reduce's output):
    the one evaluator of every grid.  A start takes one direct e^{i (t0 +
    s h) lam}, times the step table e^{i p h lam} from _phase_table that
    all starts share, and the starts go through one product per _CHUNK //
    columns of them.  A value is thus a product of at most ceil(log2
    width) + 1 directly computed phases wherever it lies, so errors do not
    accumulate along the grid, and the call takes ceil(log2 width) +
    len(starts) exponentials of k terms."""
    k, m = coef.shape
    step = _phase_table(lam, h, width).T
    per = max(1, _CHUNK // max(m, 1))
    out = []
    for i in range(0, len(starts), per):
        s = starts[i:i + per]
        base = np.exp(1j * np.outer(t0 + s * h, lam))[:, None, :] * coef.T
        z = (base.reshape(-1, k) @ step).reshape(len(s), m, width)
        out.append(reduce(z.transpose(0, 2, 1).reshape(-1, m)))
    out = np.concatenate(out)
    return out.reshape(len(starts), width, *out.shape[1:])


def _grid_values(lam: np.ndarray, coef: np.ndarray, reduce,
                 window: tuple[float, float], grid: int | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Grid times (sized from the spread of lam) and reduce of the sums
    there; reduce maps one row per time, one column per coef column, to one
    value per time.  The values are one _fine_values call with a start
    every c = min(_CHUNK, npts) grid points, trimmed to npts: ceil(log2 c)
    + ceil(npts / c) exponentials of k terms, none per grid point."""
    t0, t1 = float(window[0]), float(window[1])
    spread = float(lam.max() - lam.min()) if len(lam) > 1 else 0.0
    npts = _grid_size(t1 - t0, spread, grid)
    c = min(_CHUNK, npts)
    vals = _fine_values(lam, coef, reduce, t0, (t1 - t0) / (npts - 1),
                        np.arange(0, npts, c), c)
    return np.linspace(t0, t1, npts), vals.reshape(-1, *vals.shape[2:])[:npts]


def _newton_batch(lam: np.ndarray, coef: np.ndarray, terms, a: np.ndarray,
                  b: np.ndarray, x: np.ndarray, xtol: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Safeguarded Newton iteration on f' for every bracket [a_i, b_i] at
    once, from x_i inside it, where f is a reducer's value of z = sum_j
    coef_j e^{i lam_j t}.  Returns the final iterates and f at the last
    point evaluated for each.

    Each step computes e^{i lam t} once and forms z, z' and z'' with one
    product; the reducer's terms(z, z', z'') gives (f, f', f'').  The sign
    of f' moves a or b to the iterate, so the bracket keeps a local minimum
    and closes on a kink.  The Newton step -f'/f'' is taken when f'' > 0
    and it lands in [a, b]; otherwise the iterate moves to the bracket
    midpoint.  A bracket is done when its step (zero where f' = 0) or its
    width is at most xtol; that last step is applied but not evaluated.
    Newton converges in a few steps.  A bracket still open after
    _NEWTON_STEPS only bisects, which halves it at every step, so all are
    done within _NEWTON_STEPS + 2 + log2(width / xtol) steps; running past
    that is an error.
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
        f, g, h = terms(z[:, :m], z[:, m:2 * m], z[:, 2 * m:])
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


def _quad_floor(f0: np.ndarray, f1: np.ndarray, f2: np.ndarray, lo, hi,
                ends: np.ndarray) -> np.ndarray:
    """Least value over r in [lo, hi] of the quadratic through (-1, f0), (0,
    f1) and (1, f2), elementwise, where lo < hi (scalars or arrays) are
    sample positions in {-1, 0, 1} and ends is the lesser sample at them."""
    # p(r) = f1 + b r + a r^2 is least on [lo, hi] at -b/2a, clipped to it,
    # when a > 0, and at an end otherwise; the tiny divisor for a <= 0 sends
    # r to an end (or to r = 0, a sample on the range), and an overflow to
    # +-inf is clipped there too
    a, b = 0.5 * (f0 + f2) - f1, 0.5 * (f2 - f0)
    with np.errstate(over="ignore"):
        r = np.clip(-b / np.maximum(2.0 * a, _TINY), lo, hi)
    return np.minimum(ends, f1 + r * (b + a * r))


def _coarse_keep(vals: np.ndarray, h: float, m2: float, m3: float | None,
                 threshold: float) -> np.ndarray:
    """Which intervals [t_i, t_{i+1}] between consecutive samples vals of
    f, h apart, may hold a value of f at most threshold, where |f''| <= m2
    and, unless m3 is None, |f'''| <= m3.

    f stays above min(vals_i, vals_{i+1}) - m2 h^2/8 on an interval.  The
    quadratic through three consecutive samples is within m3 h^3/(9 sqrt
    3) of f on their span, so f also stays above the least value of that
    quadratic on the interval, less the margin, for each triple the
    interval belongs to.  An interval is dropped when any bound exceeds
    threshold; the cubic bounds are computed only where the first is not."""
    ends = np.minimum(vals[:-1], vals[1:])
    keep = ends - m2 * h * h / 8.0 <= threshold
    if m3 is not None:
        j = np.flatnonzero(keep)
        # the triple starting at an interval holds it at r in [-1, 0], the
        # one starting a sample before it at r in [0, 1]
        first, lo = np.concatenate((j, j - 1)), np.repeat([-1.0, 0.0], len(j))
        ok = (first >= 0) & (first + 2 < len(vals))
        i, first, lo = np.concatenate((j, j))[ok], first[ok], lo[ok]
        floor = _quad_floor(vals[first], vals[first + 1], vals[first + 2], lo, lo + 1.0,
                            ends[i])
        keep[i[floor - m3 * h ** 3 * _CUBIC > threshold]] = False
    return keep


def _refine_minima(lam: np.ndarray, coef: np.ndarray, terms, ts: np.ndarray,
                   vals: np.ndarray, h: float, m2: float, m3: float | None,
                   threshold: float, xtol: float, idx: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions of the kept grid-local minima of vals, their refined times
    and f there, for the f of sum_j coef_j e^{i lam_j t} that vals samples
    at times ts on a grid of step h and whose reducer's terms give (f, f',
    f'').  The samples are consecutive grid points, or else at the
    increasing grid indices idx; a sample is tested only when both its
    grid neighbours are among them.

    With the reducer's m2, f stays above vals[i] - m2 h^2/8 on the bracket
    [t_{i-1}, t_{i+1}] of a grid-local minimum i; with |f'''| <= m3 (m3
    not None) it also stays above the least value there of the quadratic
    through the three samples, less m3 h^3/(9 sqrt 3).  A bracket where
    either bound exceeds threshold cannot reach it and is not refined.  The
    rest go to one _newton_batch, each starting from its t_i.
    """
    mid, lo, hi = vals[1:-1], vals[:-2], vals[2:]
    low = (mid <= lo) & (mid <= hi) & ((mid < lo) | (mid < hi))
    if idx is not None:
        low &= idx[2:] - idx[:-2] == 2
    p = np.flatnonzero(low) + 1
    p = p[vals[p] - m2 * h * h / 8.0 <= threshold]
    if m3 is not None:
        lo, hi = vals[p - 1], vals[p + 1]
        p = p[_quad_floor(lo, vals[p], hi, -1.0, 1.0, np.minimum(lo, hi))
              - m3 * h ** 3 * _CUBIC <= threshold]
    return (p, *_newton_batch(lam, coef, terms, ts[p - 1], ts[p + 1], ts[p], xtol))


def _fine_points(j: np.ndarray, span: int, npts: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fine pass's blocks j (increasing) of span grid steps, on a grid
    of npts points.  Block j holds grid points span j to span (j + 1) and
    one neighbour on each side.  Returns each block's first grid index, the
    block points to take, and their grid indices, which hold every point
    of the blocks once, in order."""
    starts = span * j - 1
    idx = starts[:, None] + np.arange(span + 3)
    # the leading points of a block that the block before it ends on
    again = span + 3 - span * np.diff(j, prepend=-npts)
    take = (np.arange(span + 3) >= again[:, None]) & (idx >= 0) & (idx < npts)
    return starts, take, idx[take]


class _Reducer(NamedTuple):
    """What one search minimizes: an f of the sums z = sum_j coef_j e^{i
    lam_j t} (one column per column of coef), with the bounds its scan
    prunes by.  value(z) is f per row of z; terms(z, z', z'') is (f, f',
    f''); m2(lam, coef) is an M2 such that f stays above the lesser end of
    any interval of width H less M2 H^2/8 (|f''| <= M2 for a smooth f);
    m3(lam, coef) bounds |f'''|, and is None when f is not smooth."""

    value: Callable[[np.ndarray], np.ndarray]
    terms: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]]
    m2: Callable[[np.ndarray, np.ndarray], float]
    m3: Callable[[np.ndarray, np.ndarray], float] | None


def _sq_terms(z: np.ndarray, dz: np.ndarray, d2z: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|z|^2 and its first two time derivatives, elementwise."""
    return (z.real ** 2 + z.imag ** 2,
            2.0 * (z.real * dz.real + z.imag * dz.imag),
            2.0 * (dz.real ** 2 + dz.imag ** 2 + z.real * d2z.real + z.imag * d2z.imag))


# |first column|^2, bounded through that column alone
_sq = _Reducer(
    lambda z: z[:, 0].real ** 2 + z[:, 0].imag ** 2,
    lambda z, dz, d2z: _sq_terms(z[:, 0], dz[:, 0], d2z[:, 0]),
    lambda lam, coef: float(_curvature(lam, coef)[0]),
    lambda lam, coef: float(_cubic(lam, coef)[0]))

# sum_c |z_c|^2 per row: its derivatives, and so its bounds, are the
# columns' sums
_leak = _Reducer(
    lambda z: np.sum(z.real ** 2 + z.imag ** 2, axis=1),
    lambda z, dz, d2z: tuple(v.sum(axis=1) for v in _sq_terms(z, dz, d2z)),
    lambda lam, coef: float(_curvature(lam, coef).sum()),
    lambda lam, coef: float(_cubic(lam, coef).sum()))


def _neg_peak_terms(z: np.ndarray, dz: np.ndarray, d2z: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, f', f'') of -|z_c|^2 at each row's argmax column c."""
    rows, col = np.arange(len(z)), np.argmax(z.real ** 2 + z.imag ** 2, axis=1)
    return tuple(-v for v in _sq_terms(z[rows, col], dz[rows, col], d2z[rows, col]))


# -max_c |z_c|^2 per row (0 with no columns): the least of the -|z_c|^2, so
# the largest column M2 bounds its sag below an interval's ends; it has no
# third derivative at a kink, where the argmax column changes
_neg_peak = _Reducer(
    lambda z: -np.max(z.real ** 2 + z.imag ** 2, axis=1, initial=0.0),
    _neg_peak_terms,
    lambda lam, coef: float(_curvature(lam, coef).max(initial=0.0)),
    None)


class _Scan(NamedTuple):
    """What a scan finds: the size of the reported grid, f at the window
    ends, the threshold it refined minima under (the ceiling, or the least
    grid value plus the band), and for each refined grid-local minimum, in
    time order, its grid time and value (t, f) and its refined time and
    value (x, fx)."""

    npts: int
    ends: tuple[float, float]
    level: float
    t: np.ndarray
    f: np.ndarray
    x: np.ndarray
    fx: np.ndarray


def _scan_minima(lam: np.ndarray, coef: np.ndarray, reducer: _Reducer,
                 window: tuple[float, float], grid: int | None, xtol: float,
                 ceiling: float | None = None, band: float = 0.0) -> _Scan:
    """The refined grid-local minima of the reducer's f of sum_j coef_j
    e^{i lam_j t} on the window's grid (_grid_size), pruned by the
    reducer's own bounds: M2 = reducer.m2(lam, coef) always, and for a
    smooth f M3 = reducer.m3(lam, coef), computed only on two levels.
    Only minima whose bracket can reach the threshold are refined: ceiling
    when given, else the least grid value plus band.

    A grid of at most 8 _COARSE points, or of fewer than _TWO_LEVEL points
    times terms (support times columns), is scanned on one level:
    _grid_values on every point, then _refine_minima with the M2 bound.
    There that costs less than the bookkeeping of two levels.  Otherwise:

    Coarse pass: one _grid_values on every _COARSE-th grid point.
    _coarse_keep drops an interval between coarse points where a bound on
    f exceeds the coarse threshold.  That threshold is at least the full
    grid's, so a dropped interval holds no grid point and no time that
    reaches the full grid's.  Fine pass: the aligned blocks of _FINE_BLOCK
    intervals that hold a kept interval, the first and the last block
    (which hold the window ends) and the partial interval up to t1 when
    (npts - 1) % _COARSE != 0 evaluate their grid points plus one
    neighbour on each side (_fine_values), one value per grid point.
    _refine_minima runs on them with both bounds.  So the least grid value
    and the refined minima are those a scan of every grid point gives, up
    to rounding, and npts is the full grid's size.
    """
    t0, t1 = float(window[0]), float(window[1])
    spread = float(lam.max() - lam.min()) if len(lam) > 1 else 0.0
    npts = _grid_size(t1 - t0, spread, grid)
    h = (t1 - t0) / (npts - 1)
    m2 = reducer.m2(lam, coef)

    def level(vals: np.ndarray) -> float:
        return ceiling if ceiling is not None else float(vals.min()) + band

    idx = m3 = None
    if npts <= 8 * _COARSE or npts * coef.size < _TWO_LEVEL:
        ts, vals = _grid_values(lam, coef, reducer.value, (t0, t1), npts)
    else:
        if reducer.m3 is not None:
            m3 = reducer.m3(lam, coef)
        whole = (npts - 1) // _COARSE
        _, coarse = _grid_values(lam, coef, reducer.value,
                                 (t0, t0 + _COARSE * h * whole), whole + 1)
        keep = _coarse_keep(coarse, _COARSE * h, m2, m3, level(coarse))
        if whole * _COARSE < npts - 1:
            keep = np.append(keep, True)
        keep[0] = keep[-1] = True
        span = _COARSE * _FINE_BLOCK
        starts, take, idx = _fine_points(np.unique(np.flatnonzero(keep) // _FINE_BLOCK),
                                         span, npts)
        vals = _fine_values(lam, coef, reducer.value, t0, h, starts, span + 3)[take]
        # the times np.linspace(t0, t1, npts) gives these points
        ts = idx * h + t0
        ts[-1] = t1
    threshold = level(vals)
    p, x, fx = _refine_minima(lam, coef, reducer.terms, ts, vals, h, m2, m3, threshold,
                              xtol, idx)
    return _Scan(npts, (float(vals[0]), float(vals[-1])), threshold, ts[p], vals[p], x, fx)


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
    def for_graph(cls, graph: WeightedGraph,
                  kind: MatrixKind = ADJACENCY) -> "WalkEvaluator":
        return cls(decompose(assemble(graph, kind)))

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

    def minimize_diagonal(self, u: int, window: tuple[float, float] | None = None
                          ) -> MinimizationResult:
        """Minimize |U(t)_{u,u}|.

        With no window, the search takes default_window(u): the certified
        window [0, rho] of a detected period, or the uncertified fallback
        when rho is too long to scan.  A vertex with no detected period has
        no window to certify, so that is an error; a window passed in is
        reported as uncertified.

        Root path.  On a certified window, a support of more than one
        eigenvalue and integer coordinates q_j (relative to the period) of
        degree Q = max q_j <= _ROOT_CAP, every critical point of |U|^2 over
        the period is a unit-circle root of one polynomial of degree 2Q
        (_critical_clusters).  Each root cluster offers, at its centroid,
        the least |U|^2 over its members and its centroid, evaluated on the
        support eigenvalues themselves; refinements counts the clusters.  An
        ambiguous root cluster sends the call to the scan.

        Scan.  Otherwise |U(t)_{u,u}|^2 is scanned by _scan_minima with the
        reducer _sq, in O(chunk x support) memory, pruned by the bounds _sq
        carries: |f''| <= M2 = 2 Var_w(lam) and |f'''| <= M3 = sum_jk w_j w_k
        |lam_j - lam_k|^3.  Its threshold is the grid minimum plus 1e-9, so
        a pruned interval or bracket holds neither the minimum nor a tie
        with it.  The kept grid-local minima (refinements counts them) are
        refined by safeguarded Newton steps to _REFINE_TOL, and each offers
        the better of its grid sample and its refinement.  The minimum, the
        argmin and the ties are those of a scan of every grid point, and
        grid is the full grid's size.

        On both paths the window ends offer their values; the minimum is the
        least offer and argmin the earliest offer within 1e-9 of it in
        squared magnitude, so symmetric attainment times report their first
        occurrence.  grid is the grid size for the window either way, so
        reports do not depend on the path.
        """
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
        if certified and len(lam) > 1:
            found = _root_offers(lam, wts, per)
        if found is not None:
            times, offers = found
            npts = _grid_size(t1 - t0, float(lam.max() - lam.min()))
            refinements = len(times) - 2
        else:
            scan = _scan_minima(lam, wts[:, None], _sq, (t0, t1), None, _REFINE_TOL,
                                band=_TIE_BAND)
            refined = scan.fx < scan.f
            offers = np.concatenate((scan.ends, np.where(refined, scan.fx, scan.f)))
            times = np.concatenate(([t0, t1], np.where(refined, scan.x, scan.t)))
            npts, refinements = scan.npts, len(scan.x)
        best_sq = float(offers.min())
        best_t = float(times[offers <= best_sq + _TIE_BAND].min())
        best = math.sqrt(max(best_sq, 0.0))
        return MinimizationResult(u, best, best_t, (t0, t1), npts, certified,
                                  refinements)

    # -- transfer phenomena -------------------------------------------------

    def _column_scan(self, u: int, cols: list[int], reducer: _Reducer,
                     window: tuple[float, float], ceiling: float) -> np.ndarray:
        """Times, in order, among the window ends and the refined grid-local
        minima of the reducer's f of U(t)_{cols,u} where it is at most
        ceiling."""
        lam = self.decomposition.eigenvalues
        scan = _scan_minima(lam, self._column_data(u)[:, cols], reducer, window, None,
                            1e-12, ceiling=ceiling)
        times = np.concatenate(([float(window[0])], scan.x, [float(window[1])]))
        return times[np.concatenate(([scan.ends[0]], scan.fx, [scan.ends[1]])) <= ceiling]

    def find_perfect_state_transfer(self, u: int, window: tuple[float, float]
                                    ) -> PerfectStateTransferWitness | None:
        """Earliest time in the window where some |U(t)_{v,u}|, v != u,
        reaches 1 within 1e-8.  Numeric evidence only; the caller decides
        whether the window certifies anything."""
        others = [v for v in range(self.n) if v != u]
        times = self._column_scan(u, others, _neg_peak, window, -(1.0 - _PST_TOL) ** 2)
        if not len(times):
            return None
        mags = self.column_magnitude_series(u, times[:1])[0]
        v = others[int(np.argmax(mags[others]))]
        return PerfectStateTransferWitness(u, v, float(times[0]), float(mags[v]))

    def find_fractional_revival(self, u: int, v: int,
                                window: tuple[float, float]) -> float | None:
        """Earliest time where the walk column at u is supported on {u, v}
        with a nonzero cross term: min t with sum of |U(t)_{w,u}|^2 over
        w outside the pair below _LEAK_TOL and |U(t)_{v,u}| > _BETA_TOL."""
        if u == v:
            raise WalkError("fractional revival needs a pair of distinct vertices")
        for t in self._column_scan(u, [w for w in range(self.n) if w not in (u, v)],
                                   _leak, window, _LEAK_TOL):
            if t > 1e-9 and abs(self.transition_entry(float(t), v, u)) > _BETA_TOL:
                return float(t)
        return None


# -- pointwise mixing / revival checks ----------------------------------------


def check_uniform_mixing(w: WalkEvaluator, u: int, t: float) -> bool:
    """True when every |U(t)_{v,u}| equals 1/sqrt(n) within _CHECK_TOL."""
    mags = w.column_magnitude_series(u, [t])[0]
    return bool(np.max(np.abs(mags - 1.0 / math.sqrt(w.n))) <= _CHECK_TOL)


def check_fractional_revival(w: WalkEvaluator, u: int, v: int,
                             t: float) -> FractionalRevivalCheck:
    """Measure alpha = |U(t)_{u,u}|, beta = |U(t)_{v,u}|; proper when
    alpha^2 + beta^2 = 1 within _CHECK_TOL and beta exceeds it."""
    if u == v:
        raise WalkError("fractional revival needs a pair of distinct vertices")
    alpha = abs(w.transition_entry(t, u, u))
    beta = abs(w.transition_entry(t, v, u))
    proper = bool(abs(alpha * alpha + beta * beta - 1.0) <= _CHECK_TOL
                  and beta > _CHECK_TOL)
    return FractionalRevivalCheck(u, v, t, alpha, beta, proper)
