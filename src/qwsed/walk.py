"""Evaluation of the continuous-time walk U(t) = exp(itM) through a spectral
decomposition, and the scan-and-refine primitive behind the searches for a
minimum over time that the spectrum alone does not settle (_scan_minima):
a reducer's f of the sums z = sum_j coef_j e^{i lam_j t} is scanned on a
uniform grid, and the grid-local minima that no bound can exclude are
refined together by a batched Newton iteration on f' (_newton_batch).  The
scan serves the diagonal oracle, the subset bound, perfect state transfer
and fractional revival.  Perfect state transfer first takes the triangle
guard: no |U(t)_{v,u}| exceeds sum_j |(E_j)_{v,u}|, so where no column
reaches 1 there is no scan.  The subset bound's equality time comes from
the phase lattice in sedentary, refined by _newton_batch, with no scan.

Each scanned search has one reducer (_Reducer): f of z, (f, f', f'') of z,
z' and z'', its floor and its cut.  f reads each column only through its
modulus.  The bounds are on the amplitudes, not on f: on an interval of
width H each column, demodulated by the |coef|-weighted mean mu_c of lam
(zeta_c = e^{-i mu_c t} z_c, of the same modulus), stays within e_c =
H^2/8 sum_j |coef_jc| (lam_j - mu_c)^2 of the chord between its two
samples, and floor(a, b, e) is the least f over every z that near the
chords (_interval_floor).  Every point of a bracket around a grid point
lies within r_c = h sum_j |coef_jc| |lam_j - mu_c| + e_c of it, and cut(t,
r) is the largest value a sample can take with some z within r of it at f
<= t.  The scan computes e and r from lam and coef (_demodulated); no
caller passes a bound.

Every grid value comes from one evaluator, _fine_values: runs of grid
points, each a start phase times a step table that all runs share, and
the floor of each interval inside a run.  A grid's tables (_tables) hold
about sqrt(npts) run starts and steps, both built by one doubling from
directly computed factors (_phase_tables), so a value is a product of at
most about log2 npts + 1 direct phases wherever it lies, and a grid takes
about log2 npts + 1 exponentials, none per grid point or run.

A grid of at least _TWO_LEVEL points times terms is scanned in two levels
(_scan_minima): a coarse pass on every _COARSE-th grid point drops the
intervals whose floor exceeds the search's threshold, and a fine pass
evaluates the grid points of the rest, each run's start phase a product
of rows of the coarse pass's tables.  There the minimum test on the
samples at most the cut (_local_minima), the floors at the grid step and
the refinement run.  Only intervals proven to stay above the threshold go
unevaluated, so a search finds the minima a scan of every grid point
finds.  A smaller grid is evaluated at every point, which costs less
there.  Beyond its grid a scan does a fixed amount of array work, whatever
the grid's size: one exponential for the factors of all its tables and
one product per doubling level, the bracket floors of the few minima at
most the cut in one call, and per Newton step one exponential, one
stacked product and the reducer's terms for the whole batch.

The Newton steps and pointwise sums evaluate arbitrary times and take
direct exponentials.  The sign of f' keeps every iterate inside a bracket
that holds a local minimum, a step that leaves it or meets f'' <= 0
bisects instead, and a checked cap bounds the steps.  find_zero_crossing
in sedentary looks for a sign change, not a minimum: it reads the full
grid from _grid_values, takes the first sign change between values that
clear 1e-9 plus the rounding of their phases, and refines it by
_newton_batch on an F whose F' is that real diagonal, signed to be
negative at the left end.  On a certified period of low degree Q the
diagonal oracle instead takes every critical point of |U(t)_{u,u}|^2 from
theta = 0 and pi and the roots of one polynomial in x = cos(theta), of
degree Q - 1 in the Chebyshev U basis, the eigenvalues of its colleague
matrix; for Q <= 2 it takes no eigenvalue solve (_critical_points).

The evaluator holds one record per vertex, its VertexSpectrum, which
carries the oracle's default window, certified flag and root offers, and
computes the records in support groups (WalkEvaluator.spectra): vertices with one support
index set have the same support eigenvalues, so they share one
periodicity fit, made by the first group of that set and kept for the
later ones, and a group takes, on a certified window, one root solve, whose
colleague matrices form one stack for one np.linalg.eigvals call and
whose offers take one evaluation over the stack.  What reads a vertex's
weights stays per vertex: its |U(rho)_{u,u}| = 1 check, its colleague
matrix, root chains and offers, and its fallback to the scan when its
own chains are ambiguous.  So a record holds the bits the vertex gets
computed alone, in a group of one, and the oracle reads it with no solve
of its own.  A record depends only on (graph, kind, vertex), so the one
evaluator of a graph object and kind (WalkEvaluator.for_graph) is kept on
the graph with its records, read-only, for every later call to share.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .graphs import WeightedGraph
from .matrices import ADJACENCY, MatrixKind
from .spectral import (EigenvalueSupport, PeriodFit, SpectralDecomposition, period_fit,
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
# a product of phase tables takes at most _CHUNK starts times columns and
# _CHUNK + 1 steps: O(_CHUNK * (support + _CHUNK)) memory, not
# O(grid * support)
_CHUNK = 1024
# candidates this close to the best squared minimum count as ties
_TIE_BAND = 1e-9
# a scan's coarse pass evaluates every _COARSE-th point of its grid; the
# floor on the amplitudes keeps a few percent of its intervals, so the
# fine pass costs less than at a finer coarse spacing, while a coarser one
# keeps more than it saves
_COARSE = 16
# grid points times terms (support x columns) from which a scan takes two
# levels: below it one pass over every point costs less than the bookkeeping
# (measured again on [0, 200 pi] with 4 to 120 terms: two levels take 7-43%
# longer up to about 8e5, and from 1e6 to 6e6 neither wins by more than 20%).
# Each level serves a benchmark workload (seeds 1-3): a gnp-open round makes
# 3 two-level _sq scans of about 1.5e7 points x terms, a lollipop-all round
# 12 one-level ones of 9e4-1.8e5; families-all scans nothing
_TWO_LEVEL = 1 << 21
_TINY = float(np.finfo(float).tiny)
_PST_TOL = 1e-8
# the triangle guard's allowance for rounding: a computed |U(t)_{v,u}| can
# exceed sum_j |(E_j)_{v,u}| by about eps per phase summed, far below this
_PST_SLACK = 1e-10
# fractional revival: the leak outside the pair and the least cross term
_LEAK_TOL = 1e-9
_BETA_TOL = 1e-8
# the pointwise uniform-mixing and fractional-revival checks
_CHECK_TOL = 1e-8
# the Newton steps of the diagonal oracle stop at this step or bracket width
_REFINE_TOL = 1e-10
# Newton steps a bracket may take before it only bisects
_NEWTON_STEPS = 16
# the root path takes certified windows of degree Q <= _ROOT_CAP.  Against
# the scan of [0, rho] (5 support eigenvalues, a 4096-point grid, one x86
# core) the (Q - 1)-size colleague matrix costs as much near Q = 24 (0.35
# ms each) and 0.44 ms against 0.30 ms at Q = 32; the degree-2Q companion
# matrix it replaced crossed near Q = 12 and took 1.5 ms at Q = 32.  The
# cap stays, since moving it moves reports
_ROOT_CAP = 32
# roots of P this close to the segment [-1, 1] (or to one of its ends) are
# read, and a chain's members this close to the unit circle (through z =
# e^{i arccos x}) are kept
_ROOT_BAND = 1e-2
# a root mean this close to x = 1 or -1 is that end, theta = 0 or pi; a
# chain's centroid in z off the circle by more than this is ambiguous, and
# the scan runs instead
_ROOT_EXACT = 1e-6
# roots whose real parts lie closer than this form one chain (a split
# multiple root)
_ROOT_CLUSTER = 1e-3


class WalkError(RuntimeError):
    """Walk evaluation or minimization could not proceed as requested."""


# -- scan and refine ----------------------------------------------------------


def _grid_size(span: float, spread: float) -> int:
    """Points of a uniform grid: 64 per period of the fastest phase
    difference, between _GRID_BASE and _GRID_CAP.  A window whose count
    overflows a float is refused (WalkError)."""
    points = 64.0 * span * spread / (2.0 * math.pi)
    if points == math.inf:
        raise WalkError(f"a window of length {span!r} is too long to scan")
    return min(max(_GRID_BASE, math.ceil(points)), _GRID_CAP)


def _trig_sums(lam: np.ndarray, coef: np.ndarray, times) -> np.ndarray:
    """sum_j coef[j] e^{i lam_j t}: one row per time, one column per column
    of coef, evaluated in blocks of _CHUNK times."""
    ts = np.asarray(times, dtype=float).ravel()
    blocks = [ts[i:i + _CHUNK] for i in range(0, len(ts), _CHUNK)] or [ts]
    return np.concatenate([np.exp(1j * np.outer(b, lam)) @ coef for b in blocks])


def _phase_tables(lam: np.ndarray, dts, count: int) -> np.ndarray:
    """e^{i m dt lam} for m < count and each dt in dts: row m holds the k
    terms of each dt in turn (count x len(dts) k).  Built by doubling: rows
    [2^l, 2^(l+1)) are rows [0, 2^l) times e^{i 2^l dt lam}.  Each level's
    factor is a direct exponential, never the square of the last one (which
    would double its phase error), so row m is a product of at most
    ceil(log2 count) direct phases.  The tables double together: the
    factors of every level and table are one exponential of ceil(log2
    count) x len(dts) k terms, and each level is one product of rows."""
    levels = (count - 1).bit_length()
    out = np.empty((count, len(dts) * len(lam)), dtype=complex)
    out[0] = 1.0
    times = np.multiply.outer(1 << np.arange(levels), dts)
    factors = np.exp(1j * np.multiply.outer(times, lam).reshape(levels, out.shape[1]))
    for level in range(levels):
        n = 1 << level
        r = min(n, count - n)
        np.multiply(out[:r], factors[level], out=out[n:n + r])
    return out


def _tables(lam: np.ndarray, t0: float, h: float, count: int,
            fine: float | None = None) -> tuple[np.ndarray, ...]:
    """The phase tables of the grid t0 + i h, i < count: run starts
    e^{i lam (t0 + q n h)} for q < Q = ceil(count / n), and steps e^{i p h
    lam} for p <= n, where n = min(_CHUNK, ceil(sqrt(count))), so point q n
    + p is starts[q] steps[p].  The step after the last of a run's n points
    lets a run end on the next run's first point, so that every interval
    lies in a run.  With fine, also a two-level scan's fine steps e^{i p
    fine lam} for p < _COARSE + 3.  All come from one doubling
    (_phase_tables) to R = max(Q, n + 1, ...) rows, so a point is a product
    of at most ceil(log2 Q) + ceil(log2 (n + 1)) + 1 direct phases, and the
    tables take 1 + 2 ceil(log2 R) exponentials of k terms, about log2
    count + 1, and ceil(log2 R) more with fine."""
    k = len(lam)
    n = min(_CHUNK, math.isqrt(count - 1) + 1)
    q = -(-count // n)
    if fine is None:
        table = _phase_tables(lam, (n * h, h), max(q, n + 1))
    else:
        table = _phase_tables(lam, (n * h, h, fine), max(q, n + 1, _COARSE + 3))
    starts, steps = np.exp(1j * t0 * lam) * table[:q, :k], table[:n + 1, k:2 * k]
    if fine is None:
        return starts, steps
    return starts, steps, table[:_COARSE + 3, 2 * k:]


def _fine_values(coef: np.ndarray, reduce, starts: np.ndarray, steps: np.ndarray,
                 floor=None):
    """reduce of the sums starts[r] steps[p] @ coef for each p, one row of
    len(steps) values per start r (one value per time, one row of reduce's
    output, or the sums themselves when reduce is None): the one evaluator
    of every grid.  The starts go through one product per _CHUNK // columns
    of them, and the call takes no exponential.  With floor, also floor(a,
    b) of each pair of consecutive sums a, b of a run, one row of
    len(steps) - 1 per start, computed per product, so no array outgrows
    O(_CHUNK x (terms + steps) x columns)."""
    k, m = coef.shape
    width = len(steps)
    per = max(1, _CHUNK // max(m, 1))
    vals, floors = [], []
    for i in range(0, len(starts), per):
        base = starts[i:i + per, None, :] * coef.T
        z = (base.reshape(-1, k) @ steps.T).reshape(-1, m, width).transpose(0, 2, 1)
        vals.append(z.reshape(-1, m) if reduce is None else reduce(z.reshape(-1, m)))
        if floor is not None:
            floors.append(floor(z[:, :-1].reshape(-1, m), z[:, 1:].reshape(-1, m)))
    out = vals[0] if len(vals) == 1 else np.concatenate(vals)
    out = out.reshape(len(starts), width, *out.shape[1:])
    if floor is None:
        return out
    return out, np.concatenate(floors).reshape(len(starts), width - 1)


def _grid_values(lam: np.ndarray, coef: np.ndarray, reduce,
                 window: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Grid times (sized from the spread of lam) and reduce of the sums
    there; reduce maps one row per time, one column per coef column, to one
    value per time.  The values are one _fine_values call on the grid's
    _tables, runs of n points trimmed to npts: about log2 npts + 1
    exponentials of k terms, none per grid point or run."""
    t0, t1 = float(window[0]), float(window[1])
    spread = float(lam.max() - lam.min()) if len(lam) > 1 else 0.0
    npts = _grid_size(t1 - t0, spread)
    starts, steps = _tables(lam, t0, (t1 - t0) / (npts - 1), npts)
    vals = _fine_values(coef, reduce, starts, steps[:-1])
    return np.linspace(t0, t1, npts), vals.reshape(-1, *vals.shape[2:])[:npts]


def _newton_batch(lam: np.ndarray, coef: np.ndarray, terms, a, b, x, xtol: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Safeguarded Newton iteration on f' for every bracket [a_i, b_i] at
    once, from x_i inside it, where f is a reducer's value of z = sum_j
    coef_j e^{i lam_j t}.  Returns the final iterates and f at the last
    point evaluated for each.

    Each step computes e^{i lam t} once and forms z, z' and z'' with one
    vector-matrix product per bracket, never one product for the batch,
    whose rounding would depend on the batch's size: so a bracket gets the
    iterates and values it gets refined alone.  The reducer's terms(z, z',
    z'') gives (f, f', f'').  The sign of f' moves a or b to the iterate,
    so the bracket keeps a local minimum and closes on a kink.  The Newton
    step -f'/f'' is taken when f'' > 0 and it lands in [a, b]; otherwise
    the iterate moves to the bracket midpoint.  A bracket is done when its
    step (zero where f' = 0) or its width is at most xtol; that last step
    is applied but not evaluated.
    Newton converges in a few steps.  A bracket still open after
    _NEWTON_STEPS only bisects, which halves it at every step, so all are
    done within _NEWTON_STEPS + 2 + log2(width / xtol) steps; running past
    that is an error, and so is a width / xtol that overflows a float.

    A step is about 20 array operations for the whole batch, the reducer's
    terms included: the products above and f, f', f''.  The bracket
    updates are a few float operations per bracket, in Python floats,
    which round as numpy's elementwise operations do; so the open brackets
    need no gathering or scattering of arrays.
    """
    x, a, b = ([float(t) for t in v] for v in (x, a, b))
    xs, fx = np.array(x), np.empty(len(x))
    if not x:
        return xs, fx
    m = coef.shape[1]
    ilam = 1j * lam
    cols = np.concatenate((coef, ilam[:, None] * coef, -(lam * lam)[:, None] * coef),
                          axis=1)
    width = max(bi - ai for ai, bi in zip(a, b))
    halvings = width / xtol
    if halvings == math.inf:
        raise WalkError(f"a bracket of width {width!r} is too wide to refine")
    cap = _NEWTON_STEPS + 2 + max(math.ceil(math.log2(halvings)), 0)
    rows = range(len(x))
    for i in range(cap):
        # x (i lam) has the imaginary part of i (x lam) and a zero real part
        z = np.matmul(np.exp(np.multiply.outer(x, ilam))[:, None, :], cols)[:, 0, :]
        f, g, h = (v.tolist() for v in terms(z[:, :m], z[:, m:2 * m], z[:, 2 * m:]))
        going = []
        for r, xi, ai, bi, fi, gi, hi in zip(rows, x, a, b, f, g, h):
            if gi < 0.0:
                ai = xi
            if gi > 0.0:
                bi = xi
            newton = xi - gi / (hi if hi > 0.0 else 1.0)
            if gi == 0.0 or (hi > 0.0 and ai <= newton <= bi and i < _NEWTON_STEPS):
                step = newton - xi
            else:
                step = 0.5 * (ai + bi) - xi
            xi += step
            if abs(step) > xtol and bi - ai > xtol:
                going.append((r, xi, ai, bi))
            else:
                xs[r], fx[r] = xi, fi
        if not going:
            return xs, fx
        rows, x, a, b = zip(*going)
    raise WalkError(f"Newton refinement left {len(rows)} brackets open after {cap} steps")


def _local_minima(vals: np.ndarray, idx: np.ndarray | None = None,
                  cut: float = math.inf) -> np.ndarray:
    """Positions of the grid-local minima among the samples vals, each no
    greater than both its neighbours and less than one of them, whose value
    is at most cut.  The samples are the grid points from the first, or
    else those at the increasing grid indices idx; a sample is tested only
    when both its grid neighbours are among them.  One pass over the
    samples finds those at most cut; the rest of the test reads only
    them."""
    c = np.flatnonzero(vals[1:-1] <= cut) + 1
    lo, mid, hi = vals[c - 1], vals[c], vals[c + 1]
    c = c[(mid <= np.minimum(lo, hi)) & (mid < np.maximum(lo, hi))]
    if idx is not None:
        c = c[idx[c + 1] - idx[c - 1] == 2]
    return c


def _fine_points(j: np.ndarray, span: int, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """The fine pass's blocks j (increasing) of span grid steps, on a grid
    of npts points.  Block j holds grid points span j to span (j + 1) and
    one neighbour on each side, span + 3 points from span j - 1.  Returns
    which block points to take and their grid indices, which hold every
    point of the blocks once, in order."""
    idx = (span * j - 1)[:, None] + np.arange(span + 3)
    # the leading points of a block that the block before it ends on
    again = span + 3 - span * np.diff(j, prepend=-npts)
    take = (np.arange(span + 3) >= again[:, None]) & (idx >= 0) & (idx < npts)
    return take, idx[take]


class _Reducer(NamedTuple):
    """What one search minimizes: an f of the sums z = sum_j coef_j e^{i
    lam_j t} (one column per column of coef), with the bounds its scan
    prunes by.  f reads each column only through its modulus |z_c|, so the
    scan may turn a column's phase (_interval_floor).  value(z) is f per
    row of z; terms(z, z', z'') is (f, f', f''); floor(a, b, e) is, per
    row, a lower bound on f over every z whose column c lies within e_c of
    the segment from a_c to b_c; cut(t, r) is an upper bound on f(z') over
    every z' that has some z with f(z) <= t whose column c, turned, lies
    within r_c of z'_c, so no z within r of a sample above cut reaches t.
    The four reducers are the oracle's and the subset bound's |z|^2 (_sq),
    fractional revival's leak (_leak) and perfect transfer's -max_c
    |z_c|^2 (_neg_peak)."""

    value: Callable[[np.ndarray], np.ndarray]
    terms: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]]
    floor: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    cut: Callable[[float, np.ndarray], float]


class _Moments(NamedTuple):
    """Per column c of coef: mu_c, the |coef|-weighted mean of lam;
    mass_c = sum_j |coef_jc|, which bounds |z_c|;
    and sum_j |coef_jc| |lam_j - mu_c| and sum_j |coef_jc| (lam_j -
    mu_c)^2, which bound |zeta_c'| and |zeta_c''| for zeta_c(t) = sum_j
    coef_jc e^{i (lam_j - mu_c) t}.  The mean minimizes the last bound."""

    mu: np.ndarray
    mass: np.ndarray
    slope: np.ndarray
    curvature: np.ndarray


def _demodulated(lam: np.ndarray, coef: np.ndarray) -> _Moments:
    """The _Moments of coef over lam: every reducer reads only |z_c|, so
    every column is demodulated by its mean (mu_c = 0 for a zero column)."""
    w, col = np.abs(coef), lam[:, None]
    total = w.sum(axis=0)
    mu = (w * col).sum(axis=0) / np.where(total > 0.0, total, 1.0)
    d = col - mu
    return _Moments(mu, total, (w * np.abs(d)).sum(axis=0), (w * d ** 2).sum(axis=0))


def _interval_floor(reducer: _Reducer, moments: _Moments, width: float):
    """floor(a, b): the reducer's floor of f on a time interval of that
    width, from the sums a and b at its ends.

    Each column is bounded demodulated (_demodulated): zeta_c(t) = e^{-i
    mu_c t} z_c(t), where |zeta_c| = |z_c|.  zeta_c stays within e_c =
    width^2/8 max |zeta_c''| of the chord between its two samples.  Turned
    by e^{i mu_c t_a}, that chord runs from a_c to e^{-i mu_c width} b_c,
    which changes no |.| a reducer's floor reads."""
    e = width * width / 8.0 * moments.curvature
    turn = np.exp(-1j * width * moments.mu)
    return lambda a, b: reducer.floor(a, b * turn, e)


def _sq_terms(z: np.ndarray, dz: np.ndarray, d2z: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|z|^2 and its first two time derivatives, elementwise."""
    zr, zi, dr, di = z.real, z.imag, dz.real, dz.imag
    return (zr ** 2 + zi ** 2, 2.0 * (zr * dr + zi * di),
            2.0 * (dr ** 2 + di ** 2 + zr * d2z.real + zi * d2z.imag))


def _sq_value(z: np.ndarray) -> np.ndarray:
    """|z|^2 of the first column, one pass per part."""
    c = z[:, 0]
    v = np.square(c.real)
    v += np.square(c.imag)
    return v


def _sq_floor(a: np.ndarray, b: np.ndarray, e: np.ndarray) -> np.ndarray:
    """max(0, dist(0, [a, b]) - e)^2 elementwise: the least |z|^2 over every
    z within e of the segment from a to b."""
    d = b - a
    dd = d.real ** 2 + d.imag ** 2
    # the segment's point nearest 0 is a + s d, s in [0, 1] (0 where a = b)
    s = np.minimum(np.maximum(-(a.real * d.real + a.imag * d.imag), 0.0), dd)
    s /= np.maximum(dd, _TINY)
    return np.maximum(np.abs(a + s * d) - e, 0.0) ** 2


# |first column|^2, bounded through that column alone: within r of z',
# |z| >= |z'| - r, so |z|^2 <= t needs |z'| <= sqrt(t) + r
_sq = _Reducer(
    _sq_value,
    lambda z, dz, d2z: _sq_terms(z[:, 0], dz[:, 0], d2z[:, 0]),
    lambda a, b, e: _sq_floor(a[:, 0], b[:, 0], e[0]),
    lambda t, r: (math.sqrt(max(t, 0.0)) + float(r[0])) ** 2)

# sum_c |z_c|^2 per row: its derivatives and its floor are the columns'
# sums, and its root, the norm of the columns' moduli, moves by at most the
# norm of r
_leak = _Reducer(
    lambda z: np.sum(z.real ** 2 + z.imag ** 2, axis=1),
    lambda z, dz, d2z: tuple(v.sum(axis=1) for v in _sq_terms(z, dz, d2z)),
    lambda a, b, e: _sq_floor(a, b, e).sum(axis=1),
    lambda t, r: (math.sqrt(max(t, 0.0)) + math.sqrt(float(np.sum(r * r)))) ** 2)


def _neg_peak_terms(z: np.ndarray, dz: np.ndarray, d2z: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, f', f'') of -|z_c|^2 at each row's argmax column c."""
    rows, col = np.arange(len(z)), np.argmax(z.real ** 2 + z.imag ** 2, axis=1)
    return tuple(-v for v in _sq_terms(z[rows, col], dz[rows, col], d2z[rows, col]))


# -max_c |z_c|^2 per row (0 with no columns): |z_c| stays below the larger
# of |a_c| and |b_c| plus e_c, its largest value on the segment plus e_c,
# and below max_c |z'_c| + max_c r_c within r of z'
_neg_peak = _Reducer(
    lambda z: -np.max(z.real ** 2 + z.imag ** 2, axis=1, initial=0.0),
    _neg_peak_terms,
    lambda a, b, e: -np.max((np.maximum(np.abs(a), np.abs(b)) + e) ** 2, axis=1,
                            initial=0.0),
    lambda t, r: -max(math.sqrt(max(-t, 0.0)) - float(np.max(r, initial=0.0)), 0.0) ** 2)


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
                 window: tuple[float, float], xtol: float,
                 ceiling: float | None = None, band: float = 0.0) -> _Scan:
    """The refined grid-local minima of the reducer's f of sum_j coef_j
    e^{i lam_j t} on the window's grid (_grid_size), pruned by the
    reducer's bounds.  Only minima whose bracket can reach the threshold
    are refined: ceiling when given, else the least grid value plus band.

    A grid of at most 8 _COARSE points, or of fewer than _TWO_LEVEL points
    times terms (support times columns), is scanned on one level: the sums
    at every grid point from one _fine_values call on the grid's _tables,
    as _grid_values does, and f of them.  There that costs less than the
    bookkeeping of two levels (measured again for this scan, README), and
    the sums, fewer than _TWO_LEVEL / support, are kept for the brackets
    below.  Otherwise:

    Coarse pass: every _COARSE-th grid point and the floor of every
    interval between them (_interval_floor), from their own tables, which
    the fine pass's step table is doubled with (_tables).  An interval
    whose floor exceeds the coarse threshold is dropped.  That threshold
    is at least the full grid's, so a dropped interval holds no grid point
    and no time that reaches the full grid's.  Fine pass: each kept
    interval, the first and the last (which hold the window ends) and
    the partial interval up to t1 when (npts - 1) % _COARSE != 0 is one run
    of its grid points plus one neighbour on each side.  A run's start
    phase is a product of rows of the coarse tables, so the pass takes one
    step table of _COARSE + 3 rows and no exponential per run.

    On either level the grid-local minima among the points evaluated are
    tested against the floor of their bracket at the grid step: from the
    kept sums on one level, and on two from one more _fine_values call, on
    runs of its three points phased from the coarse tables.  Every point of
    a bracket lies, per column, within r = h slope + e of the sample at its
    centre (_Moments; e the floor's chord error), so no point of a bracket
    whose centre's value exceeds the reducer's cut(threshold, r) reaches
    the threshold, and none of its chords' floors does.  r is widened by
    1e-9 relative and 1e-10 of the column's mass, far above the rounding of
    either bound.  So _local_minima tests only the samples at most the cut,
    and the floors of their brackets leave the brackets the floors of every
    minimum leave.  The rest go to one _newton_batch, each from its grid
    time.  So the least grid value and the refined minima are those a scan
    of every grid point gives, up to rounding, and npts is the full grid's
    size.

    Beyond the passes over its grid a call does a fixed amount of work: the
    moments (_demodulated), the tables of both levels from one exponential
    and one product per doubling level (_tables), the floors of the kept
    brackets in one call, the brackets' times in Python floats, and the
    Newton steps (_newton_batch).  On the 18 scans of a seed-1
    lollipop-all round, six of them equality-time searches that no longer
    scan, that work took about 60% of the 10.2 ms they took in all
    (README).
    """
    t0, t1 = float(window[0]), float(window[1])
    spread = float(lam.max() - lam.min()) if len(lam) > 1 else 0.0
    npts = _grid_size(t1 - t0, spread)
    h = (t1 - t0) / (npts - 1)
    m = coef.shape[1]
    moments = _demodulated(lam, coef)

    def level(vals: np.ndarray) -> float:
        return ceiling if ceiling is not None else float(vals.min()) + band

    idx = None
    if npts <= 8 * _COARSE or npts * coef.size < _TWO_LEVEL:
        # below the gate the sums at the grid points number fewer than
        # _TWO_LEVEL / support, so they are kept for the brackets
        starts, steps = _tables(lam, t0, h, npts)
        z = _fine_values(coef, None, starts, steps[:-1]).reshape(-1, m)[:npts]
        vals = reducer.value(z)

        def bracket_floor(g: np.ndarray) -> np.ndarray:
            # the lesser floor of [t_{g-1}, t_g] and [t_g, t_{g+1}]
            ends = z[np.add.outer((-1, 0, 1), g)]
            floor = _interval_floor(reducer, moments, h)
            floors = floor(ends[:2].reshape(-1, m), ends[1:].reshape(-1, m))
            return floors.reshape(2, -1).min(axis=0)
    else:
        whole = (npts - 1) // _COARSE
        starts, steps, fine = _tables(lam, t0, _COARSE * h, whole + 1, h)
        n = len(steps) - 1
        coarse, floors = _fine_values(coef, reducer.value, starts, steps,
                                      _interval_floor(reducer, moments, _COARSE * h))
        coarse = coarse[:, :-1].reshape(-1)[:whole + 1]
        keep = floors.reshape(-1)[:whole] <= level(coarse)
        if whole * _COARSE < npts - 1:
            keep = np.append(keep, True)
        keep[0] = keep[-1] = True
        j = np.flatnonzero(keep)

        def phases(g: np.ndarray) -> np.ndarray:
            # e^{i lam t_g} from the coarse tables, for grid indices g
            c = g // _COARSE
            return starts[c // n] * steps[c % n] * fine[g % _COARSE]
        # run j starts a grid step before coarse point j
        vals = _fine_values(coef, reducer.value, phases(_COARSE * j) * fine[1].conj(), fine)
        take, idx = _fine_points(j, _COARSE, npts)
        vals = vals[take]

        def bracket_floor(g: np.ndarray) -> np.ndarray:
            # the three grid points of each bracket, as one run each: the
            # fine pass keeps no sums, which could number points x columns
            _, floors = _fine_values(coef, reducer.value, phases(g - 1), fine[:3],
                                     _interval_floor(reducer, moments, h))
            return floors.min(axis=1)

    threshold = level(vals)
    radius = ((1.0 + 1e-9) * (h * moments.slope + h * h / 8.0 * moments.curvature)
              + 1e-10 * moments.mass)
    p = _local_minima(vals, idx, reducer.cut(threshold, radius))
    g = p if idx is None else idx[p]
    if len(g):
        keep = bracket_floor(g) <= threshold
        p, g = p[keep], g[keep]

    def time(i: int) -> float:
        # the time np.linspace(t0, t1, npts) gives grid index i
        return t1 if i == npts - 1 else i * h + t0
    g = g.tolist()
    x, fx = _newton_batch(lam, coef, reducer.terms, [time(i - 1) for i in g],
                          [time(i + 1) for i in g], [time(i) for i in g], xtol)
    return _Scan(npts, (float(vals[0]), float(vals[-1])), threshold,
                 np.array([time(i) for i in g], dtype=float), vals[p], x, fx)


def _sq_at(lam: np.ndarray, wts: np.ndarray, times) -> np.ndarray:
    """|sum_j wts_j e^{i lam_j t}|^2 at each time, summed per time in the
    order np.sum uses, for refinement; wts is one row of weights, or one
    row per time."""
    z = (wts * np.exp(1j * np.multiply.outer(times, lam))).sum(axis=1)
    return z.real ** 2 + z.imag ** 2


def _clusters(roots: list) -> list[tuple[float, list[float]]] | None:
    """The critical points that one row's roots of P (_critical_points)
    give, as (x, members): x = cos(theta) of the point, and the angles of
    the other roots that locate it; None when the row is ambiguous.

    A multiple root of P comes back split by about eps^(1/m), as a pair or
    a ring around it, and the mean of the split roots locates it far
    better than any of them.  P is real, so the roots off the axis come in
    conjugate pairs.  The roots within _ROOT_BAND of an end x = -1 or 1
    whose mean lies within _ROOT_EXACT of it are that end, theta = pi or
    0, exactly.  The other roots within _ROOT_BAND of the segment [-1, 1]
    are sorted by real part and chained while consecutive real parts lie
    closer than _ROOT_CLUSTER, so a pair shares a chain.  Each chain is
    judged on the unit circle, as the np.roots form of degree 2Q judged
    its clusters: z = e^{i arccos x} maps a pair x +- iy to the radii r and
    1/r, the members within _ROOT_BAND of the circle form the chain, and a
    chain whose centroid in z lies more than _ROOT_EXACT off the circle
    cannot be told apart from a near miss, so the row is ambiguous.  A
    chain with no member near the circle, or with its mean outside (-1,
    1), is no critical point.
    """
    out = []
    for end in (-1.0, 1.0):
        near = [z for z in roots if abs(z - end) < _ROOT_BAND]
        if near and abs(sum(near) / len(near) - end) < _ROOT_EXACT:
            out.append((end, [cmath.acos(z).real for z in near]))
            roots = [z for z in roots if abs(z - end) >= _ROOT_BAND]
    pts = sorted((z.real, z.imag) for z in roots
                 if abs(z.imag) < _ROOT_BAND and abs(z.real) < 1.0 + _ROOT_BAND)
    chains: list[list[complex]] = []
    for re, im in pts:
        if chains and re - chains[-1][-1].real < _ROOT_CLUSTER:
            chains[-1].append(complex(re, im))
        else:
            chains.append([complex(re, im)])
    for chain in chains:
        if len(chain) == 1 and not chain[0].imag and abs(chain[0].real) < 1.0:
            # a simple real root inside the segment lies on the circle
            x, off, members = chain[0].real, 0.0, []
        else:
            kept = [(m, a) for m, a in zip(chain, map(cmath.acos, chain))
                    if abs(math.exp(-a.imag) - 1.0) < _ROOT_BAND]
            if not kept:
                continue
            off = abs(abs(sum(cmath.exp(1j * a) for _, a in kept) / len(kept)) - 1.0)
            x = sum(m.real for m, _ in kept) / len(kept)
            members = [a.real for m, a in kept if m != x]
        if off > _ROOT_EXACT:
            return None
        if abs(x) < 1.0:
            out.append((x, members))
    return out


def _critical_points(q: np.ndarray, wts: np.ndarray
                     ) -> list[list[tuple[float, list[float]]] | None]:
    """Critical points of |g_r(e^{i theta})|^2 for each row r of wts,
    g_r(z) = sum_j wts[r, j] z^{q_j} for integers q_j >= 0 that hold 0 and
    Q = max q_j, as _clusters gives them, or None for an ambiguous row.

    With real weights, |g|^2 = c_0 + 2 sum_{d=1}^{Q} c_d cos(d theta), where
    c_d = sum_j w_j w_{j+d} is the autocorrelation of the weights placed
    on q, so its derivative in theta is -2 sin(theta) P(cos theta), P(x) =
    sum_{k<Q} a_k U_k(x) with a_k = (k + 1) c_{k+1} in the Chebyshev U
    basis, of degree Q - 1 with a_{Q-1} = Q w_0 w_Q != 0 (Boyd, J. Eng.
    Math. 56 (2006) 203-219).  The critical points over the period are
    theta = 0 and pi, where sin vanishes, and theta and 2 pi - theta for
    theta = arccos x at each real root x of P in (-1, 1).  The roots of P
    are the eigenvalues of its (Q - 1) x (Q - 1) colleague matrix (Good,
    Quart. J. Math. 12 (1961) 61-68): 1/2 on both off-diagonals, and its
    last row less a_k / (2 a_{Q-1}).  The rows share q, so their matrices
    form one stack and take one np.linalg.eigvals call, which gives each
    matrix the bits a call of its own gives it.  For Q = 1, P is a nonzero
    constant, with no root; for Q = 2 its one root is -a_0 / (2 a_1) =
    -c_1 / (4 c_2); neither takes a matrix.  The autocorrelations of every
    row are one np.bincount over the ordered pairs of support points, in
    one order whatever the stack, so they are 2 c_d, a scale that moves
    no root."""
    big_q, rows = int(q.max()), len(wts)
    if big_q == 1:
        return [[] for _ in range(rows)]
    k1 = big_q + 1
    bins = np.abs(np.subtract.outer(q, q)) + np.arange(0, rows * k1, k1)[:, None, None]
    c = np.bincount(bins.ravel(), (wts[:, :, None] * wts[:, None, :]).ravel(), rows * k1)
    a = c.reshape(rows, k1)[:, 1:] * np.arange(1, k1)
    n = big_q - 1
    last = a[:, :n] / (-2.0 * a[:, n:])
    if n > 1:
        m = np.zeros((rows, n, n))
        flat = m.reshape(rows, n * n)
        flat[:, 1::n + 1] = 0.5
        flat[:, n::n + 1] = 0.5
        m[:, -1] += last
        last = np.linalg.eigvals(m)
    return [_clusters(r) for r in last.tolist()]


def _root_offers(lam: np.ndarray, wts: np.ndarray, per: PeriodFit
                 ) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """For each row of wts, one vertex's weights on the support lam with
    period fit per: the times and |U|^2 offers of its critical points over
    the period [0, rho], or None when the root path does not apply to it.
    The window ends and theta = pi offer at every row, and each interior
    point x of _critical_points at theta = arccos x and 2 pi - theta.  Each
    offers |U|^2 at its own time, unless one of its members (mirrored for
    2 pi - theta) lies lower by more than _TIE_BAND: then the chain joined
    distinct roots, and that member offers at its own time.  The members of
    a point at x = -1 belong to theta = pi and those at x = 1 to both ends.
    So every offer is |U|^2 at its own time.  The rows share one
    _critical_points call, and every time of every row one _sq_at call (one
    row of weights per time).
    """
    q = np.array(per.coordinates) // math.gcd(*per.coordinates)
    if q.max() > _ROOT_CAP:
        return [None] * len(wts)
    rho = float(per.period)
    scale = rho / (2.0 * math.pi)
    times: list[float] = []
    starts: list[int] = []
    whose: list[int] = []
    # the groups with members: (group, first time, end)
    multi: list[tuple[int, int, int]] = []
    spans: dict[int, tuple[int, int]] = {}
    for r, found in enumerate(_critical_points(q, wts)):
        if found is None:
            continue
        groups = [[0.0], [rho], [0.5 * rho]]
        for x, members in found:
            lo = [scale * a for a in members]
            hi = [rho - t for t in lo]
            if x == 1.0:
                groups[0] += lo
                groups[1] += hi
            elif x == -1.0:
                groups[2] += lo
            else:
                t = scale * math.acos(x)
                groups += [[t, *lo], [rho - t, *hi]]
        spans[r] = (len(starts), len(starts) + len(groups))
        for g in groups:
            if len(g) > 1:
                multi.append((len(starts), len(times), len(times) + len(g)))
            starts.append(len(times))
            times += g
        whose += [r] * (len(times) - len(whose))
    out: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(wts)
    if spans:
        ts = np.array(times)
        sq = _sq_at(lam, wts if len(wts) == 1 else wts[whose], ts)
        at, own = (ts[starts], sq[starts]) if multi else (ts, sq)
        for g, a, b in multi:
            i = a + int(sq[a:b].argmin())
            if sq[i] + _TIE_BAND < own[g]:
                at[g], own[g] = ts[i], sq[i]
        for r, (a, b) in spans.items():
            out[r] = (at[a:b], own[a:b])
    return out


class VertexSpectrum(NamedTuple):
    """What every search over one vertex's diagonal reads: its eigenvalue
    support (eigenvalues, diagonal projector weights and their indices into
    the decomposition, in the decomposition's order) and its periodicity,
    its support index set's kept PeriodFit or spectral.UNDETECTED; and
    what the oracle reads of it (WalkEvaluator.spectra): its default
    window, whether that certifies, and its root offers there (None sends
    the oracle to the scan)."""

    eigenvalues: np.ndarray
    weights: np.ndarray
    indices: tuple[int, ...]
    periodicity: PeriodFit
    window: tuple[float, float] = (0.0, DEFAULT_WINDOW)
    certified: bool = False
    offers: tuple[np.ndarray, np.ndarray] | None = None


def _default_window(lam: np.ndarray, rho: float | None
                    ) -> tuple[tuple[float, float], bool]:
    """WalkEvaluator.default_window of a support lam with detected period
    rho (None without one)."""
    if rho is None:
        return (0.0, DEFAULT_WINDOW), False
    spread = float(lam.max() - lam.min()) if len(lam) > 1 else 0.0
    if math.ceil(64.0 * rho * spread / (2.0 * math.pi)) > _GRID_CAP:
        return (0.0, min(rho, DEFAULT_WINDOW)), False
    return (0.0, rho), True


@dataclass(frozen=True)
class MinimizationResult:
    """Certified (or windowed) minimum of |U(t)_{u,u}|.

    grid is the size of the uniform grid the scan uses on the window.  The
    root path of a certified window evaluates critical points instead of a
    grid but reports the same size, so reports do not depend on the path.
    refinements (not in to_dict) counts the brackets the scan refines by
    Newton steps and the critical points (theta = pi and each root chain's
    theta and 2 pi - theta) that offer on the root path.  It names no
    vertex: the report or the oracle payload that holds it does.
    """

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
    """The first time in a window at which the walk from the searched
    vertex reaches target with magnitude within _PST_TOL of 1."""

    target: int
    time: float
    magnitude: float


class WalkEvaluator:
    """Evaluates entries of U(t) = sum_j exp(it lambda_j) E_j, holding one
    VertexSpectrum per vertex (spectrum) that the oracle and every
    certificate read, computed on first use (spectra), and one period fit
    per support index set (spectral.period_fit), which the later vertices
    of that set read and whose records hold it.  A record's arrays are
    read-only: the evaluator of a graph (for_graph) is kept on it, so its
    records are shared by every later call on that graph.  scale, the
    decomposition's scale(), sizes the tolerances of the period fits and
    the certificates."""

    def __init__(self, decomposition: SpectralDecomposition):
        self.decomposition = decomposition
        self.scale = decomposition.scale()
        self._diag_cache: dict[int, VertexSpectrum] = {}
        self._fits: dict[tuple[int, ...], PeriodFit] = {}

    @classmethod
    def for_graph(cls, graph: WeightedGraph,
                  kind: MatrixKind = ADJACENCY) -> "WalkEvaluator":
        """The evaluator of (graph, kind), made on the first call for this
        graph object and kind and kept on the graph with the twin classes
        (and, once the graph is a product's factor, its factor vertices'
        reports) for as long as the graph lives, so every later call on
        that graph, classify's included, reads the same one: its
        decomposition (eigenvectors n x n, weights n x distinct eigenvalues)
        and its vertex records (one per vertex asked about, k support
        eigenvalues, weights and offers).  Each twin class's difference
        eigenvalue is read and checked with the evaluator, from the
        assembled matrix, which is not kept."""
        # sedentary imports this module, so it is imported on first use
        from .sedentary import _graph_spectra
        return _graph_spectra(graph, kind).walk

    @property
    def n(self) -> int:
        return self.decomposition.n

    # -- entry evaluation ---------------------------------------------------

    def transition_matrix(self, t: float) -> np.ndarray:
        d = self.decomposition
        phases = np.repeat(np.exp(1j * t * d.eigenvalues), d.multiplicities)
        return (d.vectors * phases) @ d.vectors.T

    def transition_entry(self, t: float, u: int, v: int) -> complex:
        """U(t)_{u,v} = sum_j exp(it lambda_j) (E_j)_{u,v}, where (E_j)_{u,v}
        = V_j[u] . V_j[v].  On the diagonal those are u's row of the
        decomposition's weights, the same cluster sums to the bit, which
        the decomposition already holds."""
        d = self.decomposition
        proj = d.weights[u] if u == v else d.cluster_sums(d.vectors[u] * d.vectors[v])
        return complex(np.sum(np.exp(1j * t * d.eigenvalues) * proj))

    def support(self, u: int) -> EigenvalueSupport:
        """u's eigenvalue support over the decomposition (spectral.support),
        made anew and kept nowhere: what spectra builds a record from, and
        all that the twin bound reads."""
        return support(self.decomposition, u)

    def spectrum(self, u: int) -> VertexSpectrum:
        """The support and periodicity of u, computed once per vertex: in
        the group spectra computed it in, or else in a group of its own."""
        rec = self._diag_cache.get(u)
        if rec is None:
            rec = self.spectra([u])[0]
        return rec

    def spectra(self, vertices: Sequence[int]) -> list[VertexSpectrum]:
        """The records of vertices.  Those not yet computed are grouped by
        support index set, and each group writes every member's record:
        one periodicity call (each member's own |U(rho)_{u,u}| = 1 check
        of the set's one fit, whose record then holds that fit object or
        spectral.UNDETECTED), each member's default window
        (default_window) and, on a certified window, one root solve
        (_root_offers) over the members whose window certifies.  Those
        share the period and its coordinates, and each keeps its own
        weights, its own offers or its fallback to the scan when its own
        chains are ambiguous: the bits a group of its own gives it.  The
        fit of a support index set is made by its first group and kept
        for the later groups of that set, which read it.  The records are
        kept, with their arrays read-only, for every later call on this
        evaluator."""
        groups: dict[tuple[int, ...], list[EigenvalueSupport]] = {}
        for u in dict.fromkeys(vertices):
            if u not in self._diag_cache:
                sup = self.support(u)
                groups.setdefault(sup.indices, []).append(sup)
        for indices, sups in groups.items():
            lam = np.array(sups[0].eigenvalues)
            fit = self._fits.get(indices)
            if fit is None:
                fit = self._fits[indices] = period_fit(sups[0].eigenvalues, self.scale)
            pers = periodicity(fit, [sup.weights for sup in sups])
            windows = [_default_window(lam, per.period) for per in pers]
            solve = [i for i, (_, certified) in enumerate(windows)
                     if certified and len(lam) > 1]
            offers = {}
            if solve:
                wts = np.array([sups[i].weights for i in solve])
                offers = dict(zip(solve, _root_offers(lam, wts, fit)))
            for i, (sup, per) in enumerate(zip(sups, pers)):
                rec = VertexSpectrum(lam, np.array(sup.weights), sup.indices, per,
                                     *windows[i], offers.get(i))
                for a in (rec.eigenvalues, rec.weights, *(rec.offers or ())):
                    a.setflags(write=False)
                self._diag_cache[sup.vertex] = rec
        return [self._diag_cache[u] for u in vertices]

    def default_window(self, u: int) -> tuple[tuple[float, float], bool]:
        """The window a search over u's diagonal takes when given none, and
        whether it certifies: [0, rho] for a detected period rho; the open
        window [0, DEFAULT_WINDOW] without one; and [0, min(rho,
        DEFAULT_WINDOW)], uncertified, when rho is too long to scan in
        _GRID_CAP points.  spectra writes it into u's record."""
        rec = self.spectrum(u)
        return rec.window, rec.certified

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

    # -- diagonal minimization ---------------------------------------------

    def _grid_size(self, span: float, spread: float, grid: None = None) -> int:
        # the grid every search uses, for callers that size it through the
        # class; they pass grid as None, and it is not read
        return _grid_size(span, spread)

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
        the period is theta = 0, theta = pi, or theta = arccos x or 2 pi -
        theta for a root x in (-1, 1) of one polynomial P of degree Q - 1
        in the Chebyshev U basis (_critical_points): the eigenvalues of its
        colleague matrix for Q >= 3, one division for Q = 2, none for Q =
        1.  Split multiple roots form chains (_clusters); a chain at x = 1
        or -1 is that end exactly.  Each point offers |U|^2 at its own
        time, evaluated on the support eigenvalues themselves, unless a
        member of its chain lies lower by more than 1e-9, which then
        offers at its own time; refinements counts the points other than
        the window ends.  An ambiguous chain sends the call to the scan.
        The call reads u's offers from its record: spectra solves the root
        path once per support group, for every member whose window
        certifies (_root_offers: one stacked eigvals call, one evaluation
        of every offer), when it computes their records; each member's
        polynomial has its own weights, and its offers are the bits a
        solve of its own gives.

        Scan.  Otherwise |U(t)_{u,u}|^2 is scanned by _scan_minima with the
        reducer _sq, in O(chunk x support) memory, pruned by the floor _sq
        carries: on an interval of width H, e^{-i mu t} U(t)_{u,u} (mu the
        w-weighted mean of lam) stays within e = H^2/8 Var_w(lam) of the
        chord between its samples, so |U|^2 stays above max(0, dist(0,
        chord) - e)^2.  Its threshold is the grid minimum plus 1e-9, so a
        pruned interval or bracket holds neither the minimum nor a tie with
        it.  The kept grid-local minima (refinements counts them) are
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
        lam, wts, _, per, *default = self.spectrum(u)
        certified, found = False, None
        if window is None:
            if per.period is None:
                raise WalkError(
                    f"no certified period for vertex {u}; pass an explicit window")
            window, certified, found = default
        t0, t1 = float(window[0]), float(window[1])
        if not (math.isfinite(t1) and t1 > t0 >= 0.0):
            raise WalkError(f"bad window {window!r}")
        if found is not None:
            times, offers = found
            npts = _grid_size(t1 - t0, float(lam.max() - lam.min()))
            refinements = len(times) - 2
            pairs = list(zip(offers.tolist(), times.tolist()))
        else:
            scan = _scan_minima(lam, wts[:, None], _sq, (t0, t1), _REFINE_TOL,
                                band=_TIE_BAND)
            npts, refinements = scan.npts, len(scan.x)
            # the few refined brackets offer in Python floats, compared
            # exactly as numpy compares them
            pairs = [(scan.ends[0], t0), (scan.ends[1], t1)] + [
                (fx, x) if fx < f else (f, t)
                for t, f, x, fx in zip(*(v.tolist() for v in scan[3:]))]
        best_sq = min(o for o, _ in pairs)
        best_t = min(t for o, t in pairs if o <= best_sq + _TIE_BAND)
        best = math.sqrt(max(best_sq, 0.0))
        return MinimizationResult(best, best_t, (t0, t1), npts, certified, refinements)

    # -- transfer phenomena -------------------------------------------------

    def _column_scan(self, coef: np.ndarray, reducer: _Reducer,
                     window: tuple[float, float], ceiling: float) -> np.ndarray:
        """Times, in order, among the window ends and the refined grid-local
        minima of the reducer's f of the walk columns sum_j coef_j e^{i
        lam_j t} (rows of _column_data) where it is at most ceiling."""
        scan = _scan_minima(self.decomposition.eigenvalues, coef, reducer, window, 1e-12,
                            ceiling=ceiling)
        times = np.concatenate(([float(window[0])], scan.x, [float(window[1])]))
        return times[np.concatenate(([scan.ends[0]], scan.fx, [scan.ends[1]])) <= ceiling]

    def find_perfect_state_transfer(self, u: int, window: tuple[float, float]
                                    ) -> PerfectStateTransferWitness | None:
        """Earliest time in the window where some |U(t)_{v,u}|, v != u,
        reaches 1 within _PST_TOL.  Numeric evidence only; the caller
        decides whether the window certifies anything.

        Triangle guard: |U(t)_{v,u}| <= reach_v = sum_j |(E_j)_{v,u}| at
        every t, so when no v != u has reach_v >= 1 - _PST_TOL - _PST_SLACK,
        no time of any window transfers and the call returns None without
        a scan.  Otherwise -max_v |U(t)_{v,u}|^2 over every v != u is
        scanned (_neg_peak) with the ceiling -(1 - _PST_TOL)^2."""
        cols = self._column_data(u)
        reach = np.abs(cols).sum(axis=0)
        reach[u] = 0.0
        if reach.max() < 1.0 - _PST_TOL - _PST_SLACK:
            return None
        others = [v for v in range(self.n) if v != u]
        times = self._column_scan(cols[:, others], _neg_peak, window,
                                  -(1.0 - _PST_TOL) ** 2)
        if not len(times):
            return None
        mags = self.column_magnitude_series(u, times[:1])[0]
        v = others[int(np.argmax(mags[others]))]
        return PerfectStateTransferWitness(v, float(times[0]), float(mags[v]))

    def find_fractional_revival(self, u: int, v: int,
                                window: tuple[float, float]) -> float | None:
        """Earliest time where the walk column at u is supported on {u, v}
        with a nonzero cross term: min t with sum of |U(t)_{w,u}|^2 over
        w outside the pair below _LEAK_TOL and |U(t)_{v,u}| > _BETA_TOL."""
        if u == v:
            raise WalkError("fractional revival needs a pair of distinct vertices")
        rest = [w for w in range(self.n) if w not in (u, v)]
        for t in self._column_scan(self._column_data(u)[:, rest], _leak, window, _LEAK_TOL):
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
