"""Certificates and classification of sedentary vertices.

A vertex u is sedentary when |U(t)_{u,u}| admits a positive lower bound for
all t > 0.  This module derives such bounds from structure (twin classes,
heavy eigenvalue subsets, closed-form families, box products), pairs them
with the independent minimization oracle from walk.py, and reconciles both
sides into one of five labels:

  not-sedentary       the infimum of |U(t)_{u,u}| is 0
  sedentary-at-least  a proven bound C > 0; the infimum itself is unknown
  sharply-sedentary   the infimum equals C but is only approached
  tightly-sedentary   the infimum equals C and is attained at a finite time
  unresolved          no certificate applies; observations only

Certificates never overstate.  Grid-backed bounds are flagged non-analytic,
and a bound whose validity is limited to an uncertified time window never
drives the classification.

The spectral certificates take the walk evaluator and a vertex, and read
the vertex's support, periodicity and default window from it
(WalkEvaluator.spectrum, computed once per vertex, and default_window;
classify_vertices computes them per group of vertices with one support).

The closed-form families (stars, cones and double cones, complete graphs
and their box powers, double stars) form one catalogue read through one
lookup, family_ruling.  It rules every join by the graph's structure, so
the same edges get the same ruling with or without a family name, and
reads the family provenance only where structure cannot tell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .graphs import FamilySpec, WeightedGraph, _common_value, describe_graph
from .matrices import ADJACENCY, MatrixKind, assemble, twin_theta
from .spectral import (
    TwinSet,
    decompose,
    find_twin_sets,
    verify_twin_eigenvector,
)
from .walk import (
    _CHUNK,
    MinimizationResult,
    VertexSpectrum,
    WalkError,
    WalkEvaluator,
    _grid_values,
    _newton_batch,
    _scan_minima,
    _sq,
)

__all__ = [
    "NOT_SEDENTARY",
    "SEDENTARY_AT_LEAST",
    "SHARPLY_SEDENTARY",
    "TIGHTLY_SEDENTARY",
    "UNRESOLVED",
    "TWIN_BOUND",
    "SUBSET_BOUND",
    "PRODUCT_COMPOSITION",
    "CLOSED_FORM_FAMILY",
    "NOT_SEDENTARY_PST",
    "NOT_SEDENTARY_ZERO_CROSSING",
    "SHARPNESS_PARITY",
    "CertificateRefused",
    "UnsupportedSpectrum",
    "SedentaryCertificate",
    "SedentaryReport",
    "ClassifyOptions",
    "FamilyRuling",
    "subset_bound",
    "equality_condition",
    "find_equality_time",
    "twin_bound",
    "integer_kernel_basis",
    "sharpness_parity",
    "find_zero_crossing",
    "family_ruling",
    "product_compose",
    "classify",
    "classify_vertices",
]

# classification labels
NOT_SEDENTARY = "not-sedentary"
SEDENTARY_AT_LEAST = "sedentary-at-least"
SHARPLY_SEDENTARY = "sharply-sedentary"
TIGHTLY_SEDENTARY = "tightly-sedentary"
UNRESOLVED = "unresolved"

# certificate kinds
TWIN_BOUND = "twin-bound"
SUBSET_BOUND = "subset-bound"
PRODUCT_COMPOSITION = "product-composition"
CLOSED_FORM_FAMILY = "closed-form-family"
NOT_SEDENTARY_PST = "not-sedentary-pst"
NOT_SEDENTARY_ZERO_CROSSING = "not-sedentary-zero-crossing"
SHARPNESS_PARITY = "sharpness-parity"

RECONCILE_TOL = 1e-6
ZERO_TOL = 1e-8
_HALF_TOL = 1e-9
_PHASE_TOL = 1e-8
_EPS = float(np.finfo(float).eps)
# the most phase-lattice points find_equality_time searches: at about 17 us
# per _CHUNK points, about a second of search
_MAX_LATTICE = 1 << 26
# lattice indices from here on are not all floats, and t lam keeps no phase
_MAX_INDEX = float(1 << 53)


class CertificateRefused(ValueError):
    """The hypotheses of a certificate are not met by the given data."""


class UnsupportedSpectrum(RuntimeError):
    """The computation needs an integer-rescalable eigenvalue support."""


@dataclass(frozen=True)
class SedentaryCertificate:
    """One piece of evidence about the diagonal magnitude at a vertex.

    bound is a lower bound on |U(t)_{u,u}| valid for all t when certified
    is True; analytic marks bounds proven in closed form rather than by a
    grid scan.  subset holds distinct-eigenvalue indices into the
    decomposition; weight is the total projector mass of that subset.
    """

    kind: str
    vertex: int
    bound: float
    subset: tuple[int, ...] = ()
    weight: float | None = None
    equality_times: tuple[float, ...] = ()
    analytic: bool = True
    certified: bool = True
    detail: str = ""

    def __post_init__(self):
        if not -1e-12 <= self.bound <= 1.0 + 1e-9:
            raise CertificateRefused(f"bound {self.bound!r} outside [0, 1]")
        if self.kind == SUBSET_BOUND:
            if self.weight is None or not 0.5 - _HALF_TOL <= self.weight < 1.0:
                raise CertificateRefused(
                    f"subset bound needs mass in [1/2, 1), got {self.weight!r}")
        object.__setattr__(self, "subset", tuple(int(j) for j in self.subset))
        object.__setattr__(self, "equality_times",
                           tuple(float(t) for t in self.equality_times))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "S": list(self.subset),
            "a": self.weight,
            "bound": self.bound,
            "equality_times": list(self.equality_times),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class SedentaryReport:
    """Final verdict for one vertex under one matrix kind."""

    graph: str
    matrix: str
    vertex: int
    classification: str
    bound: float | None
    certificates: tuple[SedentaryCertificate, ...]
    oracle: MinimizationResult | None

    def to_dict(self) -> dict:
        return {
            "graph": self.graph,
            "matrix": self.matrix,
            "vertex": self.vertex,
            "classification": self.classification,
            "C": self.bound,
            "certificates": [c.to_dict() for c in self.certificates],
            "oracle": self.oracle.to_dict() if self.oracle else None,
        }


@dataclass(frozen=True)
class ClassifyOptions:
    """What classify may be told: an oracle window (None takes the vertex's
    default window)."""

    window: tuple[float, float] | None = None


# -- subset bounds --------------------------------------------------------------


def _support_positions(rec: VertexSpectrum, u: int,
                       subset) -> tuple[tuple[int, ...], list[int]]:
    s = tuple(sorted(set(int(j) for j in subset)))
    if not s:
        raise CertificateRefused("empty subset")
    missing = [j for j in s if j not in rec.indices]
    if missing:
        raise CertificateRefused(
            f"eigenvalue indices {missing} are not in the support of vertex {u}")
    if len(s) == len(rec.indices):
        raise CertificateRefused("subset must be a proper part of the support")
    return s, [rec.indices.index(j) for j in s]


def subset_bound(w: WalkEvaluator, u: int, subset,
                 window: tuple[float, float] | None = None) -> SedentaryCertificate:
    """Lower bound on |U(t)_{u,u}| from the projector mass of a subset.

    Let a be the total diagonal weight of a proper nonempty subset S of the
    eigenvalue support of u.  For a >= 1/2 the triangle inequality gives
    |U(t)_{u,u}| >= |partial sum over S| - (1 - a).  A singleton S makes the
    partial sum constant and the bound 2a - 1 analytic; larger subsets
    minimize the squared partial sum by the scan of walk._scan_minima.  On
    a large grid its coarse pass drops every interval between coarse
    points whose floor lies above the coarse minimum: the partial sum,
    demodulated by its weighted mean eigenvalue, stays within H^2/8 times
    its weighted variance of the chord between two samples H apart, so its
    square stays above that much less than the chord's distance from 0,
    squared.  It refines, by batched safeguarded Newton steps on the
    analytic derivative, every grid-local minimum whose bracket's floor at
    the grid step does not lie above the grid minimum.  That is honest
    evidence but not a proof, so
    the certificate is flagged accordingly; with no window it scans
    w.default_window(u), and only a certified default window certifies the
    bound.
    """
    rec = w.spectrum(u)
    s, pos = _support_positions(rec, u, subset)
    a = float(sum(rec.weights[p] for p in pos))
    if a < 0.5 - _HALF_TOL:
        raise CertificateRefused(
            f"subset mass {a:.9f} is below 1/2; the bound would be vacuous")
    if len(s) == 1:
        return SedentaryCertificate(
            SUBSET_BOUND, u, max(2.0 * a - 1.0, 0.0), s, a,
            detail="single-eigenvalue mass bound")

    certified = False
    if window is None:
        window, certified = w.default_window(u)
    t0, t1 = float(window[0]), float(window[1])
    scan = _scan_minima(rec.eigenvalues[pos], rec.weights[pos][:, None], _sq, (t0, t1),
                        1e-10)
    # with no band, the scan's threshold is the least grid value
    fmin = math.sqrt(max(min(scan.level, float(scan.fx.min(initial=np.inf))), 0.0))
    bound = max(fmin - (1.0 - a), 0.0)
    where = "certified period" if certified else "open window"
    return SedentaryCertificate(
        SUBSET_BOUND, u, bound, s, a, analytic=False, certified=certified,
        detail=f"partial-sum minimum {fmin:.9f} on the {where} [{t0:g}, {t1:g}]")


def equality_condition(w: WalkEvaluator, u: int, subset, t1: float) -> bool:
    """Check the phase alignment that makes the subset bound an equality.

    At time t1 all subset phases must coincide at some unit z while every
    remaining support phase sits at -z; the subset's partial sum must also
    dominate the complementary mass.  When this holds with subset mass
    a >= 1/2, |U(t1)_{u,u}| equals 2a - 1, and that is verified too.  Each
    test allows _PHASE_TOL (100 _PHASE_TOL for the value).
    """
    rec = w.spectrum(u)
    _, pos = _support_positions(rec, u, subset)
    return _equality_holds(rec, pos, t1)


def _equality_holds(rec: VertexSpectrum, pos: list[int], t1: float) -> bool:
    lam, wts = rec.eigenvalues, rec.weights
    inside = np.zeros(len(lam), dtype=bool)
    inside[pos] = True
    phases = np.exp(1j * t1 * lam)
    zref = phases[pos[0]]
    align = max(float(np.max(np.abs(phases[inside] - zref))),
                float(np.max(np.abs(phases[~inside] + zref))))
    if align > _PHASE_TOL:
        return False
    a = float(np.sum(wts[inside]))
    partial = abs(complex(np.sum(wts[inside] * phases[inside])))
    if partial + _PHASE_TOL < 1.0 - a:
        return False
    value = abs(complex(np.sum(wts * phases)))
    return abs(value - abs(2.0 * a - 1.0)) <= 100.0 * _PHASE_TOL


def _alignment_defect(k: int):
    """The terms (D, D', D'') of find_equality_time's alignment defect D =
    2k - 2 Re z, z = sum_j s_j e^{i delta_j t}, for _newton_batch."""
    def terms(z, dz, d2z):
        return 2.0 * k - 2.0 * z[:, 0].real, -2.0 * dz[:, 0].real, -2.0 * d2z[:, 0].real
    return terms


def find_equality_time(w: WalkEvaluator, u: int, subset,
                       window: tuple[float, float]) -> float | None:
    """Earliest time in the window where equality_condition holds, or None.

    The time comes from the phase lattice, not a scan.  A time t that
    passes the condition has |e^{i delta_j t} - s_j| <= tol for every j
    (delta_j the support eigenvalues less the first subset eigenvalue, s_j
    = +1 on the subset and -1 off it, tol = _PHASE_TOL), up to rounding.
    For delta*, the largest |delta_j|, t then lies within a = 2 asin(tol/2)
    / |delta*| of a lattice point c_m = (phi* + 2 pi m) / |delta*|, phi* =
    0 when delta* is on the subset and pi when it is off.  At c_m every j
    is within tol + |delta_j| a <= tol + 2 asin(tol/2) of its target, which
    is 2 tol to within tol^3.  So only the lattice points within a of the
    window (about |delta*| span / 2 pi of them; the search takes 2a, for
    rounding) that pass 2 tol, plus a slack for the rounding of the phases
    t lam, can have such a time near them.  The phases are tested one at a
    time, each on the candidates the ones before it leave.  Those left are
    refined together by safeguarded Newton steps on
    D(t) = sum_j |e^{i delta_j t} - s_j|^2 = 2k - 2 Re sum_j s_j e^{i
    delta_j t} (_newton_batch, to 1e-12), each from c_m inside [c_m - pi /
    (2 |delta*|), c_m + pi / (2 |delta*|)] and the window, and the refined
    times are checked against the exact condition in increasing order.
    The lattice is taken _CHUNK points at a time, so memory stays bounded
    on any window, and the search stops at the first chunk that holds a
    time.  It searches at most the first _MAX_LATTICE points: a window with
    more and no time among those is refused after them (WalkError), and so,
    before the search, is one whose last lattice index overflows a float or
    whose first reaches _MAX_INDEX.
    """
    rec = w.spectrum(u)
    _, pos = _support_positions(rec, u, subset)
    lam = rec.eigenvalues
    sign = np.full(len(lam), -1.0)
    sign[pos] = 1.0
    deltas = lam - lam[pos[0]]
    # the fastest phase first: it is on target at every c_m, and one more
    # phase leaves few candidates, so the rest test only those
    star, *rest = np.argsort(-np.abs(deltas), kind="stable").tolist()
    speed = abs(float(deltas[star]))
    phi = 0.0 if sign[star] > 0.0 else math.pi
    t0, t1 = float(window[0]), float(window[1])
    a = 2.0 * math.asin(_PHASE_TOL / 2.0) / speed
    # the lattice points within 2a of the window: a covers every time that
    # passes, and the rest of the margin the rounding of c_m
    top = ((t1 + 2.0 * a) * speed - phi) / (2.0 * math.pi)
    if top == math.inf:
        raise WalkError(f"a window ending at {t1!r} is too long to search")
    bottom = ((t0 - 2.0 * a) * speed - phi) / (2.0 * math.pi)
    if not abs(bottom) < _MAX_INDEX:
        raise WalkError(f"a window starting at {t0!r} is too far out to search")
    first, last = math.ceil(bottom), math.floor(top)
    capped = last - first >= _MAX_LATTICE
    if capped:
        last = first + _MAX_LATTICE - 1
    # a capped search ends short of the next lattice point
    reach = (phi + 2.0 * math.pi * (last + 1)) / speed if capped else t1
    # rounding of the phases t lam, both here and in _equality_holds
    near = 2.0 * _PHASE_TOL + 64.0 * _EPS * (1.0 + (max(abs(t0), abs(reach)) + a)
                                            * float(np.max(np.abs(lam))))
    half = 0.5 * math.pi / speed
    terms = _alignment_defect(len(lam))
    for m in range(first, last + 1, _CHUNK):
        c = (phi + 2.0 * math.pi * np.arange(m, min(m + _CHUNK, last + 1))) / speed
        for j in rest:
            # |e^{i x} - 1| = 2 |sin(x/2)| and |e^{i x} + 1| = 2 |cos(x/2)|
            half_phase = c * (0.5 * deltas[j])
            miss = np.sin(half_phase) if sign[j] > 0.0 else np.cos(half_phase)
            c = c[np.abs(miss) <= 0.5 * near]
            if not len(c):
                break
        if not len(c):
            continue
        lo, hi = np.maximum(c - half, t0), np.minimum(c + half, t1)
        x, _ = _newton_batch(deltas, sign[:, None], terms, lo, hi,
                             np.clip(c, lo, hi), 1e-12)
        for t in x.tolist():
            if _equality_holds(rec, pos, t):
                return t
    if capped:
        raise WalkError(f"a window ending at {t1!r} is too long to search")
    return None


# -- twin classes ---------------------------------------------------------------


def _twin_map(graph: WeightedGraph) -> dict[int, TwinSet]:
    """The twin classes of graph as a map from each vertex with a twin to
    its class.  Twins share their neighbourhoods under every matrix kind,
    so the map holds no kind: find_twin_sets runs once per graph object,
    and the map is kept on the graph (graph._spectra[None]), where every
    kind, twin_bound, family_ruling and _Context._representative read it."""
    twin_of = graph._spectra.get(None)
    if twin_of is None:
        twin_of = graph._spectra[None] = {
            v: ts for ts in find_twin_sets(graph) for v in ts.vertices}
    return twin_of


def twin_bound(graph: WeightedGraph, u: int,
               kind: MatrixKind = ADJACENCY) -> SedentaryCertificate:
    """Membership in a twin class of size c gives |U(t)_{u,u}| >= 1 - 2/c.

    A pair (c = 2) yields the vacuous constant 0; the certificate is still
    emitted so reports can show the twin structure.  The difference
    eigenvalue theta of the kind is computed here from the class's degree,
    omega and eta; the difference eigenvector is verified against the
    assembled matrix of (graph, kind), and the projector mass at theta is
    recorded.  The decomposition and the verdict of each class's check are
    read from, and the verdict kept in, _graph_spectra(graph, kind), so a
    class is checked once per graph object and kind.
    """
    twins = _twin_map(graph).get(u)
    if twins is None:
        raise CertificateRefused(f"vertex {u} has no twin")
    c = twins.size
    bound = max(1.0 - 2.0 / c, 0.0)
    theta = twin_theta(kind, twins.degree, twins.omega, twins.eta)
    spectra = _graph_spectra(graph, kind)
    d, verdicts = spectra.walk.decomposition, spectra.twin_verdicts
    verified = verdicts.get(twins.vertices)
    if verified is None:
        verified = verdicts[twins.vertices] = verify_twin_eigenvector(d, twins, theta)
    if not verified:
        raise CertificateRefused("twin difference vector fails the eigenvector check")
    j = int(np.argmin(np.abs(d.eigenvalues - theta)))
    near = abs(float(d.eigenvalues[j]) - theta) <= 1e-8 * max(d.scale(), 1.0)
    others = ", ".join(str(v) for v in twins.vertices if v != u)
    return SedentaryCertificate(
        TWIN_BOUND, u, bound, (j,) if near else (), d.diagonal_weight(j, u) if near else None,
        detail=f"twin class {{{u}, {others}}} of size {c}, "
               f"difference eigenvalue {theta:g}")


# -- integer relations and sharpness ---------------------------------------------


def integer_kernel_basis(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of the integer kernel {x : R x = 0} of an integer matrix R.

    Column-style elimination with unimodular operations; the transform
    columns that end up annihilated by every row form a lattice basis of the
    kernel.  All arithmetic is exact, and the result is verified.
    """
    mat = [[int(x) for x in row] for row in rows]
    if not mat:
        raise ValueError("need at least one row")
    n = len(mat[0])
    if any(len(row) != n for row in mat):
        raise ValueError("ragged rows")
    work = [[row[j] for row in mat] for j in range(n)]
    trans = [[int(i == j) for i in range(n)] for j in range(n)]
    pivot = 0
    for i in range(len(mat)):
        while True:
            nz = [j for j in range(pivot, n) if work[j][i] != 0]
            if len(nz) <= 1:
                break
            jmin = min(nz, key=lambda j: abs(work[j][i]))
            for j in nz:
                if j == jmin:
                    continue
                q = work[j][i] // work[jmin][i]
                if q:
                    work[j] = [x - q * y for x, y in zip(work[j], work[jmin])]
                    trans[j] = [x - q * y for x, y in zip(trans[j], trans[jmin])]
        nz = [j for j in range(pivot, n) if work[j][i] != 0]
        if nz:
            j = nz[0]
            work[pivot], work[j] = work[j], work[pivot]
            trans[pivot], trans[j] = trans[j], trans[pivot]
            pivot += 1
    basis = [trans[j] for j in range(pivot, n)]
    for vec in basis:
        for row in mat:
            if sum(a * b for a, b in zip(row, vec)) != 0:
                raise RuntimeError("kernel verification failed")
    return basis


def sharpness_parity(w: WalkEvaluator, u: int, subset) -> SedentaryCertificate:
    """Certify that the subset bound 2a - 1 is the exact infimum.

    The infimum of |U(t)_{u,u}| reaches 2a - 1 unless an integer relation
    among the support eigenvalues (with zero coefficient sum) forces the
    subset phases and the complementary phases to stay entangled.  The
    obstruction is a parity condition: the bound is the infimum when every
    such relation has an even coefficient sum over the subset.  Relations
    live in the integer kernel of the rescaled eigenvalue row stacked on the
    all-ones row; checking a lattice basis decides all of them.  The
    rescaled row is the vertex's periodicity coordinates.

    Raises UnsupportedSpectrum when no period gives the support integer
    coordinates, and CertificateRefused when a parity-violating relation
    exists.
    """
    rec = w.spectrum(u)
    s, pos = _support_positions(rec, u, subset)
    a = float(sum(rec.weights[p] for p in pos))
    if a < 0.5 - _HALF_TOL:
        raise CertificateRefused(f"subset mass {a:.9f} is below 1/2")
    ints = rec.periodicity.coordinates
    if ints is None:
        raise UnsupportedSpectrum(
            "no detected period gives the support integer coordinates")
    rows = [list(ints), [1] * len(ints)]
    basis = integer_kernel_basis(rows)
    for vec in basis:
        if sum(vec[p] for p in pos) % 2 != 0:
            raise CertificateRefused(
                f"integer relation {vec} has odd coefficient sum on the subset")
    return SedentaryCertificate(
        SHARPNESS_PARITY, u, max(2.0 * a - 1.0, 0.0), s, a,
        detail="every integer eigenvalue relation keeps even parity on the "
               f"subset ({len(basis)} basis relations checked)")


# -- zero crossings --------------------------------------------------------------


def _bisect(f, a: float, b: float, xtol: float) -> float:
    """A zero of f on [a, b], where f(a) and f(b) have opposite signs, to
    within xtol or to adjacent floats."""
    neg = f(a) < 0.0
    while b - a > xtol:
        m = 0.5 * (a + b)
        if not a < m < b:
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm < 0.0) == neg:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def find_zero_crossing(w: WalkEvaluator, u: int,
                       window: tuple[float, float] | None = None
                       ) -> SedentaryCertificate:
    """Prove the infimum is 0 for a vertex with a phase-aligned real diagonal.

    When the support eigenvalues are symmetric about their midpoint with
    matching weights, U(t)_{u,u} is a real cosine combination times a global
    phase.  A sign change of that real function brackets an exact zero of
    the magnitude, which no window restriction can take away.  With no
    window it scans w.default_window(u).
    """
    lam, wts = w.spectrum(u)[:2]
    if len(lam) < 2:
        raise CertificateRefused("single-eigenvalue support never vanishes")
    center = (float(lam.max()) + float(lam.min())) / 2.0
    mu = lam - center
    order = np.argsort(mu)
    scale = max(w.decomposition.scale(), 1.0)
    if (float(np.max(np.abs(mu[order] + mu[order[::-1]]))) > 1e-9 * scale
            or float(np.max(np.abs(wts[order] - wts[order[::-1]]))) > 1e-9):
        raise CertificateRefused("diagonal entry is not phase-aligned real")

    def f(t: float) -> float:
        return float(np.sum(wts * np.cos(mu * t)))

    if window is None:
        window, _ = w.default_window(u)
    ts, vals = _grid_values(mu, wts[:, None], lambda z: z[:, 0].real, window)
    # both bracket values must clear numerical noise before claiming a zero
    lo, hi = vals[:-1], vals[1:]
    clean = np.flatnonzero((lo * hi < 0.0) & (np.minimum(np.abs(lo), np.abs(hi)) > 1e-9))
    if not clean.size:
        raise CertificateRefused("no sign change found on the window")
    i = int(clean[0])
    t_zero = _bisect(f, float(ts[i]), float(ts[i + 1]), 1e-14)
    mag = abs(complex(np.sum(wts * np.exp(1j * t_zero * lam))))
    return SedentaryCertificate(
        NOT_SEDENTARY_ZERO_CROSSING, u, 0.0, (), None, (t_zero,),
        detail=f"real diagonal changes sign on "
               f"[{ts[i]:.9f}, {ts[i + 1]:.9f}]; |U| there is {mag:.3e}")


# -- closed-form family catalogue -------------------------------------------------


@dataclass(frozen=True)
class FamilyRuling:
    """Exact constants a closed-form result assigns to one vertex role."""

    classification: str
    bound: float
    equality_times: tuple[float, ...] = ()
    detail: str = ""


def _nu2(b: int) -> int:
    if b <= 0:
        raise ValueError("nu2 needs a positive integer")
    return (b & -b).bit_length() - 1


def _is_square(b: int) -> bool:
    if b < 0:
        return False
    r = math.isqrt(b)
    return r * r == b


def _complete_ruling(n: int) -> FamilyRuling:
    if n == 1:
        return FamilyRuling(TIGHTLY_SEDENTARY, 1.0, (),
                            "single vertex; the diagonal stays at modulus 1")
    if n == 2:
        return FamilyRuling(NOT_SEDENTARY, 0.0, (math.pi / 2.0,),
                            "an edge swaps its endpoints at odd quarter periods")
    return FamilyRuling(
        TIGHTLY_SEDENTARY, 1.0 - 2.0 / n, (math.pi / n,),
        f"complete graph on {n} vertices: minimum 1 - 2/{n} at odd multiples "
        f"of pi/{n}")


def _box_of_completes_ruling(sizes: Sequence[int]) -> FamilyRuling:
    sizes = [int(s) for s in sizes if int(s) > 1]
    if not sizes:
        return FamilyRuling(TIGHTLY_SEDENTARY, 1.0, (), "trivial product")
    if any(s == 2 for s in sizes):
        return FamilyRuling(NOT_SEDENTARY, 0.0, (math.pi / 2.0,),
                            "a two-vertex factor zeroes the diagonal")
    bound = 1.0
    for s in sizes:
        bound *= 1.0 - 2.0 / s
    detail = "box product of complete graphs " + "x".join(str(s) for s in sizes)
    if len({_nu2(s) for s in sizes}) == 1:
        g = 0
        for s in sizes:
            g = math.gcd(g, s)
        return FamilyRuling(TIGHTLY_SEDENTARY, bound, (math.pi / g,),
                            detail + f"; factors align at odd multiples of pi/{g}")
    return FamilyRuling(SEDENTARY_AT_LEAST, bound, (),
                        detail + "; factor minima never align (mixed dyadic "
                                 "valuations), the true minimum is larger")


def _star_leaf_adjacency_ruling(leaves: int) -> FamilyRuling:
    if leaves <= 2:
        t = math.pi / 2.0 if leaves == 1 else math.pi / math.sqrt(2.0)
        return FamilyRuling(NOT_SEDENTARY, 0.0, (t,),
                            "short star: the leaf diagonal vanishes")
    t = math.pi / math.sqrt(leaves)
    return FamilyRuling(TIGHTLY_SEDENTARY, 1.0 - 2.0 / leaves, (t,),
                        f"star leaf: minimum 1 - 2/{leaves} at odd multiples "
                        f"of pi/sqrt({leaves})")


def _clique_join_laplacian_ruling(total: int) -> FamilyRuling:
    # vertex adjacent to everything with unit weight, graph simple
    if total == 2:
        return FamilyRuling(NOT_SEDENTARY, 0.0, (math.pi / 2.0,), "edge")
    return FamilyRuling(
        TIGHTLY_SEDENTARY, 1.0 - 2.0 / total, (math.pi / total,),
        f"dominating unit vertex among {total}: minimum 1 - 2/{total} at odd "
        f"multiples of pi/{total}")


def _indep_block_laplacian_ruling(m: int, nx: int) -> FamilyRuling:
    # m mutually non-adjacent vertices, each unit-adjacent to all nx others
    if m == 2:
        if nx == 1:
            return FamilyRuling(TIGHTLY_SEDENTARY, 1.0 / 3.0, (math.pi,),
                                "non-adjacent pair over one vertex")
        if nx % 4 == 2:
            return FamilyRuling(NOT_SEDENTARY, 0.0, (math.pi / 2.0,),
                                "non-adjacent pair swaps perfectly at odd "
                                "multiples of pi/2")
        if nx % 4 == 0:
            return FamilyRuling(TIGHTLY_SEDENTARY, 2.0 / (nx + 2), (math.pi / 2.0,),
                                f"non-adjacent pair over {nx} vertices: minimum "
                                f"2/{nx + 2} at odd multiples of pi/2")
        return FamilyRuling(TIGHTLY_SEDENTARY, math.sqrt(2.0) / (nx + 2),
                            (math.pi / 2.0,),
                            f"non-adjacent pair over {nx} vertices: minimum "
                            f"sqrt(2)/{nx + 2} at odd multiples of pi/2")
    bound = 1.0 - 2.0 / m
    if nx > 0 and _nu2(m) == _nu2(nx):
        g = math.gcd(m, nx)
        return FamilyRuling(TIGHTLY_SEDENTARY, bound, (math.pi / g,),
                            f"independent {m}-block over {nx} vertices attains "
                            f"1 - 2/{m} at odd multiples of pi/{g}")
    return FamilyRuling(SEDENTARY_AT_LEAST, bound, (),
                        f"independent {m}-block over {nx} vertices; dyadic "
                        "valuations differ so the minimum sits higher")


def _indep_pair_adjacency_ruling(d: int, nx: int) -> FamilyRuling:
    # non-adjacent apex pair over an unweighted d-regular graph on nx vertices
    if d == 0:
        # U(t)_uu = (1 + cos(sqrt(2 nx) t)) / 2
        return FamilyRuling(NOT_SEDENTARY, 0.0,
                            (math.pi / math.sqrt(2.0 * nx),),
                            "apex pair over an empty base swaps perfectly")
    r2 = d * d + 8 * nx
    if not _is_square(r2):
        return FamilyRuling(NOT_SEDENTARY, 0.0, (),
                            "apex transfer gets arbitrarily close to perfect; "
                            "the diagonal infimum is 0 without attainment")
    r = math.isqrt(r2)
    s = (r - d) // 2
    if _nu2(d + s) == _nu2(s):
        return FamilyRuling(NOT_SEDENTARY, 0.0, (),
                            "apex pair admits perfect transfer")
    g = math.gcd(d, s)
    d1, s1 = d // g, s // g
    if s1 == 1:
        bound = 1.0 / (d1 + 2)
    else:
        bound = math.sqrt(2.0) / (d1 + 2 * s1)
    return FamilyRuling(TIGHTLY_SEDENTARY, bound, (math.pi / g,),
                        f"apex pair over a {d}-regular base on {nx} vertices: "
                        f"minimum attained at odd multiples of pi/{g}")


def _cone_apex_adjacency_ruling(d: float, nx: int) -> FamilyRuling:
    # apex over a weighted d-regular base on nx vertices; two-point support
    if d == 0.0:
        return FamilyRuling(NOT_SEDENTARY, 0.0,
                            (math.pi / (2.0 * math.sqrt(nx)),),
                            "apex over an empty base oscillates through 0")
    disc = math.sqrt(d * d + 4.0 * nx)
    return FamilyRuling(TIGHTLY_SEDENTARY, d / disc, (math.pi / disc,),
                        f"apex over a {d:g}-regular base on {nx} vertices: "
                        "two-point support with minimum d/sqrt(d^2+4n)")


def _double_star_leaf_ruling(side: int, other: int) -> FamilyRuling:
    # a leaf on a side of side >= 2 leaves, the other center holding other
    if side == 2:
        if other == 2:
            return FamilyRuling(TIGHTLY_SEDENTARY, 0.25, (2.0 * math.pi / 3.0,),
                                "balanced double star with two leaves per side: "
                                "leaf minimum 1/4, first attained at 2pi/3")
        return FamilyRuling(NOT_SEDENTARY, 0.0, (),
                            "unbalanced two-leaf side: transfer to the twin "
                            "leaf gets arbitrarily good, infimum 0 unattained")
    bound = 1.0 - 2.0 / side
    disc = (side + other + 1) ** 2 - 4 * side * other
    if not _is_square(disc) or not _is_square(side * other):
        return FamilyRuling(SHARPLY_SEDENTARY, bound, (),
                            f"leaf side of {side}: nonzero eigenvalues are "
                            "rationally independent, so the twin bound is the "
                            "exact infimum, approached but never attained")
    return FamilyRuling(SEDENTARY_AT_LEAST, bound, (),
                        f"leaf side of {side}: commensurable spectrum keeps "
                        "the minimum above the twin bound; the certified "
                        "window decides")


def _unit_neighbors(graph: WeightedGraph, u: int) -> np.ndarray | None:
    """The neighbours of u, read from the graph's adjacency record, when u
    has no loop and every edge at u has weight 1; else None."""
    rec = graph._incidence
    if not rec.unit(u):
        return None
    return rec.neighbors[rec.start[u]:rec.start[u + 1]]


def _is_dominating_unit(graph: WeightedGraph, u: int) -> bool:
    """u has no loop, and an edge of weight 1 to every other vertex; read
    from the adjacency record's counts, without its neighbour lists."""
    rec = graph._incidence
    return rec.unit(u) and rec.start[u + 1] - rec.start[u] == graph.n - 1


def _unit_joined_block(graph: WeightedGraph, u: int) -> int | None:
    """Size of the independent twin block through u whose members are
    unit-adjacent to every vertex outside the block, or None."""
    ts = _twin_map(graph).get(u)
    if ts is None or ts.eta != 0.0 or ts.omega != 0.0:
        return None
    nb = _unit_neighbors(graph, u)
    if nb is not None and set(nb.tolist()) == set(range(graph.n)) - set(ts.vertices):
        return ts.size
    return None


def _role(graph: WeightedGraph, u: int) -> str:
    """The part of u's label before ":" in a graph of family provenance,
    which family_ruling reads; "" elsewhere."""
    if not isinstance(graph.provenance, FamilySpec) or graph.labels is None:
        return ""
    return graph.labels[u].partition(":")[0]


def family_ruling(graph: WeightedGraph, kind: MatrixKind, u: int) -> FamilyRuling | None:
    """Exact constants the closed-form catalogue assigns to vertex u, or None.

    Joins are ruled by the graph's structure alone, so a family graph and
    the same edges without provenance get the same ruling.  In a simple
    positively weighted graph, a vertex unit-adjacent to every other one
    (a star center, a cone or connected double-cone apex) and an
    independent twin block unit-joined to the rest (star leaves, the apexes
    of a disconnected double cone) carry closed forms under the Laplacian;
    under the adjacency matrix the first needs a regular remainder and the
    second a block of two over an unweighted regular remainder.

    The family provenance rules only what structure cannot see: complete
    graphs, rook and Hamming lattices under every degree-shifted kind (those
    agree with the adjacency diagonal up to a phase), star leaves under the
    adjacency matrix, and double stars.  The twin blocks are read from the
    kind-free twin map kept on the graph (_twin_map).

    The structure is read from what the graph object keeps: its edge flags
    (is_simple, is_positively_weighted) and its adjacency record
    (graph._incidence: each vertex's edge count, degree, and loop and
    non-unit flags, and its neighbours once a ruling needs them), each made
    by one pass over the edge columns.  A remainder's degrees are the
    record's less the unit edges to the apexes, so no subgraph is built.
    """
    spec = graph.provenance
    if isinstance(spec, FamilySpec):
        p = spec.params
        role = _role(graph, u)
        if kind.is_degree_shifted and spec.kind == "complete":
            return _complete_ruling(p[0])
        if kind.is_degree_shifted and spec.kind in ("rook", "hamming"):
            return _box_of_completes_ruling(p if spec.kind == "rook" else [p[1]] * p[0])
        if kind.name == "adjacency" and spec.kind == "star" and role == "leaf":
            return _star_leaf_adjacency_ruling(p[0])
        if kind.name == "adjacency" and spec.kind == "doublestar":
            side, other = p if role == "leafu" else p[::-1]
            if role in ("leafu", "leafv") and side > 1:
                return _double_star_leaf_ruling(side, other)
            if role == "internal" and side == other:
                return FamilyRuling(NOT_SEDENTARY, 0.0, (),
                                    "balanced internal vertex: the real diagonal "
                                    "changes sign")

    if (kind.name not in ("adjacency", "laplacian") or graph.n < 2
            or not (graph.is_simple and graph.is_positively_weighted)):
        return None
    laplacian = kind.name == "laplacian"
    rec = graph._incidence
    if _is_dominating_unit(graph, u):
        if laplacian:
            return _clique_join_laplacian_ruling(graph.n)
        # the remainder's degrees lose u's unit edge
        d = _common_value(np.delete(rec.degrees, u) - 1.0)
        return None if d is None else _cone_apex_adjacency_ruling(d, graph.n - 1)
    block = _unit_joined_block(graph, u)
    if block is None or block == graph.n:
        return None
    if laplacian:
        return _indep_block_laplacian_ruling(block, graph.n - block)
    if block == 2:
        # the block check proved u's neighbours are the base, unit-joined to
        # the pair; so the base is unweighted when no base vertex is non-unit
        base = _unit_neighbors(graph, u)
        d = _common_value(rec.degrees[base] - 2.0)
        if d is not None and not rec.non_unit[base].any():
            return _indep_pair_adjacency_ruling(int(round(d)), len(base))
    return None


# -- box products -----------------------------------------------------------------


def _merge_odd_lattices(t1: float, t2: float) -> float | None:
    """Base of the intersection of {odd multiples of t1} and {odd multiples
    of t2}, or None when the ratio is not a quotient of odd integers.  The
    ratio is matched within 1e-7: oracle argmins resolve a flat minimum only
    to about 1e-8, and product_compose checks the merged time."""
    if t1 <= 0.0 or t2 <= 0.0:
        return None
    ratio = t1 / t2
    frac = Fraction(ratio).limit_denominator(10**6)
    if frac.numerator <= 0 or abs(ratio - float(frac)) > 1e-7 * ratio:
        return None
    if frac.numerator % 2 == 0 or frac.denominator % 2 == 0:
        return None
    return frac.denominator * t1


def _tight_time(report: SedentaryReport) -> float | None:
    if report.classification != TIGHTLY_SEDENTARY or report.bound is None:
        return None
    for c in report.certificates:
        if c.equality_times and abs(c.bound - report.bound) <= 1e-9:
            return c.equality_times[0]
    if report.oracle is not None and report.oracle.certified_window:
        return report.oracle.argmin
    return None


def product_compose(reports: Sequence[SedentaryReport], kind: MatrixKind,
                    evaluators: Sequence[WalkEvaluator] | None = None
                    ) -> SedentaryCertificate:
    """Combine factor bounds across a box product.

    For degree-shifted kinds the product diagonal factors entrywise, so
    per-factor lower bounds multiply.  Factors that are not sedentary (a
    two-vertex factor, say) poison the product, and composing them into a
    positive bound is refused.  When every factor is tight and a common
    attainment time exists (their odd equality lattices intersect, verified
    numerically, to _PHASE_TOL, when evaluators are given), the product
    bound is attained.
    """
    if not kind.is_degree_shifted:
        raise CertificateRefused(
            "the product rule needs a degree-shifted matrix kind")
    if not reports:
        raise CertificateRefused("no factors given")
    for r in reports:
        if r.classification == NOT_SEDENTARY:
            raise CertificateRefused(
                f"factor {r.graph} is not sedentary; the product is not either")
        if r.bound is None or r.bound <= 0.0:
            raise CertificateRefused(
                f"factor {r.graph} contributes no positive bound")
    bound = math.prod(r.bound for r in reports)
    analytic = all(
        any(c.analytic and abs(c.bound - r.bound) <= 1e-9 for c in r.certificates)
        for r in reports)
    times: tuple[float, ...] = ()
    if all(r.classification == TIGHTLY_SEDENTARY for r in reports):
        base = _tight_time(reports[0])
        for r in reports[1:]:
            t = _tight_time(r)
            base = _merge_odd_lattices(base, t) if (base and t) else None
            if base is None:
                break
        if base is not None and evaluators is not None:
            ok = all(
                abs(abs(ev.transition_entry(base, r.vertex, r.vertex)) - r.bound)
                <= _PHASE_TOL
                for ev, r in zip(evaluators, reports))
            if ok:
                times = (float(base),)
    detail = " * ".join(f"{r.bound:.9f} [{r.graph}]" for r in reports)
    return SedentaryCertificate(
        PRODUCT_COMPOSITION, -1, bound, (), None, times, analytic,
        detail=f"product of factor bounds: {detail}")


# -- classification pipeline ------------------------------------------------------


def _verified_ruling(ruling: FamilyRuling, w: WalkEvaluator, u: int) -> FamilyRuling:
    """Cross-check a catalogue claim against the walk before trusting it.

    A stated equality time must reproduce the stated bound; a tight claim
    whose time fails the check is downgraded rather than propagated.
    """
    if not ruling.equality_times:
        return ruling
    t = ruling.equality_times[0]
    value = abs(w.transition_entry(t, u, u))
    target = ruling.bound if ruling.classification != NOT_SEDENTARY else 0.0
    if abs(value - target) <= RECONCILE_TOL:
        return ruling
    if ruling.classification == NOT_SEDENTARY:
        return replace(ruling, equality_times=(),
                       detail=ruling.detail + " (stated time failed verification)")
    return FamilyRuling(SEDENTARY_AT_LEAST, ruling.bound, (),
                        ruling.detail + " (stated attainment failed verification)")


def _singleton_candidates(rec: VertexSpectrum,
                          twin_cert: SedentaryCertificate | None
                          ) -> list[tuple[int, ...]]:
    if not rec.indices:
        return []
    best = max(range(len(rec.indices)), key=lambda p: (rec.weights[p], -p))
    cands = [(rec.indices[best],)]
    if twin_cert is not None and twin_cert.subset:
        tw = (twin_cert.subset[0],)
        if tw not in cands:
            cands.append(tw)
    return cands


def _annotated(g: WeightedGraph) -> tuple:
    """What classification reads of g: its edges, labels, provenance and
    description, with the graphs inside the provenance keyed the same way."""
    prov = g.provenance
    if isinstance(prov, tuple):
        prov = tuple(_annotated(a) if isinstance(a, WeightedGraph) else a for a in prov)
    return g, g.labels, prov, describe_graph(g)


@dataclass(frozen=True)
class _GraphSpectra:
    """What classification reads of one (graph object, kind): the walk
    evaluator over the decomposition of the assembled matrix, with its
    vertex records, the twin eigenvector check's verdict per twin class
    under this kind (twin_verdicts, keyed by the class's vertices; twin_bound
    adds them), and the report of each vertex classified as a Cartesian
    factor's vertex (reports, read and filled by the factor contexts of
    _Context.factors).  The twin classes themselves are kind-free and kept
    once per graph (_twin_map).  A record, a verdict and a report at default
    options depend only on (graph, kind, vertex or class), never on the
    options or the calls that asked first; none of them refers to the
    graph."""

    walk: WalkEvaluator
    twin_verdicts: dict[tuple[int, ...], bool]
    reports: dict[int, SedentaryReport]


def _graph_spectra(graph: WeightedGraph, kind: MatrixKind) -> _GraphSpectra:
    """The spectral data of (graph, kind), computed on the first call for
    this graph object and kind and kept on the graph (graph._spectra) for
    as long as the graph lives: two n x n float arrays per kind (the
    eigenvectors and the matrix), one vertex record per vertex classified
    or asked about (k support eigenvalues, weights and root offers), the
    twin classes' eigenvector verdicts, and one report per vertex reached
    as a factor vertex of a product."""
    memo = graph._spectra
    s = memo.get(kind)
    if s is None:
        walk = WalkEvaluator(decompose(assemble(graph, kind)))
        s = memo[kind] = _GraphSpectra(walk, {}, {})
    return s


class _Context:
    """What classification reads about one (graph, kind) under one set of
    options.  The walk evaluator with its decomposition and vertex records
    is read from _graph_spectra, and the twin classes from the kind-free
    map kept once per graph (_twin_map), so they are computed once per
    graph object (and kind) and shared by every later call on that graph;
    the options never enter them.  Each vertex's report is made once it is
    asked for (report): per call under the caller's options, and in the
    map kept on the graph (_GraphSpectra.reports) for a factor's context.  A factor's context
    (options None) takes the default options, under which a report depends
    only on (graph, kind, vertex), so every later product vertex over that
    factor graph reads the one kept report.  For a Cartesian product the
    factors' contexts are made per call when first asked (one context when
    both factors are the same graph).

    report classifies one vertex per twin class and label role, the
    representative: the least vertex of the class with the role
    family_ruling reads.  Swapping two twins u and v is a weighted
    automorphism under every matrix kind, so U(t)_uu = U(t)_vv, and when u
    and v also share the label role, v's report is u's under the
    transposition (u v): its vertex, its oracle's vertex and every
    certificate's vertex become v, and the twin bound is rebuilt by
    twin_bound for v, with v's own detail and mass.  So a report depends
    only on (graph, kind, vertex), not on which vertices were asked for
    or in which order.  A report whose certificate names another vertex
    (perfect transfer) is not carried over; v is then classified in
    full."""

    def __init__(self, graph: WeightedGraph, kind: MatrixKind,
                 options: ClassifyOptions | None = None):
        self.graph, self.kind = graph, kind
        self.options = options or ClassifyOptions()
        spectra = _graph_spectra(graph, kind)
        self.walk = spectra.walk
        self._reports = spectra.reports if options is None else {}

    @cached_property
    def factors(self) -> tuple[_Context, _Context]:
        gx, gy = self.graph.provenance[1:3]
        cx = _Context(gx, self.kind)
        if _annotated(gy) == _annotated(gx):
            return cx, cx
        return cx, _Context(gy, self.kind)

    def _representative(self, v: int) -> int:
        """The least twin of v with v's label role (v without a twin).  v's
        class is looked up in the graph's kept twin map (_twin_map)."""
        ts = _twin_map(self.graph).get(v)
        if ts is None:
            return v
        role = _role(self.graph, v)
        return next(u for u in ts.vertices if _role(self.graph, u) == role)

    def prepare(self, vertices: Sequence[int]) -> None:
        """Before the first report: compute, in one walk.spectra call, the
        records of the representatives of vertices, the vertices report
        classifies.  Those of one support index set then share one
        periodicity fit and one root solve."""
        self.walk.spectra(list(dict.fromkeys(self._representative(v) for v in vertices)))

    def report(self, v: int) -> SedentaryReport:
        """v's report, made once per vertex: its representative's carried
        over to v where it can be, else v's own classification."""
        r = self._reports.get(v)
        if r is None:
            u = self._representative(v)
            r = self.report(u) if u != v else None
            if r is None or any(c.kind == NOT_SEDENTARY_PST for c in r.certificates):
                r = _classify_vertex(self, v)
            else:
                certs = tuple(twin_bound(self.graph, v, self.kind) if c.kind == TWIN_BOUND
                              else replace(c, vertex=v) for c in r.certificates)
                r = replace(r, vertex=v, certificates=certs,
                            oracle=replace(r.oracle, vertex=v))
            self._reports[v] = r
        return r


def classify(graph: WeightedGraph, u: int, kind: MatrixKind = ADJACENCY,
             options: ClassifyOptions | None = None) -> SedentaryReport:
    """Classify one vertex: gather certificates, run the oracle, reconcile.

    The pipeline order is fixed so reports are deterministic: attained zero
    on a certified window, twin bound, subset bounds, the closed-form
    catalogue (family_ruling: join structure, or the family provenance where
    structure cannot tell), box-product composition, then reconciliation of
    the best certified bound against the oracle minimum.

    The assembled matrix, its eigendecomposition, the vertex records and
    the twin classes' eigenvector checks are computed once per graph
    object and kind, and the twin classes once per graph object for every
    kind (_twin_map), for graph and for each Cartesian factor, and kept on
    the graph: a later classify of any vertex of the same graph object
    reads them, whatever its options.  The graph then holds, per kind it
    was classified under and for as long as it lives, two n x n float
    arrays and one record per vertex classified or reached through a
    product (k support eigenvalues, weights and root offers).  A factor
    graph also keeps the report of each of its vertices a product vertex
    reached (default options), so each factor vertex is classified once
    per factor graph object and kind.  The report of u itself is made per
    call.
    """
    return classify_vertices(graph, [u], kind, options)[0]


def classify_vertices(graph: WeightedGraph, vertices: Sequence[int],
                      kind: MatrixKind = ADJACENCY,
                      options: ClassifyOptions | None = None) -> list[SedentaryReport]:
    """classify for each vertex in turn.  Like classify, it reads the one
    eigendecomposition and vertex records of (graph, kind), the one
    twin-class search of graph, and those of each Cartesian factor, that
    are kept on the graph object (computed by the first call that needs
    them).
    The reports of the requested vertices are made once per call; a
    factor vertex's report is read from its factor graph, where the first
    product vertex that needed it kept it.

    Only the least vertex of each twin class and label role is classified,
    whichever of its twins are requested.  Every other member's report is
    that report under the swap of the two twins: vertex, oracle vertex and
    certificate vertices rewritten, the twin bound rebuilt for the member.
    Where the least twin's report proves perfect transfer, the member is
    classified in full.  So each report is the one classify gives its
    vertex alone, bit for bit.

    The vertices to classify are grouped by support index set before the
    first report (_Context.prepare, WalkEvaluator.spectra).  A group has
    one set of support eigenvalues, so it takes one periodicity fit and,
    on a certified window, one root solve of the oracle over all its
    members, both in spectra.  Each member keeps its own weights, its
    own |U(rho)_{u,u}| = 1 check, its own root offers (its fallback to the
    scan when its own clusters are ambiguous) and its own certificates, and
    each record and oracle result holds the bits the vertex gets in a
    group of its own, so the grouping changes no report."""
    for u in vertices:
        if not 0 <= u < graph.n:
            raise CertificateRefused(f"vertex {u} out of range")
    ctx = _Context(graph, kind, options or ClassifyOptions())
    ctx.prepare(vertices)
    return [ctx.report(u) for u in vertices]


def _classify_vertex(ctx: _Context, u: int) -> SedentaryReport:
    window, certified = ((ctx.options.window, False) if ctx.options.window is not None
                         else ctx.walk.default_window(u))
    # the oracle certifies only the window it chooses itself
    oracle = ctx.walk.minimize_diagonal(u, None if certified else window)
    certs: list[SedentaryCertificate] = []
    label, bound = _certify(ctx, u, oracle, certs)
    return SedentaryReport(describe_graph(ctx.graph), str(ctx.kind), u, label,
                           bound, tuple(certs), oracle)


def _certify(ctx: _Context, u: int, oracle: MinimizationResult,
             certs: list[SedentaryCertificate]) -> tuple[str, float | None]:
    """Label and bound of u, appending the certificates behind them.

    The closed-form catalogue is one lookup, family_ruling, and its ruling
    is trusted only after _verified_ruling checks its stated time against
    the walk.  A not-sedentary ruling settles the label; a tight or sharp
    one decides it when the oracle window is not certified.
    """
    graph, kind, w = ctx.graph, ctx.kind, ctx.walk

    # attained zero on a certified window settles the question immediately
    if oracle.certified_window and oracle.minimum <= ZERO_TOL:
        pst = w.find_perfect_state_transfer(u, oracle.window)
        if pst is not None:
            certs.append(SedentaryCertificate(
                NOT_SEDENTARY_PST, u, 0.0, (), None, (pst.time,),
                detail=f"perfect transfer to vertex {pst.target}, magnitude "
                       f"{pst.magnitude:.12f}"))
        else:
            certs.append(SedentaryCertificate(
                NOT_SEDENTARY_ZERO_CROSSING, u, 0.0, (), None, (oracle.argmin,),
                detail="certified-window minimum vanishes"))
        return NOT_SEDENTARY, 0.0

    twin_cert = None
    try:
        twin_cert = twin_bound(graph, u, kind)
        certs.append(twin_cert)
    except CertificateRefused:
        pass

    for s in _singleton_candidates(w.spectrum(u), twin_cert):
        try:
            certs.append(subset_bound(w, u, s))
        except CertificateRefused:
            pass

    ruling = family_ruling(graph, kind, u)
    if ruling is not None:
        ruling = _verified_ruling(ruling, w, u)
        certs.append(SedentaryCertificate(
            CLOSED_FORM_FAMILY, u,
            ruling.bound if ruling.classification != NOT_SEDENTARY else 0.0,
            (), None, ruling.equality_times, detail=ruling.detail))
        if ruling.classification == NOT_SEDENTARY:
            if not ruling.equality_times:
                try:
                    certs.append(find_zero_crossing(w, u, oracle.window))
                except CertificateRefused:
                    pass
            return NOT_SEDENTARY, 0.0

    prov = graph.provenance
    if (isinstance(prov, tuple) and prov and prov[0] == "cartesian"
            and kind.is_degree_shifted):
        cx, cy = ctx.factors
        ux, uy = divmod(u, cy.graph.n)
        rx, ry = cx.report(ux), cy.report(uy)
        if NOT_SEDENTARY in (rx.classification, ry.classification):
            bad = rx if rx.classification == NOT_SEDENTARY else ry
            t0 = next(
                (t for c in bad.certificates for t in c.equality_times), None)
            certs.append(SedentaryCertificate(
                PRODUCT_COMPOSITION, u, 0.0, (), None,
                (t0,) if t0 is not None else (),
                detail=f"factor {bad.graph} has vanishing diagonal infimum"))
            return NOT_SEDENTARY, 0.0
        try:
            certs.append(replace(
                product_compose([rx, ry], kind, [cx.walk, cy.walk]), vertex=u))
        except CertificateRefused:
            pass

    return _reconcile(w, u, oracle, certs, ruling)


def _reconcile(w: WalkEvaluator, u: int, oracle: MinimizationResult,
               certs: list[SedentaryCertificate],
               ruling: FamilyRuling | None) -> tuple[str, float | None]:
    best = None
    for c in certs:
        # bounds inside ZERO_TOL are numerically zero (half-weight subsets
        # land at 2a-1 = O(ulp)) and must not drive a sedentary label
        if (c.certified and c.bound > ZERO_TOL
                and (best is None or c.bound > best.bound + 1e-12)):
            best = c
    best_bound = best.bound if best is not None else 0.0

    if oracle.certified_window:
        m = oracle.minimum
        # a certified window plus a positive minimum means the infimum is
        # attained inside the window; the only question is its exact value
        if best_bound > m + RECONCILE_TOL:
            best_bound = m
        if best_bound > 0.0 and m - best_bound <= RECONCILE_TOL:
            return TIGHTLY_SEDENTARY, best_bound
        return TIGHTLY_SEDENTARY, m

    if ruling is not None and ruling.classification in (TIGHTLY_SEDENTARY,
                                                        SHARPLY_SEDENTARY):
        return ruling.classification, ruling.bound

    if best_bound > 0.0:
        # try to attain the best singleton bound, then to pin it as an infimum
        for i, c in enumerate(certs):
            if (c.kind == SUBSET_BOUND and c.analytic and len(c.subset) == 1
                    and abs(c.bound - best_bound) <= 1e-12 and c.bound > 0.0):
                t1 = find_equality_time(w, u, c.subset, oracle.window)
                if t1 is not None:
                    certs[i] = replace(c, equality_times=(t1,))
                    return TIGHTLY_SEDENTARY, c.bound
                try:
                    certs.append(sharpness_parity(w, u, c.subset))
                    return SHARPLY_SEDENTARY, c.bound
                except (CertificateRefused, UnsupportedSpectrum):
                    pass
                break
        return SEDENTARY_AT_LEAST, best_bound

    try:
        certs.append(find_zero_crossing(w, u, oracle.window))
    except CertificateRefused:
        return UNRESOLVED, None
    return NOT_SEDENTARY, 0.0
