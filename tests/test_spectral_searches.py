"""The two searches that the spectrum decides before any time scan: the
subset bound's equality time, taken from the phase lattice, against the
scan it replaced; and the perfect-state-transfer search's triangle guard,
against the unguarded search."""

import inspect
import math
from types import SimpleNamespace

import numpy as np
import pytest

from qwsed import sedentary
from qwsed.graphs import WeightedGraph, build_family, cartesian_product, parse_family, star_graph
from qwsed.matrices import ADJACENCY, parse_matrix_kind
from qwsed.sedentary import (NOT_SEDENTARY, NOT_SEDENTARY_ZERO_CROSSING, _PHASE_TOL,
                             _equality_holds, _support_positions, classify,
                             find_equality_time)
from qwsed.spectral import UNDETECTED
from qwsed.walk import (_CHUNK, _PST_TOL, DEFAULT_WINDOW, PerfectStateTransferWitness,
                        VertexSpectrum, WalkError, WalkEvaluator, _neg_peak,
                        _scan_minima)
from test_walk import _defect, _full_scan, _walk

KINDS = ("adjacency", "laplacian", "gen:0.5", "norm-adj", "norm-lap")
SPECS = (
    "complete:4", "complete:5", "path:5", "cycle:6", "star:4", "star:5",
    "multipartite:2,3", "rook:3,3", "hamming:2,3", "lollipop:4,3",
    "barbell:4,1,4", "doublestar:2,2", "doublestar:3,2", "threshold:2,2,2",
    "cone:cycle:5", "doublecone:disconnected:empty:4",
    "doublecone:connected:cycle:4", "xtail:3,3,1", "ytail:3,3,1",
    "multipartite:3,3,3",
)


def _random_graph(rng, weighted):
    n = int(rng.integers(4, 9))
    pairs = list(zip(*np.nonzero(np.triu(rng.random((n, n)) < 0.5, k=1))))
    wts = rng.integers(1, 4, len(pairs)) if weighted else np.ones(len(pairs))
    return WeightedGraph(n, tuple((int(a), int(b), float(x)) for (a, b), x in zip(pairs, wts)))


# -- equality times from the phase lattice -------------------------------------


def _scan_equality_time(w, u, subset, window):
    """find_equality_time as it stood when it scanned the alignment defect,
    verbatim but for its scan: the pruned scan found the minima of a scan of
    every grid point, which stands in for it here (_full_scan), and that
    reads the defect's value and terms only (_defect)."""
    _scan_minima, _alignment_defect = _full_scan, _defect
    rec = w.spectrum(u)
    _, pos = _support_positions(rec, u, subset)
    lam = rec.eigenvalues
    sign = np.full(len(lam), -1.0)
    sign[pos] = 1.0
    deltas = lam - lam[pos[0]]
    k = len(lam)
    scan = _scan_minima(deltas, sign[:, None], _alignment_defect(k), window, 1e-12,
                        ceiling=k * _PHASE_TOL * _PHASE_TOL)
    for t in scan.x:
        if _equality_holds(rec, pos, float(t)):
            return float(t)
    return None


def _equality_cases():
    """(evaluator, vertex, singleton subset, window): every singleton of
    mass at least 1/2 of every vertex of the golden specs and of 30 random
    graphs under the five kinds, on the vertex's certified window, when it
    has one, and on [0, 20 pi], a tenth of the open window, which keeps the
    reference's scan of every grid point short."""
    rng = np.random.default_rng(19)
    graphs = [build_family(parse_family(s)) for s in SPECS]
    graphs += [_random_graph(rng, i % 3 == 0) for i in range(30)]
    for g in graphs:
        for kind in KINDS:
            w = WalkEvaluator.for_graph(g, parse_matrix_kind(kind))
            for u in range(g.n):
                lam, wts, indices, _ = w.spectrum(u)[:4]
                window, certified = w.default_window(u)
                windows = [window] if certified else []
                for i, j in enumerate(indices):
                    if len(lam) > 1 and wts[i] >= 0.5 - 1e-9:
                        for window in windows + [(0.0, DEFAULT_WINDOW / 10.0)]:
                            yield w, u, (j,), window


def test_lattice_equality_time_matches_the_scan():
    calls = found = 0
    for w, u, subset, window in _equality_cases():
        new = find_equality_time(w, u, subset, window)
        old = _scan_equality_time(w, u, subset, window)
        assert (new is None) == (old is None), (u, subset, window)
        if new is not None:
            assert abs(new - old) <= 1e-12
            found += 1
        calls += 1
    assert calls > 1000 and found > 300


def _aligned(eta):
    """A vertex record with support {0, 1, 1 + eta} and weights 0.8, 0.1,
    0.1, behind the one method find_equality_time reads.  The subset {0}
    attains its bound near pi, where e^{it} and e^{i (1 + eta) t} sit about
    eta pi / 2 on either side of -1; the lattice point pi / (1 + eta) of
    the fastest phase lies about eta pi from -1 for the other."""
    rec = VertexSpectrum(np.array([0.0, 1.0, 1.0 + eta]), np.array([0.8, 0.1, 0.1]),
                         (0, 1, 2), UNDETECTED)
    return SimpleNamespace(spectrum=lambda u: rec)


def test_a_lattice_too_long_to_count_raises_walk_error():
    # the last lattice point's index overflows a float
    with pytest.raises(WalkError, match="too long"):
        find_equality_time(_aligned(0.01), 0, (0,), (0.0, 1.79e308))


def test_a_window_starting_too_far_out_raises_walk_error():
    # the first lattice index is past 2^53, or the window start overflows
    for window in ((1e20, 1e20 + 1.0), (1e308, 1.7e308), (-1.7e308, 1.0)):
        with pytest.raises(WalkError, match="too far out"):
            find_equality_time(_aligned(0.01), 0, (0,), window)


def test_a_long_window_returns_an_early_time():
    """The cap bounds the search, not the window: every case that finds a
    time on [0, 20 pi] finds the same time on [0, 1e12], whose lattice
    holds far more than _MAX_LATTICE points."""
    found = 0
    for w, u, subset, window in _equality_cases():
        if window == (0.0, DEFAULT_WINDOW / 10.0):
            t = find_equality_time(w, u, subset, window)
            if t is not None:
                assert find_equality_time(w, u, subset, (0.0, 1e12)) == t, (u, subset)
                found += 1
    assert found > 200


def test_a_long_window_with_no_early_time_is_refused(monkeypatch):
    # about 1.6e11 lattice points, none of the first _MAX_LATTICE a time
    monkeypatch.setattr(sedentary, "_MAX_LATTICE", 4 * _CHUNK)
    with pytest.raises(WalkError, match="too long"):
        find_equality_time(_aligned(0.01), 0, (0,), (0.0, 1e12))


@pytest.mark.parametrize("points,refused", [(4 * _CHUNK, False), (4 * _CHUNK + 1, True)])
def test_the_lattice_cap_counts_the_points_of_the_window(monkeypatch, points, refused):
    """With the cap at 4 _CHUNK, a window of 4 _CHUNK lattice points and no
    time is searched to its end, and one of a point more is refused.  The
    record's fastest phase runs at 1.01 and is off the subset, so its
    lattice points are (pi + 2 pi m) / 1.01, the first at m = 0."""
    monkeypatch.setattr(sedentary, "_MAX_LATTICE", 4 * _CHUNK)
    t1 = (math.pi + 2.0 * math.pi * (points - 0.5)) / 1.01
    if refused:
        with pytest.raises(WalkError, match="too long"):
            find_equality_time(_aligned(0.01), 0, (0,), (0.0, t1))
    else:
        assert find_equality_time(_aligned(0.01), 0, (0,), (0.0, t1)) is None


def _mutant(old, new):
    """find_equality_time with its source changed from old to new."""
    src = inspect.getsource(sedentary.find_equality_time)
    assert src.count(old) == 1
    namespace = dict(vars(sedentary))
    exec(src.replace(old, new), namespace)
    return namespace["find_equality_time"]


def test_lattice_points_are_tested_at_twice_the_tolerance():
    """An equality time 0.9 tol from its targets can lie 1.8 tol from them
    at the nearest lattice point: the search finds it, as the scan did, and
    a search that tests the lattice points at tol misses it."""
    w = _aligned(1.8 * _PHASE_TOL / math.pi)
    window = (0.0, 4.0)
    t = find_equality_time(w, 0, (0,), window)
    assert t is not None and abs(t - math.pi) <= 1e-7
    assert abs(t - _scan_equality_time(w, 0, (0,), window)) <= 1e-12
    at_tol = _mutant("2.0 * _PHASE_TOL +", "_PHASE_TOL +")
    assert at_tol(w, 0, (0,), window) is None
    # past 2 tol at its best time, no time passes
    assert find_equality_time(_aligned(2.4 * _PHASE_TOL / math.pi), 0, (0,), window) is None


# -- the perfect-state-transfer triangle guard ---------------------------------


def _column_scan(self, u, cols, reducer, window, ceiling):
    """WalkEvaluator._column_scan as it stood before the guard, verbatim."""
    lam = self.decomposition.eigenvalues
    scan = _scan_minima(lam, self._column_data(u)[:, cols], reducer, window, 1e-12,
                        ceiling=ceiling)
    times = np.concatenate(([float(window[0])], scan.x, [float(window[1])]))
    return times[np.concatenate(([scan.ends[0]], scan.fx, [scan.ends[1]])) <= ceiling]


def _unguarded_pst(self, u, window):
    """WalkEvaluator.find_perfect_state_transfer as it stood before the
    guard, verbatim but for the method call to the copy above."""
    others = [v for v in range(self.n) if v != u]
    times = _column_scan(self, u, others, _neg_peak, window, -(1.0 - _PST_TOL) ** 2)
    if not len(times):
        return None
    mags = self.column_magnitude_series(u, times[:1])[0]
    v = others[int(np.argmax(mags[others]))]
    return PerfectStateTransferWitness(u, v, float(times[0]), float(mags[v]))


@pytest.fixture
def column_scans(monkeypatch):
    """Counts the multi-column scans."""
    calls = []
    real = WalkEvaluator._column_scan

    def counted(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(WalkEvaluator, "_column_scan", counted)
    return calls


def test_guard_skips_the_scan_where_no_column_reaches_one(column_scans):
    square = cartesian_product(star_graph(3), star_graph(3))
    w = WalkEvaluator.for_graph(square, ADJACENCY)
    path = _walk("path:3")
    for ev, u in ((w, 0), (path, 1)):
        for window in (ev.default_window(u)[0], (0.0, DEFAULT_WINDOW)):
            assert ev.find_perfect_state_transfer(u, window) is None
            assert _unguarded_pst(ev, u, window) is None
    # the centre of the star square: the certified minimum vanishes, and
    # the transfer search behind it scans nothing
    rep = classify(square, 0, ADJACENCY)
    assert rep.classification == NOT_SEDENTARY
    assert [c.kind for c in rep.certificates] == [NOT_SEDENTARY_ZERO_CROSSING]
    assert not column_scans


@pytest.mark.parametrize("spec,u,target,time", [
    ("complete:2", 0, 1, math.pi / 2.0),
    ("complete:2", 1, 0, math.pi / 2.0),
    ("path:3", 0, 2, math.pi / math.sqrt(2.0)),
    ("path:3", 2, 0, math.pi / math.sqrt(2.0)),
    ("hamming:3,2", 0, 7, math.pi / 2.0),
    ("cycle:4", 0, 2, math.pi / 2.0),
])
def test_guard_passes_transfer_to_the_scan(spec, u, target, time, column_scans):
    w = _walk(spec)
    window = w.default_window(u)[0]
    pst = w.find_perfect_state_transfer(u, window)
    assert len(column_scans) == 1
    assert pst == _unguarded_pst(w, u, window)
    assert pst.target == target and abs(pst.time - time) <= 1e-8


def test_guarded_search_matches_the_unguarded_one():
    """On 100 random graphs, a random vertex of each under every kind, on
    its certified window or else on [0, 20], the guarded search returns
    the unguarded one's witness, or None with it; the guard skips some
    scans and passes others."""
    rng = np.random.default_rng(23)
    skipped = passed = 0
    for i in range(100):
        g = _random_graph(rng, i % 2 == 0)
        u = int(rng.integers(g.n))
        for kind in KINDS:
            w = WalkEvaluator.for_graph(g, parse_matrix_kind(kind))
            window, certified = w.default_window(u)
            window = window if certified else (0.0, 20.0)
            reach = np.abs(w._column_data(u)).sum(axis=0)
            reach[u] = 0.0
            guarded = reach.max() < 1.0 - _PST_TOL - 1e-10
            skipped += guarded
            passed += not guarded
            assert w.find_perfect_state_transfer(u, window) == _unguarded_pst(w, u, window)
    assert skipped > 50 and passed > 50
