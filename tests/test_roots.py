"""The certified-window oracle's root path: every critical point of
|U(t)_uu|^2 over a period from one polynomial's roots, its fallbacks to the
scan, and the per-vertex periodicity cache it reads."""

import collections
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import qwsed.walk as walk
from qwsed.cli import main
from qwsed.graphs import build_family, cartesian_product, parse_family, star_graph
from qwsed.matrices import ADJACENCY, LAPLACIAN, NORMALIZED_ADJACENCY
from qwsed.sedentary import PRODUCT_COMPOSITION, classify, classify_vertices
from qwsed.spectral import decompose
from qwsed.walk import _ROOT_CAP, _TIE_BAND, WalkEvaluator, _sq_at


def _synthetic(q, wts, step, ref=0.0) -> WalkEvaluator:
    """An evaluator whose vertex 0 has support eigenvalues ref + step*q_j
    with weights wts: M = H diag(lam) H for the Householder reflection H
    that maps e_0 to sqrt(wts)."""
    x = np.sqrt(np.asarray(wts, dtype=float) / np.sum(wts))
    v = -x
    v[0] += 1.0
    h = np.eye(len(x))
    if np.dot(v, v) > 0.0:
        h -= 2.0 * np.outer(v, v) / np.dot(v, v)
    lam = ref + step * np.asarray(q, dtype=float)
    m = h @ np.diag(lam) @ h
    return WalkEvaluator(decompose((m + m.T) / 2.0))


def _dense_minimum(lam, wts, window) -> float:
    """Minimum of |sum_j wts_j e^{i lam_j t}| over the window: a 2^16-point
    grid, then a bounded scalar search around every grid-local minimum near
    the grid minimum."""
    ts = np.linspace(window[0], window[1], 1 << 16)
    sq = np.concatenate([_sq_at(lam, wts, ts[i:i + 4096])
                         for i in range(0, len(ts), 4096)])
    best = float(sq.min())
    mid, lo, hi = sq[1:-1], sq[:-2], sq[2:]
    for i in np.flatnonzero((mid <= lo) & (mid <= hi)) + 1:
        if sq[i] <= best + 1e-6:
            r = minimize_scalar(lambda t: float(_sq_at(lam, wts, [t])[0]),
                                bounds=(ts[i - 1], ts[i + 1]), method="bounded",
                                options={"xatol": 1e-12})
            best = min(best, float(r.fun))
    return math.sqrt(max(best, 0.0))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, _ROOT_CAP), min_size=1, max_size=5, unique=True),
       st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
       st.floats(0.3, 3.0), st.floats(-2.0, 2.0))
def test_root_path_matches_dense_reference(qs, raw, step, ref):
    q = [0] + qs
    w = _synthetic(q, raw[:len(q)], step, ref)
    res = w.minimize_diagonal(0)
    assert res.certified_window
    lam, wts = w.spectrum(0)[:2]
    assert abs(res.minimum - _dense_minimum(lam, wts, res.window)) <= 1e-9
    at = float(_sq_at(lam, wts, [res.argmin])[0])
    assert at <= res.minimum ** 2 + _TIE_BAND


def test_flat_minimum_resolves_to_the_window_midpoint():
    # rook:3,12 under norm-adj, vertex 17: |U| is flat to ~1e-14 for 1e-7
    # around the midpoint of the period, where the exact minimiser lies
    g = build_family(parse_family("rook:3,12"))
    res = WalkEvaluator.for_graph(g, NORMALIZED_ADJACENCY).minimize_diagonal(17)
    assert res.certified_window
    assert abs(res.argmin - 13.6135681655558) <= 1e-12
    assert abs(res.argmin - res.window[1] / 2.0) <= 1e-12


def test_star_square_leaf_pair_attained_at_pi_over_root3():
    g = cartesian_product(star_graph(3), star_graph(3))
    u = 1 * 4 + 1  # (leaf, leaf)
    res = WalkEvaluator.for_graph(g, ADJACENCY).minimize_diagonal(u)
    assert abs(res.argmin - math.pi / math.sqrt(3.0)) <= 1e-9
    assert res.minimum == pytest.approx(1.0 / 9.0, abs=1e-12)
    rep = classify(g, u, ADJACENCY)
    times = [t for c in rep.certificates if c.kind == PRODUCT_COMPOSITION
             for t in c.equality_times]
    assert times and abs(times[0] - math.pi / math.sqrt(3.0)) <= 1e-9


@pytest.mark.parametrize("m", [3, 4])
def test_star_square_centre_zero_from_the_cluster_centroid(m):
    # the zero of U(t)_00 at pi/(2 sqrt m) is a double root of the
    # critical-point polynomial; its split roots lie 3e-9 from it
    g = cartesian_product(star_graph(m), star_graph(m))
    res = WalkEvaluator.for_graph(g, ADJACENCY).minimize_diagonal(0)
    assert res.minimum <= 1e-15
    assert abs(res.argmin - math.pi / (2.0 * math.sqrt(m))) <= 1e-12


@pytest.fixture
def scans(monkeypatch):
    """Counts the oracle's grid scans."""
    calls = []
    real = walk._grid_values

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(walk, "_grid_values", counted)
    return calls


def _walk(fam, kind=ADJACENCY):
    return WalkEvaluator.for_graph(build_family(parse_family(fam)), kind)


def test_root_path_scans_nothing(scans):
    res = _walk("complete:5").minimize_diagonal(0)
    assert not scans
    assert res.certified_window and res.grid == 4096
    assert res.minimum == pytest.approx(0.6, abs=1e-12)
    assert res.argmin == pytest.approx(math.pi / 5.0, abs=1e-12)


def test_degree_above_cap_scans(scans):
    w = _synthetic([0, 1, _ROOT_CAP + 1], [0.5, 0.3, 0.2], 0.7)
    res = w.minimize_diagonal(0)
    assert len(scans) == 1 and res.certified_window
    lam, wts = w.spectrum(0)[:2]
    assert abs(res.minimum - _dense_minimum(lam, wts, res.window)) <= 1e-9


def test_open_window_scans(scans):
    res = _walk("complete:5").minimize_diagonal(0, (0.0, 10.0))
    assert len(scans) == 1 and not res.certified_window


def test_ambiguous_centroid_scans(scans, monkeypatch):
    w = _walk("rook:3,4")
    rooted = w.minimize_diagonal(0)
    assert not scans
    # every centroid now counts as off the circle
    monkeypatch.setattr(walk, "_ROOT_EXACT", -1.0)
    scanned = _walk("rook:3,4").minimize_diagonal(0)
    assert len(scans) == 1 and scanned.certified_window
    assert scanned.minimum == pytest.approx(rooted.minimum, abs=1e-12)
    assert scanned.grid == rooted.grid


@pytest.fixture
def periodicity_calls(monkeypatch):
    """Counts spectral.periodicity calls per (decomposition, vertex)."""
    calls = collections.Counter()
    real = walk.periodicity

    def counted(d, u, *args, **kwargs):
        calls[(id(d), u)] += 1
        return real(d, u, *args, **kwargs)

    monkeypatch.setattr(walk, "periodicity", counted)
    return calls


def test_periodicity_once_per_vertex(periodicity_calls, tmp_path):
    out = tmp_path / "out.json"
    assert main(["analyze", "--family", "hamming:2,3", "--vertex", "all",
                 "--out", str(out)]) == 0
    assert len(json.loads(out.read_text(encoding="utf-8"))) == 9
    assert sorted(u for _, u in periodicity_calls) == list(range(9))
    assert set(periodicity_calls.values()) == {1}


def test_periodicity_once_per_factor_vertex(periodicity_calls):
    # both factors are S_3, so they share one context and its 4 vertices
    g = cartesian_product(star_graph(3), star_graph(3))
    classify_vertices(g, range(g.n), LAPLACIAN)
    assert len(periodicity_calls) == g.n + 4
    assert set(periodicity_calls.values()) == {1}
