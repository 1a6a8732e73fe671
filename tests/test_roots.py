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
from qwsed import spectral
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
    # the zero of U(t)_00 at pi/(2 sqrt m) is theta = pi, half the period,
    # where P (Q = 2) has its one root x = -1
    g = cartesian_product(star_graph(m), star_graph(m))
    res = WalkEvaluator.for_graph(g, ADJACENCY).minimize_diagonal(0)
    assert res.minimum <= 1e-15
    assert abs(res.argmin - math.pi / (2.0 * math.sqrt(m))) <= 1e-12


@pytest.fixture
def scans(monkeypatch):
    """Counts the oracle's grid scans."""
    calls = []
    real = walk._scan_minima

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(walk, "_scan_minima", counted)
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


@pytest.mark.parametrize("fam", ["hamming:4,2", "hamming:5,2"])
@pytest.mark.parametrize("u", [0, 3])
def test_cube_laplacian_zero_at_pi_over_2(scans, fam, u):
    """Q_4 and Q_5 under the Laplacian: |U(t)_uu|^2 = cos^(2k) t, so P has
    a root of multiplicity k - 1 at x = -1, which comes back split and
    merges into the exact theta = pi: the zero at pi/2, with no scan.  The
    float spectrum puts the diagonal of Q_5's vertex 3 at 1.28e-15 at pi/2
    (40-digit evaluation), so no report at that argmin reads below it."""
    res = _walk(fam, LAPLACIAN).minimize_diagonal(u)
    assert not scans and res.certified_window
    assert abs(res.argmin - math.pi / 2.0) <= 1e-12
    assert res.minimum <= 2e-15


def test_a_member_below_its_chain_offers_at_its_own_time(monkeypatch):
    """A chain that joined distinct roots, its mean away from the least of
    them, offers at the lower member's own time and value, so the least
    offer is not overstated and its time attains it."""
    q = np.array([0, 2, 3])
    wts = np.array([[0.4, 0.3, 0.3]])
    lam = 0.4 + 1.3 * q
    per = _period(q, 1.3)
    times, sq = walk._root_offers(lam, wts, per)[0]
    inside = np.flatnonzero((times > 0.0) & (times < 0.5 * per.period))
    i = int(inside[sq[inside].argmin()])
    theta = 2.0 * math.pi * times[i] / per.period
    assert 0.0 < theta < math.pi and sq[i] <= sq.min() + 1e-15
    # the chain's mean 0.05 away from the least root, which is its member
    monkeypatch.setattr(walk, "_clusters", lambda roots: [(math.cos(theta + 0.05), [theta])])
    got_times, got = walk._root_offers(lam, wts, per)[0]
    assert got.min() == pytest.approx(sq[i], abs=1e-15)
    assert got_times[int(got.argmin())] == pytest.approx(times[i], abs=1e-12)


@pytest.fixture
def eigvals_calls(monkeypatch):
    """Records the shape of each np.linalg.eigvals argument."""
    calls = []
    real = np.linalg.eigvals

    def counted(a):
        calls.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


@pytest.mark.parametrize("fam, u, degree", [("complete:5", 0, 1), ("star:4", 1, 2)])
def test_low_degree_takes_no_eigenvalue_solve(scans, eigvals_calls, fam, u, degree):
    # Q = 1: P is a constant; Q = 2: its one root is -c_1 / (4 c_2)
    w = _walk(fam)
    per = w.spectrum(u).periodicity
    assert max(per.coordinates) // math.gcd(*per.coordinates) == degree
    res = w.minimize_diagonal(u)
    assert res.certified_window and not scans and not eigvals_calls


@pytest.fixture
def periodicity_calls(monkeypatch):
    """Records each spectral.periodicity call as (decomposition, vertices):
    its members are the supports, made by walk.support, whose weights it
    is given."""
    calls, made = [], {}
    real_support, real = walk.support, walk.periodicity

    def counted_support(d, u):
        sup = real_support(d, u)
        made[id(sup.weights)] = (id(d), sup)
        return sup

    def counted(fit, weights):
        members = [made[id(w)] for w in weights]
        calls.append((members[0][0], tuple(sup.vertex for _, sup in members)))
        return real(fit, weights)

    monkeypatch.setattr(walk, "support", counted_support)
    monkeypatch.setattr(walk, "periodicity", counted)
    return calls


def test_periodicity_once_per_vertex(periodicity_calls, tmp_path):
    # hamming:2,3 is vertex-transitive: its vertices share one support
    # index set, so one call fits them all and checks each one's period
    out = tmp_path / "out.json"
    assert main(["analyze", "--family", "hamming:2,3", "--vertex", "all",
                 "--out", str(out)]) == 0
    assert len(json.loads(out.read_text(encoding="utf-8"))) == 9
    assert [vs for _, vs in periodicity_calls] == [tuple(range(9))]


def test_periodicity_once_per_factor_vertex(periodicity_calls):
    # both factors are S_3, so they share one context, where the centre and
    # one leaf are classified, each when the product first asks, and the
    # twin leaves carry that leaf's report, each with the twin bound read
    # from its support, with no record or period check of its own; the
    # product's 16 vertices fall into three support groups: (centre,
    # centre), a centre and a leaf in either order, and two leaves
    g = cartesian_product(star_graph(3), star_graph(3))
    classify_vertices(g, range(g.n), LAPLACIAN)
    per_decomposition = collections.defaultdict(list)
    for d, vs in periodicity_calls:
        per_decomposition[d].append(vs)
    product, factor = per_decomposition.values()
    assert product == [(0,), (1, 2, 3, 4, 8, 12), (5, 6, 7, 9, 10, 11, 13, 14, 15)]
    assert factor == [(0,), (1,)]


def test_records_hold_their_support_sets_kept_fit():
    # hamming:3,3 under L is one support group: vertices asked for in two
    # spectra calls hold the one fit the first call kept, by identity
    w = WalkEvaluator.for_graph(build_family(parse_family("hamming:3,3")), LAPLACIAN)
    records = w.spectra(range(0, 27, 2)) + w.spectra(range(1, 27, 2))
    fit = w._fits[records[0].indices]
    assert len(w._fits) == 1 and fit.period is not None
    assert all(rec.periodicity is fit for rec in records)
    # G(120, 0.1) has no detected period: its vertex holds the one constant
    rng = np.random.default_rng(1)
    upper = np.triu(rng.random((120, 120)) < 0.1, k=1).astype(float)
    assert WalkEvaluator(decompose(upper + upper.T)).spectrum(0).periodicity is spectral.UNDETECTED


def test_hamming_3_5_one_fit_and_one_eigvals_per_support_group(monkeypatch, tmp_path):
    """Every vertex of K_5^3 has one support index set: analyze --vertex
    all takes one rational fit and one stacked eigvals call of 125
    colleague matrices for its 125 vertices (Q = 3, so of size 2), and no
    scan."""
    calls = collections.defaultdict(list)
    for owner, name in ((spectral, "_rescale_to_integers"), (np.linalg, "eigvals"),
                        (walk, "_scan_minima")):
        def counted(*args, _name=name, _real=getattr(owner, name), **kwargs):
            calls[_name].append(args)
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    out = tmp_path / "out.json"
    assert main(["analyze", "--family", "hamming:3,5", "--vertex", "all",
                 "--out", str(out)]) == 0
    reports = json.loads(out.read_text(encoding="utf-8"))
    assert {r["classification"] for r in reports} == {"tightly-sedentary"}
    assert len(calls["_rescale_to_integers"]) == 1
    assert [a.shape for a, in calls["eigvals"]] == [(125, 2, 2)]
    assert not calls["_scan_minima"]


# -- the root path against its np.roots form -----------------------------------


def _reference_critical_clusters(q: np.ndarray, wts: np.ndarray):
    """_critical_clusters as it stood when it called np.roots and the
    offers took one minimum per member, kept verbatim as the reference for
    its bits."""
    big_q = int(q.max())
    v = np.zeros(big_q + 1)
    v[q] = wts
    c = np.convolve(v, v[::-1])
    roots = np.roots((np.arange(-big_q, big_q + 1) * c)[::-1])
    roots = roots[np.abs(np.abs(roots) - 1.0) < walk._ROOT_BAND]
    ang = np.angle(roots) % (2.0 * math.pi)
    order = np.argsort(ang)
    roots, ang = roots[order], ang[order]
    label = np.concatenate(([0], np.cumsum(np.diff(ang) >= walk._ROOT_CLUSTER)))
    size = np.bincount(label)
    centre = (np.bincount(label, roots.real) + 1j * np.bincount(label, roots.imag)) / size
    if np.any(np.abs(np.abs(centre) - 1.0) > walk._ROOT_EXACT):
        return None
    return np.angle(centre) % (2.0 * math.pi), ang, label


def _reference_root_offers(lam, wts, per):
    """_root_offers as it stood with three _sq_at calls and np.minimum.at,
    verbatim but for the reference _critical_clusters."""
    q = np.array(per.coordinates) // math.gcd(*per.coordinates)
    if q.max() > _ROOT_CAP:
        return None
    found = _reference_critical_clusters(q, wts)
    if found is None:
        return None
    centre, member, label = found
    rho = float(per.period)
    scale = rho / (2.0 * math.pi)
    best = _sq_at(lam, wts, centre * scale)
    np.minimum.at(best, label, _sq_at(lam, wts, member * scale))
    return (np.concatenate(([0.0, rho], centre * scale)),
            np.concatenate((_sq_at(lam, wts, [0.0, rho]), best)))


def _family_supports():
    """The certified supports of the families the benchmark's families-all
    workload draws from, under its three matrices: its lattice pools, the
    ranges its family scans draw from, and the star squares."""
    # the lattices are vertex-transitive: one vertex shows every support
    lattices = ["hamming:2,6", "rook:4,9", "rook:3,12", "hamming:3,3", "rook:3,9",
                "hamming:3,5"]
    specs = [f"complete:{n}" for n in range(3, 15)] + [f"star:{n}" for n in range(3, 15)]
    specs += [f"cone:cycle:{n}" for n in range(3, 13)]
    graphs = [(build_family(parse_family(s)), s in lattices) for s in specs + lattices]
    graphs += [(cartesian_product(star_graph(m), star_graph(m)), False) for m in (3, 4)]
    for g, transitive in graphs:
        for kind in (ADJACENCY, LAPLACIAN, NORMALIZED_ADJACENCY):
            w = WalkEvaluator.for_graph(g, kind)
            seen = set()
            for u in range(1 if transitive else g.n):
                lam, wts, _, per = w.spectrum(u)[:4]
                key = (lam.tobytes(), wts.tobytes())
                if key in seen or len(lam) < 2 or not w.default_window(u)[1]:
                    continue
                seen.add(key)
                yield lam, wts, per


def _period(q, step):
    """The period fit spectral.period_fit makes for eigenvalues ref +
    step*q_j, less the phases _root_offers does not read: the period
    2 pi / (step gcd(q)), over which z^(q_j / gcd) winds once."""
    return spectral.PeriodFit("integer-spectrum", 2.0 * math.pi / (step * math.gcd(*q.tolist())),
                              tuple(q.tolist()), step)


def _random_supports(count):
    """Random integer supports of degree Q <= _ROOT_CAP with random weights,
    some with repeated weight patterns (symmetric, so roots repeat)."""
    rng = np.random.default_rng(31)
    for i in range(count):
        big_q = int(rng.integers(1, _ROOT_CAP + 1))
        inner = rng.choice(np.arange(1, big_q), min(big_q - 1, int(rng.integers(0, 6))),
                           replace=False) if big_q > 1 else np.array([], dtype=int)
        q = np.unique(np.concatenate(([0, big_q], inner))).astype(int)
        wts = rng.random(len(q))
        if i % 3 == 0:
            wts = wts + wts[::-1]
        wts /= wts.sum()
        step = float(rng.uniform(0.2, 3.0))
        lam = float(rng.uniform(-2.0, 2.0)) + step * q
        yield lam, wts, _period(q, step)


def _stacked_supports(count):
    """Stacks of 2 to 8 weight rows on one random integer support: random
    rows, rows that differ from one another in the last bits (as the
    weights of the vertices of a vertex-transitive graph do), and in every
    third stack, on q = 0, ..., Q, the weights of ((1 + z)/2)^Q beside
    random rows.  There |U|^2 = ((1 + x)/2)^Q, so P has a root of
    multiplicity Q - 1 at x = -1, which comes back split and merges into
    the exact theta = pi; the np.roots form's critical point at z = -1 has
    multiplicity 2Q - 1, ambiguous or lost from its band for Q >= 4."""
    rng = np.random.default_rng(37)
    for i in range(count):
        if i % 3 == 0:
            big_q = int(rng.integers(4, 9))
            q = np.arange(big_q + 1)
        else:
            big_q = int(rng.integers(1, _ROOT_CAP + 1))
            inner = rng.choice(np.arange(1, big_q), min(big_q - 1, int(rng.integers(0, 6))),
                               replace=False) if big_q > 1 else np.array([], dtype=int)
            q = np.unique(np.concatenate(([0, big_q], inner))).astype(int)
        rows = rng.random((int(rng.integers(2, 9)), len(q)))
        rows[1] = rows[0] * (1.0 + 1e-16 * rng.standard_normal(len(q)))
        if i % 3 == 0:
            rows[-1] = [math.comb(big_q, k) for k in q]
        rows /= rows.sum(axis=1, keepdims=True)
        step = float(rng.uniform(0.2, 3.0))
        lam = float(rng.uniform(-2.0, 2.0)) + step * q
        yield lam, rows, _period(q, step)


def test_root_offers_match_the_np_roots_form():
    """The Chebyshev form against the np.roots form it replaced, on the
    family supports, 400 random supports and 120 stacks.  Where the
    reference resolves a row, the least offers agree within 1e-12, and the
    argmin (the earliest offer within _TIE_BAND of the least) attains the
    least within _TIE_BAND.  Where only the new form resolves a row, or the
    reference's least offer lies above the row's dense minimum (its band
    lost every root at z = -1 of a ((1 + z)/2)^Q row), the least offer
    matches _dense_minimum within 1e-9, and a ((1 + z)/2)^Q row has its
    argmin at theta = pi exactly.  Every row of a stack gets the
    offers of a solve of its own, bit for bit, and a stack can mix rows
    that resolve with a row that falls back to the scan."""
    counts = collections.Counter()
    stacks = [(lam, wts[None], per)
              for lam, wts, per in list(_family_supports()) + list(_random_supports(400))]
    for lam, stack, per in stacks + list(_stacked_supports(120)):
        q = np.array(per.coordinates) // math.gcd(*per.coordinates)
        if q.max() > _ROOT_CAP:
            continue
        offers = walk._root_offers(lam, stack, per)
        for r, wts in enumerate(stack):
            alone = walk._root_offers(lam, wts[None], per)[0]
            assert (offers[r] is None) == (alone is None)
            ref = _reference_root_offers(lam, wts, per)
            if alone is None:
                counts["scan" if ref is None else "scan, reference resolves"] += 1
                continue
            for got, want in zip(offers[r], alone):
                assert got.tobytes() == want.tobytes()
            times, sq = alone
            best = float(sq.min())
            argmin = float(times[sq <= best + _TIE_BAND].min())
            assert float(_sq_at(lam, wts, [argmin])[0]) <= best + _TIE_BAND
            big_q = int(q.max())
            if len(q) == big_q + 1 and np.allclose(wts * 2 ** big_q,
                                                   [math.comb(big_q, k) for k in q]):
                # ((1 + z)/2)^Q: its zero at theta = pi exactly
                assert argmin == 0.5 * per.period
                counts["binomial"] += 1
            if ref is not None and abs(best - float(ref[1].min())) <= 1e-12:
                counts["agree"] += 1
                continue
            dense = _dense_minimum(lam, wts, (0.0, per.period))
            assert abs(math.sqrt(max(best, 0.0)) - dense) <= 1e-9
            if ref is None:
                counts["new form only"] += 1
            else:
                assert math.sqrt(float(ref[1].min())) > dense + 1e-9
                counts["reference above dense"] += 1
        counts["mixed stacks"] += 0 < sum(o is None for o in offers) < len(stack)
    assert counts["agree"] > 1450 and counts["new form only"] > 10 and counts["binomial"] >= 40
    assert counts["mixed stacks"] > 0 and counts["scan, reference resolves"] <= 5, counts
