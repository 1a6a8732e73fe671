import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from qwsed.graphs import (
    WeightedGraph,
    build_family,
    cartesian_product,
    complete_graph,
    double_cone,
    parse_family,
)
from qwsed import sedentary, walk
from qwsed.matrices import ADJACENCY, LAPLACIAN, assemble, generalized_adjacency
from qwsed.sedentary import _alignment_defect, find_equality_time, subset_bound
from qwsed.spectral import decompose, support
from qwsed.walk import (
    _CHUNK,
    _COARSE,
    _CUBIC,
    _TIE_BAND,
    DEFAULT_WINDOW,
    WalkError,
    WalkEvaluator,
    _cubic,
    _curvature,
    _fine_points,
    _grid_values,
    _leak,
    _neg_peak,
    _newton_batch,
    _quad_floor,
    _Scan,
    _scan_minima,
    _sq,
    _sq_at,
    _trig_sums,
    check_fractional_revival,
    check_uniform_mixing,
)


def _walk(fam, kind=ADJACENCY):
    return WalkEvaluator.for_graph(build_family(parse_family(fam)), kind)


def test_transition_matrix_unitary():
    w = _walk("cycle:6")
    for t in (0.0, 0.7, 2.5, 31.4):
        u = w.transition_matrix(t)
        assert np.allclose(u @ u.conj().T, np.eye(6), atol=1e-9)
    assert w.unitarity_defect(1.3) < 1e-9


def test_transition_at_zero_is_identity():
    w = _walk("star:5")
    assert np.allclose(w.transition_matrix(0.0), np.eye(6), atol=1e-12)


def test_diagonal_magnitude_even_in_time():
    w = _walk("path:5")
    ts = np.linspace(0.1, 4.0, 17)
    fwd = np.abs(w.diagonal_entry_series(0, ts))
    bwd = np.abs(w.diagonal_entry_series(0, -ts))
    assert np.allclose(fwd, bwd, atol=1e-12)


def test_degree_shifted_kinds_share_diagonal_magnitude_on_regular():
    g = build_family(parse_family("cycle:7"))
    ts = np.linspace(0.0, 5.0, 101)
    mags = []
    for kind in (ADJACENCY, LAPLACIAN, generalized_adjacency(0.7)):
        w = WalkEvaluator.for_graph(g, kind)
        mags.append(np.abs(w.diagonal_entry_series(0, ts)))
    assert np.allclose(mags[0], mags[1], atol=1e-10)
    assert np.allclose(mags[0], mags[2], atol=1e-10)


def test_kronecker_diagonal_factorization():
    x = build_family(parse_family("complete:3"))
    y = build_family(parse_family("path:3"))
    g = cartesian_product(x, y)
    wg = WalkEvaluator.for_graph(g, ADJACENCY)
    wx = WalkEvaluator.for_graph(x, ADJACENCY)
    wy = WalkEvaluator.for_graph(y, ADJACENCY)
    for t in (0.3, 1.1, 2.9):
        for ux in range(3):
            for uy in range(3):
                u = ux * 3 + uy
                prod = wx.transition_entry(t, ux, ux) * wy.transition_entry(t, uy, uy)
                assert wg.transition_entry(t, u, u) == pytest.approx(prod, abs=1e-10)


def test_minimize_requires_window_when_aperiodic():
    w = _walk("path:4")
    with pytest.raises(WalkError):
        w.minimize_diagonal(0)
    res = w.minimize_diagonal(0, (0.0, 40.0))
    assert not res.certified_window
    assert res.window == (0.0, 40.0)


def test_minimize_complete_graph():
    w = _walk("complete:5")
    res = w.minimize_diagonal(0)
    assert res.certified_window
    assert res.minimum == pytest.approx(0.6, abs=1e-9)
    assert res.argmin == pytest.approx(math.pi / 5.0, abs=1e-6)


def test_minimize_k3_box_k5():
    w = _walk("rook:3,5")
    res = w.minimize_diagonal(0)
    assert res.minimum == pytest.approx(0.2, abs=1e-9)
    assert res.argmin == pytest.approx(math.pi, abs=1e-6)


def test_minimize_k3_box_k4():
    w = _walk("rook:3,4")
    res = w.minimize_diagonal(0)
    assert res.minimum == pytest.approx(0.2064691267, abs=1e-8)
    assert res.argmin == pytest.approx(0.9556408052, abs=1e-6)


def test_minimize_p3_laplacian_end():
    w = _walk("path:3", LAPLACIAN)
    res = w.minimize_diagonal(0)
    assert res.certified_window
    assert res.minimum == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert res.argmin == pytest.approx(math.pi, abs=1e-6)


def test_minimum_dict_shape():
    res = _walk("complete:4").minimize_diagonal(0)
    d = res.to_dict()
    assert set(d) == {"minimum", "argmin", "window", "grid", "certified"}


def test_perfect_state_transfer_p3():
    w = _walk("path:3")
    t = math.pi / math.sqrt(2.0)
    assert abs(w.transition_entry(t, 2, 0)) == pytest.approx(1.0, abs=1e-9)
    pst = w.find_perfect_state_transfer(0, (0.0, 3.0))
    assert pst is not None
    assert pst.target == 2
    assert pst.time == pytest.approx(t, abs=1e-8)
    assert pst.magnitude == pytest.approx(1.0, abs=1e-9)


def test_no_pst_on_complete():
    w = _walk("complete:5")
    assert w.find_perfect_state_transfer(0, (0.0, 10.0)) is None


def test_uniform_mixing_k3_true_time():
    w = _walk("complete:3")
    assert check_uniform_mixing(w, 0, 2.0 * math.pi / 9.0)
    assert not check_uniform_mixing(w, 0, math.pi / 9.0)
    # the diagonal at pi/9 sits at sqrt(7)/3, far from 1/sqrt(3)
    assert abs(w.transition_entry(math.pi / 9.0, 0, 0)) == \
        pytest.approx(math.sqrt(7.0) / 3.0, abs=1e-12)


def test_uniform_mixing_star_center_local():
    w = _walk("star:3")
    t = math.pi / (3.0 * math.sqrt(3.0))
    assert check_uniform_mixing(w, 0, t)
    assert not check_uniform_mixing(w, 1, t)
    # doubling the time makes it global
    assert check_uniform_mixing(w, 1, 2.0 * t)


def test_fractional_revival_between_apexes():
    g = double_cone(build_family(parse_family("empty:4")), "disconnected")
    w = WalkEvaluator.for_graph(g, LAPLACIAN)
    t = w.find_fractional_revival(0, 1, (0.0, 2.0 * math.pi))
    assert t == pytest.approx(math.pi / 3.0, abs=1e-8)
    fr = check_fractional_revival(w, 0, 1, t)
    assert fr.proper
    assert fr.alpha == pytest.approx(0.5, abs=1e-9)
    assert fr.beta == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-9)
    assert fr.alpha**2 + fr.beta**2 == pytest.approx(1.0, abs=1e-12)


def test_fractional_revival_rejects_same_vertex():
    w = _walk("complete:3")
    with pytest.raises(WalkError):
        check_fractional_revival(w, 0, 0, 1.0)


_S6 = math.sqrt(6.0)
# (family, kind, vertex role, vertex, exact support: eigenvalue -> weight)
_CLOSED_FORMS = [
    ("complete:7", ADJACENCY, "", 0, {6.0: 1 / 7, -1.0: 6 / 7}),
    ("complete:7", LAPLACIAN, "", 0, {0.0: 1 / 7, 7.0: 6 / 7}),
    ("star:6", ADJACENCY, "leaf", 1, {-_S6: 1 / 12, 0.0: 5 / 6, _S6: 1 / 12}),
    ("star:6", ADJACENCY, "center", 0, {-_S6: 1 / 2, _S6: 1 / 2}),
    ("star:6", LAPLACIAN, "center", 0, {0.0: 1 / 7, 7.0: 6 / 7}),
    ("star:6", LAPLACIAN, "leaf", 1, {0.0: 1 / 7, 1.0: 5 / 6, 7.0: 1 / 42}),
    ("doublecone:disconnected:cycle:4", ADJACENCY, "apex", 0,
     {-2.0: 1 / 3, 0.0: 1 / 2, 4.0: 1 / 6}),
    ("doublecone:disconnected:empty:5", LAPLACIAN, "apex", 0,
     {0.0: 1 / 7, 5.0: 1 / 2, 7.0: 5 / 14}),
    ("doublecone:connected:cycle:3", LAPLACIAN, "apex", 0,
     {0.0: 1 / 5, 5.0: 4 / 5}),
    ("doublestar:2,2", ADJACENCY, "leafu", 0,
     {-2.0: 1 / 12, -1.0: 1 / 6, 0.0: 1 / 2, 1.0: 1 / 6, 2.0: 1 / 12}),
    ("doublestar:2,2", ADJACENCY, "internal", 2,
     {-2.0: 1 / 3, -1.0: 1 / 6, 1.0: 1 / 6, 2.0: 1 / 3}),
    ("cone:cycle:5", LAPLACIAN, "apex", 0, {0.0: 1 / 6, 6.0: 5 / 6}),
]


@pytest.mark.parametrize("fam,kind,role,vertex,exact", _CLOSED_FORMS, ids=[
    f"{fam}-kind{i}-{role}-{vertex}"
    for i, (fam, _, role, vertex, _) in enumerate(_CLOSED_FORMS)])
def test_closed_forms_match_spectral(fam, kind, role, vertex, exact):
    """The vertex's eigenvalue support (eigenvalue -> weight) is the exact
    one, and sum_j w_j e^{i lam_j t} is its walk diagonal."""
    g = build_family(parse_family(fam))
    assert (g.labels[vertex].partition(":")[0] if g.labels else "") == role
    w = WalkEvaluator.for_graph(g, kind)
    sup = support(w.decomposition, vertex)
    sup = sorted(zip(sup.eigenvalues, sup.weights))
    lam, wts = np.array(sorted(exact.items())).T
    assert len(sup) == len(lam)
    assert np.allclose(sup, np.column_stack((lam, wts)), atol=1e-9)
    ts = np.linspace(0.0, 9.0, 400)
    closed = np.exp(1j * np.outer(ts, lam)) @ wts
    assert np.max(np.abs(closed - w.diagonal_entry_series(vertex, ts))) < 1e-9


@pytest.mark.parametrize("end", [math.inf, math.nan, 0.0, -1.0])
def test_minimize_rejects_bad_window_end(end):
    with pytest.raises(WalkError, match="bad window"):
        _walk("complete:3").minimize_diagonal(0, (0.0, end))


def test_default_window_constant():
    assert DEFAULT_WINDOW == pytest.approx(200.0 * math.pi)


# -- the scan-and-refine primitive ---------------------------------------------


def _gnp(rng, n, p):
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return WeightedGraph(n, tuple((int(a), int(b), 1.0) for a, b in zip(*np.nonzero(upper))))


@pytest.mark.parametrize("npts", [8, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_grid_values_match_direct_sums(npts):
    rng = np.random.default_rng(npts)
    lam = rng.uniform(-4.0, 4.0, 7)
    coef = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
    ts, vals = _grid_values(lam, coef, lambda z: z, (0.3, 17.0), npts)
    assert np.array_equal(ts, np.linspace(0.3, 17.0, npts))
    direct = np.exp(1j * np.outer(ts, lam)) @ coef
    assert vals.shape == (npts, 2)
    assert np.max(np.abs(vals - direct)) < 1e-12


def _open_window_support():
    """The support of vertex 0 of a seeded G(120, 0.1): about 120 simple
    eigenvalues, scanned on a grid of about 125k points over [0, 200 pi]."""
    lam, wts = WalkEvaluator.for_graph(_gnp(np.random.default_rng(7), 120, 0.1)).spectrum(0)[:2]
    assert len(lam) >= 100
    return lam, wts[:, None]


def test_grid_values_match_direct_sums_over_the_open_window():
    lam, coef = _open_window_support()
    ts, vals = _grid_values(lam, coef, lambda z: z, (0.0, DEFAULT_WINDOW))
    assert len(ts) > 100 * _CHUNK
    assert np.max(np.abs(vals - _trig_sums(lam, coef, ts))) <= 1e-12


def test_grid_values_across_base_blocks():
    # 257 columns leave 3 chunk starts to a product, so 5 chunks take two
    # products
    rng = np.random.default_rng(11)
    lam = rng.uniform(-4.0, 4.0, 9)
    coef = rng.normal(size=(9, 257)) + 1j * rng.normal(size=(9, 257))
    npts = 4 * _CHUNK + 9
    ts, vals = _grid_values(lam, coef, lambda z: z, (2.5, 60.0), npts)
    assert np.array_equal(ts, np.linspace(2.5, 60.0, npts))
    assert np.max(np.abs(vals - np.exp(1j * np.outer(ts, lam)) @ coef)) < 1e-12


def test_grid_values_take_one_exponential_per_chunk(monkeypatch):
    """A pass over npts grid points with k terms evaluates exactly k
    (ceil(log2 c) + ceil(npts / c)) exponentials, c = min(_CHUNK, npts):
    the doubled step table and one direct phase per chunk start."""
    lam, coef = _open_window_support()
    evaluated = []
    real_exp = np.exp

    def counted(x, *args, **kwargs):
        out = real_exp(x, *args, **kwargs)
        evaluated.append(np.size(out))
        return out

    monkeypatch.setattr(np, "exp", counted)
    for grid in (None, 8, _CHUNK + 1):
        evaluated.clear()
        ts, _ = _grid_values(lam, coef, _sq.value, (0.0, DEFAULT_WINDOW), grid)
        k, npts = len(lam), len(ts)
        c = min(_CHUNK, npts)
        assert sum(evaluated) == k * (math.ceil(math.log2(c)) + -(-npts // c))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(0.01, 1.0)),
                min_size=1, max_size=8))
def test_curvature_bounds_second_derivative(terms):
    lam = np.array([t[0] for t in terms])
    w = np.array([t[1] for t in terms])
    w /= w.sum()
    mean = float(np.sum(w * lam))
    m2 = 2.0 * float(np.sum(w * (lam - mean) ** 2))
    assert _curvature(lam, w[:, None])[0] == pytest.approx(m2, rel=1e-9, abs=1e-12)
    # |sum_j w_j e^{i lam_j t}|^2 = sum_jk w_j w_k cos((lam_j - lam_k) t)
    diff = lam[:, None] - lam[None, :]
    ww = w[:, None] * w[None, :]
    ts = np.linspace(0.0, 30.0, 3001)
    f2 = -np.einsum("jk,jk,tjk->t", ww, diff ** 2, np.cos(ts[:, None, None] * diff))
    assert np.max(np.abs(f2)) <= m2 * (1.0 + 1e-9) + 1e-12


def _dense_minimum(graph, u, window):
    """Minimum of |U(t)_uu| from numpy's own eigh: a 16x denser grid, then
    bounded Brent on every dense local minimum near the lowest sample."""
    vals, vecs = np.linalg.eigh(assemble(graph, ADJACENCY).matrix)
    wts = vecs[u] ** 2

    def f2(t):
        z = np.sum(wts * np.exp(1j * np.asarray(t)[..., None] * vals), axis=-1)
        return z.real ** 2 + z.imag ** 2

    ts = np.linspace(window[0], window[1], 16 * 4096)
    sq = f2(ts)
    best = float(sq.min())
    mid, lo, hi = sq[1:-1], sq[:-2], sq[2:]
    for i in np.flatnonzero((mid <= lo) & (mid <= hi) & ((mid < lo) | (mid < hi))) + 1:
        if sq[i] <= best + 1e-6:
            r = minimize_scalar(f2, bounds=(ts[i - 1], ts[i + 1]), method="bounded",
                                options={"xatol": 1e-12})
            best = min(best, float(r.fun))
    return math.sqrt(max(best, 0.0))


def test_minimize_diagonal_matches_dense_search():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(5, 10))
        g = _gnp(rng, n, 0.5)
        u = int(rng.integers(n))
        window = (0.0, 30.0)
        res = WalkEvaluator.for_graph(g).minimize_diagonal(u, window)
        assert abs(res.minimum - _dense_minimum(g, u, window)) <= 1e-9


def test_open_window_oracle_memory():
    g = _gnp(np.random.default_rng(7), 120, 0.1)
    w = WalkEvaluator.for_graph(g)
    k = len(w.spectrum(0).eigenvalues)
    tracemalloc.start()
    try:
        res = w.minimize_diagonal(0, (0.0, DEFAULT_WINDOW))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one complex grid x support array would take several times the limit
    assert res.grid * k * 16 > 128e6
    assert peak < 64e6


# -- the two-level scan against a scan of every grid point ---------------------


def _full_scan(lam, coef, reducer, window, grid, xtol, ceiling=None, band=0.0):
    """The reference for _scan_minima, a scan of every grid point:
    _grid_values on the whole grid, then the grid-local-minimum test, the
    prune by the reducer's M2 and one _newton_batch.  M3 is not read."""
    m2 = reducer.m2(lam, coef)
    ts, vals = _grid_values(lam, coef, reducer.value, window, grid)
    threshold = ceiling if ceiling is not None else float(vals.min()) + band
    mid, lo, hi = vals[1:-1], vals[:-2], vals[2:]
    at = np.flatnonzero((mid <= lo) & (mid <= hi) & ((mid < lo) | (mid < hi))) + 1
    h = ts[1] - ts[0]
    at = at[vals[at] - m2 * h * h / 8.0 <= threshold]
    x, fx = _newton_batch(lam, coef, reducer.terms, ts[at - 1], ts[at + 1], ts[at], xtol)
    return _Scan(len(ts), (float(vals[0]), float(vals[-1])), threshold, ts[at], vals[at], x, fx)


def _best(scan, window):
    """The least offer and the earliest time within _TIE_BAND of it, by
    minimize_diagonal's rule."""
    refined = scan.fx < scan.f
    offers = np.concatenate((scan.ends, np.where(refined, scan.fx, scan.f)))
    times = np.concatenate((window, np.where(refined, scan.x, scan.t)))
    best = float(offers.min())
    return best, float(times[offers <= best + _TIE_BAND].min())


def _scan_case(rng, name, tied):
    """(lam, coef, reducer, mode) of one search: mode is 'band' for
    minimize_diagonal's threshold, 'low' for subset_bound's and 'ceiling'
    for the fixed ceilings of the column scans and find_equality_time.
    tied supports are symmetric integer multiples of one step, so their
    minima repeat every period and tie."""
    k = int(rng.integers(2, 8))
    if tied:
        q = np.arange(k) - (k - 1) / 2.0
        lam = float(rng.uniform(0.5, 2.0)) * np.round(2.0 * q)
        w = rng.random(k)
        w = w + w[::-1]
    else:
        lam = rng.uniform(-4.0, 4.0, k)
        w = rng.random(k)
    if name in ("sq", "subset"):
        coef = (w / w.sum())[:, None]
        return lam, coef, _sq, "band" if name == "sq" else "low"
    if name == "defect":
        # find_equality_time's defect: eigenvalues less the first of the
        # subset, +1 on the subset and -1 off it
        inside = rng.random(k) < 0.5
        inside[0] = True
        sign = np.where(inside, 1.0, -1.0)[:, None]
        return lam - lam[0], sign, _alignment_defect(k), "ceiling"
    m = int(rng.integers(1, 5))
    coef = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
    coef /= np.linalg.norm(coef)
    return lam, coef, _leak if name == "leak" else _neg_peak, "ceiling"


_SCAN_GRIDS = (None, 5, 8, 29, 33, 34, 35, 36, 1001, 4099)
_SCAN_WINDOWS = ((0.0, 40.0), (0.7, 40.0), (3.0, 9.5))


def _compare_scans(rng, name, tied, grid, window):
    lam, coef, reducer, mode = _scan_case(rng, name, tied)
    xtol = 1e-12
    ref = _full_scan(lam, coef, reducer, window, grid, xtol)
    kw = {}
    if mode == "band":
        kw = {"band": _TIE_BAND}
    elif mode == "ceiling":
        # a ceiling a few minima reach, so that pruning decides which
        kw = {"ceiling": float(np.quantile(np.concatenate((ref.f, ref.ends)), 0.3))}
    ref = _full_scan(lam, coef, reducer, window, grid, xtol, **kw)
    new = _scan_minima(lam, coef, reducer, window, grid, xtol, **kw)
    assert new.npts == ref.npts
    # the fine pass samples the window ends through another product of
    # phases than the full grid does: they differ by rounding in time, about
    # 1e-14 at t1 = 40, and so does a minimum that an end attains
    assert np.max(np.abs(np.subtract(new.ends, ref.ends))) <= 1e-12
    # every refined bracket starts from a time of the full grid
    assert np.all(np.isin(new.t, np.linspace(window[0], window[1], new.npts)))
    if mode == "band":
        (fb, tb), (fr, tr) = _best(new, window), _best(ref, window)
        assert abs(fb - fr) <= (1e-12 if tr in window else 1e-15)
        assert abs(tb - tr) <= 1e-12
    elif mode == "low":
        best = min(ref.level, ref.fx.min(initial=np.inf))
        assert abs(min(new.level, new.fx.min(initial=np.inf)) - best) <= \
            (1e-12 if best == min(ref.ends) else 1e-15)
    else:
        ceiling = kw["ceiling"]
        hit, ref_hit = new.fx <= ceiling, ref.fx <= ceiling
        assert hit.sum() == ref_hit.sum()
        assert np.max(np.abs(new.x[hit] - ref.x[ref_hit]), initial=0.0) <= 1e-12
        assert np.max(np.abs(new.fx[hit] - ref.fx[ref_hit]), initial=0.0) <= 1e-15
    return len(ref.x)


@pytest.fixture
def two_levels(monkeypatch):
    """Every scan of more than 8 _COARSE grid points takes two levels, not
    only those of at least _TWO_LEVEL grid points times terms."""
    monkeypatch.setattr(walk, "_TWO_LEVEL", 0)


@pytest.mark.parametrize("name", ["sq", "subset", "leak", "neg_peak", "defect"])
@pytest.mark.parametrize("tied", [False, True])
def test_two_level_scan_matches_the_full_grid(name, tied, two_levels):
    rng = np.random.default_rng([len(name), tied])
    brackets = 0
    for grid in _SCAN_GRIDS:
        for window in _SCAN_WINDOWS:
            for _ in range(3):
                brackets += _compare_scans(rng, name, tied, grid, window)
    assert brackets > 200


def _caller_results(w, u, v, subset, window):
    res = w.minimize_diagonal(u, window)
    pst = w.find_perfect_state_transfer(u, window)
    return (res.minimum, res.argmin, res.grid,
            subset_bound(w, u, subset, window).bound,
            find_equality_time(w, u, subset, window),
            None if pst is None else (pst.time, pst.target, pst.magnitude),
            w.find_fractional_revival(u, v, window))


def _caller_cases():
    yield _walk("path:3"), 0, 2, (0.0, 7.0)
    yield _walk("star:4"), 1, 2, (0.0, 13.0)
    yield WalkEvaluator.for_graph(double_cone(build_family(parse_family("empty:4"))),
                                  LAPLACIAN), 0, 1, (0.0, 11.0)
    rng = np.random.default_rng(5)
    for _ in range(6):
        n = int(rng.integers(5, 9))
        yield WalkEvaluator.for_graph(_gnp(rng, n, 0.5)), 0, 1, (0.0, 40.0)


@pytest.mark.parametrize("grid", [None, 8, 34, 4099])
def test_callers_match_the_full_grid_scan(grid, two_levels, monkeypatch):
    """minimize_diagonal, the column scans (perfect state transfer and
    fractional revival), subset_bound and find_equality_time give the same
    results on two levels as on a scan of every grid point.  A grid that is
    not None is forced on every search the grid rule sizes."""
    if grid is not None:
        real = walk._grid_size

        def forced(span, spread, n=None):
            return real(span, spread, grid if n is None else n)

        monkeypatch.setattr(walk, "_grid_size", forced)
    ours, theirs = [], []
    for w, u, v, window in _caller_cases():
        sup = w.spectrum(u)
        # the heaviest eigenvalue and the next: a subset scanned on the grid
        order = np.argsort(-sup.weights)
        subset = [sup.indices[i] for i in order[:2]]
        if len(sup.indices) < 3 or sup.weights[order[:2]].sum() < 0.5:
            subset = [sup.indices[order[0]], sup.indices[order[-1]]]
        try:
            ours.append(_caller_results(w, u, v, subset, window))
        except sedentary.CertificateRefused:
            continue
        with monkeypatch.context() as m:
            m.setattr(walk, "_scan_minima", _full_scan)
            m.setattr(sedentary, "_scan_minima", _full_scan)
            theirs.append(_caller_results(w, u, v, subset, window))
    assert len(ours) >= 5
    assert grid is None or all(r[2] == grid for r in ours)
    assert any(r[5] is not None for r in ours) and any(r[6] is not None for r in ours)
    for a, b in zip(ours, theirs):
        assert abs(a[0] - b[0]) <= 1e-15 and abs(a[1] - b[1]) <= 1e-12
        assert a[2] == b[2] and abs(a[3] - b[3]) <= 1e-15
        for x, y in ((a[4], b[4]), (a[6], b[6])):
            assert (x is None) == (y is None)
            assert x is None or abs(x - y) <= 1e-12
        assert (a[5] is None) == (b[5] is None)
        if a[5] is not None:
            assert abs(a[5][0] - b[5][0]) <= 1e-12 and a[5][1] == b[5][1]
            assert abs(a[5][2] - b[5][2]) <= 1e-15


# -- the reducers' derivative bounds ------------------------------------------


def _bound_case(rng, name):
    """(lam, coef, reducer) of a random search with that reducer."""
    k = int(rng.integers(1 if name == "defect" else 2, 7))
    lam = rng.uniform(-3.0, 3.0, k)
    if name == "sq":
        w = rng.random(k)
        return lam, (w / w.sum())[:, None], _sq
    if name in ("leak", "neg_peak"):
        m = 3 if name == "leak" else int(rng.integers(1, 4))
        coef = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
        return lam, coef, _leak if name == "leak" else _neg_peak
    return lam, np.where(rng.random(k) < 0.5, 1.0, -1.0)[:, None], _alignment_defect(k)


def _quadratic(f0, f1, f2, s):
    """The quadratic through (0, f0), (1, f1) and (2, f2), at s."""
    return f0 * (s - 1.0) * (s - 2.0) / 2.0 - f1 * s * (s - 2.0) + f2 * s * (s - 1.0) / 2.0


@pytest.mark.parametrize("name", ["sq", "leak", "neg_peak", "defect"])
def test_declared_bounds_hold(name):
    """Dense samples of the reducer's f on random brackets [t, t + h] never
    fall below the lesser end less m2 h^2/8, and on [t, t + 2h] (for an m3
    not None) never below the quadratic through f(t), f(t + h), f(t + 2h)
    less m3 h^3/(9 sqrt 3).  Neither bound is slack: some bracket sags
    more than half of each, so half the declared bound fails."""
    rng = np.random.default_rng(len(name))
    s = np.linspace(0.0, 2.0, 801)
    sag2 = sag3 = 0.0
    for _ in range(300):
        lam, coef, reducer = _bound_case(rng, name)
        t, h = float(rng.uniform(0.0, 50.0)), float(rng.uniform(0.05, 1.0))
        f = reducer.value(_trig_sums(lam, coef, t + h * s))
        slack = 1e-12 * (1.0 + np.max(np.abs(f)))
        cut = reducer.m2(lam, coef) * h * h / 8.0
        for part in (f[:401], f[400:]):
            assert part.min() >= min(part[0], part[-1]) - cut - slack
            sag2 = max(sag2, (min(part[0], part[-1]) - part.min()) / cut)
        if reducer.m3 is not None:
            p2 = _quadratic(f[0], f[400], f[800], s)
            cut = reducer.m3(lam, coef) * h ** 3 * _CUBIC
            assert np.all(f >= p2 - cut - slack)
            sag3 = max(sag3, float(np.max(p2 - f)) / cut)
    assert sag2 > 0.5
    assert reducer.m3 is None or sag3 > 0.5


@pytest.mark.parametrize("name", ["sq", "leak", "defect"])
def test_quadratic_through_three_samples_bounds_f(name):
    """Dense samples of f on [t, t + 2h] never fall below _quad_floor of
    f(t), f(t + h), f(t + 2h) less M3 h^3/(9 sqrt 3), on either half or the
    whole, with the reducer's M3."""
    rng = np.random.default_rng(len(name))
    s = np.linspace(0.0, 2.0, 801)
    one = np.array([1.0])
    for _ in range(300):
        lam, coef, reducer = _bound_case(rng, name)
        t, h = float(rng.uniform(0.0, 50.0)), float(rng.uniform(0.05, 1.0))
        f = reducer.value(_trig_sums(lam, coef, t + h * s))
        f0, f1, f2 = f[0], f[400], f[800]
        cut = reducer.m3(lam, coef) * h ** 3 * _CUBIC
        slack = 1e-12 * (1.0 + np.max(np.abs(f)))
        for lo, hi, part in ((-1, 0, f[:401]), (0, 1, f[400:]), (-1, 1, f)):
            ends = min(f[400 * (lo + 1)], f[400 * (hi + 1)]) * one
            floor = float(_quad_floor(f0 * one, f1 * one, f2 * one, lo, hi, ends)[0])
            assert floor - cut <= part.min() + slack


def test_cubic_bounds_third_derivative():
    rng = np.random.default_rng(9)
    for _ in range(40):
        k = int(rng.integers(1, 7))
        lam = rng.uniform(-3.0, 3.0, k)
        coef = rng.normal(size=(k, 2)) + 1j * rng.normal(size=(k, 2))
        ts = np.linspace(0.0, 20.0, 2001)
        # |z|^2 = sum_jk c_j conj(c_k) e^{i (lam_j - lam_k) t}
        d = lam[:, None] - lam[None, :]
        for c, m3 in zip(coef.T, _cubic(lam, coef)):
            cc = c[:, None] * c[None, :].conj()
            f3 = np.einsum("jk,tjk->t", cc * (1j * d) ** 3,
                           np.exp(1j * ts[:, None, None] * d)).real
            assert np.max(np.abs(f3)) <= m3 * (1.0 + 1e-9) + 1e-12


def test_open_window_scan_evaluates_a_small_share_of_the_grid(monkeypatch):
    """On the first vertex of the seed-1 G(120, 0.1) workload, one coarse
    _grid_values call covers every fourth grid point, and the fine pass
    evaluates at most 5% of the grid.  Both evaluate through _fine_values,
    the coarse pass in chunks of _CHUNK points."""
    rng = np.random.default_rng([1, 0])
    g = _gnp(rng, 120, 0.1)
    u = int(rng.integers(120))
    w = WalkEvaluator.for_graph(g)
    coarse, fine = [], []
    real_grid, real_fine = walk._grid_values, walk._fine_values

    def grid_values(*args, **kwargs):
        coarse.append(args[4])
        return real_grid(*args, **kwargs)

    def fine_values(lam, coef, reduce, t0, h, starts, width):
        fine.append(len(starts) * width)
        return real_fine(lam, coef, reduce, t0, h, starts, width)

    monkeypatch.setattr(walk, "_grid_values", grid_values)
    monkeypatch.setattr(walk, "_fine_values", fine_values)
    res = w.minimize_diagonal(u, (0.0, DEFAULT_WINDOW))
    assert res.grid > 100_000
    assert coarse == [(res.grid - 1) // _COARSE + 1]
    assert len(fine) == 2 and fine[0] == -(-coarse[0] // _CHUNK) * _CHUNK
    assert fine[1] <= 0.05 * res.grid
    assert res.refinements <= 30


@pytest.mark.parametrize("span", [1, 2, _COARSE, 16])
def test_fine_points_take_each_block_point_once(span):
    rng = np.random.default_rng(span)
    for _ in range(200):
        npts = span * int(rng.integers(2, 30)) + int(rng.integers(1, span + 1))
        j = np.flatnonzero(rng.random(-(-(npts - 1) // span)) < rng.random())
        if not len(j):
            continue
        starts, take, idx = _fine_points(j, span, npts)
        blocks = starts[:, None] + np.arange(span + 3)
        want = np.unique(blocks[(blocks >= 0) & (blocks < npts)])
        assert np.array_equal(idx, want)
        assert np.array_equal(blocks[take], idx)


def test_small_scans_take_one_level(monkeypatch):
    """A scan of fewer than _TWO_LEVEL grid points times terms evaluates
    every grid point once, in one _grid_values call and so one _fine_values
    call of _CHUNK points per chunk, and refines as the full-grid scan
    does."""
    w = _walk("lollipop:5,2")
    lam, wts = w.spectrum(0)[:2]
    coef = wts[:, None]
    calls, fine = [], []
    real_grid, real_fine = walk._grid_values, walk._fine_values
    monkeypatch.setattr(walk, "_grid_values",
                        lambda *a: calls.append(a[4]) or real_grid(*a))
    monkeypatch.setattr(walk, "_fine_values",
                        lambda *a: fine.append(len(a[5]) * a[6]) or real_fine(*a))
    res = w.minimize_diagonal(0, (0.0, DEFAULT_WINDOW))
    assert res.grid * len(lam) < walk._TWO_LEVEL
    assert calls == [res.grid] and fine == [-(-res.grid // _CHUNK) * _CHUNK]
    monkeypatch.undo()
    ref = _full_scan(lam, coef, _sq, (0.0, DEFAULT_WINDOW), None, 1e-10, band=_TIE_BAND)
    best, at = _best(ref, (0.0, DEFAULT_WINDOW))
    assert (res.minimum, res.argmin) == (math.sqrt(best), at)
