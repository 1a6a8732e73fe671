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
from qwsed.matrices import ADJACENCY, LAPLACIAN, assemble, generalized_adjacency
from qwsed.spectral import decompose, support
from qwsed.walk import (
    _CHUNK,
    DEFAULT_WINDOW,
    WalkError,
    WalkEvaluator,
    _curvature,
    _grid_values,
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
    # 257 columns leave 3 chunks to a block, so 5 chunks take two blocks and
    # the second block restarts the base phases from a direct exponential
    rng = np.random.default_rng(11)
    lam = rng.uniform(-4.0, 4.0, 9)
    coef = rng.normal(size=(9, 257)) + 1j * rng.normal(size=(9, 257))
    npts = 4 * _CHUNK + 9
    ts, vals = _grid_values(lam, coef, lambda z: z, (2.5, 60.0), npts)
    assert np.array_equal(ts, np.linspace(2.5, 60.0, npts))
    assert np.max(np.abs(vals - np.exp(1j * np.outer(ts, lam)) @ coef)) < 1e-12


def test_grid_values_build_phase_tables_by_doubling(monkeypatch):
    """One open-window scan evaluates a logarithmic number of exponentials
    of k terms, none per grid point or per chunk."""
    lam, coef = _open_window_support()
    evaluated = []
    real_exp = np.exp

    def counted(x, *args, **kwargs):
        out = real_exp(x, *args, **kwargs)
        evaluated.append(np.size(out))
        return out

    monkeypatch.setattr(np, "exp", counted)
    ts, _ = _grid_values(lam, coef, _sq, (0.0, DEFAULT_WINDOW))
    monkeypatch.undo()
    k, npts = len(lam), len(ts)
    c = min(_CHUNK, npts)
    chunks = -(-npts // c)
    per_block = min(_CHUNK, chunks)
    blocks = -(-chunks // per_block)
    cap = k * (math.ceil(math.log2(c)) + math.ceil(math.log2(per_block)) + blocks + 1)
    assert 0 < sum(evaluated) <= cap
    # a direct exponential per table entry would take k (c + chunks)
    assert 20 * cap < k * (c + chunks)


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
