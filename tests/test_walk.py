import math
import tracemalloc
from types import SimpleNamespace

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
from qwsed.matrices import (ADJACENCY, LAPLACIAN, assemble, generalized_adjacency,
                             parse_matrix_kind)
from qwsed.sedentary import _alignment_defect, find_equality_time, subset_bound
from qwsed.spectral import decompose, support
from qwsed.walk import (
    _CHUNK,
    _COARSE,
    _TIE_BAND,
    DEFAULT_WINDOW,
    WalkError,
    WalkEvaluator,
    _demodulated,
    _fine_points,
    _grid_values,
    _interval_floor,
    _leak,
    _neg_peak,
    _newton_batch,
    _Scan,
    _scan_minima,
    _sq,
    _sq_at,
    _tables,
    _trig_sums,
    check_fractional_revival,
    check_uniform_mixing,
)


def _walk(fam, kind=ADJACENCY):
    return WalkEvaluator.for_graph(build_family(parse_family(fam)), kind)


_KINDS = ("adjacency", "laplacian", "gen:0.5", "norm-adj", "norm-lap")


@st.composite
def repeated_spectrum_graphs(draw):
    """A graph whose spectrum repeats under every matrix kind: a class of 3
    to 10 twins (adjacent or not, with or without loops) over a base of 1
    to 4 vertices, rational weights, shuffled; twins give e_u - e_v one
    eigenvalue whatever the kind, so it has multiplicity at least c - 1,
    up to 9 (numpy sums a block of 8 or more pairwise)."""
    weight = st.sampled_from((1.0, 0.5, 2.0, 1.0 / 3.0, 0.7))
    size, rest = draw(st.integers(3, 10)), draw(st.integers(1, 4))
    edges = {(i, j): draw(weight) for i in range(rest) for j in range(i, rest)
             if draw(st.booleans())}
    reach = {b: draw(weight) for b in range(rest) if draw(st.booleans())} or {0: 1.0}
    loop = draw(st.one_of(st.none(), weight))
    eta = draw(st.one_of(st.none(), weight))
    twins = range(rest, rest + size)
    for t in twins:
        edges.update(((b, t), w) for b, w in reach.items())
        if loop is not None:
            edges[(t, t)] = loop
        if eta is not None:
            edges.update(((t, s), eta) for s in twins if s > t)
    perm = draw(st.permutations(range(rest + size)))
    return WeightedGraph(rest + size, tuple(sorted(
        (min(perm[a], perm[b]), max(perm[a], perm[b]), w) for (a, b), w in edges.items())))


@settings(max_examples=60, deadline=None)
@given(g=repeated_spectrum_graphs(), times=st.lists(st.floats(0.0, 50.0), min_size=1,
                                                      max_size=3))
def test_transition_entry_reads_the_kept_weights_bit_for_bit(g, times):
    """U(t)_{u,u} from the decomposition's weights row is the cluster-sum
    form sum_j exp(it lambda_j) V_j[u] . V_j[u] to the bit, and every
    off-diagonal entry is still that form."""
    for name in _KINDS:
        d = decompose(assemble(g, parse_matrix_kind(name)).matrix)
        assert max(d.multiplicities) >= 2
        w = WalkEvaluator(d)
        for t in times:
            phases = np.exp(1j * t * d.eigenvalues)
            for u in range(g.n):
                for v in range(g.n):
                    want = complex(np.sum(phases * d.cluster_sums(d.vectors[u] * d.vectors[v])))
                    got = w.transition_entry(t, u, v)
                    assert repr(got) == repr(want), (name, t, u, v)


def test_transition_matrix_unitary():
    w = _walk("cycle:6")
    for t in (0.0, 0.7, 2.5, 31.4):
        u = w.transition_matrix(t)
        assert np.allclose(u @ u.conj().T, np.eye(6), atol=1e-9)
    um = w.transition_matrix(1.3)
    assert float(np.max(np.abs(um @ um.conj().T - np.eye(6)))) < 1e-9


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


@pytest.mark.parametrize("end", [1e305, 1e308])
def test_a_window_too_long_to_scan_raises_walk_error(end):
    # 1e305 overflows the refinement's step cap, 1e308 the grid size
    w = _walk("path:3")
    with pytest.raises(WalkError, match="too"):
        w.minimize_diagonal(0, (0.0, end))
    with pytest.raises(WalkError, match="too"):
        w.find_fractional_revival(0, 2, (0.0, end))


def test_a_bracket_too_wide_to_refine_raises_walk_error():
    lam = np.array([0.0, 1.0])
    with pytest.raises(WalkError, match="too wide"):
        _newton_batch(lam, np.array([[0.5], [0.5]]), _sq.terms, [0.0], [1e300], [1.0], 1e-12)


def test_default_window_constant():
    assert DEFAULT_WINDOW == pytest.approx(200.0 * math.pi)


# -- the scan-and-refine primitive ---------------------------------------------


def _gnp(rng, n, p):
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return WeightedGraph(n, tuple((int(a), int(b), 1.0) for a, b in zip(*np.nonzero(upper))))


_GRID_RULE = walk._grid_size


def _force_grid(monkeypatch, grid):
    """Size every grid of a scan or a _grid_values call at grid points, at
    least 8; None takes the grid rule."""
    monkeypatch.setattr(walk, "_grid_size", _GRID_RULE if grid is None else
                        lambda span, spread: max(int(grid), 8))


@pytest.mark.parametrize("npts", [8, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_grid_values_match_direct_sums(npts, monkeypatch):
    rng = np.random.default_rng(npts)
    lam = rng.uniform(-4.0, 4.0, 7)
    coef = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
    _force_grid(monkeypatch, npts)
    ts, vals = _grid_values(lam, coef, lambda z: z, (0.3, 17.0))
    assert np.array_equal(ts, np.linspace(0.3, 17.0, npts))
    direct = np.exp(1j * np.outer(ts, lam)) @ coef
    assert vals.shape == (npts, 2)
    assert np.max(np.abs(vals - direct)) < 1e-12


def _reference_phase_table(lam: np.ndarray, dt: float, count: int) -> np.ndarray:
    """One table doubled alone, with a Python loop per level, as the phase
    tables were built before both tables of a grid doubled together; kept
    verbatim as the reference for _tables's bits."""
    out = np.empty((count, len(lam)), dtype=complex)
    out[0] = 1.0
    # the factors of all levels in one call
    factors = np.exp(1j * np.outer((1 << np.arange((count - 1).bit_length())) * dt, lam))
    for level, factor in enumerate(factors):
        n = 1 << level
        r = min(n, count - n)
        np.multiply(out[:r], factor, out=out[n:n + r])
    return out


def _reference_tables(lam: np.ndarray, t0: float, h: float, count: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    n = min(_CHUNK, math.isqrt(count - 1) + 1)
    return (np.exp(1j * t0 * lam) * _reference_phase_table(lam, n * h, -(-count // n)),
            _reference_phase_table(lam, h, n + 1))


@pytest.mark.parametrize("k", [1, 5, 120])
def test_tables_match_the_reference_bit_for_bit(k):
    """Both tables of every grid of 1 to 2049 points, doubled together, hold
    the bits of each table doubled alone, from seeded starts and steps;
    so does a two-level scan's fine step table of _COARSE + 3 rows, doubled
    with them."""
    rng = np.random.default_rng(k)
    lam = rng.uniform(-6.0, 6.0, k)
    if k > 1:
        lam[0] = 0.0
    for count in range(1, 2050):
        t0, h = float(rng.uniform(0.0, 50.0)), float(rng.uniform(1e-3, 0.5))
        want = _reference_tables(lam, t0, h, count)
        fine = () if count % 3 else (h / _COARSE,)
        if fine:
            want += (_reference_phase_table(lam, fine[0], _COARSE + 3),)
        got = _tables(lam, t0, h, count, *fine)
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_sq_value_matches_the_sum_of_squares():
    """_sq's value squares each part in one pass and adds in place: the
    bits of |z|^2 as z.real ** 2 + z.imag ** 2."""
    rng = np.random.default_rng(3)
    z = rng.normal(size=(5000, 2)) + 1j * rng.normal(size=(5000, 2))
    assert _sq.value(z).tobytes() == (z[:, 0].real ** 2 + z[:, 0].imag ** 2).tobytes()


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


def test_grid_values_across_base_blocks(monkeypatch):
    # 257 columns leave 3 chunk starts to a product, so 5 chunks take two
    # products
    rng = np.random.default_rng(11)
    lam = rng.uniform(-4.0, 4.0, 9)
    coef = rng.normal(size=(9, 257)) + 1j * rng.normal(size=(9, 257))
    npts = 4 * _CHUNK + 9
    _force_grid(monkeypatch, npts)
    ts, vals = _grid_values(lam, coef, lambda z: z, (2.5, 60.0))
    assert np.array_equal(ts, np.linspace(2.5, 60.0, npts))
    assert np.max(np.abs(vals - np.exp(1j * np.outer(ts, lam)) @ coef)) < 1e-12


def test_grid_values_take_one_exponential_per_chunk(monkeypatch):
    """A pass over npts grid points with k terms evaluates exactly k (1 +
    2 ceil(log2 max(q, n + 1))) exponentials, n = min(_CHUNK, ceil(sqrt
    npts)) and q = ceil(npts / n): the window start and the two tables of
    the grid's runs (_tables), doubled together, about log2 npts + 1 in all
    and none per chunk of grid points."""
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
        _force_grid(monkeypatch, grid)
        ts, _ = _grid_values(lam, coef, _sq.value, (0.0, DEFAULT_WINDOW))
        k, npts = len(lam), len(ts)
        n = min(_CHUNK, math.ceil(math.sqrt(npts)))
        q = -(-npts // n)
        assert sum(evaluated) == k * (1 + 2 * math.ceil(math.log2(max(q, n + 1))))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(0.01, 1.0)),
                min_size=1, max_size=8))
def test_curvature_bounds_second_derivative(terms):
    """_demodulated gives the |w|-weighted mean mu of lam, the mass sum_j
    |w_j| and the bounds sum_j w_j |lam_j - mu| on |zeta'| and sum_j w_j
    (lam_j - mu)^2 on |zeta''|, zeta(t) = sum_j w_j e^{i (lam_j - mu) t}."""
    lam = np.array([t[0] for t in terms])
    w = np.array([t[1] for t in terms])
    w /= w.sum()
    mean = float(np.sum(w * lam))
    (mu,), (mass,), (slope,), (bound,) = _demodulated(lam, w[:, None])
    assert mu == pytest.approx(mean, rel=1e-9, abs=1e-12)
    assert mass == pytest.approx(1.0, rel=1e-12)
    assert slope == pytest.approx(float(np.sum(w * np.abs(lam - mean))),
                                  rel=1e-9, abs=1e-12)
    assert bound == pytest.approx(float(np.sum(w * (lam - mean) ** 2)), rel=1e-9, abs=1e-12)
    ts = np.linspace(0.0, 30.0, 3001)
    phases = np.exp(1j * np.outer(ts, lam - mu))
    d1 = phases @ (1j * w * (lam - mu))
    d2 = phases @ (-w * (lam - mu) ** 2)
    assert np.max(np.abs(d1)) <= slope * (1.0 + 1e-9) + 1e-12
    assert np.max(np.abs(d2)) <= bound * (1.0 + 1e-9) + 1e-12


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


def _full_scan(lam, coef, reducer, window, xtol, ceiling=None, band=0.0):
    """The reference for _scan_minima, a scan of every grid point:
    _grid_values on the whole grid, then the grid-local-minimum test and
    one _newton_batch on every minimum it finds.  It prunes nothing, so it
    reads no bound of the reducer."""
    ts, vals = _grid_values(lam, coef, reducer.value, window)
    threshold = ceiling if ceiling is not None else float(vals.min()) + band
    mid, lo, hi = vals[1:-1], vals[:-2], vals[2:]
    at = np.flatnonzero((mid <= lo) & (mid <= hi) & ((mid < lo) | (mid < hi))) + 1
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


def _defect(k):
    """find_equality_time's alignment defect for a k-term support as the
    value and terms that a scan of every grid point (_full_scan) and
    _newton_batch read."""
    terms = _alignment_defect(k)
    return SimpleNamespace(value=lambda z: terms(z, z, z)[0], terms=terms)


def _scan_case(rng, name, tied):
    """(lam, coef, reducer, mode) of one search: mode is 'band' for
    minimize_diagonal's threshold, 'low' for subset_bound's and 'ceiling'
    for the fixed ceilings of the column scans.  The 'defect' case is
    find_equality_time's Newton refinement, which no scan runs: its
    reducer has a value and terms only (_defect).
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
        return lam - lam[0], sign, _defect(k), "ceiling"
    m = int(rng.integers(1, 5))
    coef = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
    coef /= np.linalg.norm(coef)
    return lam, coef, _leak if name == "leak" else _neg_peak, "ceiling"


# around the one-level gate of 8 _COARSE points and with partial coarse
# intervals at the end ((npts - 1) % _COARSE != 0)
_SCAN_GRIDS = (None, 5, 8, 29, 33, 34, 35, 36, 128, 129, 130, 131, 132, 140, 1001, 4099)
_SCAN_WINDOWS = ((0.0, 40.0), (0.7, 40.0), (3.0, 9.5))


def _compare_scans(rng, name, tied, window):
    lam, coef, reducer, mode = _scan_case(rng, name, tied)
    xtol = 1e-12
    ref = _full_scan(lam, coef, reducer, window, xtol)
    kw = {}
    if mode == "band":
        kw = {"band": _TIE_BAND}
    elif mode == "ceiling":
        # a ceiling a few minima reach, so that pruning decides which
        kw = {"ceiling": float(np.quantile(np.concatenate((ref.f, ref.ends)), 0.3))}
    ref = _full_scan(lam, coef, reducer, window, xtol, **kw)
    new = _scan_minima(lam, coef, reducer, window, xtol, **kw)
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


@pytest.mark.parametrize("name", ["sq", "subset", "leak", "neg_peak"])
@pytest.mark.parametrize("tied", [False, True])
def test_two_level_scan_matches_the_full_grid(name, tied, two_levels, monkeypatch):
    rng = np.random.default_rng([len(name), tied])
    brackets = 0
    for grid in _SCAN_GRIDS:
        _force_grid(monkeypatch, grid)
        for window in _SCAN_WINDOWS:
            for _ in range(3):
                brackets += _compare_scans(rng, name, tied, window)
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
    _force_grid(monkeypatch, grid)
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


# -- the reducers' floors ------------------------------------------------------


def _bound_case(rng, name):
    """(lam, coef, reducer) of a random search with that reducer."""
    k = int(rng.integers(2, 7))
    lam = rng.uniform(-3.0, 3.0, k)
    if name == "sq":
        w = rng.random(k)
        return lam, (w / w.sum())[:, None], _sq
    m = int(rng.integers(1, 4))
    coef = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
    return lam, coef, _leak if name == "leak" else _neg_peak


def _floor_breaches(name, scale):
    """How many of 300 random intervals [t, t + h] hold a dense sample of
    the reducer's f below its floor there (_interval_floor), with every
    chord error e scaled by scale.  Each interval holds the least f within
    2h of a random time, where pruning decides."""
    rng = np.random.default_rng(len(name))
    s = np.linspace(0.0, 1.0, 401)
    breaches = 0
    for _ in range(300):
        lam, coef, reducer = _bound_case(rng, name)
        scaled = reducer._replace(floor=lambda a, b, e, r=reducer: r.floor(a, b, scale * e))
        t, h = float(rng.uniform(0.0, 50.0)), float(rng.uniform(0.05, 1.0))
        near = t + h * np.linspace(-2.0, 2.0, 401)
        t = near[np.argmin(reducer.value(_trig_sums(lam, coef, near)))]
        t -= h * float(rng.uniform(0.2, 0.8))
        z = _trig_sums(lam, coef, t + h * s)
        f = reducer.value(z)
        moments = _demodulated(lam, coef)
        floor = _interval_floor(scaled, moments, h)(z[:1], z[-1:])[0]
        breaches += f.min() < floor - 1e-12 * (1.0 + np.max(np.abs(f)))
    return breaches


@pytest.mark.parametrize("name", ["sq", "leak", "neg_peak"])
def test_declared_bounds_hold(name):
    """Dense samples of the reducer's f on random intervals never fall
    below its floor from the sums at the interval's ends.  The floor is
    not slack: with half of each chord error e, some interval breaks it."""
    assert _floor_breaches(name, 1.0) == 0
    assert _floor_breaches(name, 0.5) > 0


def _cut_breaches(name, scale):
    """How many of 300 random brackets [t - h, t + h] hold a dense sample of
    the reducer's f so low that the value at t exceeds the reducer's cut of
    it, with the radius h times the slope bound (_Moments), scaled by
    scale."""
    rng = np.random.default_rng([len(name), 1])
    s = np.linspace(-1.0, 1.0, 801)
    breaches = 0
    for _ in range(300):
        lam, coef, reducer = _bound_case(rng, name)
        t, h = float(rng.uniform(0.0, 50.0)), float(rng.uniform(0.05, 1.0))
        f = reducer.value(_trig_sums(lam, coef, t + h * s))
        slope = _demodulated(lam, coef).slope
        cut = reducer.cut(float(f.min()), scale * h * slope)
        breaches += f[400] > cut + 1e-12 * (1.0 + np.max(np.abs(f)))
    return breaches


@pytest.mark.parametrize("name", ["sq", "leak", "neg_peak"])
def test_cut_holds(name):
    """A time within a bracket's half-width of a sample reaches no value
    that the reducer's cut of it, with the radius that distance bounds
    each column's move by, puts below the sample.  With a fifth of the
    radius, some bracket breaks it."""
    assert _cut_breaches(name, 1.0) == 0
    assert _cut_breaches(name, 0.2) > 0


def _no_cut(t, r):
    return math.inf


@pytest.mark.parametrize("name", ["sq", "subset", "leak", "neg_peak"])
@pytest.mark.parametrize("levels", [1, 2])
def test_cut_keeps_the_brackets_the_floor_keeps(name, levels, monkeypatch):
    """A scan that tests only the grid-local minima at most the reducer's
    cut of its threshold against their bracket floors refines the
    brackets, and finds the bits, of the scan that computes the floor of
    every grid-local minimum; and the cut spares some floors."""
    if levels == 2:
        monkeypatch.setattr(walk, "_TWO_LEVEL", 0)
    rng = np.random.default_rng([len(name), levels])
    rows = {True: 0, False: 0}
    for grid in (None, 129, 1001, 4099):
        _force_grid(monkeypatch, grid)
        for window in _SCAN_WINDOWS:
            for _ in range(2):
                lam, coef, reducer, mode = _scan_case(rng, name, bool(rng.random() < 0.3))
                kw = {"band": _TIE_BAND} if mode == "band" else {}
                if mode == "ceiling":
                    ref = _full_scan(lam, coef, reducer, window, 1e-12)
                    quantile = np.quantile(np.concatenate((ref.f, ref.ends)), 0.3)
                    kw = {"ceiling": float(quantile)}
                scans = {}
                for cut in (True, False):
                    counted = reducer._replace(
                        floor=lambda a, b, e, r=reducer, k=cut: (
                            rows.__setitem__(k, rows[k] + len(a)) or r.floor(a, b, e)),
                        cut=reducer.cut if cut else _no_cut)
                    scans[cut] = _scan_minima(lam, coef, counted, window, 1e-12, **kw)
                for got, want in zip(scans[True], scans[False]):
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # the coarse floors are the same with and without the cut
    assert rows[True] < rows[False]


def test_open_window_scan_evaluates_a_small_share_of_the_grid(monkeypatch):
    """On the first vertex of the seed-1 G(120, 0.1) workload, the coarse
    pass's tables cover every _COARSE-th grid point, and the coarse pass,
    the fine pass and the brackets of the minima together evaluate at most
    12% of the grid, each in one _fine_values call.  The fine pass takes no
    exponential per run: outside the Newton steps the scan takes the
    exponentials of the coarse tables and the fine step table, doubled
    together, and one chord turn each for the coarse floors and for the
    brackets."""
    rng = np.random.default_rng([1, 0])
    g = _gnp(rng, 120, 0.1)
    u = int(rng.integers(120))
    w = WalkEvaluator.for_graph(g)
    k = len(w.spectrum(u).eigenvalues)
    tables, points, evaluated, newton = [], [], [], []
    real_tables, real_fine, real_newton, real_exp = (
        walk._tables, walk._fine_values, walk._newton_batch, np.exp)

    def counted(x, *args, **kwargs):
        out = real_exp(x, *args, **kwargs)
        if not newton:
            evaluated.append(np.size(out))
        return out

    def refine(*args):
        newton.append(True)
        try:
            return real_newton(*args)
        finally:
            newton.pop()

    monkeypatch.setattr(walk, "_tables", lambda *a: tables.append(a[3]) or real_tables(*a))
    monkeypatch.setattr(walk, "_fine_values",
                        lambda *a: points.append(len(a[2]) * len(a[3])) or real_fine(*a))
    monkeypatch.setattr(walk, "_newton_batch", refine)
    monkeypatch.setattr(np, "exp", counted)
    res = w.minimize_diagonal(u, (0.0, DEFAULT_WINDOW))
    monkeypatch.undo()
    assert res.grid > 100_000
    coarse = (res.grid - 1) // _COARSE + 1
    assert tables == [coarse]
    # the coarse pass, the fine pass and the brackets of the minima
    assert len(points) == 3 and sum(points) <= 0.12 * res.grid
    n = min(_CHUNK, math.ceil(math.sqrt(coarse)))
    q = -(-coarse // n)
    assert points[0] == q * (n + 1) and points[2] % 3 == 0
    levels = math.ceil(math.log2(max(q, n + 1, _COARSE + 3)))
    assert sum(evaluated) == k * (1 + 3 * levels) + 2
    assert res.refinements <= 30


@pytest.mark.parametrize("span", [1, 2, 4, 16])
def test_fine_points_take_each_block_point_once(span):
    rng = np.random.default_rng(span)
    for _ in range(200):
        npts = span * int(rng.integers(2, 30)) + int(rng.integers(1, span + 1))
        j = np.flatnonzero(rng.random(-(-(npts - 1) // span)) < rng.random())
        if not len(j):
            continue
        take, idx = _fine_points(j, span, npts)
        blocks = (span * j - 1)[:, None] + np.arange(span + 3)
        want = np.unique(blocks[(blocks >= 0) & (blocks < npts)])
        assert np.array_equal(idx, want)
        assert np.array_equal(blocks[take], idx)


def test_small_scans_take_one_level(monkeypatch):
    """A scan of fewer than _TWO_LEVEL grid points times terms evaluates
    every grid point once, in one _fine_values call on the grid's _tables,
    and refines as the full-grid scan does."""
    w = _walk("lollipop:5,2")
    lam, wts = w.spectrum(0)[:2]
    coef = wts[:, None]
    calls, fine = [], []
    real_tables, real_fine = walk._tables, walk._fine_values
    monkeypatch.setattr(walk, "_tables", lambda *a: calls.append(a[3]) or real_tables(*a))
    monkeypatch.setattr(walk, "_fine_values",
                        lambda *a: fine.append(len(a[2]) * len(a[3])) or real_fine(*a))
    res = w.minimize_diagonal(0, (0.0, DEFAULT_WINDOW))
    assert res.grid * len(lam) < walk._TWO_LEVEL
    n = min(_CHUNK, math.ceil(math.sqrt(res.grid)))
    assert calls == [res.grid] and fine == [-(-res.grid // n) * n]
    monkeypatch.undo()
    ref = _full_scan(lam, coef, _sq, (0.0, DEFAULT_WINDOW), 1e-10, band=_TIE_BAND)
    best, at = _best(ref, (0.0, DEFAULT_WINDOW))
    assert (res.minimum, res.argmin) == (math.sqrt(best), at)


def test_column_scan_memory():
    """A two-level perfect-state-transfer scan (_neg_peak over the 124
    other columns of hamming:3,5) builds no array of grid points times
    columns: its floors are reduced per product of phase tables."""
    w = _walk("hamming:3,5")
    lam = w.decomposition.eigenvalues
    # 10 periods: 9600 grid points of 4 distinct eigenvalues, two levels
    window = (0.0, 20.0 * math.pi)
    w.spectrum(0)
    tracemalloc.start()
    try:
        pst = w.find_perfect_state_transfer(0, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pst is None
    npts = walk._grid_size(window[1], float(lam.max() - lam.min()))
    cols = w.n - 1
    assert npts * len(lam) * cols >= walk._TWO_LEVEL
    # one complex grid x columns array
    assert peak < npts * cols * 16 / 2
