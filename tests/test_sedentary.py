import collections
import dataclasses
import gc
import itertools
import json
import math
import pathlib
import time
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwsed.graphs import (
    WeightedGraph,
    blow_up,
    build_family,
    cartesian_product,
    complete_graph,
    cone,
    cycle_graph,
    double_cone,
    join,
    parse_family,
    path_graph,
    star_graph,
)
from qwsed.matrices import (ADJACENCY, LAPLACIAN, NORMALIZED_ADJACENCY, assemble,
                            parse_matrix_kind)
from qwsed.cli import main
from qwsed.sedentary import (
    NOT_SEDENTARY,
    SEDENTARY_AT_LEAST,
    SHARPLY_SEDENTARY,
    SUBSET_BOUND,
    TIGHTLY_SEDENTARY,
    UNRESOLVED,
    CertificateRefused,
    ClassifyOptions,
    UnsupportedSpectrum,
    _merge_odd_lattices,
    classify,
    classify_vertices,
    equality_condition,
    family_ruling,
    find_equality_time,
    find_zero_crossing,
    product_compose,
    sharpness_parity,
    subset_bound,
    twin_bound,
)
from qwsed import sedentary, spectral, walk
from qwsed.spectral import decompose
from qwsed.walk import WalkEvaluator
from twin_reference import twin_bound_reference


def _walk(fam, kind=ADJACENCY):
    return WalkEvaluator.for_graph(build_family(parse_family(fam)), kind)


def _classify(fam, u, kind=ADJACENCY):
    return classify(build_family(parse_family(fam)), u, kind)


def _rank_one_spectrum(eigenvalues, weights):
    """Symmetric matrix whose vertex-0 support carries the given weights."""
    x = np.sqrt(np.asarray(weights, dtype=float))
    m = np.column_stack([x] + [np.eye(len(x))[:, j] for j in range(1, len(x))])
    w, _ = np.linalg.qr(m)
    if w[0, 0] < 0:
        w[:, 0] = -w[:, 0]
    v = w.T
    return sum(lam * np.outer(v[:, j], v[:, j])
               for j, lam in enumerate(eigenvalues))


# -- subset bounds ---------------------------------------------------------------


def test_subset_bound_singleton():
    w = _walk("complete:5")
    cert = subset_bound(w, 0, (1,))
    assert cert.bound == pytest.approx(0.6, abs=1e-12)
    assert cert.weight == pytest.approx(0.8)
    assert cert.analytic and cert.certified


def test_subset_bound_refuses_light_subsets():
    w = _walk("complete:5")
    with pytest.raises(CertificateRefused):
        subset_bound(w, 0, (0,))  # weight 1/5
    with pytest.raises(CertificateRefused):
        subset_bound(w, 0, (0, 1))  # whole support
    with pytest.raises(CertificateRefused):
        subset_bound(w, 0, ())


def test_subset_bound_pair_certified_window():
    w = _walk("rook:3,4")
    sup = w.spectrum(0)
    heavy = [sup.indices[i] for i in range(len(sup.indices))
             if sup.weights[i] >= 0.4]
    pair = (sup.indices[0], heavy[0])
    cert = subset_bound(w, 0, pair)
    assert not cert.analytic
    assert cert.certified  # integer spectrum gives a certified period
    res = w.minimize_diagonal(0)
    assert cert.bound <= res.minimum + 1e-9


def test_subset_bound_uncertified_past_the_grid_cap():
    # period 2 pi, but a scan of it would need 64 * 40000 > _GRID_CAP points
    w = WalkEvaluator(decompose(_rank_one_spectrum((40000.0, 1.0, 0.0),
                                                   (0.6, 0.1, 0.3))))
    assert w.spectrum(0).periodicity.period == pytest.approx(2.0 * math.pi)
    window, certified = w.default_window(0)
    assert window == pytest.approx((0.0, 2.0 * math.pi)) and not certified
    cert = subset_bound(w, 0, (0, 2))
    assert cert.bound == pytest.approx(0.2, abs=1e-6)
    assert not cert.certified and "open window" in cert.detail


def test_equality_condition_complete_graph():
    w = _walk("complete:5")
    assert equality_condition(w, 0, (1,), math.pi / 5.0)
    assert not equality_condition(w, 0, (1,), math.pi / 7.0)


def test_find_equality_time():
    w = _walk("complete:5")
    t = find_equality_time(w, 0, (1,), (0.0, 2.0 * math.pi / 5.0))
    assert t == pytest.approx(math.pi / 5.0, abs=1e-8)
    w4 = _walk("star:4")
    t4 = find_equality_time(w4, 1, (1,), (0.0, math.pi))
    assert t4 == pytest.approx(math.pi / 2.0, abs=1e-8)


def test_star_400_leaf_laplacian_within_budget():
    """The twin check of a 400-leaf class is one pass over its columns.
    The best of three calls, each on a fresh graph, meets the budget, so a
    cold first call (imports, allocator, CPU clock) does not decide it."""
    times = []
    for _ in range(3):
        g = build_family(parse_family("star:400"))
        start = time.perf_counter()
        report = classify(g, 1, LAPLACIAN).to_dict()
        times.append(time.perf_counter() - start)
        assert report["classification"] == TIGHTLY_SEDENTARY
        assert report["C"] == pytest.approx(1.0 - 2.0 / 400, abs=1e-12)
    assert min(times) < 0.2


@pytest.mark.parametrize("build,kind,factor_vertices,groups", [
    # vertex-transitive: one support group of all twelve vertices
    (lambda: build_family(parse_family("rook:3,4")), ADJACENCY, 0, 1),
    # the equal factors share one context, where S_3's centre and one leaf
    # are classified, each in a group of its own when the product first
    # asks, and the other two leaves are that leaf's twins, which carry its
    # report and read their twin bounds from their supports, with no
    # record; the product's vertices fall into three support groups
    (lambda: cartesian_product(star_graph(3), star_graph(3)), LAPLACIAN, 2, 5),
], ids=["rook:3,4-adjacency", "star3xstar3-laplacian"])
def test_vertex_spectrum_computed_once_per_vertex(monkeypatch, build, kind,
                                                  factor_vertices, groups):
    """Classification computes at most one record (support and
    periodicity) per vertex and evaluator, however many certificates read
    it, and one periodicity call serves each group of vertices that share a
    support.  A support is made once more for each twin bound made, and
    for nothing else.  The graph is built here, so no earlier call has
    left spectra on it."""
    g = build()
    calls = {name: collections.Counter() for name in ("support", "periodicity", "twin")}
    periodicity_calls, made = [], {}

    def counted_support(d, u, *args, **kwargs):
        calls["support"][(id(d), u)] += 1
        sup = spectral_support(d, u, *args, **kwargs)
        made[id(sup.weights)] = (id(d), sup)
        return sup

    def counted_periodicity(fit, weights):
        # a call's members are the supports whose weights it is given
        members = [made[id(w)] for w in weights]
        periodicity_calls.append([sup.vertex for _, sup in members])
        calls["periodicity"].update((d, sup.vertex) for d, sup in members)
        return spectral_periodicity(fit, weights)

    def counted_twin_bound(graph, u, kind):
        cert = real_twin_bound(graph, u, kind)
        # a bound that is made reads u's support once; a refused one none
        calls["twin"][(id(sedentary._graph_spectra(graph, kind).walk.decomposition), u)] += 1
        return cert

    spectral_support, spectral_periodicity = spectral.support, spectral.periodicity
    real_twin_bound = sedentary.twin_bound
    for module in (spectral, walk):
        monkeypatch.setattr(module, "support", counted_support)
        monkeypatch.setattr(module, "periodicity", counted_periodicity)
    monkeypatch.setattr(sedentary, "twin_bound", counted_twin_bound)
    reports = classify_vertices(g, range(g.n), kind)
    assert {r.vertex for r in reports} == set(range(g.n))
    assert len(calls["periodicity"]) == g.n + factor_vertices
    assert set(calls["periodicity"].values()) == {1}
    assert calls["support"] == calls["periodicity"] + calls["twin"]
    assert len(periodicity_calls) == groups


def _random_graphs(rng):
    for _ in range(4):
        yield build_family(parse_family(
            f"rook:{rng.integers(2, 5)},{rng.integers(3, 6)}"))
    for _ in range(4):
        n = int(rng.integers(4, 7))
        yield WeightedGraph(n, tuple((i, j, float(rng.uniform(0.5, 2.0)))
                                     for i in range(n) for j in range(i + 1, n)))
    for _ in range(8):
        n = int(rng.integers(5, 9))
        upper = np.triu(rng.random((n, n)) < 0.5, k=1)
        yield WeightedGraph(n, tuple((int(a), int(b), 1.0)
                                     for a, b in zip(*np.nonzero(upper))))


def test_subset_bound_never_exceeds_dense_partial_sum():
    rng = np.random.default_rng(11)
    window = (0.0, 30.0)
    ts = np.linspace(*window, 30_001)
    checked = 0
    for g in _random_graphs(rng):
        w = WalkEvaluator.for_graph(g, ADJACENCY)
        for u in range(min(g.n, 3)):
            sup = w.spectrum(u)
            phases = np.exp(1j * np.outer(ts, sup.eigenvalues))
            subsets = itertools.chain(*(itertools.combinations(range(len(sup.indices)), r)
                                        for r in (2, 3)))
            for sub in subsets:
                if len(sub) >= len(sup.indices) or sum(sup.weights[p] for p in sub) < 0.5:
                    continue
                cert = subset_bound(w, u, [sup.indices[p] for p in sub], window)
                wts = np.array([sup.weights[p] for p in sub])
                dense = float(np.min(np.abs(phases[:, list(sub)] @ wts)))
                assert cert.bound <= max(dense - (1.0 - cert.weight), 0.0) + 1e-12
                checked += 1
    assert checked >= 20


# -- twin bounds -----------------------------------------------------------------


def test_twin_bound_complete():
    g = build_family(parse_family("complete:5"))
    cert = twin_bound(g, 0, ADJACENCY)
    assert cert.bound == pytest.approx(0.6)
    assert cert.subset and cert.weight == pytest.approx(0.8)


def test_twin_bound_pair_is_vacuous_but_reported():
    g = build_family(parse_family("path:3"))
    cert = twin_bound(g, 0, ADJACENCY)
    assert cert.bound == 0.0
    # the ends' difference vector is verified at theta = 0, where e_0 has
    # half its mass
    assert cert.subset and cert.weight == pytest.approx(0.5)


def test_twin_bound_refused_without_twin():
    g = build_family(parse_family("path:4"))
    with pytest.raises(CertificateRefused):
        twin_bound(g, 0, ADJACENCY)


def test_twin_bound_soundness_on_blow_up():
    g = blow_up(path_graph(3), "vertex",
                [(4, "empty"), (1, "empty"), (3, "empty")])
    d = decompose(assemble(g, ADJACENCY).matrix)
    cert = twin_bound(g, 0, ADJACENCY)
    assert cert.bound == pytest.approx(1.0 - 2.0 / 7.0)
    res = WalkEvaluator(d).minimize_diagonal(0)
    assert res.minimum >= cert.bound - 1e-6


def test_twin_bounds_match_per_kind_classes_on_weighted_blow_ups():
    """On vertex blow-ups of small graphs with non-dyadic weights and
    loops, every twin bound, under all five kinds on one graph object, is
    field for field the reference's: theta by the kind's closed form, the
    check and the mass read off a decomposition of the kind's matrix made
    for that bound alone."""
    rng = np.random.default_rng(29)
    weights = (0.1, 0.3, 0.7, 1.0 / 3.0, 2.0 / 3.0)
    kinds = [parse_matrix_kind(k) for k in
             ("adjacency", "laplacian", "gen:0.5", "norm-adj", "norm-lap")]
    certified = 0
    for _ in range(40):
        n = int(rng.integers(2, 6))
        edges = {(a, b): weights[int(rng.integers(5))] for a in range(n)
                 for b in range(a, n) if rng.random() < (0.3 if a == b else 0.6)}
        edges[(0, 1)] = float(rng.uniform(0.05, 3.0))
        base = WeightedGraph(n, tuple((a, b, w) for (a, b), w in edges.items()))
        parts = [(int(rng.integers(1, 4)), ("empty", "complete")[int(rng.integers(2))])
                 for _ in range(n)]
        g = blow_up(base, "vertex", parts)
        for kind in kinds:
            for u in range(g.n):
                try:
                    want = twin_bound_reference(g, u, kind)
                except CertificateRefused as exc:
                    with pytest.raises(CertificateRefused, match=str(exc)):
                        twin_bound(g, u, kind)
                    continue
                assert twin_bound(g, u, kind) == want, (g, kind, u)
                certified += 1
    assert certified >= 300


# -- integer relations -----------------------------------------------------------


def integer_kernel_basis(rows):
    """Basis of the integer kernel {x : R x = 0} of an integer matrix R: the
    reference sharpness_parity's parity-class test is checked against.

    Column-style elimination with unimodular operations; the transform
    columns that end up annihilated by every row form a lattice basis of the
    kernel.  All arithmetic is exact, and the result is verified.
    """
    mat = [[int(x) for x in row] for row in rows]
    n = len(mat[0])
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
            assert sum(a * b for a, b in zip(row, vec)) == 0
    return basis


def test_integer_kernel_basis_frozen():
    basis = integer_kernel_basis([[3, 1, -1, -3], [1, 1, 1, 1]])
    assert len(basis) == 2
    for vec in basis:
        assert 3 * vec[0] + vec[1] - vec[2] - 3 * vec[3] == 0
        assert sum(vec) == 0


def test_integer_kernel_trivial():
    assert integer_kernel_basis([[1, 0], [0, 1]]) == []


def test_integer_kernel_single_row():
    basis = integer_kernel_basis([[2, -4]])
    assert len(basis) == 1
    a, b = basis[0]
    assert 2 * a - 4 * b == 0 and (a, b) != (0, 0)


@st.composite
def _coordinates(draw):
    """Period coordinates as period_fit makes them: 2 to 8 nonnegative
    integers, one of them 0 and not all 0, repeats allowed, times a common
    factor."""
    k = draw(st.integers(2, 8))
    rest = draw(st.lists(st.integers(0, 60), min_size=k - 1, max_size=k - 1)
                .filter(any))
    factor = draw(st.integers(1, 30))
    p = [0] + [factor * x for x in rest]
    return draw(st.permutations(p))


@settings(max_examples=300, deadline=None)
@given(p=_coordinates())
def test_sharpness_parity_is_the_lattice_parity_test(p):
    """On every proper nonempty subset of the support, sharpness_parity
    accepts exactly when every relation of a kernel basis of [p; 1] has an
    even coefficient sum over the subset, and that basis has k - 2
    relations, the count its detail gives."""
    k = len(p)
    basis = integer_kernel_basis([p, [1] * k])
    assert len(basis) == k - 2
    fit = spectral.PeriodFit("integer-spectrum", 1.0, tuple(p), 1.0)
    for size in range(1, k):
        for subset in itertools.combinations(range(k), size):
            # mass 3/4 on the subset, so the parity alone decides
            weights = np.array([0.75 / size if j in subset else 0.25 / (k - size)
                                for j in range(k)])
            rec = walk.VertexSpectrum(np.array(p, dtype=float), weights,
                                      tuple(range(k)), fit)
            w = types.SimpleNamespace(spectrum=lambda u, rec=rec: rec)
            even = all(sum(vec[j] for j in subset) % 2 == 0 for vec in basis)
            try:
                cert = sharpness_parity(w, 0, subset)
            except CertificateRefused:
                assert not even, (p, subset)
                continue
            assert even, (p, subset)
            assert cert.detail.endswith(f"({k - 2} basis relations checked)")
            assert cert.bound == pytest.approx(0.5)


def test_sharpness_parity_vacuous_on_complete():
    cert = sharpness_parity(_walk("complete:5"), 0, (1,))
    assert cert.bound == pytest.approx(0.6)


def test_sharpness_parity_refused_on_odd_relation():
    h = _rank_one_spectrum((3.0, 1.0, 0.0), (0.2, 0.55, 0.25))
    w = WalkEvaluator(decompose(h))
    with pytest.raises(CertificateRefused):
        sharpness_parity(w, 0, (1,))


def test_sharpness_parity_unsupported_spectrum():
    w = _walk("path:4")
    sup = w.spectrum(0)
    heavy = max(range(len(sup.indices)), key=lambda i: sup.weights[i])
    with pytest.raises((UnsupportedSpectrum, CertificateRefused)):
        sharpness_parity(w, 0, (sup.indices[heavy],))


# -- zero crossings --------------------------------------------------------------


def test_zero_crossing_edge():
    cert = find_zero_crossing(_walk("complete:2"), 0)
    assert cert.bound == 0.0
    assert cert.equality_times[0] == pytest.approx(math.pi / 2.0, abs=1e-10)


def test_zero_crossing_double_star_internal():
    w = _walk("doublestar:2,2")
    cert = find_zero_crossing(w, 2, (0.0, 2.0 * math.pi))
    t0 = cert.equality_times[0]
    assert 0.0 < t0 < 2.0 * math.pi
    assert abs(w.transition_entry(t0, 2, 2)) < 1e-9


def test_zero_crossing_refused_for_asymmetric_diagonal():
    with pytest.raises(CertificateRefused):
        find_zero_crossing(_walk("complete:5"), 0)


def test_zero_crossing_refused_without_sign_change():
    # the path end grazes zero without crossing
    with pytest.raises(CertificateRefused):
        find_zero_crossing(_walk("path:3"), 0, (0.0, 2.0))


def _corpus_zero_crossings():
    """(family, kind, vertex, window, time) of every zero-crossing
    certificate in the golden corpus that a sign change proved."""
    path = pathlib.Path(__file__).with_name("golden") / "reports.json"
    out = []
    for case in json.loads(path.read_text(encoding="utf-8"))["cases"]:
        argv = case["argv"]
        if argv[0] != "analyze":
            continue
        for rep in case["output"]:
            for c in rep["certificates"]:
                if c["detail"].startswith("real diagonal changes sign"):
                    out.append((argv[2], argv[4], rep["vertex"],
                                tuple(rep["oracle"]["window"]), c["equality_times"][0]))
    return out


def test_zero_crossing_agrees_with_brentq():
    # brentq on the real diagonal sum_j w_j cos(mu_j t) (mu_j the support
    # eigenvalues less their midpoint) near each frozen time, not through
    # the search's own refinement
    from scipy.optimize import brentq

    cases = _corpus_zero_crossings()
    assert len(cases) == 18
    for fam, kind, u, window, frozen in cases:
        w = _walk(fam, parse_matrix_kind(kind))
        lam, wts = w.spectrum(u)[:2]
        mu = lam - (lam.max() + lam.min()) / 2.0

        def real_diagonal(t):
            return float(np.sum(wts * np.cos(mu * t)))

        a, b = frozen - 1e-6, frozen + 1e-6
        assert real_diagonal(a) * real_diagonal(b) < 0.0
        t_brentq = brentq(real_diagonal, a, b, xtol=1e-15)
        t = find_zero_crossing(w, u, window).equality_times[0]
        assert abs(t - t_brentq) <= 1e-12
        assert abs(t - frozen) <= 1e-12


def _double_star_s22():
    """S_{2,2} as a plain graph: centres 0 and 3, leaves 1, 2 and 4, 5."""
    return WeightedGraph(6, ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (3, 4, 1.0),
                             (3, 5, 1.0)))


@pytest.mark.parametrize("graph, u, window", [
    (_double_star_s22(), 4, (0.0, 1e20)),
    (complete_graph(2), 0, (0.0, 1e300)),
], ids=["s22-leaf-1e20", "k2-1e300"])
def test_zero_crossing_refuses_sign_changes_of_rounded_phases(graph, u, window):
    # on a long window the rounding of the phases t mu_j flips the sign of
    # grid values that are not small: |U| never drops below 1/4 on the leaf,
    # and K_2's zeros |cos t| = 0 are far finer than a grid step of 5e293
    with pytest.raises(CertificateRefused):
        find_zero_crossing(WalkEvaluator.for_graph(graph, ADJACENCY), u, window)


def test_zero_crossing_long_window_still_certifies():
    w = _walk("path:5")
    t = find_zero_crossing(w, 0, (0.0, 1e12)).equality_times[0]
    assert 0.0 < t < 1e12
    # |U| is at the rounding of the phases t lam at that time
    assert abs(w.transition_entry(t, 0, 0)) <= 1e-8


# -- family catalogue ------------------------------------------------------------


def _ruling(fam, kind, u=0):
    return family_ruling(build_family(parse_family(fam)), kind, u)


def test_family_ruling_complete():
    ruling = _ruling("complete:6", ADJACENCY)
    assert ruling.classification == TIGHTLY_SEDENTARY
    assert ruling.bound == pytest.approx(2.0 / 3.0)
    assert ruling.equality_times[0] == pytest.approx(math.pi / 6.0)
    assert _ruling("complete:2", LAPLACIAN).classification == NOT_SEDENTARY


def test_family_ruling_rook_alignment():
    same = _ruling("rook:3,5", ADJACENCY)
    assert same.classification == TIGHTLY_SEDENTARY
    assert same.bound == pytest.approx(0.2)
    assert same.equality_times[0] == pytest.approx(math.pi)
    mixed = _ruling("rook:3,4", ADJACENCY)
    assert mixed.classification == SEDENTARY_AT_LEAST
    assert mixed.bound == pytest.approx(1.0 / 6.0)
    two = _ruling("rook:2,5", ADJACENCY)
    assert two.classification == NOT_SEDENTARY


def test_family_ruling_star_roles():
    leafa = _ruling("star:9", ADJACENCY, 1)
    assert leafa.classification == TIGHTLY_SEDENTARY
    assert leafa.bound == pytest.approx(1.0 - 2.0 / 9.0)
    assert leafa.equality_times[0] == pytest.approx(math.pi / 3.0)
    centa = _ruling("star:9", ADJACENCY, 0)
    assert centa.classification == NOT_SEDENTARY
    centl = _ruling("star:9", LAPLACIAN, 0)
    assert centl.bound == pytest.approx(0.8)
    # no ruling for normalized kinds
    assert _ruling("star:9", NORMALIZED_ADJACENCY, 1) is None


def test_family_ruling_double_cone_laplacian():
    for n, expect in ((4, 1.0 / 3.0), (8, 0.2)):
        ruling = _ruling(f"doublecone:disconnected:empty:{n}", LAPLACIAN)
        assert ruling.classification == TIGHTLY_SEDENTARY
        assert ruling.bound == pytest.approx(expect)
        assert ruling.equality_times[0] == pytest.approx(math.pi / 2.0)
    odd = _ruling("doublecone:disconnected:empty:7", LAPLACIAN)
    assert odd.bound == pytest.approx(math.sqrt(2.0) / 9.0)
    pst = _ruling("doublecone:disconnected:empty:6", LAPLACIAN)
    assert pst.classification == NOT_SEDENTARY


def test_family_ruling_double_cone_adjacency():
    ruling = _ruling("doublecone:disconnected:cycle:4", ADJACENCY)
    assert ruling.classification == TIGHTLY_SEDENTARY
    assert ruling.bound == pytest.approx(1.0 / 3.0)
    assert ruling.equality_times[0] == pytest.approx(math.pi / 2.0)
    # nonsquare discriminant: infimum zero without attainment
    ruling = _ruling("doublecone:disconnected:cycle:5", ADJACENCY)
    assert ruling.classification == NOT_SEDENTARY
    assert ruling.equality_times == ()


def test_family_ruling_double_star():
    bal = _ruling("doublestar:2,2", ADJACENCY)
    assert bal.classification == TIGHTLY_SEDENTARY
    assert bal.bound == pytest.approx(0.25)
    assert bal.equality_times[0] == pytest.approx(2.0 * math.pi / 3.0)
    unb = _ruling("doublestar:2,5", ADJACENCY)
    assert unb.classification == NOT_SEDENTARY
    sharp = _ruling("doublestar:3,4", ADJACENCY)
    assert sharp.classification == SHARPLY_SEDENTARY
    assert sharp.bound == pytest.approx(1.0 / 3.0)
    square = _ruling("doublestar:9,16", ADJACENCY)
    assert square.classification == SEDENTARY_AT_LEAST


def test_family_ruling_cone():
    la = _ruling("cone:cycle:6", LAPLACIAN)
    assert la.bound == pytest.approx(1.0 - 2.0 / 7.0)
    assert la.equality_times[0] == pytest.approx(math.pi / 7.0)
    ad = _ruling("cone:cycle:6", ADJACENCY)
    assert ad.bound == pytest.approx(2.0 / math.sqrt(28.0))
    assert ad.equality_times[0] == pytest.approx(math.pi / math.sqrt(28.0))


_JOIN_BASES = ("empty:1", "empty:2", "empty:3", "empty:4", "empty:6",
               "complete:2", "complete:3", "complete:4", "path:3", "path:4",
               "cycle:4", "cycle:5", "cycle:6", "star:3", "rook:2,3")
_JOIN_FAMILIES = ([f"star:{k}" for k in range(1, 13)]
                  + [f"{top}:{base}" for base in _JOIN_BASES
                     for top in ("cone", "doublecone:connected",
                                 "doublecone:disconnected")])


@pytest.mark.parametrize("kind", ["adjacency", "laplacian", "gen:0.5",
                                  "norm-adj", "norm-lap"])
def test_family_ruling_joins_read_structure_not_provenance(kind):
    mk = parse_matrix_kind(kind)
    for fam in _JOIN_FAMILIES:
        g = build_family(parse_family(fam))
        bare = WeightedGraph(g.n, g.edges)
        for u in range(g.n):
            if fam.startswith("star:") and u > 0 and mk.name == "adjacency":
                # star leaves under the adjacency matrix are ruled by the
                # family name, which the bare edges do not carry
                continue
            named, plain = family_ruling(g, mk, u), family_ruling(bare, mk, u)
            assert (named is None) == (plain is None), (fam, u)
            if named is None:
                continue
            assert named.classification == plain.classification, (fam, u)
            assert named.bound == pytest.approx(plain.bound, abs=1e-12), (fam, u)
            assert named.equality_times == pytest.approx(plain.equality_times,
                                                         abs=1e-12), (fam, u)




def _neighbors_dominating_unit(graph, u):
    """_is_dominating_unit as it read graph.neighbors before it read the
    edge columns."""
    nb = graph.neighbors(u)
    if len(nb) != graph.n - 1 or graph.loop_weight(u) != 0.0:
        return False
    return all(w == 1.0 for w in nb.values())


def _neighbors_joined_block(graph, u, twin_of):
    """_unit_joined_block as it read graph.neighbors."""
    ts = twin_of.get(u)
    if ts is None or ts.eta != 0.0 or ts.omega != 0.0:
        return None
    nb = graph.neighbors(u)
    if set(nb) == set(range(graph.n)) - set(ts.vertices) \
            and all(w == 1.0 for w in nb.values()):
        return ts.size
    return None


def _induced(graph, keep):
    index = {v: i for i, v in enumerate(keep)}
    edges = tuple((index[a], index[b], w) for a, b, w in graph.edges
                  if a in index and b in index)
    return WeightedGraph(len(keep), edges)


def _row_sum_regular_degree(graph):
    """regular_degree as it read the dense adjacency matrix's row sums."""
    a = graph.adjacency_matrix()
    degs = a.sum(axis=1) + np.diag(a)
    d = float(degs[0])
    return d if np.allclose(degs, d, rtol=1e-12, atol=1e-12) else None


def _induced_ruling(graph, kind, u, twin_of):
    """The structural rulings of family_ruling as they read the regular
    degree of an induced remainder or base graph."""
    if (kind.name not in ("adjacency", "laplacian") or graph.n < 2
            or not (graph.is_simple and graph.is_positively_weighted)):
        return None
    laplacian = kind.name == "laplacian"
    if _neighbors_dominating_unit(graph, u):
        if laplacian:
            return sedentary._clique_join_laplacian_ruling(graph.n)
        d = _row_sum_regular_degree(_induced(graph, [v for v in range(graph.n) if v != u]))
        return None if d is None else sedentary._cone_apex_adjacency_ruling(d, graph.n - 1)
    block = _neighbors_joined_block(graph, u, twin_of)
    if block is None or block == graph.n:
        return None
    if laplacian:
        return sedentary._indep_block_laplacian_ruling(block, graph.n - block)
    if block == 2:
        base = _induced(graph, sorted(graph.neighbors(u)))
        d = _row_sum_regular_degree(base)
        if d is not None and base.is_unweighted:
            return sedentary._indep_pair_adjacency_ruling(int(round(d)), base.n)
    return None


def _weighted_cycle(weights):
    n = len(weights)
    return WeightedGraph(n, tuple((i, (i + 1) % n, w) for i, w in enumerate(weights)))


def _ruling_graphs():
    yield from (star_graph(1), star_graph(5), cone(cycle_graph(5)), cone(path_graph(4)),
                double_cone(cycle_graph(4)), double_cone(cycle_graph(6), "connected"),
                double_cone(build_family(parse_family("empty:3"))),
                complete_graph(2), complete_graph(6))
    # weighted regular remainders: the apex's degree less its unit edge
    # rounds apart from a fresh sum of the base's weights
    for weights in ([0.1, 0.7] * 3, [1.0 / 3.0] * 6, [0.1, 0.7, 0.2] * 2):
        base = _weighted_cycle(weights)
        yield from (cone(base), double_cone(base), double_cone(base, "connected"))
    rng = np.random.default_rng(17)
    for _ in range(6):
        n = int(rng.integers(4, 9))
        upper = np.triu(rng.random((n, n)) < 0.5, k=1)
        g = WeightedGraph(n, tuple((int(a), int(b), 1.0) for a, b in zip(*np.nonzero(upper))))
        yield g
        yield cone(g)
        yield join(WeightedGraph(2), g)
    # an apex edge of weight 2, and a loop at the apex
    g = cone(cycle_graph(5))
    yield WeightedGraph(g.n, ((0, 1, 2.0),) + g.edges[1:])
    yield WeightedGraph(g.n, ((0, 0, 1.0),) + g.edges)


def test_rulings_unchanged_from_the_neighbour_maps(monkeypatch):
    for g in _ruling_graphs():
        for kind in (ADJACENCY, LAPLACIAN):
            twins = {v: ts for ts in spectral.find_twin_sets(g) for v in ts.vertices}
            ours = [family_ruling(g, kind, u) for u in range(g.n)]
            for u, ruling in enumerate(ours):
                # the record's degrees, not an induced graph's: equal up to
                # the rounding of d - 1 against a fresh sum
                want = _induced_ruling(g, kind, u, twins)
                assert (ruling is None) == (want is None), (g, kind, u)
                if ruling is not None:
                    assert ruling.classification == want.classification
                    assert ruling.detail == want.detail
                    assert ruling.bound == pytest.approx(want.bound, rel=0, abs=1e-15)
                    assert ruling.equality_times == pytest.approx(
                        want.equality_times, rel=0, abs=1e-15)
            for u in range(g.n):
                assert sedentary._is_dominating_unit(g, u) == _neighbors_dominating_unit(g, u)
                assert sedentary._unit_joined_block(g, u) == \
                    _neighbors_joined_block(g, u, twins)
            with monkeypatch.context() as m:
                m.setattr(sedentary, "_is_dominating_unit", _neighbors_dominating_unit)
                m.setattr(sedentary, "_unit_joined_block",
                          lambda graph, u: _neighbors_joined_block(graph, u, twins))
                assert ours == [family_ruling(g, kind, u) for u in range(g.n)]


def test_classify_leaves_the_neighbour_maps_unbuilt():
    rng = np.random.default_rng(1)
    upper = np.triu(rng.random((120, 120)) < 0.1, k=1)
    g = WeightedGraph(120, tuple((int(a), int(b), 1.0) for a, b in zip(*np.nonzero(upper))))
    classify(g, 0)
    # the adjacency record is read, but its neighbour lists are never sorted
    assert "_incidence" in vars(g) and "_sorted" not in vars(g._incidence)
    # a cone apex is a dominating unit, found without them too, and its
    # remainder's degrees are the record's
    c = cone(cycle_graph(7))
    for kind in (LAPLACIAN, ADJACENCY):
        assert family_ruling(c, kind, 0) is not None
    assert "_incidence" in vars(c) and "_sorted" not in vars(c._incidence)


@pytest.mark.parametrize("fam", ["cone:cycle:11", "doublecone:disconnected:cycle:6"])
def test_apex_rulings_build_no_graph(monkeypatch, fam):
    """An apex's ruling under the adjacency matrix reads its remainder's or
    base's degrees from the graph's record, so it canonicalizes no edges."""
    import qwsed.graphs as graphs

    g = build_family(parse_family(fam))
    calls = _count_calls(monkeypatch, graphs, "_canonical_edges")
    rulings = [family_ruling(g, ADJACENCY, 0) for _ in range(10)]
    assert calls == []
    assert rulings[0] is not None and rulings == rulings[:1] * 10


@pytest.mark.parametrize("fam,u,base", [("star:2", 1, 1),
                                        ("doublecone:disconnected:empty:4", 0, 4)])
def test_apex_pair_over_empty_base_vanishes(fam, u, base):
    # U(t)_uu = (1 + cos(sqrt(2n) t)) / 2 over an empty base of n vertices,
    # even where 2n is not a square
    g = build_family(parse_family(fam))
    bare = WeightedGraph(g.n, g.edges)
    ruling = family_ruling(bare, ADJACENCY, u)
    assert ruling.classification == NOT_SEDENTARY
    assert ruling.equality_times == (math.pi / math.sqrt(2.0 * base),)
    t = ruling.equality_times[0]
    assert abs(WalkEvaluator.for_graph(bare).transition_entry(t, u, u)) <= 1e-12


# -- products --------------------------------------------------------------------


def test_product_compose_odd_lattice_merge():
    rx = _classify("complete:3", 0)
    ry = _classify("complete:5", 0)
    evx = WalkEvaluator.for_graph(build_family(parse_family("complete:3")))
    evy = WalkEvaluator.for_graph(build_family(parse_family("complete:5")))
    cert = product_compose([rx, ry], ADJACENCY, [evx, evy])
    assert cert.bound == pytest.approx(0.2)
    assert cert.equality_times[0] == pytest.approx(math.pi)
    assert cert.analytic


def test_product_compose_no_common_time():
    rx = _classify("complete:3", 0)
    ry = _classify("complete:4", 0)
    cert = product_compose([rx, ry], ADJACENCY)
    assert cert.bound == pytest.approx(1.0 / 6.0)
    assert cert.equality_times == ()


def test_product_compose_refusals():
    rx = _classify("complete:3", 0)
    bad = _classify("complete:2", 0)
    with pytest.raises(CertificateRefused):
        product_compose([rx, bad], ADJACENCY)
    with pytest.raises(CertificateRefused):
        product_compose([rx], NORMALIZED_ADJACENCY)
    with pytest.raises(CertificateRefused):
        product_compose([], ADJACENCY)


def test_merge_odd_lattices_tolerates_argmin_resolution():
    # oracle argmins of the two twin leaves of star:4 under the Laplacian
    # (4 pi / 5), which agree only to about 1e-9 relative
    base = _merge_odd_lattices(2.5132741215, 2.5132741241)
    assert base == pytest.approx(4.0 * math.pi / 5.0, abs=1e-8)
    assert _merge_odd_lattices(math.pi / 3.0, math.pi / 5.0) == pytest.approx(math.pi)
    # an even quotient has no common odd multiple
    assert _merge_odd_lattices(1.0, 2.0) is None
    assert _merge_odd_lattices(2.0, 1.0) is None


# -- classify --------------------------------------------------------------------


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_analyze_all_vertices_decomposes_once(monkeypatch, tmp_path):
    import qwsed.sedentary

    eighs = _count_calls(monkeypatch, np.linalg, "eigh")
    twins = _count_calls(monkeypatch, qwsed.sedentary, "find_twin_sets")
    out = tmp_path / "reports.json"
    assert main(["analyze", "--family", "hamming:3,5", "--matrix", "laplacian",
                 "--vertex", "all", "--out", str(out)]) == 0
    assert len(eighs) == 1
    assert len(twins) == 1


def test_product_vertex_decomposes_each_factor_once(monkeypatch):
    import qwsed.sedentary

    g = cartesian_product(star_graph(4), star_graph(4))
    eighs = _count_calls(monkeypatch, np.linalg, "eigh")
    twins = _count_calls(monkeypatch, qwsed.sedentary, "find_twin_sets")
    r = classify(g, 7, LAPLACIAN)
    assert "product-composition" in [c.kind for c in r.certificates]
    # the product and its one factor, shared by both sides
    assert len(eighs) == 2
    assert len(twins) == 2


def test_factors_differing_in_provenance_keep_their_own_contexts(monkeypatch):
    # same edges and labels, but only the family factor is ruled by its
    # provenance, so the two factors may not share a context
    g = cartesian_product(build_family(parse_family("star:3")), star_graph(3))
    eighs = _count_calls(monkeypatch, np.linalg, "eigh")
    r = classify(g, 5, LAPLACIAN)
    assert "product-composition" in [c.kind for c in r.certificates]
    assert len(eighs) == 3


@pytest.mark.parametrize("kind", [ADJACENCY, LAPLACIAN], ids=["adjacency", "laplacian"])
def test_per_vertex_classify_decomposes_once_per_graph(monkeypatch, kind):
    """One classify call per vertex of S_4 x S_4: the product and its one
    factor are decomposed and twin-searched once each over all 25 calls,
    and every report is the one classify_vertices gives."""
    g = cartesian_product(star_graph(4), star_graph(4))
    eighs = _count_calls(monkeypatch, np.linalg, "eigh")
    twins = _count_calls(monkeypatch, sedentary, "find_twin_sets")
    alone = [classify(g, u, kind) for u in range(g.n)]
    assert len(eighs) == 2
    assert len(twins) == 2
    together = classify_vertices(g, range(g.n), kind)
    assert len(eighs) == 2
    assert [r.to_dict() for r in alone] == [r.to_dict() for r in together]


def test_per_vertex_classify_builds_one_incidence_record_per_graph(monkeypatch):
    """Every vertex of a fresh S_4 x S_4 by one classify call each, under A
    and L: the product and its one factor (shared by both sides) each get
    one incidence record, read by every later ruling.  The product has no
    twins, so its rulings read only the record's counts and flags, and its
    neighbour lists are never made."""
    import qwsed.graphs as graphs

    g = cartesian_product(star_graph(4), star_graph(4))
    records = _count_calls(monkeypatch, graphs, "_Incidence")
    for kind in (ADJACENCY, LAPLACIAN):
        for u in range(g.n):
            classify(g, u, kind)
    assert len(records) == 2
    gx, gy = g.provenance[1:3]
    assert "_incidence" in vars(g) and "_incidence" in vars(gx)
    assert "_incidence" not in vars(gy)
    assert "_sorted" not in vars(g._incidence)
    assert "_sorted" in vars(gx._incidence)


@pytest.mark.parametrize("make,kind", [
    (lambda: cartesian_product(star_graph(4), star_graph(4)), ADJACENCY),
    (lambda: cartesian_product(star_graph(4), star_graph(4)), LAPLACIAN),
    (lambda: star_graph(6), LAPLACIAN),
    (lambda: double_cone(complete_graph(3)), LAPLACIAN),
], ids=["s4xs4-adjacency", "s4xs4-laplacian", "star-laplacian", "doublecone-laplacian"])
def test_family_ruling_reads_the_columns_once(monkeypatch, make, kind):
    """The first ruling on a graph reads its flags and incidence record
    from the edge columns; the rulings of the other vertices make no
    np.any or np.all pass."""
    g = make()
    sedentary._twin_map(g)
    passes = []

    def spy(fn):
        def counted(*args, **kwargs):
            passes.append(fn.__name__)
            return fn(*args, **kwargs)
        return counted

    for name in ("any", "all"):
        monkeypatch.setattr(np, name, spy(getattr(np, name)))
    first = family_ruling(g, kind, 0)
    assert passes
    passes.clear()
    rest = [family_ruling(g, kind, u) for u in range(1, g.n)]
    assert passes == []
    monkeypatch.undo()
    fresh = make()
    assert [first, *rest] == [family_ruling(fresh, kind, u) for u in range(fresh.n)]


def test_the_twin_index_maps_each_twin_to_its_class():
    def make():
        return build_family(parse_family("doublecone:disconnected:cycle:4"))

    g = make()
    twins = spectral.find_twin_sets(g)
    twin_of = sedentary._twin_map(g)
    assert twins and twin_of == {v: ts for ts in twins for v in ts.vertices}
    assert g._spectra[None] is twin_of
    for kind in (ADJACENCY, LAPLACIAN):
        for u in range(g.n):
            # the kept map and one built on a fresh graph give one certificate
            try:
                want = twin_bound(make(), u, kind)
            except CertificateRefused:
                assert u not in twin_of
                continue
            assert twin_bound(g, u, kind) == want
        assert sedentary._twin_map(g) is twin_of


def test_the_graph_holds_its_spectra_while_it_lives():
    g = cartesian_product(star_graph(3), star_graph(3))
    classify(g, 4, LAPLACIAN)
    spectra = sedentary._graph_spectra(g, LAPLACIAN)
    # every later call on (g, kind) reads the one kept evaluator, with the
    # vertex records classify made
    w = WalkEvaluator.for_graph(g, LAPLACIAN)
    assert w is spectra.walk
    assert 4 in w._diag_cache
    assert w.spectrum(4) is w.spectrum(4)
    other = WalkEvaluator.for_graph(g, ADJACENCY)
    assert other is not w and other.decomposition is not w.decomposition
    # a graph with the same edges is another object, with its own memo
    assert sedentary._graph_spectra(g.with_labels(g.labels), LAPLACIAN) is not spectra
    refs = [weakref.ref(w), weakref.ref(w.decomposition), weakref.ref(w.spectrum(4).weights)]
    del g, spectra, w, other
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def _s4_square():
    return cartesian_product(star_graph(4), star_graph(4))


def test_a_classified_graph_keeps_one_square_array_per_kind():
    """After every vertex of S_4 x S_4 is classified under A and under L,
    the decomposition kept per kind holds one array of n^2 or more entries,
    its eigenvectors: the weights are n x (distinct eigenvalues), and no
    copy of the matrix is kept."""
    g = _s4_square()
    n = g.n
    for kind in (ADJACENCY, LAPLACIAN):
        classify_vertices(g, range(n), kind)
    for kind in (ADJACENCY, LAPLACIAN):
        d = sedentary._graph_spectra(g, kind).walk.decomposition
        arrays = [getattr(d, f.name) for f in dataclasses.fields(d)]
        square = [a for a in arrays if isinstance(a, np.ndarray) and a.size >= n * n]
        assert len(square) == 1 and square[0] is d.vectors, kind
        assert d.weights.shape == (n, len(d.eigenvalues)) and len(d.eigenvalues) < n


@pytest.mark.parametrize("kind", [ADJACENCY, LAPLACIAN, NORMALIZED_ADJACENCY],
                         ids=["adjacency", "laplacian", "norm-adj"])
@pytest.mark.parametrize("make", [_s4_square,
                                  lambda: build_family(parse_family("hamming:3,3"))],
                         ids=["s4xs4", "hamming:3,3"])
def test_kept_records_do_not_depend_on_options_or_order(make, kind):
    """A windowed classify and a default one of each vertex, in either
    order on one graph object, give the reports a fresh graph gives under
    those options alone: the records they share hold nothing of the
    options."""
    windowed = ClassifyOptions(window=(0.0, 3.0))
    n = make().n
    want = {opts: [r.to_dict() for r in classify_vertices(make(), range(n), kind, opts)]
            for opts in (windowed, None)}
    for order in ((windowed, None), (None, windowed)):
        g = make()
        for u in range(n):
            for opts in order:
                assert classify(g, u, kind, opts).to_dict() == want[opts][u], (u, opts)


def test_a_second_pass_reads_the_kept_records(monkeypatch):
    """Per-vertex classify over S_4 x S_4, run again on the same graph
    object, makes no periodicity fit and no root solve: every record, the
    factors' included, is kept on the graph."""
    g = _s4_square()
    kinds = (ADJACENCY, LAPLACIAN)
    first = [classify(g, u, kind).to_dict() for kind in kinds for u in range(g.n)]
    fits = _count_calls(monkeypatch, walk, "periodicity")
    solves = _count_calls(monkeypatch, walk, "_root_offers")
    second = [classify(g, u, kind).to_dict() for kind in kinds for u in range(g.n)]
    assert (len(fits), len(solves)) == (0, 0)
    assert second == first


@pytest.mark.parametrize("kind,want,kept", [(ADJACENCY, 1, {1, 2, 3, 4}),
                                            (LAPLACIAN, 2, {0, 1, 2, 3, 4})],
                         ids=["adjacency", "laplacian"])
def test_a_product_pass_classifies_each_factor_representative_once(monkeypatch, kind,
                                                                   want, kept):
    """One classify call per vertex of a fresh S_4 x S_4 classifies each
    representative of its factor it reaches once (the least leaf, and
    under L also the centre; under A the catalogue rules the vertices over
    the centre before the product step): the factor reports are kept on
    the factor graph and read by every later product vertex, a second pass
    included.  Every report is the one classify_vertices gives a fresh
    square."""
    fresh = [r.to_dict() for r in classify_vertices(_s4_square(), range(25), kind)]
    g = _s4_square()
    calls = _count_calls(monkeypatch, sedentary, "_classify_vertex")
    for _ in range(2):
        assert [classify(g, u, kind).to_dict() for u in range(g.n)] == fresh
    # the factor vertices classified in full
    runs = [(ctx.graph, u) for ctx, u in calls if ctx.graph is not g]
    assert len(runs) == len({(id(h), u) for h, u in runs}) == want
    gx = g.provenance[1]
    assert all(h is gx for h, _ in runs)
    assert set(sedentary._graph_spectra(gx, kind).reports) == kept
    # the product's own reports stay per call
    assert sedentary._graph_spectra(g, kind).reports == {}


def test_factor_reports_are_kept_at_default_options_only(monkeypatch):
    """A windowed classify of a product vertex reads the factor reports
    kept at default options, and its own report is the one a fresh product
    gives under that window."""
    windowed = ClassifyOptions(window=(0.0, 3.0))
    want = classify(_s4_square(), 7, LAPLACIAN, windowed).to_dict()
    g = _s4_square()
    classify(g, 7, LAPLACIAN)
    calls = _count_calls(monkeypatch, sedentary, "_classify_vertex")
    assert classify(g, 7, LAPLACIAN, windowed).to_dict() == want
    assert [ctx.graph for ctx, _ in calls] == [g]


def test_twin_classes_are_found_once_per_graph(monkeypatch):
    """Vertex 0 of cone:cycle:11 under all five kinds on one graph object
    takes one twin-class search, every kind reads the one map kept on the
    graph, and every report is the one a fresh graph gives when each call
    searches the classes again."""
    kinds = [parse_matrix_kind(k) for k in
             ("adjacency", "laplacian", "gen:0.5", "norm-adj", "norm-lap")]

    def make():
        return build_family(parse_family("cone:cycle:11"))

    with monkeypatch.context() as m:
        m.setattr(sedentary, "_twin_map", lambda g: {
            v: ts for ts in spectral.find_twin_sets(g) for v in ts.vertices})
        want = [json.dumps(classify(make(), 0, kind).to_dict()) for kind in kinds]
    searches = _count_calls(monkeypatch, sedentary, "find_twin_sets")
    kept, read = sedentary._twin_map, []
    monkeypatch.setattr(sedentary, "_twin_map", lambda g: read.append(kept(g)) or read[-1])
    g = make()
    got = []
    for kind in kinds:
        before = len(read)
        got.append(json.dumps(classify(g, 0, kind).to_dict()))
        assert len(read) > before, kind
    assert len(searches) == 1
    assert got == want
    # every kind read the one map kept on the graph
    assert all(m is g._spectra[None] for m in read)
    assert g._spectra[None] == {v: ts for ts in spectral.find_twin_sets(g) for v in ts.vertices}


def test_kept_records_are_read_only():
    w = WalkEvaluator.for_graph(build_family(parse_family("complete:5")), ADJACENCY)
    rec = w.spectrum(0)
    assert rec.offers is not None
    for a in (rec.eigenvalues, rec.weights, *rec.offers):
        with pytest.raises(ValueError):
            a[0] = 0.0
    assert w.minimize_diagonal(0).minimum == pytest.approx(0.6, abs=1e-9)
    # the incidence record every ruling on the graph reads
    g = cone(cycle_graph(5))
    ruling = family_ruling(g, LAPLACIAN, 0)
    rec = g._incidence
    for a in (rec.start, rec.degrees, rec.loop, rec.non_unit, rec.neighbors, rec.weights):
        with pytest.raises(ValueError):
            a[0] = a[1]
    assert family_ruling(g, LAPLACIAN, 0) == ruling


def test_classify_vertices_matches_classify():
    g = cartesian_product(star_graph(3), complete_graph(3))
    many = classify_vertices(g, [0, 4, 7], LAPLACIAN)
    for u, r in zip([0, 4, 7], many):
        assert r.to_dict() == classify(g, u, LAPLACIAN).to_dict()
    with pytest.raises(CertificateRefused):
        classify_vertices(g, [0, g.n], LAPLACIAN)
    # vertices that share a support share one periodicity fit and one root
    # solve in classify_vertices, and each report is the one classify makes
    # of its vertex alone; in Q_4 under the Laplacian every vertex's split
    # root at x = -1 merges into the exact theta = pi (t = pi/2) within its
    # one support group's solve; in S_4 x S_4 a product vertex reads the
    # report of its factor's least twin leaf, whichever vertex asks first,
    # and twin leaves' own oracle minima differ in the last bit under the
    # Laplacian
    star4 = cartesian_product(star_graph(4), star_graph(4))
    kinds = (ADJACENCY, LAPLACIAN, NORMALIZED_ADJACENCY)
    cases = [(g, kind) for g in (build_family(parse_family("hamming:3,3")),
                                 build_family(parse_family("rook:4,9")), star4)
             for kind in kinds]
    cases.append((build_family(parse_family("hamming:4,2")), LAPLACIAN))
    for g, kind in cases:
        for u, r in enumerate(classify_vertices(g, range(g.n), kind)):
            assert r.to_dict() == classify(g, u, kind).to_dict()


def test_classify_complete():
    r = _classify("complete:5", 0)
    assert r.classification == TIGHTLY_SEDENTARY
    assert r.bound == pytest.approx(0.6, abs=1e-9)
    assert r.oracle.certified_window
    assert r.oracle.argmin == pytest.approx(math.pi / 5.0, abs=1e-6)


def test_classify_star_roles():
    leaf = _classify("star:9", 1)
    assert leaf.classification == TIGHTLY_SEDENTARY
    assert leaf.bound == pytest.approx(1.0 - 2.0 / 9.0, abs=1e-9)
    center = _classify("star:9", 0)
    assert center.classification == NOT_SEDENTARY
    centl = _classify("star:9", 0, LAPLACIAN)
    assert centl.bound == pytest.approx(0.8, abs=1e-9)


def test_classify_p3_laplacian_end_certified_tight():
    r = _classify("path:3", 0, LAPLACIAN)
    assert r.classification == TIGHTLY_SEDENTARY
    assert r.bound == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert r.oracle.certified_window


def test_classify_p3_adjacency_end_pst():
    r = _classify("path:3", 0, ADJACENCY)
    assert r.classification == NOT_SEDENTARY
    kinds = [c.kind for c in r.certificates]
    assert "not-sedentary-pst" in kinds
    pst = next(c for c in r.certificates if c.kind == "not-sedentary-pst")
    assert pst.equality_times[0] == pytest.approx(math.pi / math.sqrt(2.0), abs=1e-6)


def test_classify_unbalanced_double_star_leaf():
    r = _classify("doublestar:2,5", 0)
    assert r.classification == NOT_SEDENTARY
    assert not r.oracle.certified_window  # irrational spectrum, open window


def test_classify_sharply_sedentary_double_star():
    r = _classify("doublestar:3,4", 0)
    assert r.classification == SHARPLY_SEDENTARY
    assert r.bound == pytest.approx(1.0 / 3.0)
    # the oracle can only approach the bound from above on an open window
    assert r.oracle.minimum >= r.bound - 1e-6


def test_classify_commensurable_double_star_tight():
    # both discriminant and leaf product are perfect squares: spectrum
    # rescales, the window certifies, and the minimum sits above 1 - 2/9
    r = _classify("doublestar:9,16", 0)
    assert r.classification == TIGHTLY_SEDENTARY
    assert r.oracle.certified_window
    assert r.bound > 1.0 - 2.0 / 9.0 + 1e-3


def test_classify_double_star_internal_sign_change():
    r = _classify("doublestar:2,2", 2)
    assert r.classification == NOT_SEDENTARY
    zc = next(c for c in r.certificates
              if c.kind == "not-sedentary-zero-crossing")
    t0 = zc.equality_times[0]
    assert 0.0 < t0 < 2.0 * math.pi


def test_classify_unresolved_triangle():
    g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 0.7), (0, 2, 0.3)))
    r = classify(g, 0, ADJACENCY)
    assert r.classification == UNRESOLVED
    assert r.bound is None
    assert r.oracle is not None


def test_classify_product_route():
    g = cartesian_product(build_family(parse_family("complete:3")),
                          build_family(parse_family("complete:5")))
    r = classify(g, 0, ADJACENCY)
    assert r.classification == TIGHTLY_SEDENTARY
    assert r.bound == pytest.approx(0.2, abs=1e-9)
    kinds = [c.kind for c in r.certificates]
    assert "product-composition" in kinds


@pytest.mark.parametrize("m", [3, 4])
def test_classify_star_square_centre_states_the_zero(m):
    g = cartesian_product(star_graph(m), star_graph(m))
    r = classify(g, 0, ADJACENCY)
    assert r.classification == NOT_SEDENTARY
    times = [t for c in r.certificates for t in c.equality_times]
    assert times
    # U(t)_00 = cos^2(sqrt(m) t) vanishes first at pi / (2 sqrt(m))
    assert times[0] == pytest.approx(math.pi / (2.0 * math.sqrt(m)), abs=1e-6)
    assert abs(WalkEvaluator.for_graph(g).transition_entry(times[0], 0, 0)) <= 1e-8


def test_classify_product_poisoned_by_k2():
    g = cartesian_product(build_family(parse_family("complete:2")),
                          build_family(parse_family("complete:5")))
    r = classify(g, 0, ADJACENCY)
    assert r.classification == NOT_SEDENTARY


def test_classify_detects_clique_join():
    # hand-built join, no family provenance
    g = join(complete_graph(1), cycle_graph(5))
    g = WeightedGraph(g.n, g.edges)  # strip labels and provenance
    r = classify(g, 0, LAPLACIAN)
    assert r.classification == TIGHTLY_SEDENTARY
    assert r.bound == pytest.approx(1.0 - 2.0 / 6.0, abs=1e-9)


def test_classify_detects_apex_pair():
    g = double_cone(cycle_graph(4), "disconnected")
    g = WeightedGraph(g.n, g.edges)
    r = classify(g, 0, ADJACENCY)
    assert r.classification == TIGHTLY_SEDENTARY
    assert r.bound == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_classify_dominating_vertex_adjacency():
    g = WeightedGraph(6, build_family(parse_family("complete:6")).edges)
    r = classify(g, 0, ADJACENCY)
    assert r.classification == TIGHTLY_SEDENTARY
    assert r.bound == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert r.oracle.argmin == pytest.approx(math.pi / 6.0, abs=1e-6)


def test_classify_rejects_bad_vertex():
    g = build_family(parse_family("complete:3"))
    with pytest.raises(CertificateRefused):
        classify(g, 7)


def test_report_dict_shape():
    r = _classify("complete:4", 0)
    d = r.to_dict()
    assert set(d) == {"graph", "matrix", "vertex", "classification", "C",
                      "certificates", "oracle"}
    for cert in d["certificates"]:
        assert set(cert) == {"kind", "S", "a", "bound", "equality_times",
                             "detail"}
    assert set(d["oracle"]) == {"minimum", "argmin", "window", "grid",
                                "certified"}


def test_cospectral_vertices_classify_identically():
    for fam, kind, pair in (("path:3", ADJACENCY, (0, 2)),
                            ("star:4", ADJACENCY, (1, 3)),
                            ("doublestar:2,2", ADJACENCY, (0, 5))):
        g = build_family(parse_family(fam))
        ra = classify(g, pair[0], kind)
        rb = classify(g, pair[1], kind)
        assert ra.classification == rb.classification
        if ra.bound is None:
            assert rb.bound is None
        else:
            assert ra.bound == pytest.approx(rb.bound, abs=1e-9)


def test_certified_bounds_never_exceed_oracle():
    cases = [("complete:7", 0, ADJACENCY), ("star:5", 1, ADJACENCY),
             ("rook:3,4", 0, ADJACENCY), ("doublecone:disconnected:cycle:4", 0,
                                          ADJACENCY),
             ("doublestar:9,16", 0, ADJACENCY), ("cone:cycle:6", 0, LAPLACIAN)]
    for fam, u, kind in cases:
        r = _classify(fam, u, kind)
        for c in r.certificates:
            if c.certified:
                assert c.bound <= r.oracle.minimum + 1e-6, (fam, c.kind)


def test_transfer_ceiling_from_diagonal_bound():
    # |U(t)_{u,v}| can never exceed sqrt(1 - C^2) when C bounds the diagonal
    r = _classify("complete:6", 0)
    c = r.bound
    w = WalkEvaluator.for_graph(build_family(parse_family("complete:6")))
    ceiling = math.sqrt(max(0.0, 1.0 - c * c))
    for t in np.linspace(0.0, 2.0 * math.pi, 200):
        off = max(abs(w.transition_entry(t, 0, v)) for v in range(1, 6))
        assert off <= ceiling + 1e-6


@pytest.mark.parametrize("kind", [ADJACENCY, LAPLACIAN])
def test_product_with_a_factor_that_is_not_sedentary(kind):
    """C_7 has no period, so the oracle window of K_2 □ C_7 is open and the
    factor K_2, which is not sedentary, decides the product."""
    g = cartesian_product(path_graph(2), cycle_graph(7))
    r = classify(g, 0, kind)
    assert not r.oracle.certified_window
    assert r.classification == NOT_SEDENTARY and r.bound == 0.0
    (cert,) = r.certificates
    assert cert.kind == "product-composition"
    assert cert.equality_times == pytest.approx((math.pi / 2.0,), abs=1e-12)
    w = WalkEvaluator.for_graph(g, kind)
    assert abs(w.transition_entry(cert.equality_times[0], 0, 0)) <= 1e-12


def test_reconcile_upgrades_an_attained_subset_bound():
    """A star leaf with no provenance has no catalogue ruling; its subset
    bound 1/3 is attained at pi/sqrt(3), so reconciliation labels it tight."""
    g = WeightedGraph(4, star_graph(3).edges)
    r = classify(g, 1, ADJACENCY, ClassifyOptions(window=(0.0, 10.0)))
    assert r.classification == TIGHTLY_SEDENTARY
    assert r.bound == pytest.approx(1.0 / 3.0, abs=1e-12)
    subset = [c for c in r.certificates if c.kind == SUBSET_BOUND]
    assert subset and subset[0].equality_times == pytest.approx(
        (math.pi / math.sqrt(3.0),), abs=1e-9)
