import dataclasses
import math
import time
import tracemalloc
import types

import numpy as np
import pytest

from qwsed import spectral
from qwsed.graphs import (
    WeightedGraph,
    blow_up,
    build_family,
    complete_graph,
    cycle_graph,
    double_cone,
    join,
    parse_family,
    path_graph,
    star_graph,
)
from qwsed.matrices import ADJACENCY, LAPLACIAN, assemble, twin_theta
from qwsed.spectral import (
    DEFAULT_CLUSTER_TOL,
    SpectralError,
    are_cospectral,
    decompose,
    find_twin_sets,
    periodicity,
    strong_cospectral,
    support,
    verify_twin_eigenvector,
)
from qwsed.walk import WalkEvaluator


def _decomp(fam, kind=ADJACENCY):
    return decompose(assemble(build_family(parse_family(fam)), kind))


def test_projector_algebra():
    d = _decomp("cycle:5")
    n = d.n
    total = np.zeros((n, n))
    m = assemble(build_family(parse_family("cycle:5")), ADJACENCY).matrix
    recon = np.zeros((n, n))
    for j, lam in enumerate(d.eigenvalues):
        p = d.projectors[j]
        assert np.allclose(p @ p, p, atol=1e-9)
        assert np.allclose(p, p.T, atol=1e-12)
        for k in range(j + 1, d.num_distinct):
            assert np.allclose(p @ d.projectors[k], 0.0, atol=1e-9)
        total += p
        recon += lam * p
    assert np.allclose(total, np.eye(n), atol=1e-9)
    assert np.allclose(recon, m, atol=1e-8)


def test_eigenvalues_descending_and_multiplicities():
    d = _decomp("complete:6")
    assert list(d.eigenvalues) == sorted(d.eigenvalues, reverse=True)
    assert d.eigenvalues[0] == pytest.approx(5.0)
    assert d.multiplicities == (1, 5)
    assert sum(d.multiplicities) == d.n


def test_cluster_tolerance_merges_near_duplicates():
    # eigenvalues within DEFAULT_CLUSTER_TOL * 3 of each other merge; a gap
    # twice that keeps them apart
    tol = DEFAULT_CLUSTER_TOL * 3.0
    assert decompose(np.diag([1.0, 1.0 + 0.5 * tol, 3.0])).num_distinct == 2
    assert decompose(np.diag([1.0, 1.0 + 2.0 * tol, 3.0])).num_distinct == 3


def test_decompose_rejects_asymmetric():
    with pytest.raises(SpectralError):
        decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _grouped_by_lists(vals, vecs, tol):
    """decompose's former grouping of eigh's output, kept as the reference:
    np.split into clusters, reversed, then list comprehensions for the
    eigenvalues and the column order."""
    cuts = np.flatnonzero(np.diff(vals) > tol) + 1
    groups = np.split(np.arange(len(vals)), cuts)[::-1] if len(vals) else []
    eigenvalues = np.array([float(vals[g[0]]) if len(g) == 1 else float(np.mean(vals[g]))
                            for g in groups])
    vectors = vecs[:, [i for g in groups for i in g]]
    offsets = np.cumsum([0] + [len(g) for g in groups])
    return eigenvalues, vectors, offsets


@pytest.mark.parametrize("fam", ["complete:7", "hamming:4,2", "empty:3", "gnp"])
def test_grouping_matches_the_list_reference(fam):
    """The vectorised grouping gives the former one's eigenvalues, column
    order and offsets bit for bit: K_7 and Q_4 (clusters), three isolated
    vertices (one cluster) and G(60, 0.2) (singletons)."""
    if fam == "gnp":
        rng = np.random.default_rng(3)
        upper = np.triu(rng.random((60, 60)) < 0.2, k=1).astype(float)
        m = upper + upper.T
    else:
        m = assemble(build_family(parse_family(fam)), ADJACENCY).matrix
    d = decompose(m)
    vals, vecs = np.linalg.eigh(m)
    tol = DEFAULT_CLUSTER_TOL * max(1.0, float(np.max(np.abs(vals))))
    eigenvalues, vectors, offsets = _grouped_by_lists(vals, vecs, tol)
    assert np.array_equal(d.eigenvalues, eigenvalues)
    assert np.array_equal(d.vectors, vectors)
    assert np.array_equal(d.offsets, offsets) and d.offsets.dtype == offsets.dtype
    assert (fam == "gnp") == (d.num_distinct == d.n)


def test_support_star_laplacian_leaf():
    d = _decomp("star:4", LAPLACIAN)
    sup = support(d, 1)
    assert [round(e, 9) for e in sup.eigenvalues] == [5.0, 1.0, 0.0]
    assert np.allclose(sup.weights, [0.05, 0.75, 0.2])
    assert abs(sum(sup.weights) - 1.0) < 1e-12


def test_support_drops_zero_weight():
    # apex of a double cone has no weight on the base eigenvalues
    g = double_cone(build_family(parse_family("cycle:4")), "disconnected")
    d = decompose(assemble(g, ADJACENCY))
    sup = support(d, 0)
    assert len(sup.indices) == 3
    assert [round(e, 9) for e in sup.eigenvalues] == [4.0, 0.0, -2.0]


def test_cospectral_path_ends():
    d = _decomp("path:3")
    assert are_cospectral(d, 0, 2)
    assert not are_cospectral(d, 0, 1)


def test_strong_cospectral_apexes():
    g = double_cone(build_family(parse_family("cycle:4")), "disconnected")
    d = decompose(assemble(g, ADJACENCY))
    sc = strong_cospectral(d, 0, 1)
    assert bool(sc)
    assert sc.plus and sc.minus
    # half weight on each side of the partition
    sup = support(d, 0)
    plus_weight = sum(w for j, w in zip(sup.indices, sup.weights) if j in sc.plus)
    assert plus_weight == pytest.approx(0.5, abs=1e-9)


def test_star_leaves_not_strongly_cospectral():
    d = _decomp("star:3")
    assert are_cospectral(d, 1, 2)
    assert not strong_cospectral(d, 1, 2)


def _theta(kind, ts):
    """The difference eigenvalue of a twin set under kind."""
    return twin_theta(kind, ts.degree, ts.omega, ts.eta)


def test_find_twin_sets_join():
    g = join(complete_graph(3), cycle_graph(4))
    twins = find_twin_sets(g)
    triple = next(t for t in twins if t.size == 3)
    assert triple.vertices == (0, 1, 2)
    assert _theta(ADJACENCY, triple) == -1.0
    assert _theta(LAPLACIAN, triple) == 7.0
    # the cycle contributes two opposite twin pairs
    assert sorted(t.vertices for t in twins if t.size == 2) == [(3, 5), (4, 6)]


def test_twin_sets_exclude_near_misses():
    # weights differ, so no twins even though the shape matches
    g = WeightedGraph(3, ((0, 2, 1.0), (1, 2, 1.0 + 1e-13)))
    assert list(find_twin_sets(g)) == []


def _planted_twins(rng) -> WeightedGraph:
    """A random weighted graph with loops, then copies of some vertices: each
    copy repeats its source's loop and weighted neighbourhood, and is joined
    to its source and the other copies by one weight or by none."""
    n = int(rng.integers(3, 9))
    weights = (1.0, 2.0, 0.5)
    edges = {}
    for u in range(n):
        for v in range(u, n):
            if rng.random() < (0.2 if u == v else 0.45):
                edges[(u, v)] = weights[int(rng.integers(3))]
    for src in rng.choice(n, size=int(rng.integers(1, 3)), replace=False):
        nbrs = {(v if u == src else u): w for (u, v), w in edges.items()
                if src in (u, v) and u != v}
        eta = weights[int(rng.integers(3))] * int(rng.integers(2))
        clique = [int(src)]
        for _ in range(int(rng.integers(1, 3))):
            new, n = n, n + 1
            for v, w in nbrs.items():
                edges[(v, new)] = w
            if (src, src) in edges:
                edges[(new, new)] = edges[(src, src)]
            for c in clique if eta else ():
                edges[(c, new)] = eta
            clique.append(new)
    return WeightedGraph(n, tuple((u, v, w) for (u, v), w in sorted(edges.items())))


def _twin_pair(g: WeightedGraph, u: int, v: int) -> bool:
    if g.loop_weight(u) != g.loop_weight(v):
        return False
    nu = {j: w for j, w in g.neighbors(u).items() if j != v}
    nv = {j: w for j, w in g.neighbors(v).items() if j != u}
    return nu == nv


def _twin_classes_by_all_pairs(g):
    classes = []
    for u in range(g.n):
        home = next((c for c in classes if _twin_pair(g, c[0], u)), None)
        if home is None:
            classes.append([u])
        else:
            home.append(u)
    return sorted(tuple(c) for c in classes if len(c) > 1)


def test_twin_sets_match_an_all_pairs_search():
    rng = np.random.default_rng(11)
    found = 0
    for _ in range(300):
        g = _planted_twins(rng)
        got = sorted(t.vertices for t in find_twin_sets(g))
        assert got == _twin_classes_by_all_pairs(g)
        found += len(got)
    assert found >= 300


def test_twin_sets_split_buckets_whose_row_hashes_collide(monkeypatch):
    """With every row hash 0, each loop weight makes one open bucket; the
    exact row comparison must still split it into twin classes."""
    rng = np.random.default_rng(12)
    monkeypatch.setattr(spectral, "hash", lambda row: 0, raising=False)
    for _ in range(100):
        g = _planted_twins(rng)
        got = sorted(t.vertices for t in find_twin_sets(g))
        assert got == _twin_classes_by_all_pairs(g)


def test_verify_twin_eigenvector():
    g = join(complete_graph(3), cycle_graph(4))
    d = decompose(assemble(g, ADJACENCY))
    for twins in find_twin_sets(g):
        assert verify_twin_eigenvector(d, twins, _theta(ADJACENCY, twins))


def _verify_all_pairs(d, twins, theta, tol=1e-9):
    """M(e_u - e_v) = theta (e_u - e_v), checked pair by pair."""
    m = d.matrix
    scale = max(1.0, float(np.max(np.abs(m))))
    verts = twins.vertices
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            x = np.zeros(d.n)
            x[u], x[v] = 1.0, -1.0
            if float(np.max(np.abs(m @ x - theta * x))) > tol * scale:
                return False
    return True


def test_verify_twin_eigenvector_matches_an_all_pairs_check():
    rng = np.random.default_rng(23)
    checked = 0
    for i in range(150):
        g = _planted_twins(rng)
        kind = (ADJACENCY, LAPLACIAN)[i % 2]
        d = decompose(assemble(g, kind))
        scale = max(1.0, float(np.max(np.abs(d.matrix))))
        for twins in find_twin_sets(g):
            theta = _theta(kind, twins)
            assert verify_twin_eigenvector(d, twins, theta)
            assert _verify_all_pairs(d, twins, theta)
            # move one member's column: by half the tolerance it still
            # passes, by twice the tolerance the class is rejected
            u = twins.vertices[int(rng.integers(twins.size))]
            for shift, ok in ((0.5e-9 * scale, True), (2e-9 * scale, False)):
                m = np.array(d.matrix)
                m[:, u] += shift
                moved = dataclasses.replace(d, matrix=m)
                assert verify_twin_eigenvector(moved, twins, theta) is ok
                assert _verify_all_pairs(moved, twins, theta) is ok
            checked += 1
    assert checked >= 150


def test_star_twin_class_of_2000_leaves_within_budget():
    g = star_graph(2000)
    m = assemble(g, LAPLACIAN).matrix
    start = time.perf_counter()
    (leaves,) = find_twin_sets(g)
    theta = _theta(LAPLACIAN, leaves)
    # the check reads only the matrix, so no 2001-vertex eigh is needed
    ok = verify_twin_eigenvector(types.SimpleNamespace(matrix=m), leaves, theta)
    elapsed = time.perf_counter() - start
    assert leaves.vertices == tuple(range(1, 2001)) and theta == 1.0
    assert ok
    assert elapsed < 2.0


def test_twin_theta_matches_found_sets():
    g = double_cone(build_family(parse_family("cycle:4")), "disconnected")
    twins = find_twin_sets(g)
    pair = next(t for t in twins if t.vertices == (0, 1))
    assert (pair.degree, pair.omega, pair.eta) == (4.0, 0.0, 0.0)
    assert _theta(LAPLACIAN, pair) == twin_theta(LAPLACIAN, 4.0, 0.0, 0.0) == 4.0


def test_periodicity_integer_spectrum():
    d = _decomp("star:4")
    per = periodicity(d, [1])[0]
    assert per.periodic
    assert per.period == pytest.approx(math.pi)
    assert per.method == "integer-spectrum"


def test_periodicity_rescaled():
    d = _decomp("star:3")
    per = periodicity(d, [1])[0]
    assert per.periodic
    assert per.period == pytest.approx(2.0 * math.pi / math.sqrt(3.0))
    assert per.method == "rational-rescaled"


def test_periodicity_undetected():
    d = _decomp("path:4")
    per = periodicity(d, [0])[0]
    assert not per.periodic
    assert per.period is None
    assert per.method == "undetected"


def test_periodicity_single_eigenvalue():
    d = decompose(np.zeros((1, 1)))
    per = periodicity(d, [0])[0]
    assert per.periodic and per.period == pytest.approx(2.0 * math.pi)


def test_integer_coordinates():
    d = _decomp("complete:5")
    ints = periodicity(d, [0])[0].coordinates
    assert ints == (1, 0)
    d3 = _decomp("star:3")
    # support (sqrt 3, 0, -sqrt 3) rescales to consecutive integers
    assert periodicity(d3, [1])[0].coordinates == (2, 1, 0)


def test_integer_coordinates_none_for_incommensurable():
    d = _decomp("path:4")
    assert periodicity(d, [0])[0].coordinates is None


def test_blow_up_twin_union():
    # all copies of both path ends merge into one twin class
    g = blow_up(path_graph(3), "vertex", [(3, "empty"), (1, "empty"), (2, "empty")])
    twins = find_twin_sets(g)
    assert len(twins) == 1
    assert twins[0].vertices == (0, 1, 2, 4, 5)
    assert _theta(ADJACENCY, twins[0]) == 0.0


# -- eigenvector blocks against dense projectors ----------------------------------


def _gnp(rng, n, p):
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return WeightedGraph(n, tuple((int(a), int(b), 1.0) for a, b in zip(*np.nonzero(upper))))


def _dense_projectors(m):
    """Distinct eigenvalues (descending) and dense projectors, clustered as
    decompose documents, from numpy's eigh alone."""
    vals, vecs = np.linalg.eigh(m)
    tol = DEFAULT_CLUSTER_TOL * max(1.0, float(np.max(np.abs(vals))))
    groups = []
    for i in range(len(vals)):
        if groups and vals[i] - vals[groups[-1][-1]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    groups.reverse()
    lam = np.array([float(np.mean(vals[g])) for g in groups])
    return lam, [vecs[:, g] @ vecs[:, g].T for g in groups]


def test_decompose_memory_is_quadratic():
    rng = np.random.default_rng(400)
    m = assemble(_gnp(rng, 400, 0.1), ADJACENCY)
    tracemalloc.start()
    try:
        d = decompose(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dense 400 x 400 projector per distinct eigenvalue would take 512 MB
    assert d.num_distinct == 400
    assert peak < 16e6


def test_blocks_agree_with_dense_projectors():
    rng = np.random.default_rng(5150)
    times = np.array([0.0, 0.4, 1.7, 5.3])
    for i in range(200):
        n = int(rng.integers(3, 10))
        g = _gnp(rng, n, 0.5)
        kind = (ADJACENCY, LAPLACIAN)[i % 2]
        m = assemble(g, kind).matrix
        d = decompose(m)
        w = WalkEvaluator(d)
        lam, proj = _dense_projectors(m)
        assert np.allclose(d.eigenvalues, lam, rtol=0.0, atol=1e-12)
        for u in range(n):
            sup = support(d, u)
            idx = [j for j, e in enumerate(proj) if np.linalg.norm(e[:, u]) > 1e-10]
            assert sup.indices == tuple(idx)
            assert np.allclose(sup.weights, [proj[j][u, u] for j in idx],
                               rtol=0.0, atol=1e-12)
            col = np.abs(sum(np.exp(1j * np.outer(times, [x]))
                             * e[:, u] for x, e in zip(lam, proj)))
            assert np.allclose(w.column_magnitude_series(u, times), col,
                               rtol=0.0, atol=1e-12)
            for v in range(n):
                entry = sum(np.exp(1.7j * x) * e[u, v] for x, e in zip(lam, proj))
                assert abs(w.transition_entry(1.7, u, v) - entry) <= 1e-12
                if v <= u:
                    continue
                assert are_cospectral(d, u, v) == all(
                    abs(e[u, u] - e[v, v]) <= 1e-9 for e in proj)
                plus, minus, ok = [], [], True
                for j, e in enumerate(proj):
                    x, y = e[:, u], e[:, v]
                    if max(np.linalg.norm(x), np.linalg.norm(y)) <= 1e-10:
                        continue
                    if np.linalg.norm(x - y) <= 1e-9:
                        plus.append(j)
                    elif np.linalg.norm(x + y) <= 1e-9:
                        minus.append(j)
                    else:
                        ok = False
                        break
                sc = strong_cospectral(d, u, v)
                assert bool(sc) == ok
                if ok:
                    assert (sc.plus, sc.minus) == (tuple(plus), tuple(minus))
