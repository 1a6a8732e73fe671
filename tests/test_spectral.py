import math
import tracemalloc

import numpy as np
import pytest

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
    _twin_pair,
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
    h = np.diag([1.0, 1.0 + 5e-9, 3.0])
    d = decompose(h)
    assert d.num_distinct == 2
    tight = decompose(h, cluster_tol=1e-12)
    assert tight.num_distinct == 3


def test_decompose_rejects_asymmetric():
    with pytest.raises(SpectralError):
        decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


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


def test_find_twin_sets_join():
    g = join(complete_graph(3), cycle_graph(4))
    twins_a = find_twin_sets(g, ADJACENCY)
    triple = next(t for t in twins_a if t.size == 3)
    assert triple.vertices == (0, 1, 2)
    assert triple.theta == -1.0
    twins_l = find_twin_sets(g, LAPLACIAN)
    triple_l = next(t for t in twins_l if t.size == 3)
    assert triple_l.theta == 7.0
    # the cycle contributes two opposite twin pairs
    assert sorted(t.vertices for t in twins_a if t.size == 2) == [(3, 5), (4, 6)]


def test_twin_sets_exclude_near_misses():
    # weights differ, so no twins even though the shape matches
    g = WeightedGraph(3, ((0, 2, 1.0), (1, 2, 1.0 + 1e-13)))
    assert list(find_twin_sets(g, ADJACENCY)) == []


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
        got = sorted(t.vertices for t in find_twin_sets(g, ADJACENCY))
        assert got == _twin_classes_by_all_pairs(g)
        found += len(got)
    assert found >= 300


def test_verify_twin_eigenvector():
    g = join(complete_graph(3), cycle_graph(4))
    d = decompose(assemble(g, ADJACENCY))
    for twins in find_twin_sets(g, ADJACENCY):
        assert verify_twin_eigenvector(d, twins)


def test_twin_theta_matches_found_sets():
    g = double_cone(build_family(parse_family("cycle:4")), "disconnected")
    twins = find_twin_sets(g, LAPLACIAN)
    pair = next(t for t in twins if t.vertices == (0, 1))
    assert pair.theta == twin_theta(LAPLACIAN, 4.0, 0.0, 0.0)


def test_periodicity_integer_spectrum():
    d = _decomp("star:4")
    per = periodicity(d, 1)
    assert per.periodic
    assert per.period == pytest.approx(math.pi)
    assert per.method == "integer-spectrum"


def test_periodicity_rescaled():
    d = _decomp("star:3")
    per = periodicity(d, 1)
    assert per.periodic
    assert per.period == pytest.approx(2.0 * math.pi / math.sqrt(3.0))
    assert per.method == "rational-rescaled"


def test_periodicity_undetected():
    d = _decomp("path:4")
    per = periodicity(d, 0)
    assert not per.periodic
    assert per.period is None
    assert per.method == "undetected"


def test_periodicity_single_eigenvalue():
    d = decompose(np.zeros((1, 1)))
    per = periodicity(d, 0)
    assert per.periodic and per.period == pytest.approx(2.0 * math.pi)


def test_integer_coordinates():
    d = _decomp("complete:5")
    ints = periodicity(d, 0).coordinates
    assert ints == (1, 0)
    d3 = _decomp("star:3")
    # support (sqrt 3, 0, -sqrt 3) rescales to consecutive integers
    assert periodicity(d3, 1).coordinates == (2, 1, 0)


def test_integer_coordinates_none_for_incommensurable():
    d = _decomp("path:4")
    assert periodicity(d, 0).coordinates is None


def test_blow_up_twin_union():
    # all copies of both path ends merge into one twin class
    g = blow_up(path_graph(3), "vertex", [(3, "empty"), (1, "empty"), (2, "empty")])
    twins = find_twin_sets(g, ADJACENCY)
    assert len(twins) == 1
    assert twins[0].vertices == (0, 1, 2, 4, 5)
    assert twins[0].theta == 0.0


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
