import math

import numpy as np
import pytest

from qwsed import sedentary
from qwsed.graphs import (WeightedGraph, complete_graph, cycle_graph, double_cone, empty_graph,
                          join, path_graph, star_graph, union)
from qwsed.matrices import (
    ADJACENCY,
    LAPLACIAN,
    NORMALIZED_ADJACENCY,
    NORMALIZED_LAPLACIAN,
    MatrixError,
    MatrixKind,
    assemble,
    generalized_adjacency,
    parse_matrix_kind,
)
from qwsed.spectral import find_twin_sets
from twin_reference import class_theta


def test_kind_strings():
    assert str(ADJACENCY) == "adjacency"
    assert str(LAPLACIAN) == "laplacian"
    assert str(generalized_adjacency(0.5)) == "gen:0.5"
    assert str(NORMALIZED_ADJACENCY) == "norm-adj"


def test_parse_matrix_kind():
    assert parse_matrix_kind("adjacency") == ADJACENCY
    assert parse_matrix_kind("gen:0.25").alpha == 0.25
    assert parse_matrix_kind(" LAPLACIAN ") == LAPLACIAN
    with pytest.raises(MatrixError):
        parse_matrix_kind("gen:x")
    with pytest.raises(MatrixError):
        parse_matrix_kind("seidel")


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_gen_alpha_must_be_finite(alpha):
    with pytest.raises(MatrixError, match="alpha must be finite"):
        generalized_adjacency(alpha)
    with pytest.raises(MatrixError, match="alpha must be finite"):
        parse_matrix_kind(f"gen:{alpha}")


@pytest.mark.parametrize("kind,weight", [
    (generalized_adjacency(1e308), 1.0), (ADJACENCY, 1.7e308),
    (LAPLACIAN, 1e308)])
def test_assemble_refuses_an_entry_that_overflows(kind, weight):
    g = WeightedGraph(3, ((0, 1, weight), (1, 2, weight)))
    with pytest.raises(MatrixError, match="not finite"):
        assemble(g, kind)


def test_degree_shifted_kinds():
    assert ADJACENCY.is_degree_shifted
    assert LAPLACIAN.is_degree_shifted
    assert generalized_adjacency(0.3).is_degree_shifted
    assert not NORMALIZED_ADJACENCY.is_degree_shifted
    assert not NORMALIZED_LAPLACIAN.is_degree_shifted


def test_assemble_adjacency_and_laplacian():
    g = path_graph(3)
    a = assemble(g, ADJACENCY).matrix
    assert np.allclose(a, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    l = assemble(g, LAPLACIAN).matrix
    assert np.allclose(l, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    assert np.allclose(l.sum(axis=1), 0.0)


def test_assemble_generalized():
    g = path_graph(3)
    h = assemble(g, generalized_adjacency(0.5)).matrix
    a = assemble(g, ADJACENCY).matrix
    assert np.allclose(h, 0.5 * np.diag([1.0, 2.0, 1.0]) + a)


def test_loop_counts_twice_in_degree():
    # deg(u) = 2 * loop + sum of incident weights
    g = WeightedGraph(2, ((0, 0, 1.5), (0, 1, 2.0)))
    assert np.allclose(g.degrees(), [5.0, 2.0])
    l = assemble(g, LAPLACIAN).matrix
    assert np.allclose(l, [[5.0 - 1.5, -2.0], [-2.0, 2.0]])


def test_normalized_kinds_on_regular_graph():
    g = cycle_graph(5)
    na = assemble(g, NORMALIZED_ADJACENCY).matrix
    assert np.allclose(na, assemble(g, ADJACENCY).matrix / 2.0)
    nl = assemble(g, NORMALIZED_LAPLACIAN).matrix
    assert np.allclose(nl, np.eye(5) - na)


def test_normalized_isolated_vertices():
    g = union(empty_graph(1), complete_graph(2))
    h = assemble(g, NORMALIZED_ADJACENCY)
    assert np.allclose(h.matrix[0], 0.0)


def test_assemble_is_symmetric():
    g = star_graph(4)
    for kind in (ADJACENCY, LAPLACIAN, generalized_adjacency(-0.5),
                 NORMALIZED_ADJACENCY, NORMALIZED_LAPLACIAN):
        m = assemble(g, kind).matrix
        assert np.allclose(m, m.T)


def test_twin_theta_conventions():
    """Each twin class keeps the difference eigenvalue theta read from the
    kind's assembled matrix, M[a, a] - M[a, b] at its first two twins, and
    that is the closed form of every kind: on adjacent twins in a join,
    non-adjacent twins, twins with a loop and a weighted eta, and an
    isolated pair under the normalized kinds."""
    looped = WeightedGraph(3, ((0, 0, 2.0), (1, 1, 2.0), (0, 1, 0.7), (0, 2, 1.5), (1, 2, 1.5)))
    graphs = {
        "join": join(complete_graph(3), cycle_graph(4)),
        "cone": double_cone(cycle_graph(4), "disconnected"),
        "looped": looped,
        "isolated": empty_graph(2),
    }
    kinds = (ADJACENCY, LAPLACIAN, generalized_adjacency(1.0), generalized_adjacency(-0.5),
             NORMALIZED_ADJACENCY, NORMALIZED_LAPLACIAN)
    kept = {}
    for name, g in graphs.items():
        for kind in kinds:
            m = assemble(g, kind).matrix
            verdicts = sedentary._graph_spectra(g, kind).twin_verdicts
            for ts in find_twin_sets(g):
                a, b = ts.vertices[:2]
                theta = verdicts[ts.vertices]
                assert theta == m[a, a] - m[a, b], (name, kind, ts)
                want = class_theta(g, kind, ts)
                assert abs(theta - want) <= 1e-12 * max(1.0, abs(want)), (name, kind, ts)
                kept[name, str(kind), ts.vertices] = theta
    # adjacent unweighted twins of degree 6: A gives -1, L 7
    assert kept["join", "adjacency", (0, 1, 2)] == -1.0
    assert kept["join", "laplacian", (0, 1, 2)] == 7.0
    assert kept["join", "gen:1", (0, 1, 2)] == 5.0
    # the non-adjacent apexes of degree 4
    assert kept["cone", "adjacency", (0, 1)] == 0.0
    assert kept["cone", "laplacian", (0, 1)] == 4.0
    # a loop shifts the adjacency value, and the degree counts it twice
    assert kept["looped", "adjacency", (0, 1)] == 2.0 - 0.7
    assert kept["looped", "laplacian", (0, 1)] == pytest.approx(6.2 - 2.0 + 0.7)
    # an isolated pair has no degree to normalize by
    assert kept["isolated", "norm-adj", (0, 1)] == 0.0
    assert kept["isolated", "norm-lap", (0, 1)] == 1.0


def test_graph_hash_tag():
    assert path_graph(3).content_hash() == path_graph(3).content_hash()
    assert path_graph(4).content_hash() != path_graph(3).content_hash()


@pytest.mark.parametrize("kind", [ADJACENCY, LAPLACIAN, generalized_adjacency(0.5),
                                  NORMALIZED_ADJACENCY, NORMALIZED_LAPLACIAN])
def test_assemble_builds_the_adjacency_matrix_once(monkeypatch, kind):
    built = []
    original = WeightedGraph.adjacency_matrix

    def counting(self):
        built.append(self.n)
        return original(self)

    monkeypatch.setattr(WeightedGraph, "adjacency_matrix", counting)
    g = WeightedGraph(3, ((0, 0, 1.5), (0, 1, 2.0), (1, 2, 0.5)))
    assemble(g, kind)
    assert built == [3]
