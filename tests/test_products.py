"""Box products factorise the walk diagonal under the degree-shifted kinds:
|U_{G x H}(t)_{(x,y),(x,y)}| = |U_G(t)_{x,x}| |U_H(t)_{y,y}|.  So a product
vertex's bound is at least the product of its factors' bounds, and
classifying product vertices one call at a time, on a graph object that
keeps its factors' reports, gives the reports a fresh product gives.  A
product graph keeps its factor pair per kind, and an evaluator one period
fit per support index set, so a per-vertex pass builds neither again."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qwsed import sedentary, spectral
from qwsed.graphs import WeightedGraph, cartesian_product, star_graph
from qwsed.matrices import LAPLACIAN, parse_matrix_kind
from qwsed.sedentary import NOT_SEDENTARY, UNRESOLVED, classify, classify_vertices
from qwsed.walk import WalkEvaluator

KINDS = ("adjacency", "laplacian", "gen:0.5")

_weights = st.sampled_from((1.0, 1.0, 2.0, 0.5, 1.5))


@st.composite
def connected_graphs(draw):
    """A connected graph on 2 to 5 vertices without loops: a random
    spanning tree plus random further edges, weights from {1, 2, 1/2, 3/2}."""
    n = draw(st.integers(2, 5))
    edges = {(draw(st.integers(0, v - 1)), v): draw(_weights) for v in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and draw(st.booleans()):
                edges[(u, v)] = draw(_weights)
    return WeightedGraph(n, tuple((u, v, w) for (u, v), w in edges.items()))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(g=connected_graphs(), h=connected_graphs(),
       times=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=4))
def test_the_product_diagonal_factorises(kind, g, h, times):
    kind = parse_matrix_kind(kind)
    p = cartesian_product(g, h)
    wp, wg, wh = (WalkEvaluator.for_graph(x, kind) for x in (p, g, h))
    for t in times:
        for x in range(g.n):
            for y in range(h.n):
                u = x * h.n + y
                assert abs(wp.transition_entry(t, u, u)) == pytest.approx(
                    abs(wg.transition_entry(t, x, x)) * abs(wh.transition_entry(t, y, y)),
                    abs=1e-12, rel=0)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(g=connected_graphs(), h=connected_graphs())
def test_product_reports_compose_their_factors(kind, g, h):
    """Where both factor reports are sedentary, the product vertex's bound
    is at least the product of theirs; and a per-vertex pass, run twice on
    one product object, gives the bytes classify_vertices gives a fresh
    product."""
    kind = parse_matrix_kind(kind)
    fresh = [json.dumps(r.to_dict())
             for r in classify_vertices(cartesian_product(g, h), range(g.n * h.n), kind)]
    p = cartesian_product(g, h)
    for _ in range(2):
        assert [json.dumps(classify(p, u, kind).to_dict()) for u in range(p.n)] == fresh
    rg = [classify(g, x, kind) for x in range(g.n)]
    rh = [classify(h, y, kind) for y in range(h.n)]
    for x, a in enumerate(rg):
        for y, b in enumerate(rh):
            if {a.classification, b.classification} & {NOT_SEDENTARY, UNRESOLVED}:
                continue
            c = json.loads(fresh[x * h.n + y])["C"]
            assert c is not None and c >= a.bound * b.bound - 1e-12, (x, y)


def _square():
    return cartesian_product(star_graph(4), star_graph(4))


def _cube():
    s3 = star_graph(3)
    return cartesian_product(cartesian_product(s3, s3), s3)


# (build, vertices, factor contexts per kind: S_4 x S_4 has one factor graph
# for both sides; the cube has the square and S_3, and the square S_3)
_PRODUCTS = [(_square, 25, 1), (_cube, 64, 3)]


@pytest.fixture
def factor_contexts(monkeypatch):
    """Records (factor graph, kind) for each factor context made: a context
    with options None."""
    made = []
    init = sedentary._Context.__init__

    def counted(self, graph, kind, options=None):
        if options is None:
            made.append((graph, kind))
        init(self, graph, kind, options)

    monkeypatch.setattr(sedentary._Context, "__init__", counted)
    return made


@pytest.mark.parametrize("build, n, pairs", _PRODUCTS, ids=["S4xS4", "S3xS3xS3"])
@pytest.mark.parametrize("kind", ["adjacency", "laplacian"])
def test_a_product_builds_its_factor_pair_once_per_kind(factor_contexts, build, n,
                                                        pairs, kind):
    kind = parse_matrix_kind(kind)
    want = [json.dumps(r.to_dict()) for r in classify_vertices(build(), range(n), kind)]
    g = build()
    factor_contexts.clear()
    kept = []
    for _ in range(2):
        assert [json.dumps(classify(g, u, kind).to_dict()) for u in range(n)] == want
        kept.append(sedentary._graph_spectra(g, kind).factors)
    assert kept[0] is kept[1] and kept[0] is not None
    assert len(factor_contexts) == pairs


def _support_sets(g, kind) -> int:
    """Distinct (decomposition, support index set) pairs among the records
    kept on g and on the factor graphs below it."""
    graphs, seen, found = [g], set(), 0
    while graphs:
        h = graphs.pop()
        if id(h) in seen:
            continue
        seen.add(id(h))
        if kind in h._spectra:
            w = h._spectra[kind].walk
            found += len({rec.indices for rec in w._diag_cache.values()})
        prov = h.provenance
        if isinstance(prov, tuple) and prov and prov[0] == "cartesian":
            graphs += prov[1:3]
    return found


@pytest.mark.parametrize("build, n, fits", [
    (_square, 25, {"adjacency": 3, "laplacian": 5}),
    (_cube, 64, {"adjacency": 4, "laplacian": 9}),
], ids=["S4xS4", "S3xS3xS3"])
@pytest.mark.parametrize("kind", ["adjacency", "laplacian"])
def test_one_period_fit_per_support_index_set(monkeypatch, build, n, fits, kind):
    """A per-vertex classify pass and one classify_vertices call each fit
    every (decomposition, support index set) once, and give the same
    bytes."""
    calls = []
    rescale = spectral._rescale_to_integers
    # each period fit calls _rescale_to_integers once
    monkeypatch.setattr(spectral, "_rescale_to_integers",
                        lambda *args: calls.append(args) or rescale(*args))
    kind_ = parse_matrix_kind(kind)
    g = build()
    alone = [json.dumps(classify(g, u, kind_).to_dict()) for u in range(n)]
    assert len(calls) == _support_sets(g, kind_) == fits[kind]
    calls.clear()
    g = build()
    together = [json.dumps(r.to_dict()) for r in classify_vertices(g, range(n), kind_)]
    assert len(calls) == _support_sets(g, kind_) == fits[kind]
    assert alone == together
