"""Box products factorise the walk diagonal under the degree-shifted kinds:
|U_{G x H}(t)_{(x,y),(x,y)}| = |U_G(t)_{x,x}| |U_H(t)_{y,y}|.  So a product
vertex's bound is at least the product of its factors' bounds, and
classifying product vertices one call at a time, on a graph object that
keeps its factors' reports, gives the reports a fresh product gives."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qwsed.graphs import WeightedGraph, cartesian_product
from qwsed.matrices import parse_matrix_kind
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
