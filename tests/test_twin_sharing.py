"""classify_vertices classifies the least vertex of each twin class and
carries its report to the other twins by the swap automorphism: every
report must be the one classify makes of its vertex alone, whatever was
requested with it, and the swap must save the classifications it
claims."""

import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qwsed import sedentary
from qwsed.cli import main
from qwsed.graphs import WeightedGraph, build_family, parse_family
from qwsed.matrices import ADJACENCY, assemble, parse_matrix_kind
from qwsed.sedentary import (NOT_SEDENTARY_PST, TWIN_BOUND, classify, classify_vertices,
                             twin_bound)
from qwsed.spectral import find_twin_sets
from twin_reference import class_theta, twin_bound_reference

KINDS = ("adjacency", "laplacian", "gen:0.5", "norm-adj", "norm-lap")

_weights = st.builds(lambda p, q: float(Fraction(p, q)),
                     st.integers(1, 6), st.sampled_from((1, 2, 3, 4)))


@st.composite
def planted_twins(draw, weights=_weights, sizes=st.integers(2, 4)):
    """A graph on at most 8 vertices, with loops and weights drawn from
    the strategy weights (rational by default), in which a planted class of
    twins (adjacent or not), of a size drawn from sizes, shares its loop
    weight and its weighted neighbourhood; vertices are then shuffled."""
    size = draw(sizes)
    rest = draw(st.integers(1, 8 - size))
    n = size + rest
    edges = {}
    for i in range(rest):
        for j in range(i, rest):
            if draw(st.booleans()):
                edges[(i, j)] = draw(weights)
    # every twin is joined to the same base vertices with the same weights
    reach = {b: draw(weights) for b in range(rest) if draw(st.booleans())}
    reach = reach or {0: draw(weights)}
    loop = draw(st.one_of(st.just(None), weights))
    eta = draw(weights) if draw(st.booleans()) else None
    twins = range(rest, n)
    for t in twins:
        edges.update(((b, t), w) for b, w in reach.items())
        if loop is not None:
            edges[(t, t)] = loop
        if eta is not None:
            edges.update(((t, s), eta) for s in twins if s > t)
    perm = draw(st.permutations(range(n)))
    return WeightedGraph(n, tuple(sorted(
        (min(perm[a], perm[b]), max(perm[a], perm[b]), w) for (a, b), w in edges.items())))


@st.composite
def planted_requests(draw):
    """A planted_twins graph and a requested subset of its vertices, in
    random order."""
    g = draw(planted_twins())
    return g, draw(st.lists(st.integers(0, g.n - 1), min_size=1, unique=True))


def _assert_same(shared, alone):
    """shared is alone exactly: every field bit for bit, the vertices of
    its oracle and its certificates included, and so the same JSON."""
    assert shared == alone, f"vertex {alone.vertex}"
    assert shared.to_dict() == alone.to_dict()


def _close(a, b, tol):
    return (a is None and b is None) or (a is not None and b is not None
                                         and abs(a - b) <= tol)


def _assert_carried(carried, own, walk):
    """carried, a twin's report under the swap, matches own, the vertex's
    own classification: labels, kinds, vertices and twin bounds exactly,
    values within 1e-9.  Times agree within 1e-7 or, where a flat minimum
    leaves the time that far undetermined, give |U(t)_vv| within 1e-9 of
    each other: the twins' own open-window argmins can lie 1e-4 apart."""
    v = own.vertex
    where = f"vertex {v}"

    def same_time(x, y):
        return _close(x, y, 1e-7) or abs(abs(walk.transition_entry(x, v, v))
                                          - abs(walk.transition_entry(y, v, v))) <= 1e-9
    assert carried.vertex == carried.oracle.vertex == v, where
    assert all(c.vertex == v for c in carried.certificates), where
    assert carried.classification == own.classification, where
    assert _close(carried.bound, own.bound, 1e-9), where
    assert [c.kind for c in carried.certificates] == [c.kind for c in own.certificates], where
    for a, b in zip(carried.certificates, own.certificates):
        assert a.vertex == b.vertex, where
        assert _close(a.bound, b.bound, 1e-9), (where, a.kind)
        assert len(a.equality_times) == len(b.equality_times), (where, a.kind)
        assert all(same_time(x, y) for x, y in zip(a.equality_times, b.equality_times))
        if a.kind == TWIN_BOUND:
            assert (a.detail, a.subset) == (b.detail, b.subset), where
            assert _close(a.weight, b.weight, 1e-9), where
    co, oo = carried.oracle, own.oracle
    assert co.vertex == oo.vertex, where
    assert (co.window, co.grid, co.certified_window) == (oo.window, oo.grid,
                                                          oo.certified_window), where
    assert _close(co.minimum, oo.minimum, 1e-9), where
    assert same_time(co.argmin, oo.argmin), where


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=planted_requests())
# under gen:0.5 the twins 0 and 4 have an open-window minimum of 6.9e-5
# whose own argmins lie 8.6e-5 apart, so a report that depended on which
# twin was requested first would show it here, and vertex 4's carried
# report matches its own classification only through the flat minimum
@example(case=(WeightedGraph(5, ((0, 1, 3.0), (1, 1, 3.0), (1, 4, 3.0))), [4, 0]))
def test_carried_reports_match_their_own_classification(kind, case):
    """Each report of classify_vertices, for any requested subset in any
    order, is the report classify makes of its vertex alone, and matches
    the vertex's own classification (_classify_vertex in a context of its
    own, where no report is carried)."""
    g, requested = case
    k = parse_matrix_kind(kind)
    assert any(ts.size >= 2 for ts in find_twin_sets(g))
    own = sedentary._Context(g, k)
    for v, shared in zip(requested, classify_vertices(g, requested, k)):
        _assert_same(shared, classify(g, v, k))
        _assert_carried(shared, sedentary._classify_vertex(own, v), own.walk)


def _classifications(monkeypatch):
    calls = []
    real = sedentary._classify_vertex

    def counted(ctx, u):
        calls.append(u)
        return real(ctx, u)
    monkeypatch.setattr(sedentary, "_classify_vertex", counted)
    return calls


@pytest.mark.parametrize("family,classified", [("star:40", 2), ("complete:30", 1)])
def test_one_classification_per_twin_class(monkeypatch, tmp_path, family, classified):
    calls = _classifications(monkeypatch)
    out = tmp_path / "reports.json"
    assert main(["analyze", "--family", family, "--vertex", "all", "--out", str(out)]) == 0
    reports = json.loads(out.read_text(encoding="utf-8"))
    assert [r["vertex"] for r in reports] == list(range(len(reports)))
    assert len(calls) == classified


@pytest.mark.parametrize("kind", ["adjacency", "laplacian", "norm-adj"])
def test_a_lone_twin_classifies_its_least_twin(monkeypatch, kind):
    # leaf 17 of star:30 alone takes the report of leaf 1, the least leaf,
    # carried over, which is its report in --vertex all too
    k = parse_matrix_kind(kind)
    g = build_family(parse_family("star:30"))
    calls = _classifications(monkeypatch)
    lone = classify(g, 17, k)
    assert calls == [1]
    assert lone.to_dict() == classify_vertices(g, range(g.n), k)[17].to_dict()


def test_perfect_transfer_is_classified_in_full(monkeypatch):
    # the two ends of K_2 are twins, but each transfers to the other
    calls = _classifications(monkeypatch)
    g = build_family(parse_family("complete:2"))
    reports = classify_vertices(g, [0, 1], ADJACENCY)
    assert calls == [0, 1]
    pst = [c for c in reports[1].certificates if c.kind == NOT_SEDENTARY_PST]
    assert pst and pst[0].vertex == 1
    assert pst[0].detail.startswith("perfect transfer to vertex 0")


def test_twins_of_different_roles_are_classified_apart(monkeypatch):
    # the catalogue rules star leaves under the adjacency matrix by their
    # label role, so a leaf relabelled out of that role keeps its own report
    g = build_family(parse_family("star:3"))
    g = g.with_labels((*g.labels[:-1], "spare:0"))
    calls = _classifications(monkeypatch)
    shared = classify_vertices(g, range(g.n), ADJACENCY)
    assert calls == [0, 1, 3]
    for r in shared:
        _assert_same(r, classify(g, r.vertex, ADJACENCY))
    assert [c.kind for c in shared[3].certificates] != [c.kind for c in shared[2].certificates]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(g=planted_twins(st.sampled_from((0.1, 1.0 / 3.0, 0.7, 1.0, 2.0)), st.integers(2, 5)))
# the leaves' degree is 2 * 0.2 + 0.7 = 1.1 by hand, where assemble adds
# (0.7 + 0.2) + 0.2 = 1.0999999999999999: the kept theta is the matrix's
@example(g=WeightedGraph(3, ((0, 1, 0.7), (0, 2, 0.7), (1, 1, 0.2), (2, 2, 0.2))))
def test_kept_twin_theta_matches_the_reference(kind, g):
    """Each twin class keeps the theta of its kind's assembled matrix to
    the bit, which is the closed form within 1e-12 * max(1, |theta|), and
    every twin's bound has the subset, mass and detail of the reference,
    which looks theta up over the whole spectrum of a decomposition of its
    own."""
    k = parse_matrix_kind(kind)
    m = assemble(g, k).matrix
    verdicts = sedentary._graph_spectra(g, k).twin_verdicts
    classes = find_twin_sets(g)
    assert classes
    for ts in classes:
        a, b = ts.vertices[:2]
        theta, want = verdicts[ts.vertices], class_theta(g, k, ts)
        assert theta == m[a, a] - m[a, b], ts
        assert abs(theta - want) <= 1e-12 * max(1.0, abs(want)), ts
        for u in ts.vertices:
            got, ref = twin_bound(g, u, k), twin_bound_reference(g, u, k)
            assert (got.bound, got.subset, got.weight, got.detail) == (
                ref.bound, ref.subset, ref.weight, ref.detail), (ts, u)


def test_twin_eigenvector_checked_once_per_class(monkeypatch):
    """Every vertex of one graph object is classified in one call under
    each of the five kinds in turn: star:40 has one twin class of its 40
    leaves, the double cone over two disconnected squares three pairs (its
    apexes and two pairs of opposite corners).  Per kind the matrix is
    assembled once and each class's difference eigenvector is checked
    once, against that matrix, at the theta the kind's closed form gives,
    and each twin's report keeps its own twin bound, made from that kept
    theta."""
    assembled, checked = [], {}
    real_assemble, real_check = sedentary.assemble, sedentary.verify_twin_eigenvector

    def assemble(graph, kind):
        h = real_assemble(graph, kind)
        assembled.append(h.matrix)
        return h

    def check(m, ts, theta):
        assert m is assembled[-1]
        assert ts.vertices not in checked
        checked[ts.vertices] = theta
        return real_check(m, ts, theta)
    monkeypatch.setattr(sedentary, "assemble", assemble)
    monkeypatch.setattr(sedentary, "verify_twin_eigenvector", check)
    for family, sizes in (("star:40", [40]), ("doublecone:disconnected:cycle:4", [2, 2, 2])):
        g = build_family(parse_family(family))
        classes = [ts for ts in find_twin_sets(g) if ts.size > 1]
        assert [ts.size for ts in classes] == sizes
        for kind in KINDS:
            k = parse_matrix_kind(kind)
            assembled.clear()
            checked.clear()
            reports = classify_vertices(g, range(g.n), k)
            assert len(assembled) == 1, (family, kind)
            assert list(checked) == [ts.vertices for ts in classes], (family, kind)
            for ts in classes:
                want = class_theta(g, k, ts)
                assert abs(checked[ts.vertices] - want) <= 1e-12 * max(1.0, abs(want))
            for r in reports:
                twin = [c for c in r.certificates if c.kind == TWIN_BOUND]
                cls = next((ts for ts in classes if r.vertex in ts.vertices), None)
                assert len(twin) == (cls is not None), (family, kind, r.vertex)
                if twin:
                    assert twin[0].vertex == r.vertex and twin[0].detail.startswith(
                        f"twin class {{{r.vertex}, ")
                    assert twin[0].detail.endswith(
                        f"difference eigenvalue {checked[cls.vertices]:g}")
