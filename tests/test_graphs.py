import math
import time
import warnings
from dataclasses import dataclass, field, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwsed.graphs import (
    FamilySpec,
    GraphError,
    WeightedGraph,
    _common_value,
    blow_up,
    build_family,
    cartesian_product,
    complement,
    complete_graph,
    cone,
    cycle_graph,
    describe_graph,
    direct_product,
    double_cone,
    double_star_graph,
    empty_graph,
    hamming_graph,
    join,
    parse_family,
    path_graph,
    read_graph_file,
    rook_graph,
    star_graph,
    union,
    write_graph_file,
)


def test_basic_constructors():
    assert complete_graph(5).num_edges == 10
    assert path_graph(4).num_edges == 3
    assert cycle_graph(6).num_edges == 6
    assert empty_graph(3).num_edges == 0


def test_weight_lookup_and_neighbors():
    g = WeightedGraph(3, ((0, 1, 2.0), (1, 2, 0.5)))
    assert g.weight(0, 1) == 2.0
    assert g.weight(1, 0) == 2.0
    assert g.weight(0, 2) == 0.0
    assert g.neighbors(1) == {0: 2.0, 2: 0.5}
    assert g.loop_weight(1) == 0.0


def test_loops_excluded_from_neighbors():
    g = WeightedGraph(2, ((0, 0, 3.0), (0, 1, 1.0)))
    assert g.loop_weight(0) == 3.0
    assert g.neighbors(0) == {1: 1.0}
    assert not g.is_simple


def test_duplicate_edges_rejected():
    with pytest.raises(GraphError):
        WeightedGraph(3, ((0, 1, 1.0), (1, 0, 2.0)))


def test_predicates():
    assert complete_graph(4).is_simple
    assert complete_graph(4).is_unweighted
    weighted = WeightedGraph(2, ((0, 1, 0.5),))
    assert not weighted.is_unweighted
    assert weighted.is_positively_weighted
    signed = WeightedGraph(2, ((0, 1, -1.0),))
    assert not signed.is_positively_weighted


def test_regular_degree():
    assert _common_value(cycle_graph(5).degrees()) == 2.0
    assert _common_value(star_graph(3).degrees()) is None
    assert _common_value(complete_graph(4).degrees()) == 3.0


def test_star_labels():
    g = star_graph(4)
    assert g.labels[0] == "center"
    assert g.labels[1] == "leaf:0"
    assert g.n == 5
    # center adjacent to every leaf
    assert g.neighbors(0) == {1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0}


def test_double_star_layout():
    g = double_star_graph(2, 3)
    assert g.n == 7
    assert g.labels == ("leafu:0", "leafu:1", "internal:u", "internal:v",
                        "leafv:0", "leafv:1", "leafv:2")
    assert g.has_edge(2, 3)
    assert g.neighbors(0) == {2: 1.0}
    assert g.neighbors(4) == {3: 1.0}


def test_join_and_cone():
    g = join(complete_graph(2), empty_graph(3))
    assert g.n == 5
    # every cross pair present
    assert all(g.has_edge(i, j) for i in (0, 1) for j in (2, 3, 4))
    c = cone(cycle_graph(4))
    assert c.labels[0] == "apex"
    assert c.neighbors(0) == {1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0}


def test_double_cone_modes():
    base = cycle_graph(4)
    disc = double_cone(base, "disconnected")
    conn = double_cone(base, "connected")
    assert not disc.has_edge(0, 1)
    assert conn.has_edge(0, 1)
    assert disc.labels[0] == "apex:0" and disc.labels[1] == "apex:1"
    with pytest.raises(GraphError):
        double_cone(base, "weird")


def test_complement_of_star():
    g = complement(star_graph(3))
    # center isolated, leaves mutually adjacent
    assert g.neighbors(0) == {}
    assert g.has_edge(1, 2) and g.has_edge(1, 3) and g.has_edge(2, 3)


def test_union_disjoint():
    g = union(complete_graph(2), complete_graph(3))
    assert g.n == 5
    assert g.has_edge(0, 1) and g.has_edge(2, 3)
    assert not g.has_edge(1, 2)


def test_cartesian_product_k2_k2_is_c4():
    g = cartesian_product(complete_graph(2), complete_graph(2))
    c4 = cycle_graph(4)
    a = g.adjacency_matrix()
    assert np.allclose(sorted(np.linalg.eigvalsh(a)),
                       sorted(np.linalg.eigvalsh(c4.adjacency_matrix())))
    assert g.num_edges == 4
    assert g.provenance[0] == "cartesian"


def test_cartesian_index_order():
    # row-major: vertex (u, v) -> u * ny + v
    x, y = path_graph(2), path_graph(3)
    g = cartesian_product(x, y)
    assert g.n == 6
    assert g.has_edge(0, 3)  # (0,0)-(1,0) from the x edge
    assert g.has_edge(0, 1)  # (0,0)-(0,1) from the y edge
    assert not g.has_edge(0, 4)


def _kronecker_product(x, y):
    """The direct product read off the dense Kronecker array, entry by entry."""
    a = np.kron(x.adjacency_matrix(), y.adjacency_matrix())
    n = x.n * y.n
    return WeightedGraph(n, tuple((u, v, float(a[u, v])) for u in range(n)
                                  for v in range(u, n) if a[u, v] != 0.0))


def test_direct_product_is_kronecker():
    x, y = complete_graph(2), path_graph(3)
    g = direct_product(x, y)
    assert np.allclose(g.adjacency_matrix(),
                       np.kron(x.adjacency_matrix(), y.adjacency_matrix()))
    # weighted factors with loops: a loop pair gives one loop, a loop and
    # an edge one edge, two edges two; every weight is the one product
    rng = np.random.default_rng(7)
    weights = (0.1, 1.0 / 3.0, 0.7, 1.0, 2.0, -0.5)
    for _ in range(60):
        x, y = (WeightedGraph(n, tuple(
            (a, b, weights[int(rng.integers(len(weights)))])
            for a in range(n) for b in range(a, n) if rng.random() < 0.5))
            for n in rng.integers(0, 6, size=2).tolist())
        g = direct_product(x, y)
        assert g == _kronecker_product(x, y)
        assert g.provenance == ("direct", x, y)
    # a weight that underflows gives no edge
    tiny = WeightedGraph(2, ((0, 1, 1e-200),))
    assert direct_product(tiny, WeightedGraph(2, ((0, 0, 1e-200), (0, 1, 1.0)))) == \
        WeightedGraph(4, ((0, 3, 1e-200), (1, 2, 1e-200)))
    # C_60 x C_60 would take a 3600 x 3600 Kronecker array; its 7200 edges
    # join (i, j) to (i +- 1, j +- 1)
    x = cycle_graph(60)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        g = direct_product(x, x)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1
    assert g.num_edges == 7200 and np.all(g.degrees() == 4.0)
    assert g.has_edge(0, 61) and g.has_edge(60, 1) and g.has_edge(0, 3599)
    small = cycle_graph(12)
    assert direct_product(small, small) == _kronecker_product(small, small)




def test_rook_and_hamming():
    r = rook_graph([3, 4])
    assert r.n == 12
    assert _common_value(r.degrees()) == 5.0
    h = hamming_graph(2, 3)
    assert h.n == 9
    assert np.allclose(sorted(np.linalg.eigvalsh(h.adjacency_matrix())),
                       sorted(np.linalg.eigvalsh(rook_graph([3, 3]).adjacency_matrix())))


def test_blow_up_vertex_mode():
    g = blow_up(path_graph(3), "vertex", [(3, "empty"), (1, "empty"), (2, "empty")])
    assert g.n == 6
    # copies of an end vertex stay non-adjacent and share the old neighborhood
    assert not g.has_edge(0, 1)
    assert g.has_edge(0, 3) and g.has_edge(1, 3) and g.has_edge(2, 3)
    assert g.has_edge(4, 3) and g.has_edge(5, 3)


def test_blow_up_complete_fill():
    g = blow_up(path_graph(2), "vertex", [(2, "complete"), (1, "empty")])
    assert g.has_edge(0, 1)
    assert g.has_edge(0, 2) and g.has_edge(1, 2)


def test_parse_family_round_trip():
    for text in ("complete:5", "rook:3,4", "star:7",
                 "doublecone:disconnected:cycle:5", "doublestar:2,3"):
        spec = parse_family(text)
        assert str(spec) == text
        g = build_family(spec)
        assert g.n > 0
        assert describe_graph(g) == text


def test_parse_family_rejects_garbage():
    with pytest.raises(GraphError):
        parse_family("heptagon:9")
    with pytest.raises(GraphError):
        parse_family("complete:")


def test_family_spec_params():
    spec = parse_family("doublecone:connected:empty:6")
    assert spec.kind == "doublecone"
    assert spec.mode == "connected"
    assert spec.base is not None and spec.base.n == 6


def test_graph_file_round_trip(tmp_path):
    g = WeightedGraph(4, ((0, 1, 1.5), (1, 2, 1.0), (2, 3, 0.25), (3, 3, 2.0)))
    path = tmp_path / "g.graph"
    write_graph_file(g, path)
    back = read_graph_file(path)
    assert back.n == g.n
    assert back.edges == g.edges


def test_graph_file_with_base_reference(tmp_path):
    base = cycle_graph(5)
    path = tmp_path / "base.graph"
    write_graph_file(base, path)
    spec = parse_family(f"cone:@{path}")
    g = build_family(spec)
    assert g.n == 6
    assert g.labels[0] == "apex"


def test_describe_anonymous_graph():
    g = WeightedGraph(3, ((0, 1, 1.0),))
    text = describe_graph(g)
    assert text.startswith("graph:3v,1e,")


# -- canonical edges against a per-edge reference ----------------------------------


def _reference_edges(n, edges):
    """Edge by edge: convert, check range, weight and repeats, then sort."""
    seen, out = set(), []
    for e in edges:
        if len(e) == 2:
            u, v = e
            w = 1.0
        else:
            u, v, w = e
        u, v, w = int(u), int(v), float(w)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if not math.isfinite(w) or w == 0.0:
            raise GraphError(f"edge ({u},{v}) has invalid weight {w!r}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise GraphError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        out.append((u, v, w))
    return tuple(sorted(out, key=lambda t: (t[0], t[1])))


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except Exception as exc:  # the type and message must agree too
        return type(exc), str(exc)


_ENDS = st.one_of(st.integers(-2, 6), st.sampled_from([1.0, 2.5, -0.5, 3.99]),
                  st.sampled_from([math.nan, math.inf, 2 ** 70, "3", "1.5", None]))
_WEIGHTS = st.one_of(st.sampled_from([1.0, 2.0, -0.5, 0.0, -0.0, 1e-300, 0.1,
                                      math.nan, math.inf, -math.inf]),
                     st.floats(allow_nan=True, allow_infinity=True),
                     st.integers(-3, 3))
_ROW = st.one_of(st.tuples(_ENDS, _ENDS), st.tuples(_ENDS, _ENDS, _WEIGHTS))
# uniform numeric rows take the column path; the rest go edge by edge
_NUMERIC = st.one_of(
    st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6), _WEIGHTS), max_size=12),
    st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)), max_size=12),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                       st.sampled_from([1.0, 0.5, math.nan, 0.0])), max_size=12))


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 6), st.one_of(_NUMERIC, st.lists(_ROW, max_size=10)))
def test_canonical_edges_match_a_per_edge_reference(n, edges):
    want = _outcome(_reference_edges, n, edges)
    got = _outcome(lambda: WeightedGraph(n, edges).edges)
    assert got == want
    if got[0] == "ok":
        assert all(type(u) is int and type(v) is int and type(w) is float
                   for u, v, w in got[1])
    numeric = all(type(x) in (int, float) for e in edges for x in e)
    if edges and numeric and len({len(e) for e in edges}) == 1:
        assert _outcome(lambda: WeightedGraph(n, np.array(edges)).edges) == want


def test_columns_and_predicates_read_the_canonical_edges():
    g = WeightedGraph(4, ((3, 1, 0.5), (0, 0, 2.0), (2, 0, -1.0)))
    u, v, w = g.columns
    assert u.tolist() == [0, 0, 1] and v.tolist() == [0, 2, 3]
    assert w.tolist() == [2.0, -1.0, 0.5]
    assert not u.flags.writeable
    assert g.degrees().tolist() == [3.0, 0.5, -1.0, 0.5]
    assert not g.is_simple and not g.is_unweighted and not g.is_positively_weighted
    h = g.with_labels("abcd")
    assert h == g and h.labels == tuple("abcd")
    assert all(np.array_equal(x, y) for x, y in zip(h.columns, g.columns))


# -- the incidence record and annotations, against the edge list --------------------


@st.composite
def _small_graphs(draw):
    """Graphs with n <= 8, loops allowed, weights from {1, 2, 0.5, -1}."""
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20)) if pairs else []
    weights = draw(st.lists(st.sampled_from([1.0, 2.0, 0.5, -1.0]),
                            min_size=len(chosen), max_size=len(chosen)))
    # input order and orientation do not matter to the canonical graph
    edges = [(v, u, w) if draw(st.booleans()) else (u, v, w)
             for (u, v), w in zip(chosen, weights)]
    return WeightedGraph(n, tuple(draw(st.permutations(edges))))


@settings(max_examples=300, deadline=None)
@given(_small_graphs())
def test_the_incidence_record_reads_the_edges(g):
    rec = g._incidence
    degrees = []
    for u in range(g.n):
        at = [(a, b, w) for a, b, w in g.edges if u in (a, b)]
        want = sorted((b if a == u else a, w) for a, b, w in at
                      for _ in range(2 if a == b else 1))
        got = slice(rec.start[u], rec.start[u + 1])
        assert rec.neighbors[got].tolist() == [v for v, _ in want]
        assert rec.weights[got].tolist() == [w for _, w in want]
        assert bool(rec.loop[u]) == any(a == b for a, b, _ in at)
        assert bool(rec.non_unit[u]) == any(w != 1.0 for *_, w in at)
        # the weights are dyadic, so every sum is exact
        degrees.append(sum(w for _, w in want))
        assert rec.degrees[u] == degrees[-1]
        weight = dict(want)
        for v in range(g.n):
            assert g.weight(u, v) == g.weight(v, u) == weight.get(v, 0.0)
            assert g.has_edge(u, v) == (v in weight)
        assert g.neighbors(u) == {v: w for v, w in weight.items() if v != u}
        assert g.loop_weight(u) == weight.get(u, 0.0)
    assert g.degrees() is rec.degrees and g.degrees().tolist() == degrees
    regular = degrees and all(d == degrees[0] for d in degrees)
    assert _common_value(g.degrees()) == (degrees[0] if regular else None)
    a = g.adjacency_matrix()
    np.testing.assert_allclose(g.degrees(), a.sum(axis=1) + np.diag(a), rtol=1e-12, atol=0)
    assert g.is_simple == all(a != b for a, b, _ in g.edges)
    assert g.is_unweighted == all(w == 1.0 for *_, w in g.edges)
    assert g.is_positively_weighted == all(w > 0.0 for *_, w in g.edges)
    assert g._incidence is rec


@pytest.mark.parametrize("g", [star_graph(3), WeightedGraph(2, ((1, 1, 2.0),))],
                         ids=["star:3", "loop"])
def test_vertex_queries_refuse_an_endpoint_outside_the_graph(g):
    """weight, has_edge, loop_weight and neighbors refuse -1 and n alike,
    at either end, with one GraphError."""
    for bad in (-1, g.n):
        calls = {"weight(bad, 0)": lambda: g.weight(bad, 0),
                 "weight(0, bad)": lambda: g.weight(0, bad),
                 "has_edge(bad, 0)": lambda: g.has_edge(bad, 0),
                 "has_edge(0, bad)": lambda: g.has_edge(0, bad),
                 "loop_weight(bad)": lambda: g.loop_weight(bad),
                 "neighbors(bad)": lambda: g.neighbors(bad)}
        for name, call in calls.items():
            with pytest.raises(GraphError, match=rf"^vertex {bad} out of range for n={g.n}$"):
                call()
    # n - 1 and 0 are still vertices
    last = g.n - 1
    want = {b if a == last else a: w for a, b, w in g.edges if last in (a, b)}
    assert g.weight(last, 0) == g.weight(0, last) == want.get(0, 0.0)
    assert g.loop_weight(last) == want.get(last, 0.0)
    assert g.neighbors(last) == {v: w for v, w in want.items() if v != last}


@settings(max_examples=200, deadline=None)
@given(_small_graphs(), st.sampled_from(["plain", "family", "op"]))
def test_annotations_equal_a_graph_built_with_them(g, kind):
    labels = [f"v{i}:{i % 3}" for i in range(g.n)]
    prov = {"plain": None, "family": FamilySpec("star", (3,)),
            "op": ("join", complete_graph(2), g)}[kind]
    for h, want in ((g.with_labels(labels), WeightedGraph(g.n, g.edges, labels=labels)),
                    (g.with_provenance(prov), WeightedGraph(g.n, g.edges, provenance=prov)),
                    (g.with_labels(labels).with_provenance(prov),
                     WeightedGraph(g.n, g.edges, labels=labels, provenance=prov))):
        assert h == want and h.edges == want.edges
        assert h.labels == want.labels and h.provenance is want.provenance
        assert describe_graph(h) == describe_graph(want)
        assert h.content_hash() == want.content_hash()
        assert all(np.array_equal(x, y) and x.dtype == y.dtype
                   for x, y in zip(h.columns, want.columns))
        # shared with the source, not canonicalized again
        assert h.columns is g.columns and h.edges is g.edges
        assert "_spectra" not in vars(h) and "_incidence" not in vars(h)
    with pytest.raises(GraphError):
        g.with_labels(labels + ["spare"])
    with pytest.raises(GraphError):
        g.with_provenance(prov).with_labels(labels[:-1] if g.n else ["a"])


def test_annotations_drop_nothing_they_do_not_set():
    g = star_graph(3)
    spec = FamilySpec("star", (3,))
    h = g.with_provenance(spec)
    assert h.labels == g.labels and h.provenance is spec
    assert h.with_labels(None).labels is None and h.with_labels(None).provenance is spec
    assert describe_graph(h) == "star:3" and describe_graph(g).startswith("graph:4v,3e,")
    assert describe_graph(h) is describe_graph(h)


def test_annotations_copy_every_field_and_the_class():
    @dataclass(frozen=True)
    class Tagged(WeightedGraph):
        tag: str = field(default="", compare=False)

    names = {f.name for f in fields(WeightedGraph)}
    g = star_graph(3)
    for h in (g.with_labels("abcd"), g.with_provenance(None)):
        assert names <= set(vars(h))
    t = Tagged(3, ((0, 1), (1, 2)), tag="kept")
    for h in (t.with_labels("xyz"), t.with_provenance(FamilySpec("path", (3,)))):
        assert type(h) is Tagged and h.tag == "kept" and h == t
        assert {f.name for f in fields(Tagged)} <= set(vars(h))


def _count_canonicalizations(monkeypatch):
    import qwsed.graphs as graphs

    calls = []
    original = graphs._canonical_edges

    def counting(n, edges):
        calls.append(n)
        return original(n, edges)

    monkeypatch.setattr(graphs, "_canonical_edges", counting)
    return calls


@pytest.mark.parametrize("text,built", [("star:12", 1), ("complete:13", 1),
                                        ("hamming:3,5", 5), ("rook:4,9", 3),
                                        ("cone:cycle:11", 3)])
def test_build_family_canonicalizes_each_graph_once(monkeypatch, text, built):
    """One canonicalization per graph a build constructs: hamming:3,5 makes
    three K_5 and two products, cone:cycle:11 a K_1, the join and its base
    (the base is built by parse_family)."""
    spec = parse_family(text)
    calls = _count_canonicalizations(monkeypatch)
    build_family(spec)
    assert len(calls) == built - (1 if spec.base is not None else 0)


# -- the graph file reader -----------------------------------------------------------


def _reference_read(path):
    """Line by line, as the format is specified."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise GraphError(f"{path}: empty graph file")
    try:
        n, m = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise GraphError(f"{path}: bad header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise GraphError(f"{path}: expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) not in (2, 3):
            raise GraphError(f"{path}: bad edge line {ln!r}")
        edges.append((int(toks[0]), int(toks[1]),
                      float(toks[2]) if len(toks) == 3 else 1.0))
    return WeightedGraph(n, tuple(edges))


def _read_both(tmp_path, text):
    path = tmp_path / "g.graph"
    path.write_text(text, encoding="utf-8")
    got = _outcome(lambda: read_graph_file(path).edges)
    want = _outcome(lambda: _reference_read(path).edges)
    return got, want


@pytest.mark.parametrize("text, error, message", [
    ("3 1\n0 1.5 1.0\n", ValueError, "invalid literal for int() with base 10: '1.5'"),
    ("3 1\n1e3 1 1.0\n", ValueError, "invalid literal for int() with base 10: '1e3'"),
    ("3 2\n0 1\n2\n", GraphError, "bad edge line '2'"),
    ("3 1\n0 1 1.0 4\n", GraphError, "bad edge line '0 1 1.0 4'"),
    ("3 3\n0 1\n1 2\n", GraphError, "expected 3 edge lines, found 2"),
    ("3 1\n0 1 x\n", ValueError, "could not convert string to float: 'x'"),
    ("3 2\n0 1 1.0\n1 2 1.0 #x\n", GraphError, "bad edge line '1 2 1.0 #x'"),
    ("3 1\n0 3 1.0\n", GraphError, "edge (0,3) out of range for n=3"),
    ("3\n0 1\n", GraphError, "bad header '3'"),
    ("\n# nothing\n", GraphError, "empty graph file"),
])
def test_reader_errors_name_the_first_bad_line(tmp_path, text, error, message):
    got, want = _read_both(tmp_path, text)
    assert got == want
    assert got[0] is error and got[1].endswith(message)


def _loadtxt_via_float(real):
    """np.loadtxt as numpy releases with the float-parsed integer deprecation
    behave: an integer field whose token int() refuses is parsed as a float
    and truncated, with a DeprecationWarning."""
    def loadtxt(lines, dtype, ndmin):
        for toks in map(str.split, lines):
            for tok in toks[:2]:
                try:
                    int(tok)
                except ValueError:
                    warnings.warn("Parsing an integer via a float is deprecated.",
                                  DeprecationWarning, stacklevel=2)
        as_float = np.dtype([(name, np.float64) for name in dtype.names])
        return real(lines, dtype=as_float, ndmin=ndmin).astype(dtype)
    return loadtxt


@pytest.mark.parametrize("text", ["3 1\n0 1.5 1.0\n", "3 1\n1e3 1 1.0\n",
                                  "3 1\n0 1.5\n", "3 2\n0 1 1.0\n2.0 1 1.0\n"])
def test_reader_refuses_float_endpoints_that_numpy_only_warns_about(
        tmp_path, monkeypatch, text):
    monkeypatch.setattr(np, "loadtxt", _loadtxt_via_float(np.loadtxt))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # as outside __main__
        got, want = _read_both(tmp_path, text)
    assert got == want and got[0] is ValueError


def test_reader_takes_loops_pairs_comments_and_spacing(tmp_path):
    text = "# a loop, a weighted edge and a pair\n4 3\n\n0 0 2.0\n1\t2  0.25\n 3 1\r\n"
    got, want = _read_both(tmp_path, text)
    assert got == want == ("ok", ((0, 0, 2.0), (1, 2, 0.25), (1, 3, 1.0)))


_TOKENS = ["0", "1", "2", "+2", "-1", "007", "1_0", "1.5", "1.0", "1e3", "0x1", "nan",
           "-nan", "+inf", "Infinity", ".5", "-0.0", "2.5", "٣", "9" * 20, "#", "x",
           "1\x01"]
_ENDPOINT = st.sampled_from(["0", "1", "2", "3", "+2", "007", "-1", "1_0", "1.0", "12"])
_WEIGHT = st.sampled_from(["1.0", "0.5", "-2", "1e3", "nan", "0", ".5", "1_0.5", "x"])
# lines of one width mostly take the column parser; the rest go line by line
_LINES = st.one_of(
    st.lists(st.lists(st.sampled_from(_TOKENS), min_size=0, max_size=4), max_size=6),
    st.lists(st.tuples(_ENDPOINT, _ENDPOINT, _WEIGHT).map(list), max_size=8),
    st.lists(st.tuples(_ENDPOINT, _ENDPOINT).map(list), max_size=8))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), _LINES,
       st.sampled_from([" ", "\t", "  ", "\x0b", "\x1c", "\xa0"]), st.booleans())
def test_reader_matches_a_line_by_line_reference(tmp_path_factory, n, lines, sep, lead):
    body = "\n".join(sep.join(toks) for toks in lines)
    text = f"{sep if lead else ''}\n{n} {sum(1 for toks in lines if toks)}\n{body}\n"
    got, want = _read_both(tmp_path_factory.mktemp("r"), text)
    assert got == want
