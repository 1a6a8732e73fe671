import itertools
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

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
    family_closed_classification,
    find_equality_time,
    find_zero_crossing,
    integer_kernel_basis,
    product_compose,
    sharpness_parity,
    subset_bound,
    twin_bound,
)
from qwsed.spectral import decompose, support
from qwsed.walk import WalkEvaluator


def _decomp(fam, kind=ADJACENCY):
    return decompose(assemble(build_family(parse_family(fam)), kind))


def _classify(fam, u, kind=ADJACENCY, **kw):
    g = build_family(parse_family(fam))
    opts = ClassifyOptions(**kw) if kw else None
    return classify(g, u, kind, opts)


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
    d = _decomp("complete:5")
    cert = subset_bound(d, 0, (1,))
    assert cert.bound == pytest.approx(0.6, abs=1e-12)
    assert cert.weight == pytest.approx(0.8)
    assert cert.analytic and cert.certified


def test_subset_bound_refuses_light_subsets():
    d = _decomp("complete:5")
    with pytest.raises(CertificateRefused):
        subset_bound(d, 0, (0,))  # weight 1/5
    with pytest.raises(CertificateRefused):
        subset_bound(d, 0, (0, 1))  # whole support
    with pytest.raises(CertificateRefused):
        subset_bound(d, 0, ())


def test_subset_bound_pair_certified_window():
    d = _decomp("rook:3,4")
    sup = support(d, 0)
    heavy = [sup.indices[i] for i in range(len(sup.indices))
             if sup.weights[i] >= 0.4]
    pair = (sup.indices[0], heavy[0])
    cert = subset_bound(d, 0, pair)
    assert not cert.analytic
    assert cert.certified  # integer spectrum gives a certified period
    w = WalkEvaluator(d)
    res = w.minimize_diagonal(0)
    assert cert.bound <= res.minimum + 1e-9


def test_equality_condition_complete_graph():
    d = _decomp("complete:5")
    assert equality_condition(d, 0, (1,), math.pi / 5.0)
    assert not equality_condition(d, 0, (1,), math.pi / 7.0)


def test_find_equality_time():
    d = _decomp("complete:5")
    t = find_equality_time(d, 0, (1,), (0.0, 2.0 * math.pi / 5.0))
    assert t == pytest.approx(math.pi / 5.0, abs=1e-8)
    d4 = _decomp("star:4")
    t4 = find_equality_time(d4, 1, (1,), (0.0, math.pi))
    assert t4 == pytest.approx(math.pi / 2.0, abs=1e-8)


def test_find_equality_time_reads_the_support_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return support(*args, **kwargs)

    monkeypatch.setattr("qwsed.sedentary.support", counting)
    d = _decomp("complete:5")
    assert find_equality_time(d, 0, (1,), (0.0, 20.0)) == \
        pytest.approx(math.pi / 5.0, abs=1e-8)
    assert len(calls) == 1


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
        d = decompose(assemble(g, ADJACENCY))
        for u in range(min(g.n, 3)):
            sup = support(d, u)
            phases = np.exp(1j * np.outer(ts, sup.eigenvalues))
            subsets = itertools.chain(*(itertools.combinations(range(len(sup.indices)), r)
                                        for r in (2, 3)))
            for sub in subsets:
                if len(sub) >= len(sup.indices) or sum(sup.weights[p] for p in sub) < 0.5:
                    continue
                cert = subset_bound(d, u, [sup.indices[p] for p in sub], window)
                wts = np.array([sup.weights[p] for p in sub])
                dense = float(np.min(np.abs(phases[:, list(sub)] @ wts)))
                assert cert.bound <= max(dense - (1.0 - cert.weight), 0.0) + 1e-12
                checked += 1
    assert checked >= 20


# -- twin bounds -----------------------------------------------------------------


def test_twin_bound_complete():
    g = build_family(parse_family("complete:5"))
    d = decompose(assemble(g, ADJACENCY))
    cert = twin_bound(g, 0, ADJACENCY, d)
    assert cert.bound == pytest.approx(0.6)
    assert cert.subset and cert.weight == pytest.approx(0.8)


def test_twin_bound_pair_is_vacuous_but_reported():
    g = build_family(parse_family("path:3"))
    cert = twin_bound(g, 0, ADJACENCY)
    assert cert.bound == 0.0


def test_twin_bound_refused_without_twin():
    g = build_family(parse_family("path:4"))
    with pytest.raises(CertificateRefused):
        twin_bound(g, 0, ADJACENCY)


def test_twin_bound_soundness_on_blow_up():
    g = blow_up(path_graph(3), "vertex",
                [(4, "empty"), (1, "empty"), (3, "empty")])
    d = decompose(assemble(g, ADJACENCY))
    cert = twin_bound(g, 0, ADJACENCY, d)
    assert cert.bound == pytest.approx(1.0 - 2.0 / 7.0)
    res = WalkEvaluator(d).minimize_diagonal(0)
    assert res.minimum >= cert.bound - 1e-6


# -- integer relations -----------------------------------------------------------


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


def test_sharpness_parity_vacuous_on_complete():
    d = _decomp("complete:5")
    cert = sharpness_parity(d, 0, (1,))
    assert cert.bound == pytest.approx(0.6)


def test_sharpness_parity_refused_on_odd_relation():
    h = _rank_one_spectrum((3.0, 1.0, 0.0), (0.2, 0.55, 0.25))
    d = decompose(h)
    with pytest.raises(CertificateRefused):
        sharpness_parity(d, 0, (1,))


def test_sharpness_parity_unsupported_spectrum():
    d = _decomp("path:4")
    sup = support(d, 0)
    heavy = max(range(len(sup.indices)), key=lambda i: sup.weights[i])
    with pytest.raises((UnsupportedSpectrum, CertificateRefused)):
        sharpness_parity(d, 0, (sup.indices[heavy],))


# -- zero crossings --------------------------------------------------------------


def test_zero_crossing_edge():
    d = _decomp("complete:2")
    cert = find_zero_crossing(d, 0)
    assert cert.bound == 0.0
    assert cert.equality_times[0] == pytest.approx(math.pi / 2.0, abs=1e-10)


def test_zero_crossing_double_star_internal():
    d = _decomp("doublestar:2,2")
    cert = find_zero_crossing(d, 2, (0.0, 2.0 * math.pi))
    t0 = cert.equality_times[0]
    assert 0.0 < t0 < 2.0 * math.pi
    w = WalkEvaluator(d)
    assert abs(w.transition_entry(t0, 2, 2)) < 1e-9


def test_zero_crossing_refused_for_asymmetric_diagonal():
    d = _decomp("complete:5")
    with pytest.raises(CertificateRefused):
        find_zero_crossing(d, 0)


def test_zero_crossing_refused_without_sign_change():
    # the path end grazes zero without crossing
    d = _decomp("path:3")
    with pytest.raises(CertificateRefused):
        find_zero_crossing(d, 0, (0.0, 2.0))


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


def test_zero_crossing_bisection_agrees_with_brentq(monkeypatch):
    from scipy.optimize import brentq

    import qwsed.sedentary as sed

    cases = _corpus_zero_crossings()
    assert len(cases) >= 10
    for fam, kind, u, window, frozen in cases:
        d = _decomp(fam, parse_matrix_kind(kind))
        t = find_zero_crossing(d, u, window).equality_times[0]
        with monkeypatch.context() as m:
            m.setattr(sed, "_bisect",
                      lambda f, a, b, xtol: float(brentq(f, a, b, xtol=xtol)))
            t_brentq = find_zero_crossing(d, u, window).equality_times[0]
        assert abs(t - t_brentq) <= 1e-12
        assert abs(t - frozen) <= 1e-12


def test_runtime_imports_no_scipy():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, qwsed\n"
            "g = qwsed.build_family(qwsed.parse_family('path:5'))\n"
            "r = qwsed.classify(g, 0)\n"
            "assert r.classification == 'not-sedentary', r.classification\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


# -- family catalogue ------------------------------------------------------------


def test_family_ruling_complete():
    spec = parse_family("complete:6")
    ruling = family_closed_classification(spec, ADJACENCY, "")
    assert ruling.classification == TIGHTLY_SEDENTARY
    assert ruling.bound == pytest.approx(2.0 / 3.0)
    assert ruling.equality_times[0] == pytest.approx(math.pi / 6.0)
    assert family_closed_classification(parse_family("complete:2"),
                                        LAPLACIAN, "").classification == NOT_SEDENTARY


def test_family_ruling_rook_alignment():
    same = family_closed_classification(parse_family("rook:3,5"), ADJACENCY, "")
    assert same.classification == TIGHTLY_SEDENTARY
    assert same.bound == pytest.approx(0.2)
    assert same.equality_times[0] == pytest.approx(math.pi)
    mixed = family_closed_classification(parse_family("rook:3,4"), ADJACENCY, "")
    assert mixed.classification == SEDENTARY_AT_LEAST
    assert mixed.bound == pytest.approx(1.0 / 6.0)
    two = family_closed_classification(parse_family("rook:2,5"), ADJACENCY, "")
    assert two.classification == NOT_SEDENTARY


def test_family_ruling_star_roles():
    leafa = family_closed_classification(parse_family("star:9"), ADJACENCY, "leaf")
    assert leafa.classification == TIGHTLY_SEDENTARY
    assert leafa.bound == pytest.approx(1.0 - 2.0 / 9.0)
    assert leafa.equality_times[0] == pytest.approx(math.pi / 3.0)
    centa = family_closed_classification(parse_family("star:9"), ADJACENCY, "center")
    assert centa.classification == NOT_SEDENTARY
    centl = family_closed_classification(parse_family("star:9"), LAPLACIAN, "center")
    assert centl.bound == pytest.approx(0.8)
    # no ruling for normalized kinds
    assert family_closed_classification(parse_family("star:9"),
                                        NORMALIZED_ADJACENCY, "leaf") is None


def test_family_ruling_double_cone_laplacian():
    for n, expect in ((4, 1.0 / 3.0), (8, 0.2)):
        spec = parse_family(f"doublecone:disconnected:empty:{n}")
        ruling = family_closed_classification(spec, LAPLACIAN, "apex")
        assert ruling.classification == TIGHTLY_SEDENTARY
        assert ruling.bound == pytest.approx(expect)
        assert ruling.equality_times[0] == pytest.approx(math.pi / 2.0)
    odd = family_closed_classification(
        parse_family("doublecone:disconnected:empty:7"), LAPLACIAN, "apex")
    assert odd.bound == pytest.approx(math.sqrt(2.0) / 9.0)
    pst = family_closed_classification(
        parse_family("doublecone:disconnected:empty:6"), LAPLACIAN, "apex")
    assert pst.classification == NOT_SEDENTARY


def test_family_ruling_double_cone_adjacency():
    spec = parse_family("doublecone:disconnected:cycle:4")
    ruling = family_closed_classification(spec, ADJACENCY, "apex")
    assert ruling.classification == TIGHTLY_SEDENTARY
    assert ruling.bound == pytest.approx(1.0 / 3.0)
    assert ruling.equality_times[0] == pytest.approx(math.pi / 2.0)
    # nonsquare discriminant: infimum zero without attainment
    ruling = family_closed_classification(
        parse_family("doublecone:disconnected:cycle:5"), ADJACENCY, "apex")
    assert ruling.classification == NOT_SEDENTARY
    assert ruling.equality_times == ()


def test_family_ruling_double_star():
    bal = family_closed_classification(parse_family("doublestar:2,2"),
                                       ADJACENCY, "leafu")
    assert bal.classification == TIGHTLY_SEDENTARY
    assert bal.bound == pytest.approx(0.25)
    assert bal.equality_times[0] == pytest.approx(2.0 * math.pi / 3.0)
    unb = family_closed_classification(parse_family("doublestar:2,5"),
                                       ADJACENCY, "leafu")
    assert unb.classification == NOT_SEDENTARY
    sharp = family_closed_classification(parse_family("doublestar:3,4"),
                                         ADJACENCY, "leafu")
    assert sharp.classification == SHARPLY_SEDENTARY
    assert sharp.bound == pytest.approx(1.0 / 3.0)
    square = family_closed_classification(parse_family("doublestar:9,16"),
                                          ADJACENCY, "leafu")
    assert square.classification == SEDENTARY_AT_LEAST


def test_family_ruling_cone():
    la = family_closed_classification(parse_family("cone:cycle:6"),
                                      LAPLACIAN, "apex")
    assert la.bound == pytest.approx(1.0 - 2.0 / 7.0)
    assert la.equality_times[0] == pytest.approx(math.pi / 7.0)
    ad = family_closed_classification(parse_family("cone:cycle:6"),
                                      ADJACENCY, "apex")
    assert ad.bound == pytest.approx(2.0 / math.sqrt(28.0))
    assert ad.equality_times[0] == pytest.approx(math.pi / math.sqrt(28.0))


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
    # the product and its two factors
    assert len(eighs) == 3
    assert len(twins) == 3


def test_classify_vertices_matches_classify():
    g = cartesian_product(star_graph(3), complete_graph(3))
    many = classify_vertices(g, [0, 4, 7], LAPLACIAN)
    for u, r in zip([0, 4, 7], many):
        assert r.to_dict() == classify(g, u, LAPLACIAN).to_dict()
    with pytest.raises(CertificateRefused):
        classify_vertices(g, [0, g.n], LAPLACIAN)



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


def test_classify_subset_search_stays_sound():
    plain = _classify("rook:3,4", 0)
    searched = _classify("rook:3,4", 0, subset_search=True)
    assert searched.classification == plain.classification
    for c in searched.certificates:
        if c.certified:
            assert c.bound <= searched.oracle.minimum + 1e-6


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
