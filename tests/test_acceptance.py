"""Acceptance gate: one test per numbered criterion.

Each test prints a single "criterion N: PASS/FAIL" line (echoed in the
terminal summary) and then asserts.  Every criterion is expected to pass.
"""

import cmath
import math
import time

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
)
from qwsed.matrices import ADJACENCY, LAPLACIAN, assemble
from qwsed.sedentary import (
    NOT_SEDENTARY,
    TIGHTLY_SEDENTARY,
    classify,
    twin_bound,
)
from qwsed.spectral import (
    are_cospectral,
    decompose,
    find_twin_sets,
    strong_cospectral,
    support,
)
from qwsed.walk import (
    WalkEvaluator,
    check_fractional_revival,
    check_uniform_mixing,
)


def _fam(text):
    return build_family(parse_family(text))


def _walk(text, kind=ADJACENCY):
    return WalkEvaluator.for_graph(_fam(text), kind)


def _random_graph(rng, n):
    """Connected-enough random graph with positive weights."""
    while True:
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    edges.append((u, v, float(rng.uniform(0.2, 2.0))))
        if edges:
            return WeightedGraph(n, tuple(edges))


def _finish(criterion_log, num, fails, elapsed, budget, detail):
    status = "PASS" if not fails and elapsed < budget else "FAIL"
    line = (f"criterion {num}: {status} - {detail} "
            f"({elapsed:.2f}s, budget {budget:g}s)")
    if fails:
        line += f" [{fails[0]}]"
    criterion_log(line)
    print(line)
    assert not fails, fails
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s"


def test_criterion_01_complete_graphs(criterion_log):
    start = time.perf_counter()
    fails = []
    for n in range(3, 17):
        w = WalkEvaluator.for_graph(complete_graph(n))
        res = w.minimize_diagonal(0, window=(0.0, 2.0 * math.pi / n))
        if abs(res.minimum - (1.0 - 2.0 / n)) > 1e-6:
            fails.append(f"n={n} minimum {res.minimum}")
        if abs(res.argmin - math.pi / n) > 1e-6:
            fails.append(f"n={n} argmin {res.argmin}")
    _finish(criterion_log, 1, fails, time.perf_counter() - start, 1.0,
            "complete graphs n=3..16: oracle min 1-2/n at pi/n within 1e-6")


def test_criterion_02_rook_products(criterion_log):
    start = time.perf_counter()
    fails = []
    w35 = WalkEvaluator.for_graph(
        cartesian_product(complete_graph(3), complete_graph(5)))
    r35 = w35.minimize_diagonal(0)
    if abs(r35.minimum - 0.2) > 1e-6:
        fails.append(f"3x5 minimum {r35.minimum}")
    if abs(r35.argmin - math.pi) > 1e-6:
        fails.append(f"3x5 argmin {r35.argmin}")
    w34 = WalkEvaluator.for_graph(
        cartesian_product(complete_graph(3), complete_graph(4)))
    r34 = w34.minimize_diagonal(0)
    if abs(r34.minimum - 0.2064) > 1e-3:
        fails.append(f"3x4 minimum {r34.minimum}")
    if abs(r34.argmin - 0.9556) > 1e-3:
        fails.append(f"3x4 argmin {r34.argmin}")
    _finish(criterion_log, 2, fails, time.perf_counter() - start, 1.0,
            "rook minima: 0.2 at pi (3x5), 0.2064 at 0.9556 (3x4)")


def test_criterion_03_path_three(criterion_log):
    start = time.perf_counter()
    fails = []
    g = _fam("path:3")
    wa = WalkEvaluator.for_graph(g, ADJACENCY)
    mag = abs(wa.transition_entry(math.pi / math.sqrt(2.0), 0, 2))
    if abs(mag - 1.0) > 1e-9:
        fails.append(f"end-to-end magnitude {mag}")
    ra = classify(g, 0, ADJACENCY)
    if ra.classification != NOT_SEDENTARY:
        fails.append(f"adjacency end classified {ra.classification}")
    rl = classify(g, 0, LAPLACIAN)
    if not (rl.oracle.minimum > 0.0):
        fails.append(f"laplacian oracle minimum {rl.oracle.minimum}")
    if rl.classification != TIGHTLY_SEDENTARY:
        fails.append(f"laplacian end classified {rl.classification}")
    _finish(criterion_log, 3, fails, time.perf_counter() - start, 1.0,
            "P_3: adjacency PST end not sedentary, laplacian end tight")


def test_criterion_04_clique_join_laplacian(criterion_log):
    start = time.perf_counter()
    fails = []
    rng = np.random.default_rng(427)
    ts = np.linspace(0.0, 2.0 * math.pi, 1000)
    for trial in range(10):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(2, 11))
        x = _random_graph(rng, n)
        g = join(complete_graph(m), x)
        w = WalkEvaluator.for_graph(g, LAPLACIAN)
        big = m + n
        # a clique vertex of K_m join X: eigenvalue 0 with weight 1/big and
        # eigenvalue big with the rest, for any X on n vertices
        closed = (1.0 + (big - 1) * np.exp(1j * big * ts)) / big
        gap = float(np.max(np.abs(closed - w.diagonal_entry_series(0, ts))))
        if gap > 1e-9:
            fails.append(f"trial {trial} m={m} n={n} closed-form gap {gap}")
        res = w.minimize_diagonal(0, window=(0.0, 2.0 * math.pi / big))
        if abs(res.minimum - (1.0 - 2.0 / big)) > 1e-6:
            fails.append(f"trial {trial} minimum {res.minimum}")
        if abs(res.argmin - math.pi / big) > 1e-6:
            fails.append(f"trial {trial} argmin {res.argmin}")
    _finish(criterion_log, 4, fails, time.perf_counter() - start, 5.0,
            "K_m join X laplacian: closed form within 1e-9, min 1-2/(m+n)")


def test_criterion_05_double_cone_laplacian(criterion_log):
    start = time.perf_counter()
    fails = []
    g6 = _fam("doublecone:disconnected:empty:6")
    r6 = classify(g6, 0, LAPLACIAN)
    if r6.classification != NOT_SEDENTARY:
        fails.append(f"n=6 classified {r6.classification}")
    w6 = WalkEvaluator.for_graph(g6, LAPLACIAN)
    pst = w6.find_perfect_state_transfer(0, (0.0, math.pi))
    if pst is None or pst.target != 1 or pst.magnitude < 1.0 - 1e-8:
        fails.append(f"n=6 PST witness {pst}")
    for n in (4, 8):
        r = classify(_fam(f"doublecone:disconnected:empty:{n}"), 0, LAPLACIAN)
        if abs(r.oracle.minimum - 2.0 / (n + 2)) > 1e-6:
            fails.append(f"n={n} minimum {r.oracle.minimum}")
        if abs(r.oracle.argmin - math.pi / 2.0) > 1e-6:
            fails.append(f"n={n} argmin {r.oracle.argmin}")
    for n in (5, 7):
        r = classify(_fam(f"doublecone:disconnected:empty:{n}"), 0, LAPLACIAN)
        if abs(r.oracle.minimum - math.sqrt(2.0) / (n + 2)) > 1e-6:
            fails.append(f"n={n} minimum {r.oracle.minimum}")
    r1 = classify(_fam("doublecone:disconnected:empty:1"), 0, LAPLACIAN)
    if abs(r1.oracle.minimum - 1.0 / 3.0) > 1e-6:
        fails.append(f"n=1 minimum {r1.oracle.minimum}")
    if abs(r1.oracle.argmin - math.pi) > 1e-6:
        fails.append(f"n=1 argmin {r1.oracle.argmin}")
    _finish(criterion_log, 5, fails, time.perf_counter() - start, 5.0,
            "empty double cone laplacian: PST at n=6, minima by n mod 4")


def test_criterion_06_double_cone_adjacency(criterion_log):
    start = time.perf_counter()
    fails = []
    r4 = classify(_fam("doublecone:disconnected:cycle:4"), 0, ADJACENCY)
    if abs(r4.oracle.minimum - 1.0 / 3.0) > 1e-6:
        fails.append(f"C_4 minimum {r4.oracle.minimum}")
    if abs(r4.oracle.argmin - math.pi / 2.0) > 1e-6:
        fails.append(f"C_4 argmin {r4.oracle.argmin}")
    r12 = classify(_fam("doublecone:disconnected:cycle:12"), 0, ADJACENCY)
    if abs(r12.oracle.minimum - math.sqrt(2.0) / 5.0) > 1e-6:
        fails.append(f"C_12 minimum {r12.oracle.minimum}")
    _finish(criterion_log, 6, fails, time.perf_counter() - start, 5.0,
            "double cone adjacency: 1/3 at pi/2 over C_4, sqrt(2)/5 over C_12")


def test_criterion_07_stars(criterion_log):
    start = time.perf_counter()
    fails = []
    for n in (4, 9, 16):
        wa = _walk(f"star:{n}", ADJACENCY)
        leaf = wa.minimize_diagonal(1)
        if abs(leaf.minimum - (1.0 - 2.0 / n)) > 1e-6:
            fails.append(f"n={n} leaf minimum {leaf.minimum}")
        if abs(leaf.argmin - math.pi / math.sqrt(n)) > 1e-6:
            fails.append(f"n={n} leaf argmin {leaf.argmin}")
        center = wa.minimize_diagonal(0)
        if center.minimum > 1e-6:
            fails.append(f"n={n} center minimum {center.minimum}")
        wl = _walk(f"star:{n}", LAPLACIAN)
        cl = wl.minimize_diagonal(0)
        if abs(cl.minimum - (1.0 - 2.0 / (n + 1))) > 1e-6:
            fails.append(f"n={n} laplacian center minimum {cl.minimum}")
        if abs(cl.argmin - math.pi / (n + 1)) > 1e-6:
            fails.append(f"n={n} laplacian center argmin {cl.argmin}")
    _finish(criterion_log, 7, fails, time.perf_counter() - start, 2.0,
            "stars n=4,9,16: leaf 1-2/n at pi/sqrt(n), center 0 (A) and "
            "1-2/(n+1) at pi/(n+1) (L)")


def test_criterion_08_balanced_double_star(criterion_log):
    start = time.perf_counter()
    fails = []
    g = _fam("doublestar:2,2")
    w = WalkEvaluator.for_graph(g)
    leaf = w.minimize_diagonal(0)
    if abs(leaf.minimum - 0.25) > 1e-6:
        fails.append(f"leaf minimum {leaf.minimum}")
    if abs(leaf.argmin - 2.0 * math.pi / 3.0) > 1e-6:
        fails.append(f"leaf argmin {leaf.argmin}")
    ts = np.linspace(0.0, 2.0 * math.pi, 4096)
    series = w.diagonal_entry_series(2, ts)
    if float(np.max(np.abs(series.imag))) > 1e-9:
        fails.append("internal diagonal is not real-valued")
    if float(np.min(series.real)) > -1e-9:
        fails.append("internal diagonal does not change sign on [0, 2pi]")
    ri = classify(g, 2, ADJACENCY)
    if ri.classification != NOT_SEDENTARY:
        fails.append(f"internal classified {ri.classification}")
    _finish(criterion_log, 8, fails, time.perf_counter() - start, 1.0,
            "S_{2,2}: leaf min 1/4 at 2pi/3, internal sign change")


def test_criterion_09_cone_over_cycles(criterion_log):
    # The stated floor 4/(4+4n) is the squared magnitude at the dip: the
    # magnitude itself bottoms out at 2/sqrt(4+4n) > 4/(4+4n), so the
    # inequality holds with equality only after squaring.  All four facets
    # are checked so the constant, the time, and the true minimum each get
    # an independent assertion.
    start = time.perf_counter()
    fails = []
    for n in range(5, 11):
        g = cone(cycle_graph(n))
        w = WalkEvaluator.for_graph(g, ADJACENCY)
        floor = 4.0 / (4.0 + 4.0 * n)
        tstar = math.pi / math.sqrt(4.0 + 4.0 * n)
        res = w.minimize_diagonal(0, window=(0.0, 2.0 * math.pi))
        ts = np.linspace(0.0, 2.0 * math.pi, 4096)
        mags = np.abs(w.diagonal_entry_series(0, ts))
        if float(mags.min()) < floor - 1e-9 or res.minimum < floor - 1e-9:
            fails.append(f"n={n} magnitude dips below 4/(4+4n)")
        if abs(res.argmin - tstar) > 1e-6:
            fails.append(f"n={n} argmin {res.argmin} vs {tstar}")
        if abs(res.minimum - 2.0 / math.sqrt(4.0 + 4.0 * n)) > 1e-6:
            fails.append(f"n={n} minimum {res.minimum}")
        at_star = abs(w.transition_entry(tstar, 0, 0))
        if abs(at_star * at_star - floor) > 1e-9:
            fails.append(f"n={n} squared magnitude at t* {at_star ** 2}")
    _finish(criterion_log, 9, fails, time.perf_counter() - start, 2.0,
            "cone apex over C_5..C_10: |U| >= 4/(4+4n) with the squared "
            "magnitude touching the floor at pi/sqrt(4+4n)")


def test_criterion_10_property_suites(criterion_log):
    start = time.perf_counter()
    fails = []
    rng = np.random.default_rng(1105)
    sc_hits = 0
    twin_hits = 0
    classify_pairs = 0
    for i in range(200):
        n = int(rng.integers(2, 13))
        g = _random_graph(rng, n)
        h = assemble(g, ADJACENCY)
        d = decompose(h.matrix)
        w = WalkEvaluator(d)
        for t in (0.7, 2.3):
            um = w.transition_matrix(t)
            if float(np.max(np.abs(um @ um.conj().T - np.eye(n)))) > 1e-9:
                fails.append(f"graph {i}: unitarity defect at t={t}")
        total = np.zeros((n, n))
        recon = np.zeros((n, n))
        for j in range(len(d.eigenvalues)):
            e = d.projectors[j]
            if float(np.max(np.abs(e @ e - e))) > 1e-9:
                fails.append(f"graph {i}: projector {j} not idempotent")
            total = total + e
            recon = recon + d.eigenvalues[j] * e
        if float(np.max(np.abs(total - np.eye(n)))) > 1e-9:
            fails.append(f"graph {i}: projectors do not sum to identity")
        scale = max(1.0, float(np.max(np.abs(h.matrix))))
        if float(np.max(np.abs(recon - h.matrix))) > 1e-9 * scale:
            fails.append(f"graph {i}: spectral reconstruction off")
        sup = support(d, 0)
        if abs(sum(sup.weights) - 1.0) > 1e-10:
            fails.append(f"graph {i}: support weights sum {sum(sup.weights)}")

        if i % 10 == 0:
            y = _random_graph(rng, int(rng.integers(2, 5)))
            prod = cartesian_product(g, y)
            wp = WalkEvaluator.for_graph(prod, ADJACENCY)
            wy = WalkEvaluator.for_graph(y, ADJACENCY)
            times = np.linspace(0.1, 3.0, 16)
            lhs = wp.diagonal_entry_series(0, times)
            rhs = (w.diagonal_entry_series(0, times)
                   * wy.diagonal_entry_series(0, times))
            if float(np.max(np.abs(lhs - rhs))) > 1e-9:
                fails.append(f"graph {i}: product diagonal does not factor")

        if i % 7 == 0 and n <= 10:
            b = blow_up(g, "vertex", [(3, "empty")] + [(1, "empty")] * (n - 1))
            twins = find_twin_sets(b)
            if twins:
                twin_hits += 1
                tset = max(twins, key=lambda s: s.size)
                u = tset.vertices[0]
                cert = twin_bound(b, u, ADJACENCY)
                wb = WalkEvaluator.for_graph(b, ADJACENCY)
                mstar = wb.minimize_diagonal(
                    u, window=(0.0, 2.0 * math.pi)).minimum
                if mstar < 1.0 - 2.0 / tset.size - 1e-6:
                    fails.append(f"graph {i}: twin bound violated {mstar}")
                if mstar < cert.bound - 1e-6:
                    fails.append(f"graph {i}: certificate above oracle")

        if i % 11 == 0 and n <= 10:
            dc = double_cone(g, "disconnected")
            dd = decompose(assemble(dc, ADJACENCY).matrix)
            sc = strong_cospectral(dd, 0, 1)
            if sc:
                sc_hits += 1
                sup0 = support(dd, 0)
                plus = sum(wt for j, wt in zip(sup0.indices, sup0.weights)
                           if j in sc.plus)
                if abs(plus - 0.5) > 1e-6:
                    fails.append(f"graph {i}: SC plus weight {plus}")

        if i % 50 == 0 and n <= 8:
            b = blow_up(g, "vertex", [(2, "empty")] + [(1, "empty")] * (n - 1))
            db = decompose(assemble(b, ADJACENCY).matrix)
            if are_cospectral(db, 0, 1):
                classify_pairs += 1
                ra = classify(b, 0, ADJACENCY)
                rb = classify(b, 1, ADJACENCY)
                if ra.classification != rb.classification:
                    fails.append(
                        f"graph {i}: cospectral vertices classified "
                        f"{ra.classification} vs {rb.classification}")
    if sc_hits == 0:
        fails.append("no strongly cospectral pair exercised")
    if twin_hits == 0:
        fails.append("no twin set exercised")
    if classify_pairs == 0:
        fails.append("no cospectral classification pair exercised")
    _finish(criterion_log, 10, fails, time.perf_counter() - start, 60.0,
            f"200 random graphs: unitarity, projectors, supports, products, "
            f"{twin_hits} twin bounds, {sc_hits} SC pairs, "
            f"{classify_pairs} cospectral classifications")


def _k3_column0(t):
    """Closed-form (U(t)_00, U(t)_10) for K_3 under the adjacency matrix.

    A = 2 J/3 - (I - J/3), so U(t) = e^{2it} J/3 + e^{-it} (I - J/3).
    """
    stay = (cmath.exp(2j * t) + 2.0 * cmath.exp(-1j * t)) / 3.0
    move = (cmath.exp(2j * t) - cmath.exp(-1j * t)) / 3.0
    return stay, move


def test_criterion_11_mixing_hooks(criterion_log):
    start = time.perf_counter()
    fails = []
    w13 = _walk("star:3", ADJACENCY)
    t13 = math.pi / (3.0 * math.sqrt(3.0))
    if not check_uniform_mixing(w13, 0, t13):
        fails.append("K_{1,3} center column not uniform at pi/(3 sqrt 3)")

    # |U(t)_00|^2 = 5/9 + (4/9) cos 3t for K_3, so column 0 is uniform first
    # when cos 3t = -1/2, at t = 2pi/9; at pi/9 it is sqrt(7)/3, 1/3, 1/3.
    w3 = WalkEvaluator.for_graph(complete_graph(3))
    t_um = 2.0 * math.pi / 9.0
    t_half = math.pi / 9.0
    if not check_uniform_mixing(w3, 0, t_um):
        fails.append("K_3 column 0 not uniform at 2pi/9")
    if check_uniform_mixing(w3, 0, t_half):
        fails.append("K_3 column 0 reported uniform at pi/9")
    expected = {t_um: (1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)),
                t_half: (math.sqrt(7.0) / 3.0, 1.0 / 3.0)}
    for t, (stay_mag, move_mag) in expected.items():
        stay, move = _k3_column0(t)
        if (abs(abs(stay) - stay_mag) > 1e-12
                or abs(abs(move) - move_mag) > 1e-12):
            fails.append(f"K_3 closed form at t={t}: |U_00| = {abs(stay)}, "
                         f"|U_10| = {abs(move)}")
        for v in range(3):
            mag = abs(w3.transition_entry(t, v, 0))
            ref = stay_mag if v == 0 else move_mag
            if abs(mag - ref) > 1e-12:
                fails.append(f"K_3 |U(t)_{v}0| = {mag} at t={t}, "
                             f"closed form {ref}")

    for n in (4, 8):
        w = _walk(f"doublecone:disconnected:empty:{n}", LAPLACIAN)
        t_fr = 2.0 * math.pi / (n + 2)
        fr = check_fractional_revival(w, 0, 1, t_fr)
        if not fr.proper:
            fails.append(f"n={n}: revival at {t_fr} not proper")
        if abs(fr.alpha ** 2 + fr.beta ** 2 - 1.0) > 1e-6:
            fails.append(f"n={n}: alpha^2+beta^2 = "
                         f"{fr.alpha ** 2 + fr.beta ** 2}")
        if abs(fr.beta) <= 1e-6:
            fails.append(f"n={n}: beta vanishes")

    _finish(criterion_log, 11, fails, time.perf_counter() - start, 2.0,
            "mixing hooks: K_{1,3} local uniform mixing, K_3 uniform at "
            "2pi/9 (cos 3t = -1/2) and not at pi/9, proper revivals for "
            "n = 4, 8")
