"""The batched, safeguarded Newton refinement behind every scan: the
reducers' derivatives, the refined values against dense samples of their
brackets, the iterates and values against the reference iteration, the
sign safeguard and the step cap, and corpus argmins against 50-digit
critical points."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qwsed.walk as walk
from qwsed.graphs import build_family, parse_family
from qwsed.matrices import parse_matrix_kind
from qwsed.walk import (
    _NEWTON_STEPS,
    DEFAULT_WINDOW,
    WalkError,
    WalkEvaluator,
    _grid_values,
    _leak,
    _local_minima,
    _neg_peak,
    _newton_batch,
    _sq,
    _sq_at,
)
from test_walk import _defect, _force_grid, _scan_case

_REDUCERS = {"sq": _sq, "leak": _leak, "neg_peak": _neg_peak, "defect": _defect(5)}


def _sums(lam, coef, t):
    """z, z' and z'' of sum_j coef_j e^{i lam_j t} at one time, as rows."""
    e = np.exp(1j * t * lam)[None, :]
    return e @ coef, e @ (1j * lam[:, None] * coef), e @ (-(lam ** 2)[:, None] * coef)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_REDUCERS)), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 6), st.integers(1, 4), st.floats(0.0, 50.0))
def test_reducer_derivatives_match_central_differences(name, seed, k, m, t):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-3.0, 3.0, k)
    coef = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
    reducer = _REDUCERS[name]
    if name == "neg_peak":
        # away from a kink, where the argmax column changes
        sq = np.sort(np.abs(_sums(lam, coef, t)[0][0]) ** 2)
        assume(m == 1 or sq[-1] - sq[-2] > 1e-2)
    d = 1e-5
    f, g, h = (float(v[0]) for v in reducer.terms(*_sums(lam, coef, t)))
    fm, gm, _ = (float(v[0]) for v in reducer.terms(*_sums(lam, coef, t - d)))
    fp, gp, _ = (float(v[0]) for v in reducer.terms(*_sums(lam, coef, t + d)))
    assert f == pytest.approx(float(reducer.value(_sums(lam, coef, t)[0])[0]),
                              rel=1e-12, abs=1e-12)
    scale = 1.0 + float(np.sum(np.abs(coef))) ** 2 * 9.0
    assert abs(g - (fp - fm) / (2.0 * d)) <= 1e-6 * scale
    assert abs(h - (gp - gm) / (2.0 * d)) <= 1e-6 * scale * 3.0


def test_refined_values_beat_dense_bracket_samples(monkeypatch):
    rng = np.random.default_rng(7)
    _force_grid(monkeypatch, 1024)
    brackets = 0
    for _ in range(60):
        k = int(rng.integers(2, 7))
        lam = rng.uniform(-3.0, 3.0, k)
        wts = rng.random(k)
        wts /= wts.sum()
        coef = wts[:, None]
        ts, sq = _grid_values(lam, coef, _sq.value, (0.0, 60.0))
        at = _local_minima(sq)
        x, fx = _newton_batch(lam, coef, _sq.terms, ts[at - 1], ts[at + 1], ts[at], 1e-10)
        for i, t, v in zip(at, x, fx):
            assert ts[i - 1] <= t <= ts[i + 1]
            dense = _sq_at(lam, wts, np.linspace(ts[i - 1], ts[i + 1], 512))
            assert v <= dense.min() + 1e-14
        brackets += len(at)
    assert brackets > 1000


def test_refinement_does_not_depend_on_the_batch():
    # each bracket's iterates and values are those it gets refined alone,
    # so pruning other brackets cannot move a reported value
    brackets = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(-3.0, 3.0, 8)
        wts = rng.random(8)
        coef = (wts / wts.sum())[:, None]
        ts, sq = _grid_values(lam, coef, _sq.value, (0.0, 100.0))
        g = np.flatnonzero((sq[1:-1] <= sq[:-2]) & (sq[1:-1] <= sq[2:])) + 1
        x, fx = _newton_batch(lam, coef, _sq.terms, ts[g - 1], ts[g + 1], ts[g], 1e-10)
        for i, gi in enumerate(g):
            xi, fi = _newton_batch(lam, coef, _sq.terms, [ts[gi - 1]], [ts[gi + 1]],
                                   [ts[gi]], 1e-10)
            assert (xi[0], fi[0]) == (x[i], fx[i])
        brackets += len(g)
    assert brackets > 1000


def _reference_newton_batch(lam: np.ndarray, coef: np.ndarray, terms, a: np.ndarray,
                            b: np.ndarray, x: np.ndarray, xtol: float
                            ) -> tuple[np.ndarray, np.ndarray]:
    """The batched Newton iteration as it stood before its step stopped
    gathering and scattering the open brackets at every step, kept verbatim
    as the reference for _newton_batch's bits."""
    a, b, x = (np.array(v, dtype=float) for v in (a, b, x))
    fx = np.empty(len(x))
    if not len(x):
        return x, fx
    m = coef.shape[1]
    cols = np.concatenate((coef, 1j * lam[:, None] * coef,
                           -(lam * lam)[:, None] * coef), axis=1)
    cap = _NEWTON_STEPS + 2 + max(math.ceil(math.log2(float(np.max(b - a)) / xtol)), 0)
    act = np.arange(len(x))
    for i in range(cap):
        xa = x[act]
        z = np.matmul(np.exp(1j * np.outer(xa, lam))[:, None, :], cols)[:, 0, :]
        f, g, h = terms(z[:, :m], z[:, m:2 * m], z[:, 2 * m:])
        fx[act] = f
        aa = np.where(g < 0.0, xa, a[act])
        ba = np.where(g > 0.0, xa, b[act])
        newton = xa - g / np.where(h > 0.0, h, 1.0)
        ok = (g == 0.0) | ((h > 0.0) & (newton >= aa) & (newton <= ba)
                           & (i < _NEWTON_STEPS))
        step = np.where(ok, newton, 0.5 * (aa + ba)) - xa
        a[act], b[act], x[act] = aa, ba, xa + step
        act = act[(np.abs(step) > xtol) & (ba - aa > xtol)]
        if not act.size:
            return x, fx
    raise WalkError(f"Newton refinement left {act.size} brackets open after {cap} steps")


@pytest.mark.parametrize("name", ["sq", "subset", "leak", "neg_peak", "defect"])
def test_newton_batch_matches_the_reference_bit_for_bit(name, monkeypatch):
    """On batches of 1 to 40 grid-local minima of seeded searches of each
    kind (_scan_case), at the tolerance that search refines to, every
    bracket gets the iterate and value of the reference iteration, bit for
    bit.  Every other batch lies on a coarse grid and starts each bracket
    at a random time inside it, so that steps leave their brackets, meet
    f'' <= 0 and move the ends by the sign of f'."""
    rng = np.random.default_rng([19, len(name)])
    xtol = 1e-10 if name in ("sq", "subset") else 1e-12
    brackets = 0
    for size in range(1, 41):
        coarse = size % 2 == 0
        while True:
            lam, coef, reducer, _ = _scan_case(rng, name, bool(rng.random() < 0.3))
            _force_grid(monkeypatch, 400 if coarse else None)
            ts, vals = _grid_values(lam, coef, reducer.value, (0.0, 200.0))
            at = _local_minima(vals)
            if len(at) >= size:
                break
        at = rng.choice(at, size, replace=False)
        x = ts[at] + (rng.uniform(-1.0, 1.0, size) * (ts[1] - ts[0]) if coarse else 0.0)
        args = (lam, coef, reducer.terms, ts[at - 1], ts[at + 1], x, xtol)
        new, ref = _newton_batch(*args), _reference_newton_batch(*args)
        for got, want in zip(new, ref):
            assert got.tobytes() == want.tobytes()
        brackets += size
    assert brackets == 820


def _counted(reducer):
    """The reducer's terms, counting the calls (one per step)."""
    calls = []

    def wrapped(z, dz, d2z):
        calls.append(len(z))
        return reducer.terms(z, dz, d2z)
    return wrapped, calls


def _cap(a, b, xtol):
    return walk._NEWTON_STEPS + 2 + math.ceil(math.log2((b - a) / xtol))


def test_concave_start_bisects_to_the_minimum():
    # |1/2 + e^{it}/2|^2 = (1 + cos t)/2: f'' < 0 at the start, minimum at pi
    lam, coef = np.array([0.0, 1.0]), np.array([[0.5], [0.5]])
    a, x0, b = math.pi - 2.0, math.pi - 1.8, math.pi + 0.5
    reduce, calls = _counted(_sq)
    assert float(_sq.terms(*_sums(lam, coef, x0))[2][0]) < 0.0
    x, fx = _newton_batch(lam, coef, reduce, [a], [b], [x0], 1e-12)
    assert abs(x[0] - math.pi) <= 1e-12
    assert fx[0] <= 1e-20
    assert len(calls) <= _cap(a, b, 1e-12)


@pytest.mark.parametrize("x0,end", [(0.45, 0.2), (0.55, 1.0)])
def test_neg_peak_kink_closes_the_bracket(x0, end):
    # |U_1|^2 = (1 + cos t)/2 peaks at 0, |U_2|^2 = (1 + cos(t - 1))/2 at 1;
    # they cross at 1/2, a kink of -max on [0.2, 1.2]
    lam = np.array([0.0, 1.0])
    coef = np.array([[0.5, 0.5], [0.5, 0.5 * np.exp(-1j)]])
    reduce, calls = _counted(_neg_peak)
    x, fx = _newton_batch(lam, coef, reduce, [0.2], [1.2], [x0], 1e-12)
    assert abs(x[0] - end) <= 1e-12
    assert fx[0] == pytest.approx(float(_neg_peak.value(_sums(lam, coef, end)[0])[0]),
                                  abs=1e-12)
    assert len(calls) <= _cap(0.2, 1.2, 1e-12)


def test_degenerate_minimum_stays_under_the_cap():
    # (1 - cos t)^2 has a quartic zero at 0, where Newton only converges
    # linearly: the bracket falls back to bisection and still closes
    lam = np.array([0.0, 1.0, -1.0])
    coef = np.array([[1.0], [-0.5], [-0.5]])
    reduce, calls = _counted(_sq)
    x, _ = _newton_batch(lam, coef, reduce, [-0.4], [0.3], [0.25], 1e-12)
    # f' ~ t^3 sinks below rounding near the zero, so x is only ~1e-8
    assert abs(x[0]) <= 1e-7
    assert walk._NEWTON_STEPS < len(calls) <= _cap(-0.4, 0.3, 1e-12)


# -- corpus argmins against 50-digit critical points ---------------------------

_CORPUS_MOVED = (
    ("multipartite:2,3", "gen:0.5", 0),
    ("multipartite:2,3", "gen:0.5", 1),
    ("doublestar:3,2", "gen:0.5", 5),
    ("threshold:2,2,2", "gen:0.5", 0),
    ("threshold:2,2,2", "adjacency", 0),
    ("doublecone:disconnected:empty:4", "gen:0.5", 0),
)


def _oracle(spec, kind, u):
    ev = WalkEvaluator.for_graph(build_family(parse_family(spec)), parse_matrix_kind(kind))
    return ev, ev.minimize_diagonal(u, window=(0.0, DEFAULT_WINDOW))


@pytest.mark.parametrize("spec,kind,u", _CORPUS_MOVED)
def test_open_window_argmin_is_a_critical_point(spec, kind, u):
    ev, res = _oracle(spec, kind, u)
    lam, wts = ev.spectrum(u)[:2]
    with mpmath.workdps(50):
        lm = [mpmath.mpf(float(v)) for v in lam]
        wm = [mpmath.mpf(float(v)) for v in wts]

        def dsq(t):
            # d/dt sum_jk w_j w_k cos((lam_j - lam_k) t)
            return -sum(wj * wk * (lj - lk) * mpmath.sin((lj - lk) * t)
                        for wj, lj in zip(wm, lm) for wk, lk in zip(wm, lm))

        root = mpmath.findroot(dsq, mpmath.mpf(res.argmin))
        assert abs(float(root - mpmath.mpf(res.argmin))) <= 1e-11


def test_multipartite_flat_minimum_is_not_overstated():
    # golden-section settled on the higher of two minima 5.4e-4 apart in
    # one bracket and reported 0.0036433515, 3.0e-9 too high
    _, res = _oracle("multipartite:2,3", "gen:0.5", 0)
    assert abs(res.minimum - 0.00364334851926) <= 1e-12
