"""The batched, safeguarded Newton refinement behind every scan: the
reducers' derivatives, the refined values against dense samples of their
brackets, the sign safeguard and the step cap, and corpus argmins against
50-digit critical points."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qwsed.walk as walk
from qwsed.graphs import build_family, parse_family
from qwsed.matrices import parse_matrix_kind
from qwsed.sedentary import _alignment_defect
from qwsed.walk import (
    DEFAULT_WINDOW,
    WalkEvaluator,
    _curvature,
    _grid_values,
    _leak,
    _neg_peak,
    _newton_batch,
    _refine_minima,
    _sq,
    _sq_at,
)

_REDUCERS = {"sq": _sq, "leak": _leak, "neg_peak": _neg_peak,
             "defect": _alignment_defect(5)}


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
    reduce = _REDUCERS[name]
    if name == "neg_peak":
        # away from a kink, where the argmax column changes
        sq = np.sort(np.abs(_sums(lam, coef, t)[0][0]) ** 2)
        assume(m == 1 or sq[-1] - sq[-2] > 1e-2)
    d = 1e-5
    f, g, h = (float(v[0]) for v in reduce(*_sums(lam, coef, t)))
    fm, gm, _ = (float(v[0]) for v in reduce(*_sums(lam, coef, t - d)))
    fp, gp, _ = (float(v[0]) for v in reduce(*_sums(lam, coef, t + d)))
    assert f == pytest.approx(float(reduce(_sums(lam, coef, t)[0])[0]), rel=1e-12, abs=1e-12)
    scale = 1.0 + float(np.sum(np.abs(coef))) ** 2 * 9.0
    assert abs(g - (fp - fm) / (2.0 * d)) <= 1e-6 * scale
    assert abs(h - (gp - gm) / (2.0 * d)) <= 1e-6 * scale * 3.0


def test_refined_values_beat_dense_bracket_samples():
    rng = np.random.default_rng(7)
    brackets = 0
    for _ in range(60):
        k = int(rng.integers(2, 7))
        lam = rng.uniform(-3.0, 3.0, k)
        wts = rng.random(k)
        wts /= wts.sum()
        coef = wts[:, None]
        ts, sq = _grid_values(lam, coef, _sq, (0.0, 60.0), 1024)
        at, x, fx = _refine_minima(lam, coef, _sq, ts, sq,
                                   float(_curvature(lam, coef)[0]), math.inf, 1e-10)
        for i, t, v in zip(at, x, fx):
            assert ts[i - 1] <= t <= ts[i + 1]
            dense = _sq_at(lam, wts, np.linspace(ts[i - 1], ts[i + 1], 512))
            assert v <= dense.min() + 1e-14
        brackets += len(at)
    assert brackets > 1000


def _counted(reduce):
    """reduce, counting the calls that ask for derivatives (one per step)."""
    calls = []

    def wrapped(z, dz=None, d2z=None):
        if dz is not None:
            calls.append(len(z))
        return reduce(z, dz, d2z)
    return wrapped, calls


def _cap(a, b, xtol):
    return walk._NEWTON_STEPS + 2 + math.ceil(math.log2((b - a) / xtol))


def test_concave_start_bisects_to_the_minimum():
    # |1/2 + e^{it}/2|^2 = (1 + cos t)/2: f'' < 0 at the start, minimum at pi
    lam, coef = np.array([0.0, 1.0]), np.array([[0.5], [0.5]])
    a, x0, b = math.pi - 2.0, math.pi - 1.8, math.pi + 0.5
    reduce, calls = _counted(_sq)
    assert float(_sq(*_sums(lam, coef, x0))[2][0]) < 0.0
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
    assert fx[0] == pytest.approx(float(_neg_peak(_sums(lam, coef, end)[0])[0]), abs=1e-12)
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


def test_refine_tol_must_be_positive():
    ev = WalkEvaluator.for_graph(build_family(parse_family("path:5")))
    with pytest.raises(walk.WalkError):
        ev.minimize_diagonal(0, window=(0.0, 50.0), refine_tol=0.0)


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
