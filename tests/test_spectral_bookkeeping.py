"""The spectral layer's per-eigenvalue bookkeeping against numpy references.

decompose, support, SpectralDecomposition.scale and periodicity do their
per-eigenvalue steps on Python floats.  The reference versions below do
every step with numpy, as the layer once did; the two must agree to the
bit: every array with its dtype, and every period fit field by field (its
phases by their bytes, since a fit holding an array has no exact ==).
The continued fractions run in integers (_limit_denominator), and must give
Fraction(x).limit_denominator(n)'s numerator and denominator.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qwsed.graphs import build_family, parse_family
from qwsed.matrices import assemble, parse_matrix_kind
from qwsed.spectral import (
    _INT_TOL,
    _MAX_DENOMINATOR,
    _SUPPORT_TOL,
    _UNIT_TOL,
    _WHOLE_TOL,
    DEFAULT_CLUSTER_TOL,
    UNDETECTED,
    EigenvalueSupport,
    PeriodFit,
    _limit_denominator,
    _rescale_to_integers,
    decompose,
    period_fit,
    periodicity,
    support,
)

# -- numpy references -----------------------------------------------------------


def ref_decompose(m: np.ndarray) -> tuple[np.ndarray, ...]:
    """(eigenvalues, vectors, offsets, weights) with numpy steps."""
    vals, vecs = np.linalg.eigh(m)
    tol = DEFAULT_CLUSTER_TOL * max(1.0, float(np.max(np.abs(vals))) if len(vals) else 1.0)
    starts = np.flatnonzero(np.concatenate(([np.inf], np.diff(vals)))[:len(vals)] > tol)[::-1]
    sizes = -np.diff(np.concatenate(([len(vals)], starts)))
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    order = np.repeat(starts - offsets[:-1], sizes) + np.arange(len(vals))
    eigenvalues = vals[starts]
    for c in np.flatnonzero(sizes > 1):
        eigenvalues[c] = np.mean(vals[order[offsets[c]:offsets[c + 1]]])
    vectors = vecs[:, order]
    weights = np.add.reduceat(vectors * vectors, offsets[:-1], axis=1)
    return eigenvalues, vectors, offsets, weights


def ref_scale(eigenvalues: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(eigenvalues))) if len(eigenvalues) else 1.0)


def ref_support(d, u: int) -> EigenvalueSupport:
    wts = d.weights[u]
    idx = np.flatnonzero(np.sqrt(wts) > _SUPPORT_TOL)
    return EigenvalueSupport(u, tuple(idx.tolist()), tuple(d.eigenvalues[idx].tolist()),
                             tuple(wts[idx].tolist()))


def ref_rescale_to_integers(values, scale: float):
    vals = np.asarray(values, dtype=float)
    ref = float(vals.min())
    diffs = vals - ref
    pos = diffs[diffs > _INT_TOL * scale]
    if len(pos) == 0:
        return [0] * len(vals), 1.0, ref
    d = float(pos.min())
    ratios = diffs / d
    whole = np.abs(ratios - np.round(ratios)) <= _WHOLE_TOL
    q = 1
    for r in ratios[~whole]:
        frac = Fraction(float(r)).limit_denominator(_MAX_DENOMINATOR)
        q = q * frac.denominator // math.gcd(q, frac.denominator)
        if q > _MAX_DENOMINATOR:
            return None
    p = [int(round(float(r) * q)) for r in ratios]
    s = d / q
    for v, pj in zip(vals, p):
        if abs(v - (ref + s * pj)) > _INT_TOL * scale:
            return None
    return p, s, ref


def ref_periodicity(d, sups) -> tuple[PeriodFit, ...]:
    lam = np.array(sups[0].eigenvalues)
    scale = ref_scale(d.eigenvalues)
    near_int = bool(np.all(np.abs(lam - np.round(lam)) <= _INT_TOL * scale))
    method = "integer-spectrum" if near_int else "rational-rescaled"
    res = ref_rescale_to_integers(lam, scale)
    if res is None:
        return tuple(PeriodFit("undetected", None) for s in sups)
    p, step, _ = res
    g = 0
    for pj in p:
        g = math.gcd(g, pj)
    if g == 0:
        return tuple(PeriodFit(method, 2.0 * math.pi) for s in sups)
    rho = 2.0 * math.pi / (step * g)
    phases = np.exp(1j * rho * lam)
    out = []
    for s in sups:
        mag = abs(complex(np.sum(np.array(s.weights) * phases)))
        out.append(PeriodFit("undetected", None) if abs(mag - 1.0) > _UNIT_TOL
                   else PeriodFit(method, float(rho), tuple(p), step, phases))
    return tuple(out)


# -- comparison -----------------------------------------------------------------


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
            and a.tobytes() == b.tobytes())


def _same_fit(a: PeriodFit, b: PeriodFit) -> bool:
    return (all(repr(getattr(a, f)) == repr(getattr(b, f))
                for f in ("method", "period", "coordinates", "step"))
            and (a.phases is None) == (b.phases is None)
            and (a.phases is None or a.phases.tobytes() == b.phases.tobytes()))


def check_matches_reference(m: np.ndarray) -> None:
    """decompose, scale, every support and every support group's periodicity
    of m equal the references bit for bit."""
    d = decompose(m)
    fields = ("eigenvalues", "vectors", "offsets", "weights")
    for name, want in zip(fields, ref_decompose(m)):
        assert _same_array(getattr(d, name), want), name
    assert repr(d.scale()) == repr(ref_scale(d.eigenvalues))
    groups: dict[tuple[int, ...], list[EigenvalueSupport]] = {}
    for u in range(d.n):
        sup = support(d, u)
        assert repr(sup) == repr(ref_support(d, u))
        groups.setdefault(sup.indices, []).append(sup)
    for sups in groups.values():
        fit = period_fit(sups[0].eigenvalues, d.scale())
        got = periodicity(fit, [s.weights for s in sups])
        want = ref_periodicity(d, sups)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g is fit or g is UNDETECTED
            assert _same_fit(g, w), (g, w)
        assert repr(_rescale_to_integers(sups[0].eigenvalues, d.scale())) == repr(
            ref_rescale_to_integers(sups[0].eigenvalues, d.scale()))


def _rotated(values, seed: int) -> np.ndarray:
    """A symmetric matrix with the given spectrum in a seeded orthonormal basis."""
    n = len(values)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    m = (q * np.asarray(values, dtype=float)) @ q.T
    return 0.5 * (m + m.T)


@st.composite
def near_tolerance_spectra(draw):
    """Eigenvalue lists with repeats and with gaps at, or within 1e-9 (relative)
    of, the cluster tolerance, plus a largest |eigenvalue| that sets it."""
    big = draw(st.sampled_from([0.5, 1.0, 3.0, 40.0]))
    tol = DEFAULT_CLUSTER_TOL * max(1.0, big)
    level = draw(st.floats(-big, 0.5 * big))
    levels = [level]
    for _ in range(draw(st.integers(0, 5))):
        gap = draw(st.one_of(
            st.just(tol),
            st.floats(-1e-9, 1e-9).map(lambda e, t=tol: t * (1.0 + e)),
            st.floats(0.0, 3.0 * tol),
            st.floats(1e-3, 0.25 * big)))
        levels.append(levels[-1] + gap)
    values = [v for v in levels for _ in range(draw(st.integers(1, 3)))]
    return values + [big] * draw(st.integers(0, 2))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(near_tolerance_spectra(), st.booleans(), st.integers(0, 2**32 - 1))
def test_bookkeeping_matches_numpy_reference(values, rotate, seed):
    # a diagonal matrix gives eigh its spectrum exactly, gaps at the
    # tolerance included; a rotated one perturbs them by rounding
    perm = np.random.default_rng(seed).permutation(len(values))
    m = _rotated(values, seed) if rotate else np.diag(np.asarray(values, dtype=float)[perm])
    check_matches_reference(m)


@pytest.mark.parametrize("values", [
    [0.0, 1e-8],                      # a gap of exactly the tolerance merges
    [0.0, 1e-8, 2e-8, 3e-8],          # a chain of such gaps is one cluster
    [-1.0, -1.0 + 1e-8, 0.5, 1.0],
    [2.0, 2.0, 2.0],                  # a single eigenvalue
    [1.0, 2.0, 3.0, 5.0],             # integers
    [0.0, 0.5, 1.0 / 3.0, 1.25],      # rationals
    [0.0, 1.0, math.sqrt(2.0)],       # irrational ratio: no period
    [-math.sqrt(3.0), 0.0, math.sqrt(3.0)],  # rescaled integers
    [7.0],                            # 1 x 1
    [],                               # empty
])
def test_bookkeeping_matches_numpy_reference_on_fixed_spectra(values):
    m = np.diag(np.asarray(values, dtype=float)).reshape(len(values), len(values))
    check_matches_reference(m)
    if len(values) > 1:
        check_matches_reference(_rotated(values, 5))


def test_a_gap_of_exactly_the_tolerance_does_not_split_a_cluster():
    d = decompose(np.diag([0.0, DEFAULT_CLUSTER_TOL]))
    assert d.multiplicities == (2,)


@pytest.mark.parametrize("kind", ["adjacency", "laplacian", "gen:0.5", "norm-adj",
                                  "norm-lap"])
def test_bookkeeping_matches_numpy_reference_on_families(kind):
    for spec in ("complete:9", "star:8", "cone:cycle:8", "hamming:3,3", "rook:3,4",
                 "path:7", "cycle:10", "lollipop:4,3", "doublecone:connected:complete:3",
                 "multipartite:2,3,4", "complete:40"):
        check_matches_reference(
            assemble(build_family(parse_family(spec)), parse_matrix_kind(kind)).matrix)


# -- continued fractions in integers ----------------------------------------------


def _check_limit_denominator(x: float, n: int) -> None:
    frac = Fraction(x).limit_denominator(n)
    got = _limit_denominator(x, n)
    assert got == (frac.numerator, frac.denominator)
    assert all(type(v) is int for v in got)


_caps = st.one_of(st.sampled_from([1, 2, 3, 10, 1000, _MAX_DENOMINATOR]),
                  st.integers(1, 10**7))


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 st.builds(lambda m, e: m * 2.0 ** e, st.floats(-2.0, 2.0),
                           st.integers(-80, 80))),
       _caps)
def test_limit_denominator_on_floats_of_every_magnitude(x, n):
    _check_limit_denominator(x, n)


@settings(max_examples=500, deadline=None)
@given(st.integers(-10**7, 10**7), st.integers(1, _MAX_DENOMINATOR), _caps)
def test_limit_denominator_on_rationals(p, q, n):
    _check_limit_denominator(p / q, n)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 5000), st.integers(0, 5000), st.floats(-1e-9, 1e-9))
def test_limit_denominator_on_perturbed_odd_quotients(a, b, eps):
    # what _merge_odd_lattices receives: a ratio of two argmins that
    # resolve odd multiples of one base time to about 1e-9
    _check_limit_denominator((2 * a + 1) / (2 * b + 1) * (1.0 + eps), 10**6)


def _farey_neighbours(b: int, d: int, whole: int) -> tuple[int, int, int, int]:
    """a/b < c/d with c b - a d = 1, b and d coprime, a/b above whole."""
    a = (-pow(d, -1, b)) % b if b > 1 else 0
    c = (1 + a * d) // b
    return a + whole * b, b, c + whole * d, d


_denominators = st.one_of(st.integers(1, 3000), st.sampled_from([2**j for j in range(12)]))


@settings(max_examples=500, deadline=None)
@given(_denominators, _denominators, st.integers(0, 50), st.integers(-4, 4))
def test_limit_denominator_on_near_ties(b, d, whole, ulps):
    """x at, or a few ulps from, the midpoint of Farey neighbours a/b and
    c/d of order n = max(b, d): the two candidates the last step compares
    are those neighbours, and at the midpoint they tie (Fraction keeps the
    convergent); the midpoint is a float when b d is a power of two."""
    if math.gcd(b, d) != 1:
        d += 1
    if math.gcd(b, d) != 1:
        return
    a, b, c, d = _farey_neighbours(b, d, whole)
    x = float(Fraction(a * d + b * c, 2 * b * d))
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    _check_limit_denominator(x, max(b, d))


@pytest.mark.parametrize("x, n, want", [
    # exact ties between the convergent and the semiconvergent
    (0.75, 2, (1, 1)),
    (0.25, 2, (0, 1)),
    (1.25, 2, (1, 1)),
    (0.125, 4, (0, 1)),
    (0.875, 4, (1, 1)),
    (-0.75, 2, (-1, 1)),
    (2.0**-20, 2**19, (0, 1)),
    (1.0 - 2.0**-20, 2**19, (1, 1)),
])
def test_limit_denominator_ties_keep_the_convergent(x, n, want):
    _check_limit_denominator(x, n)
    assert _limit_denominator(x, n) == want


@pytest.mark.parametrize("x", [math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
                               -math.nextafter(1.0, 2.0), -math.nextafter(1.0, 0.0)])
@pytest.mark.parametrize("n", [1, 2, 10**6, 2**52, 2**53, 2**54])
def test_limit_denominator_one_ulp_from_one(x, n):
    _check_limit_denominator(x, n)
