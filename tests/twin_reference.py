"""Test-side references for twin classes, independent of what
_graph_spectra keeps: the closed form of a class's difference eigenvalue
theta under each matrix kind, and a twin bound built from it with a
nearest-eigenvalue lookup over the whole spectrum."""

import numpy as np

from qwsed import sedentary, spectral
from qwsed.matrices import assemble
from qwsed.sedentary import TWIN_BOUND, CertificateRefused


def twin_theta(kind, degree, omega, eta):
    """The eigenvalue of e_a - e_b for twins a and b with common loop
    weight omega, weight eta between them (0 if non-adjacent) and common
    weighted degree (a loop counted twice)."""
    if kind.name == "adjacency":
        return omega - eta
    if kind.name == "gen":
        return kind.alpha * degree + omega - eta
    if kind.name == "laplacian":
        return degree - omega + eta
    if kind.name == "norm-adj":
        return (omega - eta) / degree if degree != 0 else 0.0
    if kind.name == "norm-lap":
        return 1.0 - (omega - eta) / degree if degree != 0 else 1.0
    raise ValueError(f"unknown matrix kind {kind!r}")


def class_theta(g, kind, ts):
    """twin_theta of the twin set ts of g, its degree the least twin's row
    sum of the adjacency matrix plus its loop."""
    a = g.adjacency_matrix()
    u = ts.vertices[0]
    return twin_theta(kind, float(a[u].sum() + a[u, u]), ts.omega, ts.eta)


def twin_bound_reference(g, u, kind):
    """twin_bound(g, u, kind) from class_theta and a decomposition made
    here: the check against the assembled matrix, and the mass at the
    eigenvalue of the whole spectrum nearest theta, when it lies within
    1e-8 * scale."""
    ts = next((t for t in spectral.find_twin_sets(g) if u in t.vertices), None)
    if ts is None:
        raise CertificateRefused(f"vertex {u} has no twin")
    theta = class_theta(g, kind, ts)
    m = assemble(g, kind).matrix
    d = spectral.decompose(m)
    if not spectral.verify_twin_eigenvector(m, ts, theta):
        raise CertificateRefused("twin difference vector fails the eigenvector check")
    j = int(np.argmin(np.abs(d.eigenvalues - theta)))
    near = abs(float(d.eigenvalues[j]) - theta) <= 1e-8 * d.scale()
    others = ", ".join(str(v) for v in ts.vertices if v != u)
    return sedentary.SedentaryCertificate(
        TWIN_BOUND, u, max(1.0 - 2.0 / ts.size, 0.0), (j,) if near else (),
        float(d.weights[u, j]) if near else None,
        detail=f"twin class {{{u}, {others}}} of size {ts.size}, "
               f"difference eigenvalue {theta:g}")
