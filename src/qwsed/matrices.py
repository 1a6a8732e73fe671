"""Hamiltonians associated with a weighted graph.

Supported kinds: adjacency A, Laplacian D - A, the degree-shifted family
alpha*D + A, and the two degree-normalized kinds.  The weighted degree counts
a loop twice.  assemble is the one place that knows how a kind scales
degrees, loops and weights: what depends on the kind, such as a twin
class's difference eigenvalue, is read from the matrix it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import WeightedGraph

__all__ = [
    "MatrixError",
    "MatrixKind",
    "ADJACENCY",
    "LAPLACIAN",
    "NORMALIZED_ADJACENCY",
    "NORMALIZED_LAPLACIAN",
    "generalized_adjacency",
    "parse_matrix_kind",
    "Hamiltonian",
    "assemble",
]


class MatrixError(ValueError):
    """Matrix assembly failed (bad kind string, invalid degrees, ...)."""


@dataclass(frozen=True)
class MatrixKind:
    """One of the supported Hamiltonian kinds; 'gen' carries the degree
    coefficient alpha."""

    name: str
    alpha: float = 0.0

    def __post_init__(self):
        if self.name not in ("adjacency", "laplacian", "gen", "norm-adj", "norm-lap"):
            raise MatrixError(f"unknown matrix kind {self.name!r}")
        if not math.isfinite(self.alpha):
            raise MatrixError(f"alpha must be finite, got {self.alpha!r}")

    @property
    def is_degree_shifted(self) -> bool:
        """True for kinds of the form alpha*D + A up to sign: these are the
        kinds whose walk factors over box products."""
        return self.name in ("adjacency", "laplacian", "gen")

    def __str__(self) -> str:
        if self.name == "gen":
            return f"gen:{self.alpha:g}"
        return self.name


ADJACENCY = MatrixKind("adjacency")
LAPLACIAN = MatrixKind("laplacian")
NORMALIZED_ADJACENCY = MatrixKind("norm-adj")
NORMALIZED_LAPLACIAN = MatrixKind("norm-lap")


def generalized_adjacency(alpha: float) -> MatrixKind:
    return MatrixKind("gen", float(alpha))


def parse_matrix_kind(text: str) -> MatrixKind:
    """Parse the command-line grammar:
    adjacency | laplacian | gen:<alpha> | norm-adj | norm-lap."""
    text = text.strip().lower()
    if text in ("adjacency", "laplacian", "norm-adj", "norm-lap"):
        return MatrixKind(text)
    if text.startswith("gen:"):
        try:
            alpha = float(text[4:])
        except ValueError as exc:
            raise MatrixError(f"bad alpha in {text!r}") from exc
        return generalized_adjacency(alpha)
    raise MatrixError(f"unknown matrix kind {text!r}")


@dataclass(frozen=True)
class Hamiltonian:
    """An assembled real symmetric matrix, tagged with its kind."""

    kind: MatrixKind
    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def assemble(graph: WeightedGraph, kind: MatrixKind) -> Hamiltonian:
    """Build the requested Hamiltonian.

    Normalized kinds scale by 1/sqrt(deg) and put 0 in place of 1/sqrt(0) for
    isolated (zero-degree) vertices; negative degrees are rejected for them.
    A matrix with an entry that is not finite (an overflow) is rejected.
    """
    a = graph.adjacency_matrix()
    with np.errstate(over="ignore", invalid="ignore"):
        # row sums plus the diagonal, a loop counted twice; not
        # graph.degrees(), whose bincount adds in another order
        deg = a.sum(axis=1) + np.diag(a)
        if kind.name == "adjacency":
            m = a
        elif kind.name == "laplacian":
            m = np.diag(deg) - a
        elif kind.name == "gen":
            m = kind.alpha * np.diag(deg) + a
        elif kind.name in ("norm-adj", "norm-lap"):
            if np.any(deg < -1e-12):
                raise MatrixError("normalized kinds need nonnegative degrees")
            with np.errstate(divide="ignore"):
                inv_sqrt = np.where(np.abs(deg) < 1e-12, 0.0, 1.0 / np.sqrt(np.abs(deg)))
            m = inv_sqrt[:, None] * a * inv_sqrt[None, :]
            if kind.name == "norm-lap":
                m = np.eye(graph.n) - m
        else:  # pragma: no cover
            raise MatrixError(f"unknown matrix kind {kind!r}")
        m = (m + m.T) / 2.0
    if not np.all(np.isfinite(m)):
        raise MatrixError(f"the {kind} matrix of this graph has an entry that "
                          "is not finite")
    m.setflags(write=False)
    return Hamiltonian(kind, m)
