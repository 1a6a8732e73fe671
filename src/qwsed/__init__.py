"""Continuous-time quantum walks on weighted graphs: spectral evaluation,
diagonal minimization, and certified sedentariness classification.

The top level holds the entry points of the command line, the library
example in the README and the benchmark; everything else is imported from
its module (qwsed.graphs, qwsed.matrices, qwsed.spectral, qwsed.walk,
qwsed.sedentary)."""

from .graphs import GraphError, build_family, cartesian_product, parse_family, star_graph
from .matrices import LAPLACIAN, assemble, parse_matrix_kind
from .walk import WalkError, WalkEvaluator
from .sedentary import (
    NOT_SEDENTARY,
    SEDENTARY_AT_LEAST,
    SHARPLY_SEDENTARY,
    TIGHTLY_SEDENTARY,
    UNRESOLVED,
    CertificateRefused,
    UnsupportedSpectrum,
    classify,
    classify_vertices,
)

__all__ = [
    "classify",
    "classify_vertices",
    "WalkEvaluator",
    "build_family",
    "parse_family",
    "parse_matrix_kind",
    "assemble",
    "cartesian_product",
    "star_graph",
    "LAPLACIAN",
    "NOT_SEDENTARY",
    "SEDENTARY_AT_LEAST",
    "SHARPLY_SEDENTARY",
    "TIGHTLY_SEDENTARY",
    "UNRESOLVED",
    "GraphError",
    "WalkError",
    "CertificateRefused",
    "UnsupportedSpectrum",
]

__version__ = "0.1.0"
