"""The benchmark's workloads: the ops of one round, made from a seed.

An op is one call of a public qwsed entry point: `qwsed.cli.main([...])`
for `analyze` and `family-scan`, written with --out to a scratch file, or
`qwsed.classify` for the Cartesian squares of stars, which the CLI cannot
name.  Every round of a run repeats the same ops.  Each op carries, per
report, the edge list the checks rebuild the matrix from and the paper
constant the report must meet, if there is one.

Workloads (see README.md for why each exists):
  gnp-open      analyze --graph on one vertex of each of 3 seeded G(120, 0.1)
  lollipop-all  analyze --graph --vertex all on 3 lollipops, seeded relabelling
  families-all  analyze --vertex all on Hamming and rook graphs, family-scan
                over complete, star and cone ranges, classify on every
                vertex of S_3 □ S_3 and S_4 □ S_4
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from checks import (NOT_SEDENTARY, Expectation, Graph, cartesian, complete,
                    cone, cycle, lollipop, relabel, rook, star)

KINDS = ("adjacency", "laplacian", "norm-adj")

GNP_N = 120
GNP_P = 0.1
GNP_GRAPHS = 3
LOLLIPOPS = ((4, 1), (4, 3), (5, 2))
# each pool holds lattices of one vertex count, so the seed moves the graph
# but hardly the work
LATTICE_POOLS = (("hamming:2,6", "rook:4,9", "rook:3,12"),
                 ("hamming:3,3", "rook:3,9"))
# analysed under one seeded matrix kind; at 125 vertices the per-vertex
# eigendecomposition and twin scan outweigh the oracle
BIG_LATTICE = "hamming:3,5"
SCAN_STARTS = (3, 4, 5)
STAR_SQUARES = (3, 4)

WORKLOADS = ("gnp-open", "lollipop-all", "families-all")


def _no_constant(i: int, u: int) -> Expectation | None:
    return None


@dataclass
class Op:
    label: str
    kind: str
    argv: tuple[str, ...] = ()
    # (m, vertex) for a qwsed.classify op on S_m □ S_m
    product: tuple[int, int] | None = None
    # one graph per report, or one graph shared by every report of the op
    graphs: tuple[Graph, ...] = ()
    expect: Callable[[int, int], Expectation | None] = field(default=_no_constant)
    # fails its checks every time because of the argmin fault (README)
    known_fault: bool = False

    def graph(self, i: int) -> Graph:
        return self.graphs[i if len(self.graphs) > 1 else 0]


def write_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {len(g.edges)}\n")
        fh.writelines(f"{u} {v} {w!r}\n" for u, v, w in g.edges)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def gnp(rng: np.random.Generator, n: int, p: float) -> Graph:
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return Graph(n, tuple((int(u), int(v), 1.0) for u, v in zip(*np.nonzero(upper))))


# -- paper constants -------------------------------------------------------------


def _lattice_sizes(spec: str) -> list[int]:
    family, params = spec.split(":")
    p = [int(x) for x in params.split(",")]
    return [p[1]] * p[0] if family == "hamming" else p


def _nu2(x: int) -> int:
    return (x & -x).bit_length() - 1


def lattice_constant(sizes) -> Expectation:
    """K_n^□k has the constant (1 - 2/n)^k.  A box product of complete
    graphs has the product of the factor constants as a lower bound, and
    attains it when every factor size has the same 2-adic valuation."""
    c = 1.0
    for s in sizes:
        c *= 1.0 - 2.0 / s
    return Expectation(c, len({_nu2(s) for s in sizes}) == 1,
                       source="x".join(f"K_{s}" for s in sizes))


def star_leaf_constant(m: int, kind: str) -> Expectation:
    """A star leaf has the constant 1 - 2/m.  Under the adjacency and the
    normalised adjacency matrix it is attained at pi/sqrt(m) (pi); under
    the Laplacian only for odd m."""
    attained = kind != "laplacian" or m % 2 == 1
    return Expectation(1.0 - 2.0 / m, attained, source=f"leaf of K_1,{m}")


def star_square_constant(m: int, kind: str, u: int) -> Expectation:
    """Vertex (x, y) of S_m □ S_m.  Under the adjacency matrix a centre
    coordinate makes the diagonal vanish and two leaves give (1 - 2/m)^2.
    Under the Laplacian the constant is the product of the factor
    constants, 1 - 2/(m+1) for the centre and 1 - 2/m for a leaf, attained
    when both factors attain theirs at a common time."""
    x, y = divmod(u, m + 1)
    if kind == "adjacency":
        if x == 0 or y == 0:
            return NOT_SEDENTARY
        return Expectation((1.0 - 2.0 / m) ** 2, True, source=f"leaf pair of S_{m}^2")
    factor = {True: 1.0 - 2.0 / (m + 1), False: 1.0 - 2.0 / m}
    centre_x, centre_y = x == 0, y == 0
    attained = (centre_x and centre_y) or (not centre_x and not centre_y and m % 2 == 1)
    return Expectation(factor[centre_x] * factor[centre_y], attained,
                       source=f"vertex ({x},{y}) of S_{m}^2")


# -- the workloads ---------------------------------------------------------------


def build(workload: str, seed: int, scratch: str) -> list[Op]:
    """The ops of one round.  Graph files go under `scratch`."""
    rng = _rng(seed, workload)
    if workload == "gnp-open":
        ops = []
        for i in range(GNP_GRAPHS):
            g = gnp(rng, GNP_N, GNP_P)
            u = int(rng.integers(GNP_N))
            path = os.path.join(scratch, f"gnp{i}.graph")
            write_graph(g, path)
            ops.append(Op(f"analyze G({GNP_N},{GNP_P}) #{i} vertex {u}", "adjacency",
                          ("analyze", "--graph", path, "--vertex", str(u)), graphs=(g,)))
        return ops
    if workload == "lollipop-all":
        ops = []
        for n, k in LOLLIPOPS:
            g = relabel(lollipop(n, k), rng.permutation(n + k))
            path = os.path.join(scratch, f"lollipop{n}_{k}.graph")
            write_graph(g, path)
            ops.append(Op(f"analyze lollipop:{n},{k} (relabelled) --vertex all",
                          "adjacency",
                          ("analyze", "--graph", path, "--vertex", "all"), graphs=(g,)))
        return ops
    if workload == "families-all":
        return _families(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _families(rng: np.random.Generator) -> list[Op]:
    ops = []
    for pool in LATTICE_POOLS:
        spec = str(pool[rng.integers(len(pool))])
        sizes = _lattice_sizes(spec)
        g, e = rook(sizes), lattice_constant(sizes)
        for kind in KINDS:
            ops.append(Op(f"analyze {spec} {kind} --vertex all", kind,
                          ("analyze", "--family", spec, "--matrix", kind,
                           "--vertex", "all"),
                          graphs=(g,), expect=lambda i, u, e=e: e))
    kind = KINDS[rng.integers(len(KINDS))]
    sizes = _lattice_sizes(BIG_LATTICE)
    e = lattice_constant(sizes)
    ops.append(Op(f"analyze {BIG_LATTICE} {kind} --vertex all", kind,
                  ("analyze", "--family", BIG_LATTICE, "--matrix", kind, "--vertex", "all"),
                  graphs=(rook(sizes),), expect=lambda i, u, e=e: e))
    a, b, c = (int(rng.choice(SCAN_STARTS)) for _ in range(3))
    for kind in KINDS:
        ns = range(a, a + 10)
        ops.append(Op(f"family-scan complete:{a}..{a + 9} {kind}", kind,
                      ("family-scan", "--family", f"complete:{a}..{a + 9}",
                       "--matrix", kind, "--vertex", "0"),
                      graphs=tuple(complete(n) for n in ns),
                      expect=lambda i, u, a=a: lattice_constant([a + i])))
        ms = range(b, b + 10)
        ops.append(Op(f"family-scan star:{b}..{b + 9} leaf {kind}", kind,
                      ("family-scan", "--family", f"star:{b}..{b + 9}",
                       "--matrix", kind, "--vertex", "leaf"),
                      graphs=tuple(star(m) for m in ms),
                      expect=lambda i, u, b=b, kind=kind: star_leaf_constant(b + i, kind)))
        ops.append(Op(f"family-scan cone:cycle:{c}..{c + 7} apex {kind}", kind,
                      ("family-scan", "--family", f"cone:cycle:{c}..{c + 7}",
                       "--matrix", kind, "--vertex", "apex"),
                      graphs=tuple(cone(cycle(n)) for n in range(c, c + 8))))
    for m in STAR_SQUARES:
        g = cartesian(star(m), star(m))
        for kind in ("adjacency", "laplacian"):
            for u in range(g.n):
                ops.append(Op(f"classify S_{m}^2 vertex {u} {kind}", kind,
                              product=(m, u), graphs=(g,),
                              expect=lambda i, u, m=m, kind=kind:
                              star_square_constant(m, kind, u),
                              known_fault=kind == "adjacency" and u == 0))
    return ops


def warmup_ops(workload: str, scratch: str) -> list[Op]:
    """Cheap ops down the same code paths, run before timing starts."""
    if workload == "gnp-open":
        g = gnp(np.random.default_rng(0), 30, 0.2)
        path = os.path.join(scratch, "warmup.graph")
        write_graph(g, path)
        return [Op("warm-up", "adjacency", ("analyze", "--graph", path, "--vertex", "0"),
                   graphs=(g,))]
    if workload == "lollipop-all":
        return [Op("warm-up", "adjacency",
                   ("analyze", "--family", "lollipop:4,1", "--vertex", "4"),
                   graphs=(lollipop(4, 1),))]
    return [Op("warm-up", "laplacian",
               ("family-scan", "--family", "star:3..4", "--matrix", "laplacian",
                "--vertex", "leaf"), graphs=(star(3), star(4))),
            Op("warm-up", "laplacian", product=(2, 4),
               graphs=(cartesian(star(2), star(2)),))]
