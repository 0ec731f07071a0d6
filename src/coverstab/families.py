"""Generators for the graph families and constructions used throughout:
standard graphs, Johnson graphs, lexicographic products, the four-vertex
extension that forces instability, and its witness automorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable

from .graph_core import Graph, bits, is_bipartite, has_twins
from .aut import vertex_orbits

# Bitset rows cost about n^2/8 bytes, 128 MiB at this order.
MAX_CONSTRUCTED = 1 << 15


def _check_order(n: int, name: str) -> None:
    """Refuse a construction with too many vertices before building it."""
    if n > MAX_CONSTRUCTED:
        raise ValueError(f"{name} has {n} vertices, more than the "
                         f"{MAX_CONSTRUCTED} a construction may have")


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    _check_order(n, f"K{n}")
    return Graph(n, combinations(range(n), 2), label=f"K{n}")


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    _check_order(n, f"C{n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], label=f"C{n}")


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges, label="Petersen")


def johnson(n: int, k: int) -> Graph:
    """Graph on the k-subsets of an n-set, adjacent when the subsets share
    k-1 elements. Subsets are numbered in colexicographic order (ascending
    bitmask), which fixes the vertex numbering. The neighbours of a subset
    are found by swapping one element out and one element in."""
    if not n >= k >= 1:
        raise ValueError("johnson requires n >= k >= 1")
    _check_order(comb(n, k), f"J({n},{k})")
    masks = sorted(sum(1 << x for x in s) for s in combinations(range(n), k))
    index = {m: i for i, m in enumerate(masks)}
    full = (1 << n) - 1
    rows = []
    for a in masks:
        row = 0
        for x in bits(a):
            for y in bits(full & ~a):
                row |= 1 << index[a ^ (1 << x) ^ (1 << y)]
        rows.append(row)
    return Graph.from_rows(rows, label=f"J({n},{k})")


def lex_product(g: Graph, h: Graph) -> Graph:
    """Lexicographic product: (u1,v1) ~ (u2,v2) iff u1 ~ u2, or u1 = u2 and
    v1 ~ v2; vertex (u, v) is numbered u*|V(h)| + v."""
    if g.n == 0 or h.n == 0:
        raise ValueError("lex_product requires non-empty factors")
    _check_order(g.n * h.n, "the lexicographic product")
    nh = h.n
    rows = [0] * (g.n * nh)
    full = (1 << nh) - 1
    for u in range(g.n):
        blocks = 0
        for w in range(g.n):
            if g.has_edge(u, w):
                blocks |= full << (w * nh)
        for v in range(nh):
            rows[u * nh + v] = blocks | (h.adj[v] << (u * nh))
    return Graph.from_rows(rows)


def lexcycle(m: int, h: Graph) -> Graph:
    """Cycle-by-h lexicographic product with every hypothesis validated:
    m >= 8 and h non-trivial, vertex-transitive, twin-free, bipartite.

    The result is connected and vertex-transitive with diameter >= 4 and
    every edge on a triangle; whether it is unstable is decided downstream
    by the stability report (it is for hexagon or cube second factors, but
    not for a single edge).
    """
    _check_order(m * h.n, f"C{m}[H]")
    problems = []
    if m < 8:
        problems.append(f"m = {m} < 8")
    if h.n < 2:
        problems.append("h is trivial (fewer than 2 vertices)")
    else:
        if not is_bipartite(h):
            problems.append("h is not bipartite")
        if has_twins(h):
            problems.append("h is not twin-free")
        if len(vertex_orbits(h)) > 1:
            problems.append("h is not vertex-transitive")
    if problems:
        raise ValueError("; ".join(problems))
    return lex_product(cycle(m), h)


@dataclass(frozen=True)
class XabExtension:
    """A graph extended by the two linked vertex pairs a1--b1, a2--b2.

    In the result, a1 = n, a2 = n+1, b1 = n+2, b2 = n+3 where n is the
    order of the original graph; a1 and a2 are joined to every vertex of A,
    b1 and b2 to every vertex of B.
    """

    base: Graph
    A: frozenset
    B: frozenset
    result: Graph

    @property
    def a1(self) -> int:
        return self.base.n

    @property
    def a2(self) -> int:
        return self.base.n + 1

    @property
    def b1(self) -> int:
        return self.base.n + 2

    @property
    def b2(self) -> int:
        return self.base.n + 3


def extend_xab(x: Graph, A: Iterable[int], B: Iterable[int]) -> XabExtension:
    A = frozenset(A)
    B = frozenset(B)
    for s in (A, B):
        for v in s:
            if not 0 <= v < x.n:
                raise ValueError(f"vertex {v} not in the base graph")
    n = x.n
    a1, a2, b1, b2 = n, n + 1, n + 2, n + 3
    edges = list(x.edges())
    edges += [(a1, b1), (a2, b2)]
    edges += [(a, a1) for a in A] + [(a, a2) for a in A]
    edges += [(b, b1) for b in B] + [(b, b2) for b in B]
    return XabExtension(base=x, A=A, B=B, result=Graph(n + 4, edges))


def instability_witness(e: XabExtension) -> tuple:
    """The double transposition on the cover of the extended graph that
    swaps the two a-vertices in layer 0 and the two b-vertices in layer 1.

    It is an automorphism of the cover, breaks fibers, and has order 2; all
    three facts are asserted by the test suite.
    """
    nn = e.result.n
    images = list(range(2 * nn))
    images[e.a1], images[e.a2] = images[e.a2], images[e.a1]
    images[e.b1 + nn], images[e.b2 + nn] = images[e.b2 + nn], images[e.b1 + nn]
    return tuple(images)

