"""Generators for the graph families and constructions used throughout:
standard graphs, Johnson graphs, lexicographic products, the four-vertex
extension that forces instability, and its witness automorphism.

The four-vertex extension has one record, XabExtension, which extend_xab
builds and is_xab_realizable finds by the definition: for vertices a1
and a2, b1 = N(a1) - N(a2) and b2 = N(a2) - N(a1) are single vertices
outside {a1, a2}, and N(b1) and N(b2) differ in exactly a1, a2. The
census's xab column counts the graphs in which it finds one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Optional

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
    """An occurrence of the four-vertex extension in the graph result: the
    linked pairs a1--b1 and a2--b2, with a1 and a2 joined to every vertex
    of A and b1 and b2 to every vertex of B, and no other edge at the
    four. extend_xab builds one on new vertices a1..b2 = n..n+3, where n
    is the order of its input, and is_xab_realizable finds one."""

    result: Graph
    a1: int
    a2: int
    b1: int
    b2: int
    A: frozenset
    B: frozenset


def extend_xab(x: Graph, A: Iterable[int], B: Iterable[int]) -> XabExtension:
    A = frozenset(A)
    B = frozenset(B)
    for s in (A, B):
        for v in s:
            if not 0 <= v < x.n:
                raise ValueError(f"vertex {v} not in the base graph")
    n = x.n
    _check_order(n + 4, "the four-vertex extension")
    a1, a2, b1, b2 = n, n + 1, n + 2, n + 3
    edges = list(x.edges())
    edges += [(a1, b1), (a2, b2)]
    edges += [(a, a1) for a in A] + [(a, a2) for a in A]
    edges += [(b, b1) for b in B] + [(b, b2) for b in B]
    return XabExtension(Graph(n + 4, edges), a1, a2, b1, b2, A, B)


def is_xab_realizable(g: Graph) -> Optional[XabExtension]:
    """A labeled occurrence of the four-vertex extension, found by its
    definition over the pairs a1 < a2, or None. a1-b1 and a2-b2 are then
    the only edges among the four, and a1, a2 share the neighbours A
    outside them, b1, b2 the neighbours B. The census applies this to
    non-trivially unstable inputs only."""
    adj = g.adj
    for a1 in range(g.n):
        for a2 in range(a1 + 1, g.n):
            pair = 1 << a1 | 1 << a2
            only1, only2 = adj[a1] & ~adj[a2], adj[a2] & ~adj[a1]
            if (only1.bit_count() != 1 or only2.bit_count() != 1
                    or (only1 | only2) & pair):
                continue
            b1, b2 = only1.bit_length() - 1, only2.bit_length() - 1
            if adj[b1] ^ adj[b2] == pair:
                return XabExtension(g, a1, a2, b1, b2,
                                    A=frozenset(bits(adj[a1] ^ only1)),
                                    B=frozenset(bits(adj[b1] ^ 1 << a1)))
    return None


def instability_witness(e: XabExtension) -> tuple:
    """The double transposition on the cover of e.result that swaps a1 and
    a2 in layer 0 and b1 and b2 in layer 1, for a built or a found e: an
    unexpected involution of the cover, i.e. a non-diagonal TF-automorphism
    (Lauri, Mizzi & Scapellato, Australas. J. Combin. 49, 2011). The tests
    check it on every occurrence found up to order 8.
    """
    nn = e.result.n
    images = list(range(2 * nn))
    images[e.a1], images[e.a2] = images[e.a2], images[e.a1]
    images[e.b1 + nn], images[e.b2 + nn] = images[e.b2 + nn], images[e.b1 + nn]
    return tuple(images)
