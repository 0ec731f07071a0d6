"""Hypothesis checkers for the stability criteria, with strongly-regular
and distance-regular parameter extraction.

Every checker reports whether its hypotheses hold ("applies") and what that
implies; none ever claims instability, since the criteria are sufficient
conditions only. ``criteria_summary`` cross-checks any "stable" implication
against the direct order computation and raises ``SoundnessError`` on
disagreement, which always signals an implementation bug.

The walks from every vertex (the intersection array, the growth walk off a
graph that is not distance-regular, the diameter, the common-neighbour
pairs) start only from the least vertex of each Aut(X) orbit, read off
``aut.orbit_representatives``: what they count is constant on an orbit, so
the least failing vertex is the least of its orbit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from .graph_core import (Graph, SoundnessError, bfs_layers, bits, diameter,
                         is_connected, is_bipartite, has_twins, memoized,
                         triangle_flags)
from .aut import orbit_representatives
from .cover import stability_report


@dataclass(frozen=True)
class SrgParams:
    """Strongly regular parameters: k-regular, diameter 2, every adjacent
    pair with lambda_ common neighbours, every non-adjacent pair with mu."""

    n: int
    k: int
    lambda_: int
    mu: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n, self.k, self.lambda_, self.mu)


@dataclass(frozen=True)
class IntersectionArray:
    """Distance-regular parameters {b_0..b_{d-1}; c_1..c_d}."""

    b: tuple[int, ...]
    c: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.c)


@dataclass(frozen=True)
class CriterionVerdict:
    criterion: str
    applies: bool
    failed_hypotheses: tuple[str, ...] = ()
    implied: str = "none"  # "stable" | "none" | "constraint"
    constraint: Optional[str] = None
    detail: Optional[str] = None

    def as_dict(self) -> dict:
        """The fields in declaration order, tuples as lists, None left out."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: list(v) if isinstance(v, tuple) else v
                for name, v in values if v is not None}


def _verdict(crit: str, failed: list[str], detail: Optional[str] = None,
             general=None) -> CriterionVerdict:
    """The verdict from a criterion's failed hypotheses: it does not apply
    when one failed, and otherwise applies and implies stability. A special
    case passes general, which gives the verdict of its general criterion:
    that must apply too, else SoundnessError."""
    if failed:
        return CriterionVerdict(crit, False, tuple(failed))
    if general and not (verdict := general()).applies:
        raise SoundnessError(f"{crit} holds but {verdict.criterion}, of "
                             "which it is a special case, does not")
    return CriterionVerdict(crit, True, (), "stable", detail=detail)


def _trivial_or_disconnected(g: Graph) -> list[str]:
    """The shared first hypotheses: at least two vertices, connected."""
    failed = []
    if g.n < 2:
        failed.append("graph is trivial")
    if not is_connected(g):
        failed.append("not connected")
    return failed


def srg_params(g: Graph) -> Optional[SrgParams]:
    """Strongly regular parameters, or None if the uniformity fails.

    The strongly regular graphs are the distance-regular graphs of
    diameter 2 (so complete graphs never qualify), with lambda = a_1 =
    k - b_1 - 1 and mu = c_2.
    """
    arr = intersection_array(g)
    if arr is None or arr.d != 2:
        return None
    k, b1 = arr.b
    return SrgParams(n=g.n, k=k, lambda_=k - b1 - 1, mu=arr.c[1])


@memoized
def intersection_array(g: Graph) -> Optional[IntersectionArray]:
    """Distance-regular parameters: from every vertex x, each vertex of
    layer j around x has b_j neighbours in layer j + 1 and c_j in layer
    j - 1. None if some count varies within a layer or between vertices.
    The growth, distance-regular, strongly regular and diameter-2 checkers
    read it."""
    if g.n == 0 or not is_connected(g):
        return None
    adj = g.adj
    found = None
    for x in orbit_representatives(g):
        shells = (0,) + bfs_layers(g, x) + (0,)
        b, c = [], []
        for j in range(1, len(shells) - 1):
            ys = list(bits(shells[j]))
            up = {(adj[y] & shells[j + 1]).bit_count() for y in ys}
            down = {(adj[y] & shells[j - 1]).bit_count() for y in ys}
            if len(up) > 1 or len(down) > 1:
                return None
            b.append(up.pop())
            c.append(down.pop())
        if found not in (None, (b[:-1], c[1:])):
            return None
        found = (b[:-1], c[1:])
    if not found[0]:
        return None  # a single vertex
    return IntersectionArray(b=tuple(found[0]), c=tuple(found[1]))


# ---------------------------------------------------------------------------
# criteria for graphs whose every edge lies on a triangle

def check_triangle_distance_growth(g: Graph) -> CriterionVerdict:
    """Stability from triangles plus outward distance growth: every edge on
    a triangle, and from every vertex the second shell is non-empty, every
    distance-2 vertex has a neighbour at distance 3, and every distance-3
    vertex has a neighbour at distance 4.

    On a distance-regular graph of diameter d the growth holds exactly
    when d >= 4 (b_j >= 1 for j < d, and b_d = 0), and every vertex fails
    as vertex 0 does, so the memoized array leaves no vertex or only vertex
    0 to walk. Complete graphs have an empty second shell and deliberately
    do not qualify; their stability is covered by the complete-graph fact.
    """
    crit = "triangle-distance-growth"
    failed = _trivial_or_disconnected(g)
    if failed:
        return _verdict(crit, failed)
    if not triangle_flags(g)[0]:
        failed.append("an edge lies on no triangle")
    adj, arr = g.adj, intersection_array(g)
    for x in (orbit_representatives(g) if arr is None
              else () if arr.d >= 4 else (0,)):
        shell2, shell3, shell4 = (bfs_layers(g, x) + (0, 0, 0))[2:5]
        if not shell2:
            failed.append(f"second shell of vertex {x} is empty")
            break
        if not all(adj[v] & shell3 for v in bits(shell2)):
            failed.append(
                f"a distance-2 vertex from {x} has no neighbour at distance 3")
            break
        if not all(adj[v] & shell4 for v in bits(shell3)):
            failed.append(
                f"a distance-3 vertex from {x} has no neighbour at distance 4")
            break
    return _verdict(crit, failed)


def check_distance_regular(g: Graph) -> CriterionVerdict:
    """Distance-regular case of triangle-distance-growth, which is checked
    to hold too: d >= 4 and b0 > b1 + 1. The hypotheses b2, b3 >= 1 need no
    check: in a distance-regular graph b_j >= 1 for every j < d, since layer
    j + 1 is non-empty and each of its vertices has a neighbour in layer j."""
    crit = "distance-regular-growth"
    arr = intersection_array(g)
    if arr is None:
        return _verdict(crit, ["not distance-regular"])
    failed = []
    if arr.d < 4:
        failed.append(f"diameter {arr.d} < 4")
    if arr.d >= 2 and arr.b[0] <= arr.b[1] + 1:
        failed.append("b0 <= b1 + 1 (some edge lies on no triangle)")
    return _verdict(crit, failed,
                    general=lambda: check_triangle_distance_growth(g))


@memoized
def check_common_neighbor_separation(g: Graph) -> CriterionVerdict:
    """Stability from separated common-neighbour counts: twin-free, every
    edge on a triangle, and no adjacent pair shares its common-neighbour
    count with any distance-2 pair, i.e. any non-adjacent pair with a
    common neighbour. The strongly regular checker cross-checks it."""
    crit = "common-neighbor-separation"
    failed = _trivial_or_disconnected(g)
    if failed:
        return _verdict(crit, failed)
    if has_twins(g):
        failed.append("has twins")
    if not triangle_flags(g)[0]:
        failed.append("an edge lies on no triangle")
    if failed:
        return _verdict(crit, failed)
    adj = g.adj
    adjacent_counts = set()
    distance2_counts = set()
    for u in orbit_representatives(g):  # every pair has an image (u, v)
        for v in range(g.n):
            common = (adj[u] & adj[v]).bit_count()
            if (adj[u] >> v) & 1:
                adjacent_counts.add(common)
            elif common and v != u:
                distance2_counts.add(common)
    overlap = adjacent_counts & distance2_counts
    if overlap:
        failed.append(f"count {min(overlap)} occurs both for adjacent and "
                      "distance-2 pairs")
    return _verdict(crit, failed,
                    f"adjacent counts {sorted(adjacent_counts)}, "
                    f"distance-2 counts {sorted(distance2_counts)}")


def check_srg_distinct_counts(g: Graph) -> CriterionVerdict:
    """Strongly regular case of common-neighbor-separation, which is checked
    to hold too: k > mu, mu != lambda, lambda >= 1."""
    crit = "srg-distinct-counts"
    p = srg_params(g)
    if p is None:
        return _verdict(crit, ["not strongly regular"])
    failed = []
    if not p.k > p.mu:
        failed.append(f"k = {p.k} <= mu = {p.mu} (has twins)")
    if p.mu == p.lambda_:
        failed.append(f"mu = lambda = {p.mu}")
    if p.lambda_ < 1:
        failed.append("lambda = 0 (triangle-free)")
    return _verdict(crit, failed, f"srg{p.as_tuple()}",
                    lambda: check_common_neighbor_separation(g))


# ---------------------------------------------------------------------------
# triangle-free criteria

def check_triangle_free_diam2(g: Graph) -> CriterionVerdict:
    """No non-trivially unstable triangle-free graph of diameter 2 exists:
    connected, non-bipartite, twin-free, triangle-free, diameter 2 imply
    stability. A distance-regular graph's diameter is read off its array."""
    crit = "triangle-free-diameter-2"
    failed = _trivial_or_disconnected(g)
    if is_connected(g):
        if is_bipartite(g):
            failed.append("bipartite")
        arr = intersection_array(g)
        diam = (diameter(g, orbit_representatives(g)) if arr is None
                else arr.d)
        if diam != 2:
            failed.append(f"diameter {diam} != 2")
    if has_twins(g):
        failed.append("has twins")
    if not triangle_flags(g)[1]:
        failed.append("contains a triangle")
    return _verdict(crit, failed)


def check_srg_triangle_free(g: Graph) -> CriterionVerdict:
    """Strongly regular case of triangle-free-diameter-2, which is checked to
    hold too: k > mu and lambda = 0."""
    crit = "srg-triangle-free"
    p = srg_params(g)
    if p is None:
        return _verdict(crit, ["not strongly regular"])
    failed = []
    if not p.k > p.mu:
        failed.append(f"k = {p.k} <= mu = {p.mu} (has twins)")
    if p.lambda_ != 0:
        failed.append(f"lambda = {p.lambda_} != 0")
    return _verdict(crit, failed, f"srg{p.as_tuple()}",
                    lambda: check_triangle_free_diam2(g))


def check_srg_instability_constraint(g: Graph) -> CriterionVerdict:
    """Necessary condition on strongly regular graphs: a non-trivially
    unstable one must have lambda = mu > 0. Reports a constraint, never a
    stability verdict."""
    crit = "srg-equal-counts-necessary"
    p = srg_params(g)
    if p is None:
        return _verdict(crit, ["not strongly regular"])
    return CriterionVerdict(
        crit, True, (), "constraint",
        constraint="nontrivially unstable => lambda = mu > 0",
        detail=f"srg{p.as_tuple()}")


ALL_CHECKERS = (
    check_triangle_distance_growth,
    check_distance_regular,
    check_common_neighbor_separation,
    check_srg_distinct_counts,
    check_triangle_free_diam2,
    check_srg_triangle_free,
    check_srg_instability_constraint,
)


def criteria_summary(g: Graph) -> list[CriterionVerdict]:
    """Run every checker and verify any implied stability, and the
    constraint lambda = mu > 0 on a non-trivially unstable strongly regular
    graph, against the direct decision, raising SoundnessError on
    disagreement."""
    verdicts = [check(g) for check in ALL_CHECKERS]
    culprits = [v.criterion for v in verdicts
                if v.applies and v.implied == "stable"]
    p = srg_params(g)
    if not culprits and p is None:
        return verdicts
    report = stability_report(g)
    if culprits and not report.stable:
        raise SoundnessError(
            f"criteria {culprits} imply stability but "
            f"|Aut(BX)| = {report.aut_bx_order} != "
            f"2|Aut(X)| = {2 * report.aut_x_order}")
    if (p is not None and report.classification == "nontrivially_unstable"
            and not p.lambda_ == p.mu > 0):
        raise SoundnessError(
            f"srg{p.as_tuple()} is non-trivially unstable but "
            "lambda = mu > 0 fails")
    return verdicts
