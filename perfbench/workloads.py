"""The benchmark's three workloads: the command lines each operation runs
and, for every operation, the facts its output is checked against.

Inputs are built once per run from the seed; the program under test then
receives graph6 strings only, and parses each one afresh on every
operation. Every expected value here is a closed form or a published
count, never a recording of an earlier run of the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, factorial

# Called through their modules, so that a tracer installed after this
# import sees the calls.
from coverstab import families, graph_core
from coverstab.graph_core import Graph

# Published census rows (cnbtf, ntu, xab) for orders 6 and 8, and the
# number of graphs on n vertices (OEIS A000088).
CENSUS_ROWS = {6: (56, 6, 5), 8: (7397, 395, 330)}
GRAPH_COUNTS = {6: 156, 8: 12346}


@dataclass
class Op:
    """One operation: a command line for ``coverstab.cli.run`` and what
    its output must satisfy."""

    label: str
    argv: list[str]
    expect: dict = field(default_factory=dict)


def build(workload: str, seed: int, tiny: bool = False,
          traced: bool = False) -> list[Op]:
    """The operations of one round of ``workload``.

    ``tiny`` selects the self-check sizes. ``traced`` runs the census in
    the parent process, where the tracer's wrappers see its work.
    """
    if workload == "census8":
        return _census(tiny, traced)
    if workload == "families":
        return _families(random.Random(seed), tiny)
    if workload == "symmetric":
        return _symmetric(tiny)
    raise ValueError(f"unknown workload {workload!r}")


def _census(tiny: bool, traced: bool) -> list[Op]:
    n = 6 if tiny else 8
    threads = "1" if traced else "2"
    row = CENSUS_ROWS[n]
    return [Op(f"census{n}", ["census", "--n", str(n), "--threads", threads,
                              "--csv"],
               {"csv": f"n,cnbtf,ntu,xab\n{n},{row[0]},{row[1]},{row[2]}",
                "graphs": GRAPH_COUNTS[n]})]


def _op(label: str, g: Graph, argv_head: list[str], **expect) -> Op:
    """The operation on g, renumbered by a shuffle fixed by its label: the
    program never sees a construction's natural numbering, and only the
    random graphs change with the seed."""
    images = list(range(g.n))
    random.Random(label).shuffle(images)
    g6 = graph_core.write_graph6(g.relabel(images))
    expect["n"] = g.n
    if "witness" in expect:
        expect["witness"] = tuple(images[v] for v in expect["witness"])
    return Op(label, argv_head + [g6], expect)


def _paley(p: int) -> Graph:
    squares = {x * x % p for x in range(1, p)}
    return Graph(p, [(i, j) for i, j in combinations(range(p), 2)
                     if (j - i) % p in squares], label=f"Paley({p})")


def _random_graph(n: int, rng: random.Random) -> tuple[Graph, int]:
    edges = [(i, j) for i, j in combinations(range(n), 2)
             if rng.random() < 0.5]
    return Graph(n, edges), len(edges)


def _cube() -> Graph:
    return Graph(8, [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4)
                     if v < v ^ bit], label="Q3")


def _families(rng: random.Random, tiny: bool) -> list[Op]:
    head = ["analyze", "--criteria"]
    ops = []
    johnsons = [(6, 2), (6, 3)] if tiny else [
        (6, 2), (6, 3), (7, 2), (7, 3), (8, 2), (8, 3), (8, 4), (9, 2),
        (9, 3), (10, 2), (11, 2)]
    for n, k in johnsons:
        expect = {"aut_x": factorial(n) * (2 if n == 2 * k else 1),
                  "edges": comb(n, k) * k * (n - k) // 2}
        if (n, k) == (6, 2):
            expect["index"] = 28
        elif (n, k) == (6, 3):
            expect["index"] = 2
        ops.append(_op(f"J({n},{k})", families.johnson(n, k), head,
                       **expect))
    ops.append(_op("Petersen", families.petersen(), head, aut_x=120,
                   edges=15, applies="triangle-free-diameter-2"))
    primes = [5, 13] if tiny else [5, 13, 17, 29, 37, 41, 53, 61, 73]
    for p in primes:
        # srg(p, (p-1)/2, (p-5)/4, (p-1)/4); Paley(5) is the 5-cycle.
        applies = ("srg-distinct-counts" if p > 5
                   else "triangle-free-diameter-2")
        ops.append(_op(f"Paley({p})", _paley(p), head,
                       aut_x=p * (p - 1) // 2, edges=p * (p - 1) // 4,
                       applies=applies))
    # Sabidussi: |Aut C_m[H]| = |Aut H|^m * 2m for these factors.
    c6, q3 = families.cycle(6), _cube()
    for m, h, aut_h, edges_h in [(8, c6, 12, 6)] if tiny else [
            (8, c6, 12, 6), (9, c6, 12, 6), (8, q3, 48, 12),
            (9, q3, 48, 12)]:
        ops.append(_op(f"C{m}[{h.label}]", families.lexcycle(m, h), head,
                       aut_x=aut_h ** m * 2 * m,
                       edges=m * edges_h + m * h.n * h.n))
    for i, nb in enumerate([8, 12] if tiny else range(8, 22)):
        base, edges = _random_graph(nb, rng)
        A = [v for v in range(nb) if rng.random() < 0.5]
        B = [v for v in range(nb) if rng.random() < 0.5]
        ext = families.extend_xab(base, A, B)
        ops.append(_op(f"xab{i}(n={nb})", ext.result, head,
                       edges=edges + 2 + 2 * len(A) + 2 * len(B),
                       unstable=True,
                       witness=(ext.a1, ext.a2, ext.b1, ext.b2)))
    for i in range(1 if tiny else 2):
        n = 30 if tiny else 150
        g, edges = _random_graph(n, rng)
        ops.append(_op(f"G({n},1/2)#{i}", g, head, edges=edges,
                       refinement_certificate=True))
    return ops


def _symmetric(tiny: bool) -> list[Op]:
    head = ["analyze"]
    f = factorial
    ops = []
    sizes = (lambda small, big: small if tiny else big)
    for n in sizes([3, 6], [2, 4, 8, 12, 16, 20, 24]):
        ops.append(_op(f"E{n}", Graph(n), head,
                       aut_x=f(n), aut_bx=f(2 * n), edges=0))
    for n in sizes([3, 6], [2, 4, 8, 12, 16, 20, 24]):
        star = Graph(n + 1, [(0, i) for i in range(1, n + 1)])
        ops.append(_op(f"K1,{n}", star, head,
                       aut_x=f(n), aut_bx=2 * f(n) ** 2, edges=n))
    for m in sizes([1, 3], [2, 3, 4, 5, 6, 7, 8, 9]):
        g = Graph(3 * m, [(3 * i + a, 3 * i + b) for i in range(m)
                          for a, b in ((0, 1), (0, 2), (1, 2))])
        ops.append(_op(f"{m}K3", g, head,
                       aut_x=6 ** m * f(m), aut_bx=12 ** m * f(m),
                       edges=3 * m))
    for m in sizes([2, 3], [3, 5, 7, 9, 11, 13]):
        g = Graph(2 * m, [(i, m + j) for i in range(m) for j in range(m)])
        ops.append(_op(f"K{m},{m}", g, head,
                       aut_x=2 * f(m) ** 2, aut_bx=8 * f(m) ** 4,
                       edges=m * m))
    for n in sizes([3, 5], [4, 8, 12, 16, 20, 24, 28]):
        ops.append(_op(f"K{n}", families.complete_graph(n), head,
                       aut_x=f(n), aut_bx=2 * f(n), edges=n * (n - 1) // 2))
    for m, k in sizes([(3, 2)], [(3, 2), (3, 4), (5, 2), (5, 3), (5, 4),
                                 (7, 3), (7, 4), (9, 4)]):
        g = families.lex_product(families.cycle(m), Graph(k))
        ops.append(_op(f"C{m}[E{k}]", g, head,
                       aut_x=f(k) ** m * 2 * m, aut_bx=f(k) ** (2 * m) * 4 * m,
                       edges=m * k * k))
    return ops
