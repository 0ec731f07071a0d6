"""Isomorph-free enumeration of small graphs and the per-order census of
connected non-bipartite twin-free / non-trivially unstable / four-vertex-
extension-realizable graphs.

Generation uses canonical augmentation (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998; _augment states the acceptance test).
Each class is accepted only from its canonical parent, so the tree is
walked depth first in O(depth) memory and its subtrees are independent:
every census task classifies the subtree below one root, an order-(n-2)
graph handed to a pool worker, or an order-n graph (generated serially or
read from a stream) that is its own only descendant. The xab column is
families.is_xab_realizable, which holds the extension's definition.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, Optional

from .graph_core import (Graph, GraphParseError, SoundnessError,
                         parse_graph6, write_graph6, bits, is_connected,
                         is_bipartite, has_twins)
from .aut import canonical_form, orbit_roots
from .cover import stability_report
from .families import is_xab_realizable

# Graphs per order (OEIS A000088): the orders enumerate_graphs generates,
# and the count it checks its output against.
KNOWN_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044,
                      8: 12346, 9: 274668}


@dataclass(frozen=True)
class CensusRow:
    """One order's counts: connected non-bipartite twin-free graphs, the
    non-trivially unstable ones among them (graph6 in ntu, task order, not
    compared or shown), and those realizable by the four-vertex extension."""

    n: int
    count_cnbtf: int
    count_ntu: int
    count_xab: int
    ntu: tuple[str, ...] = field(default=(), repr=False, compare=False)

    def as_csv(self) -> str:
        return f"{self.n},{self.count_cnbtf},{self.count_ntu},{self.count_xab}"


def _subset_orbit_reps(m: int, gens) -> list[int]:
    """Orbit representatives (as bitmasks, smallest in orbit, ascending) of
    the action of the generated group on subsets of {0..m-1}."""
    total = 1 << m
    actions = []
    for g in gens:
        img = [0] * total
        for mask in range(1, total):
            low = mask & -mask
            img[mask] = img[mask ^ low] | 1 << g[low.bit_length() - 1]
        actions.append(img)
    return [mask for mask, root in enumerate(orbit_roots(actions, total))
            if mask == root]


def _deletion_candidates(rows: list[int]) -> list[int]:
    """The vertices of largest key (degree, sorted neighbour degrees) in the
    graph with adjacency rows, given that its last vertex has the largest
    degree; [] when the last vertex is not among them."""
    m = len(rows) - 1
    deg = [row.bit_count() for row in rows]
    key = sorted(deg[u] for u in bits(rows[m]))
    candidates = [m]
    for v in range(m):
        if deg[v] == deg[m]:
            other = sorted(deg[u] for u in bits(rows[v]))
            if other > key:
                return []
            if other == key:
                candidates.append(v)
    return candidates


def _augment(parent: Graph) -> Iterator[Graph]:
    """Children of parent accepted by the canonical-deletion test.

    The parent, on vertices 0..m-1, gets a new vertex m joined to one
    subset per Aut(parent) orbit. The candidates for deletion in a child
    are its vertices of largest key (degree, sorted neighbour degrees).
    A child is rejected unlabelled when m is not a candidate, and accepted
    unlabelled when m is the only one. Otherwise it is labelled, and the
    canonical deletion vertex is the candidate of highest canonical
    position; the child is accepted when m lies in that vertex's
    Aut(child) orbit. Keys and canonical positions are isomorphism
    invariants, so each class is accepted from exactly one parent class.
    A mask that leaves m below the largest degree is skipped unbuilt: its
    popcount, m's degree, falls below the parent's top degree, or equals
    it and the mask raises a vertex of top degree above it.
    """
    m = parent.n
    deg = [row.bit_count() for row in parent.adj]
    top = max(deg, default=0)
    tops = sum(1 << v for v in range(m) if deg[v] == top)
    for mask in _subset_orbit_reps(m, canonical_form(parent).aut_generators):
        k = mask.bit_count()
        if k < top or (k == top and mask & tops):
            continue
        rows = list(parent.adj) + [mask]
        for v in bits(mask):
            rows[v] |= 1 << m
        candidates = _deletion_candidates(rows)
        if not candidates:
            continue
        child = Graph._unchecked(rows)
        if len(candidates) > 1:
            ccf = canonical_form(child)
            kappa = max(candidates, key=ccf.relabeling.__getitem__)
            root = orbit_roots(ccf.aut_generators, m + 1)
            if root[kappa] != root[m]:
                continue
        yield child


def _descendants(g: Graph, n: int) -> Iterator[Graph]:
    """The order-n graphs below g in the augmentation tree, depth first."""
    if g.n == n:
        yield g
        return
    for child in _augment(g):
        yield from _descendants(child, n)


def _check_order(n: int, streamed: bool = False) -> None:
    if n < 1:
        raise ValueError(f"the order n must be at least 1, not {n}")
    if not streamed and n not in KNOWN_GRAPH_COUNTS:
        raise ValueError(
            f"built-in generation supports 1 <= n <= "
            f"{max(KNOWN_GRAPH_COUNTS)}; use a graph6 stream input "
            "(census --stream) for larger orders")


def _check_count(count: int, n: int) -> None:
    if count != KNOWN_GRAPH_COUNTS[n]:
        raise SoundnessError(
            f"generated {count} graphs of order {n}, "
            f"not {KNOWN_GRAPH_COUNTS[n]}")


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All graphs of order n, one per isomorphism class, depth first.

    Built-in generation covers the orders of KNOWN_GRAPH_COUNTS (n <= 9);
    beyond that, feed a graph6 stream (e.g. from an external generator)
    through stream_graph6 instead. The count check raises SoundnessError
    after the last graph.
    """
    _check_order(n)
    count = 0
    for g in _descendants(Graph(1), n):
        count += 1
        yield g
    _check_count(count, n)


def stream_graph6(lines: Iterable[str], n: int) -> Iterator[Graph]:
    """Parse a graph6 line stream of order-n graphs, skipping blanks; a
    malformed record or one of another order raises GraphParseError
    naming its line."""
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            g = parse_graph6(stripped)
        except GraphParseError as exc:
            raise GraphParseError(f"line {lineno}: {exc.args[0]}") from exc
        if g.n != n:
            raise GraphParseError(
                f"line {lineno}: graph has order {g.n}, expected {n}")
        yield g


def classify_graph(g: Graph) -> tuple[bool, bool, bool]:
    """(is cnbtf, is non-trivially unstable, is xab-realizable) flags."""
    if not (is_connected(g) and not is_bipartite(g) and not has_twins(g)):
        return (False, False, False)
    report = stability_report(g)
    if report.stable:
        return (True, False, False)
    if report.classification != "nontrivially_unstable":
        raise SoundnessError(
            f"unstable connected non-bipartite twin-free graph classified "
            f"{report.classification}")
    return (True, True, is_xab_realizable(g) is not None)


def _census_task(n: int, root: Graph) -> tuple[list[int], list[str]]:
    """Classify the order-n graphs below root (an order-n root is its own
    only descendant): counts of (graphs, cnbtf, ntu, xab) and the ntu
    graph6."""
    counts, ntu_lines = [0] * 4, []
    for g in _descendants(root, n):
        flags = (True,) + classify_graph(g)
        counts = [c + f for c, f in zip(counts, flags)]
        if flags[2]:
            ntu_lines.append(write_graph6(g))
    return counts, ntu_lines


def census_row(n: int, source: Optional[Iterable[str]] = None,
               threads: int = 1) -> CensusRow:
    """Census counts for order n from the built-in generator or a graph6
    line stream. Each task classifies the subtree below one root: a graph
    of order n-2 (K1 below order 3) that the parent builds when threads >
    1, else a graph of order n, as a traced census counts the yields of
    enumerate_graphs(n), or a stream graph, 64 to a pooled task. A pool of
    at most as many processes as the CPUs this process may run on (its
    affinity mask, else os.cpu_count()) runs the tasks when threads > 1.
    Results come in task order, so they match either way."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, not {threads}")
    # os.cpu_count() counts the machine's CPUs, not the ones a pinned
    # process may use
    threads = min(threads, len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)
    _check_order(n, streamed=source is not None)
    if source is not None:
        roots, chunksize = stream_graph6(source, n), 64
    else:
        roots = enumerate_graphs(max(n - 2, 1) if threads > 1 else n)
        chunksize = 1
    totals, ntu = [0] * 4, []
    with ExitStack() as stack:
        if threads > 1:
            import multiprocessing
            pool = stack.enter_context(multiprocessing.Pool(threads))
            results = pool.imap(partial(_census_task, n), roots, chunksize)
        else:
            results = map(partial(_census_task, n), roots)
        for counts, ntu_lines in results:
            totals = [t + c for t, c in zip(totals, counts)]
            ntu += ntu_lines
    if source is None:
        _check_count(totals[0], n)
    row = CensusRow(n, *totals[1:], ntu=tuple(ntu))
    if not row.count_xab <= row.count_ntu <= row.count_cnbtf:
        raise SoundnessError(f"census counts out of order: {row}")
    return row
