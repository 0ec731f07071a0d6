"""Isomorph-free enumeration of small graphs and the per-order census of
connected non-bipartite twin-free / non-trivially unstable / four-vertex-
extension-realizable graphs.

Generation uses canonical augmentation (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998): children of a parent on m vertices
are built by attaching a new vertex m to one representative subset per
automorphism orbit. The deletion candidates of a child are its vertices
of largest key (degree, sorted neighbour degrees); the canonical deletion
vertex is the candidate of highest canonical position, and a child is
accepted exactly when the new vertex lies in its automorphism orbit. A
child is labelled only when the new vertex ties with another candidate.
The last order is yielded as it is generated, so the census classifies
while generation runs.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .graph_core import (Graph, GraphParseError, SoundnessError,
                         parse_graph6, write_graph6, bits, is_connected,
                         is_bipartite, has_twins)
from .perms import orbit_of
from .aut import canonical_form
from .cover import stability_report

# Graphs per order (OEIS A000088): the orders enumerate_graphs generates,
# and the count it checks its output against.
KNOWN_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044,
                      8: 12346, 9: 274668}


@dataclass(frozen=True)
class CensusRow:
    """One order's counts: connected non-bipartite twin-free graphs, the
    non-trivially unstable ones among them, and those realizable by the
    four-vertex extension."""

    n: int
    count_cnbtf: int
    count_ntu: int
    count_xab: int

    def as_csv(self) -> str:
        return f"{self.n},{self.count_cnbtf},{self.count_ntu},{self.count_xab}"


@dataclass(frozen=True)
class XabWitness:
    """A labeled occurrence of the four-vertex extension inside a graph."""

    a1: int
    a2: int
    b1: int
    b2: int
    A: frozenset
    B: frozenset


def _subset_orbit_reps(m: int, gens) -> list[int]:
    """Orbit representatives (as bitmasks, smallest in orbit) of the action
    of the generated group on subsets of {0..m-1}."""
    total = 1 << m
    if not gens:
        return list(range(total))
    actions = []
    for g in gens:
        img = [0] * total
        for mask in range(1, total):
            low = mask & -mask
            img[mask] = img[mask ^ low] | 1 << g[low.bit_length() - 1]
        actions.append(img)
    reps, seen = [], set()
    for mask in range(total):
        if mask not in seen:
            reps.append(mask)
            seen |= orbit_of(actions, mask)
    return reps


def _deletion_candidates(rows: list[int]) -> list[int]:
    """The vertices of largest key (degree, sorted neighbour degrees) in the
    graph with adjacency rows, or [] when the last vertex is not one."""
    m = len(rows) - 1
    deg = [row.bit_count() for row in rows]
    if max(deg) > deg[m]:
        return []
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
    """
    m = parent.n
    cf = canonical_form(parent)
    gens = [p.images for p in cf.aut_generators]
    for mask in _subset_orbit_reps(m, gens):
        rows = list(parent.adj) + [mask]
        for v in bits(mask):
            rows[v] |= 1 << m
        candidates = _deletion_candidates(rows)
        if not candidates:
            continue
        child = Graph._unchecked(rows)
        if len(candidates) > 1:
            ccf = canonical_form(child)
            kappa = max(candidates, key=ccf.relabeling.images.__getitem__)
            cgens = [p.images for p in ccf.aut_generators]
            if kappa != m and m not in orbit_of(cgens, kappa):
                continue
        yield child


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All graphs of order n, one representative per isomorphism class.

    Built-in generation covers the orders of KNOWN_GRAPH_COUNTS (n <= 9);
    beyond that, feed a graph6 stream (e.g. from an external generator)
    through stream_graph6 instead. Order n is yielded as it is generated;
    the count check raises SoundnessError after the last graph.
    """
    if n < 1:
        raise ValueError("enumerate_graphs requires n >= 1")
    if n not in KNOWN_GRAPH_COUNTS:
        raise ValueError(
            f"built-in generation supports n <= {max(KNOWN_GRAPH_COUNTS)}; "
            "use a graph6 stream input (census --stream) for larger orders")
    level = [Graph(1)]
    for _ in range(n - 2):
        level = [child for parent in level for child in _augment(parent)]
    if n > 1:
        level = (child for parent in level for child in _augment(parent))
    count = 0
    for g in level:
        count += 1
        yield g
    if count != KNOWN_GRAPH_COUNTS[n]:
        raise SoundnessError(
            f"generated {count} graphs of order {n}, "
            f"not {KNOWN_GRAPH_COUNTS[n]}")


def stream_graph6(lines: Iterable[str]) -> Iterator[Graph]:
    """Parse a graph6 line stream, skipping blanks; errors carry the line
    number."""
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            yield parse_graph6(stripped)
        except GraphParseError as exc:
            raise GraphParseError(
                f"line {lineno}: {exc.args[0]}") from exc


def is_xab_realizable(g: Graph) -> Optional[XabWitness]:
    """Find a labeled occurrence of the four-vertex extension: distinct
    vertices a1,a2,b1,b2 whose only internal edges are a1-b1 and a2-b2,
    with N(a1)-b1 = N(a2)-b2 and N(b1)-a1 = N(b2)-a2 outside the four.

    Returns a witness or None. No extra conditions are imposed on the
    stripped graph; the census applies this to non-trivially unstable
    inputs only.
    """
    adj = g.adj
    edges = list(g.edges())
    for i, e1 in enumerate(edges):
        for e2 in edges[i + 1:]:
            if set(e1) & set(e2):
                continue
            for a1, b1 in (e1, e1[::-1]):
                for a2, b2 in (e2, e2[::-1]):
                    four = (1 << a1) | (1 << a2) | (1 << b1) | (1 << b2)
                    if (adj[a1] & four != 1 << b1 or
                            adj[a2] & four != 1 << b2 or
                            adj[b1] & four != 1 << a1 or
                            adj[b2] & four != 1 << a2):
                        continue
                    rest = ~four
                    if adj[a1] & rest != adj[a2] & rest:
                        continue
                    if adj[b1] & rest != adj[b2] & rest:
                        continue
                    return XabWitness(
                        a1=a1, a2=a2, b1=b1, b2=b2,
                        A=frozenset(bits(adj[a1] & rest)),
                        B=frozenset(bits(adj[b1] & rest)))
    return None


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


def _classify_g6(line: str) -> tuple[bool, bool, bool, str]:
    g = parse_graph6(line)
    return classify_graph(g) + (line,)


def census_row(n: int, source: Optional[Iterable[str]] = None,
               threads: int = 1,
               collect_ntu: Optional[list] = None) -> CensusRow:
    """Census counts for order n from the built-in generator or a graph6
    line stream. With threads > 1, graphs are classified in a process pool
    of at most os.cpu_count() workers; counting is order-independent, so
    results are identical either way.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, not {threads}")
    threads = min(threads, os.cpu_count() or 1)
    if source is None:
        lines = (write_graph6(g) for g in enumerate_graphs(n))
    else:
        def checked(src):
            for g in stream_graph6(src):
                if g.n != n:
                    raise GraphParseError(
                        f"stream graph has order {g.n}, expected {n}")
                yield write_graph6(g)
        lines = checked(source)
    cnbtf = ntu = xab = 0
    with ExitStack() as stack:
        if threads > 1:
            import multiprocessing
            pool = stack.enter_context(multiprocessing.Pool(threads))
            results = pool.imap(_classify_g6, lines, chunksize=64)
        else:
            results = map(_classify_g6, lines)
        for is_cnbtf, is_ntu, is_xab, line in results:
            cnbtf += is_cnbtf
            ntu += is_ntu
            xab += is_xab
            if is_ntu and collect_ntu is not None:
                collect_ntu.append(line)
    row = CensusRow(n=n, count_cnbtf=cnbtf, count_ntu=ntu, count_xab=xab)
    if not row.count_xab <= row.count_ntu <= row.count_cnbtf:
        raise SoundnessError(f"census counts out of order: {row}")
    return row
