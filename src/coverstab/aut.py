"""Automorphism groups and canonical forms via equitable-partition
refinement with individualization-refinement backtracking.

The search follows the classical scheme: refine to an equitable partition,
branch on vertices of a deterministically chosen target cell, and keep two
reference leaves (the first leaf for automorphism detection, the best leaf
for the canonical form). Pruning uses path invariants plus orbit pruning
under the already-discovered automorphisms that fix the branching prefix.
Correctness never depends on the pruning: skipped branches are provably
equivalent to explored ones.

The group order is read off the search tree, as nauty does: when a node on
the first path has explored all its children, the automorphisms found that
fix its prefix generate its stabilizer, so |Aut| is the product over the
first path of the orbit sizes of its individualized vertices. Vertex
orbits are the orbits of the generators the search found. Schreier-Sims
(``automorphism_group``) only cross-checks the order.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .graph_core import (Graph, SoundnessError, graph6_payload,
                         graph6_size_prefix)
from . import perms
from .perms import Permutation, orbit_of


@dataclass(frozen=True)
class OrderedPartition:
    """Ordered partition of {0..n-1} into non-empty cells."""

    cells: tuple[tuple[int, ...], ...]

    @classmethod
    def unit(cls, n: int) -> "OrderedPartition":
        return cls((tuple(range(n)),) if n else ())

    @classmethod
    def from_cells(cls, cells: Iterable[Iterable[int]], n: int) -> "OrderedPartition":
        norm = tuple(tuple(sorted(c)) for c in cells)
        flat = sorted(v for c in norm for v in c)
        if any(not c for c in norm):
            raise ValueError("empty cell in partition")
        if flat != list(range(n)):
            raise ValueError("cells do not partition the vertex set")
        return cls(norm)

    @property
    def is_discrete(self) -> bool:
        return all(len(c) == 1 for c in self.cells)


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical relabeling of a graph plus the automorphisms found.

    ``relabeling`` maps input vertex -> canonical position; applying it to
    the input graph yields exactly the graph encoded by canonical_graph6.
    ``aut_order`` is the order of the group the generators generate.
    """

    relabeling: Permutation
    canonical_graph6: str
    aut_generators: tuple[Permutation, ...]
    aut_order: int


def _mask(vertices: Iterable[int]) -> int:
    """The bitset of a set of vertices."""
    return sum(1 << v for v in vertices)


def _refine_cells(adj, cells: list[list[int]], queue: list[int],
                  trace: list[int], n: int) -> None:
    """Refine cells in place to the coarsest equitable partition.

    ``queue`` holds splitter cells as bitsets (FIFO). Fragments are ordered
    by ascending neighbour count, which is label-independent, so equivalent
    branches produce identical traces.
    """
    qi = 0
    ncells = len(cells)
    while qi < len(queue):
        if ncells == n:
            return
        w = queue[qi]
        qi += 1
        ci = 0
        while ci < len(cells):
            cell = cells[ci]
            if len(cell) == 1:
                ci += 1
                continue
            counts = [(adj[v] & w).bit_count() for v in cell]
            first = counts[0]
            if all(c == first for c in counts):
                ci += 1
                continue
            groups: dict[int, list[int]] = {}
            for v, c in zip(cell, counts):
                groups.setdefault(c, []).append(v)
            keys = sorted(groups)
            frags = [groups[k] for k in keys]
            cells[ci:ci + 1] = frags
            ncells += len(frags) - 1
            trace.append(ci)
            for k in keys:
                frag = groups[k]
                trace.append(k)
                trace.append(len(frag))
                queue.append(_mask(frag))
            ci += len(frags)


def _invariant(cells: list[list[int]], trace: list[int]) -> tuple:
    """Node invariant: cell-size tuple plus a refinement-trace hash."""
    sizes = tuple(len(c) for c in cells)
    h = zlib.crc32(b" ".join(b"%d" % t for t in trace))
    return (sizes, h)


def refine(g: Graph, p: OrderedPartition) -> OrderedPartition:
    """Coarsest equitable refinement of p (deterministic given cell order)."""
    cells = [list(c) for c in p.cells]
    _refine_cells(g.adj, cells, [_mask(c) for c in cells], [], g.n)
    return OrderedPartition(tuple(tuple(c) for c in cells))


class _Leaf(NamedTuple):
    """A leaf of the search tree, as ``_Search`` records it."""

    path: list[tuple]
    payload: bytes
    lab: list[int]
    prefix: list[int]


class _Search:
    """One individualization-refinement run over a fixed graph.

    ``zeta`` is the first leaf, against which automorphisms are detected;
    ``rho`` is the best leaf, the greatest by (path, payload), which gives
    the canonical form. Each is a ``_Leaf`` record of its invariant path,
    graph6 payload, labelling (position -> vertex) and individualized
    prefix.
    """

    def __init__(self, g: Graph):
        self.adj = g.adj
        self.n = g.n
        self.gens: list[tuple[int, ...]] = []
        self.zeta: Optional[_Leaf] = None
        self.rho: Optional[_Leaf] = None
        self.order = 1
        # Backjump target depth after an automorphism discovery, or None.
        self.jump_to: Optional[int] = None

    def run(self, initial: OrderedPartition) -> None:
        cells = [list(c) for c in initial.cells]
        trace: list[int] = []
        _refine_cells(self.adj, cells, [_mask(c) for c in cells], trace,
                      self.n)
        self._node(cells, [_invariant(cells, trace)], [])

    def _orbit(self, prefix: list[int], v: int) -> set[int]:
        """The orbit of v under the automorphisms found so far that fix
        prefix pointwise."""
        return orbit_of([g for g in self.gens
                         if all(g[b] == b for b in prefix)], v)

    def _node(self, cells: list[list[int]], path: list[tuple],
              prefix: list[int]) -> None:
        if len(cells) == self.n:
            self._leaf(cells, path, prefix)
            return
        # the first largest cell (a fixed rule, for determinism)
        ti = max(range(len(cells)), key=lambda i: len(cells[i]))
        first_path = self.zeta is None
        targets = sorted(cells[ti])
        done: set[int] = set()
        for v in targets:
            if done and not done.isdisjoint(self._orbit(prefix, v)):
                continue
            done.add(v)
            child = [list(c) for c in cells]
            rest = [u for u in child[ti] if u != v]
            child[ti:ti + 1] = [[v], rest]
            trace: list[int] = [ti]
            _refine_cells(self.adj, child, [1 << v, _mask(rest)], trace, self.n)
            path.append(_invariant(child, trace))
            k = len(path)
            if (self.zeta is None or path == self.zeta.path[:k]
                    or path >= self.rho.path[:k]):
                self._node(child, path, prefix + [v])
            path.pop()
            if self.jump_to is not None:
                # A discovered automorphism showed the remaining siblings'
                # subtrees are images of already-explored ones; unwind to
                # the deepest common ancestor with the matched leaf's path.
                if len(prefix) > self.jump_to:
                    return
                self.jump_to = None
        if first_path:
            # A backjump never unwinds past an open first-path node, so every
            # sibling of the first child has been explored or pruned here.
            self.order *= len(self._orbit(prefix, targets[0]))

    def _match(self, ref: _Leaf, leaf: _Leaf) -> Optional[int]:
        """When leaf has ref's path and graph, record the automorphism
        ref.lab -> leaf.lab and return the depth of the deepest common
        ancestor of the two leaves; otherwise None."""
        if leaf[:2] != ref[:2]:
            return None
        sigma = [0] * self.n
        for ref_v, v in zip(ref.lab, leaf.lab):
            sigma[ref_v] = v
        sig = tuple(sigma)
        if sig not in self.gens:
            self.gens.append(sig)
        depth = 0
        while leaf.prefix[depth] == ref.prefix[depth]:
            depth += 1
        return depth

    def _leaf(self, cells: list[list[int]], path: list[tuple],
              prefix: list[int]) -> None:
        lab = [c[0] for c in cells]
        leaf = _Leaf(list(path), graph6_payload(self.adj, lab), lab, prefix)
        if self.zeta is None:
            self.zeta = self.rho = leaf
            return
        jumps = [d for d in (self._match(self.zeta, leaf),
                             self._match(self.rho, leaf)) if d is not None]
        if leaf[:2] > self.rho[:2]:
            self.rho = leaf
        if jumps:
            self.jump_to = min(jumps)


def canonical_form(g: Graph,
                   initial_partition: Optional[OrderedPartition] = None) -> CanonicalForm:
    """Canonical form, relabeling and automorphism generators of g.

    With the default unit partition the canonical string is invariant under
    arbitrary relabelings. A non-unit ``initial_partition`` restricts the
    search to cell-preserving maps (colored canonical form); results are
    then only canonical among graphs carrying the same partition.
    """
    colored = initial_partition is not None
    if not colored:
        cached = g._cache.get("canon")
        if cached is not None:
            return cached
        initial_partition = OrderedPartition.unit(g.n)
    search = _Search(g)
    search.run(initial_partition)
    n = g.n
    relab = [0] * n
    for pos, v in enumerate(search.rho.lab):
        relab[v] = pos
    canon6 = (graph6_size_prefix(n) + search.rho.payload).decode("ascii")
    cf = CanonicalForm(
        relabeling=Permutation(relab),
        canonical_graph6=canon6,
        aut_generators=tuple(Permutation(s) for s in search.gens),
        aut_order=search.order)
    if not colored:
        g._cache["canon"] = cf
    return cf


def automorphism_group(g: Graph,
                       initial_partition: Optional[OrderedPartition] = None) -> perms.PermGroup:
    """The full edge-preserving permutation group of g (cell-preserving
    subgroup when an initial partition is given).

    The only place the package runs Schreier-Sims: its order must equal
    the order the search reports, or SoundnessError is raised.
    """
    cf = canonical_form(g, initial_partition)
    grp = perms.group_from_generators(cf.aut_generators, g.n)
    if grp.order() != cf.aut_order:
        raise SoundnessError(
            f"Schreier-Sims order {grp.order()} differs from the search's "
            f"order {cf.aut_order}")
    return grp


def vertex_orbits(g: Graph) -> list[frozenset]:
    """Orbits of the automorphism group on vertices, by smallest element."""
    gens = [p.images for p in canonical_form(g).aut_generators]
    orbits = []
    done: set[int] = set()
    for x in range(g.n):
        if x not in done:
            orbit = orbit_of(gens, x)
            done |= orbit
            orbits.append(frozenset(orbit))
    return orbits


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism via canonical-form equality."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    return canonical_form(g).canonical_graph6 == canonical_form(h).canonical_graph6
