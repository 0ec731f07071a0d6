"""Automorphism groups and canonical forms via equitable-partition
refinement with individualization-refinement backtracking.

The search follows the classical scheme: refine to an equitable partition,
branch on vertices of a deterministically chosen target cell, and keep two
reference leaves (the first leaf for automorphism detection, the best leaf
for the canonical form), walking the tree with an explicit stack. Each
node refines one array of cells in place (``_refine``), and its exact
refinement trace is its invariant. Leaves compare by path, then by their
relabelled rows, built only when a reference leaf has the same path. Each
open node keeps a union-find of its orbits under the automorphisms found
that fix its prefix, fed only the generators found since it last looked,
and tries the least vertex of each orbit. Skipped branches are provably
equivalent to explored ones. That union-find (``_merge``, least points as
roots) is the package's one orbit routine: ``orbit_roots`` runs it on all
points for ``vertex_orbits`` and for canonical-augmentation generation.

The group order is read off the search tree, as nauty does: when a node on
the first path has explored all its children, the automorphisms found that
fix its prefix generate its stabilizer, so |Aut| is the product over the
first path of the orbit sizes of its individualized vertices. Vertex
orbits are the orbits of the generators the search found, which are image
tuples. Schreier-Sims (``automorphism_group``) only cross-checks the
order. graph6 is encoded only when ``canonical_graph6`` is read.

Twins are collapsed before the search: ``canonical_form`` merges every
class of open twins (equal neighbourhoods) and of closed twins (equal
closed neighbourhoods) within one cell into a single coloured vertex,
round after round, and searches the twin-free quotient. Any permutation
of a twin class is an automorphism, so the order is the quotient's times
s! per merged class of s, and the generators are the quotient's, lifted
block by block, plus one transposition and one cycle per class. An
edgeless graph, a star or K_n is searched as at most two vertices.

Seeds, automorphisms a caller already knows, start the search as its
first generators, so orbit pruning skips the paths that would only find
them again (McKay & Piperno, "Practical graph isomorphism, II", 2014).
``canonical_form`` checks them only where it uses them, off a quotient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import factorial
from typing import Iterable, Optional

from .graph_core import (Graph, SoundnessError, bits, graph6_size_prefix,
                         has_twins)
from . import graph_core, perms


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
    It and the generators are image tuples (v -> images[v]).
    ``aut_order`` is the order of the group the generators generate. For
    a graph with twins the generators are the twin-free quotient's, lifted
    block by block, and a transposition and a cycle of each merged twin
    class. ``adj`` is the input graph's adjacency, kept by reference.
    ``discrete``: refinement alone made the initial partition discrete
    (one leaf, no twins).
    """

    relabeling: tuple[int, ...]
    aut_generators: tuple[tuple[int, ...], ...]
    aut_order: int
    adj: tuple[int, ...] = field(repr=False, compare=False)
    discrete: bool = False

    @cached_property
    def canonical_graph6(self) -> str:
        """graph6 of the relabelled input, encoded when first read."""
        return (graph6_size_prefix(len(self.adj)) + graph_core.graph6_payload(
            self.adj, perms._inv(self.relabeling))).decode("ascii")


def _mask(vertices: Iterable[int]) -> int:
    """The bitset of a set of vertices."""
    return sum(1 << v for v in vertices)


def _equitable(adj, cells: Iterable[Iterable[int]], trace: list[int]):
    """(lab, cellof, cend, number of cells) of the equitable refinement
    of ordered cells, in the layout of ``_refine``."""
    lab, cellof, cend, starts = [], [0] * len(adj), [0] * len(adj), []
    for cell in cells:
        starts.append(len(lab))
        lab += cell
        for v in cell:
            cellof[v] = starts[-1]
        cend[starts[-1]] = len(lab)
    return lab, cellof, cend, _refine(adj, lab, cellof, cend, starts,
                                      len(starts), trace)


def _refine(adj, lab: list[int], cellof: list[int], cend: list[int],
            queue: list[int], ncells: int, trace: list[int]) -> int:
    """Split cells in place until the partition is equitable with respect
    to the queued cells; returns the number of cells.

    ``lab`` maps position to vertex, ``cellof[v]`` is the start of v's
    cell and ``cend[s]`` the end of the cell at s. A cell keeps its start
    when it splits, so the FIFO queue and the trace (split cell, then
    count and size per fragment in ascending count order) name cells by
    start. A splitter W is counted in each non-singleton cell holding a
    neighbour of W as a lowest-bit walk over the neighbours meets it, and
    those cells then split by ascending start. A split cell still queued
    stays queued and all its other fragments join it. Otherwise the
    partition is equitable with respect to the whole cell, so counts into
    its first largest fragment follow from the others and only those are
    queued (McKay & Piperno, "Practical graph isomorphism, II", 2014); for
    the same reason a child queues only its individualized {v}.
    """
    pending = set(queue)
    qi = 0
    while qi < len(queue) and ncells < len(lab):
        s = queue[qi]
        qi += 1
        pending.discard(s)
        w = touched = 0
        for v in lab[s:cend[s]]:
            w |= 1 << v
            touched |= adj[v]
        splits: dict[int, dict[int, list[int]]] = {}
        while touched:
            v = (touched & -touched).bit_length() - 1
            c = cellof[v]
            if cend[c] - c == 1:
                touched ^= 1 << v
                continue
            groups: dict[int, list[int]] = {}
            cell = 0
            for v in lab[c:cend[c]]:
                cell |= 1 << v
                groups.setdefault((adj[v] & w).bit_count(), []).append(v)
            touched &= ~cell
            if len(groups) > 1:
                splits[c] = groups
        for c in sorted(splits):
            groups = splits[c]
            keys = sorted(groups)
            largest = max((groups[k] for k in keys), key=len)
            queued = c in pending
            trace.append(c)
            start = c
            for k in keys:
                frag = groups[k]
                end = start + len(frag)
                lab[start:end] = frag
                cend[start] = end
                for v in frag:
                    cellof[v] = start
                trace += (k, len(frag))
                if (start != c) if queued else (frag is not largest):
                    queue.append(start)
                    pending.add(start)
                start = end
            ncells += len(keys) - 1
    return ncells


def refine(g: Graph, p: OrderedPartition) -> OrderedPartition:
    """Coarsest equitable refinement of p, each cell sorted; the order of
    the cells does not depend on the labels."""
    lab, cellof, cend, _ = _equitable(g.adj, p.cells, [])
    return OrderedPartition(tuple(tuple(sorted(lab[s:cend[s]]))
                                  for s in sorted(set(cellof))))


def _root(uf, v: int) -> int:
    """The root of v in the union-find uf, halving the path."""
    while uf[v] != v:
        uf[v] = v = uf[uf[v]]
    return v


def _merge(uf, gen: tuple[int, ...], points: Iterable[int]) -> None:
    """Union gen's orbits on points into uf, a list or dict of parents,
    each root the least point of its class; gen maps points into points.
    The root walks are inlined, as this runs once per point per generator."""
    for v in points:
        w = gen[v]
        if w != v:
            while uf[v] != v:
                uf[v] = v = uf[uf[v]]
            while uf[w] != w:
                uf[w] = w = uf[uf[w]]
            if v < w:
                uf[w] = v
            elif w < v:
                uf[v] = w


def orbit_roots(gens: Iterable[tuple[int, ...]], n: int) -> list[int]:
    """The least point of each point's orbit under the group the image
    tuples gens generate on 0..n-1."""
    uf = list(range(n))
    for gen in gens:
        _merge(uf, gen, range(n))
    return [_root(uf, v) for v in range(n)]


@dataclass(slots=True, eq=False)
class _Leaf:
    """A leaf of the search tree, as ``_Search`` records it."""

    path: list[tuple]
    lab: list[int]
    prefix: list[int]
    cert: Optional[tuple[int, ...]] = None  # built by ``_Search._cert``


class _Search:
    """One individualization-refinement run over a fixed graph.

    ``zeta`` is the first leaf, against which automorphisms are detected;
    ``rho`` is the best leaf, the greatest by (path, certificate), which
    gives the canonical form. A leaf's certificate is built only when its
    path equals one of theirs, and is dropped with the leaf.
    """

    def __init__(self, g: Graph):
        self.adj = g.adj
        self.n = g.n
        self.gens: list[tuple[int, ...]] = []
        self.moved: list[int] = []  # the bitset each generator moves
        self.zeta: Optional[_Leaf] = None
        self.rho: Optional[_Leaf] = None
        self.order = 1
        # Backjump target depth after an automorphism discovery, or None.
        self.jump_to: Optional[int] = None

    def run(self, initial: OrderedPartition) -> None:
        """Walk the tree depth first. stack[d] is the open node with prefix
        prefix[:d]: its partition, target cell, targets, untried targets,
        orbit union-find and generators seen (``_orbits``), and whether it
        lies on the first path."""
        trace: list[int] = []
        node = _equitable(self.adj, initial.cells, trace)
        path, prefix, stack = [tuple(trace)], [], []
        while node or stack:
            if node:
                lab, _, cend, ncells = node
                if ncells == self.n:
                    self._leaf(lab, path, prefix)
                else:  # the first largest cell (a fixed rule, for determinism)
                    t = size = s = 0
                    while s < self.n:
                        if cend[s] - s > size:
                            t, size = s, cend[s] - s
                        s = cend[s]
                    targets = sorted(lab[t:cend[t]])
                    stack.append([node, t, targets, iter(targets),
                                  dict(zip(targets, targets)), 0,
                                  self.zeta is None])
                node = None
                continue
            top = stack[-1]
            part, t, targets, untried = top[:4]
            if len(prefix) == len(stack):  # back from a child
                prefix.pop()
                path.pop()
                if self.jump_to is not None:
                    # A discovered automorphism maps the remaining subtrees
                    # onto explored ones: unwind to the deepest common
                    # ancestor with the matched leaf.
                    if len(prefix) > self.jump_to:
                        stack.pop()
                        continue
                    self.jump_to = None
            for v in untried:
                # targets ascend, so an orbit's least vertex stands for it
                if v != targets[0] and _root(self._orbits(top, prefix), v) != v:
                    continue
                child, trace = self._child(part, t, v)
                path.append(trace)
                k = len(path)
                if (self.zeta is None or path == self.zeta.path[:k]
                        or path >= self.rho.path[:k]):
                    prefix.append(v)
                    node = child
                    break
                path.pop()
            else:
                if top[6]:
                    # A backjump never unwinds past an open first-path node,
                    # so every sibling of the first child was explored or
                    # pruned here.
                    uf = self._orbits(top, prefix)
                    self.order *= sum(_root(uf, v) == targets[0]
                                      for v in targets)
                stack.pop()

    def _orbits(self, top: list, prefix: list[int]) -> dict[int, int]:
        """top's orbits on its targets under the automorphisms found that
        fix its prefix, as a union-find rooted at least vertices; merges in
        only the generators found since top last looked."""
        uf, seen = top[4], top[5]
        if seen < len(self.gens):
            fixed = _mask(prefix)
            for g, moved in zip(self.gens[seen:], self.moved[seen:]):
                if not moved & fixed:
                    _merge(uf, g, top[2])
            top[5] = len(self.gens)
        return uf

    def _child(self, part: tuple, t: int, v: int) -> tuple[tuple, tuple]:
        """Partition and trace after individualizing v in the cell at t."""
        (lab, cellof, cend), ncells = [x[:] for x in part[:3]], part[3]
        e = cend[t]
        i = lab.index(v, t, e)
        lab[i], lab[t] = lab[t], v
        cend[t], cend[t + 1] = t + 1, e
        for u in lab[t + 1:e]:
            cellof[u] = t + 1
        trace: list[int] = []
        ncells = _refine(self.adj, lab, cellof, cend, [t], ncells + 1, trace)
        return (lab, cellof, cend, ncells), tuple(trace)

    def add_generator(self, gen: tuple[int, ...]) -> None:
        """Record the automorphism gen, unless already known, with the
        bitset of the vertices it moves."""
        if gen not in self.gens:
            self.gens.append(gen)
            self.moved.append(_mask(v for v, w in enumerate(gen) if v != w))

    def _cert(self, leaf: _Leaf) -> tuple[int, ...]:
        """leaf's certificate, built on first use: the rows, as bitsets of
        positions, of the graph relabelled so that leaf.lab[i] becomes i."""
        if leaf.cert is None:
            pos = {v: i for i, v in enumerate(leaf.lab)}
            rows = []
            for v in leaf.lab:
                row, rest = 0, self.adj[v]
                while rest:
                    low = rest & -rest
                    row |= 1 << pos[low.bit_length() - 1]
                    rest ^= low
                rows.append(row)
            leaf.cert = tuple(rows)
        return leaf.cert

    def _match(self, ref: _Leaf, leaf: _Leaf) -> Optional[int]:
        """When leaf has ref's path and graph, record the automorphism
        ref.lab -> leaf.lab and return the depth of the deepest common
        ancestor of the two leaves; otherwise None."""
        if leaf.path != ref.path or self._cert(leaf) != self._cert(ref):
            return None
        self.add_generator(tuple(v for _, v in sorted(zip(ref.lab, leaf.lab))))
        depth = 0
        while leaf.prefix[depth] == ref.prefix[depth]:
            depth += 1
        return depth

    def _leaf(self, lab: list[int], path: list[tuple],
              prefix: list[int]) -> None:
        leaf = _Leaf(list(path), lab, list(prefix))
        zeta, rho = self.zeta, self.rho
        if zeta is None:
            self.zeta = self.rho = leaf
            return
        # rho is replaced only by a greater leaf, so unless it is zeta the
        # two differ and a leaf matches one of them at most
        self.jump_to = self._match(zeta, leaf)
        if self.jump_to is None and rho is not zeta:
            self.jump_to = self._match(rho, leaf)
        if leaf.path > rho.path or (leaf.path == rho.path
                                    and self._cert(leaf) > self._cert(rho)):
            self.rho = leaf


def _twin_quotient(g: Graph, initial: OrderedPartition):
    """The twin-free coloured quotient of g, or None when g has no twins
    within one cell of ``initial``.

    Each round merges every class of open twins (equal rows) and of closed
    twins (equal rows with the vertex's own bit) that lie in one colour
    class into its least vertex, coloured by the rank of (old colour, twin
    type, class size); the first colours are the cell indices. Returns the
    quotient, its colour cells in rank order, the block of vertices of g
    behind each quotient vertex, and each merged class as (block, number
    of sub-blocks). A block is the concatenation of its equal-sized
    sub-blocks, and blocks of one colour are isomorphic in that order.
    """
    adj = list(g.adj)
    n = g.n
    if (not has_twins(g)
            and len({row | 1 << v for v, row in enumerate(adj)}) == n):
        return None
    colour = [0] * n
    for c, cell in enumerate(initial.cells):
        for v in cell:
            colour[v] = c
    blocks = [[v] for v in range(n)]
    merged: list[tuple[list[int], int]] = []
    while True:
        groups: dict[tuple, list[int]] = {}
        for v, row in enumerate(adj):
            groups.setdefault((colour[v], 1, row), []).append(v)
            groups.setdefault((colour[v], 2, row | 1 << v), []).append(v)
        key = [(c, 0, 1) for c in colour]
        gone: set[int] = set()
        for (c, kind, _), cls in groups.items():
            if len(cls) > 1:
                key[cls[0]] = (c, kind, len(cls))
                blocks[cls[0]] = [x for u in cls for x in blocks[u]]
                merged.append((blocks[cls[0]], len(cls)))
                gone.update(cls[1:])
        if not gone:
            break
        kept = [v for v in range(len(adj)) if v not in gone]
        index = {v: i for i, v in enumerate(kept)}
        keep = _mask(kept)
        adj = [_mask(index[u] for u in bits(adj[v] & keep)) for v in kept]
        rank = {k: i for i, k in enumerate(sorted({key[v] for v in kept}))}
        colour = [rank[key[v]] for v in kept]
        blocks = [blocks[v] for v in kept]
    if not merged:
        return None
    cells: list[list[int]] = [[] for _ in range(max(colour) + 1)]
    for v, c in enumerate(colour):
        cells[c].append(v)
    return (Graph._unchecked(adj), OrderedPartition(tuple(map(tuple, cells))),
            blocks, merged)


def _block_generators(n: int, block: list[int], s: int) -> list[tuple]:
    """A transposition and a cycle of the s equal sub-blocks of block,
    which together generate their symmetric group (one swap when s = 2)."""
    size = len(block) // s
    swap, turn = list(range(n)), list(range(n))
    for i, v in enumerate(block):
        turn[v] = block[(i + size) % len(block)]
    for i in range(size):
        swap[block[i]], swap[block[size + i]] = block[size + i], block[i]
    return [tuple(swap)] + ([tuple(turn)] if s > 2 else [])


def canonical_form(g: Graph,
                   initial_partition: Optional[OrderedPartition] = None,
                   seeds: Iterable[tuple[int, ...]] = ()) -> CanonicalForm:
    """Canonical form, relabeling and automorphism generators of g.

    With the default unit partition the canonical string is invariant under
    arbitrary relabelings. A non-unit ``initial_partition`` restricts the
    search to cell-preserving maps (colored canonical form); results are
    then only canonical among graphs carrying the same partition.

    The search runs on the twin-free coloured quotient of g. Its best leaf
    is expanded block by block into a labelling of g, which stays
    canonical because blocks of one colour are isomorphic in block order.
    ``seeds``, automorphisms of g as image tuples, start the search. Each
    must preserve every cell and g, else SoundnessError. On a quotient they
    are skipped unchecked: they act on g, and the check is not free.
    """
    colored = initial_partition is not None
    if not colored:
        cached = g._cache.get("canon")
        if cached is not None:
            return cached
        initial_partition = OrderedPartition.unit(g.n)
    n = g.n
    quotient = _twin_quotient(g, initial_partition)
    q, cells = quotient[:2] if quotient else (g, initial_partition)
    search = _Search(q)
    for seed in () if quotient else seeds:
        if not (len(seed) == n and all(_mask(seed[v] for v in c) == _mask(c)
                                       for c in cells.cells)
                and g.relabel(seed) == g):
            raise SoundnessError("seed not a cell-preserving automorphism")
        search.add_generator(seed)
    search.run(cells)
    lab, gens, order = search.rho.lab, search.gens, search.order
    if quotient:
        blocks, merged = quotient[2:]
        lab = [v for b in lab for v in blocks[b]]
        gens = []
        for sig in search.gens:
            images = [0] * n
            for b, image in zip(blocks, sig):
                for x, y in zip(b, blocks[image]):
                    images[x] = y
            gens.append(tuple(images))
        for block, s in merged:
            gens += _block_generators(n, block, s)
            order *= factorial(s)
    cf = CanonicalForm(
        relabeling=perms._inv(lab),
        aut_generators=tuple(gens),
        aut_order=order,
        adj=g.adj,
        discrete=not (quotient or search.zeta.prefix))
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
    orbits: dict[int, list[int]] = {}
    for v, root in enumerate(orbit_roots(canonical_form(g).aut_generators,
                                         g.n)):
        orbits.setdefault(root, []).append(v)
    return [frozenset(orbit) for orbit in orbits.values()]


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism via canonical-form equality."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    return canonical_form(g).canonical_graph6 == canonical_form(h).canonical_graph6
