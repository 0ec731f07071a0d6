"""Automorphism groups and canonical forms via equitable-partition
refinement with individualization-refinement backtracking.

The search follows the classical scheme: refine to an equitable partition,
branch on vertices of a deterministically chosen target cell, and keep two
reference leaves (the first leaf for automorphism detection, the best leaf
for the canonical form), walking the tree with an explicit stack. Each
node refines one array of cells in place (``_refine``), and its exact
refinement trace is its invariant. A leaf matches a reference leaf of
its path when the position map between them, composed by ``perms``, is
an automorphism; one that matches neither is compared with the best leaf
by path, then by the rows ``Graph.relabel`` gives it, built for that
comparison and never stored. Each open node keeps a union-find of its orbits
under the automorphisms found that fix its prefix, fed only the
generators found since it last looked, and tries the least vertex of
each orbit. Skipped branches are provably equivalent to explored ones.
That union-find (``_merge``, least points as roots) is the package's one
orbit routine: ``orbit_roots`` runs it on all points for
``vertex_orbits``, whose least points the criteria walk from
(``orbit_representatives``, memoized), and for canonical-augmentation
generation.

The group order is read off the search tree, as nauty does: when a node on
the first path has dealt with all its children, the automorphisms found that
fix its prefix generate its stabilizer, so |Aut| is the product over the
first path of the orbit sizes of its individualized vertices. Vertex
orbits are the orbits of the generators the search found, which are image
tuples. Schreier-Sims (``automorphism_group``) only cross-checks the
order. graph6 is encoded only when ``canonical_graph6`` is read.

Twins are collapsed before the search: ``canonical_form`` merges every
class of open twins (equal neighbourhoods) and of closed twins (equal
closed neighbourhoods) within one cell into a single coloured vertex,
one round of ``_twin_round`` at a time, and searches the twin-free
quotient. Any permutation of a twin class is an automorphism, so the
order is the quotient's times s! per merged class of s. The generators
are the quotient's plus one transposition and one cycle per orbit of
merged classes, lifted level by level; the lifted generators conjugate
them onto the orbit's other classes. An edgeless graph, a star or K_n is
searched as at most two vertices.

A first-path node keeps its first child's labelling. A later sibling
with zeta's path and a non-discrete partition has the same cell layout,
so the position-wise map between the two labellings fixes the prefix and
the cells; when it is an automorphism, it is recorded and the sibling's
subtree, its image of an explored one, is skipped. The order inside a
cell is inherited from the input numbering, so the map is tried first
with each cell of both labellings sorted by the vertices' positions in
zeta, which turns the first child's into zeta's own, and then position
by position as refinement left them: a shuffled C9[Q3] is then walked
in about as many nodes as the natural one. The second map is kept for
inputs whose numbering follows their structure: on a naturally numbered
Johnson graph it maps siblings that zeta's order does not, and
J(11,2) is walked in 24 children with it and 41 without.
``_Search.add_automorphism`` checks and records seeds, sibling maps and
leaf matches alike, on the rows of the vertices they move only, as saucy
does (Katebi, Sakallah & Markov, "Faster symmetry discovery using
sparsity of symmetries", 2008).

A coloured search starts from ordered cells, which ``_checked_cells``
checks on entry: non-empty, each vertex in exactly one, else ValueError.
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

from .graph_core import (Graph, SoundnessError, has_twins, induced_subgraph,
                         memoized)
from . import graph_core, perms


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical relabeling of a graph plus the automorphisms found.

    ``relabeling`` maps input vertex -> canonical position; applying it to
    the input graph yields exactly the graph encoded by canonical_graph6.
    It and the generators are image tuples (v -> images[v]).
    ``aut_order`` is the order of the group the generators generate (see
    the module docstring for twins). ``adj`` is the input graph's
    adjacency, kept by reference: the graph itself would close the cycle
    g._cache -> form -> g.
    ``discrete``: refinement alone made the initial cells discrete (one
    leaf, no twins).
    """

    relabeling: tuple[int, ...]
    aut_generators: tuple[tuple[int, ...], ...]
    aut_order: int
    adj: tuple[int, ...] = field(repr=False, compare=False)
    discrete: bool = False

    @cached_property
    def canonical_graph6(self) -> str:
        """graph6 of the relabelled input, encoded when first read."""
        g = Graph._unchecked(self.adj).relabel(self.relabeling)
        return graph_core.write_graph6(g)


def _checked_cells(cells: Iterable[Iterable[int]], n: int) -> tuple[tuple, ...]:
    """cells as a tuple of tuples, or ValueError unless they are non-empty
    and together hold each of 0..n-1 exactly once."""
    cells = tuple(map(tuple, cells))
    if not all(cells) or sorted(v for c in cells for v in c) != list(range(n)):
        raise ValueError("cells must be non-empty and partition 0..n-1")
    return cells


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


def equitable_cells(g: Graph) -> list[list[int]]:
    """The cells of g's coarsest equitable partition, refined from the
    unit partition, in the order refinement leaves them."""
    lab, _, cend, _ = _equitable(g.adj, [range(g.n)], [])
    cells, s = [], 0
    while s < g.n:
        cells.append(lab[s:cend[s]])
        s = cend[s]
    return cells


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


class _Search:
    """One individualization-refinement run over a fixed graph.

    ``zeta`` is the first leaf, against which automorphisms are detected;
    ``rho`` is the best leaf, the greatest by (path, certificate), which
    gives the canonical form. A leaf with the path of one of them is
    matched through ``add_automorphism``; one that matches neither is
    compared with rho by certificates built for that comparison alone.
    """

    def __init__(self, g: Graph):
        self.g = g  # the graph searched, perhaps a twin quotient
        self.n = g.n
        self.gens: list[tuple[int, ...]] = []
        self.zeta: Optional[_Leaf] = None
        self.rho: Optional[_Leaf] = None
        self.order = 1
        # Backjump target depth after an automorphism discovery, or None.
        self.jump_to: Optional[int] = None

    def run(self, cells: tuple[tuple[int, ...], ...]) -> None:
        """Walk the tree from the cells depth first. stack[d] is the open
        node with prefix prefix[:d]: its partition, target cell, targets,
        untried targets, orbit union-find and generators seen (``_orbits``),
        whether it is on the first path and its first child's labelling."""
        trace: list[int] = []
        node = _equitable(self.g.adj, cells, trace)
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
                                  self.zeta is None, None])
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
                if top[6] and v == targets[0]:
                    top[7] = child[0]
                elif (top[6] and child[3] < self.n
                      and path == self.zeta.path[:k]
                      and any(self.add_automorphism(gen)
                              for gen in self._sibling_maps(top[7], child))):
                    path.pop()
                    continue
                if (self.zeta is None or path == self.zeta.path[:k]
                        or path >= self.rho.path[:k]):
                    prefix.append(v)
                    node = child
                    break
                path.pop()
            else:
                if top[6]:
                    # A backjump never unwinds past an open first-path node,
                    # so every sibling of the first child was explored,
                    # pruned or mapped here.
                    uf = self._orbits(top, prefix)
                    self.order *= sum(_root(uf, v) == targets[0]
                                      for v in targets)
                stack.pop()

    def _sibling_maps(self, first: list[int], child: tuple):
        """The maps to try from a first-path node's first child, labelled
        first, onto a sibling child with zeta's path. The two share their
        cell layout, and each map sends every cell of first onto the cell
        at the same positions: the first with both cells in zeta's order,
        which orders first as zeta.lab, the second position by position,
        composed through ``perms`` as a leaf match is. One walk of
        zeta.lab meets each sibling cell's vertices in order."""
        zlab, cellof = self.zeta.lab, child[1]
        gen, slot = [0] * self.n, list(range(self.n))
        for u in zlab:
            c = cellof[u]
            gen[zlab[slot[c]]] = u
            slot[c] += 1
        yield tuple(gen)
        yield perms._mul(perms._inv(first), child[0])

    def _orbits(self, top: list, prefix: list[int]) -> dict[int, int]:
        """top's orbits on its targets under the automorphisms found that
        fix its prefix, as a union-find rooted at least vertices; merges in
        only the generators found since top last looked."""
        uf, seen = top[4], top[5]
        if seen < len(self.gens):
            for g in self.gens[seen:]:
                if all(g[v] == v for v in prefix):
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
        ncells = _refine(self.g.adj, lab, cellof, cend, [t], ncells + 1, trace)
        return (lab, cellof, cend, ncells), tuple(trace)

    def add_automorphism(self, gen: tuple[int, ...]) -> bool:
        """Record the permutation gen, unless known, and return True if it
        maps the graph onto itself, checked on its support: each moved
        vertex's neighbours, mapped through gen, must make its image's row
        (a fixed vertex then keeps its row)."""
        bit, adj = [1 << w for w in gen], self.g.adj
        nbrs = graph_core.neighbour_lists(self.g)
        for a, w in enumerate(gen):
            if a != w and sum(map(bit.__getitem__, nbrs[a])) != adj[w]:
                return False
        if gen not in self.gens:
            self.gens.append(gen)
        return True

    def _cert(self, leaf: _Leaf) -> tuple[int, ...]:
        """leaf's certificate: the rows of the graph relabelled so that
        leaf.lab[i] becomes i. Computed where it is compared and never
        stored, it orders leaves and never decides an automorphism."""
        return self.g.relabel(perms._inv(leaf.lab)).adj

    def _match(self, ref: _Leaf, leaf: _Leaf) -> Optional[int]:
        """When leaf has ref's path and the position map ref.lab[i] ->
        leaf.lab[i] passes ``add_automorphism``, which records it, return
        the depth of the deepest common ancestor of the leaves; else None."""
        if leaf.path != ref.path or not self.add_automorphism(
                perms._mul(perms._inv(ref.lab), leaf.lab)):
            return None
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
        # two differ and a leaf matches one of them at most; a matched leaf
        # has its reference's certificate, so it never exceeds rho
        self.jump_to = self._match(zeta, leaf)
        if self.jump_to is None and rho is not zeta:
            self.jump_to = self._match(rho, leaf)
        if self.jump_to is None and (leaf.path > rho.path or (
                leaf.path == rho.path and self._cert(leaf) > self._cert(rho))):
            self.rho = leaf


def _twin_round(g: Graph, cells: tuple[tuple[int, ...], ...]):
    """One round of the twin quotient of g, or None when g has no twins
    within one of the cells.

    Merges every class of open twins (equal rows) and of closed twins
    (equal rows with the vertex's own bit) that lies in one cell into its
    least vertex. Returns the quotient, its cells in rank order of (cell,
    twin type, class size), and each quotient vertex's class of vertices
    of g in ascending order. The members of a class are interchangeable,
    and classes in one quotient cell have the same type and size.
    """
    adj, n = g.adj, g.n
    if (not has_twins(g)
            and len({row | 1 << v for v, row in enumerate(adj)}) == n):
        return None
    colour = [0] * n
    for c, cell in enumerate(cells):
        for v in cell:
            colour[v] = c
    groups: dict[tuple, list[int]] = {}
    for v, row in enumerate(adj):
        groups.setdefault((colour[v], 1, row), []).append(v)
        groups.setdefault((colour[v], 2, row | 1 << v), []).append(v)
    key = [(c, 0, 1) for c in colour]
    merged: dict[int, list[int]] = {}
    for (c, kind, _), cls in groups.items():
        if len(cls) > 1:
            key[cls[0]] = (c, kind, len(cls))
            merged[cls[0]] = cls
    if not merged:
        return None
    gone = {v for cls in merged.values() for v in cls[1:]}
    quotient, index = induced_subgraph(g, set(range(n)) - gone)
    quotient_cells: dict[tuple, list[int]] = {}
    for v, i in index.items():
        quotient_cells.setdefault(key[v], []).append(i)
    return (quotient,
            tuple(tuple(quotient_cells[k]) for k in sorted(quotient_cells)),
            [merged.get(v, [v]) for v in index])


def canonical_form(g: Graph,
                   cells: Optional[Iterable[Iterable[int]]] = None,
                   seeds: Iterable[tuple[int, ...]] = ()) -> CanonicalForm:
    """Canonical form, relabeling and automorphism generators of g.

    With the default unit partition the canonical string is invariant under
    arbitrary relabelings. Ordered ``cells`` restrict the search to
    cell-preserving maps (colored canonical form); results are then only
    canonical among graphs carrying the same cells. They must be non-empty
    and together hold each vertex once, else ValueError.

    The search runs on the twin-free coloured quotient of g. Its best leaf
    is expanded class by class, round by round, into a labelling of g,
    which stays canonical because the members of a class are twins.
    ``seeds``, automorphisms of g as image tuples, start the search. Each
    must permute 0..n-1 and preserve every cell and g, else
    SoundnessError. On a quotient they are skipped unchecked: they act on
    g, and the check is not free.
    """
    n = g.n
    colored = cells is not None
    if not colored and "canon" in g._cache:
        return g._cache["canon"]
    cells = (_checked_cells(cells, n) if colored
             else (tuple(range(n)),) if n else ())
    levels = []  # the classes of each twin round, first round first
    q = g
    while quotient := _twin_round(q, cells):
        q, cells, classes = quotient
        levels.append(classes)
    search = _Search(q)
    for seed in () if levels else seeds:
        if not (sorted(seed) == list(range(n))
                and all({seed[v] for v in c} == set(c) for c in cells)
                and search.add_automorphism(seed)):
            raise SoundnessError("seed not a cell-preserving automorphism")
    search.run(cells)
    lab, gens, order = search.rho.lab, search.gens, search.order
    for classes in reversed(levels):
        lab = [v for b in lab for v in classes[b]]
        roots = orbit_roots(gens, len(classes))
        # sig maps classes onto classes of the same size, member i to
        # member i, so x goes to the vertex at x's position in sig's order
        back = perms._inv([v for cls in classes for v in cls])
        lifted = [perms._mul(back, [v for b in sig for v in classes[b]])
                  for sig in gens]
        for b, cls in enumerate(classes):
            order *= factorial(len(cls))
            if len(cls) > 1 and roots[b] == b:
                # a transposition and a cycle of the class; their conjugates
                # by the lifted generators reach the rest of b's orbit
                for cyc in [cls[:2]] + ([cls] if len(cls) > 2 else []):
                    images = list(range(len(lab)))
                    for x, y in zip(cyc, cyc[1:] + cyc[:1]):
                        images[x] = y
                    lifted.append(tuple(images))
        gens = lifted
    cf = CanonicalForm(
        relabeling=perms._inv(lab),
        aut_generators=tuple(gens),
        aut_order=order,
        adj=g.adj,
        discrete=not (levels or search.zeta.prefix))
    if not colored:
        g._cache["canon"] = cf
    return cf


def automorphism_group(g: Graph, cells: Optional[Iterable[Iterable[int]]] = None
                       ) -> perms.PermGroup:
    """The full edge-preserving permutation group of g (cell-preserving
    subgroup when ordered cells are given).

    The only place the package runs Schreier-Sims: its order must equal
    the order the search reports, or SoundnessError is raised.
    """
    cf = canonical_form(g, cells)
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


@memoized
def orbit_representatives(g: Graph) -> tuple[int, ...]:
    """The least vertex of each Aut(g) orbit, ascending: a walk of a fact
    constant on orbits need start from these only."""
    return tuple(min(orbit) for orbit in vertex_orbits(g))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism via canonical-form equality."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    return canonical_form(g).canonical_graph6 == canonical_form(h).canonical_graph6
