"""Immutable simple graphs, graph6 serialization, and structural predicates.

Vertices are always 0..n-1 (dense indexing). Adjacency is stored as one
Python int per vertex used as a bitset, so neighbourhood intersection is a
single ``&`` and the predicates below stay cheap up to a few thousand
vertices.
"""

from __future__ import annotations

import base64
import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

# Largest order encodable with the 3-byte graph6 size prefix.
MAX_VERTICES = (1 << 18) - 1


class GraphParseError(ValueError):
    """Malformed graph6 input. ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: Optional[int] = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class SoundnessError(RuntimeError):
    """Two computations of the same fact disagreed: always a bug."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def memoized(fn):
    """fn(g) computed once per graph and kept in g._cache under fn's
    name, for the facts that several callers read."""
    @functools.wraps(fn)
    def cached(g):
        if fn.__name__ not in g._cache:
            g._cache[fn.__name__] = fn(g)
        return g._cache[fn.__name__]
    return cached


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the neighbourhood of v as a bitset. Instances hash and
    compare by (n, adj) and are safe to share across threads; the private
    ``_cache`` slot memoizes derived data (the canonical form and each fact
    kept by ``memoized``, such as ``neighbour_lists`` and
    ``component_layers``) without affecting value semantics. No table of
    every vertex's layers is kept: on a path it would hold Θ(n³) bits.
    """

    __slots__ = ("n", "adj", "label", "_cache")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (),
                 label: Optional[str] = None):
        if n < 0 or n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} out of supported range")
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.adj = tuple(rows)
        self.n = n
        self.label = label
        self._cache: dict = {}

    @classmethod
    def from_rows(cls, rows: Sequence[int], label: Optional[str] = None) -> "Graph":
        """Build from adjacency bitset rows (validated for symmetry/loops)."""
        n = len(rows)
        if n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} out of supported range")
        for v, row in enumerate(rows):
            if row >> n:
                raise ValueError(f"row {v} has bits outside 0..{n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(rows):
            for u in bits(row):
                if not (rows[u] >> v) & 1:
                    raise ValueError(f"adjacency not symmetric at ({v},{u})")
        return cls._unchecked(rows, label)

    @classmethod
    def _unchecked(cls, rows: Sequence[int], label: Optional[str] = None) -> "Graph":
        """Build from rows the package made itself: loop-free, symmetric,
        in range and within MAX_VERTICES by construction, so unvalidated."""
        g = cls.__new__(cls)
        g.adj = tuple(rows)
        g.n = len(rows)
        g.label = label
        g._cache = {}
        return g

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1)):
                yield (u, u + 1 + v)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def relabel(self, images: Sequence[int]) -> "Graph":
        """Return the graph with vertex v renamed to images[v]."""
        if sorted(images) != list(range(self.n)):
            raise ValueError("relabeling is not a bijection of the vertex set")
        bit = [1 << i for i in images]
        rows = [0] * self.n
        for v, nbrs in enumerate(neighbour_lists(self)):
            rows[images[v]] = sum(map(bit.__getitem__, nbrs))
        return Graph._unchecked(rows, label=self.label)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph)
                and self.n == other.n and self.adj == other.adj)

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        name = f" {self.label!r}" if self.label else ""
        return f"<Graph{name} n={self.n} m={self.edge_count()}>"


@dataclass(frozen=True)
class StructuralProfile:
    """Cheap structure facts of one graph, bundled for callers of the
    library; the criteria checkers test their hypotheses directly.

    ``diameter`` is None for disconnected graphs (infinite).
    """

    connected: bool
    bipartite: bool
    diameter: Optional[int]
    twin_free: bool
    every_edge_on_triangle: bool
    triangle_free: bool


@memoized
def neighbour_lists(g: Graph) -> list[list[int]]:
    """Each vertex's neighbours in ascending order, built on first use and
    memoized per graph, so that a relabelling maps them in C."""
    return [list(bits(row)) for row in g.adj]


# ---------------------------------------------------------------------------
# graph6 interchange format
#
# The payload is the upper triangle column by column, (0,1), (0,2), (1,2),
# (0,3), ..., six bits to a character from '?' (63) to '~' (126): base64
# with another alphabet. As a '0'/'1' string s, column j is
# s[j(j-1)/2 : j(j+1)/2] and holds the pairs (0,j) ... (j-1,j), that is
# row j below j, lowest bit first.

_GRAPH6 = bytes(range(63, 127))
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_BASE64 = bytes.maketrans(_GRAPH6, _BASE64)
_FROM_BASE64 = bytes.maketrans(_BASE64, _GRAPH6)


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 record, after one optional ``>>graph6<<`` header
    (networkx writes it); a fault's offset counts from the byte after it."""
    line = line.removeprefix(">>graph6<<")
    try:
        data = line.encode("ascii")
    except UnicodeEncodeError as exc:
        raise GraphParseError(
            f"non-ASCII character {line[exc.start]!r}", exc.start) from None
    data = data.rstrip(b"\r\n")
    if not data:
        raise GraphParseError("empty graph6 record", 0)
    bad = data.translate(None, _GRAPH6)
    if bad:
        raise GraphParseError(f"character {bad[0]!r} outside graph6 range",
                              data.index(bad[0]))
    if data[0] != 126:
        n = data[0] - 63
        body = 1
    else:
        if len(data) >= 2 and data[1] == 126:
            raise GraphParseError("graphs beyond 2^18 vertices unsupported", 1)
        if len(data) < 4:
            raise GraphParseError("truncated extended size prefix", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        if n < 63:
            raise GraphParseError("non-canonical extended size prefix", 1)
        body = 4
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - body < need:
        raise GraphParseError(
            f"record too short: need {need} payload bytes, have {len(data) - body}",
            len(data))
    if len(data) - body > need:
        raise GraphParseError("trailing garbage after graph6 payload", body + need)
    # '?' is six zero bits: pad to whole 24-bit quanta, which base64 decodes
    raw = base64.b64decode(
        (data[body:] + b"?" * (-need % 4)).translate(_TO_BASE64))
    s = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")
    if "1" in s[nbits:]:
        raise GraphParseError("nonzero padding bits", len(data) - 1)
    rows = [0] * n
    for j in range(1, n):
        # row j below j, then the upper triangle it fills in
        rows[j] = low = int(s[j * (j - 1) // 2:j * (j + 1) // 2][::-1], 2)
        for i in bits(low):
            rows[i] |= 1 << j
    return Graph._unchecked(rows)


def write_graph6(g: Graph) -> str:
    """Encode a Graph as a canonical header-free graph6 record."""
    n = g.n
    size = bytes([n + 63]) if n < 63 else bytes(
        [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    # column j is row j below j, lowest bit first: bin() reversed, up to
    # the marker bit j
    s = "".join(bin(row & ((1 << j) - 1) | (1 << j))[:2:-1]
                for j, row in enumerate(g.adj))
    pad = -len(s) % 24
    raw = (int(s or "0", 2) << pad).to_bytes((len(s) + pad) // 8, "big")
    payload = base64.b64encode(raw).translate(_FROM_BASE64)
    return (size + payload[:(len(s) + 5) // 6]).decode("ascii")


# ---------------------------------------------------------------------------
# metric / structural predicates

def bfs_layers(g: Graph, x: int) -> tuple[int, ...]:
    """BFS layers around x as bitsets: layer i holds the vertices at
    distance i, and the vertices in no layer are unreachable. Each frontier
    is the OR of its predecessor's adjacency rows minus what was reached."""
    adj = g.adj
    frontier = reached = 1 << x
    layers = []
    while frontier:
        layers.append(frontier)
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        frontier = nxt & ~reached
        reached |= frontier
    return tuple(layers)


def bfs_distances(g: Graph, x: int) -> list[int]:
    """Distances from x to every vertex; -1 for unreachable."""
    dist = [-1] * g.n
    for d, layer in enumerate(bfs_layers(g, x)):
        for v in bits(layer):
            dist[v] = d
    return dist


@memoized
def component_layers(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The BFS layers of each connected component around its smallest
    vertex, components in the order of that vertex: the one memoized
    distance table, read for connectivity, bipartiteness and components."""
    out = []
    unseen = (1 << g.n) - 1
    while unseen:
        layers = bfs_layers(g, (unseen & -unseen).bit_length() - 1)
        unseen ^= sum(layers)
        out.append(layers)
    return tuple(out)


def is_connected(g: Graph) -> bool:
    """At most one component."""
    return len(component_layers(g)) <= 1


def layers_bipartite(g: Graph, layers: Sequence[int]) -> bool:
    """Is the component with these BFS layers bipartite? An edge inside a
    layer closes an odd cycle, and without one the layer parity 2-colours
    the component."""
    return not any(g.adj[v] & layer for layer in layers for v in bits(layer))


def is_bipartite(g: Graph) -> bool:
    """Every component is bipartite."""
    return all(layers_bipartite(g, layers) for layers in component_layers(g))


def has_twins(g: Graph) -> bool:
    """True iff two distinct vertices have identical open neighbourhoods.

    Open neighbourhoods are compared for ALL pairs; for adjacent pairs
    equality is impossible in a loopless graph, so this is the conservative
    reading of twin-freeness.
    """
    return len(set(g.adj)) < g.n


def diameter(g: Graph, sources: Optional[Iterable[int]] = None
             ) -> Optional[int]:
    """Max eccentricity, or None (infinite) when disconnected; each
    vertex's layers are dropped once counted. ``sources``, the vertices to
    walk from (every vertex by default), must meet every orbit of a group
    of automorphisms, such as ``aut.orbit_representatives``."""
    if not is_connected(g):
        return None
    if sources is None:
        sources = range(g.n)
    return max((len(bfs_layers(g, x)) - 1 for x in sources), default=0)


@memoized
def triangle_flags(g: Graph) -> tuple[bool, bool]:
    """(every edge lies on a triangle, no edge does); three criteria read
    it."""
    adj = g.adj
    every_on_triangle = True
    triangle_free = True
    for u in range(g.n):
        row = adj[u]
        for v in bits(row >> (u + 1)):
            if row & adj[u + 1 + v]:
                triangle_free = False
            else:
                every_on_triangle = False
            if not (every_on_triangle or triangle_free):
                return False, False
    return every_on_triangle, triangle_free


def structural_profile(g: Graph) -> StructuralProfile:
    """The structural facts of g in one record, for library callers; the
    criteria checkers test their hypotheses themselves."""
    every_on_triangle, triangle_free = triangle_flags(g)
    return StructuralProfile(
        connected=is_connected(g),
        bipartite=is_bipartite(g),
        diameter=diameter(g),
        twin_free=not has_twins(g),
        every_edge_on_triangle=every_on_triangle,
        triangle_free=triangle_free)


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, dict]:
    """Induced subgraph on ``keep`` plus the old->new vertex map."""
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("induced_subgraph requires a non-empty vertex set")
    if kept[0] < 0 or kept[-1] >= g.n:
        raise ValueError("vertex out of range")
    remap = {old: new for new, old in enumerate(kept)}
    mask = sum(1 << old for old in kept)
    rows = []
    for old in kept:
        acc = 0
        for u in bits(g.adj[old] & mask):
            acc |= 1 << remap[u]
        rows.append(acc)
    return Graph._unchecked(rows), remap
