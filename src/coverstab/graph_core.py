"""Immutable simple graphs, graph6 serialization, and structural predicates.

Vertices are always 0..n-1 (dense indexing). Adjacency is stored as one
Python int per vertex used as a bitset, so neighbourhood intersection is a
single ``&`` and the predicates below stay cheap up to a few thousand
vertices.
"""

from __future__ import annotations

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


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the neighbourhood of v as a bitset. Instances hash and
    compare by (n, adj) and are safe to share across threads; the private
    ``_cache`` slot memoizes derived data (canonical form, stability
    report, the BFS layer table of ``distance_layers``, the
    ``intersection_array`` of the criteria) without affecting value
    semantics.
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
        rows = [0] * self.n
        for v, row in enumerate(self.adj):
            acc = 0
            for u in bits(row):
                acc |= 1 << images[u]
            rows[images[v]] = acc
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
class DistancePartition:
    """BFS layers around ``source``: layers[i] = vertices at distance i."""

    source: int
    layers: tuple[frozenset, ...]
    unreachable: frozenset

    @property
    def eccentricity(self) -> int:
        return len(self.layers) - 1


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


# ---------------------------------------------------------------------------
# graph6 interchange format

def _g6_validate_bytes(data: bytes) -> None:
    for off, b in enumerate(data):
        if not 63 <= b <= 126:
            raise GraphParseError(f"character {b!r} outside graph6 range", off)


def parse_graph6(line: str) -> Graph:
    """Decode one header-free graph6 record into a Graph."""
    if isinstance(line, bytes):
        data = line
    else:
        try:
            data = line.encode("ascii")
        except UnicodeEncodeError as exc:
            raise GraphParseError(
                f"non-ASCII character {line[exc.start]!r}", exc.start) from None
    data = data.rstrip(b"\r\n")
    if not data:
        raise GraphParseError("empty graph6 record", 0)
    _g6_validate_bytes(data)
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
    rows = [0] * n
    bitpos = 0
    i, j = 0, 1  # upper triangle, column-major: (0,1),(0,2),(1,2),(0,3),...
    for off in range(body, len(data)):
        group = data[off] - 63
        for k in range(5, -1, -1):
            if bitpos == nbits:
                if (group >> k) & 1:
                    raise GraphParseError("nonzero padding bits", off)
                continue
            if (group >> k) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            bitpos += 1
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph._unchecked(rows)


def graph6_size_prefix(n: int) -> bytes:
    """The graph6 encoding of the order n."""
    if n < 63:
        return bytes([n + 63])
    return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])


def graph6_payload(adj: Sequence[int], order: Sequence[int]) -> bytes:
    """graph6 payload bytes of the graph relabeled so that vertex order[i]
    becomes vertex i."""
    out = bytearray()
    buf = 0
    filled = 0
    for j in range(1, len(order)):
        row = adj[order[j]]
        for i in range(j):
            buf = (buf << 1) | ((row >> order[i]) & 1)
            filled += 1
            if filled == 6:
                out.append(buf + 63)
                buf = 0
                filled = 0
    if filled:
        out.append((buf << (6 - filled)) + 63)
    return bytes(out)


def write_graph6(g: Graph) -> str:
    """Encode a Graph as a canonical header-free graph6 record."""
    return (graph6_size_prefix(g.n)
            + graph6_payload(g.adj, range(g.n))).decode("ascii")


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


def distance_layers(g: Graph, x: int) -> tuple[int, ...]:
    """``bfs_layers(g, x)``, memoized per graph: every distance fact of the
    graph is read from this one table, so each vertex is searched once."""
    table = g._cache.get("layers")
    if table is None:
        table = g._cache["layers"] = [None] * g.n
    if table[x] is None:
        table[x] = bfs_layers(g, x)
    return table[x]


def bfs_distances(g: Graph, x: int) -> list[int]:
    """Distances from x to every vertex; -1 for unreachable."""
    dist = [-1] * g.n
    for d, layer in enumerate(distance_layers(g, x)):
        for v in bits(layer):
            dist[v] = d
    return dist


def distance_partition(g: Graph, x: int) -> DistancePartition:
    """BFS layers X_0(x), X_1(x), ... plus the unreachable remainder."""
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} out of range")
    shells = distance_layers(g, x)
    return DistancePartition(
        source=x,
        layers=tuple(frozenset(bits(layer)) for layer in shells),
        unreachable=frozenset(bits((1 << g.n) - 1 - sum(shells))))


def is_connected(g: Graph) -> bool:
    """The layers around vertex 0 cover every vertex."""
    return g.n == 0 or sum(distance_layers(g, 0)) == (1 << g.n) - 1


def component_layers(g: Graph) -> list[tuple[int, ...]]:
    """The BFS layers of each connected component around its smallest
    vertex, components in the order of that vertex."""
    out = []
    unseen = (1 << g.n) - 1
    while unseen:
        layers = distance_layers(g, (unseen & -unseen).bit_length() - 1)
        unseen ^= sum(layers)
        out.append(layers)
    return out


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


def diameter(g: Graph) -> Optional[int]:
    """Max eccentricity, or None (infinite) when disconnected."""
    if not is_connected(g):
        return None
    return max((len(distance_layers(g, x)) - 1 for x in range(g.n)), default=0)


def triangle_flags(g: Graph) -> tuple[bool, bool]:
    """(every edge lies on a triangle, no edge does)."""
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


def common_neighbors(g: Graph, u: int, v: int) -> frozenset:
    """N(u) ∩ N(v) for distinct vertices u, v."""
    if u == v:
        raise ValueError("common_neighbors requires distinct vertices")
    return frozenset(bits(g.adj[u] & g.adj[v]))


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, dict]:
    """Induced subgraph on ``keep`` plus the old->new vertex map."""
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("induced_subgraph requires a non-empty vertex set")
    if kept[0] < 0 or kept[-1] >= g.n:
        raise ValueError("vertex out of range")
    remap = {old: new for new, old in enumerate(kept)}
    rows = []
    for old in kept:
        acc = 0
        for u in bits(g.adj[old]):
            new = remap.get(u)
            if new is not None:
                acc |= 1 << new
        rows.append(acc)
    return Graph._unchecked(rows), remap
