import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from coverstab import aut, cover, criteria, graph_core
from coverstab.graph_core import (Graph, GraphParseError, parse_graph6,
                                  write_graph6, bfs_layers,
                                  structural_profile, induced_subgraph,
                                  has_twins, diameter, is_connected,
                                  is_bipartite, bfs_distances,
                                  neighbour_lists)
from coverstab.families import complete_graph, cycle, petersen, johnson
from coverstab.aut import orbit_representatives, vertex_orbits
from coverstab.criteria import (check_triangle_free_diam2, criteria_summary,
                                intersection_array)

from oracles import (ref_encode_graph6, naive_all_pairs_distances,
                     naive_relabel, random_graph)


def k(n):
    return complete_graph(n)


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return Graph(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


class TestGraph6:
    def test_reference_records(self):
        assert write_graph6(Graph(2, [(0, 1)])) == "A_"
        assert write_graph6(Graph(2)) == "A?"
        assert write_graph6(k(3)) == "Bw"
        assert parse_graph6("A_") == Graph(2, [(0, 1)])
        assert parse_graph6("A?") == Graph(2)
        assert parse_graph6("Bw") == k(3)

    @given(graphs())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, g):
        assert parse_graph6(write_graph6(g)) == g

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_reference_encoder(self, g):
        assert write_graph6(g) == ref_encode_graph6(g.n, g.edges())

    def test_round_trip_random_eight_vertex(self):
        rng = random.Random(2024)
        for _ in range(1000):
            g = random_graph(rng, 8)
            assert parse_graph6(write_graph6(g)) == g

    def test_parse_then_write_identity(self):
        rng = random.Random(7)
        for _ in range(200):
            line = write_graph6(random_graph(rng, rng.randrange(0, 11)))
            assert write_graph6(parse_graph6(line)) == line

    def test_extended_size_prefix(self):
        g = Graph(70, [(0, 69), (3, 50)])
        line = write_graph6(g)
        assert line.startswith("~")
        assert parse_graph6(line) == g

    def test_matches_networkx(self):
        # networkx's graph6 codec is independent of the package; orders 63
        # and up take the four-byte size prefix; orders 258 and 1000 give
        # long sparse and dense payloads; by default it writes the
        # '>>graph6<<' header
        nx = pytest.importorskip("networkx")
        rng = random.Random(17)
        cases = [(n, rng.choice([0.1, 0.5, 0.9]))
                 for n in list(range(0, 13)) * 5 + [100, 300]]
        cases += [(n, p) for n in (0, 1, 2, 62, 63, 64, 258, 1000)
                  for p in (0.02, 0.98)]
        for n, p in cases:
            g = random_graph(rng, n, p)
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            theirs = nx.to_graph6_bytes(h, header=False).decode("ascii")
            assert write_graph6(g) == theirs.strip()
            back = nx.from_graph6_bytes(write_graph6(g).encode("ascii"))
            assert back.number_of_nodes() == n
            assert {frozenset(e) for e in back.edges()} == {
                frozenset(e) for e in g.edges()}
            assert parse_graph6(theirs.strip()) == g
            assert parse_graph6(nx.to_graph6_bytes(h).decode("ascii")) == g

    def test_large_sparse_graph_memory(self):
        # C_4000 has an 8-million-bit payload; the codec's transient
        # '0'/'1' string costs about 1-2 bytes per bit, never a Python
        # object per bit
        g = cycle(4000)
        line = write_graph6(g)
        peaks = []
        for step in (lambda: write_graph6(g), lambda: parse_graph6(line)):
            tracemalloc.start()
            try:
                result = step()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert result == g
        assert max(peaks) <= 24 * 2 ** 20, peaks

    def test_errors_carry_offsets(self):
        with pytest.raises(GraphParseError):
            parse_graph6("")
        with pytest.raises(GraphParseError, match="offset 0"):
            parse_graph6("\x1cw")
        with pytest.raises(GraphParseError, match="short"):
            parse_graph6("D")  # n=5 needs payload
        with pytest.raises(GraphParseError, match="trailing"):
            parse_graph6("Bw?")
        with pytest.raises(GraphParseError, match="padding"):
            # K2's payload with a stray bit in the padding area
            parse_graph6("A" + chr(0b111111 + 63))

    def test_one_optional_header_dropped(self):
        # offsets count from the first byte after the header
        assert parse_graph6(">>graph6<<Bw") == k(3)
        with pytest.raises(GraphParseError, match="empty graph6 record"):
            parse_graph6(">>graph6<<")
        with pytest.raises(GraphParseError, match="offset 0"):
            parse_graph6(">>graph6<<\x1cw")
        with pytest.raises(GraphParseError, match="trailing.*offset 2"):
            parse_graph6(">>graph6<<Bw?")
        with pytest.raises(GraphParseError, match="outside graph6 range"):
            parse_graph6(">>graph6<<>>graph6<<Bw")  # one header only

    def test_non_ascii_rejected_with_offset(self):
        # must not be read as a '?' byte, which is valid graph6
        with pytest.raises(GraphParseError, match="non-ASCII.*offset 1"):
            parse_graph6("B\u00e9")


class TestGraphType:
    def test_rejects_self_loops_and_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    @pytest.mark.parametrize("rows", [
        [0b10, 0b00],   # 0 ~ 1 but not 1 ~ 0
        [0b01, 0b00],   # a loop at 0
        [0b110, 0b01],  # 0 ~ 2 with n = 2
    ], ids=["asymmetric", "loop", "out-of-range"])
    def test_from_rows_validates(self, rows):
        with pytest.raises(ValueError):
            Graph.from_rows(rows)

    def test_equality_and_relabel(self):
        g = cycle(5)
        assert g.relabel([1, 2, 3, 4, 0]) == g
        h = g.relabel([2, 0, 3, 1, 4])
        assert h.edge_count() == 5
        assert h != Graph(5)

    def test_relabel_against_the_edge_set(self):
        # relabel sums a bit table over the memoized neighbour lists
        rng = random.Random(19)
        for n in (0, 1, 2, 7, 23, 40):
            for p in (0.1, 0.5, 0.9):
                g = random_graph(rng, n, p)
                for _ in range(3):
                    images = list(range(n))
                    rng.shuffle(images)
                    assert (g.relabel(images) == g.relabel(tuple(images))
                            == naive_relabel(g, images))
                assert neighbour_lists(g) == [
                    [u for u in range(n) if g.has_edge(v, u)]
                    for v in range(n)]

    @pytest.mark.parametrize("images", [
        (1, 2, 0), (1, 2, 0, 3, 3), (1, 2, 0, 3, 5), (1, 2, 0, 3, -1),
    ], ids=["short", "repeated", "out-of-range", "negative"])
    def test_relabel_rejects_non_bijections(self, images):
        with pytest.raises(ValueError, match="not a bijection"):
            cycle(5).relabel(images)

    def test_neighbour_lists_built_once(self):
        g = petersen()
        assert "neighbour_lists" not in g._cache
        nbrs = neighbour_lists(g)
        assert g.relabel(range(10)) == g
        assert neighbour_lists(g) is nbrs is g._cache["neighbour_lists"]

    def test_edges_sorted(self):
        g = Graph(4, [(2, 3), (0, 2), (0, 1)])
        assert list(g.edges()) == [(0, 1), (0, 2), (2, 3)]


class TestDistancePartition:
    # bfs_layers(g, x)[i] is the bitset of vertices at distance i
    def test_cycle_layers(self):
        layers = bfs_layers(cycle(5), 0)
        assert [layer.bit_count() for layer in layers] == [1, 2, 2]
        assert len(layers) - 1 == 2
        assert sum(layers) == (1 << 5) - 1

    def test_complete_layers(self):
        layers = bfs_layers(k(4), 2)
        assert [layer.bit_count() for layer in layers] == [1, 3]

    def test_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert (1 << 4) - 1 - sum(bfs_layers(g, 0)) == 0b1100

    def test_against_naive_all_pairs(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randrange(1, 11)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            dist = naive_all_pairs_distances(g)
            for x in range(n):
                layers = bfs_layers(g, x)
                for v in range(n):
                    if dist[x][v] == float("inf"):
                        assert not any(layer >> v & 1 for layer in layers)
                    else:
                        assert layers[int(dist[x][v])] >> v & 1

    def test_diameter_stores_no_new_layer_tables(self):
        # a path's per-vertex layers hold Θ(n³) bits, so no distance walk
        # stores them: the cache keeps memoized facts (the orbit
        # representatives among them) and the canonical form they are read
        # from, and its one distance table is the layers around the single
        # component's root
        g = Graph(300, [(v, v + 1) for v in range(299)])
        assert is_connected(g)
        assert diameter(g) == 299
        criteria_summary(g)
        memoized = {name for module in (graph_core, aut, cover, criteria)
                    for name, fn in vars(module).items()
                    if hasattr(fn, "__wrapped__")}
        assert set(g._cache) <= memoized | {"canon"}
        assert g._cache["component_layers"] == (bfs_layers(g, 0),)

    def test_diameter_reads_memoized_tables(self, monkeypatch):
        # once the intersection array is memoized, the diameter-2 checker
        # reads the diameter off its length and runs no BFS of its own
        def no_bfs(g, x):
            raise AssertionError("a BFS ran")

        graphs = [johnson(7, 3), petersen()]
        for g in graphs:
            assert intersection_array(g) is not None
        monkeypatch.setattr(graph_core, "bfs_layers", no_bfs)
        monkeypatch.setattr(criteria, "bfs_layers", no_bfs)
        johnson_verdict, petersen_verdict = map(check_triangle_free_diam2,
                                                graphs)
        assert johnson_verdict.failed_hypotheses == (
            "diameter 3 != 2", "contains a triangle")
        assert petersen_verdict.applies

    def test_diameter_from_one_vertex_per_orbit(self):
        # every eccentricity is taken by the least vertex of its orbit, so
        # walking from those alone gives the diameter
        rng = random.Random(6)
        graphs = [Graph(30, [(v, v + 1) for v in range(29)]), cycle(31),
                  petersen(), johnson(7, 3), complete_graph(1)]
        graphs += [g for g in (random_graph(rng, 12, 0.3) for _ in range(20))
                   if is_connected(g)]
        for g in graphs:
            reps = orbit_representatives(g)
            assert diameter(g, reps) == diameter(g)
        assert orbit_representatives(graphs[0]) == tuple(range(15))
        assert diameter(Graph(4, [(0, 1)]), (0,)) is None


class TestStructuralProfile:
    def test_petersen(self):
        p = structural_profile(petersen())
        assert p.connected and not p.bipartite and p.diameter == 2
        assert p.twin_free and not p.every_edge_on_triangle
        assert p.triangle_free and len(vertex_orbits(petersen())) == 1

    def test_k2_and_c6(self):
        p = structural_profile(Graph(2, [(0, 1)]))
        assert p.connected and p.bipartite and p.diameter == 1
        p = structural_profile(cycle(6))
        assert p.bipartite and p.twin_free

    def test_twins_oracle(self):
        rng = random.Random(99)
        for _ in range(200):
            g = random_graph(rng, rng.randrange(1, 9))
            naive = any(g.adj[u] == g.adj[v]
                        for u in range(g.n) for v in range(u + 1, g.n))
            assert has_twins(g) == naive

    def test_triangle_flags_definition(self):
        rng = random.Random(5)
        for _ in range(200):
            g = random_graph(rng, rng.randrange(2, 9))
            on_triangle = [bool(g.adj[u] & g.adj[v]) for u, v in g.edges()]
            p = structural_profile(g)
            assert p.every_edge_on_triangle == all(on_triangle)
            assert p.triangle_free == (not any(on_triangle))

    def test_disconnected_diameter_is_infinite(self):
        assert diameter(Graph(4, [(0, 1)])) is None
        assert structural_profile(Graph(3)).diameter is None


class TestCommonNeighbors:
    # the common neighbours of u and v are the bitset adj[u] & adj[v]
    def test_complete(self):
        g = k(4)
        assert (g.adj[0] & g.adj[1]).bit_count() == 2

    def test_johnson_counts(self):
        g = johnson(7, 2)
        u, v = next(iter(g.edges()))
        assert (g.adj[u] & g.adj[v]).bit_count() == 5
        u, v = next((u, v) for u in range(g.n) for v in range(u + 1, g.n)
                    if not g.has_edge(u, v))
        assert (g.adj[u] & g.adj[v]).bit_count() == 4


class TestInducedSubgraph:
    def test_triangle_from_k4(self):
        sub, remap = induced_subgraph(k(4), [0, 2, 3])
        assert sub == k(3)
        assert remap == {0: 0, 2: 1, 3: 2}

    def test_path_from_cycle(self):
        sub, _ = induced_subgraph(cycle(5), [0, 1, 2])
        assert sub == Graph(3, [(0, 1), (1, 2)])

    def test_identity(self):
        g = petersen()
        sub, remap = induced_subgraph(g, range(10))
        assert sub == g and remap == {v: v for v in range(10)}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            induced_subgraph(k(3), [])


def test_connectivity_and_bipartite_basics():
    assert is_connected(k(1)) and is_connected(cycle(4))
    assert not is_connected(Graph(2))
    assert is_bipartite(cycle(6)) and not is_bipartite(cycle(5))


class TestTraversalAgainstNetworkx:
    @staticmethod
    def to_nx(nx, g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        return h

    def test_random_graphs_with_several_components(self):
        # disjoint unions of random pieces, isolated vertices included, on
        # 1..14 vertices in total, renumbered so components interleave
        nx = pytest.importorskip("networkx")
        rng = random.Random(2718)
        for _ in range(300):
            n = rng.randrange(1, 15)
            edges, start = [], 0
            while start < n:
                size = rng.randrange(1, n - start + 1)
                piece = random_graph(rng, size, rng.choice([0.2, 0.4, 0.7]))
                edges += [(start + u, start + v) for u, v in piece.edges()]
                start += size
            images = list(range(n))
            rng.shuffle(images)
            g = Graph(n, [(images[u], images[v]) for u, v in edges])
            h = self.to_nx(nx, g)
            assert is_connected(g) == nx.is_connected(h)
            assert is_bipartite(g) == nx.is_bipartite(h)
            for x in range(n):
                lengths = nx.single_source_shortest_path_length(h, x)
                assert bfs_distances(g, x) == [lengths.get(v, -1)
                                               for v in range(n)]

    def test_bipartite_on_every_small_graph(self, graphs_by_order):
        nx = pytest.importorskip("networkx")
        for n in range(1, 8):
            for g in graphs_by_order[n]:
                assert is_bipartite(g) == nx.is_bipartite(self.to_nx(nx, g))
