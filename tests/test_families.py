import random

import pytest

from coverstab.graph_core import (Graph, diameter, has_twins, is_connected,
                                  is_bipartite, structural_profile)
from coverstab.aut import are_isomorphic, canonical_form, vertex_orbits
from coverstab.cover import (is_cover_automorphism, is_fiber_preserving,
                             stability_report)
from coverstab.criteria import srg_params
from coverstab import families
from coverstab.families import (complete_graph, cycle, petersen, johnson,
                                lex_product, lexcycle, extend_xab,
                                instability_witness, MAX_CONSTRUCTED)
from coverstab.perms import _mul

from oracles import naive_johnson, random_graph


class TestBasicFamilies:
    def test_complete(self):
        assert complete_graph(4).edge_count() == 6
        assert complete_graph(1).n == 1
        with pytest.raises(ValueError):
            complete_graph(0)

    def test_cycle(self):
        c5 = cycle(5)
        assert c5.edge_count() == 5 and diameter(c5) == 2
        with pytest.raises(ValueError):
            cycle(2)

    def test_petersen(self):
        assert srg_params(petersen()).as_tuple() == (10, 3, 0, 1)

    @pytest.mark.parametrize("build", [complete_graph, cycle],
                             ids=["complete_graph", "cycle"])
    def test_too_large_is_refused_before_building(self, monkeypatch, build):
        # K_n above the cap would fill gigabytes of rows; the order is
        # refused before a Graph is made, which here fails at once
        class Built(Exception):
            pass

        def build_nothing(*args, **kwargs):
            raise Built

        monkeypatch.setattr(families, "Graph", build_nothing)
        with pytest.raises(ValueError, match=str(MAX_CONSTRUCTED + 1)):
            build(MAX_CONSTRUCTED + 1)
        with pytest.raises(Built):
            build(MAX_CONSTRUCTED)

    def test_extension_too_large_is_refused(self):
        # the four new vertices count against the cap
        with pytest.raises(ValueError, match="four-vertex extension"):
            extend_xab(Graph(MAX_CONSTRUCTED - 3), [0], [1])
        e = extend_xab(Graph(MAX_CONSTRUCTED - 4), [0], [1])
        assert e.result.n == MAX_CONSTRUCTED == 32768


class TestJohnson:
    def test_small_isomorphisms(self):
        assert are_isomorphic(johnson(6, 1), complete_graph(6))
        assert are_isomorphic(johnson(6, 5), complete_graph(6))
        assert are_isomorphic(johnson(6, 2), johnson(6, 4))

    def test_twins_only_in_4_2(self):
        for n in range(1, 8):
            for k in range(1, n + 1):
                g = johnson(n, k)
                assert has_twins(g) == ((n, k) == (4, 2)), (n, k)

    def test_connected_with_expected_diameter(self):
        for n in range(2, 8):
            for k in range(1, n):
                g = johnson(n, k)
                assert is_connected(g)
                assert diameter(g) == min(k, n - k)

    def test_complement_isomorphism(self):
        for n in range(2, 8):
            for k in range(1, n):
                assert (canonical_form(johnson(n, k)).canonical_graph6
                        == canonical_form(johnson(n, n - k)).canonical_graph6)

    def test_common_neighbor_counts(self):
        # adjacent pairs share n-2 neighbours, distance-2 pairs share 4
        from coverstab.graph_core import bfs_distances
        for n in range(4, 9):
            for k in range(2, n - 1):
                g = johnson(n, k)
                for u in range(g.n):
                    dist = bfs_distances(g, u)
                    for v in range(u + 1, g.n):
                        common = (g.adj[u] & g.adj[v]).bit_count()
                        if dist[v] == 1:
                            assert common == n - 2
                        elif dist[v] == 2:
                            assert common == 4

    def test_numbering_matches_pairwise_reference(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                assert johnson(n, k) == naive_johnson(n, k), (n, k)

    def test_domain(self):
        with pytest.raises(ValueError):
            johnson(3, 4)
        with pytest.raises(ValueError):
            johnson(3, 0)


class TestLexProduct:
    def test_unit_factor(self):
        assert are_isomorphic(lex_product(complete_graph(1), cycle(5)), cycle(5))

    def test_blowup_counts(self):
        g = lex_product(cycle(4), Graph(2))
        assert g.n == 8 and g.edge_count() == 16

    def test_cycle_product_profile(self):
        g = lex_product(cycle(8), cycle(6))
        prof = structural_profile(g)
        assert g.n == 48
        assert prof.connected and prof.every_edge_on_triangle
        assert prof.diameter == 4

    def test_definition(self):
        rng = random.Random(3)
        g = random_graph(rng, 4)
        h = random_graph(rng, 3)
        p = lex_product(g, h)
        for u1 in range(4):
            for v1 in range(3):
                for u2 in range(4):
                    for v2 in range(3):
                        if (u1, v1) == (u2, v2):
                            continue
                        expected = g.has_edge(u1, u2) or (
                            u1 == u2 and h.has_edge(v1, v2))
                        assert p.has_edge(u1 * 3 + v1, u2 * 3 + v2) == expected


class TestLmsCounterexample:
    def test_hexagon_second_factor(self):
        g = lexcycle(8, cycle(6))
        prof = structural_profile(g)
        assert prof.connected and prof.every_edge_on_triangle
        assert prof.diameter >= 4

    def test_hypothesis_validation(self):
        with pytest.raises(ValueError, match="m = 7 < 8"):
            lexcycle(7, cycle(6))
        with pytest.raises(ValueError, match="bipartite"):
            lexcycle(8, cycle(5))
        with pytest.raises(ValueError, match="twin-free"):
            lexcycle(8, cycle(4))  # opposite vertices are twins
        with pytest.raises(ValueError, match="vertex-transitive"):
            lexcycle(8, Graph(3, [(0, 1)]))
        with pytest.raises(ValueError, match="trivial"):
            lexcycle(8, Graph(1))

    def test_k2_second_factor_accepted(self):
        # K2 satisfies every stated hypothesis; the instability conclusion
        # is exercised on larger second factors elsewhere
        g = lexcycle(8, Graph(2, [(0, 1)]))
        assert g.n == 16 and structural_profile(g).every_edge_on_triangle


class TestXabExtension:
    def test_edge_counts(self):
        e = extend_xab(complete_graph(3), {0}, frozenset())
        assert e.result.n == 7 and e.result.edge_count() == 7
        e = extend_xab(cycle(5), {0, 1}, {3})
        assert e.result.n == 9 and e.result.edge_count() == 13

    def test_empty_sets_disconnect(self):
        e = extend_xab(complete_graph(3), set(), set())
        assert not is_connected(e.result)

    def test_exact_edge_set(self):
        x = cycle(5)
        e = extend_xab(x, {0, 2}, {1})
        r = e.result
        assert r.has_edge(e.a1, e.b1) and r.has_edge(e.a2, e.b2)
        assert not r.has_edge(e.a1, e.a2) and not r.has_edge(e.b1, e.b2)
        assert not r.has_edge(e.a1, e.b2) and not r.has_edge(e.a2, e.b1)
        for a in (0, 2):
            assert r.has_edge(a, e.a1) and r.has_edge(a, e.a2)
        assert r.has_edge(1, e.b1) and r.has_edge(1, e.b2)
        sub = [v for v in range(5)]
        for u in sub:
            for v in sub:
                if u < v:
                    assert r.has_edge(u, v) == x.has_edge(u, v)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            extend_xab(cycle(5), {7}, set())

    def test_aut_not_transitive(self):
        e = extend_xab(complete_graph(3), {0}, frozenset())
        orbits = vertex_orbits(e.result)
        assert len(orbits) > 1
        assert not any(e.a1 in o and 0 in o for o in orbits)


class TestGammaStar:
    def test_certifies_instability(self):
        e = extend_xab(complete_graph(3), {0}, frozenset())
        gs = instability_witness(e)
        assert is_cover_automorphism(e.result, gs)
        assert _mul(gs, gs) == tuple(range(2 * e.result.n))
        assert not is_fiber_preserving(e.result, gs)
        moved = [i for i, x in enumerate(gs) if x != i]
        assert moved == [e.a1, e.a2, e.b1 + e.result.n, e.b2 + e.result.n]
        r = stability_report(e.result)
        assert r.classification == "nontrivially_unstable"

    def test_randomized_instances(self):
        # smaller randomized slice; the acceptance suite runs 200
        rng = random.Random(41)
        produced = 0
        while produced < 40:
            n = rng.randrange(4, 8)
            x = random_graph(rng, n, rng.choice([0.4, 0.6]))
            if not (is_connected(x) and not is_bipartite(x) and not has_twins(x)):
                continue
            produced += 1
            size_a = rng.randrange(1, n + 1)
            A = set(rng.sample(range(n), size_a))
            B = set(rng.sample(range(n), rng.randrange(0, n + 1)))
            e = extend_xab(x, A, B)
            gs = instability_witness(e)
            assert is_cover_automorphism(e.result, gs)
            assert not is_fiber_preserving(e.result, gs)
            assert stability_report(e.result).classification == "nontrivially_unstable"
