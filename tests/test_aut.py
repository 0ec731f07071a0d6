import random

import pytest

from coverstab import perms
from coverstab.graph_core import Graph, SoundnessError, parse_graph6
from coverstab.perms import group_from_generators
from coverstab.aut import (OrderedPartition, refine, canonical_form,
                           automorphism_group, are_isomorphic, vertex_orbits)
from coverstab.cover import double_cover
from coverstab.families import complete_graph, cycle, petersen, johnson

from oracles import (brute_force_aut_count, brute_force_automorphisms,
                     backtrack_aut_count, naive_closure, complement,
                     line_graph, random_graph)


class TestRefine:
    def test_regular_graph_stays_unit(self):
        p = refine(complete_graph(4), OrderedPartition.unit(4))
        assert p.cells == (tuple(range(4)),)

    def test_path_degree_split(self):
        p = refine(Graph(3, [(0, 1), (1, 2)]), OrderedPartition.unit(3))
        assert set(map(frozenset, p.cells)) == {frozenset({0, 2}), frozenset({1})}

    def test_individualized_pentagon_not_discrete(self):
        # refinement alone does not make C5 discrete
        p = refine(cycle(5), OrderedPartition.from_cells([[0], [1, 2, 3, 4]], 5))
        assert set(map(frozenset, p.cells)) == {
            frozenset({0}), frozenset({1, 4}), frozenset({2, 3})}
        assert not p.is_discrete

    def test_refines_input(self):
        rng = random.Random(3)
        for _ in range(100):
            g = random_graph(rng, rng.randrange(1, 10))
            if g.n < 2:
                continue
            anchor = rng.randrange(1, g.n)
            start = OrderedPartition.from_cells(
                [range(anchor), range(anchor, g.n)], g.n)
            p = refine(g, start)
            # every output cell lies inside an input cell and the result is
            # equitable: all vertices in a cell see each cell equally often
            for cell in p.cells:
                assert (set(cell) <= set(range(anchor))
                        or set(cell) <= set(range(anchor, g.n)))
                for other in p.cells:
                    other_bits = 0
                    for v in other:
                        other_bits |= 1 << v
                    counts = {(g.adj[v] & other_bits).bit_count() for v in cell}
                    assert len(counts) == 1

    def test_refine_deterministic(self):
        rng = random.Random(4)
        for _ in range(50):
            g = random_graph(rng, 8)
            p1 = refine(g, OrderedPartition.unit(8))
            p2 = refine(g, OrderedPartition.unit(8))
            assert p1 == p2


class TestAutomorphismGroup:
    def test_named_graphs(self):
        assert automorphism_group(complete_graph(4)).order() == 24
        assert automorphism_group(cycle(5)).order() == 10
        assert automorphism_group(petersen()).order() == 120

    def test_brute_force_corpus(self, graphs_by_order):
        for n in range(1, 6):
            for g in graphs_by_order[n]:
                assert automorphism_group(g).order() == brute_force_aut_count(g)

    def test_brute_force_random_n7(self):
        rng = random.Random(71)
        for _ in range(60):
            g = random_graph(rng, 7, rng.choice([0.25, 0.5, 0.75]))
            assert automorphism_group(g).order() == brute_force_aut_count(g)

    def test_backtracking_oracle_random_n8(self):
        rng = random.Random(72)
        for _ in range(200):
            g = random_graph(rng, 8, rng.choice([0.25, 0.5, 0.75]))
            assert automorphism_group(g).order() == backtrack_aut_count(g)

    def test_generators_preserve_edges(self):
        rng = random.Random(73)
        for _ in range(50):
            g = random_graph(rng, rng.randrange(1, 9))
            for p in canonical_form(g).aut_generators:
                assert g.relabel(p.images) == g

    def test_orbit_stabilizer(self, graphs_by_order):
        # |orbit(0)| * |pointwise stabilizer of 0| = |Aut|, via naive closure
        for g in graphs_by_order[5]:
            gens = [p.images for p in canonical_form(g).aut_generators]
            closure = naive_closure(gens, g.n)
            orbit0 = {p[0] for p in closure}
            stab0 = [p for p in closure if p[0] == 0]
            assert len(orbit0) * len(stab0) == len(closure)
            assert automorphism_group(g).order() == len(closure)

    def test_order_disagreement_is_a_soundness_error(self, monkeypatch):
        # one generator of the pentagon's dihedral group of order 10
        # generates a proper subgroup, so Schreier-Sims on it alone must
        # contradict the order the search reports
        real = group_from_generators
        monkeypatch.setattr(perms, "group_from_generators",
                            lambda gens, n: real(gens[:1], n))
        assert len(canonical_form(cycle(5)).aut_generators) > 1
        with pytest.raises(SoundnessError, match="differs"):
            automorphism_group(cycle(5))

    def test_search_order_matches_sympy(self):
        # sympy's Schreier-Sims is independent of the search and of perms
        combinatorics = pytest.importorskip("sympy.combinatorics")
        rng = random.Random(74)
        graphs = [random_graph(rng, rng.randrange(1, 13),
                               rng.choice([0.1, 0.3, 0.5, 0.9]))
                  for _ in range(60)]
        graphs += [Graph(12), complete_graph(6), johnson(6, 3), petersen()]
        cases = []
        for g in graphs:
            layers = OrderedPartition(
                (tuple(range(g.n)), tuple(range(g.n, 2 * g.n))))
            cases += [(g, None), (double_cover(g).cover, layers)]
        for g, partition in cases:
            cf = canonical_form(g, partition)
            gens = [combinatorics.Permutation(list(p.images))
                    for p in cf.aut_generators]
            expected = (combinatorics.PermutationGroup(gens).order()
                        if gens else 1)
            assert cf.aut_order == expected

    def test_vertex_orbits_partition(self, graphs_by_order):
        orbits = vertex_orbits(petersen())
        assert len(orbits) == 1
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert vertex_orbits(star) == [frozenset({0}), frozenset({1, 2, 3})]
        # the orbits of brute-forced automorphisms are the reference
        for g in graphs_by_order[5]:
            auts = brute_force_automorphisms(g)
            expected = {frozenset(p[x] for p in auts) for x in range(g.n)}
            assert sorted(map(sorted, vertex_orbits(g))) == sorted(
                map(sorted, expected))


class TestCanonicalForm:
    def test_invariance_under_relabeling(self, graphs_by_order):
        rng = random.Random(17)
        for g in graphs_by_order[6][::3]:
            canon = canonical_form(g).canonical_graph6
            for _ in range(50):
                images = list(range(g.n))
                rng.shuffle(images)
                assert canonical_form(g.relabel(images)).canonical_graph6 == canon

    def test_invariance_random_eight_vertex(self):
        rng = random.Random(19)
        for _ in range(300):
            g = random_graph(rng, 8)
            images = list(range(8))
            rng.shuffle(images)
            assert (canonical_form(g).canonical_graph6
                    == canonical_form(g.relabel(images)).canonical_graph6)

    def test_relabeling_reproduces_canonical_graph(self):
        rng = random.Random(23)
        for _ in range(100):
            g = random_graph(rng, rng.randrange(0, 9))
            cf = canonical_form(g)
            assert g.relabel(cf.relabeling.images) == parse_graph6(cf.canonical_graph6)

    def test_colored_form_invariant_under_relabeling(self):
        # component keys and the layer-seeded cover search rely on a
        # coloured form being canonical among graphs carrying the same
        # ordered partition
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randrange(2, 10)
            g = random_graph(rng, n)
            order = list(range(n))
            rng.shuffle(order)
            cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(2, n - 1))))
            cells = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
            images = list(range(n))
            rng.shuffle(images)
            cf = canonical_form(g, OrderedPartition.from_cells(cells, n))
            moved = canonical_form(g.relabel(images), OrderedPartition.from_cells(
                [[images[v] for v in c] for c in cells], n))
            assert moved.canonical_graph6 == cf.canonical_graph6
            assert moved.aut_order == cf.aut_order
            assert g.relabel(cf.relabeling.images) == parse_graph6(cf.canonical_graph6)

    def test_distinguishes_non_isomorphic(self):
        assert (canonical_form(complete_graph(3)).canonical_graph6
                != canonical_form(Graph(3, [(0, 1), (1, 2)])).canonical_graph6)
        two_k3 = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert (canonical_form(cycle(6)).canonical_graph6
                != canonical_form(two_k3).canonical_graph6)


class TestStructuredGraphs:
    # rich symmetry exercises the pruning and backjumping paths that small
    # random graphs never reach

    def test_invariance_on_symmetric_graphs(self):
        from coverstab.cover import double_cover
        from coverstab.families import lex_product
        rng = random.Random(99)
        cases = [
            johnson(6, 2),
            johnson(7, 3),
            double_cover(johnson(6, 2)).cover,
            lex_product(cycle(8), complete_graph(2)),
            double_cover(lex_product(cycle(8), cycle(3))).cover,
        ]
        for g in cases:
            canon = canonical_form(g).canonical_graph6
            order = automorphism_group(g).order()
            for _ in range(3):
                images = list(range(g.n))
                rng.shuffle(images)
                h = g.relabel(images)
                assert canonical_form(h).canonical_graph6 == canon
                assert automorphism_group(h).order() == order

    def test_backtracking_oracle_on_cover(self):
        from coverstab.cover import double_cover
        from coverstab.families import lex_product
        g = lex_product(cycle(8), complete_graph(2))
        assert automorphism_group(g).order() == 4096
        cover = double_cover(g).cover
        assert automorphism_group(cover).order() == backtrack_aut_count(cover)

    def test_johnson_aut_orders(self):
        # Aut(J(n,k)) is the symmetric group S_n, doubled when n = 2k
        import math
        for n in range(3, 8):
            for k in range(1, n):
                expected = math.factorial(n) * (2 if n == 2 * k else 1)
                assert automorphism_group(johnson(n, k)).order() == expected

    def test_separates_srg_pair_with_equal_parameters(self, rook_4x4, shrikhande):
        # the classic cospectral pair: same (16,6,2,2) parameters, not
        # isomorphic, with well-known automorphism group orders
        assert not are_isomorphic(rook_4x4, shrikhande)
        assert automorphism_group(rook_4x4).order() == 1152
        assert automorphism_group(shrikhande).order() == 192


class TestIsomorphism:
    def test_johnson_complement_pair(self):
        assert are_isomorphic(johnson(6, 2), johnson(6, 4))

    def test_johnson_5_2_is_petersen_complement(self):
        # J(5,2) is the line graph of K5, i.e. the complement of Petersen
        assert are_isomorphic(johnson(5, 2), line_graph(complete_graph(5)))
        assert are_isomorphic(johnson(5, 2), complement(petersen()))

    def test_not_isomorphic(self):
        assert not are_isomorphic(complete_graph(4), cycle(4))

    def test_colored_restriction(self):
        # automorphisms preserving an initial partition form a subgroup
        g = cycle(6)
        full = automorphism_group(g).order()
        fixed = automorphism_group(
            g, OrderedPartition.from_cells([[0], [1, 2, 3, 4, 5]], 6)).order()
        assert full == 12 and fixed == 2

    def test_group_via_bsgs_matches_closure(self, graphs_by_order):
        for g in graphs_by_order[4]:
            grp = automorphism_group(g)
            gens = [p.images for p in grp.generators]
            assert grp.order() == len(naive_closure(gens, g.n))
            built = group_from_generators(grp.generators, g.n)
            assert built.order() == grp.order()
