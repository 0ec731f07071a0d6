import math
import random

import pytest

from coverstab import aut, graph_core, perms
from coverstab.graph_core import Graph, SoundnessError, parse_graph6
from coverstab.perms import group_from_generators
from coverstab.aut import (OrderedPartition, refine, canonical_form,
                           automorphism_group, are_isomorphic, orbit_roots,
                           vertex_orbits)
from coverstab.cover import double_cover, stability_report
from coverstab.families import (complete_graph, cycle, petersen, johnson,
                                lex_product)

from oracles import (brute_force_aut_count, brute_force_automorphisms,
                     backtrack_aut_count, naive_closure, complement,
                     line_graph, random_graph, colour_refinement, cube,
                     paley, shuffled)


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

    def test_coarsest_equitable_on_small_graphs(self, graphs_by_order):
        # against naive colour refinement, from one colour and from seeded
        # colourings of two or three cells
        rng = random.Random(5)
        for n in range(1, 8):
            for g in graphs_by_order[n]:
                starts = [OrderedPartition.unit(n)]
                if n > 2:
                    starts += [random_colouring(rng, n, 2) for _ in range(2)]
                for p in starts:
                    assert (set(map(frozenset, refine(g, p).cells))
                            == colour_refinement(g, p.cells))

    def test_coarsest_equitable_on_large_graphs(self):
        rng = random.Random(6)
        cube = Graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8)
                         if (u ^ v).bit_count() == 1])
        graphs = [lex_product(cycle(9), cube),
                  random_graph(rng, 150), random_graph(rng, 150)]
        for g in graphs:
            for p in (OrderedPartition.unit(g.n), random_colouring(rng, g.n, 2)):
                assert (set(map(frozenset, refine(g, p).cells))
                        == colour_refinement(g, p.cells))

    def test_cells_are_label_independent(self, graphs_by_order):
        # refining a relabelled graph from the relabelled partition gives
        # the relabelled cells in the same order
        rng = random.Random(7)
        graphs = graphs_by_order[6] + graphs_by_order[7][::4]
        graphs += [lex_product(cycle(5), cycle(4)), petersen()]
        for g in graphs:
            images = list(range(g.n))
            rng.shuffle(images)
            for p in (OrderedPartition.unit(g.n), random_colouring(rng, g.n, 2)):
                moved = OrderedPartition.from_cells(
                    [[images[v] for v in cell] for cell in p.cells], g.n)
                assert refine(g.relabel(images), moved).cells == tuple(
                    tuple(sorted(images[v] for v in cell))
                    for cell in refine(g, p).cells)

    def test_search_refines_after_each_individualization(self, graphs_by_order):
        # the first leaf lies at the first depth at which the coarsest
        # equitable partition with the prefix singled out is discrete
        graphs = graphs_by_order[7][::7] + [petersen(), johnson(6, 2),
                                            lex_product(cycle(5), cycle(4))]
        for g in graphs:
            search = aut._Search(g)
            search.run(OrderedPartition.unit(g.n))
            prefix = search.zeta.prefix

            def discrete(k):
                rest = [v for v in range(g.n) if v not in prefix[:k]]
                cells = [[v] for v in prefix[:k]] + ([rest] if rest else [])
                return len(colour_refinement(g, cells)) == g.n

            assert discrete(len(prefix))
            assert not prefix or not discrete(len(prefix) - 1)


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
                assert g.relabel(p) == g

    def test_orbit_stabilizer(self, graphs_by_order):
        # |orbit(0)| * |pointwise stabilizer of 0| = |Aut|, via naive closure
        for g in graphs_by_order[5]:
            gens = canonical_form(g).aut_generators
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
            gens = [combinatorics.Permutation(list(p))
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
            assert g.relabel(cf.relabeling) == parse_graph6(cf.canonical_graph6)

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
            assert g.relabel(cf.relabeling) == parse_graph6(cf.canonical_graph6)

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

    def test_long_base_closed_forms(self):
        # groups whose bases run through most of the vertices: S_30, the
        # wreath products S_12 wr S_2 and S_4 wr D_9, and the hyperoctahedral
        # group of the 6-cube
        k12_12 = Graph(24, [(u, 12 + v) for u in range(12) for v in range(12)])
        q6 = Graph(64, [(v, v ^ 1 << b) for v in range(64) for b in range(6)
                        if v < v ^ 1 << b])
        cases = [(Graph(30), math.factorial(30)),
                 (k12_12, 2 * math.factorial(12) ** 2),
                 (lex_product(cycle(9), Graph(4)), 24 ** 9 * 18),
                 (q6, 2 ** 6 * math.factorial(6))]
        for g, expected in cases:
            assert automorphism_group(g).order() == expected

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
            gens = grp.generators
            assert grp.order() == len(naive_closure(gens, g.n))
            built = group_from_generators(grp.generators, g.n)
            assert built.order() == grp.order()


def random_cograph(rng, n):
    """A cograph on n vertices: K1, or the disjoint union or the join of
    two smaller cographs."""
    if n == 1:
        return Graph(1)
    a = rng.randrange(1, n)
    left, right = random_cograph(rng, a), random_cograph(rng, n - a)
    rows = list(left.adj) + [row << a for row in right.adj]
    if rng.random() < 0.5:
        for v in range(a):
            rows[v] |= ((1 << (n - a)) - 1) << a
        for v in range(a, n):
            rows[v] |= (1 << a) - 1
    return Graph.from_rows(rows)


def cocktail_party(m):
    """K_{2m} minus a perfect matching: Aut is the hyperoctahedral group
    of order 2^m m!."""
    return Graph(2 * m, [(u, v) for u in range(2 * m)
                         for v in range(u + 1, 2 * m) if v != u + m])


def complete_multipartite(sizes):
    part = [i for i, s in enumerate(sizes) for _ in range(s)]
    return Graph(len(part), [(u, v) for u in range(len(part))
                             for v in range(u + 1, len(part))
                             if part[u] != part[v]])


def twin_rich_graphs(rng):
    """Seeded inputs whose twin quotients are small or nested."""
    graphs = [random_cograph(rng, rng.randrange(1, 13)) for _ in range(40)]
    for _ in range(15):
        base = random_graph(rng, rng.randrange(1, 6))
        k = rng.randrange(2, 4)
        graphs += [lex_product(base, Graph(k)),
                   lex_product(base, complete_graph(k))]
    graphs += [cocktail_party(m) for m in range(1, 7)]
    graphs += [complete_multipartite([rng.randrange(1, 5)
                                      for _ in range(rng.randrange(1, 5))])
               for _ in range(15)]
    return graphs


def random_colouring(rng, n, fewest=1):
    """A random ordered partition of range(n) into fewest to 3 cells."""
    order = list(range(n))
    rng.shuffle(order)
    k = rng.randint(fewest, min(3, n))
    cuts = sorted(rng.sample(range(1, n), k - 1))
    return OrderedPartition.from_cells(
        [order[a:b] for a, b in zip([0] + cuts, cuts + [n])], n)


def unreduced_order(g, partition):
    """The order the IR search finds on g itself, with no twin quotient."""
    search = aut._Search(g)
    search.run(partition)
    return search.order


class TestTwinQuotient:
    # canonical_form searches the twin-free coloured quotient; every
    # answer is checked against the search on the graph itself and
    # against Schreier-Sims on the lifted generators

    def cases(self, graphs_by_order, seed):
        rng = random.Random(seed)
        graphs = twin_rich_graphs(rng)
        graphs += [g for n in range(1, 8) for g in graphs_by_order[n]]
        for g in graphs:
            yield g, None
            yield g, random_colouring(rng, g.n)

    def test_order_matches_unreduced_search_and_schreier_sims(
            self, graphs_by_order):
        for g, partition in self.cases(graphs_by_order, 41):
            cf = canonical_form(g, partition)
            unit = partition or OrderedPartition.unit(g.n)
            assert cf.aut_order == unreduced_order(g, unit)
            assert automorphism_group(g, partition).order() == cf.aut_order
            for p in cf.aut_generators:
                assert g.relabel(p) == g
                assert all(sorted(p[v] for v in cell) == list(cell)
                           for cell in unit.cells)
            assert (g.relabel(cf.relabeling)
                    == parse_graph6(cf.canonical_graph6))

    def test_canonical_string_invariant_under_shuffle(self, graphs_by_order):
        rng = random.Random(42)
        for g, partition in self.cases(graphs_by_order, 43):
            images = list(range(g.n))
            rng.shuffle(images)
            moved = None if partition is None else OrderedPartition.from_cells(
                [[images[v] for v in cell] for cell in partition.cells], g.n)
            assert (canonical_form(g.relabel(images), moved).canonical_graph6
                    == canonical_form(g, partition).canonical_graph6)

    def test_closed_forms(self):
        f = math.factorial
        assert [canonical_form(cocktail_party(m)).aut_order
                for m in range(1, 8)] == [2 ** m * f(m) for m in range(1, 8)]
        sizes = [3, 3, 2, 1, 1, 1]
        assert (canonical_form(complete_multipartite(sizes)).aut_order
                == f(3) ** 2 * f(2) * f(2) * f(3))
        assert (canonical_form(lex_product(cycle(9), Graph(4))).aut_order
                == f(4) ** 9 * 18)

    def test_isomorphism_agrees_with_networkx(self, graphs_by_order):
        nx = pytest.importorskip("networkx")
        rng = random.Random(44)
        graphs = twin_rich_graphs(rng) + graphs_by_order[6][::2]

        def to_nx(g):
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            return h

        for g in graphs:
            images = list(range(g.n))
            rng.shuffle(images)
            assert are_isomorphic(g, g.relabel(images))
            if g.n < 2:
                continue
            u, v = rng.sample(range(g.n), 2)
            rows = list(g.adj)
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
            h = Graph.from_rows(rows).relabel(images)
            assert are_isomorphic(g, h) == nx.is_isomorphic(to_nx(g), to_nx(h))


class TestLargeSymmetricInputs:
    # the targets of the twin quotient, checked by counts rather than
    # clocks

    @pytest.mark.parametrize("n", [1200, 2000])
    def test_edgeless_graph(self, n):
        assert canonical_form(Graph(n)).aut_order == math.factorial(n)

    def test_large_star_searches_two_vertices(self, monkeypatch):
        sizes = []

        class Recording(aut._Search):
            def __init__(self, g):
                sizes.append(g.n)
                super().__init__(g)

        monkeypatch.setattr(aut, "_Search", Recording)
        star = Graph(2001, [(0, i) for i in range(1, 2001)])
        report = stability_report(star)
        f = math.factorial(2000)
        assert (report.aut_x_order, report.aut_bx_order) == (f, 2 * f * f)
        assert sizes and max(sizes) <= 2


def neighbourhood_colouring(rng, g):
    """A seeded 2- or 3-cell colouring by a vertex v and its neighbours:
    [N[v], rest] or [{v}, N(v), rest]. It keeps v's stabilizer, where a
    random colouring of a vertex-transitive graph usually leaves no
    symmetry at all."""
    v = rng.randrange(g.n)
    near = list(graph_core.bits(g.adj[v]))
    rest = [u for u in range(g.n) if u != v and g.adj[v] >> u & 1 == 0]
    return [[v] + near, rest] if rng.random() < 0.5 else [[v], near, rest]


def networkx_orbits(g, cells):
    """The orbits of g's colour-preserving automorphisms by VF2++: u joins
    the orbit of w when some isomorphism of the colouring with w marked
    onto the colouring with u marked exists. Orbits lie within the cells
    of the coarsest equitable refinement, so only those pairs are tried."""
    nx = pytest.importorskip("networkx")
    colour = {v: c for c, cell in enumerate(cells) for v in cell}
    refined = {v: cell for cell in colour_refinement(g, cells) for v in cell}

    def marked(u):
        h = nx.Graph()
        h.add_nodes_from((v, {"c": 2 * colour[v] + (v == u)})
                         for v in range(g.n))
        h.add_edges_from(g.edges())
        return h

    orbits = []
    for u in range(g.n):
        for orbit in orbits:
            if orbit[0] in refined[u] and nx.vf2pp_is_isomorphic(
                    marked(orbit[0]), marked(u), node_label="c"):
                orbit.append(u)
                break
        else:
            orbits.append([u])
    return sorted(orbits)


class TestOrbitPruning:
    # each open node keeps a union-find of the orbits of its prefix's
    # stabilizer, fed the generators found since it last looked; on these
    # inputs first-path nodes look before later generators arrive

    @pytest.mark.parametrize("name, g, order", [
        ("C8[Q3]", lex_product(cycle(8), cube(3)), 48 ** 8 * 16),
        ("J(7,3)", johnson(7, 3), math.factorial(7)),
        ("Paley(29)", paley(29), 29 * 14),
    ])
    def test_orders_and_orbits_under_late_generators(
            self, monkeypatch, name, g, order):
        late = []

        class Recording(aut._Search):
            def _orbits(self, top, prefix):
                if top[6] and 0 < top[5] < len(self.gens):
                    late.append(len(prefix))
                return super()._orbits(top, prefix)

        monkeypatch.setattr(aut, "_Search", Recording)
        rng = random.Random(1)
        h = shuffled(g, rng)
        assert canonical_form(h).aut_order == order
        for cells in ([range(h.n)], neighbourhood_colouring(rng, h)):
            partition = OrderedPartition.from_cells(cells, h.n)
            late.clear()
            cf = canonical_form(h, partition)
            assert late
            assert automorphism_group(h, partition).order() == cf.aut_order
            roots = orbit_roots(cf.aut_generators, h.n)
            ours = sorted(sorted(v for v in range(h.n) if roots[v] == r)
                          for r in set(roots))
            assert ours == networkx_orbits(h, cells)
        assert sorted(map(sorted, vertex_orbits(h))) == networkx_orbits(
            h, [range(h.n)])


class TestLazyGraph6:
    def test_no_graph6_work_unless_read(self, monkeypatch):
        # leaves are compared by certificate; graph6 is encoded only when
        # a caller reads canonical_graph6, and then once
        calls = []
        real = graph_core.graph6_payload

        def counting(adj, order):
            calls.append(len(order))
            return real(adj, order)

        monkeypatch.setattr(graph_core, "graph6_payload", counting)
        monkeypatch.setattr(aut, "graph6_payload", counting, raising=False)
        rng = random.Random(16)
        star = Graph(2001, [(0, i) for i in range(1, 2001)])
        for g in (star, shuffled(lex_product(cycle(9), cube(3)), rng),
                  random_graph(rng, 150)):
            stability_report(g)
        assert calls == []
        for g in (shuffled(lex_product(cycle(9), cube(3)), rng),
                  shuffled(lex_product(cycle(9), Graph(4)), rng)):
            calls.clear()
            cf = canonical_form(g)
            assert cf.canonical_graph6 == cf.canonical_graph6
            assert calls == [g.n]
            assert (g.relabel(cf.relabeling)
                    == parse_graph6(cf.canonical_graph6))
