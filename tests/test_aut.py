import math
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from coverstab import aut, graph_core, perms
from coverstab.graph_core import (Graph, SoundnessError, is_bipartite,
                                  is_connected, parse_graph6)
from coverstab.perms import group_from_generators
from coverstab.aut import (canonical_form, automorphism_group,
                           are_isomorphic, orbit_representatives,
                           orbit_roots, vertex_orbits)
from coverstab.census import enumerate_graphs
from coverstab.cover import double_cover, stability_report
from coverstab.families import (complete_graph, cycle, petersen, johnson,
                                lex_product)

from oracles import (brute_force_aut_count, brute_force_automorphisms,
                     backtrack_aut_count, naive_closure, complement,
                     line_graph, random_graph, colour_refinement, cube,
                     lowbit_certificate, naive_relabel, paley, refine,
                     shuffled)


class TestRefine:
    def test_regular_graph_stays_unit(self):
        p = refine(complete_graph(4), [range(4)])
        assert p == (tuple(range(4)),)

    def test_path_degree_split(self):
        p = refine(Graph(3, [(0, 1), (1, 2)]), [range(3)])
        assert set(map(frozenset, p)) == {frozenset({0, 2}), frozenset({1})}

    def test_individualized_pentagon_not_discrete(self):
        # refinement alone does not make C5 discrete
        p = refine(cycle(5), [[0], [1, 2, 3, 4]])
        assert set(map(frozenset, p)) == {
            frozenset({0}), frozenset({1, 4}), frozenset({2, 3})}
        assert not all(len(c) == 1 for c in p)

    def test_refines_input(self):
        rng = random.Random(3)
        for _ in range(100):
            g = random_graph(rng, rng.randrange(1, 10))
            if g.n < 2:
                continue
            anchor = rng.randrange(1, g.n)
            p = refine(g, [range(anchor), range(anchor, g.n)])
            # every output cell lies inside an input cell and the result is
            # equitable: all vertices in a cell see each cell equally often
            for cell in p:
                assert (set(cell) <= set(range(anchor))
                        or set(cell) <= set(range(anchor, g.n)))
                for other in p:
                    other_bits = 0
                    for v in other:
                        other_bits |= 1 << v
                    counts = {(g.adj[v] & other_bits).bit_count() for v in cell}
                    assert len(counts) == 1

    def test_refine_deterministic(self):
        rng = random.Random(4)
        for _ in range(50):
            g = random_graph(rng, 8)
            p1 = refine(g, [range(8)])
            p2 = refine(g, [range(8)])
            assert p1 == p2

    def test_coarsest_equitable_on_small_graphs(self, graphs_by_order):
        # against naive colour refinement, from one colour and from seeded
        # colourings of two or three cells
        rng = random.Random(5)
        for n in range(1, 8):
            for g in graphs_by_order[n]:
                starts = [[range(n)]]
                if n > 2:
                    starts += [random_colouring(rng, n, 2) for _ in range(2)]
                for p in starts:
                    assert (set(map(frozenset, refine(g, p)))
                            == colour_refinement(g, p))

    def test_coarsest_equitable_on_large_graphs(self):
        rng = random.Random(6)
        cube = Graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8)
                         if (u ^ v).bit_count() == 1])
        graphs = [lex_product(cycle(9), cube),
                  random_graph(rng, 150), random_graph(rng, 150)]
        for g in graphs:
            for p in ([range(g.n)], random_colouring(rng, g.n, 2)):
                assert (set(map(frozenset, refine(g, p)))
                        == colour_refinement(g, p))

    def test_cells_are_label_independent(self, graphs_by_order):
        # refining a relabelled graph from the relabelled partition gives
        # the relabelled cells in the same order
        rng = random.Random(7)
        graphs = graphs_by_order[6] + graphs_by_order[7][::4]
        graphs += [lex_product(cycle(5), cycle(4)), petersen()]
        for g in graphs:
            images = list(range(g.n))
            rng.shuffle(images)
            for p in ([range(g.n)], random_colouring(rng, g.n, 2)):
                moved = [[images[v] for v in cell] for cell in p]
                assert refine(g.relabel(images), moved) == tuple(
                    tuple(sorted(images[v] for v in cell))
                    for cell in refine(g, p))

    def test_search_refines_after_each_individualization(self, graphs_by_order):
        # the first leaf lies at the first depth at which the coarsest
        # equitable partition with the prefix singled out is discrete
        graphs = graphs_by_order[7][::7] + [petersen(), johnson(6, 2),
                                            lex_product(cycle(5), cycle(4))]
        for g in graphs:
            search = aut._Search(g)
            search.run([range(g.n)])
            prefix = search.zeta.prefix

            def discrete(k):
                rest = [v for v in range(g.n) if v not in prefix[:k]]
                cells = [[v] for v in prefix[:k]] + ([rest] if rest else [])
                return len(colour_refinement(g, cells)) == g.n

            assert discrete(len(prefix))
            assert not prefix or not discrete(len(prefix) - 1)


# Cells on C5 that are no ordered partition of its vertices.
MALFORMED_CELLS = {
    "vertex in no cell": ((0, 1), (2, 3)),
    "shared vertex": ((0, 1, 2), (2, 3, 4)),
    "vertex out of range": ((0, 1), (2, 3, 4, 5)),
    "empty cell": ((0, 1), (), (2, 3, 4)),
}


class TestCellCheck:
    # every coloured entry point checks its cells before refining or
    # searching, and raises ValueError on cells that are not an ordered
    # partition of the vertices

    @pytest.mark.parametrize("check", [canonical_form, automorphism_group])
    @pytest.mark.parametrize("name", [name for name in MALFORMED_CELLS
                                      if name != "vertex in no cell"])
    def test_malformed_cells_raise(self, name, check):
        with pytest.raises(ValueError):
            check(cycle(5), MALFORMED_CELLS[name])

    def test_vertex_in_no_cell_raises(self):
        # an unchecked search on such cells never returns, so the check
        # runs in a subprocess whose timeout turns a hang into a failure
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = (
            f"import sys; sys.path.insert(0, {src!r})\n"
            "from coverstab.aut import automorphism_group, canonical_form\n"
            "from coverstab.families import cycle\n"
            "for check in (canonical_form, automorphism_group):\n"
            "    try:\n"
            f"        check(cycle(5), {MALFORMED_CELLS['vertex in no cell']!r})\n"
            "    except ValueError:\n"
            "        print(check.__name__)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["canonical_form", "automorphism_group"]

    def test_cell_preserving_order(self):
        # rotations of C5 move {0, 1} off itself; the reflection fixing
        # the edge {0, 1} keeps both cells
        cells = ((0, 1), (2, 3, 4))
        assert canonical_form(cycle(5), cells).aut_order == 2
        assert automorphism_group(cycle(5), cells).order() == 2

    def test_any_sequence_of_cells(self):
        # ranges, lists and generators give the form of sorted tuples
        g = cycle(6)
        cf = canonical_form(g, ((0, 1, 2), (3, 4, 5)))
        for cells in ([range(3), range(3, 6)], [[2, 0, 1], [5, 3, 4]],
                      (iter(c) for c in [(0, 1, 2), (3, 4, 5)])):
            other = canonical_form(g, cells)
            assert other.canonical_graph6 == cf.canonical_graph6
            assert other.relabeling == cf.relabeling


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
            layers = range(g.n), range(g.n, 2 * g.n)
            cases += [(g, None), (double_cover(g), layers)]
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

    def test_orbit_representatives_are_least_per_orbit(self, graphs_by_order):
        # the criteria walk from these: the least vertex of each orbit of
        # the brute-forced automorphisms, ascending, memoized per graph
        assert orbit_representatives(petersen()) == (0,)
        assert orbit_representatives(Graph(4, [(1, 0), (1, 2), (1, 3)])) \
            == (0, 1)
        for g in graphs_by_order[5] + graphs_by_order[6][::7]:
            auts = brute_force_automorphisms(g)
            expected = sorted({min(p[x] for p in auts) for x in range(g.n)})
            assert orbit_representatives(g) == tuple(expected)
            assert g._cache["orbit_representatives"] == tuple(expected)


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
            cf = canonical_form(g, cells)
            moved = canonical_form(g.relabel(images),
                                   [[images[v] for v in c] for c in cells])
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
            double_cover(johnson(6, 2)),
            lex_product(cycle(8), complete_graph(2)),
            double_cover(lex_product(cycle(8), cycle(3))),
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
        cover = double_cover(g)
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
        fixed = automorphism_group(g, [[0], [1, 2, 3, 4, 5]]).order()
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


def triangles(m):
    """m disjoint copies of K3."""
    return Graph(3 * m, [(3 * i + a, 3 * i + b) for i in range(m)
                         for a, b in ((0, 1), (0, 2), (1, 2))])


def twin_rich_graphs(rng):
    """Seeded inputs whose twin quotients are small or nested."""
    graphs = [random_cograph(rng, rng.randrange(1, 13)) for _ in range(40)]
    for _ in range(15):
        base = random_graph(rng, rng.randrange(1, 6))
        k = rng.randrange(2, 4)
        graphs += [lex_product(base, Graph(k)),
                   lex_product(base, complete_graph(k))]
    graphs += [shuffled(triangles(m), rng) for m in range(1, 7)]
    for _ in range(8):
        # classes of open twins inside classes of closed twins, or the
        # reverse: each level of nesting is one more round of the quotient
        a, b = rng.randrange(2, 4), rng.randrange(2, 4)
        inner = rng.choice([lex_product(Graph(a), complete_graph(b)),
                            lex_product(complete_graph(a), Graph(b))])
        base = random_graph(rng, rng.randrange(1, 4))
        graphs.append(shuffled(lex_product(base, inner), rng))
    graphs += [cocktail_party(m) for m in range(1, 7)]
    graphs += [complete_multipartite([rng.randrange(1, 5)
                                      for _ in range(rng.randrange(1, 5))])
               for _ in range(15)]
    return graphs


def random_colouring(rng, n, fewest=1):
    """A random ordered partition of range(n) into fewest to 3 cells, each
    cell sorted."""
    order = list(range(n))
    rng.shuffle(order)
    k = rng.randint(fewest, min(3, n))
    cuts = sorted(rng.sample(range(1, n), k - 1))
    return tuple(tuple(sorted(order[a:b]))
                 for a, b in zip([0] + cuts, cuts + [n]))


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
            unit = partition or (tuple(range(g.n)),)
            assert cf.aut_order == unreduced_order(g, unit)
            assert automorphism_group(g, partition).order() == cf.aut_order
            for p in cf.aut_generators:
                assert g.relabel(p) == g
                assert all(sorted(p[v] for v in cell) == list(cell)
                           for cell in unit)
            assert (g.relabel(cf.relabeling)
                    == parse_graph6(cf.canonical_graph6))

    def test_canonical_string_invariant_under_shuffle(self, graphs_by_order):
        rng = random.Random(42)
        for g, partition in self.cases(graphs_by_order, 43):
            images = list(range(g.n))
            rng.shuffle(images)
            moved = None if partition is None else [
                [images[v] for v in cell] for cell in partition]
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

    @pytest.mark.parametrize("g, count", [
        (lex_product(Graph(4), lex_product(cycle(5), Graph(2))), 12),
        (lex_product(Graph(3), triangles(2)), 4),
        (lex_product(cycle(5), Graph(3)), 4),
    ], ids=["4C5[E2]", "3(2K3)", "C5[E3]"])
    def test_one_generating_set_per_orbit_of_classes(self, g, count):
        # a transposition and a cycle for the least class of each orbit
        # of merged classes, and the quotient's generators lifted
        cf = canonical_form(g)
        assert len(cf.aut_generators) == count
        assert automorphism_group(g).order() == cf.aut_order

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

    @pytest.mark.parametrize("m", [2, 10, 100, 1000])
    def test_generators_do_not_grow_with_a_union(self, m):
        # the triangles are one orbit of merged classes, and so are the
        # vertices of the edgeless quotient
        cf = canonical_form(triangles(m))
        assert len(cf.aut_generators) <= 4
        assert cf.aut_order == 6 ** m * math.factorial(m)


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
            late.clear()
            cf = canonical_form(h, cells)
            assert late
            assert automorphism_group(h, cells).order() == cf.aut_order
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
        real = graph_core.write_graph6

        def counting(g):
            calls.append(g.n)
            return real(g)

        monkeypatch.setattr(graph_core, "write_graph6", counting)
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


class TestCertificates:
    # a leaf's certificate sums a bit table over the memoized neighbour
    # lists of the graph searched, which may be a twin quotient; it must
    # equal the rows relabelled bit by bit

    @staticmethod
    def check_every_leaf(monkeypatch, graphs):
        checked = []

        class Checking(aut._Search):
            def _leaf(self, lab, path, prefix):
                leaf = aut._Leaf(list(path), list(lab), list(prefix))
                assert self._cert(leaf) == lowbit_certificate(self.g.adj, lab)
                checked.append(self.g)
                super()._leaf(lab, path, prefix)

        monkeypatch.setattr(aut, "_Search", Checking)
        orders = []  # (order of the input, order searched) per leaf
        for g in graphs:
            start = len(checked)
            canonical_form(Graph.from_rows(g.adj))  # not the memoized form
            orders += [(g.n, q.n) for q in checked[start:]]
        return orders

    def test_every_leaf_up_to_order_7(self, monkeypatch, graphs_by_order):
        graphs = [g for n in sorted(graphs_by_order)
                  for g in graphs_by_order[n]]
        orders = self.check_every_leaf(monkeypatch, graphs)
        assert len(graphs) == 1252
        assert len(orders) > len(graphs)
        assert any(q < n for n, q in orders)  # twin quotients searched too

    @pytest.mark.parametrize("g", [
        lex_product(cycle(8), cube(3)),
        paley(29),
        double_cover(complete_graph(20)),  # the crown graph
    ], ids=["C8[Q3]", "Paley(29)", "crown(20)"])
    def test_every_leaf_of_symmetric_searches(self, monkeypatch, g):
        h = shuffled(g, random.Random(g.n))
        assert len(self.check_every_leaf(monkeypatch, [h])) > 1


class TestLazyNeighbourLists:
    def test_one_leaf_searches_build_none(self, monkeypatch):
        # a search builds the lists at its first certificate, so the
        # reports of a discrete X never build them, on X or on its cover
        calls = []
        real = graph_core.neighbour_lists

        def counting(g):
            calls.append(g.n)
            return real(g)

        discrete = next(Graph.from_rows(g.adj) for g in enumerate_graphs(8)
                        if canonical_form(g).discrete and is_connected(g)
                        and not is_bipartite(g))
        gnp = random_graph(random.Random(20), 150)
        monkeypatch.setattr(graph_core, "neighbour_lists", counting)
        for g in (discrete, gnp):
            report = stability_report(g)
            assert report.stable
            assert "neighbour_lists" not in g._cache
        assert calls == []
        stability_report(petersen())  # a symmetric search does build them
        assert calls

    @pytest.mark.parametrize("g, certified", [
        (johnson(7, 3), False),
        (paley(29), False),
        (johnson(9, 3), False),
        (parse_graph6("G?otQk"), True),
    ], ids=["J(7,3)", "Paley(29)", "J(9,3)", "G?otQk"])
    def test_each_graph_builds_its_lists_once(self, monkeypatch, g, certified):
        # one list per row: during a report each graph's lists are built at
        # most once, the seed check builds the cover's before its search
        # runs, and the search's checks and certificates read those same
        # lists. A symmetric X leaves its cover search one leaf and no
        # certificate; G?otQk's cover search compares two leaves that are
        # not images of each other
        stage, built, reads, leaves = [None], [], [], []
        real = graph_core.neighbour_lists

        def counting(h):
            if "neighbour_lists" not in h._cache:
                built.append((h.n, stage[0]))
            lists = real(h)
            reads.append((h.n, stage[0], id(lists)))
            return lists

        class Recording(aut._Search):
            def __init__(self, h):
                stage[0] = "seeds"
                super().__init__(h)

            def run(self, cells):
                stage[0] = "search"
                super().run(cells)
                stage[0] = None

            def _leaf(self, *args):
                leaves.append(self.n)
                super()._leaf(*args)

            def _cert(self, leaf):
                stage[0] = "certificate"
                try:
                    return super()._cert(leaf)
                finally:
                    stage[0] = "search"

        monkeypatch.setattr(graph_core, "neighbour_lists", counting)
        monkeypatch.setattr(aut, "_Search", Recording)
        assert stability_report(Graph.from_rows(g.adj)).stable
        sizes = [n for n, _ in built]
        assert sorted(sizes) == sorted(set(sizes))
        assert g.n in sizes and (2 * g.n, "seeds") in built
        cover_reads = [(s, i) for n, s, i in reads if n == 2 * g.n]
        assert len({i for _, i in cover_reads}) == 1
        assert any(s == "certificate" for s, _ in cover_reads) == certified
        if not certified:
            assert leaves.count(2 * g.n) == 1


class TestSiblingImages:
    # a first-path node maps its first child's labelling position-wise onto
    # each non-discrete sibling with zeta's path; a map that passes the
    # check on its support is recorded and the sibling's subtree skipped.
    # Seeds go through the same check.

    @staticmethod
    def recording(monkeypatch):
        """Patch in a search that keeps (verdict, search, map, source) for
        every map it checks, its source "seed", "sibling" or "leaf"."""
        tried = []

        class Recording(aut._Search):
            source = "seed"

            def run(self, cells):
                self.cells = [set(cell) for cell in cells]
                self.source = "sibling"
                super().run(cells)

            def _match(self, ref, leaf):
                self.source = "leaf"
                try:
                    return super()._match(ref, leaf)
                finally:
                    self.source = "sibling"

            def add_automorphism(self, gen):
                found = super().add_automorphism(gen)
                tried.append((found, self, tuple(gen), self.source))
                return found

        monkeypatch.setattr(aut, "_Search", Recording)
        return tried

    @staticmethod
    def check(tried):
        """The number of maps accepted per source, each a cell-preserving
        automorphism by the bit-by-bit relabelling; every map rejected is
        none."""
        for found, search, images, _ in tried:
            assert found == (naive_relabel(search.g, images) == search.g)
            assert all({images[v] for v in cell} == cell
                       for cell in search.cells)
        return Counter(source for found, *_, source in tried if found)

    def test_every_graph_up_to_order_7(self, monkeypatch, graphs_by_order):
        tried = self.recording(monkeypatch)
        for n in sorted(graphs_by_order):
            for g in graphs_by_order[n]:
                cf = canonical_form(Graph.from_rows(g.adj))
                order = group_from_generators(cf.aut_generators, n).order()
                assert cf.aut_order == order
                cover = canonical_form(double_cover(g),
                                       [range(n), range(n, 2 * n)])
                order = group_from_generators(cover.aut_generators,
                                              2 * n).order()
                assert cover.aut_order == order
                report = stability_report(Graph.from_rows(g.adj))
                assert report.aut_x_order == cf.aut_order
        assert set(self.check(tried)) == {"seed", "sibling", "leaf"}

    @pytest.mark.parametrize("g, order, accepts", [
        (lex_product(cycle(8), cube(3)), 48 ** 8 * 16, True),
        (double_cover(complete_graph(20)), 2 * math.factorial(20), True),
        (paley(29), 29 * 14, False),
        (johnson(7, 3), math.factorial(7), True),
    ], ids=["C8[Q3]", "crown(20)", "Paley(29)", "J(7,3)"])
    def test_shuffled_symmetric_inputs(self, monkeypatch, g, order, accepts):
        # no sibling map of Paley(29) is an automorphism, though leaf
        # matches are; J(7,3)'s is found only with the sibling's cells in
        # zeta's order; the report adds the seeds of its cover search,
        # which a bipartite X such as crown(20) does not need
        tried = self.recording(monkeypatch)
        h = shuffled(g, random.Random(g.n))
        assert canonical_form(h).aut_order == order
        accepted = self.check(tried)
        assert bool(accepted["sibling"]) == accepts
        assert accepted["leaf"] and not accepted["seed"]
        report = stability_report(Graph.from_rows(h.adj))
        assert report.aut_x_order == order
        assert bool(self.check(tried)["seed"]) == (not is_bipartite(h))

    def test_cells_taken_in_first_leaf_order(self, monkeypatch,
                                             graphs_by_order):
        # a sibling is mapped by position after each cell of both
        # labellings is sorted by the vertices' positions in zeta, then by
        # position as refinement left them
        agree = []
        real = aut._Search._sibling_maps

        def position_map(a, b):
            return tuple(v for _, v in sorted(zip(a, b)))

        def maps(search, first, child):
            pos, cend = perms._inv(search.zeta.lab), child[2]

            def in_zeta_order(lab):
                out, s = [], 0
                while s < len(lab):
                    out += sorted(lab[s:cend[s]], key=pos.__getitem__)
                    s = cend[s]
                return out

            gens = list(real(search, first, child))
            agree.append(gens == [
                position_map(in_zeta_order(first), in_zeta_order(child[0])),
                position_map(first, child[0])])
            yield from gens

        monkeypatch.setattr(aut._Search, "_sibling_maps", maps)
        rng = random.Random(5)
        for g in [*graphs_by_order[6], johnson(7, 3),
                  shuffled(lex_product(cycle(9), cube(3)), rng)]:
            stability_report(Graph.from_rows(g.adj))
        assert agree and all(agree)

    # the order-8 graphs whose searches, on X or on the cover, meet a leaf
    # with a reference leaf's path that is not an image of it
    UNMATCHED_AT_ORDER_8 = ["G?otQg", "G?otQk", "GCRFfO", "GCpvbo", "GCZVfO",
                            "GEzet[", "GQov?{", "GQjVbW"]

    def test_support_check_agrees_with_certificates(
            self, monkeypatch, graphs_by_order):
        # for every leaf with a reference leaf's path, the check on the
        # support of the position map accepts exactly when the two
        # certificates are equal; the recorded generators are restored
        verdicts = []

        class Checking(aut._Search):
            def _leaf(self, lab, path, prefix):
                leaf = aut._Leaf(list(path), list(lab), list(prefix))
                for ref in {id(r): r for r in (self.zeta, self.rho)
                            if r is not None}.values():
                    if ref.path == leaf.path:
                        gens = list(self.gens)
                        found = self.add_automorphism(tuple(
                            v for _, v in sorted(zip(ref.lab, leaf.lab))))
                        self.gens[:] = gens
                        verdicts.append((found, self._cert(leaf)
                                         == self._cert(ref), self.n))
                super()._leaf(lab, path, prefix)

        monkeypatch.setattr(aut, "_Search", Checking)
        graphs = [g for n in sorted(graphs_by_order)
                  for g in graphs_by_order[n]]
        graphs += map(parse_graph6, self.UNMATCHED_AT_ORDER_8)
        for g in graphs:
            canonical_form(Graph.from_rows(g.adj))
            canonical_form(double_cover(g), [range(g.n), range(g.n, 2 * g.n)])
        assert all(found == equal for found, equal, _ in verdicts)
        assert {found for found, *_ in verdicts} == {True, False}
        assert {n % 2 for *_, n in verdicts} == {0, 1}

    @pytest.mark.parametrize("run, leaves, children", [
        (lambda: stability_report(complete_graph(28)), 3, 53),
        (lambda: canonical_form(double_cover(complete_graph(50))), 2, 99),
        (lambda: stability_report(lex_product(cycle(9), cube(3))), 6, 188),
        *[(lambda m=m, seed=seed: stability_report(shuffled(
            lex_product(cycle(m), cube(3)), random.Random(seed))),
           leaves, children)
          for m, leaves, children in [(9, 7, 220), (8, 5, 154)]
          for seed in range(1, 5)],
        (lambda: stability_report(johnson(9, 3)), 3, 18),
        (lambda: stability_report(johnson(11, 2)), 4, 24),
    ], ids=["K28 report", "crown(50)", "C9[Q3] report",
            *[f"C{m}[Q3] shuffled {seed}" for m in (9, 8)
              for seed in range(1, 5)], "J(9,3) report", "J(11,2) report"])
    def test_work_bounds(self, monkeypatch, run, leaves, children):
        # without the sibling check: 28/378, 51/1323 and 58/926; shuffled,
        # with the position-wise map alone, C9[Q3] walked 20-24 leaves and
        # 513-641 children and C8[Q3] 16-23 and 375-544; with the zeta-order
        # map alone, the naturally numbered J(9,3) walks 7 leaves and 30
        # children and J(11,2) 8 and 41
        counts = {"leaves": 0, "children": 0}

        class Counting(aut._Search):
            def _leaf(self, *args):
                counts["leaves"] += 1
                super()._leaf(*args)

            def _child(self, *args):
                counts["children"] += 1
                return super()._child(*args)

        monkeypatch.setattr(aut, "_Search", Counting)
        run()
        assert counts["leaves"] <= leaves and counts["children"] <= children

    @pytest.mark.parametrize("m", [9, 8])
    def test_shuffles_agree(self, m):
        # the sibling maps change which subtrees are walked, never the best
        # leaf's canonical string or the order read off the first path
        g = lex_product(cycle(m), cube(3))
        hs = [shuffled(g, random.Random(seed)) for seed in range(1, 5)]
        assert {canonical_form(h).canonical_graph6 for h in hs} == {
            canonical_form(g).canonical_graph6}
        assert {canonical_form(h).aut_order for h in hs} == {48 ** m * 2 * m}
        assert {stability_report(h) for h in hs} == {stability_report(g)}
