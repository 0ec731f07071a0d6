import math
import random
from itertools import combinations_with_replacement, islice

import pytest

from coverstab import aut, cover, perms
from coverstab.graph_core import (Graph, SoundnessError, is_connected,
                                  is_bipartite, has_twins, parse_graph6)
from coverstab.perms import _mul, group_from_generators
from coverstab.aut import automorphism_group, are_isomorphic, canonical_form
from coverstab.census import enumerate_graphs
from coverstab.cover import (double_cover, lift, tau, is_expected,
                             is_fiber_preserving, is_cover_automorphism,
                             stability_report,
                             REASON_BIPARTITE, REASON_DISCONNECTED,
                             REASON_TWINS)
from coverstab.families import (complete_graph, cycle, petersen, johnson,
                                 lex_product)

from oracles import (cube, expected_group, from_cycles, naive_closure, paley,
                     refine, shuffled)


class TestDoubleCover:
    def test_structure(self):
        g = petersen()
        cover = double_cover(g)
        assert cover.n == 2 * g.n
        assert cover.edge_count() == 2 * g.edge_count()
        for x, y in g.edges():
            assert cover.has_edge(x, y + g.n)
            assert cover.has_edge(y, x + g.n)
            assert not cover.has_edge(x, y)

    def test_small_covers(self):
        assert are_isomorphic(double_cover(complete_graph(3)), cycle(6))
        assert are_isomorphic(double_cover(cycle(5)), cycle(10))
        c6c = double_cover(cycle(6))
        assert not is_connected(c6c)
        two_c6 = Graph(12, [(i, (i + 1) % 6) for i in range(6)]
                       + [(6 + i, 6 + (i + 1) % 6) for i in range(6)])
        assert are_isomorphic(c6c, two_c6)

    def test_cover_connected_iff_base_connected_nonbipartite(self, graphs_by_order):
        for n in (4, 5):
            for g in graphs_by_order[n]:
                cov = double_cover(g)
                expected = is_connected(g) and not is_bipartite(g)
                assert is_connected(cov) == expected


class TestLiftTau:
    def test_lift_identity_and_rotation(self):
        g = cycle(5)
        assert lift(g, tuple(range(5))) == tuple(range(10))
        rot = (1, 2, 3, 4, 0)
        lf = lift(g, rot)
        assert lf[0] == 1 and lf[5] == 6

    def test_tau_involution_and_commutes(self):
        g = petersen()
        t = tau(g)
        assert _mul(t, t) == tuple(range(20))
        for phi in automorphism_group(petersen()).generators:
            lf = lift(g, phi)
            assert _mul(t, lf) == _mul(lf, t)

    def test_lift_requires_automorphism(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            lift(g, (1, 2, 0))

    NOT_PERMUTATIONS = {"short": lambda n: tuple(range(n - 1)),
                        "long": lambda n: tuple(range(n + 1)),
                        "repeated": lambda n: (0,) + tuple(range(n - 1)),
                        "out_of_range": lambda n: tuple(range(1, n + 1))}

    @pytest.mark.parametrize("kind", sorted(NOT_PERMUTATIONS))
    def test_non_permutations_are_refused(self, kind):
        # a tuple of the wrong length or that is no bijection raises, and
        # is never read as "not an automorphism"; every bijection of K3
        # is one, so the message names the failed input check
        make = self.NOT_PERMUTATIONS[kind]
        g = complete_graph(3)
        with pytest.raises(ValueError, match="bijection"):
            lift(g, make(3))
        with pytest.raises(ValueError, match="bijection"):
            is_cover_automorphism(g, make(6))
        with pytest.raises(ValueError, match="bijection"):
            is_expected(g, make(6))
        with pytest.raises(ValueError, match="bijection"):
            is_fiber_preserving(g, make(6))

    def test_lift_homomorphism(self):
        g = petersen()
        gens = automorphism_group(g).generators
        for p in gens:
            for q in gens:
                assert lift(g, _mul(p, q)) == _mul(lift(g, p), lift(g, q))


class TestExpectedSubgroup:
    def test_orders(self):
        assert expected_group(complete_graph(3)).order() == 12
        assert expected_group(cycle(5)).order() == 20
        assert expected_group(petersen()).order() == 240

    def test_always_twice_base_aut(self, graphs_by_order):
        rng = random.Random(4)
        sample = rng.sample(graphs_by_order[6], 40) + graphs_by_order[3]
        for g in sample:
            assert expected_group(g).order() == 2 * automorphism_group(g).order()

    def test_subgroup_of_cover_aut(self, graphs_by_order):
        rng = random.Random(5)
        for g in rng.sample(graphs_by_order[5], 15):
            cover_aut = automorphism_group(double_cover(g))
            assert 2 * automorphism_group(g).order() == expected_group(g).order()
            assert cover_aut.order() % expected_group(g).order() == 0
            assert cover_aut.contains(tau(g))
            for phi in automorphism_group(g).generators:
                assert cover_aut.contains(lift(g, phi))


class TestIsExpected:
    def test_tau_and_lifts_expected(self):
        g = petersen()
        assert is_expected(g, tau(g))
        for phi in automorphism_group(petersen()).generators:
            assert is_expected(g, lift(g, phi))

    def test_rejects_non_automorphism(self):
        g = cycle(5)
        with pytest.raises(ValueError):
            is_expected(g, from_cycles(10, [(0, 1)]))

    def test_fiber_rule_matches_membership(self, graphs_by_order):
        # the fiber characterization coincides with expected-subgroup
        # membership for connected non-bipartite bases
        rng = random.Random(6)
        pool = [g for g in graphs_by_order[5] + rng.sample(graphs_by_order[6], 30)
                if is_connected(g) and not is_bipartite(g)]
        for g in pool:
            exp = expected_group(g)
            for alpha in automorphism_group(double_cover(g)).generators:
                assert is_fiber_preserving(g, alpha) == exp.contains(alpha)

    def test_layer_rule_matches_membership_without_groups(
            self, graphs_by_order, monkeypatch):
        # Schreier-Sims gives the reference: expected-group membership of
        # each cover-automorphism generator and of each product of two, and
        # the whole-cover order. With group construction then refused, the
        # decision must reproduce both on every graph of order <= 6 (fresh
        # copies, so that no cached report is reused).
        cases = []
        for n in range(1, 7):
            for g in graphs_by_order[n]:
                gens = canonical_form(double_cover(g)).aut_generators
                alphas = list(gens) + [_mul(p, q) for p in gens for q in gens]
                exp = expected_group(g)
                cases.append((Graph.from_rows(g.adj), alphas,
                              [exp.contains(a) for a in alphas],
                              automorphism_group(g).order(),
                              automorphism_group(double_cover(g)).order()))

        def refuse(*args, **kwargs):
            raise AssertionError("the decision built a permutation group")

        monkeypatch.setattr(perms, "group_from_generators", refuse)
        monkeypatch.setattr(perms, "PermGroup", refuse)
        for g, alphas, members, aut_x, aut_bx in cases:
            assert [is_expected(g, a) for a in alphas] == members
            report = stability_report(g)
            assert (report.aut_x_order, report.aut_bx_order) == (aut_x, aut_bx)

    def test_fallback_outside_lemma_hypotheses(self):
        # two isolated vertices: a swap inside one fiber preserves fibers
        # but is not expected, because it splits layer 0 between the layers
        g = Graph(2)
        alpha = from_cycles(4, [(0, 2)])
        assert is_cover_automorphism(g, alpha)
        assert is_fiber_preserving(g, alpha)
        assert not is_expected(g, alpha)


class TestStabilityReport:
    def test_complete_graphs(self):
        r = stability_report(complete_graph(2))
        assert not r.stable and r.instability_index == 2
        assert r.classification == "trivially_unstable"
        assert r.reasons == (REASON_BIPARTITE,)
        for n in range(3, 9):
            assert stability_report(complete_graph(n)).stable

    def test_cycles(self):
        for n in range(3, 11):
            r = stability_report(cycle(n))
            assert r.stable == (n % 2 == 1)
        r6 = stability_report(cycle(6))
        assert r6.classification == "trivially_unstable"
        assert REASON_BIPARTITE in r6.reasons

    def test_johnson_instabilities(self):
        r = stability_report(johnson(6, 2))
        assert r.classification == "nontrivially_unstable"
        assert r.instability_index == 28
        r = stability_report(johnson(6, 3))
        assert r.classification == "nontrivially_unstable"
        assert r.instability_index == 2
        r = stability_report(johnson(4, 2))
        assert r.classification == "trivially_unstable"
        assert r.reasons == (REASON_TWINS,)

    def test_disconnected_reason(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        r = stability_report(g)
        assert not r.stable and REASON_DISCONNECTED in r.reasons

    def test_multiple_reasons(self):
        # an edge plus a star: disconnected, bipartite, and the two star
        # leaves are twins
        g = Graph(5, [(0, 1), (2, 3), (2, 4)])
        r = stability_report(g)
        assert set(r.reasons) == {REASON_DISCONNECTED, REASON_BIPARTITE, REASON_TWINS}

    def test_single_vertex_stable_empty_rejected(self):
        r = stability_report(Graph(1))
        assert r.stable and r.aut_bx_order == 2
        with pytest.raises(ValueError, match="empty graph"):
            stability_report(Graph(0))

    def test_index_multiplicativity_invariants(self, graphs_by_order):
        rng = random.Random(7)
        for g in rng.sample(graphs_by_order[6], 40):
            r = stability_report(g)
            assert r.aut_bx_order % (2 * r.aut_x_order) == 0
            assert r.stable == (r.instability_index == 1)
            if r.classification == "nontrivially_unstable":
                assert is_connected(g) and not is_bipartite(g) and not has_twins(g)

    def test_agrees_with_fiber_decision(self, graphs_by_order):
        # two independent decision procedures for connected non-bipartite
        # inputs: order comparison vs fiber-preservation of every
        # cover-automorphism generator
        rng = random.Random(8)
        pool = [g for g in graphs_by_order[4] + rng.sample(graphs_by_order[6], 40)
                if is_connected(g) and not is_bipartite(g)]
        assert pool
        for g in pool:
            gens = automorphism_group(double_cover(g)).generators
            all_fiber = all(is_fiber_preserving(g, a) for a in gens)
            assert stability_report(g).stable == all_fiber

    def test_fiber_decision_needs_connectivity(self):
        # K3 plus an isolated vertex: unstable, yet every cover
        # automorphism generator can be fiber-preserving (the unexpected
        # one swaps inside the isolated fiber), so fiber preservation alone
        # decides expectedness only for connected non-bipartite bases
        g = Graph(4, [(0, 1), (0, 2), (1, 2)])
        r = stability_report(g)
        assert not r.stable and REASON_DISCONNECTED in r.reasons
        inside_fiber_swap = from_cycles(8, [(3, 7)])
        assert is_cover_automorphism(g, inside_fiber_swap)
        assert is_fiber_preserving(g, inside_fiber_swap)
        assert not expected_group(g).contains(inside_fiber_swap)
        assert not is_expected(g, inside_fiber_swap)

    def test_layer_partition_shortcut(self, graphs_by_order):
        # the full 2n-vertex search on the cover is the reference for the
        # layer-wise search that connected non-bipartite bases take
        rng = random.Random(9)
        sample = rng.sample(graphs_by_order[6], 40)
        layered = [g for g in sample if is_connected(g) and not is_bipartite(g)]
        bipartite = [g for g in sample if is_connected(g) and is_bipartite(g)]
        disconnected = [g for g in sample if not is_connected(g)]
        assert layered and bipartite and disconnected
        for g in layered + bipartite[:3] + disconnected[:3]:
            full = automorphism_group(double_cover(g)).order()
            assert stability_report(g).aut_bx_order == full

    def test_discrete_refinement_fast_path(self, graphs_by_order):
        # a connected non-bipartite X whose coarsest equitable partition is
        # discrete gets |Aut(BX)| = 2 with no cover search; the layered
        # cover search is the reference on every such graph of order <= 8
        orders = {**graphs_by_order, 8: list(enumerate_graphs(8))}
        fast = []
        for n, graphs in sorted(orders.items()):
            fast.append(0)
            for g in graphs:
                if not is_connected(g) or is_bipartite(g):
                    continue
                cf = canonical_form(g)
                assert cf.discrete == all(
                    len(c) == 1 for c in refine(g, [range(n)]))
                if cf.discrete:
                    fast[-1] += 1
                    report = stability_report(g)
                    assert (report.aut_x_order, report.aut_bx_order) == (1, 2)
                    assert cover._layered_cover_form(g, cf).aut_order == 1
        assert fast == [0, 0, 0, 0, 0, 8, 141, 3544]

    def test_cover_order_matches_vf2(self, graphs_by_order):
        # networkx's VF2 enumerates cover automorphisms independently of the
        # search; covers with more than `limit` of them are skipped
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher
        limit = 10 ** 4
        rng = random.Random(10)
        compared = 0
        for g in graphs_by_order[5] + rng.sample(graphs_by_order[6], 15):
            cov = double_cover(g)
            h = nx.Graph()
            h.add_nodes_from(range(cov.n))
            h.add_edges_from(cov.edges())
            count = sum(1 for _ in islice(
                GraphMatcher(h, h).isomorphisms_iter(), limit + 1))
            if count <= limit:
                assert stability_report(g).aut_bx_order == count
                compared += 1
        assert compared >= 40

    def test_report_invariant_under_relabelling(self):
        # the report is a property of the isomorphism class, so a relabelled
        # copy (a fresh Graph, with no cached search) must give the same one
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=80, deadline=None, database=None)
        @hypothesis.given(st.data())
        def check(data):
            n = data.draw(st.integers(min_value=1, max_value=12))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                              if pairs else st.just([]))
            images = data.draw(st.permutations(range(n)))
            g = Graph(n, edges)
            assert stability_report(g.relabel(images)) == stability_report(g)

        check()

    def test_expected_subgroup_closure_equals_lift_tau_closure(self):
        # expected subgroup = what tau and the lifts generate, element-wise
        g = cycle(5)
        gens = [tau(g)] + [lift(g, p) for p in automorphism_group(g).generators]
        closure = naive_closure(gens, 10)
        assert expected_group(g).order() == len(closure)


def disjoint_union(parts, rng=None):
    """The disjoint union of parts, renumbered by a shuffle from rng."""
    edges, offset = [], 0
    for h in parts:
        edges += [(offset + u, offset + v) for u, v in h.edges()]
        offset += h.n
    images = list(range(offset))
    if rng is not None:
        rng.shuffle(images)
    return Graph(offset, [(images[u], images[v]) for u, v in edges])


def whole_cover_orders(g):
    """(|Aut(X)|, |Aut(BX)|) from the unit-partition search of X and of
    the whole 2n-vertex cover."""
    return (canonical_form(g).aut_order,
            canonical_form(double_cover(g)).aut_order)


def report_orders(g):
    r = stability_report(Graph.from_rows(g.adj))
    return r.aut_x_order, r.aut_bx_order


def random_unions(graphs_by_order, count, seed):
    """Seeded disjoint unions of 1-4 connected components of order <= 5,
    with K1, repeated components and bipartite and non-bipartite parts."""
    connected = [g for n in range(1, 6) for g in graphs_by_order[n]
                 if is_connected(g)]
    rng = random.Random(seed)
    unions = []
    for _ in range(count):
        parts = [rng.choice(connected) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            parts.append(parts[0])
        if rng.random() < 0.3:
            parts.append(Graph(1))
        unions.append(disjoint_union(parts, rng))
    return unions


K3 = complete_graph(3)
K33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
P5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
TREE33 = parse_graph6("ECR_")  # a 3+3 tree with no colour swap, |Aut| = 2

# Unions whose cover components fall into fewer classes than their base
# components: B(K3) = C6, B(C5) = C10 and B(K4) = Q3. The bipartite
# components without a colour swap (P5, the 3+3 tree) match no cover of
# a non-bipartite one, even beside C6 on the same six vertices.
COLLISIONS = {
    "K3+C6": ([K3, cycle(6)], 72, 12 ** 3 * 6),
    "C5+C10": ([cycle(5), cycle(10)], 200, 20 ** 3 * 6),
    "K1+K2": ([Graph(1), complete_graph(2)], 2, 2 * 2 ** 2 * 2),
    "2K3+C6": ([K3, K3, cycle(6)], 6 ** 2 * 2 * 12, 12 ** 4 * 24),
    "P5+K3": ([P5, K3], 2 * 6, 2 ** 2 * 2 * 12),
    "Tree33+K3": ([TREE33, K3], 2 * 6, 2 ** 2 * 2 * 12),
    "P5+C5": ([P5, cycle(5)], 2 * 10, 2 ** 2 * 2 * 20),
    "Tree33+C6+K3": ([TREE33, cycle(6), K3], 2 * 12 * 6,
                     2 ** 2 * 2 * 12 ** 3 * 6),
    "2P5+K33+Q3+C5+K4": ([P5, P5, K33, cube(3), cycle(5), complete_graph(4)],
                         2 ** 2 * 2 * 72 * 48 * 10 * 24,
                         2 ** 4 * 24 * 72 ** 2 * 2 * 48 ** 3 * 6 * 20),
}


class TestComponentDecision:
    def test_matches_whole_cover_up_to_order_7(self, graphs_by_order):
        for n in range(1, 8):
            for g in graphs_by_order[n]:
                assert report_orders(g) == whole_cover_orders(g)

    def test_matches_whole_cover_on_random_unions(self, graphs_by_order):
        unions = random_unions(graphs_by_order, 200, seed=11)
        assert sum(not is_connected(g) for g in unions) >= 150
        for g in unions:
            assert report_orders(g) == whole_cover_orders(g)

    @pytest.mark.parametrize("name", sorted(COLLISIONS))
    def test_cover_classes_across_base_components(self, name):
        parts, aut_x, aut_bx = COLLISIONS[name]
        g = disjoint_union(parts, random.Random(name))
        assert report_orders(g) == (aut_x, aut_bx) == whole_cover_orders(g)

    def test_disconnected_cover_orders_match_vf2(self, graphs_by_order):
        # every union of two or three connected graphs of order <= 3, and
        # the collisions; covers with more than `limit` automorphisms are
        # skipped
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher
        limit = 500
        small = [g for n in range(1, 4) for g in graphs_by_order[n]
                 if is_connected(g)]
        pool = [disjoint_union(parts) for k in (2, 3)
                for parts in combinations_with_replacement(small, k)]
        pool += [disjoint_union(parts) for parts, _, _ in COLLISIONS.values()]
        compared = 0
        for g in pool:
            cov = double_cover(g)
            h = nx.Graph()
            h.add_nodes_from(range(cov.n))
            h.add_edges_from(cov.edges())
            count = sum(1 for _ in islice(
                GraphMatcher(h, h).isomorphisms_iter(), limit + 1))
            if count <= limit:
                assert report_orders(g)[1] == count
                compared += 1
        assert compared >= 15

    def test_degenerate_unions_need_no_big_search(self, monkeypatch):
        # E2000 is closed-form, and 300 K3 searches K3 and its 6-vertex
        # cover C6 once each
        seen = []
        real = cover.canonical_form

        def recording(h, *args):
            seen.append(h.n)
            return real(h, *args)

        monkeypatch.setattr(cover, "canonical_form", recording)
        r = stability_report(Graph(2000))
        assert (r.aut_x_order, r.aut_bx_order) == (
            math.factorial(2000), math.factorial(4000))
        assert not seen
        r = stability_report(disjoint_union([K3] * 300, random.Random(13)))
        assert (r.aut_x_order, r.aut_bx_order) == (
            6 ** 300 * math.factorial(300), 12 ** 300 * math.factorial(300))
        assert sorted(seen) == [3, 6]

    def test_isomorphic_components_share_one_search(self, monkeypatch):
        # 100 shuffled Petersen graphs: one canonical form per component
        # for its key, and one layered cover search for the class
        seen = []
        real = cover.canonical_form

        def recording(h, *args):
            seen.append(h.n)
            return real(h, *args)

        monkeypatch.setattr(cover, "canonical_form", recording)
        r = stability_report(disjoint_union([petersen()] * 100,
                                            random.Random(13)))
        assert (r.aut_x_order, r.aut_bx_order) == (
            120 ** 100 * math.factorial(100), 240 ** 100 * math.factorial(100))
        assert len(seen) <= 101

    def test_cover_keys_match_isomorphism(self, graphs_by_order):
        # every connected bipartite D of order <= 8, and a shuffled copy,
        # and the cover BC of every connected non-bipartite C of order
        # <= 4: two cover parts share a key exactly when the graphs have
        # the same unit canonical form, and each part carries its |Aut|
        orders = {**graphs_by_order, 8: list(enumerate_graphs(8))}
        rng = random.Random(31)
        pairs, covers, swaps = set(), set(), 0
        for n, graphs in sorted(orders.items()):
            for g in graphs:
                if n == 1 or not is_connected(g):
                    continue
                if is_bipartite(g):
                    for d in (g, shuffled(g, rng)):
                        cf = canonical_form(d)
                        (key, order), twin = cover._component_parts(d, cf)[1]
                        assert twin == (key, order) == (key, cf.aut_order)
                        # a swap exists when both colour orders give one form
                        a, b = colour_classes(d)
                        ab, ba = (canonical_form(d, cells).canonical_graph6
                                  for cells in ((a, b), (b, a)))
                        assert key == (ab if ab == ba else cf.canonical_graph6)
                        pairs.add((key, cf.canonical_graph6))
                    swaps += ab == ba
                elif n <= 4:
                    (key, order), = cover._component_parts(
                        g, canonical_form(g))[1]
                    whole = canonical_form(double_cover(g))
                    assert order == whole.aut_order
                    pairs.add((key, whole.canonical_graph6))
                    covers.add(whole.canonical_graph6)
        assert len(pairs) == len({k for k, _ in pairs}) == len(
            {form for _, form in pairs})
        # K3, K4, K4 minus an edge and the paw have four distinct covers,
        # each a connected bipartite graph of order <= 8 met above
        assert len(covers) == 4
        assert len(pairs) == sum(
            is_connected(g) and is_bipartite(g)
            for n in range(2, 9) for g in orders[n])
        assert swaps == 46  # of the connected bipartite graphs, K2 included

    def test_swap_rule_on_shuffled_mixed_unions(self):
        # swap-free bipartite components (P5, the 3+3 tree), swapping ones
        # (C6, Q3, K3,3) and K3 or C5, whose covers are C6 and C10, in
        # seeded shuffled unions: against the whole-cover search and
        # against VF2's component classes
        rng = random.Random(37)
        mix = [P5, TREE33, cycle(6), cube(3), K33]
        for _ in range(30):
            parts = [rng.choice(mix) for _ in range(rng.randint(1, 3))]
            parts += [rng.choice([K3, cycle(5)])
                      for _ in range(rng.randint(1, 2))]
            g = disjoint_union(parts, rng)
            orders = report_orders(g)
            assert orders == whole_cover_orders(g)
            assert orders == (vf2_union_order(g),
                              vf2_union_order(double_cover(g)))

    @pytest.mark.parametrize("part, coloured", [(P5, 0), (cycle(6), 1)],
                             ids=["P5", "C6"])
    def test_one_coloured_search_per_swapping_class(
            self, monkeypatch, part, coloured):
        # a bipartite class costs a coloured search only when an
        # automorphism swaps its colours, and then one for the class
        calls = []
        real = cover.canonical_form

        def recording(h, *args, **kwargs):
            calls.append(bool(args or kwargs))
            return real(h, *args, **kwargs)

        monkeypatch.setattr(cover, "canonical_form", recording)
        g = disjoint_union([part] * 20, random.Random(41))
        r = stability_report(g)
        a = canonical_form(part).aut_order
        assert (r.aut_x_order, r.aut_bx_order) == (
            a ** 20 * math.factorial(20), a ** 40 * math.factorial(40))
        assert sum(calls) == coloured
        assert len(calls) > 1  # the shuffled copies are searched uncoloured


def colour_classes(g):
    """The colour classes of a connected bipartite g, vertex 0's first."""
    colour, queue = {0: 0}, [0]
    for v in queue:
        for u in range(g.n):
            if g.has_edge(u, v) and u not in colour:
                colour[u] = 1 - colour[v]
                queue.append(u)
    return tuple(tuple(v for v in range(g.n) if colour[v] == c) for c in (0, 1))


def vf2_union_order(g):
    """|Aut(g)| by networkx: VF2 sorts g's components into isomorphism
    classes and counts the automorphisms of each class's first member;
    k copies of C contribute |Aut(C)|^k k!."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    classes = []
    for nodes in nx.connected_components(h):
        c = h.subgraph(nodes)
        for cls in classes:
            if nx.is_isomorphic(cls[0], c):
                cls[1] += 1
                break
        else:
            classes.append([c, 1])
    out = 1
    for c, k in classes:
        count = sum(1 for _ in GraphMatcher(c, c).isomorphisms_iter())
        out *= count ** k * math.factorial(k)
    return out


def layers(n):
    """The two layers of the cover of an n-vertex graph."""
    return tuple(range(n)), tuple(range(n, 2 * n))


def unseeded_cover_form(g):
    """The layered cover search of g with no known automorphisms."""
    return canonical_form(double_cover(g), layers(g.n))


class TestSeededCoverSearch:
    # the layered cover search starts from the lifts of X's generators;
    # pruning by true automorphisms changes neither the canonical string
    # nor the order, only the relabelling and the generator list

    def check_equivalent(self, g):
        # Schreier-Sims runs on the seeded search's generators, which
        # include the lifts; the unseeded list is checked the same way
        # wherever automorphism_group is
        plain = unseeded_cover_form(g)
        seeded = cover._layered_cover_form(g, canonical_form(g))
        assert seeded.canonical_graph6 == plain.canonical_graph6
        order = group_from_generators(seeded.aut_generators, 2 * g.n).order()
        assert seeded.aut_order == plain.aut_order == order

    def test_every_connected_non_bipartite_graph_up_to_order_8(
            self, graphs_by_order):
        orders = {**graphs_by_order, 8: list(enumerate_graphs(8))}
        checked = 0
        for graphs in orders.values():
            for g in graphs:
                if is_connected(g) and not is_bipartite(g):
                    self.check_equivalent(g)
                    checked += 1
        assert checked == 11859

    @pytest.mark.parametrize("name, g, shuffles", [
        ("C9[Q3]", lex_product(cycle(9), cube(3)), 1),  # |Aut| ~ 10^16
        ("J(7,3)", johnson(7, 3), 3),
        ("Paley(29)", paley(29), 3),
    ], ids=["C9[Q3]", "J(7,3)", "Paley(29)"])
    def test_seeded_shuffles(self, name, g, shuffles):
        rng = random.Random(name)
        for _ in range(shuffles):
            self.check_equivalent(shuffled(g, rng))

    @pytest.mark.parametrize("g", [johnson(7, 3), paley(29)],
                             ids=["J(7,3)", "Paley(29)"])
    def test_seeds_save_leaves(self, monkeypatch, g):
        leaves = []

        class Recording(aut._Search):
            def _leaf(self, *args):
                leaves.append(self)
                super()._leaf(*args)

        cf = canonical_form(g)
        monkeypatch.setattr(aut, "_Search", Recording)
        plain = unseeded_cover_form(g)
        unseeded = len(leaves)
        leaves.clear()
        seeded = cover._layered_cover_form(g, cf)
        assert seeded.aut_order == plain.aut_order
        assert 0 < len(leaves) < unseeded

    def test_bad_seeds_raise(self):
        g = cycle(5)
        cov, cells = double_cover(g), layers(5)
        swap = list(range(10))
        swap[0], swap[1] = 1, 0  # keeps the layers, breaks edges
        tau_images = tuple(range(5, 10)) + tuple(range(5))  # swaps layers
        repeated = (1, 2, 3, 4, 0, 6, 7, 8, 9, 6)  # 6 twice, 5 never
        negative = (1, 2, 3, 4, 0, 6, 7, 8, 9, -5)  # -5 for 5
        for seed in (tuple(swap), tau_images, tuple(range(9)), repeated,
                     negative):
            with pytest.raises(SoundnessError):
                canonical_form(cov, cells, [seed])
        lift = (1, 2, 3, 4, 0, 6, 7, 8, 9, 5)
        assert canonical_form(cov, cells, [lift]).aut_order == 10

    def test_seeds_skipped_on_a_twin_quotient(self):
        # the cover of K4 minus an edge has twins, so the search runs on
        # its quotient and the seeds, which act on the cover, go unused
        g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        cov, cells = double_cover(g), layers(4)
        tau_images = tuple(range(4, 8)) + tuple(range(4))
        assert (canonical_form(cov, cells, [tau_images]).aut_order
                == unseeded_cover_form(g).aut_order)
