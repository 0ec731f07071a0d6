import dataclasses
import json
import random
import sys
import tracemalloc

import pytest

from coverstab import criteria, graph_core
from coverstab.aut import orbit_representatives, vertex_orbits
from coverstab.census import enumerate_graphs
from coverstab.graph_core import (Graph, bfs_distances, bits, diameter,
                                  is_connected, has_twins)
from coverstab.cover import stability_report
from coverstab.criteria import (SrgParams, IntersectionArray, SoundnessError,
                                CriterionVerdict, srg_params,
                                intersection_array,
                                check_triangle_distance_growth,
                                check_distance_regular,
                                check_common_neighbor_separation,
                                check_srg_distinct_counts,
                                check_triangle_free_diam2,
                                check_srg_triangle_free,
                                check_srg_instability_constraint,
                                criteria_summary)
from coverstab.families import (complete_graph, cycle, petersen, johnson,
                                lex_product, lexcycle)

from oracles import cube, paley, random_graph


def distance_regular_corpus():
    """Cycles C_n for 3 <= n <= 40, J(n,k) for n <= 9, Petersen and the
    Paley graphs of prime order p <= 29."""
    return ([cycle(n) for n in range(3, 41)]
            + [johnson(n, k) for n in range(2, 10) for k in range(1, n)]
            + [petersen()] + [paley(p) for p in (5, 13, 17, 29)])


def growth_walk(g):
    """The growth hypothesis that check_triangle_distance_growth reports
    failed, found by walking every vertex with bfs_distances, or None."""
    for x in range(g.n):
        dist = bfs_distances(g, x)
        if 2 not in dist:
            return f"second shell of vertex {x} is empty"
        for j in (2, 3):
            if not all(any(dist[u] == j + 1 for u in bits(g.adj[v]))
                       for v in range(g.n) if dist[v] == j):
                return (f"a distance-{j} vertex from {x} has no neighbour "
                        f"at distance {j + 1}")
    return None



class TestSrgParams:
    def test_named(self):
        assert srg_params(petersen()) == SrgParams(10, 3, 0, 1)
        assert srg_params(johnson(6, 2)).as_tuple() == (15, 8, 4, 4)
        assert srg_params(johnson(7, 2)).as_tuple() == (21, 10, 5, 4)
        assert srg_params(cycle(5)).as_tuple() == (5, 2, 0, 1)

    def test_not_srg(self):
        assert srg_params(Graph(3, [(0, 1), (1, 2)])) is None  # irregular
        assert srg_params(complete_graph(5)) is None  # diameter 1
        assert srg_params(cycle(6)) is None  # diameter 3
        assert srg_params(johnson(6, 3)) is None  # diameter 3

    def test_definition_exhaustively(self, graphs_by_order):
        # both ways against the definition, by pair counts, on every graph
        # of order <= 7: connected of diameter 2 means some pair is
        # non-adjacent and every non-adjacent pair has a common neighbour
        found = []
        for n in range(1, 8):
            for g in graphs_by_order[n]:
                degrees = {g.degree(v) for v in range(g.n)}
                lam, mu = set(), set()
                for u in range(g.n):
                    for v in range(u + 1, g.n):
                        common = (g.adj[u] & g.adj[v]).bit_count()
                        (lam if g.has_edge(u, v) else mu).add(common)
                strongly_regular = (len(degrees) == 1 and len(lam) == 1
                                    and len(mu) == 1 and 0 not in mu)
                p = srg_params(g)
                assert (p is not None) == strongly_regular, g
                if p is not None:
                    assert p == SrgParams(g.n, degrees.pop(), lam.pop(),
                                          mu.pop())
                    found.append(p.as_tuple())
        # C4, C5, K3,3 and the octahedron K2,2,2
        assert sorted(found) == [(4, 2, 0, 2), (5, 2, 0, 1), (6, 3, 0, 3),
                                 (6, 4, 2, 4)]

    def test_twin_free_iff_k_gt_mu(self, graphs_by_order):
        for g in graphs_by_order[6] + graphs_by_order[7][::5]:
            p = srg_params(g)
            if p is not None:
                assert (not has_twins(g)) == (p.k > p.mu)


class TestIntersectionArray:
    def test_petersen(self):
        assert intersection_array(petersen()) == IntersectionArray((3, 2), (1, 1))

    def test_cycles(self):
        # odd cycle: the two antipodal-layer vertices are adjacent, so c_d=1
        assert intersection_array(cycle(9)) == IntersectionArray(
            (2, 1, 1, 1), (1, 1, 1, 1))
        assert intersection_array(cycle(8)) == IntersectionArray(
            (2, 1, 1, 1), (1, 1, 1, 2))

    def test_johnson(self):
        arr = intersection_array(johnson(9, 4))
        n, k = 9, 4
        assert arr.b == tuple((k - j) * (n - k - j) for j in range(4))
        assert arr.c == tuple(j * j for j in range(1, 5))

    def test_not_distance_regular(self):
        assert intersection_array(Graph(4, [(0, 1), (1, 2), (2, 3)])) is None
        # regular but not distance-regular: two triangles joined by a
        # perfect matching is vertex-transitive and 3-regular
        prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                          (0, 3), (1, 4), (2, 5)])
        # lambda is 1 on the triangle edges and 0 on the matching edges
        assert intersection_array(prism) is None
        assert srg_params(prism) is None
        non_dr = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
        assert intersection_array(non_dr) is None

    def test_per_pair_definition(self, graphs_by_order, rook_4x4, shrikhande):
        corpus = graphs_by_order[6] + [
            petersen(), johnson(6, 2), johnson(6, 3), johnson(7, 3),
            cycle(8), cycle(9), rook_4x4, shrikhande,
        ]
        checked = 0
        for g in corpus:
            arr = intersection_array(g)
            if arr is None:
                continue
            checked += 1
            assert arr.b[0] == g.degree(0)
            assert arr.c[0] == 1
            for x in range(g.n):
                dist = bfs_distances(g, x)
                for y in range(g.n):
                    j = dist[y]
                    if j == 0:
                        continue
                    up = sum(1 for z in bits(g.adj[y]) if dist[z] == j + 1)
                    down = sum(1 for z in bits(g.adj[y]) if dist[z] == j - 1)
                    assert down == arr.c[j - 1]
                    if j < arr.d:
                        assert up == arr.b[j]
                    else:
                        assert up == 0
        assert checked > 10


class TestTriangleDistanceGrowth:
    def test_complete_graph_excluded(self):
        v = check_triangle_distance_growth(complete_graph(5))
        assert not v.applies
        assert any("second shell" in h for h in v.failed_hypotheses)

    def test_lex_cycle_product_fails_growth(self):
        v = check_triangle_distance_growth(lex_product(cycle(8), cycle(6)))
        assert not v.applies
        assert any("distance-2" in h for h in v.failed_hypotheses)

    def test_johnson_applies(self):
        v = check_triangle_distance_growth(johnson(9, 4))
        assert v.applies and v.implied == "stable"


class TestGrowthOnDistanceRegularGraphs:
    # on a distance-regular graph the growth holds exactly when d >= 4, and
    # a failing walk fails at vertex 0, so the checker walks at most vertex
    # 0 once the array is known

    def test_verdict_matches_a_walk_from_every_vertex(self, monkeypatch):
        calls = []
        real = graph_core.bfs_layers

        def counting(h, x):
            calls.append(x)
            return real(h, x)

        monkeypatch.setattr(criteria, "bfs_layers", counting)
        diameters = set()
        for g in distance_regular_corpus():
            arr = intersection_array(g)
            assert arr is not None
            diameters.add(min(arr.d, 4))
            calls.clear()
            verdict = check_triangle_distance_growth(g)
            assert calls == ([] if arr.d >= 4 else [0])
            failed = [h for h in verdict.failed_hypotheses
                      if h != "an edge lies on no triangle"]
            walk = growth_walk(g)
            assert failed == ([] if walk is None else [walk])
            assert (walk is None) == (arr.d >= 4)
        assert diameters == {1, 2, 3, 4}

    def test_other_graphs_walk_as_before(self, graphs_by_order):
        for g in graphs_by_order[7]:
            if is_connected(g) and intersection_array(g) is None:
                failed = [h for h in check_triangle_distance_growth(
                    g).failed_hypotheses if h != "an edge lies on no triangle"]
                walk = growth_walk(g)
                assert failed == ([] if walk is None else [walk])


class TestDistanceRegularGrowth:
    def test_petersen_diameter_too_small(self):
        v = check_distance_regular(petersen())
        assert not v.applies and "diameter 2 < 4" in v.failed_hypotheses

    def test_cycle_no_triangles(self):
        v = check_distance_regular(cycle(9))
        assert not v.applies
        assert any("b0" in h or "diameter" in h for h in v.failed_hypotheses)

    def test_johnson_applies(self):
        v = check_distance_regular(johnson(9, 4))
        assert v.applies and v.implied == "stable"

    def test_every_array_has_positive_b(self):
        # b_j >= 1 for j < d: layer j + 1 is non-empty and each of its
        # vertices has a neighbour in layer j, so the paper's b2, b3 >= 1
        # hold whenever d >= 4
        arrays = [arr for g in distance_regular_corpus()
                  + [g for n in range(1, 9) for g in enumerate_graphs(n)]
                  if (arr := intersection_array(g)) is not None]
        assert len(arrays) > 60
        assert all(len(arr.b) == arr.d and min(arr.b) >= 1 for arr in arrays)
        assert any(arr.d >= 4 for arr in arrays)


class TestCommonNeighborSeparation:
    def test_johnson_7_2(self):
        v = check_common_neighbor_separation(johnson(7, 2))
        assert v.applies and v.implied == "stable"

    def test_johnson_6_2_counts_collide(self):
        v = check_common_neighbor_separation(johnson(6, 2))
        assert not v.applies
        assert any("4" in h for h in v.failed_hypotheses)

    def test_complete_graph_vacuous(self):
        # no distance-2 pairs at all: disjointness holds vacuously
        v = check_common_neighbor_separation(complete_graph(4))
        assert v.applies


class TestSrgCheckers:
    def test_distinct_counts(self):
        assert check_srg_distinct_counts(johnson(7, 2)).applies
        assert not check_srg_distinct_counts(petersen()).applies  # lambda 0
        assert not check_srg_distinct_counts(cycle(5)).applies

    def test_distinct_counts_implies_separation(self, graphs_by_order):
        for g in graphs_by_order[6] + graphs_by_order[7][::7]:
            if check_srg_distinct_counts(g).applies:
                assert check_common_neighbor_separation(g).applies

    def test_triangle_free_srg_implies_triangle_free_diam2(
            self, graphs_by_order, clebsch):
        corpus = [g for n in range(1, 8) for g in graphs_by_order[n]]
        corpus += [petersen(), clebsch]
        applying = [g for g in corpus if check_srg_triangle_free(g).applies]
        assert petersen() in applying and clebsch in applying
        for g in applying:
            assert check_triangle_free_diam2(g).applies

    def test_triangle_free_srg(self):
        assert check_srg_triangle_free(petersen()).applies
        k33 = Graph(6, [(a, b + 3) for a in range(3) for b in range(3)])
        v = check_srg_triangle_free(k33)
        assert not v.applies  # k = mu
        assert not check_srg_triangle_free(johnson(7, 2)).applies

    def test_constraint_checker(self):
        v = check_srg_instability_constraint(johnson(6, 2))
        assert v.applies and v.implied == "constraint"
        assert "lambda = mu > 0" in v.constraint
        assert not check_srg_instability_constraint(
            Graph(3, [(0, 1), (1, 2)])).applies


class TestTriangleFreeDiam2:
    def test_petersen(self):
        v = check_triangle_free_diam2(petersen())
        assert v.applies and v.implied == "stable"

    def test_pentagon(self):
        assert check_triangle_free_diam2(cycle(5)).applies

    def test_triangle_rejected(self):
        v = check_triangle_free_diam2(complete_graph(3))
        assert not v.applies
        assert any("triangle" in h for h in v.failed_hypotheses)


def second_shell_split(g, x):
    """Split the distance-2 shell of x into the vertices having a neighbour
    inside the shell and the rest. For connected non-bipartite
    triangle-free graphs of diameter 2 the first part is never empty
    (otherwise the shell plus neighbourhood structure would 2-colour the
    graph)."""
    shell = {v for v in range(g.n)
             if v != x and not g.has_edge(x, v)
             and any(g.has_edge(x, w) and g.has_edge(w, v) for w in range(g.n))}
    inner = frozenset(v for v in shell if any(g.has_edge(v, w) for w in shell))
    return inner, frozenset(shell) - inner


class TestSecondShellSplit:
    def test_petersen_all_in_split(self):
        inner, outer = second_shell_split(petersen(), 0)
        assert len(inner) == 6 and not outer

    def test_pentagon(self):
        inner, outer = second_shell_split(cycle(5), 0)
        assert inner == frozenset({2, 3}) and not outer

    def test_star_empty(self):
        inner, outer = second_shell_split(Graph(4, [(0, 1), (0, 2), (0, 3)]), 0)
        assert not inner and not outer

    def test_nonempty_for_triangle_free_diam2(self, graphs_by_order):
        # the split's inner part is non-empty for every vertex of every
        # connected non-bipartite triangle-free diameter-2 graph
        from coverstab.graph_core import structural_profile
        for n in (5, 6, 7):
            for g in graphs_by_order[n]:
                prof = structural_profile(g)
                if not (prof.connected and not prof.bipartite
                        and prof.triangle_free and prof.diameter == 2):
                    continue
                for x in range(g.n):
                    inner, _ = second_shell_split(g, x)
                    assert inner


class TestCriteriaSummary:
    def test_johnson_7_2(self):
        verdicts = criteria_summary(johnson(7, 2))
        applying = {v.criterion for v in verdicts if v.applies and v.implied == "stable"}
        assert "common-neighbor-separation" in applying
        assert stability_report(johnson(7, 2)).stable

    def test_lex_product_no_criterion(self):
        g = lex_product(cycle(8), cycle(6))
        verdicts = criteria_summary(g)
        assert not any(v.applies and v.implied == "stable" for v in verdicts)
        assert stability_report(g).classification == "nontrivially_unstable"

    def test_even_cycle_no_criterion(self):
        verdicts = criteria_summary(cycle(6))
        assert not any(v.applies and v.implied == "stable" for v in verdicts)
        assert stability_report(cycle(6)).classification == "trivially_unstable"

    @pytest.mark.parametrize("criterion, literal", [
        ("srg-equal-counts-necessary",
         '{"criterion": "srg-equal-counts-necessary", "applies": true, '
         '"failed_hypotheses": [], "implied": "constraint", '
         '"constraint": "nontrivially unstable => lambda = mu > 0", '
         '"detail": "srg(10, 3, 0, 1)"}'),
        ("srg-triangle-free",
         '{"criterion": "srg-triangle-free", "applies": true, '
         '"failed_hypotheses": [], "implied": "stable", '
         '"detail": "srg(10, 3, 0, 1)"}'),
        ("common-neighbor-separation",
         '{"criterion": "common-neighbor-separation", "applies": false, '
         '"failed_hypotheses": ["an edge lies on no triangle"], '
         '"implied": "none"}'),
    ])
    def test_verdict_json_shape(self, criterion, literal):
        # the non-None fields in declaration order, tuples as lists
        [v] = [v for v in criteria_summary(petersen())
               if v.criterion == criterion]
        out = v.as_dict()
        assert list(out) == [f.name for f in dataclasses.fields(v)
                             if getattr(v, f.name) is not None]
        assert type(out["failed_hypotheses"]) is list
        assert json.dumps(out) == literal

    def test_soundness_error_on_forced_disagreement(self, monkeypatch):
        import coverstab.criteria as criteria_mod
        g = johnson(7, 2)
        real = stability_report(g)
        fake = type(real)(**{**real.__dict__, "stable": False,
                             "aut_bx_order": 4 * real.aut_x_order,
                             "instability_index": 2})
        monkeypatch.setattr(criteria_mod, "stability_report", lambda _:  fake)
        with pytest.raises(SoundnessError):
            criteria_summary(g)


def test_soundness_sweep_sample(graphs_by_order):
    # every checker that claims stability on a random n<=6 slice is right
    rng = random.Random(11)
    pool = graphs_by_order[5] + rng.sample(graphs_by_order[6], 60)
    for g in pool:
        criteria_summary(g)  # raises SoundnessError on any violation


def test_unstable_srgs_have_equal_positive_counts(rook_4x4, shrikhande):
    # two 16-vertex strongly regular graphs that really are non-trivially
    # unstable; the necessary condition lambda = mu > 0 must hold, and no
    # stability criterion may claim them
    for g in (rook_4x4, shrikhande):
        p = srg_params(g)
        assert p.as_tuple() == (16, 6, 2, 2)
        assert p.lambda_ == p.mu > 0
        r = stability_report(g)
        assert r.classification == "nontrivially_unstable"
        verdicts = criteria_summary(g)
        assert not any(v.applies and v.implied == "stable" for v in verdicts)
    assert stability_report(rook_4x4).instability_index == 10
    assert stability_report(shrikhande).instability_index == 60


def path(n):
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


class TestOrbitWalk:
    # every all-sources walk starts from the least vertex of each orbit;
    # walking every vertex instead must give the same summary

    @staticmethod
    def summary(g):
        fresh = Graph.from_rows(g.adj)  # no memoized criteria facts
        return json.dumps([v.as_dict() for v in criteria_summary(fresh)])

    def test_orbit_walk_equals_full_walk(self, graphs_by_order, monkeypatch):
        pool = [g for n in range(1, 8) for g in graphs_by_order[n]]
        pool += distance_regular_corpus()
        pool += [lex_product(cycle(m), cube(3))  # C_m[Q3]
                 for m in (3, 4, 5, 8)]
        pool += [path(n) for n in (2, 3, 4, 9, 40)]
        pool += [random_graph(random.Random(40), 40, 0.5)]
        assert sum(len(orbit_representatives(g)) < g.n for g in pool) > 100
        by_orbit = [self.summary(g) for g in pool]
        monkeypatch.setattr(criteria, "orbit_representatives",
                            lambda g: range(g.n))
        assert [self.summary(g) for g in pool] == by_orbit


class TestSharedDistanceTable:
    @pytest.mark.parametrize("make, orbits", [
        (petersen, 1),
        (lambda: random_graph(random.Random(40), 40, 0.5), 40),
        (lambda: cycle(601), 1),
    ], ids=["Petersen", "G(40,1/2)", "C601"])
    def test_one_bfs_per_vertex(self, make, orbits, monkeypatch):
        # no walk stores per-vertex layers; the growth checker stops at its
        # first failing vertex, and both it and the diameter-2 checker read
        # a distance-regular graph off the memoized intersection array, so
        # only one of the array and the diameter walks, from one vertex per
        # orbit
        assert len(vertex_orbits(make())) == orbits
        g = make()
        assert is_connected(g)
        calls = []
        real = graph_core.bfs_layers

        def counting(h, x):
            calls.append(x)
            return real(h, x)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "coverstab"
                    and getattr(module, "bfs_layers", None) is real):
                monkeypatch.setattr(module, "bfs_layers", counting)
        criteria_summary(g)
        assert len(calls) <= orbits + 10

    def test_long_cycle_summary_stores_no_layer_table(self):
        # C_601 is distance-regular of diameter 300, so the intersection
        # array visits every vertex; a table of every vertex's layers
        # peaked at 15 MiB here, and the unstored walks peak at 0.1 MiB
        g = cycle(601)
        tracemalloc.start()
        try:
            criteria_summary(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("make", [
        lambda: Graph(13, [(i, j) for i in range(13) for j in range(i + 1, 13)
                           if pow(j - i, 6, 13) == 1]),
        petersen,
        lambda: johnson(6, 3),
    ], ids=["Paley(13)", "Petersen", "J(6,3)"])
    def test_one_intersection_array_per_graph(self, make, monkeypatch):
        # the distance-regular checker and the three strongly regular ones
        # all read the memoized intersection array, so a summary computes
        # it once: a call that finds no cached array is a computation
        g = make()
        computed = []
        real = intersection_array

        def counting(h):
            if "intersection_array" not in h._cache:
                computed.append(h)
            return real(h)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "coverstab"
                    and getattr(module, "intersection_array", None) is real):
                monkeypatch.setattr(module, "intersection_array", counting)
        criteria_summary(g)
        assert intersection_array(g) is not None
        assert len(computed) == 1

    @pytest.mark.parametrize("fact", [
        "triangle_flags", "check_common_neighbor_separation"])
    @pytest.mark.parametrize("make", [
        lambda: johnson(7, 2),
        lambda: johnson(6, 3),
        petersen,
        lambda: random_graph(random.Random(41), 30, 0.6),
    ], ids=["J(7,2)", "J(6,3)", "Petersen", "G(30,0.6)"])
    def test_each_graph_fact_computed_once(self, fact, make):
        # three checkers read the triangle flags, and the strongly regular
        # one cross-checks the separation verdict; both are computed once
        # and stored in the graph's cache, which here records each store
        g = make()
        stores = []

        class RecordingCache(dict):
            def __setitem__(self, key, value):
                stores.append(key)
                super().__setitem__(key, value)

        g._cache = RecordingCache()
        verdicts = criteria_summary(g)
        assert stores.count(fact) == 1
        assert verdicts == criteria_summary(make())

    def test_separation_cross_check_reads_the_memo(self):
        # a memoized separation verdict that contradicts the strongly
        # regular criterion still raises SoundnessError
        assert check_srg_distinct_counts(johnson(7, 2)).applies
        g = johnson(7, 2)
        g._cache["check_common_neighbor_separation"] = CriterionVerdict(
            "common-neighbor-separation", False, ("forced",))
        with pytest.raises(SoundnessError, match="special case"):
            check_srg_distinct_counts(g)

    @pytest.mark.parametrize("special, general, make", [
        (check_srg_triangle_free, "check_triangle_free_diam2", petersen),
        (check_distance_regular, "check_triangle_distance_growth",
         lambda: johnson(8, 4)),
    ], ids=["srg-triangle-free", "distance-regular-growth"])
    def test_special_case_checks_its_general_criterion(
            self, special, general, make, monkeypatch):
        # a triangle-free srg with k > mu is twin-free, non-bipartite and of
        # diameter 2; a distance-regular graph with b0 > b1 + 1 has every
        # edge on a triangle, and d >= 4 gives the shells. The general
        # checker runs where the special case holds, reading the memoized
        # array and layers with no BFS, and only there; when it does not
        # apply, the special case raises SoundnessError
        g = make()
        criteria_summary(g)
        calls = []
        real = graph_core.bfs_layers
        monkeypatch.setattr(graph_core, "bfs_layers",
                            lambda h, x: calls.append(x) or real(h, x))
        monkeypatch.setattr(criteria, "bfs_layers", graph_core.bfs_layers)
        assert special(g).applies and getattr(criteria, general)(g).applies
        assert not calls
        forced = CriterionVerdict(general, False, ("forced",))
        ran = []
        monkeypatch.setattr(criteria, general,
                            lambda h: ran.append(h) or forced)
        assert not special(johnson(6, 2)).applies and not ran
        with pytest.raises(SoundnessError, match="special case"):
            special(g)
        assert ran == [g]

    def test_agrees_with_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(314)
        pool = [johnson(6, 3), petersen(), lexcycle(8, cycle(6)),
                complete_graph(5), cycle(9)]
        while len(pool) < 65:
            g = random_graph(rng, rng.randrange(2, 15),
                             rng.choice([0.2, 0.35, 0.5, 0.8]))
            if is_connected(g):
                pool.append(g)
        for g in pool:
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            assert diameter(g) == nx.diameter(h)
            try:
                expected = nx.intersection_array(h)
            except nx.NetworkXError:
                expected = None
            arr = intersection_array(g)
            got = None if arr is None else (list(arr.b), list(arr.c))
            assert got == expected
