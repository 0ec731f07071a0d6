import io
import random

import pytest

from coverstab.graph_core import (Graph, GraphParseError, SoundnessError,
                                  parse_graph6, write_graph6, induced_subgraph,
                                  is_connected, is_bipartite, has_twins)
from coverstab.aut import canonical_form
from coverstab.cover import (is_cover_automorphism, is_expected,
                             stability_report)
from coverstab import census
from coverstab.census import (KNOWN_GRAPH_COUNTS, CensusRow, census_row,
                              enumerate_graphs, stream_graph6)
from coverstab.families import (complete_graph, extend_xab,
                                instability_witness, is_xab_realizable)

from oracles import (enumerate_graphs_naive, naive_closure, neighbour_sets,
                     random_graph, shuffled, xab_conditions,
                     xab_occurrence_naive)


class TestEnumeration:
    def test_counts_match_known_sequence(self, graphs_by_order):
        for n, graphs in graphs_by_order.items():
            assert len(graphs) == KNOWN_GRAPH_COUNTS[n]

    def test_pairwise_non_isomorphic(self, graphs_by_order):
        for n in (4, 5, 6):
            keys = {canonical_form(g).canonical_graph6
                    for g in graphs_by_order[n]}
            assert len(keys) == KNOWN_GRAPH_COUNTS[n]

    def test_matches_naive_dedup(self):
        for n in range(1, 7):
            naive = {canonical_form(g).canonical_graph6
                     for g in enumerate_graphs_naive(n)}
            orderly = {canonical_form(g).canonical_graph6
                       for g in enumerate_graphs(n)}
            assert naive == orderly

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            list(enumerate_graphs(0))
        with pytest.raises(ValueError, match="stream"):
            list(enumerate_graphs(10))

    def test_few_children_labelled(self, monkeypatch):
        # Children are filtered on (degree, sorted neighbour degrees)
        # before any labelling: 742 calls at order 7, where labelling
        # every child takes 5966.
        calls = []
        real = census.canonical_form

        def counting(g, *args, **kwargs):
            calls.append(g)
            return real(g, *args, **kwargs)

        monkeypatch.setattr(census, "canonical_form", counting)
        assert sum(1 for _ in enumerate_graphs(7)) == KNOWN_GRAPH_COUNTS[7]
        assert len(calls) <= 1000

    def test_degree_prefilter_keeps_the_new_vertex_on_top(self, monkeypatch):
        # _augment skips a mask unbuilt when an old vertex's degree would
        # exceed the new vertex's, so every child that reaches the key test
        # has its new vertex at the largest degree, and the counts hold;
        # from order 6 to 7 it builds 1401 of the 5096 masks tried
        tried, built = [], []
        real_masks, real_keys = (census._subset_orbit_reps,
                                 census._deletion_candidates)

        def masks(m, gens):
            tried.extend([m + 1] * len(found := real_masks(m, gens)))
            return found

        def checked(rows):
            degrees = [row.bit_count() for row in rows]
            assert max(degrees) == degrees[-1]
            built.append(len(rows))
            return real_keys(rows)

        monkeypatch.setattr(census, "_subset_orbit_reps", masks)
        monkeypatch.setattr(census, "_deletion_candidates", checked)
        for n in range(1, 8):
            assert sum(1 for _ in enumerate_graphs(n)) == KNOWN_GRAPH_COUNTS[n]
        assert 2 * built.count(7) < tried.count(7)

    def test_subset_orbit_reps_match_naive_closure(self):
        # the least mask of each orbit of the closure acting on subsets,
        # in ascending order, for seeded generator sets of 0-3 elements
        rng = random.Random(17)
        for _ in range(60):
            m = rng.randrange(0, 7)
            gens = []
            for _ in range(rng.randrange(0, 4)):
                images = list(range(m))
                rng.shuffle(images)
                gens.append(tuple(images))
            closure = naive_closure(gens, m)
            expected = sorted({min(sum(1 << p[v] for v in range(m)
                                       if mask >> v & 1) for p in closure)
                               for mask in range(1 << m)})
            assert census._subset_orbit_reps(m, gens) == expected

    def test_matches_networkx_atlas(self):
        nx = pytest.importorskip("networkx")
        atlas = {}
        for h in nx.graph_atlas_g():
            n = h.number_of_nodes()
            if n:
                g = Graph(n, h.edges())
                atlas.setdefault(n, set()).add(
                    canonical_form(g).canonical_graph6)
        for n in range(1, 8):
            ours = {canonical_form(g).canonical_graph6
                    for g in enumerate_graphs(n)}
            assert ours == atlas[n], n


class TestStreamGraph6:
    def test_two_records(self):
        graphs = list(stream_graph6(io.StringIO("A_\nBw\n")))
        assert graphs == [Graph(2, [(0, 1)]), complete_graph(3)]

    def test_blank_lines_skipped(self):
        graphs = list(stream_graph6(io.StringIO("\nA_\n\n\nBw\n")))
        assert len(graphs) == 2

    def test_empty_stream(self):
        assert list(stream_graph6(io.StringIO(""))) == []

    def test_error_cites_line(self):
        with pytest.raises(GraphParseError, match="line 3"):
            list(stream_graph6(io.StringIO("A_\nBw\n&&&\n")))


def assert_xab_witness(g, w):
    # the occurrence found in g meets the six conditions, and A and B are
    # the neighbourhoods outside the four that a1, a2 and b1, b2 share; its
    # instability_witness is an unexpected involution of the cover of g,
    # which certifies that g is unstable
    nbr = neighbour_sets(g)
    four = {w.a1, w.a2, w.b1, w.b2}
    assert w.result is g and w.a1 < w.a2
    assert xab_conditions(nbr, w.a1, w.a2, w.b1, w.b2)
    assert w.A == nbr[w.a1] - four and w.B == nbr[w.b1] - four
    images = instability_witness(w)
    assert is_cover_automorphism(g, images) and not is_expected(g, images)
    assert tuple(images[x] for x in images) == tuple(range(2 * g.n))
    assert not stability_report(g).stable


class TestXabRealizable:
    def test_literal_definition_on_every_graph_to_order_8(
            self, graphs_by_order):
        graphs = [g for n in range(1, 8) for g in graphs_by_order[n]]
        graphs += enumerate_graphs(8)
        assert len(graphs) == 13598
        found = 0
        for g in graphs:
            w = is_xab_realizable(g)
            assert (w is None) == (xab_occurrence_naive(g) is None), (
                write_graph6(g))
            if w is not None:
                assert_xab_witness(g, w)
                found += 1
        assert found == 663

    def test_literal_definition_on_seeded_extensions(self):
        # shuffled extensions of random graphs, up to order 30, each also
        # with one vertex pair toggled, which may destroy every occurrence
        rng = random.Random(20)
        toggled_found = 0
        for _ in range(30):
            n = rng.randrange(1, 27)
            x = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            A = rng.sample(range(n), rng.randrange(0, n + 1))
            B = rng.sample(range(n), rng.randrange(0, n + 1))
            g = shuffled(extend_xab(x, A, B).result, rng)
            u, v = rng.sample(range(g.n), 2)
            rows = list(g.adj)
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
            toggled = Graph.from_rows(rows)
            for h in (g, toggled):
                w = is_xab_realizable(h)
                assert (w is None) == (xab_occurrence_naive(h) is None)
                if w is not None:
                    assert_xab_witness(h, w)
            assert is_xab_realizable(g) is not None
            toggled_found += is_xab_realizable(toggled) is not None
        assert 0 < toggled_found < 30

    def test_constructed_instance(self):
        # the occurrence found is the record built, and the census binds
        # the one finder
        e = extend_xab(complete_graph(3), {0}, frozenset())
        assert is_xab_realizable(e.result) == e
        assert census.is_xab_realizable is is_xab_realizable

    def test_complete_graph_not_realizable(self):
        assert is_xab_realizable(complete_graph(5)) is None

    def test_witness_reconstructs_input_exactly(self):
        rng = random.Random(77)
        produced = 0
        while produced < 30:
            n = rng.randrange(3, 7)
            x = random_graph(rng, n, 0.5)
            A = set(rng.sample(range(n), rng.randrange(0, n + 1)))
            B = set(rng.sample(range(n), rng.randrange(0, n + 1)))
            g = extend_xab(x, A, B).result
            w = is_xab_realizable(g)
            assert_xab_witness(g, w)
            produced += 1
            # rebuild from the witness and compare against the relabeling
            # that sends the four special vertices to the last positions
            keep = [v for v in range(g.n)
                    if v not in (w.a1, w.a2, w.b1, w.b2)]
            stripped, remap = induced_subgraph(g, keep)
            ext = extend_xab(stripped,
                             {remap[v] for v in w.A},
                             {remap[v] for v in w.B})
            images = [0] * g.n
            for old, new in remap.items():
                images[old] = new
            m = stripped.n
            images[w.a1], images[w.a2] = m, m + 1
            images[w.b1], images[w.b2] = m + 2, m + 3
            assert g.relabel(images) == ext.result

    def test_five_vertex_unique_ntu_graph(self, graphs_by_order):
        ntu = [g for g in graphs_by_order[5]
               if is_connected(g) and not is_bipartite(g) and not has_twins(g)
               and not stability_report(g).stable]
        assert len(ntu) == 1
        assert is_xab_realizable(ntu[0]) is not None


class TestCensusRow:
    def test_rows_small(self):
        assert census_row(3) == CensusRow(3, 1, 0, 0)
        assert census_row(4) == CensusRow(4, 2, 0, 0)
        assert census_row(5) == CensusRow(5, 10, 1, 1)
        assert census_row(6) == CensusRow(6, 56, 6, 5)

    def test_monotone_chain(self):
        for n in (5, 6):
            row = census_row(n)
            assert row.count_xab <= row.count_ntu <= row.count_cnbtf

    def test_stream_source_matches_builtin(self, graphs_by_order):
        lines = [write_graph6(g) for g in graphs_by_order[6]]
        row = census_row(6, source=iter(lines))
        assert row == census_row(6)

    def test_stream_order_mismatch_rejected(self):
        with pytest.raises(GraphParseError, match="order"):
            census_row(5, source=iter(["A_"]))

    def test_ntu_collection_reverifies(self, graphs_by_order):
        row = census_row(6)
        assert len(row.ntu) == row.count_ntu == 6
        for line in row.ntu:
            g = parse_graph6(line)
            assert is_connected(g) and not is_bipartite(g) and not has_twins(g)
            r = stability_report(g)
            assert r.aut_bx_order > 2 * r.aut_x_order

    @pytest.mark.parametrize("n", range(1, 8))
    def test_parallel_agrees(self, monkeypatch, n):
        # n <= 2 has no order-(n-2) roots and runs as one pooled task
        import os
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        seq = census_row(n)
        par = census_row(n, threads=2)
        assert seq == par
        assert seq.ntu == par.ntu

    def test_pool_workers_generate_the_last_two_orders(self, monkeypatch):
        # The parent builds only the order-(n-2) roots: it augments graphs
        # of order at most n-3. Workers are forked with the recording
        # wrapper, but what they record stays in their own memory.
        import os
        orders = []
        real = census._augment
        monkeypatch.setattr(census, "_augment",
                            lambda g: orders.append(g.n) or real(g))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        row = census_row(7, threads=2)
        assert orders and max(orders) <= 4
        assert row == census_row(7)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_count_check_raises_after_streaming(self, monkeypatch, threads):
        # The count check runs after the last graph is yielded. Serially
        # enumerate_graphs, whose graphs are the tasks' roots, raises it
        # as census_row draws past the last one; pooled, the workers walk
        # subtrees without a check and census_row raises it from the sum
        # of the task counts.
        import os
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setitem(KNOWN_GRAPH_COUNTS, 6, 155)
        with pytest.raises(SoundnessError, match="156 graphs of order 6"):
            census_row(6, threads=threads)

    def test_thread_count_clamped_to_cpus(self, monkeypatch):
        import multiprocessing
        import os
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        # the affinity mask bounds the pool, not the machine's CPU count
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7},
                            raising=False)
        assert census_row(5, threads=10 ** 6) == census_row(5)
        assert sizes == [3]
        # a platform without affinity masks falls back to the CPU count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert census_row(5, threads=10 ** 6) == census_row(5)
        assert sizes == [3, 2]
        with pytest.raises(ValueError, match="threads"):
            census_row(5, threads=0)
