"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line. Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random

from coverstab.graph_core import (is_connected, is_bipartite, has_twins,
                                  structural_profile)
from coverstab.aut import automorphism_group, vertex_orbits
from coverstab.cover import (double_cover, is_fiber_preserving,
                             stability_report)
from coverstab.criteria import srg_params, criteria_summary, SoundnessError
from coverstab.families import (complete_graph, cycle, johnson, lex_product,
                                extend_xab, instability_witness)
from coverstab.census import census_row
from coverstab.perms import _mul

from oracles import brute_force_aut_count, expected_group, random_graph


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"acceptance criterion {number} failed: {name} {suffix}"


TABLE = {
    3: (1, 0, 0),
    4: (2, 0, 0),
    5: (10, 1, 1),
    6: (56, 6, 5),
    7: (498, 43, 37),
}


def test_criterion_1_census_table_rows():
    mismatches = []
    for n, expected in TABLE.items():
        row = census_row(n)
        got = (row.count_cnbtf, row.count_ntu, row.count_xab)
        if got != expected:
            mismatches.append((n, got, expected))
    _report(1, "census counts for orders 3..7", not mismatches,
            "exact match" if not mismatches else str(mismatches))


def test_criterion_1b_census_order_8():
    row = census_row(8)
    got = (row.count_cnbtf, row.count_ntu, row.count_xab)
    _report("1b", "census counts for order 8", got == (7397, 395, 330), str(got))


def test_criterion_2_johnson_classification():
    failures = []
    r = stability_report(johnson(6, 2))
    if not (r.classification == "nontrivially_unstable"
            and r.instability_index == 28):
        failures.append(f"J(6,2): {r.classification}/{r.instability_index}")
    r = stability_report(johnson(6, 3))
    if not (r.classification == "nontrivially_unstable"
            and r.instability_index == 2):
        failures.append(f"J(6,3): {r.classification}/{r.instability_index}")
    r = stability_report(johnson(2, 1))
    if not (r.classification == "trivially_unstable"
            and "bipartite_with_nontrivial_aut" in r.reasons):
        failures.append(f"J(2,1): {r.classification}/{r.reasons}")
    r = stability_report(johnson(4, 2))
    if not (r.classification == "trivially_unstable"
            and "has_twins" in r.reasons):
        failures.append(f"J(4,2): {r.classification}/{r.reasons}")
    unstable = {(2, 1), (4, 2), (6, 2), (6, 3), (6, 4)}
    for n in range(1, 8):
        for k in range(1, n + 1):
            if (n, k) in unstable:
                continue
            if not stability_report(johnson(n, k)).stable:
                failures.append(f"J({n},{k}) not stable")
    # J(6,4) mirrors J(6,2) through the complement isomorphism
    r = stability_report(johnson(6, 4))
    if not (r.classification == "nontrivially_unstable"
            and r.instability_index == 28):
        failures.append(f"J(6,4): {r.classification}/{r.instability_index}")
    _report(2, "Johnson graph classification, n <= 7", not failures,
            "; ".join(failures) if failures else "indices 28 and 2 reproduced")


def test_criterion_3_complete_graphs_and_cycles():
    failures = []
    for n in range(2, 9):
        if stability_report(complete_graph(n)).stable != (n != 2):
            failures.append(f"K{n}")
    for n in range(3, 11):
        if stability_report(cycle(n)).stable != (n % 2 == 1):
            failures.append(f"C{n}")
    _report(3, "complete graphs unstable iff order 2; cycles by parity",
            not failures, "; ".join(failures))


def test_criterion_4_soundness_sweep(graphs_by_order):
    checked = 0
    applying = 0
    violations = []
    for n in range(3, 8):
        for g in graphs_by_order[n]:
            if not (is_connected(g) and not is_bipartite(g)
                    and not has_twins(g)):
                continue
            checked += 1
            try:
                verdicts = criteria_summary(g)
            except SoundnessError as exc:
                violations.append(str(exc))
                continue
            if any(v.applies and v.implied == "stable" for v in verdicts):
                applying += 1
    _report(4, "criterion soundness over the n <= 7 census", not violations,
            f"{checked} graphs, {applying} with an applying criterion, "
            f"{len(violations)} violations")


def test_criterion_5_extension_property():
    rng = random.Random(20240517)
    failures = 0
    produced = 0
    while produced < 200:
        n = rng.randrange(4, 9)
        x = random_graph(rng, n, rng.choice([0.35, 0.5, 0.65]))
        if not (is_connected(x) and not is_bipartite(x) and not has_twins(x)):
            continue
        produced += 1
        a_size = rng.randrange(1, n + 1)
        A = set(rng.sample(range(n), a_size))
        B = set(rng.sample(range(n), rng.randrange(0, n + 1)))
        ext = extend_xab(x, A, B)
        gs = instability_witness(ext)
        ok = (stability_report(ext.result).classification
              == "nontrivially_unstable")
        ok = ok and automorphism_group(double_cover(ext.result)).contains(gs)
        ok = ok and not is_fiber_preserving(ext.result, gs)
        ok = ok and _mul(gs, gs) == tuple(range(2 * ext.result.n))
        if not ok:
            failures += 1
    _report(5, "four-vertex extension forces non-trivial instability",
            failures == 0, f"200 randomized instances, {failures} failures")


def test_criterion_6_lex_product_counterexample():
    g = lex_product(cycle(8), cycle(6))
    prof = structural_profile(g)
    checks = {
        "connected": prof.connected,
        "vertex-transitive": len(vertex_orbits(g)) == 1,
        "diameter >= 4": prof.diameter is not None and prof.diameter >= 4,
        "every edge on a triangle": prof.every_edge_on_triangle,
    }
    r = stability_report(g)
    checks["unexpected automorphisms"] = r.aut_bx_order > 2 * r.aut_x_order
    checks["non-trivially unstable"] = (r.classification
                                        == "nontrivially_unstable")
    bad = [k for k, v in checks.items() if not v]
    _report(6, "48-vertex lexicographic product is non-trivially unstable",
            not bad, "; ".join(bad) if bad else f"index {r.instability_index}")


def test_criterion_7_oracle_equivalence(graphs_by_order):
    rng = random.Random(2024)
    sample = rng.sample(graphs_by_order[6], 150) + rng.sample(
        graphs_by_order[7], 350)
    corpus = [g for n in range(1, 6) for g in graphs_by_order[n]] + sample
    order_mismatches = 0
    for g in corpus:
        if automorphism_group(g).order() != brute_force_aut_count(g):
            order_mismatches += 1
    fiber_mismatches = 0
    lemma_graphs = 0
    for g in corpus:
        if not (is_connected(g) and not is_bipartite(g)):
            continue
        lemma_graphs += 1
        exp = expected_group(g)
        for alpha in automorphism_group(double_cover(g)).generators:
            if is_fiber_preserving(g, alpha) != exp.contains(alpha):
                fiber_mismatches += 1
    ok = order_mismatches == 0 and fiber_mismatches == 0
    _report(7, "brute-force and fiber-test oracle equivalence", ok,
            f"{len(corpus)} graphs brute-forced, {lemma_graphs} covers "
            f"fiber-tested, {order_mismatches}+{fiber_mismatches} mismatches")


def test_criterion_8_srg_instability_constraint(graphs_by_order):
    violations = []
    ntu_srgs = 0
    for n in range(3, 8):
        for g in graphs_by_order[n]:
            p = srg_params(g)
            if p is None:
                continue
            if not (is_connected(g) and not is_bipartite(g)
                    and not has_twins(g)):
                continue
            r = stability_report(g)
            if r.classification == "nontrivially_unstable":
                ntu_srgs += 1
                if not (p.lambda_ == p.mu and p.mu > 0):
                    violations.append(f"srg{p.as_tuple()}")
    _report(8, "non-trivially unstable SRGs have equal positive counts",
            not violations,
            f"{ntu_srgs} non-trivially unstable SRGs found"
            + (f"; violations: {violations}" if violations else ""))
