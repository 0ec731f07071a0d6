"""Checks of each operation's output against facts computed apart from
the program: networkx for graph6 decoding, connectivity and
bipartiteness, and code of this file for twins, colour refinement and the
four-vertex extension's witness automorphism.
"""

from __future__ import annotations

import json
from typing import Optional

import networkx as nx

REASON_DISCONNECTED = "disconnected"
REASON_BIPARTITE = "bipartite_with_nontrivial_aut"
REASON_TWINS = "has_twins"


def check(op, stdout: str) -> Optional[str]:
    """None when ``stdout`` is a correct answer to ``op``, else why not."""
    if "csv" in op.expect:
        got = stdout.strip()
        return None if got == op.expect["csv"] else f"census printed {got!r}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return f"not one JSON object: {stdout[:80]!r}"
    g = nx.from_graph6_bytes(op.argv[-1].encode("ascii"))
    return _check_report(op.expect, g, report)


def _has_twins(g: nx.Graph) -> bool:
    neighbourhoods = [frozenset(g[v]) for v in g]
    return len(set(neighbourhoods)) < len(neighbourhoods)


def _discrete_refinement(g: nx.Graph) -> bool:
    """Does colour refinement, started from one colour, end with every
    vertex in a colour of its own? Then Aut(X) is trivial, and every
    automorphism of the cover maps each fibre onto itself."""
    colour = {v: 0 for v in g}
    classes = 1
    while True:
        signature = {v: (colour[v], tuple(sorted(colour[u] for u in g[v])))
                     for v in g}
        ids = {s: i for i, s in enumerate(sorted(set(signature.values())))}
        colour = {v: ids[signature[v]] for v in g}
        if len(ids) == classes:
            return classes == g.number_of_nodes()
        classes = len(ids)


def _witness_is_cover_automorphism(g: nx.Graph, a1, a2, b1, b2) -> bool:
    """Is the map swapping a1, a2 in layer 0 and b1, b2 in layer 1 an
    automorphism of the canonical double cover? Cover edges join (x, 0) to
    (y, 1) for every edge xy. The map fixes (a1, 1), so it is no lift of a
    base automorphism composed with the layer swap, and the graph is
    unstable whenever it is one."""
    def image(x, layer):
        swap = {a1: a2, a2: a1} if layer == 0 else {b1: b2, b2: b1}
        return swap.get(x, x)

    cover = {(x, y) for u, v in g.edges() for x, y in ((u, v), (v, u))}
    return all((image(x, 0), image(y, 1)) in cover for x, y in cover)


def _check_report(expect: dict, g: nx.Graph, report: dict) -> Optional[str]:
    n = g.number_of_nodes()
    if n != expect["n"] or g.number_of_edges() != expect["edges"]:
        return (f"input decodes to {n} vertices and {g.number_of_edges()} "
                f"edges, expected {expect['n']} and {expect['edges']}")
    if report.get("n") != n:
        return f"report for n={report.get('n')}, expected n={n}"
    aut_x, aut_bx = int(report["aut_x_order"]), int(report["aut_bx_order"])
    index = int(report["index"])
    if aut_bx != 2 * aut_x * index or report["stable"] != (index == 1):
        return f"orders {aut_x}, {aut_bx} disagree with index {index}"
    if expect.get("refinement_certificate"):
        if not _discrete_refinement(g):
            return "colour refinement is not discrete; no certificate"
        if not nx.is_connected(g) or nx.is_bipartite(g):
            return "random graph is not connected and non-bipartite"
        expect = dict(expect, aut_x=1, aut_bx=2)
    for key, got in (("aut_x", aut_x), ("aut_bx", aut_bx), ("index", index)):
        if key in expect and got != expect[key]:
            return f"{key} = {got}, expected {expect[key]}"
    if expect.get("unstable"):
        if report["stable"]:
            return "four-vertex extension reported stable"
        if not _witness_is_cover_automorphism(g, *expect["witness"]):
            return "witness is not an automorphism of the cover"
    connected = nx.is_connected(g)
    bipartite = nx.is_bipartite(g)
    twins = _has_twins(g)
    reasons = []
    if index > 1:
        if not connected:
            reasons.append(REASON_DISCONNECTED)
        if bipartite and aut_x > 1:
            reasons.append(REASON_BIPARTITE)
        if twins:
            reasons.append(REASON_TWINS)
        nontrivial = connected and not bipartite and not twins
        kind = "nontrivially_unstable" if nontrivial else "trivially_unstable"
    else:
        kind = "stable"
    if sorted(report["reasons"]) != sorted(reasons):
        return f"reasons {report['reasons']}, expected {reasons}"
    if report["classification"] != kind:
        return f"classification {report['classification']}, expected {kind}"
    if "criteria" in report:
        return _check_criteria(expect, report)
    return None


def _check_criteria(expect: dict, report: dict) -> Optional[str]:
    applying = {c["criterion"] for c in report["criteria"] if c["applies"]}
    if "applies" in expect and expect["applies"] not in applying:
        return f"criterion {expect['applies']} does not apply"
    for c in report["criteria"]:
        if c["applies"] and c["implied"] == "stable" and not report["stable"]:
            return f"{c['criterion']} implies stability of an unstable graph"
    return None
