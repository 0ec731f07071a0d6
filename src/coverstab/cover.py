"""Canonical double covers, expected automorphisms, and the stability
decision with its trivial/non-trivial classification.

The cover of a graph on n vertices lives on 2n points: base vertex x gives
the fiber {x, x + n}, with x in layer 0 and x + n in layer 1. A graph is
stable exactly when |Aut(BX)| = 2 |Aut(X)|: the expected subgroup (lifts of
base automorphisms together with the layer swap) always has order exactly
2 |Aut(X)|, so order equality means every cover automorphism is expected.
Both orders come from the canonical-form search, and no function here
builds a permutation group. The expected automorphisms lift(phi) tau^e
are exactly the cover automorphisms that map fibers to fibers and all of
layer 0 into one layer, which is how ``is_expected`` decides expectedness
for every base.

No search runs on the whole cover. For a connected non-bipartite base
the cover is connected and bipartite with the two layers as its colour
classes, so every cover automorphism preserves or swaps the layers:
|Aut(BX)| is twice the order of the layer-preserving subgroup. Any other
base is read off its components, since B(X ⊔ Y) = B(X) ⊔ B(Y) and
B(D) ≅ 2D for a connected bipartite D, K1 included. Aut of a disjoint
union is ∏ Aut(C) ≀ S_k over its isomorphism classes, C occurring k
times. Cover components are grouped by key, never by the base component
they come from (B(C3) ≅ C6, so K3 ⊔ C6 has three isomorphic ones): a
bipartite component's key is the least of its two colour-ordered forms,
which for BC is the layer-ordered form, since the layer swap makes both
colour orders give it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import factorial

from .graph_core import (Graph, SoundnessError, is_connected, is_bipartite,
                         has_twins, bits, component_layers, distance_layers,
                         layers_bipartite, induced_subgraph)
from .perms import Permutation
from .aut import CanonicalForm, OrderedPartition, canonical_form

REASON_DISCONNECTED = "disconnected"
REASON_BIPARTITE = "bipartite_with_nontrivial_aut"
REASON_TWINS = "has_twins"


@dataclass(frozen=True)
class DoubleCover:
    """A graph together with its canonical double cover."""

    base: Graph
    cover: Graph


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the stability decision for one graph."""

    n: int
    aut_x_order: int
    aut_bx_order: int
    stable: bool
    instability_index: int
    classification: str  # "stable" | "trivially_unstable" | "nontrivially_unstable"
    reasons: tuple[str, ...]

    def as_dict(self) -> dict:
        """JSON-friendly form; group orders as decimal strings."""
        return {
            "n": self.n,
            "aut_x_order": str(self.aut_x_order),
            "aut_bx_order": str(self.aut_bx_order),
            "stable": self.stable,
            "index": str(self.instability_index),
            "classification": self.classification,
            "reasons": list(self.reasons),
        }


def double_cover(g: Graph) -> DoubleCover:
    """The direct product of g with a single edge."""
    n = g.n
    rows = [0] * (2 * n)
    for x in range(n):
        rows[x] = g.adj[x] << n
        rows[x + n] = g.adj[x]
    return DoubleCover(base=g, cover=Graph._unchecked(rows))


def is_base_automorphism(g: Graph, phi: Permutation) -> bool:
    if phi.degree != g.n:
        return False
    img = phi.images
    for v in range(g.n):
        acc = 0
        for u in bits(g.adj[v]):
            acc |= 1 << img[u]
        if acc != g.adj[img[v]]:
            return False
    return True


def lift(d: DoubleCover, phi: Permutation) -> Permutation:
    """Lift a base automorphism to the cover, acting layer-wise."""
    if not is_base_automorphism(d.base, phi):
        raise ValueError("phi is not an automorphism of the base graph")
    n = d.base.n
    return Permutation(tuple(phi.images) + tuple(x + n for x in phi.images))


def tau(d: DoubleCover) -> Permutation:
    """The layer swap (x, i) -> (x, i+1)."""
    n = d.base.n
    return Permutation(tuple(range(n, 2 * n)) + tuple(range(n)))


def is_cover_automorphism(d: DoubleCover, alpha: Permutation) -> bool:
    return is_base_automorphism(d.cover, alpha)


def is_fiber_preserving(d: DoubleCover, alpha: Permutation) -> bool:
    """Does alpha map every fiber {x, x+n} onto some fiber {y, y+n}?"""
    n = d.base.n
    img = alpha.images
    for x in range(n):
        a, b = img[x], img[x + n]
        if a % n != b % n or a == b:
            return False
    return True


def is_expected(d: DoubleCover, alpha: Permutation) -> bool:
    """Is alpha generated by lifts and the layer swap?

    Those elements are lift(phi) tau^e, so alpha is expected exactly when it
    maps fibers to fibers and all of layer 0 into one layer: composed with
    tau^e it then fixes both layers and restricts to a base automorphism.
    """
    if not is_cover_automorphism(d, alpha):
        raise ValueError("alpha is not an automorphism of the cover")
    n = d.base.n
    layer_uniform = len({y // n for y in alpha.images[:n]}) <= 1
    return layer_uniform and is_fiber_preserving(d, alpha)


def _layered_cover_form(c: Graph) -> CanonicalForm:
    """The search of the layer-preserving automorphisms of the cover of a
    connected non-bipartite c; its order is half of |Aut(BC)|."""
    n = c.n
    layers = OrderedPartition((tuple(range(n)), tuple(range(n, 2 * n))))
    return canonical_form(double_cover(c).cover, layers)


def _bipartite_part(c: Graph) -> tuple[str, int]:
    """(key, |Aut|) of a connected bipartite c: the least of its two
    colour-ordered forms, and the colour-preserving order, doubled when
    the two forms agree (an automorphism swaps the colours)."""
    layers = distance_layers(c, 0)
    colours = tuple(tuple(bits(sum(layers[p::2]))) for p in (0, 1))
    a, b = (canonical_form(c, OrderedPartition(cells))
            for cells in (colours, colours[::-1]))
    swap = a.canonical_graph6 == b.canonical_graph6
    return (min(a.canonical_graph6, b.canonical_graph6),
            a.aut_order * (2 if swap else 1))


def _component_parts(c: Graph) -> tuple[list, list]:
    """The (key, |Aut|) parts a connected c adds to X and to BX."""
    if layers_bipartite(c, distance_layers(c, 0)):
        part = _bipartite_part(c)
        return [part], [part, part]  # B(D) is two copies of a bipartite D
    cf, lf = canonical_form(c), _layered_cover_form(c)
    return ([(cf.canonical_graph6, cf.aut_order)],
            [(lf.canonical_graph6, 2 * lf.aut_order)])


def _union_order(parts: list[tuple[str, int]]) -> int:
    """|Aut| of a disjoint union from the (key, |Aut|) of its components."""
    orders = dict(parts)
    out = 1
    for key, k in Counter(key for key, _ in parts).items():
        out *= orders[key] ** k * factorial(k)
    return out


def _component_orders(g: Graph) -> tuple[int, int]:
    """(|Aut(X)|, |Aut(BX)|) of g from its connected components; a
    component equal to one already seen reuses its parts."""
    base, cover = [], []
    seen: dict[Graph, tuple[list, list]] = {}
    for layers in component_layers(g):
        if len(layers) == 1:
            parts = [("@", 1)], [("@", 1)] * 2  # K1, keyed by its graph6
        else:
            c = induced_subgraph(g, bits(sum(layers)))[0]
            if c not in seen:
                seen[c] = _component_parts(c)
            parts = seen[c]
        base += parts[0]
        cover += parts[1]
    return _union_order(base), _union_order(cover)


def stability_report(g: Graph) -> StabilityReport:
    """Decide stability of g by comparing |Aut(BX)| with 2 |Aut(X)|.

    Trivially unstable reasons are all reported even when several apply;
    the report always carries exact orders, also for bipartite or
    disconnected inputs.
    """
    if g.n == 0:
        raise ValueError("stability is undefined for the empty graph")
    cached = g._cache.get("stability")
    if cached is not None:
        return cached
    n = g.n
    connected = is_connected(g)
    bipartite = is_bipartite(g)
    if not connected:
        aut_x, aut_bx = _component_orders(g)
    else:
        aut_x = canonical_form(g).aut_order
        # BX is two copies of a bipartite X
        aut_bx = 2 * (aut_x ** 2 if bipartite
                      else _layered_cover_form(g).aut_order)
    expected = 2 * aut_x
    if aut_bx % expected:
        raise SoundnessError(
            f"2|Aut(X)| = {expected} does not divide |Aut(BX)| = {aut_bx}")
    index = aut_bx // expected
    stable = index == 1
    reasons = []
    if stable:
        classification = "stable"
    else:
        twins = has_twins(g)
        if not connected:
            reasons.append(REASON_DISCONNECTED)
        if bipartite and aut_x > 1:
            reasons.append(REASON_BIPARTITE)
        if twins:
            reasons.append(REASON_TWINS)
        if connected and not bipartite and not twins:
            classification = "nontrivially_unstable"
        elif reasons:
            classification = "trivially_unstable"
        else:
            raise SoundnessError("unstable graph escaping both classifications")
    report = StabilityReport(
        n=n,
        aut_x_order=aut_x,
        aut_bx_order=aut_bx,
        stable=stable,
        instability_index=index,
        classification=classification,
        reasons=tuple(reasons))
    g._cache["stability"] = report
    return report
