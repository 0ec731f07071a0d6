"""Canonical double covers, expected automorphisms, and the stability
decision with its trivial/non-trivial classification.

The cover of a graph on n vertices lives on 2n points: base vertex x gives
the fiber {x, x + n}, with x in layer 0 and x + n in layer 1. The cover
is a Graph, and ``lift``, ``tau`` and the ``is_*`` predicates take the
base graph. An automorphism is its image tuple, alpha mapping y to
alpha[y]; ``lift`` and ``tau`` return one, and ``lift`` and the predicates
raise ValueError on a tuple that is no permutation of their points.

A graph is stable exactly when |Aut(BX)| = 2 |Aut(X)|: the expected
subgroup (lifts of base automorphisms together with the layer swap) always
has order exactly 2 |Aut(X)|, so order equality means every cover
automorphism is expected. Both orders come from the canonical-form search,
and no function here builds a permutation group. The expected
automorphisms lift(phi) tau^e are exactly the cover automorphisms that map
fibers to fibers and all of layer 0 into one layer, which is how
``is_expected`` decides expectedness for every base.

No search runs on the whole cover. For a connected non-bipartite base
the cover is connected and bipartite with the two layers as its colour
classes, so every cover automorphism preserves or swaps the layers:
|Aut(BX)| is twice the order of the layer-preserving subgroup. That
search starts from the lifts of Aut(X)'s generators, which it would
otherwise find again one explored path each. Any other
base is read off its components, since B(X ⊔ Y) = B(X) ⊔ B(Y) and
B(D) ≅ 2D for a connected bipartite D, K1 included. Aut of a disjoint
union is ∏ Aut(C) ≀ S_k over its isomorphism classes, C occurring k
times. Cover components are grouped by key, never by the base component
they come from (B(C3) ≅ C6, so K3 ⊔ C6 has three isomorphic ones). BC
is keyed by its layer-ordered form, a bipartite component D by its unit
form, or, when an automorphism swaps D's colour classes, by its form
with them as cells, which both their orders give, as both layer orders
give BC's. Only such a D can be isomorphic to a BC, and equal keys are
equal graphs, so keys agree exactly on isomorphic cover components.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import factorial
from typing import Sequence

from .graph_core import (Graph, SoundnessError, is_connected, is_bipartite,
                         has_twins, bits, component_layers,
                         layers_bipartite, induced_subgraph, memoized)
from .aut import CanonicalForm, canonical_form

REASON_DISCONNECTED = "disconnected"
REASON_BIPARTITE = "bipartite_with_nontrivial_aut"
REASON_TWINS = "has_twins"


_DIGITS = 600  # below the least digit limit str(int) can be set to


def _decimal(x: int) -> str:
    """x >= 0 in decimal at any length; str(x) refuses more digits than
    sys.get_int_max_str_digits(), which |Aut(B E_1200)| = 2400! exceeds."""
    chunks = []
    while x >= 10 ** _DIGITS:
        x, low = divmod(x, 10 ** _DIGITS)
        chunks.append(str(low).zfill(_DIGITS))
    return str(x) + "".join(reversed(chunks))


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
            "aut_x_order": _decimal(self.aut_x_order),
            "aut_bx_order": _decimal(self.aut_bx_order),
            "stable": self.stable,
            "index": _decimal(self.instability_index),
            "classification": self.classification,
            "reasons": list(self.reasons),
        }


def double_cover(g: Graph) -> Graph:
    """The direct product of g with a single edge."""
    n = g.n
    rows = [0] * (2 * n)
    for x in range(n):
        rows[x] = g.adj[x] << n
        rows[x + n] = g.adj[x]
    return Graph._unchecked(rows)


def lift(g: Graph, phi: Sequence[int]) -> tuple:
    """Lift an automorphism of g to its cover, acting layer-wise."""
    if g.relabel(phi) != g:
        raise ValueError("phi is not an automorphism of the base graph")
    n = g.n
    return tuple(phi) + tuple(x + n for x in phi)


def tau(g: Graph) -> tuple:
    """The layer swap (x, i) -> (x, i+1)."""
    n = g.n
    return tuple(range(n, 2 * n)) + tuple(range(n))


def is_cover_automorphism(g: Graph, alpha: Sequence[int]) -> bool:
    cover = double_cover(g)
    return cover.relabel(alpha) == cover


def is_fiber_preserving(g: Graph, alpha: Sequence[int]) -> bool:
    """Does alpha map every fiber {x, x+n} onto some fiber {y, y+n}?"""
    n = g.n
    if sorted(alpha) != list(range(2 * n)):
        raise ValueError("alpha is not a bijection of the cover's points")
    for x in range(n):
        a, b = alpha[x], alpha[x + n]
        if a % n != b % n or a == b:
            return False
    return True


def is_expected(g: Graph, alpha: Sequence[int]) -> bool:
    """Is alpha generated by lifts and the layer swap?

    Those elements are lift(phi) tau^e, so alpha is expected exactly when it
    maps fibers to fibers and all of layer 0 into one layer: composed with
    tau^e it then fixes both layers and restricts to a base automorphism.
    """
    if not is_cover_automorphism(g, alpha):
        raise ValueError("alpha is not an automorphism of the cover")
    n = g.n
    layer_uniform = len({y // n for y in alpha[:n]}) <= 1
    return layer_uniform and is_fiber_preserving(g, alpha)


def _layered_cover_form(c: Graph, cf: CanonicalForm) -> CanonicalForm:
    """The search of the layer-preserving automorphisms of the cover of a
    connected non-bipartite c with canonical form cf, seeded with the lifts
    of cf's generators (lazily, as a cover with twins ignores them); its
    order is half of |Aut(BC)|."""
    n = c.n
    layers = range(n), range(n, 2 * n)
    lifts = (s + tuple(x + n for x in s) for s in cf.aut_generators)
    return canonical_form(double_cover(c), layers, lifts)


def _component_parts(c: Graph, cf: CanonicalForm) -> tuple[list, list]:
    """The (key, |Aut|) parts a connected c with canonical form cf adds
    to X and to BX."""
    layers = component_layers(c)[0]
    if layers_bipartite(c, layers):
        key, odd = cf.canonical_graph6, sum(layers[1::2])
        if any(odd >> gen[0] & 1 for gen in cf.aut_generators):
            # a colour swap: key c as a B(C) is keyed, colour classes as cells
            colours = bits(sum(layers[::2])), bits(odd)
            key = canonical_form(c, colours).canonical_graph6
        part = (key, cf.aut_order)
        return [part], [part] * 2  # B(D) is two copies of a bipartite D
    lf = _layered_cover_form(c, cf)
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
    component isomorphic to one already seen reuses its parts, and one
    equal to it as labelled is not searched at all."""
    base, cover = [], []
    seen: dict[Graph, tuple[list, list]] = {}
    by_form: dict[str, tuple[list, list]] = {}
    for layers in component_layers(g):
        if len(layers) == 1:
            parts = [("@", 1)], [("@", 1)] * 2  # K1, keyed by its graph6
        else:
            c = induced_subgraph(g, bits(sum(layers)))[0]
            if c not in seen:
                cf = canonical_form(c)
                key = cf.canonical_graph6
                if key not in by_form:
                    by_form[key] = _component_parts(c, cf)
                seen[c] = by_form[key]
            parts = seen[c]
        base += parts[0]
        cover += parts[1]
    return _union_order(base), _union_order(cover)


@memoized
def stability_report(g: Graph) -> StabilityReport:
    """Decide stability of g by comparing |Aut(BX)| with 2 |Aut(X)|.

    Trivially unstable reasons are all reported even when several apply;
    the report always carries exact orders, also for bipartite or
    disconnected inputs.

    Lemma: if the coarsest equitable partition of a connected non-bipartite
    X is discrete, then |Aut(X)| = 1 and |Aut(BX)| = 2, and no cover is
    searched. The layer swap maps the coarsest equitable refinement R of
    BX's layers to itself, so R cuts both layers into one partition of X.
    It is equitable, so it refines X's discrete one: layer-preserving
    automorphisms of BX fix every cell of R, a single vertex.
    """
    if g.n == 0:
        raise ValueError("stability is undefined for the empty graph")
    n = g.n
    connected = is_connected(g)
    bipartite = is_bipartite(g)
    if not connected:
        aut_x, aut_bx = _component_orders(g)
    else:
        cf = canonical_form(g)
        aut_x = cf.aut_order
        # BX is two copies of a bipartite X; the lemma covers discrete X
        aut_bx = 2 * (aut_x ** 2 if bipartite else 1 if cf.discrete
                      else _layered_cover_form(g, cf).aut_order)
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
    return report
