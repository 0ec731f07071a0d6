"""Finitely generated permutation groups on 0..n-1, as image tuples.

An automorphism is its image tuple p, mapping x to p[x], everywhere in
the package: the search engine's generators, the cover's lifts and layer
swap, and the extension's witness. ``_mul`` and ``_inv`` are the one
composition and inversion of such tuples; composition is left-to-right:
_mul(p, q) maps x to q[p[x]]. Groups carry a base and strong generating
set with explicit coset representatives, built by incremental
Schreier-Sims from one worklist, giving exact (big-integer) order and
membership queries; in the package, only ``aut.automorphism_group``
builds one, to cross-check the order the canonical-form search reports.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Sequence


def _mul(p: Sequence[int], q: Sequence[int]) -> tuple:
    """p, then q."""
    return tuple(q[x] for x in p)


def _inv(p: Sequence[int]) -> tuple:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


class PermGroup:
    """Permutation group with exact order and membership from a base and
    strong generating set, built by incremental Schreier-Sims (Sims 1970;
    Seress, "Permutation Group Algorithms", 2003, ch. 4).

    Level i is (base point, strong generators fixing the earlier base
    points, {orbit point b: (u, u^-1)}), where u maps the base point to
    b. Base points are first moved points, in the order the sifts find
    them. Every (orbit point, generator) pair of a level is formed exactly
    once: it either reaches a new orbit point, whose representative it
    defines, or yields a Schreier generator that is sifted from the next
    level down. The explicit transversals cost O(n * sum |D_i|) integers,
    where the D_i are the basic orbits.
    """

    def __init__(self, generators: Iterable[Sequence[int]], degree: int):
        self.degree = degree
        self._identity = tuple(range(degree))
        gens = []
        for p in map(tuple, generators):
            if sorted(p) != list(self._identity):
                raise ValueError(
                    f"generator is not a permutation of degree {degree}")
            if p != self._identity:
                gens.append(p)
        self.generators = tuple(gens)
        self._levels: list[tuple[int, list, dict]] = []
        self._extend([(g, 0) for g in gens])

    def _sift(self, p: tuple, i: int = 0) -> tuple[tuple, int]:
        """Strip p through the levels from i down; returns the residue and
        the level whose orbit misses it (len(levels) past the last)."""
        levels = self._levels
        while i < len(levels):
            point, _, reps = levels[i]
            rep = reps.get(p[point])
            if rep is None:
                break
            p = _mul(p, rep[1])
            i += 1
        return p, i

    def _extend(self, work: list[tuple[tuple, int]]) -> None:
        """Drain work, pairs (element, first level). A residue that sticks
        at level j, opening a level at its first moved point when j is
        past the last, becomes a strong generator of every level it
        passed; its new (orbit point, generator) pairs queue their
        Schreier generators one level down."""
        levels = self._levels
        while work:
            p, i = work.pop()
            p, j = self._sift(p, i)
            if p == self._identity:
                continue
            if j == len(levels):
                b = next(x for x, y in enumerate(p) if x != y)
                levels.append((b, [], {b: (self._identity, self._identity)}))
            for k in range(i, j + 1):
                _, gens, reps = levels[k]
                gens.append(p)
                pairs = [(b, p) for b in reps]
                while pairs:
                    b, g = pairs.pop()
                    u = _mul(reps[b][0], g)
                    c = g[b]
                    if c not in reps:
                        reps[c] = (u, _inv(u))
                        pairs += [(c, h) for h in gens]
                    elif u != reps[c][0]:
                        work.append((_mul(u, reps[c][1]), k + 1))

    def order(self) -> int:
        return prod(len(reps) for _, _, reps in self._levels)

    def contains(self, p: Sequence[int]) -> bool:
        if len(p) != self.degree:
            raise ValueError(
                f"degree mismatch: {len(p)} != {self.degree}")
        return self._sift(tuple(p))[0] == self._identity

    def __repr__(self) -> str:
        return (f"PermGroup(degree={self.degree}, order={self.order()}, "
                f"ngens={len(self.generators)})")


def group_from_generators(gens: Iterable[Sequence[int]], n: int) -> PermGroup:
    """Construct a PermGroup with exact order/membership oracles."""
    return PermGroup(gens, n)
