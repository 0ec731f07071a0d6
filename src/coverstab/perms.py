"""Permutations on 0..n-1 and finitely generated permutation groups.

``Permutation`` is the public type of the verification API (the cover's
lifts, layer swap and expectedness tests); the search engine passes
automorphisms as plain image tuples, and orbits come from its union-find
(``aut.orbit_roots``). Groups carry a base and strong generating set with
explicit coset representatives, built by incremental Schreier-Sims from
one worklist, giving exact (big-integer) order and membership queries; in
the package, only ``aut.automorphism_group`` builds one, to cross-check
the order the canonical-form search reports. Composition is
left-to-right: compose(p, q) maps x to q(p(x)).
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Sequence


class Permutation:
    """Immutable permutation of {0..n-1}, stored as the image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images do not form a bijection of 0..n-1")
        object.__setattr__(self, "images", images)

    def __setattr__(self, *a):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from cycles, applied left to right."""
        images = list(range(n))
        for cyc in cycles:
            step = list(range(n))
            for a, b in zip(cyc, cyc[1:]):
                step[a] = b
            if cyc:
                step[cyc[-1]] = cyc[0]
            images = [step[x] for x in images]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __getitem__(self, x: int) -> int:
        return self.images[x]

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def inverse(self) -> "Permutation":
        return Permutation(_inv(self.images))

    def __mul__(self, other: "Permutation") -> "Permutation":
        """self then other."""
        return compose(self, other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.images)) + "]"

    def cycles(self) -> list[tuple[int, ...]]:
        """Non-trivial cycles, each starting at its smallest point."""
        seen = [False] * len(self.images)
        out = []
        for i in range(len(self.images)):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()}, n={self.degree})"


def identity(n: int) -> Permutation:
    return Permutation.identity(n)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply p first, then q."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} != {q.degree}")
    return Permutation(_mul(p.images, q.images))


def inverse(p: Permutation) -> Permutation:
    return p.inverse()


# ---------------------------------------------------------------------------
# composition and inversion of image tuples: the one body of each, shared
# by Permutation, PermGroup and the search engine

def _mul(p: Sequence[int], q: Sequence[int]) -> tuple:
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

    def __init__(self, generators: Iterable[Permutation], degree: int):
        gens = []
        for p in generators:
            if p.degree != degree:
                raise ValueError(
                    f"generator degree {p.degree} != group degree {degree}")
            if not p.is_identity():
                gens.append(p)
        self.degree = degree
        self.generators = tuple(gens)
        self._identity = tuple(range(degree))
        self._levels: list[tuple[int, list, dict]] = []
        self._extend([(g.images, 0) for g in gens])

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

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise ValueError(
                f"degree mismatch: {p.degree} != {self.degree}")
        return self._sift(p.images)[0] == self._identity

    def __repr__(self) -> str:
        return (f"PermGroup(degree={self.degree}, order={self.order()}, "
                f"ngens={len(self.generators)})")


def group_from_generators(gens: Iterable[Permutation], n: int) -> PermGroup:
    """Construct a PermGroup with exact order/membership oracles."""
    return PermGroup(gens, n)
