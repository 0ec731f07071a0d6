"""Permutations on 0..n-1 and finitely generated permutation groups.

Orbits under a set of generators come from ``orbit_of``. Groups carry a
base and strong generating set built by a deterministic Schreier-Sims
construction, giving exact (big-integer) order and membership queries; in
the package, only ``aut.automorphism_group`` builds one, to cross-check
the order the canonical-form search reports. Composition is left-to-right:
compose(p, q) maps x to q(p(x)).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


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
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation(inv)

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
    qi = q.images
    return Permutation(tuple(qi[x] for x in p.images))


def inverse(p: Permutation) -> Permutation:
    return p.inverse()


# ---------------------------------------------------------------------------
# internal tuple-level helpers (hot paths avoid Permutation wrappers)

def _mul(p: tuple, q: tuple) -> tuple:
    return tuple(q[x] for x in p)


def _inv(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def orbit_of(gens: Sequence[tuple], x: int) -> set[int]:
    """The orbit of x under the group generated by the image tuples gens."""
    seen = {x}
    frontier = [x]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = g[a]
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


class _Level:
    """One stabilizer level: base point, gens fixing the earlier base
    prefix, and the basic orbit as a Schreier vector (point -> (gen, parent)).
    Expanded coset representatives are memoized per orbit point."""

    __slots__ = ("point", "gens", "vector", "_reps", "_reps_inv")

    def __init__(self, point: int):
        self.point = point
        self.gens: list[tuple] = []
        self.vector: dict[int, Optional[tuple]] = {point: None}
        self._reps: dict[int, tuple] = {}
        self._reps_inv: dict[int, tuple] = {}

    def rebuild_orbit(self) -> None:
        self.vector = {self.point: None}
        self._reps = {}
        self._reps_inv = {}
        frontier = [self.point]
        while frontier:
            nxt = []
            for a in frontier:
                for g in self.gens:
                    b = g[a]
                    if b not in self.vector:
                        self.vector[b] = (g, a)
                        nxt.append(b)
            frontier = nxt

    def rep(self, b: int) -> tuple:
        """Coset representative u with u[point] = b."""
        u = self._reps.get(b)
        if u is not None:
            return u
        path = []
        a = b
        while a != self.point:
            g, parent = self.vector[a]
            path.append(g)
            a = parent
        n = len(self.gens[0]) if self.gens else 0
        u = tuple(range(n))
        for g in reversed(path):
            u = _mul(u, g)
        self._reps[b] = u
        return u

    def rep_inv(self, b: int) -> tuple:
        u = self._reps_inv.get(b)
        if u is None:
            u = _inv(self.rep(b))
            self._reps_inv[b] = u
        return u


class PermGroup:
    """Permutation group with exact order/membership via a deterministic
    base and strong generating set.

    Base points are chosen greedily as first moved points; transversals are
    stored as Schreier vectors with memoized expansion.
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
        self._levels: list[_Level] = []
        self._order: Optional[int] = None
        self._build([g.images for g in gens])

    # -- construction -------------------------------------------------

    def _strip(self, p: tuple, start: int = 0) -> tuple[tuple, int]:
        """Sift p through levels >= start; returns (residue, stuck level)."""
        for i in range(start, len(self._levels)):
            lev = self._levels[i]
            b = p[lev.point]
            if b not in lev.vector:
                return p, i
            if b != lev.point:
                p = _mul(p, lev.rep_inv(b))
        return p, len(self._levels)

    def _append_level_for(self, p: tuple) -> None:
        """New base point: the first point moved by p, a sifted residue that
        fixes every base point so far."""
        for b, img in enumerate(p):
            if img != b:
                self._levels.append(_Level(b))
                return
        raise AssertionError("identity reached _append_level_for")

    def _install(self, i: int, p: tuple) -> None:
        """Register strong generator p at levels <= i and rebuild orbits."""
        for k in range(i + 1):
            self._levels[k].gens.append(p)
            self._levels[k].rebuild_orbit()

    def _build(self, raw_gens: list[tuple]) -> None:
        if not raw_gens:
            self._order = 1
            return
        for p in raw_gens:
            residue, j = self._strip(p)
            if any(x != i for i, x in enumerate(residue)):
                if j == len(self._levels):
                    self._append_level_for(residue)
                self._install(j, residue)
        # Deterministic Schreier-Sims: verify levels bottom-up, descending
        # again whenever a new strong generator appears.
        i = len(self._levels) - 1
        while i >= 0:
            lev = self._levels[i]
            added = False
            for b in sorted(lev.vector):
                u_b = lev.rep(b)
                for g in lev.gens:
                    c = g[b]
                    schreier = _mul(_mul(u_b, g), lev.rep_inv(c))
                    residue, j = self._strip(schreier, i + 1)
                    if any(x != k for k, x in enumerate(residue)):
                        if j == len(self._levels):
                            self._append_level_for(residue)
                            j = len(self._levels) - 1
                        for k in range(i + 1, j + 1):
                            self._levels[k].gens.append(residue)
                            self._levels[k].rebuild_orbit()
                        i = j
                        added = True
                        break
                if added:
                    break
            if not added:
                i -= 1
        order = 1
        for lev in self._levels:
            order *= len(lev.vector)
        self._order = order

    # -- queries --------------------------------------------------------

    def order(self) -> int:
        return self._order

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise ValueError(
                f"degree mismatch: {p.degree} != {self.degree}")
        residue, _ = self._strip(p.images)
        return all(x == i for i, x in enumerate(residue))

    def __repr__(self) -> str:
        return (f"PermGroup(degree={self.degree}, order={self._order}, "
                f"ngens={len(self.generators)})")


def group_from_generators(gens: Iterable[Permutation], n: int) -> PermGroup:
    """Construct a PermGroup with exact order/membership oracles."""
    return PermGroup(gens, n)
