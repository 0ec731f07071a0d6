import math
import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from coverstab.aut import orbit_roots
from coverstab.perms import (Permutation, compose, inverse, identity,
                             group_from_generators)

from oracles import naive_closure


@st.composite
def perms(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    images = list(range(n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 30)))
    rng.shuffle(images)
    return Permutation(images)


def sparse_perm(rng, n):
    """A random permutation of a random subset of 0..n-1, fixing the rest,
    so that generated groups range from cyclic to S_n."""
    support = rng.sample(range(n), rng.randrange(2, n + 1))
    images = list(range(n))
    for a, b in zip(support, rng.sample(support, len(support))):
        images[a] = b
    return Permutation(images)


def random_gens(rng, n, count):
    out = []
    for _ in range(count):
        images = list(range(n))
        rng.shuffle(images)
        out.append(Permutation(images))
    return out


class TestPermutation:
    def test_involution(self):
        swap = Permutation.from_cycles(2, [(0, 1)])
        assert compose(swap, swap) == identity(2)

    def test_three_cycle_inverse(self):
        c = Permutation.from_cycles(3, [(0, 1, 2)])
        assert inverse(c) == Permutation.from_cycles(3, [(0, 2, 1)])

    def test_identity_neutral(self):
        p = Permutation([2, 0, 1, 3])
        assert compose(p, identity(4)) == p
        assert compose(identity(4), p) == p

    @given(perms())
    @settings(max_examples=100, deadline=None)
    def test_inverse_property(self, p):
        assert compose(p, p.inverse()).is_identity()
        assert compose(p.inverse(), p).is_identity()

    def test_composition_order(self):
        # left-to-right: first argument applied first
        p = Permutation([1, 2, 0])
        q = Permutation([0, 2, 1])
        assert compose(p, q)[0] == q[p[0]]

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(3), identity(4))

    def test_not_bijection(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_serialization(self):
        p = Permutation([1, 0, 2])
        assert str(p) == "[1,0,2]"
        assert p.cycle_string() == "(0 1)"
        assert identity(4).cycle_string() == "()"
        assert Permutation.from_cycles(4, [(0, 1, 2)]).cycle_string() == "(0 1 2)"


class TestGroupConstruction:
    def test_symmetric_group(self):
        g = group_from_generators(
            [Permutation.from_cycles(4, [(0, 1)]),
             Permutation.from_cycles(4, [(0, 1, 2, 3)])], 4)
        assert g.order() == 24

    def test_trivial_group(self):
        g = group_from_generators([], 5)
        assert g.order() == 1
        assert not g.contains(Permutation.from_cycles(5, [(0, 1)]))
        assert g.contains(identity(5))

    def test_cyclic(self):
        g = group_from_generators([Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])], 5)
        assert g.order() == 5

    def test_dihedral_on_pentagon(self):
        g = group_from_generators(
            [Permutation.from_cycles(5, [(0, 1, 2, 3, 4)]),
             Permutation([0, 4, 3, 2, 1])], 5)
        assert g.order() == 10

    def test_order_divides_factorial_and_matches_closure(self):
        rng = random.Random(31)
        for _ in range(150):
            n = rng.randrange(1, 8)
            gens = random_gens(rng, n, rng.randrange(0, 4))
            g = group_from_generators(gens, n)
            assert math.factorial(n) % g.order() == 0
            closure = naive_closure([p.images for p in gens], n)
            assert g.order() == len(closure)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            group_from_generators([identity(3)], 4)


class TestGroupQueries:
    def test_membership_words_and_nonmembers(self):
        rng = random.Random(47)
        for _ in range(25):
            n = rng.randrange(2, 7)
            gens = random_gens(rng, n, rng.randrange(1, 4))
            g = group_from_generators(gens, n)
            for _ in range(4):  # 100 random words across the loop overall
                word = identity(n)
                for _ in range(rng.randrange(0, 6)):
                    word = compose(word, rng.choice(gens))
                assert g.contains(word)
            closure = naive_closure([p.images for p in gens], n)
            outside = [p for p in permutations(range(n))
                       if p not in closure]
            for images in rng.sample(outside, min(4, len(outside))):
                assert not g.contains(Permutation(images))

    def test_orbits_partition_degree(self):
        # the naive closure's images of each orbit's least point are the
        # reference for orbit_roots
        rng = random.Random(53)
        for _ in range(50):
            n = rng.randrange(1, 9)
            gens = [p.images for p in random_gens(rng, n, rng.randrange(0, 3))]
            closure = naive_closure(gens, n)
            roots = orbit_roots(gens, n)
            orbits = {frozenset(v for v in range(n) if roots[v] == r)
                      for r in roots}
            assert sum(len(o) for o in orbits) == n
            for o in orbits:
                assert o == {p[min(o)] for p in closure}
                assert {roots[v] for v in o} == {min(o)}

    def test_transitivity(self):
        s4 = [Permutation.from_cycles(4, [(0, 1)]).images,
              Permutation.from_cycles(4, [(0, 1, 2, 3)]).images]
        assert orbit_roots(s4, 4) == [0, 0, 0, 0]
        fix = [Permutation([0, 2, 1]).images]
        assert orbit_roots(fix, 3) == [0, 1, 1]
        assert orbit_roots([], 4) == [0, 1, 2, 3]


class TestDeepBases:
    def test_random_groups_match_sympy(self):
        # sympy's Schreier-Sims is independent of perms; degrees 8-14 give
        # bases of up to 13 points
        combinatorics = pytest.importorskip("sympy.combinatorics")
        rng = random.Random(59)
        outside = 0
        for _ in range(40):
            n = rng.randrange(8, 15)
            gens = [sparse_perm(rng, n) for _ in range(rng.randrange(1, 4))]
            g = group_from_generators(gens, n)
            ref = combinatorics.PermutationGroup(
                [combinatorics.Permutation(list(p.images)) for p in gens])
            assert g.order() == ref.order()
            for _ in range(3):
                word = identity(n)
                for _ in range(rng.randrange(1, 8)):
                    word = compose(word, rng.choice(gens))
                assert g.contains(word)
            for _ in range(3):
                images = list(range(n))
                rng.shuffle(images)
                member = ref.contains(combinatorics.Permutation(images))
                assert g.contains(Permutation(images)) == member
                outside += not member
        assert outside >= 60
