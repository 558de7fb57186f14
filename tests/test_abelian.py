import itertools
import random
from math import gcd, prod

import pytest

import leavitt.abelian as abelian_module
from leavitt.abelian import (
    BoundExceeded,
    FGAbelianGroup,
    GroupElement,
    INFINITE,
    apply_automorphism,
    automorphism_maps_x_to_y,
    eigen_search,
    element_order,
    enumerate_automorphisms,
    gcd_criterion,
    orbit_invariant,
    same_orbit,
    scale,
)
from leavitt.intmat import unimodular_check

from conftest import ELEMENT_CALLS, Small, chains_upto, mat_vec


class TestGroupConstruction:
    def test_chain_validation(self):
        FGAbelianGroup((2, 4, 8))
        with pytest.raises(ValueError):
            FGAbelianGroup((1,))
        with pytest.raises(ValueError):
            FGAbelianGroup((4, 2))
        with pytest.raises(ValueError):
            FGAbelianGroup((2, 3))
        with pytest.raises(ValueError):
            FGAbelianGroup((), free_rank=-1)
        for factor in (4.9, "6", True, 4.0, Small.TWO):  # never truncated or parsed
            with pytest.raises(ValueError, match="invariant factors must be integers"):
                FGAbelianGroup((factor,))
        for rank in (1.5, True, "1", 1.0):  # 1.5 once built a group with no elements
            with pytest.raises(ValueError, match="free rank must be integers"):
                FGAbelianGroup((), rank)

    def test_element_canonicalization(self):
        g = FGAbelianGroup((4,), free_rank=1)
        assert g.element([-1], [5]) == GroupElement((3,), (5,))
        with pytest.raises(ValueError):
            g.element([1, 2], [0])
        with pytest.raises(ValueError, match="wrong number of free coordinates"):
            g.element([1], [])
        for torsion, free in ([1.7], [0]), (["1"], [0]), ([True], [0]), ([1], [2.0]), ([1], [False]):
            with pytest.raises(ValueError, match="coordinates must be integers"):
                g.element(torsion, free)

    def test_element_stores_tuples(self):
        from_lists = GroupElement([1, 3], [-5])
        assert from_lists == GroupElement((1, 3), (-5,))
        assert hash(from_lists) == hash(GroupElement((1, 3), (-5,)))
        assert type(from_lists.torsion) is tuple and type(from_lists.free) is tuple

    def test_elements_enumeration(self):
        g = FGAbelianGroup((2, 4))
        assert len(list(g.elements())) == 8
        with pytest.raises(ValueError):
            list(FGAbelianGroup((), free_rank=1).elements())


class TestElementOrder:
    def test_examples(self):
        g4 = FGAbelianGroup((4,))
        assert element_order(g4, g4.element([2])) == 2
        z = FGAbelianGroup((), free_rank=1)
        assert element_order(z, z.element([], [1])) is INFINITE
        g26 = FGAbelianGroup((2, 6))
        assert element_order(g26, g26.element([1, 3])) == 2
        assert element_order(g26, g26.identity()) == 1
        assert element_order(FGAbelianGroup(()), GroupElement(())) == 1

    def test_coordinate_mismatch(self):
        g = FGAbelianGroup((4,))
        with pytest.raises(ValueError):
            element_order(g, GroupElement((1, 2)))
        with pytest.raises(ValueError, match="canonical representatives"):
            element_order(g, GroupElement((4,)))

    def test_order_divides_exponent(self):
        for factors in chains_upto(36, include_trivial=False):
            g = FGAbelianGroup(factors)
            exponent = factors[-1]
            for x in g.elements():
                assert exponent % element_order(g, x) == 0

    def test_scaling_law(self):
        # ord(c*x) == ord(x) / gcd(c, ord(x)) for finite-order x
        for factors in chains_upto(24, include_trivial=False):
            g = FGAbelianGroup(factors)
            for x in g.elements():
                n = element_order(g, x)
                for c in range(1, 13):
                    assert element_order(g, scale(g, c, x)) == n // gcd(c, n)


class TestScale:
    def test_examples(self):
        g4 = FGAbelianGroup((4,))
        assert scale(g4, 6, g4.element([1])) == g4.element([2])
        z = FGAbelianGroup((), free_rank=1)
        assert scale(z, 3, z.element([], [1])) == z.element([], [3])
        x = g4.element([3])
        assert scale(g4, 1, x) == x

    def test_rejects_nonpositive(self):
        g = FGAbelianGroup((4,))
        with pytest.raises(ValueError):
            scale(g, 0, g.element([1]))
        with pytest.raises(ValueError):
            scale(g, -2, g.element([1]))
        for c in (2.0, True):
            with pytest.raises(ValueError, match="scalar must be integers"):
                scale(g, c, g.element([1]))


class TestElementCoordinates:
    """Coordinates follow require_ints' rule in every element-taking call:
    a bool, IntEnum, float or str coordinate raises ValueError naming it."""

    @pytest.mark.parametrize("value", [True, Small.TWO, 1.0, "1"], ids=repr)
    @pytest.mark.parametrize("name", list(ELEMENT_CALLS))
    def test_refuses_coordinates_that_are_not_ints(self, name, value):
        _, call = ELEMENT_CALLS[name]
        with pytest.raises(ValueError, match=f"^coordinates must be integers, got {value!r}$"):
            call(FGAbelianGroup((4,)), GroupElement((value,)))


class TestGcdCriterion:
    def test_examples(self):
        assert gcd_criterion(4, 2, 6)
        assert not gcd_criterion(4, 1, 2)
        assert gcd_criterion(1, 7, 9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gcd_criterion(4, 0, 1)

    @pytest.mark.parametrize("args", [(4, True, 2), (4, 2.0, 6), ("4", 1, 1)])
    def test_rejects_non_integers(self, args):
        with pytest.raises(ValueError, match="must be integers"):
            gcd_criterion(*args)


class TestEnumerateAutomorphisms:
    def test_small_counts(self):
        assert sum(1 for _ in enumerate_automorphisms(FGAbelianGroup((4,)))) == 2
        assert sum(1 for _ in enumerate_automorphisms(FGAbelianGroup((2, 2)))) == 6
        assert sum(1 for _ in enumerate_automorphisms(FGAbelianGroup(()))) == 1

    def test_known_group_orders(self):
        # |GL(2,F3)| = 48, |GL(3,F2)| = 168, |GL(2,Z/4)| = 96, Aut(Z/2+Z/4) = 8
        expected = {(3, 3): 48, (2, 2, 2): 168, (4, 4): 96, (2, 4): 8, (8,): 4}
        for factors, count in expected.items():
            group = FGAbelianGroup(factors)
            assert sum(1 for _ in enumerate_automorphisms(group)) == count

    def test_multiplier_maps_on_cyclic(self):
        # Aut(Z/n) is exactly multiplication by the units mod n
        group = FGAbelianGroup((12,))
        images = {phi[0].torsion[0] for phi in enumerate_automorphisms(group)}
        assert images == {u for u in range(12) if gcd(u, 12) == 1}

    def test_bound_exceeded(self):
        with pytest.raises(BoundExceeded):
            list(enumerate_automorphisms(FGAbelianGroup((64,)), size_bound=32))

    def test_apply_rejects_bad_input(self):
        g = FGAbelianGroup((2,), free_rank=1)
        with pytest.raises(ValueError, match="maps of finite groups"):
            apply_automorphism(g, [g.element([1], [0])], g.identity())
        g4 = FGAbelianGroup((4,))
        with pytest.raises(ValueError, match="one image per canonical generator"):
            apply_automorphism(g4, [], g4.element([1]))

    def test_lexicographic_order(self):
        # the coordinate tuples of the generator images strictly increase
        for factors in chains_upto(16):
            autos = [
                tuple(img.torsion for img in phi)
                for phi in enumerate_automorphisms(FGAbelianGroup(factors))
            ]
            assert all(a < b for a, b in zip(autos, autos[1:])), factors
        # so the swap of Z/2+Z/2 comes before the identity
        first = next(enumerate_automorphisms(FGAbelianGroup((2, 2))))
        assert first == (GroupElement((0, 1)), GroupElement((1, 0)))

    def test_yields_a_group(self):
        # identity present, closed under composition and inverses
        for factors in [(2,), (4,), (2, 2), (6,), (2, 4), (3, 3), (2, 2, 2)]:
            group = FGAbelianGroup(factors)
            autos = list(enumerate_automorphisms(group))
            generators = [group.element(t) for t in _generator_tuples(factors)]
            identity = tuple(generators)
            assert identity in autos
            table = set(autos)
            for phi, psi in itertools.product(autos, repeat=2):
                composed = tuple(apply_automorphism(group, phi, img) for img in psi)
                assert composed in table
            for phi in autos:
                assert any(
                    all(
                        apply_automorphism(group, phi, img) == gen
                        for img, gen in zip(psi, identity)
                    )
                    for psi in autos
                )


def _generator_tuples(factors):
    s = len(factors)
    return [tuple(int(i == j) for j in range(s)) for i in range(s)]


class TestAutomorphismMapsXToY:
    def test_examples(self):
        g4 = FGAbelianGroup((4,))
        assert automorphism_maps_x_to_y(g4, g4.element([1]), g4.element([3]))
        assert not automorphism_maps_x_to_y(g4, g4.element([1]), g4.element([2]))
        # equal orders but inequivalent: y is divisible by 2, x is not
        g24 = FGAbelianGroup((2, 4))
        x = g24.element([1, 0])
        y = g24.element([0, 2])
        assert element_order(g24, x) == element_order(g24, y) == 2
        assert not automorphism_maps_x_to_y(g24, x, y)

    def test_matches_plain_enumeration(self):
        # the pruned search agrees with a straight scan over all automorphisms
        for factors in [(4,), (2, 4), (2, 2, 2), (3, 3), (12,), (2, 8)]:
            group = FGAbelianGroup(factors)
            autos = list(enumerate_automorphisms(group))
            for x in group.elements():
                reachable = {apply_automorphism(group, phi, x) for phi in autos}
                for y in group.elements():
                    assert automorphism_maps_x_to_y(group, x, y) == (y in reachable)

    def test_bound_exceeded(self):
        g = FGAbelianGroup((64,))
        with pytest.raises(BoundExceeded):
            automorphism_maps_x_to_y(g, g.element([1]), g.element([1]), size_bound=8)

    @pytest.mark.parametrize("bound", [0, -5, True, 2.0])
    def test_bound_must_be_an_int_of_at_least_one(self, bound):
        g = FGAbelianGroup((2,))
        with pytest.raises(ValueError, match="size bound must be"):
            automorphism_maps_x_to_y(g, g.element([1]), g.element([1]), size_bound=bound)
        with pytest.raises(ValueError, match="size bound must be"):
            list(enumerate_automorphisms(g, size_bound=bound))

    def test_requires_finite_group(self):
        g = FGAbelianGroup((2,), free_rank=1)
        with pytest.raises(ValueError):
            automorphism_maps_x_to_y(g, g.identity(), g.identity())

    def test_table_cache_is_bounded(self):
        for d in range(2, 40):
            g = FGAbelianGroup((d,))
            assert automorphism_maps_x_to_y(g, g.element([1]), g.element([d - 1]))
        info = abelian_module._table_for.cache_info()
        assert info.maxsize == abelian_module._TABLE_CACHE_SIZE
        assert info.currsize <= abelian_module._TABLE_CACHE_SIZE

    def test_size_prune_leaves_room_for_a_surjection(self):
        # the searches' only span check is |S| * (unassigned factors) >= |G|;
        # it suffices because a span S of images g_p in G[d_p] with
        # |S| == prod d_p always has S + G[D] == G, D the largest factor left
        rng = random.Random(61)
        proper = 0
        for factors in chains_upto(64, include_trivial=False):
            table = abelian_module._TorsionTable(factors)
            for _ in range(100):
                order = rng.sample(range(len(factors)), len(factors))
                assigned = rng.randrange(len(factors))
                span = frozenset((0,))
                for p in order[:assigned]:
                    g = rng.choice(table.torsion_candidates(factors[p]))
                    span = table.extend_subgroup(span, g)
                if len(span) != prod(factors[p] for p in order[:assigned]):
                    continue
                largest_left = max(factors[p] for p in order[assigned:])
                rest = frozenset(table.torsion_candidates(largest_left))
                assert len(table.subgroup_sum(span, rest)) == table.size, (factors, order)
                proper += len(rest) < table.size
        assert proper > 400  # cases where G[D] alone is not the whole group


class TestOrbitInvariant:
    def test_examples(self):
        g = FGAbelianGroup((2, 4), free_rank=1)
        assert orbit_invariant(g, g.element([1, 0], [5])) == ((2, (0,)),)
        assert orbit_invariant(g, g.identity()) == ((2, ()),)
        # modulo 2*T, the coordinate 2 of Z/4 can be cleared
        assert orbit_invariant(g, g.element([0, 2], [0]), 2) == ((2, ()),)
        assert orbit_invariant(FGAbelianGroup(()), GroupElement(())) == ()
        # one key per prime of the exponent: Z/12 = Z/4 + Z/3
        z12 = FGAbelianGroup((12,))
        assert orbit_invariant(z12, z12.element([2])) == ((2, (1,)), (3, (0,)))

    def test_rejects_bad_input(self):
        g = FGAbelianGroup((4,))
        with pytest.raises(ValueError, match="c must be at least 0, got -2"):
            orbit_invariant(g, g.element([1]), -2)
        with pytest.raises(ValueError):
            orbit_invariant(g, GroupElement((1, 2)))
        with pytest.raises(ValueError, match="c must be integers, got True"):
            orbit_invariant(g, g.element([1]), True)  # not taken as c = 1
        with pytest.raises(ValueError, match="c must be integers, got <Small.TWO: 2>"):
            orbit_invariant(g, g.element([1]), Small.TWO)

    def test_matches_exact_oracle_beyond_32_elements(self):
        # y has the order of x: there the order alone does not decide
        rng = random.Random(4096)
        answers = set()
        for factors in [
            (2, 2, 4, 8), (2, 6, 12), (3, 9, 9), (2, 2, 2, 30), (4, 4, 12), (2, 4, 60)
        ]:
            group = FGAbelianGroup(factors)
            elems = list(group.elements())
            by_order = {}
            for e in elems:
                by_order.setdefault(element_order(group, e), []).append(e)
            for _ in range(100):
                x = rng.choice(elems)
                y = rng.choice(by_order[element_order(group, x)])
                oracle = automorphism_maps_x_to_y(group, x, y)
                closed = orbit_invariant(group, x) == orbit_invariant(group, y)
                assert oracle == closed, (factors, x, y)
                answers.add(oracle)
        assert answers == {True, False}


class TestSameOrbit:
    def test_composite_base(self):
        # Z/72: the base of {72, gcd(1, 72), gcd(5, 72)} is {72} itself, read
        # at once for 2^3 and 3^2
        g = FGAbelianGroup((72,))
        assert abelian_module._coprime_base([72, gcd(1, 72), gcd(5, 72)]) == [72]
        assert same_orbit(g, g.element([1]), g.element([5]))
        assert not same_orbit(g, g.element([1]), g.element([2]))
        # modulo 3*T only the 3-parts count; modulo 2*T only the 2-parts
        assert same_orbit(g, g.element([1]), g.element([2]), 3)
        assert not same_orbit(g, g.element([1]), g.element([2]), 2)

    def test_rejects_bad_input(self):
        g = FGAbelianGroup((4,))
        with pytest.raises(ValueError):
            same_orbit(g, g.element([1]), g.element([1]), -2)
        with pytest.raises(ValueError):
            same_orbit(g, g.element([1]), GroupElement((1, 2)))
        with pytest.raises(ValueError, match="c must be integers, got True"):
            same_orbit(g, g.element([1]), g.element([3]), True)  # not taken as c = 1
        with pytest.raises(ValueError, match="c must be integers, got <Small.TWO: 2>"):
            same_orbit(g, g.element([1]), g.element([1]), Small.TWO)

    def test_matches_the_prime_key(self):
        # chains whose gcds with x and y split the primes unevenly, every c
        rng = random.Random(7211)
        answers = set()
        for _ in range(1500):
            factors = [rng.choice([2, 4, 6, 12, 18, 36, 72, 100, 108])]
            for _ in range(rng.randrange(3)):
                factors.append(factors[-1] * rng.choice([1, 2, 3, 6, 9]))
            g = FGAbelianGroup(tuple(factors))
            x = g.element([rng.randrange(d) for d in factors])
            unit = rng.choice([u for u in range(1, 2 * factors[-1]) if gcd(u, factors[-1]) == 1])
            y = rng.choice([g.element([rng.randrange(d) for d in factors]), scale(g, unit, x)])
            c = rng.choice([0, 0, 1, 2, 3, 6, 12, rng.randrange(1, 500)])
            keys = orbit_invariant(g, x, c) == orbit_invariant(g, y, c)
            assert same_orbit(g, x, y, c) == keys, (factors, x, y, c)
            answers.add(keys)
        assert answers == {True, False}

    def test_matches_exact_oracle_on_composite_bases(self):
        rng = random.Random(8191)
        for factors in [(72,), (6, 36), (3, 36), (2, 2, 90)]:
            group = FGAbelianGroup(factors)
            elems = list(group.elements())
            for _ in range(80):
                x, y = rng.choice(elems), rng.choice(elems)
                assert same_orbit(group, x, y) == automorphism_maps_x_to_y(group, x, y)

    def test_large_primes_without_factoring(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"factored {n}")

        monkeypatch.setattr(abelian_module, "_prime_divisors", refuse)
        p, q = 2**127 - 1, 2**89 - 1
        g = FGAbelianGroup((p * q, 6 * p * q))
        x = g.element([p, 0])
        assert same_orbit(g, x, scale(g, 5, x))
        assert not same_orbit(g, x, g.element([q, 0]))  # orders q and p
        assert same_orbit(g, g.element([1, p]), g.element([2, 0]), p)
        assert not same_orbit(g, g.element([1, 0]), g.element([q, 0]), q)


class TestEigenSearch:
    def test_examples(self):
        assert eigen_search(1, 3, [1], 2, 3) is None
        witness = eigen_search(1, 3, [5], 1, 1)
        assert witness is not None and witness.to_lists() == [[1]]
        assert eigen_search(2, 3, [1, 0], 2, 1) is None

    def test_witness_is_valid(self):
        w = eigen_search(2, 2, [1, 1], 3, 3)
        assert w is not None
        assert unimodular_check(w)
        assert tuple(3 * s for s in mat_vec(w, (1, 1))) == (3, 3)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            eigen_search(2, 3, [0, 0], 1, 1)
        with pytest.raises(ValueError):
            eigen_search(1, 3, [1, 2], 1, 1)
        with pytest.raises(ValueError):
            eigen_search(1, 3, [1], 0, 1)
        with pytest.raises(ValueError, match="x must be integers"):
            eigen_search(1, 3, [1.5], 1, 1)
        with pytest.raises(ValueError, match="x must be integers"):
            eigen_search(2, 3, [True, 0], 1, 1)
        with pytest.raises(ValueError, match="dimension t must be at least 1, got 0"):
            eigen_search(0, 3, [], 1, 1)
        with pytest.raises(ValueError, match="entry bound must be at least 1, got 0"):
            eigen_search(1, 0, [1], 1, 1)
        with pytest.raises(ValueError, match="m and n must be at least 1, got 0"):
            eigen_search(1, 3, [1], 1, 0)
        with pytest.raises(ValueError, match="m and n must be integers, got 1.5"):
            eigen_search(1, 3, [2], 1.5, 1)
        with pytest.raises(ValueError, match="dimension t must be integers, got 2.0"):
            eigen_search(2.0, 1, [1, 0], 1, 1)
        with pytest.raises(ValueError, match="entry bound must be integers, got True"):
            eigen_search(1, True, [1], 1, 1)
