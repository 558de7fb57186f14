import ast
import copy
import inspect
import itertools
import pickle
import random
import types
from math import gcd

import pytest

import leavitt.abelian as abelian_module
import leavitt.graphs as graphs_module
import leavitt.ktheory as ktheory_module
import leavitt.matrixtype as matrixtype_module
from leavitt.abelian import (
    FGAbelianGroup,
    add,
    automorphism_maps_x_to_y,
    negate,
    scale,
)
from leavitt.graphs import DirectedGraph, GraphFormatError, build_graph, rose, purely_infinite_simple
from leavitt.ktheory import k0_of_graph
from leavitt.matrixtype import (
    IsoReason,
    IsoVerdict,
    NotPurelyInfiniteSimple,
    compare_pointed_k0,
    m_graph,
    matrix_type_classes,
    matrix_type_equal,
    matrix_type_verdict,
    pointed_iso_exists,
)

from conftest import Small, infinite_order_graph


def analyzed(graph):
    return k0_of_graph(graph), purely_infinite_simple(graph)


class TestMatrixTypeEqual:
    def test_rose5_examples(self):
        k0, pis = analyzed(rose(5))  # unit order 4
        assert matrix_type_equal(k0, pis, 2, 6)
        assert not matrix_type_equal(k0, pis, 2, 4)

    def test_rose2_single_matrix_number(self):
        k0, pis = analyzed(rose(2))  # unit order 1
        for c, d in itertools.product(range(1, 7), repeat=2):
            assert matrix_type_equal(k0, pis, c, d)

    def test_infinite_regime(self):
        k0, pis = analyzed(infinite_order_graph())
        assert not matrix_type_equal(k0, pis, 3, 5)
        assert matrix_type_equal(k0, pis, 7, 7)

    def test_refuses_non_pis(self):
        k0, pis = analyzed(rose(1))
        with pytest.raises(NotPurelyInfiniteSimple):
            matrix_type_equal(k0, pis, 1, 1)

    def test_rejects_nonpositive_sizes(self):
        k0, pis = analyzed(rose(3))
        with pytest.raises(ValueError):
            matrix_type_equal(k0, pis, 0, 1)
        for c, d in [(2.0, 2), (True, 3), (2, "2"), (2, Small.TWO)]:
            with pytest.raises(ValueError, match="matrix sizes must be integers"):
                matrix_type_equal(k0, pis, c, d)

    def test_equivalence_relation(self):
        graphs = [rose(q) for q in range(2, 10)] + [infinite_order_graph()]
        for graph in graphs:
            k0, pis = analyzed(graph)
            eq = {
                (c, d): matrix_type_equal(k0, pis, c, d)
                for c in range(1, 13)
                for d in range(1, 13)
            }
            for c in range(1, 13):
                assert eq[(c, c)]
                for d in range(1, 13):
                    assert eq[(c, d)] == eq[(d, c)]
                    for e in range(1, 13):
                        if eq[(c, d)] and eq[(d, e)]:
                            assert eq[(c, e)]


class TestMatrixTypeClasses:
    def test_rose5_partition(self):
        k0, pis = analyzed(rose(5))
        assert matrix_type_classes(k0, pis, 8) == [[1, 3, 5, 7], [2, 6], [4, 8]]

    def test_rose2_single_block(self):
        k0, pis = analyzed(rose(2))
        assert matrix_type_classes(k0, pis, 4) == [[1, 2, 3, 4]]

    def test_rejects_bad_max(self):
        k0, pis = analyzed(rose(5))
        for max_n in (0, -1, 4.0, True):
            with pytest.raises(ValueError):
                matrix_type_classes(k0, pis, max_n)

    def test_infinite_singletons(self):
        k0, pis = analyzed(infinite_order_graph())
        assert matrix_type_classes(k0, pis, 3) == [[1], [2], [3]]

    def test_blocks_match_pairwise_equality(self):
        for q in (3, 5, 7, 9):
            k0, pis = analyzed(rose(q))
            blocks = matrix_type_classes(k0, pis, 10)
            label = {}
            for i, block in enumerate(blocks):
                for c in block:
                    label[c] = i
            for c in range(1, 11):
                for d in range(1, 11):
                    assert (label[c] == label[d]) == matrix_type_equal(k0, pis, c, d)

    def test_class_count_is_divisor_count(self):
        for q in range(3, 10):
            k0, pis = analyzed(rose(q))
            n = k0.unit_order
            divisors = sum(1 for k in range(1, n + 1) if n % k == 0)
            assert len(matrix_type_classes(k0, pis, n)) == divisors


class TestMGraph:
    def test_identity_case(self):
        g = rose(3)
        assert m_graph(g, 1) is g

    def test_rose2_head(self):
        g = m_graph(rose(2), 2)
        assert len(g.vertices) == 2
        head = [v for v in g.vertices if v != "v"][0]
        assert ("v", "v", 2) in g.edges
        assert (head, "v", 1) in g.edges

    def test_vertex_count(self):
        for m in range(1, 6):
            assert len(m_graph(infinite_order_graph(), m).vertices) == 2 * m

    def test_head_vertices_chain(self):
        g = m_graph(rose(2), 4)
        out = g.out_edges()
        heads = [v for v in g.vertices if v != "v"]
        assert len(heads) == 3
        for h in heads:
            assert sum(m for _, m in out[h]) == 1  # single edge along the head

    def test_name_collision_avoided(self):
        g = build_graph(["v", "v__h1"], [("v", "v", 2), ("v__h1", "v", 1), ("v__h1", "v__h1", 1)])
        h = m_graph(g, 2)
        assert len(h.vertices) == 4
        assert len(set(h.vertices)) == 4

    def test_head_names(self):
        # v__h1, ..., v__h{m-1} per vertex, in vertex order; a name that is
        # already a vertex gets "_" appended until it is free
        g = m_graph(build_graph(["a", "b"], [("a", "b", 2), ("b", "a", 1)]), 3)
        assert g.vertices == ("a", "b", "a__h1", "a__h2", "b__h1", "b__h2")
        assert g.edges[2:] == (("a__h1", "a__h2", 1), ("a__h2", "a", 1),
                               ("b__h1", "b__h2", 1), ("b__h2", "b", 1))
        g = build_graph(["v", "v__h1", "v__h1_"], [("v", "v", 2), ("v__h1", "v", 1)])
        h = m_graph(g, 3)
        assert h.vertices == ("v", "v__h1", "v__h1_", "v__h1__", "v__h2",
                              "v__h1__h1", "v__h1__h2", "v__h1___h1", "v__h1___h2")
        assert h.edges[2:] == (
            ("v__h1__", "v__h2", 1), ("v__h2", "v", 1),
            ("v__h1__h1", "v__h1__h2", 1), ("v__h1__h2", "v__h1", 1),
            ("v__h1___h1", "v__h1___h2", 1), ("v__h1___h2", "v__h1_", 1),
        )

    def test_built_graph_equals_the_checked_one(self):
        # m_graph builds its result without DirectedGraph's check; over random
        # graphs whose names collide with head names, the result must be what
        # the check would build, and survive pickle and deepcopy
        rng = random.Random(23)
        pool = ["v", "v__h1", "v__h1_", "v__h2", "v__h1__h1", "w", "w__h1", "w__h1_"]
        for _ in range(60):
            names = rng.sample(pool, rng.randint(1, len(pool)))
            pairs = {(rng.choice(names), rng.choice(names)) for _ in range(2 * len(names))}
            g = DirectedGraph(names, [(s, d, rng.randint(1, 3)) for s, d in sorted(pairs)])
            for m in range(1, 6):
                h = m_graph(g, m)
                assert type(h) is DirectedGraph
                assert h == DirectedGraph(h.vertices, h.edges)
                assert pickle.loads(pickle.dumps(h)) == h
                assert copy.deepcopy(h) == h

    def test_a_graph_with_str_subclass_names_is_refused(self):
        # head names are built by formatting the vertex, which a str subclass
        # may override; the graph check takes names of type str only, so no
        # such graph reaches m_graph
        class Name(str):
            def __str__(self):
                return "x"

        with pytest.raises(GraphFormatError, match="vertex names must be nonempty strings"):
            DirectedGraph((Name("a"), Name("b")), ((Name("a"), Name("b"), 1),))
        with pytest.raises(GraphFormatError, match="of known vertices"):
            DirectedGraph(("a", "b"), ((Name("a"), "b", 1),))

    def test_rejects_a_graph_that_is_not_a_directed_graph(self):
        fake = types.SimpleNamespace(vertices=("v",), edges=())
        for m in (1, 2):
            with pytest.raises(TypeError, match="m_graph takes a DirectedGraph, got SimpleNamespace"):
                m_graph(fake, m)

    def test_unit_scaling_law(self):
        for q in (2, 3, 5, 7):
            base_factors = k0_of_graph(rose(q)).group.invariant_factors
            for m in range(1, 9):
                k0 = k0_of_graph(m_graph(rose(q), m))
                assert k0.group.invariant_factors == base_factors
                assert k0.unit_order == (q - 1) // gcd(m, q - 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            m_graph(rose(2), 0)
        for m in (2.0, True, "2"):
            with pytest.raises(ValueError, match="m must be integers"):
                m_graph(rose(2), m)


class TestPointedIsoExists:
    def test_pure_torsion_is_exact_orbit(self):
        g = FGAbelianGroup((8,))
        x = g.element([1])
        assert pointed_iso_exists(g, x, g.element([3]))
        assert not pointed_iso_exists(g, x, g.element([2]))

    def test_free_content_must_match(self):
        g = FGAbelianGroup((), free_rank=2)
        x = g.element([], [2, 4])
        assert pointed_iso_exists(g, x, g.element([], [2, -4]))
        assert pointed_iso_exists(g, x, g.element([], [0, 2]))
        assert not pointed_iso_exists(g, x, g.element([], [1, 0]))
        assert not pointed_iso_exists(g, x, g.element([], [4, 8]))

    def test_mixed_group_shift(self):
        # with free content 2, torsion parts only need to match modulo 2*T
        g = FGAbelianGroup((4,), free_rank=1)
        x = g.element([1], [2])
        assert pointed_iso_exists(g, x, g.element([3], [2]))
        assert pointed_iso_exists(g, x, g.element([1], [-2]))
        # alpha(1) + 2*tau stays odd, so the torsion part can never reach 0
        assert not pointed_iso_exists(g, x, g.element([0], [2]))
        # content 0 free part cannot match content 2
        assert not pointed_iso_exists(g, x, g.element([1], [0]))
        # torsion 0 and 2 are linked by the beta shift
        z = g.element([0], [2])
        assert pointed_iso_exists(g, z, g.element([2], [2]))

    def test_zero_content_needs_exact_torsion_orbit(self):
        g = FGAbelianGroup((4,), free_rank=1)
        x = g.element([1], [0])
        assert pointed_iso_exists(g, x, g.element([3], [0]))
        assert not pointed_iso_exists(g, x, g.element([2], [0]))

    def test_no_size_cap(self):
        # 2^20 torsion elements: the closed form decides without a cap
        assert list(inspect.signature(pointed_iso_exists).parameters) == ["group", "x", "y"]
        g = FGAbelianGroup((2**20,), free_rank=1)
        x = g.element([1], [2])
        assert pointed_iso_exists(g, x, g.element([3], [-2]))
        assert not pointed_iso_exists(g, x, g.element([2], [2]))

    def test_checks_each_element_once(self, monkeypatch):
        checked = []
        check_member = abelian_module.check_member
        for module in (abelian_module, matrixtype_module):
            monkeypatch.setattr(
                module, "check_member", lambda g, x: checked.append(x) or check_member(g, x),
                raising=False,
            )
        g = FGAbelianGroup((4,), free_rank=1)
        x, y = g.element([1], [2]), g.element([3], [-2])
        assert pointed_iso_exists(g, x, y)
        assert checked == [x, y]

    def test_brute_force_equivalence_sample(self):
        # structural rule == enumeration over (alpha, beta, delta) on a sample
        rng = random.Random(47)
        for factors in [(2,), (4,), (2, 2), (2, 4), (8,), (3, 3)]:
            for _ in range(60):
                self._check_against_brute_force(
                    factors, rng, lambda: rng.randint(-3, 3)
                )
        # contents 6 and 12 have two primes, and so do the exponents
        rng = random.Random(48)
        free_values = (6, -6, 12, -12, 0)
        for factors in [(6,), (2, 6), (2, 12), (6, 6)]:
            for _ in range(60):
                self._check_against_brute_force(
                    factors, rng, lambda: rng.choice(free_values)
                )

    @staticmethod
    def _check_against_brute_force(factors, rng, draw_free):
        torsion = FGAbelianGroup(factors)
        group = FGAbelianGroup(factors, free_rank=1)
        telems = list(torsion.elements())
        xt, yt = rng.choice(telems), rng.choice(telems)
        xf, yf = draw_free(), draw_free()
        x = group.element(xt.torsion, (xf,))
        y = group.element(yt.torsion, (yf,))
        structural = pointed_iso_exists(group, x, y)
        brute = False
        if yf in (xf, -xf):
            for tau in telems:
                shift = torsion.element(xf * c for c in tau.torsion)
                target = add(torsion, yt, negate(torsion, shift))
                if automorphism_maps_x_to_y(torsion, xt, target):
                    brute = True
                    break
        assert structural == brute, (factors, x, y)

    def test_orders_differ_near_the_bound(self):
        # 960 elements, inside the default bound; x has order 6 and 10*x order 3
        g = FGAbelianGroup((2, 2, 2, 2, 2, 30))
        x = g.element([1, 1, 1, 1, 0, 10])
        assert not pointed_iso_exists(g, x, scale(g, 10, x))


class TestDecisionPathOffOracle:
    def test_never_builds_a_search_table(self, monkeypatch):
        def refuse(factors):
            raise AssertionError(f"searched or factored {factors}")

        monkeypatch.setattr(abelian_module, "_table_for", refuse)
        monkeypatch.setattr(abelian_module, "_prime_divisors", refuse)
        cases = [
            (rose(5), m_graph(rose(5), 2), False),  # gcd(1, 4) != gcd(2, 4)
            (m_graph(rose(7), 2), m_graph(rose(7), 4), True),  # gcd 2 both
            (infinite_order_graph(), m_graph(infinite_order_graph(), 3), False),
        ]
        for left, right, expected in cases:
            verdict = compare_pointed_k0(k0_of_graph(left), k0_of_graph(right))
            assert verdict.isomorphic is expected
        g = FGAbelianGroup((2, 6), free_rank=1)
        assert pointed_iso_exists(g, g.element([1, 2], [6]), g.element([1, 4], [-6]))
        assert not pointed_iso_exists(g, g.element([1, 2], [0]), g.element([0, 2], [0]))

    @staticmethod
    def _imported_names(module):
        tree = ast.parse(inspect.getsource(module))
        return [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        ]

    def test_imports_no_private_name(self):
        imported = self._imported_names(matrixtype_module)
        assert "pointed_iso_exists" in imported
        assert not [name for name in imported if name.startswith("_")]

    @pytest.mark.parametrize(
        "module", [matrixtype_module, ktheory_module, graphs_module],
        ids=["matrixtype", "ktheory", "graphs"],
    )
    def test_imports_no_oracle_name(self, module):
        oracle_names = {
            "BoundExceeded",
            "DEFAULT_SIZE_BOUND",
            "automorphism_maps_x_to_y",
            "enumerate_automorphisms",
            "apply_automorphism",
            "eigen_search",
        }
        assert not oracle_names & set(self._imported_names(module))


class TestComparePointedK0:
    def test_group_mismatch(self):
        verdict = compare_pointed_k0(k0_of_graph(rose(3)), k0_of_graph(rose(5)))
        assert not verdict.isomorphic
        assert verdict.reason is IsoReason.GROUP_MISMATCH

    def test_reflexive(self):
        k0 = k0_of_graph(rose(5))
        verdict = compare_pointed_k0(k0, k0)
        assert verdict.isomorphic
        assert verdict.reason is IsoReason.UNIT_ORBIT_MATCH

    def test_reflexive_with_a_free_unit(self):
        # K0 = Z with the unit of content 1: the free-part witness
        k0 = k0_of_graph(infinite_order_graph())
        verdict = compare_pointed_k0(k0, k0)
        assert verdict.reason is IsoReason.UNIT_ORBIT_MATCH
        assert verdict.witness.startswith("free parts share content 1")

    def test_unit_orbit_mismatch(self):
        left = k0_of_graph(rose(5))
        right = k0_of_graph(m_graph(rose(5), 2))
        verdict = compare_pointed_k0(left, right)
        assert not verdict.isomorphic
        assert verdict.reason is IsoReason.UNIT_ORBIT_MISMATCH

    def test_matching_scaled_units(self):
        left = k0_of_graph(m_graph(rose(5), 2))
        right = k0_of_graph(m_graph(rose(5), 6))
        assert compare_pointed_k0(left, right).isomorphic

    def test_decides_above_the_old_cap(self):
        # K0 = Z/1025 with unit order 1025, above the former 1024-element cap
        left = k0_of_graph(rose(1026))
        assert left.group.torsion_size == 1025
        match = compare_pointed_k0(left, k0_of_graph(m_graph(rose(1026), 2)))
        assert match.isomorphic  # gcd(1, 1025) == gcd(2, 1025)
        assert match.reason is IsoReason.UNIT_ORBIT_MATCH
        mismatch = compare_pointed_k0(left, k0_of_graph(m_graph(rose(1026), 5)))
        assert not mismatch.isomorphic  # gcd(1, 1025) != gcd(5, 1025)
        assert mismatch.reason is IsoReason.UNIT_ORBIT_MISMATCH

    def test_decides_a_large_prime_without_factoring(self):
        # K0 = Z/(3 * (2^89 - 1)): trial division to its square root never ends
        big = rose(3 * (2**89 - 1) + 1)
        left = k0_of_graph(big)
        assert left.group.invariant_factors == (3 * (2**89 - 1),)
        assert compare_pointed_k0(left, k0_of_graph(m_graph(big, 2))).isomorphic
        mismatch = compare_pointed_k0(left, k0_of_graph(m_graph(big, 3)))
        assert mismatch.reason is IsoReason.UNIT_ORBIT_MISMATCH

    def test_isomorphic_follows_reason(self):
        for reason in IsoReason:
            verdict = IsoVerdict(reason)
            assert verdict.isomorphic is (reason is IsoReason.UNIT_ORBIT_MATCH)
        with pytest.raises(TypeError):
            IsoVerdict(isomorphic=True, reason=IsoReason.GROUP_MISMATCH)


class TestMatrixTypeVerdict:
    def test_finite_regime(self):
        k0, pis = analyzed(rose(5))
        verdict = matrix_type_verdict(k0, pis)
        assert verdict.regime == "finite"
        assert verdict.unit_order == 4
        assert verdict.class_label(6) == 2

    def test_infinite_regime(self):
        k0, pis = analyzed(infinite_order_graph())
        verdict = matrix_type_verdict(k0, pis)
        assert verdict.regime == "infinite"
        assert verdict.unit_order is None
        assert verdict.class_label(9) == 9
