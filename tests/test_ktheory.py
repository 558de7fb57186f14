import random

import pytest

from leavitt import intmat
from leavitt.abelian import INFINITE, add, element_order
from leavitt.graphs import DirectedGraph, adjacency_matrix, build_graph, rose
from leavitt.intmat import IntMatrix, determinant, smith_left, smith_normal_form
from leavitt.ktheory import cokernel, k0_of_graph

from conftest import infinite_order_graph


class TestCokernel:
    def test_single_relation(self):
        group, coordinate = cokernel(IntMatrix([[2]]))
        assert group.invariant_factors == (2,)
        assert group.free_rank == 0
        assert coordinate([1]).torsion == (1,)

    def test_unit_relation_kills_everything(self):
        group, coordinate = cokernel(IntMatrix([[1]]))
        assert group.invariant_factors == ()
        assert group.free_rank == 0
        assert coordinate([5]) == group.identity()

    def test_rank_one_quotient(self):
        group, coordinate = cokernel(IntMatrix([[-2, -2], [-1, -1]]))
        assert group.invariant_factors == ()
        assert group.free_rank == 1
        assert coordinate([1, 1]).free in ((1,), (-1,))

    def test_requires_square(self):
        with pytest.raises(ValueError):
            cokernel(IntMatrix([[1, 2]]))

    def test_coordinate_is_homomorphism(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 5)
            matrix = IntMatrix(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            group, coordinate = cokernel(matrix)
            u = [rng.randint(-9, 9) for _ in range(n)]
            v = [rng.randint(-9, 9) for _ in range(n)]
            s = [a + b for a, b in zip(u, v)]
            assert coordinate(s) == add(group, coordinate(u), coordinate(v))

    def test_columns_map_to_identity(self):
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(1, 5)
            matrix = IntMatrix(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            group, coordinate = cokernel(matrix)
            for j in range(n):
                column = [matrix[i][j] for i in range(n)]
                assert coordinate(column) == group.identity()


class TestK0OfGraph:
    def test_rose_golden_values(self):
        for q in range(2, 10):
            k0 = k0_of_graph(rose(q))
            expected_factors = () if q == 2 else (q - 1,)
            assert k0.group.invariant_factors == expected_factors
            assert k0.group.free_rank == 0
            assert k0.unit_order == q - 1
            # the unit generates the whole (cyclic) group
            assert element_order(k0.group, k0.unit) == k0.group.torsion_size

    def test_rose2_trivial(self):
        k0 = k0_of_graph(rose(2))
        assert k0.group.invariant_factors == ()
        assert k0.unit_order == 1

    def test_infinite_order_graph(self):
        k0 = k0_of_graph(infinite_order_graph())
        assert k0.group.invariant_factors == ()
        assert k0.group.free_rank == 1
        assert k0.unit_order is INFINITE
        assert k0.unit.free in ((1,), (-1,))  # the unit generates K0 = Z

    def test_unit_order_consistency(self):
        for graph in (rose(2), rose(5), infinite_order_graph()):
            k0 = k0_of_graph(graph)
            assert k0.unit_order == element_order(k0.group, k0.unit) or (
                k0.unit_order is INFINITE
                and element_order(k0.group, k0.unit) is INFINITE
            )

    def test_basis_order_independence(self):
        rng = random.Random(41)
        for _ in range(30):
            n = rng.randint(2, 5)
            names = [f"v{i}" for i in range(n)]
            edges = []
            for s in names:
                for t in names:
                    if rng.random() < 0.5:
                        edges.append((s, t, rng.randint(1, 3)))
            g = build_graph(names, edges)
            perm = rng.sample(names, n)
            h = DirectedGraph(tuple(perm), g.edges)
            a, b = k0_of_graph(g), k0_of_graph(h)
            assert a.group == b.group
            if a.unit_order is INFINITE:
                assert b.unit_order is INFINITE
            else:
                assert a.unit_order == b.unit_order

    def test_sinks_are_handled(self):
        g = build_graph(["v", "s"], [("v", "v", 2), ("v", "s", 1)])
        k0 = k0_of_graph(g)  # interpretation is gated elsewhere; must not crash
        assert k0.group.torsion_rank + k0.group.free_rank >= 0


def _presentation(graph: DirectedGraph) -> IntMatrix:
    a = adjacency_matrix(graph)
    return IntMatrix([[int(i == j) - a[j][i] for j in range(a.rows)] for i in range(a.rows)])


def _random_graph(rng: random.Random) -> DirectedGraph:
    names = [f"v{i}" for i in range(rng.randint(1, 6))]
    edges = [
        (s, t, rng.randint(1, 3)) for s in names for t in names if rng.random() < 0.4
    ]
    return build_graph(names, edges)


class TestK0Certificate:
    """The K0 path takes U and the diagonal from the shared elimination and
    certifies them by U @ M == D @ W, without V."""

    def test_matches_smith_normal_form(self):
        rng = random.Random(47)
        graphs = [infinite_order_graph(), rose(1), rose(2), rose(5)]
        graphs += [_random_graph(rng) for _ in range(300)]
        singular = 0
        for graph in graphs:
            m = _presentation(graph)
            snf = smith_normal_form(m)
            left, diagonal = smith_left(m)
            assert left == snf.U and diagonal == snf.diagonal
            assert k0_of_graph(graph).coordinate_map == snf.U
            singular += determinant(m) == 0
        assert singular >= 20  # free summands are covered

    def test_matches_on_rectangular(self):
        rng = random.Random(53)
        for _ in range(200):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
            snf = smith_normal_form(m)
            assert smith_left(m) == (snf.U, snf.diagonal)

    @pytest.mark.parametrize("corrupt", ["u", "w-coefficient", "w-dropped", "w-swap"])
    def test_corrupted_transform_raises(self, monkeypatch, corrupt):
        eliminate = intmat._eliminate

        def corrupted(a):
            u, log = eliminate(a)
            adds = [i for i, op in enumerate(log) if op[2] is not None]
            swaps = [i for i, op in enumerate(log) if op[2] is None]
            if corrupt == "u":
                u[0][0] += 1
            elif corrupt == "w-coefficient":
                src, dst, q = log[adds[0]]
                log[adds[0]] = (src, dst, q + 1)
            elif corrupt == "w-dropped":
                del log[adds[0]]
            else:
                del log[swaps[0]]
            return u, log

        monkeypatch.setattr(intmat, "_eliminate", corrupted)
        # nonsingular, with column additions and a column swap
        matrix = IntMatrix([[2, 3, 0], [4, 5, 1], [0, 7, 6]])
        with pytest.raises(RuntimeError):
            cokernel(matrix)
        graph = build_graph(
            ["a", "b", "c"],
            [("a", "b", 2), ("b", "c", 1), ("c", "a", 3), ("a", "a", 1), ("c", "b", 2)],
        )
        with pytest.raises(RuntimeError):
            k0_of_graph(graph)

    def test_k0_path_builds_no_dense_product(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("dense product on the K0 path")

        monkeypatch.setattr(IntMatrix, "__matmul__", refuse)
        k0 = k0_of_graph(rose(5))
        assert k0.unit_order == 4
        assert k0_of_graph(infinite_order_graph()).unit_order is INFINITE
