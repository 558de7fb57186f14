import random

import pytest

from leavitt import intmat
from leavitt.abelian import INFINITE, add, element_order, orbit_invariant
from leavitt.graphs import DirectedGraph, adjacency_matrix, build_graph, rose
from leavitt.intmat import IntMatrix, determinant, smith_coordinates, smith_normal_form
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

    def test_coordinate_rejects_wrong_length(self):
        for matrix in ([[1]], [[2]], [[2, 0], [0, 0]]):  # trivial, torsion, free
            _, coordinate = cokernel(IntMatrix(matrix))
            with pytest.raises(ValueError):
                coordinate([1] * (len(matrix) + 1))

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

    def test_relabelling_keeps_the_pointed_group(self):
        rng = random.Random(43)
        for _ in range(60):
            graph = _random_graph(rng)
            names = list(graph.vertices)
            relabel = dict(zip(names, (f"w{i}" for i in rng.sample(range(len(names)), len(names)))))
            edges = [(relabel[s], relabel[t], mult) for s, t, mult in graph.edges]
            rng.shuffle(edges)
            relabelled = build_graph(sorted(relabel.values()), edges)
            a, b = k0_of_graph(graph), k0_of_graph(relabelled)
            assert a.group.invariant_factors == b.group.invariant_factors
            assert a.group.free_rank == b.group.free_rank
            assert a.unit_order == b.unit_order  # INFINITE is a singleton
            assert orbit_invariant(a.group, a.unit) == orbit_invariant(b.group, b.unit)

    def test_determinant_is_the_torsion_size(self):
        rng = random.Random(59)
        nonsingular = 0
        for _ in range(300):
            graph = _random_graph(rng)
            det = determinant(_presentation(graph))
            k0 = k0_of_graph(graph)
            assert (k0.group.free_rank > 0) == (det == 0)
            if det:
                assert abs(det) == k0.group.torsion_size
                nonsingular += 1
        assert 100 <= nonsingular <= 290  # both cases are covered

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


def _expected_rows(snf, rows: int) -> tuple[tuple[int, ...], ...]:
    """Rows of snf.U for the nontrivial cokernel summands: torsion rows
    reduced modulo d_i, free rows (d_i = 0, also past the diagonal) exact."""
    expected = []
    for i in range(rows):
        d = snf.diagonal[i] if i < len(snf.diagonal) else 0
        if d != 1:
            expected.append(tuple(x % d for x in snf.U[i]) if d else snf.U[i])
    return tuple(expected)


def _scc_graph(n: int, seed: int) -> DirectedGraph:
    """A ring plus 2 random edges per vertex, multiplicities 1-3."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n], rng.randint(1, 3)) for i in range(n)]
    edges += [(s, rng.choice(names), rng.randint(1, 3)) for s in names for _ in range(2)]
    return build_graph(names, edges)


# a nonsingular matrix and a graph whose eliminations use every step kind
_CORRUPTION_MATRIX = IntMatrix([[2, 3, 0], [4, 5, 1], [0, 7, 6]])
_CORRUPTION_GRAPH = build_graph(
    ["a", "b", "c"],
    [("a", "b", 2), ("b", "c", 1), ("c", "a", 3), ("a", "a", 1), ("c", "b", 2)],
)


class TestK0Certificate:
    """The K0 path derives only the coordinate rows from the elimination log,
    certified by replaying the log (U @ M @ V == D) and by each row killing
    the columns of M, without building U or V."""

    def test_matches_smith_normal_form(self):
        rng = random.Random(47)
        graphs = [infinite_order_graph(), rose(1), rose(2), rose(5)]
        graphs += [_random_graph(rng) for _ in range(300)]
        singular = 0
        for graph in graphs:
            m = _presentation(graph)
            snf = smith_normal_form(m)
            expected = _expected_rows(snf, m.rows)
            assert smith_coordinates(m) == (snf.diagonal, expected)
            assert k0_of_graph(graph).coordinate_map == expected
            singular += determinant(m) == 0
        assert singular >= 20  # free summands are covered

    def test_matches_on_rectangular(self):
        rng = random.Random(53)
        for _ in range(200):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
            snf = smith_normal_form(m)
            assert smith_coordinates(m) == (snf.diagonal, _expected_rows(snf, rows))

    @pytest.mark.parametrize(
        "corrupt", ["row_add", "row_swap", "row_neg", "col_add", "col_swap", "col_add-dropped"]
    )
    def test_corrupted_log_raises(self, monkeypatch, corrupt):
        eliminate = intmat._eliminate
        kind = corrupt.removesuffix("-dropped")

        def corrupted(a):
            log = eliminate(a)
            first = next(i for i, step in enumerate(log) if step[0] == kind)
            if corrupt.endswith("_add"):  # a changed coefficient
                _, src, dst, q = log[first]
                log[first] = (kind, src, dst, q + 1)
            else:
                del log[first]
            return log

        monkeypatch.setattr(intmat, "_eliminate", corrupted)
        with pytest.raises(RuntimeError, match="replayed"):
            cokernel(_CORRUPTION_MATRIX)
        with pytest.raises(RuntimeError, match="replayed"):
            k0_of_graph(_CORRUPTION_GRAPH)

    def test_corrupted_coordinate_row_raises(self, monkeypatch):
        coordinate_row = intmat._coordinate_row

        def corrupted(m, log, i, d):
            row = list(coordinate_row(m, log, i, d))
            row[0] += 1
            return tuple(row)

        monkeypatch.setattr(intmat, "_coordinate_row", corrupted)
        with pytest.raises(RuntimeError, match="coordinate row"):
            cokernel(_CORRUPTION_MATRIX)
        with pytest.raises(RuntimeError, match="coordinate row"):
            k0_of_graph(_CORRUPTION_GRAPH)

    def test_k0_path_builds_no_dense_product(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("dense product on the K0 path")

        monkeypatch.setattr(IntMatrix, "__matmul__", refuse)
        k0 = k0_of_graph(rose(5))
        assert k0.unit_order == 4
        assert k0_of_graph(infinite_order_graph()).unit_order is INFINITE

    def test_k0_path_validates_one_matrix(self, monkeypatch):
        builds = []
        init = IntMatrix.__init__

        def counting(self, rows_data):
            builds.append(1)
            init(self, rows_data)

        monkeypatch.setattr(IntMatrix, "__init__", counting)
        k0_of_graph(_scc_graph(24, 5))
        assert len(builds) <= 1  # the adjacency matrix

    def test_torsion_rows_stay_reduced(self):
        k0 = k0_of_graph(_scc_graph(120, 61))
        factors = k0.group.invariant_factors
        assert factors
        for d, row in zip(factors, k0.coordinate_map):
            assert all(0 <= x < d for x in row)
