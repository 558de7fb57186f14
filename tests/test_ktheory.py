import hashlib
import itertools
import random
import re
import time
from fractions import Fraction
from math import gcd, lcm, log2, prod

import pytest

from leavitt import intmat, ktheory
from leavitt.abelian import (
    INFINITE,
    FGAbelianGroup,
    add,
    automorphism_maps_x_to_y,
    element_order,
    gcd_criterion,
    orbit_invariant,
    scale,
)
from leavitt.graphs import DirectedGraph, adjacency_matrix, build_graph, rose
from leavitt.intmat import IntMatrix, determinant, smith_coordinates, smith_normal_form
from leavitt.ktheory import cokernel, k0_of_graph
from leavitt.matrixtype import IsoReason, compare_pointed_k0, m_graph

from conftest import (
    PRIMES_61,
    exact_rank_det,
    family_graph,
    huge_graph,
    infinite_order_graph,
    presentation_rows,
    rank_mod,
    reduce_moduli,
    scc_graph,
    unit_scalar,
)


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

    def test_coordinate_rejects_entries_that_are_not_ints(self):
        coordinates = (cokernel(IntMatrix([[2]]))[1], k0_of_graph(rose(3)).coordinate)
        for coordinate in coordinates:
            for vector in ([True], ["1"], [1.0]):
                with pytest.raises(ValueError, match="vector entries must be integers"):
                    coordinate(vector)

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
            # an automorphism of T + Z^f can add any multiple of the free
            # part's content c to the torsion part, so the unit's invariant is
            # the orbit of its coset modulo c * T; c = 0 without a free part
            c = gcd(*a.unit.free)
            assert c == gcd(*b.unit.free)
            assert orbit_invariant(a.group, a.unit, c) == orbit_invariant(b.group, b.unit, c)

    def test_determinant_is_the_torsion_size(self):
        # only without sinks is the presentation the square I - A^T
        rng = random.Random(59)
        nonsingular = 0
        for _ in range(300):
            graph = _random_graph(rng)
            if _sinks(graph):
                continue
            det = determinant(_presentation(graph))
            k0 = k0_of_graph(graph)
            assert (k0.group.free_rank > 0) == (det == 0)
            if det:
                assert abs(det) == k0.group.torsion_size
                nonsingular += 1
        assert 100 <= nonsingular <= 290  # both cases are covered

    def test_sinks_are_handled(self):
        # [v] = 2[v] + [s], and the sink s gives no relation: K0 = Z, [1] = 0
        g = build_graph(["v", "s"], [("v", "v", 2), ("v", "s", 1)])
        k0 = k0_of_graph(g)
        assert k0.group == FGAbelianGroup((), 1)
        assert k0.unit == k0.group.identity()
        assert k0.unit_order == 1

    def test_sinks_give_no_relation(self):
        # L(E) = K for one vertex, M_2(K) for u -> v, and K^3 for three
        # vertices without edges: K0 = Z with [1] = 1, Z with [1] = 2, Z^3
        point = k0_of_graph(build_graph(["v"], []))
        assert point.group == FGAbelianGroup((), 1)
        assert point.unit.free == (1,) and point.unit_order is INFINITE
        arrow = k0_of_graph(build_graph(["u", "v"], [("u", "v", 1)]))
        assert arrow.group == FGAbelianGroup((), 1)
        assert arrow.unit.free == (2,)
        assert compare_pointed_k0(point, arrow).reason is IsoReason.UNIT_ORBIT_MISMATCH
        assert compare_pointed_k0(arrow, arrow).reason is IsoReason.UNIT_ORBIT_MATCH
        points = k0_of_graph(build_graph(["a", "b", "c"], []))
        assert points.group == FGAbelianGroup((), 3)
        assert points.unit.free == (1, 1, 1)
        assert points.coordinate_map == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _sinks(graph: DirectedGraph) -> bool:
    return any(not any(row) for row in adjacency_matrix(graph))


def _presentation(graph: DirectedGraph) -> IntMatrix:
    """I - A^T restricted to the columns of the vertices that emit edges
    (the graph must have an edge: a matrix needs a column)."""
    a = adjacency_matrix(graph)
    regular = [j for j in range(a.rows) if any(a[j])]
    return IntMatrix([[int(i == j) - a[j][i] for j in regular] for i in range(a.rows)])


def _contracted_presentation(graph: DirectedGraph) -> tuple[list[list[int]], list[int]]:
    """I - A^T with its link vertices (one edge, of multiplicity 1, not a
    loop) substituted away, and for each vertex the row of its
    representative.  The walk from each vertex, in vertex order, follows
    links to a vertex that is not one, or around a cycle of links, where the
    vertex the first such walk re-entered it at is kept.  The rows may be
    empty: a graph whose vertices all lead to sinks has no relation left."""
    a = adjacency_matrix(graph)
    n = a.rows
    link = {v: a[v].index(1) for v in range(n) if sum(a[v]) == 1 and a[v][v] == 0}
    kept_for_cycle: dict[frozenset, int] = {}
    rep = []
    for v in range(n):
        walk = [v]
        while walk[-1] in link and link[walk[-1]] not in walk:
            walk.append(link[walk[-1]])
        end = walk[-1]
        if end in link:
            entry = link[end]
            end = kept_for_cycle.setdefault(frozenset(walk[walk.index(entry):]), entry)
        rep.append(end)
    kept = [v for v in range(n) if rep[v] == v]
    regular = [u for u in kept if any(a[u])]
    rows = [
        [int(i == u) - sum(a[u][x] for x in range(n) if rep[x] == i) for u in regular]
        for i in kept
    ]
    return rows, [kept.index(r) for r in rep]


def _check_full_presentation(full: IntMatrix, k0) -> None:
    """k0 against the full presentation I - A^T: its Smith invariants, and
    coordinate rows that kill it (modulo d_i, exactly when free) and map
    onto the group (the Smith form of [rows | diag(d)] is all ones)."""
    diagonal = smith_normal_form(full).diagonal
    assert k0.group.invariant_factors == tuple(d for d in diagonal if d > 1)
    assert k0.group.free_rank == full.rows - sum(1 for d in diagonal if d)
    factors = k0.group.invariant_factors + (0,) * k0.group.free_rank
    assert len(k0.coordinate_map) == len(factors)
    for d, row in zip(factors, k0.coordinate_map):
        image = [sum(x * y for x, y in zip(row, column)) for column in zip(*full)]
        assert not any(x % d if d else x for x in image)
    onto = [
        list(row) + [d * (i == j) for j in range(len(factors))]
        for i, (d, row) in enumerate(zip(factors, k0.coordinate_map))
    ]
    assert not onto or smith_normal_form(IntMatrix(onto)).diagonal == (1,) * len(onto)


def _finite_cyclic(group: FGAbelianGroup) -> bool:
    return not group.free_rank and len(group.invariant_factors) == 1


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


def _modular_route(rows) -> bool:
    """True where smith_coordinates takes a square nonsingular residual
    block, so that D is |det| (the unit phase keeps |det|)."""
    return len(rows) == len(rows[0]) and determinant(IntMatrix(rows)) != 0


def _check_coordinates(rows, snf) -> tuple[tuple[int, ...], ...]:
    """smith_coordinates(rows) against smith_normal_form: the same diagonal;
    torsion rows reduced modulo d_i that kill A modulo d_i; free rows that
    kill A exactly and span the lattice that the free rows of snf.U span,
    the left kernel of A (they lie in it, and they span a saturated
    lattice: their own Smith form is all ones); and rows that together map
    Z^m onto the group: the Smith form of [rows | diag(d)] is all ones.
    Returns the coordinate rows."""
    rows = [list(row) for row in rows]
    diagonal, coordinate_rows = smith_coordinates(rows)
    assert diagonal == snf.diagonal
    factors = [d for d in diagonal if d != 1] + [0] * (len(rows) - len(diagonal))
    assert len(coordinate_rows) == len(factors)
    for d, row in zip(factors, coordinate_rows):
        assert not d or all(0 <= x < d for x in row)
        image = [sum(x * y for x, y in zip(row, column)) for column in zip(*rows)]
        assert not any(x % d if d else x for x in image)
    free = [row for d, row in zip(factors, coordinate_rows) if not d]
    if free:
        kernel = [row for d, row in zip(factors, _expected_rows(snf, len(rows))) if not d]
        stacked = smith_normal_form(IntMatrix(free + kernel)).diagonal
        assert sum(1 for d in stacked if d) == len(free)
        assert set(smith_normal_form(IntMatrix(free)).diagonal) == {1}
    onto = [
        list(row) + [d * (i == j) for j in range(len(factors))]
        for i, (d, row) in enumerate(zip(factors, coordinate_rows))
    ]
    assert not onto or set(smith_normal_form(IntMatrix(onto)).diagonal) == {1}
    return coordinate_rows


# inputs whose eliminations use every step kind of their phases: the first
# pair has a square nonsingular residual block, where the unit phase and the
# solve reach all of D (t = 1: Z/6 and Z/30); the second has free rows, by
# det == 0 (Z/3 + Z) and by a sink (Z/30, whose local step is modulo 10 on a
# square [R | G]); the third pair (after these) takes the local step modulo
# D_t, and the fourth the local step on an [R | G] wider than it is tall,
# whose log is replayed
_MODULAR_MATRIX = IntMatrix(
    [[0, -3, -2, 4, 2], [-3, -4, 4, 0, -2], [5, -2, 2, -5, -1], [2, -4, 5, -2, 0],
     [-2, 5, 0, 2, 2]]
)
_MODULAR_GRAPH = build_graph(
    list("abcde"),
    [("a", "a", 2), ("a", "b", 2), ("a", "c", 1), ("a", "d", 2), ("a", "e", 1), ("b", "a", 3),
     ("b", "b", 1), ("b", "e", 3), ("c", "b", 3), ("c", "d", 3), ("d", "c", 2), ("d", "d", 1),
     ("d", "e", 2), ("e", "a", 2), ("e", "b", 1), ("e", "e", 3)],
)
_INTEGER_MATRIX = IntMatrix(
    [[4, 1, 5, 3, 5], [5, 4, 4, -4, -4], [-2, -2, -1, 3, 5], [-1, 5, -5, 2, 0],
     [2, -2, 4, -1, -1]]
)
_INTEGER_GRAPH = build_graph(
    list("abcde"),
    [("b", "b", 1), ("b", "c", 3), ("b", "d", 2), ("b", "e", 2), ("c", "c", 1), ("c", "e", 3),
     ("d", "c", 1), ("d", "e", 3), ("e", "a", 2), ("e", "c", 2), ("e", "d", 3)],
)
# the solve leaves t > 1, and the gcd phase modulo D_t logs row_add and
# row_swap and brings a remainder to the pivot: Z/2 + Z/2088 with D = 4176,
# t = 18 and D_t = 144 < D (a CRT step joins Z/29 to the 2- and 3-parts),
# and Z/2 + Z/36 with D = D_t = 72
_LOCAL_MATRIX = IntMatrix(
    [[4, 5, -5, 1, -4], [3, -4, 5, 2, -5], [3, -2, -5, -5, -1], [2, -1, 1, -3, 4],
     [-3, 3, 0, 3, 5]]
)
# the local step of a presentation with units: Z/35 with D = 35, t = 7 (the
# solve misses the 7-part of the one factor) and D_t = 7, a CRT step joining
# the Z/5 part
_SPLIT_GRAPH = build_graph(
    list("abcd"),
    [("a", "a", 1), ("a", "b", 1), ("a", "c", 3), ("a", "d", 3), ("b", "a", 3), ("b", "b", 1),
     ("b", "c", 1), ("b", "d", 3), ("c", "a", 3), ("c", "b", 1), ("c", "d", 1), ("d", "a", 2),
     ("d", "b", 1), ("d", "c", 1), ("d", "d", 1)],
)
_LOCAL_GRAPH = build_graph(
    list("abcde"),
    [("a", "a", 3), ("a", "d", 3), ("b", "a", 3), ("b", "b", 1), ("b", "d", 2), ("b", "e", 3),
     ("c", "c", 1), ("c", "d", 2), ("d", "a", 2), ("d", "b", 1), ("d", "c", 3), ("d", "e", 1),
     ("e", "b", 3), ("e", "c", 3), ("e", "d", 2), ("e", "e", 2)],
)


# Z/2 + Z/8 + Z and Z/6 + Z: [R | G] has a column more than rows, and the
# local step modulo D_t logs row_add, row_swap, col_add and col_swap
_REPLAYED_MATRIX = IntMatrix(
    [[3, 4, 2, -4, 3], [-1, 2, 2, -2, 1], [4, 1, -3, 3, 4], [-3, -2, 4, 2, 1], [4, 2, 0, -2, 2]]
)
_REPLAYED_GRAPH = build_graph(
    ["v0", "v1", "v2", "v3"],
    [("v0", "v0", 1), ("v0", "v3", 3), ("v1", "v2", 2), ("v1", "v3", 3), ("v2", "v1", 2),
     ("v2", "v2", 3), ("v3", "v2", 2), ("v3", "v3", 3)],
)


# a two-vertex block with no unit and a kernel row: I - A^T is
# [[-2, -2], [-2, -2]], so R is that block, (1, -1) spans its left kernel,
# and K0 is Z/2 + Z; beside it, a lone loop a that x enters by an edge of
# multiplicity 2, whose row of R is not zero, and a lone loop b alone,
# whose row is zero: Z/2 + Z/2 + Z^2
_KERNEL_GRAPH = build_graph(
    ["x", "y"], [("x", "x", 3), ("x", "y", 2), ("y", "x", 2), ("y", "y", 3)]
)
_LOOPS_BESIDE_KERNEL = build_graph(
    ["x", "y", "a", "b"],
    [("x", "x", 3), ("x", "y", 2), ("x", "a", 2), ("y", "x", 2), ("y", "y", 3), ("a", "a", 1),
     ("b", "b", 1)],
)


def _corrupting(phase, corrupt: str, applied: bool = False):
    """An elimination phase of intmat that corrupts the first step of the
    given kind it logs, or with "-last" the last: an addition's q becomes
    q + 1; a swap, a negation, or any step with "-dropped" is deleted.
    With applied, the unit phase also leaves the rows that its corrupted
    row steps give, as a faulty phase would; otherwise only its returned
    log is wrong."""
    kind, _, how = corrupt.partition("-")

    def corrupted(a, *args):
        # _reduce appends its row steps and its column steps to the two
        # lists it is given; _clear_units returns them, in that order
        axis = kind.startswith("col")
        start = len(args[axis]) if args else 0
        rows = [list(row) for row in a]
        result = phase(a, *args)
        log = (args or result)[axis]
        at = [i for i in range(start, len(log)) if log[i][0] == kind]
        first = at[-1] if how.startswith("last") else at[0]
        _, i, j, q = log[first]
        if how.endswith("dropped") or not kind.endswith("_add"):
            del log[first]
        else:
            log[first] = (kind, i, j, q + 1)
        if applied:
            a[:] = intmat._replay(rows, result[0])
        return result

    return corrupted


def _remainder_pivots(row_log) -> int:
    """How many row swaps of a gcd phase's row log bring a remainder to the
    pivot row k: a swap of row k logged after an addition from row k.  The
    first pass at step k may swap before it adds; a later one swaps only
    for a pivot whose gcd with the modulus is below that of row k's, which
    only a remainder of that pass's row or column division brings about."""
    added, swaps = set(), 0
    for kind, i, j, _ in row_log:
        if kind == "row_add" and i < j:  # from pivot row i; the reverse drags an entry into row j
            added.add(i)
        elif kind == "row_swap":
            swaps += i in added
    return swaps


def _k0_answers(matrices, graphs) -> list:
    """The Smith diagonal and coordinate rows of each matrix, and the K0
    data of each graph."""
    return [smith_coordinates(matrix.to_lists()) for matrix in matrices] + [
        k0_of_graph(graph) for graph in graphs
    ]


def _raises(match: str, matrices, graphs) -> None:
    # each graph runs the elimination that the caller patched, not the memo
    for matrix in matrices:
        with pytest.raises(RuntimeError, match=match):
            cokernel(matrix)
    for graph in graphs:
        ktheory._contracted_cokernel.cache_clear()
        with pytest.raises(RuntimeError, match=match):
            k0_of_graph(graph)


def _caught(matrices, graphs, answers) -> int:
    """How many of the calls of _k0_answers fail a coordinate row's kill or
    onto check; each of the others must still give its entry of answers.
    Each call runs the elimination, not the memo."""
    calls = [(smith_coordinates, m.to_lists()) for m in matrices]
    calls += [(k0_of_graph, graph) for graph in graphs]
    caught = 0
    for (call, arg), answer in zip(calls, answers):
        ktheory._contracted_cokernel.cache_clear()
        try:
            result = call(arg)
        except RuntimeError as exc:
            assert re.search("does not kill A|not onto", str(exc))
            caught += 1
        else:
            assert result == answer
    return caught


def _snf_raises(match: str, matrices) -> None:
    for matrix in matrices:
        with pytest.raises(RuntimeError, match=match):
            smith_normal_form(matrix)


class TestK0Certificate:
    """The K0 path derives only the coordinate rows from the elimination log,
    without building U or V.  The rows that the unit phase leaves must have
    a triangular form, and each coordinate row, pulled back through its
    row steps, must kill A.  The answer itself is certified: each row kills
    A, the rows map onto Z^f plus the sum of the Z/d_i, the free rows split
    off coker [R | G] (F G = I), and the d_i divide in turn and multiply to
    D = |det S|, or, for an [R | G] wider than S, to D / D_t times the
    order that the replayed log modulo D_t shows."""

    def test_matches_smith_normal_form(self):
        # the coordinate rows are those of the presentation with its links
        # substituted away (built here, independently of ktheory), expanded
        # to every vertex; against the full I - A^T they must still give its
        # invariants, kill it, and map onto the group
        rng = random.Random(47)
        graphs = [infinite_order_graph(), rose(1), rose(2), rose(5)]
        graphs += [_random_graph(rng) for _ in range(300)]
        singular = sinks = modular = contracted = cyclic = 0
        for graph in graphs:
            if not graph.edges:
                continue  # no relations at all: test_sinks_give_no_relation
            relations, column = _contracted_presentation(graph)
            k0 = k0_of_graph(graph)
            contracted += len(relations) < len(graph.vertices)
            _check_full_presentation(_presentation(graph), k0)
            if not relations[0]:  # every vertex leads to a sink: Z^kept, the identity rows
                rows = [[int(i == j) for j in range(len(relations))] for i in range(len(relations))]
                assert k0.coordinate_map == tuple(tuple(row[i] for i in column) for row in rows)
                continue
            m = IntMatrix(relations)
            rows = _check_coordinates(m, smith_normal_form(m))
            expected = tuple(tuple(row[i] for i in column) for row in rows)
            if _finite_cyclic(k0.group):
                # scaled by a unit modulo d, which puts the unit in normal form
                (d,) = k0.group.invariant_factors
                assert unit_scalar(expected[0], k0.coordinate_map[0], d) is not None
                assert k0.unit.torsion == (gcd(sum(expected[0]), d) % d,)
                cyclic += 1
            else:
                assert k0.coordinate_map == expected
            singular += m.rows == m.cols and determinant(m) == 0
            sinks += m.rows > m.cols
            modular += _modular_route(m.to_lists())
        assert singular >= 20  # free summands are covered
        assert sinks >= 50  # so are the non-square presentations of graphs with sinks
        assert modular >= 50  # and the route modulo D
        assert contracted >= 20  # and graphs with links
        assert cyclic >= 50  # and the normal form of a finite cyclic K0

    def test_matches_on_rectangular(self):
        rng = random.Random(53)
        for _ in range(200):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
            _check_coordinates(m, smith_normal_form(m))

    def test_both_routes_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(67)
        modular = free = sinks = 0  # square nonsingular, or with free rows
        for _ in range(150):
            graph = _random_graph(rng)
            if not graph.edges:
                continue
            m = _presentation(graph)
            theirs = sympy_snf(sympy.Matrix(m.to_lists()), domain=sympy.ZZ)
            diag = [abs(int(theirs[i, i])) for i in range(min(m.rows, m.cols))]
            k0 = k0_of_graph(graph)
            assert k0.group.invariant_factors == tuple(sorted(d for d in diag if d > 1))
            assert k0.group.free_rank == m.rows - sum(1 for d in diag if d)
            if _modular_route(m.to_lists()):
                modular += 1
            else:
                free += 1
                sinks += m.rows > m.cols
        assert modular >= 30 and free >= 30 and sinks >= 20

    @pytest.mark.parametrize(
        "corrupt",
        ["row_add", "row_swap", "row_neg", "col_add", "col_swap", "col_add-dropped",
         "row_add-last-dropped"],
    )
    def test_corrupted_log_raises(self, monkeypatch, corrupt):
        # the unit phase with and without free rows, then the local step
        matrices, graphs = [_MODULAR_MATRIX, _INTEGER_MATRIX], [_MODULAR_GRAPH, _INTEGER_GRAPH]
        presentations = matrices + [_presentation(graph) for graph in graphs]
        answers = _k0_answers(matrices, graphs)
        if corrupt.startswith("row"):
            # a phase that applies the corrupted step leaves rows that are
            # not [[T, X], [0, R]]
            monkeypatch.setattr(
                intmat, "_clear_units", _corrupting(intmat._clear_units, corrupt, applied=True)
            )
            _raises("unit phase does not give", matrices, graphs)
            _snf_raises("unit phase does not give", presentations)
            monkeypatch.undo()
        monkeypatch.setattr(intmat, "_clear_units", _corrupting(intmat._clear_units, corrupt))
        if corrupt.startswith("row"):
            # a log that alone is wrong gives a U that fails U*A*V == D, and
            # each coordinate row that it changes fails its check against
            # A. A dropped negation changes none: a coordinate row is zero
            # on a pivot row when pulled back past its negation. Nor does
            # the last addition of _INTEGER_GRAPH's unit phase, whose
            # target each coordinate row holds at 0 modulo its factor
            _snf_raises("transform identity", presentations)
            caught = {"row_add": 4, "row_swap": 4, "row_neg": 0, "row_add-last-dropped": 3}
            assert _caught(matrices, graphs, answers) == caught[corrupt]
        else:
            # K0 reads only the unit phase's row steps, so its answers
            # stand: the form check takes its column order from the phase,
            # not from the logged swaps.  The dense U*A*V == D check of snf
            # reads the column steps
            _snf_raises("transform identity", presentations)
            assert _k0_answers(matrices, graphs) == answers
        monkeypatch.undo()
        # the local step's log, where [R | G] is wider than tall, is replayed;
        # modulo D_t no row is negated
        if corrupt != "row_neg":
            monkeypatch.setattr(intmat, "_reduce", _corrupting(intmat._reduce, corrupt))
            _raises("replayed", [_REPLAYED_MATRIX], [_REPLAYED_GRAPH])

    def test_unit_pivots_must_be_triangular(self, monkeypatch):
        # a unit phase that takes both rows of [[1, 1], [1, 1]] as pivots
        # with no step: each row holds 1 at its pivot, but row 1 also holds
        # pivot 0's column, so T is not triangular; taken as it stands, it
        # would give the trivial group instead of Z
        monkeypatch.setattr(intmat, "_clear_units", lambda b: ([], [], len(b), [0, 1]))
        matrix = IntMatrix([[1, 1], [1, 1]])
        _raises("unit phase does not give", [matrix], [])
        _snf_raises("unit phase does not give", [matrix])

    @pytest.mark.parametrize(
        "corrupt",
        [pytest.param("row_add", id="row_add-replayed"),
         pytest.param("row_swap", id="row_swap-replayed"),
         "row_add-last", "row_swap-last", "row_add-dropped", "row_add-last-dropped"],
    )
    def test_corrupted_modular_log_raises(self, monkeypatch, corrupt):
        # modulo D_t the certificate checks the rows that the row steps give;
        # the first and the last addition and swap are corrupted, and the
        # first and the last addition dropped. The first two ids are the
        # ones these cases had when the gcd steps modulo D were replayed,
        # which refused them as 'replayed'; each must now fail the kill
        # check instead. The inputs take the local step, once with D_t < D
        # and a CRT step and once with D_t == D: the solve alone answers for
        # _MODULAR_MATRIX and _MODULAR_GRAPH, which no longer reach the gcd
        # phase
        monkeypatch.setattr(intmat, "_reduce", _corrupting(intmat._reduce, corrupt))
        _raises("does not kill A", [_LOCAL_MATRIX], [_LOCAL_GRAPH])

    def test_corrupted_modular_row_step_never_passes(self, monkeypatch):
        # one random row step of the log modulo D_t changed: either the
        # certificate refuses the answer, or the answer is right; a change
        # that keeps the step modulo D_t (q + D_t) must pass
        rng = random.Random(97)
        reduce = intmat._reduce
        changed = []

        def corrupting(a, log, col_log, modulus=0):
            start = len(log)
            reduce(a, log, col_log, modulus)
            if modulus and len(log) > start:
                at = rng.randrange(start, len(log))
                kind, i, j, q = log[at]
                roll = rng.random()
                if kind == "row_add" and roll < 0.2:
                    log[at] = (kind, i, j, q + modulus)
                    kind = "same"
                elif kind == "row_add" and roll < 0.6:
                    log[at] = (kind, i, j, q + rng.choice((-1, 1)))
                else:
                    del log[at]
                changed.append(kind)

        monkeypatch.setattr(intmat, "_reduce", corrupting)
        outcomes = []
        while len(outcomes) < 250:
            n = rng.randint(2, 6)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if not _modular_route(rows):
                continue
            snf = smith_normal_form(IntMatrix(rows))  # over Z: left as it is
            before = len(changed)
            try:
                _check_coordinates(rows, snf)
                passed = True
            except RuntimeError:
                passed = False
            if len(changed) > before:
                outcomes.append((changed[-1], passed))
        assert all(passed for kind, passed in outcomes if kind == "same")
        assert sum(kind == "same" for kind, _ in outcomes) >= 20
        assert sum(not passed for _, passed in outcomes) >= 150
        assert {"row_add", "row_swap"} <= {kind for kind, _ in outcomes}

    def test_rows_not_onto_raise(self, monkeypatch):
        # the changed rows still kill A but reach a proper subgroup: 2 * c in
        # Z/6, and (c_1, c_1) in Z/2 + Z/2, where each row alone is onto
        coordinate_rows = intmat._coordinate_rows

        def shrunk(log, wanted):
            rows = coordinate_rows(log, wanted)
            return [rows[0], rows[0]] if len(rows) == 2 else [[2 * x % 6 for x in rows[0]]]

        monkeypatch.setattr(intmat, "_coordinate_rows", shrunk)
        two_roses = build_graph(["a", "b"], [("a", "a", 3), ("b", "b", 3)])
        _raises("not onto", [IntMatrix([[-6]]), IntMatrix([[2, 0], [0, 2]])], [rose(7), two_roses])

    def test_factors_out_of_turn_raise(self, monkeypatch):
        # the factors of Z/2 + Z/4 in the wrong order, (4, 2), with their
        # rows: they still multiply to D = 8, and each row kills A modulo
        # its factor and maps onto it.  Each input is one block, so that
        # the local step runs on it (diag(2, 4) would split into two
        # blocks, Z/2 and Z/4).  _merge is the one place that puts the
        # factors in turn, so the fault is a merge that leaves them reversed
        merge = intmat._merge

        def reversed_chain(chain, factors):
            merge(chain, factors)
            chain.reverse()
            return chain

        monkeypatch.setattr(intmat, "_merge", reversed_chain)
        two_roses = build_graph(["a", "b"], [("a", "a", 3), ("a", "b", 2), ("b", "b", 5)])
        _raises("divide in turn", [IntMatrix([[2, 2], [0, 4]])], [two_roses])  # Z/2 + Z/4
        # a gcd phase whose diagonal comes out swapped hands the merge (4, 2)
        # with the rows of (2, 4): the merge sorts the factors, and the row
        # left with Z/4 does not kill A modulo 4
        monkeypatch.undo()
        reduce = intmat._reduce

        def swapped(a, row_log, col_log, modulus=0):
            reduce(a, row_log, col_log, modulus)
            a[0][0], a[1][1] = a[1][1], a[0][0]

        monkeypatch.setattr(intmat, "_reduce", swapped)
        _raises("does not kill A", [IntMatrix([[2, 2], [0, 4]])], [two_roses])

    @pytest.mark.parametrize("wrong", [lambda d: 2 * d, lambda d: -d - 1], ids=["double", "next"])
    def test_wrong_determinant_raises(self, monkeypatch, wrong):
        # D comes from Bareiss on [R^T | 1] alone; a wrong D must not pass
        # the certificate.  Where the local step runs, a doubled D leaves
        # the factors short of it (the invariant factors multiply to D);
        # elsewhere the answer is Z/D' with the solve's row z / t, and
        # z R = +-D * 1 / t is not 0 modulo the wrong D' (the kill check)
        solve = intmat._solve

        def corrupted(residual):
            D, *rest = solve(residual)
            return abs(wrong(D)), *rest

        monkeypatch.setattr(intmat, "_solve", corrupted)
        _raises("does not kill A", [_MODULAR_MATRIX], [_MODULAR_GRAPH])
        doubled = wrong(3) == 6
        _raises("multiply" if doubled else "does not kill A", [_LOCAL_MATRIX], [_LOCAL_GRAPH])

    def test_corrupted_coordinate_row_raises(self, monkeypatch):
        coordinate_rows = intmat._coordinate_rows

        def corrupted(log, wanted):
            rows = coordinate_rows(log, wanted)
            rows[0][0] += 1
            return rows

        monkeypatch.setattr(intmat, "_coordinate_rows", corrupted)
        _raises("coordinate row", [_MODULAR_MATRIX, _INTEGER_MATRIX], [_MODULAR_GRAPH, _INTEGER_GRAPH])

    @pytest.mark.parametrize("entry", [0, -1])
    def test_corrupted_solve_raises(self, monkeypatch, entry):
        # one entry of z off by one, on the route that takes the solve's row
        # as it is (t = 1) and on both kinds of local step; the row z / t no
        # longer kills R, or t changes and the rows miss part of the group
        solve = intmat._solve

        def corrupted(residual):
            D, z, *rest = solve(residual)
            z[entry] += 1
            return D, z, *rest

        monkeypatch.setattr(intmat, "_solve", corrupted)
        _raises("does not kill A|not onto", [_MODULAR_MATRIX, _LOCAL_MATRIX],
                [_MODULAR_GRAPH, _LOCAL_GRAPH, _SPLIT_GRAPH])

    @pytest.mark.parametrize("entry", [0, -1])
    def test_corrupted_crt_row_raises(self, monkeypatch, entry):
        # the row that CRT builds in _merge for the largest factor, where
        # the solve's cyclic part joins the local step's last factor, one
        # entry off by one before the pull-back (D_t < D: the Z/29 and Z/5
        # parts join the local factor)
        local_factors, merge = intmat._local_factors, intmat._merge

        def cyclic_part_last(block, D, z):
            pairs, bound = local_factors(block, D, z)
            # the solve's cyclic part comes last, prime to the factor before it
            assert len(pairs) > 1 and gcd(pairs[-1][0], pairs[-2][0]) == 1
            return pairs, bound

        def corrupted(chain, factors):
            merge(chain, factors)
            chain[-1][1][entry] += 1
            return chain

        monkeypatch.setattr(intmat, "_local_factors", cyclic_part_last)
        monkeypatch.setattr(intmat, "_merge", corrupted)
        _raises("does not kill A|not onto", [_LOCAL_MATRIX], [_SPLIT_GRAPH])

    def test_dropped_prime_power_raises(self, monkeypatch):
        # D_t with the power of one prime of t dropped: the local step then
        # misses that prime, and the part of s left for the cyclic row is
        # smaller than D's, so the factors no longer multiply to D
        prime_part = intmat._prime_part
        calls = []

        def dropped(n, t):
            part = prime_part(n, t)
            calls.append(part)
            if len(calls) > 1:  # only D_t, the first call of each answer
                return part
            p = next(p for p in range(2, t + 1) if t % p == 0)
            while part % p == 0:
                part //= p
            return part

        monkeypatch.setattr(intmat, "_prime_part", dropped)
        for matrix in (_LOCAL_MATRIX, _presentation(_LOCAL_GRAPH), _presentation(_SPLIT_GRAPH)):
            calls.clear()
            with pytest.raises(RuntimeError, match="multiply"):
                smith_coordinates(matrix.to_lists())

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
        k0_of_graph(scc_graph(24, 5))
        assert not builds  # the presentation comes from the edge list

    def test_torsion_rows_stay_reduced(self):
        k0 = k0_of_graph(scc_graph(120, 61))
        factors = k0.group.invariant_factors
        assert factors
        for d, row in zip(factors, k0.coordinate_map):
            assert all(0 <= x < d for x in row)

    def test_modular_route_stays_below_the_determinant(self, monkeypatch):
        # every multiplier in the K0 logs (the local step's, modulo D_t = 18
        # here, where remainders become pivots, and the unit phase's), and
        # every coordinate-row entry, has at most D's bits (461 here); the
        # integer gcd phase's multipliers reached 756 bits
        logs = []
        coordinate_rows = intmat._coordinate_rows

        def recording(log, wanted):
            logs.append(log)
            return coordinate_rows(log, wanted)

        monkeypatch.setattr(intmat, "_coordinate_rows", recording)
        k0 = k0_of_graph(scc_graph(400, 0))
        bits = k0.group.torsion_size.bit_length()
        assert k0.group.free_rank == 0 and bits == 461
        assert len(logs) == 2  # the local step's rows, then the pull-back
        assert _remainder_pivots(logs[0])
        assert max(abs(q).bit_length() for log in logs for *_, q in log) <= bits
        assert max(x.bit_length() for row in k0.coordinate_map for x in row) <= bits

    def test_row_additions_stay_bounded(self):
        # 17,330 row additions with the unit phase and the column pivot rule;
        # 18,792 when every pivot came from the dense gcd loop's row-major scan
        row_steps, _, _, residual = intmat._unit_phase(_presentation(scc_graph(200, 0)).to_lists())
        row_steps += intmat._gcd_phase(residual)[0]
        assert sum(step[0] == "row_add" for step in row_steps) < 18_500

    def test_zero_trailing_block_ends_the_gcd_phase(self):
        # n disjoint loops give I - A^T = 0: every row of R is zero, so each
        # is a free generator e_i, split off before the solve, which gets no
        # rows.  K0 once ran the gcd phase over Z here, which rescanned the
        # zero block at every later pivot and took about 8 s of CPU at n = 800
        names = [f"v{i}" for i in range(800)]
        graph = build_graph(names, [(v, v, 1) for v in names])
        start = time.process_time()
        k0 = k0_of_graph(graph)
        spent = time.process_time() - start
        assert k0.group.free_rank == 800 and k0.group.invariant_factors == ()
        assert spent <= 2.0, f"K0 of 800 disjoint loops took {spent:.2f} s of CPU"

    @pytest.mark.parametrize("extra", ["kernel-block", "sink"])
    def test_free_rows_cost_what_the_twin_costs(self, extra):
        # scc_graph(400, 0) plus a two-vertex block whose I - A^T has the
        # kernel vector (1, -1) on x and y, or plus one sink: both have a
        # free summand, and K0 took 5.9 and 6.5 s of CPU by the gcd phase
        # over Z, against 0.40 s for the nonsingular twin; now one Bareiss
        # pass and its extension by the section cost about what the twin's
        # solve does.  Each is timed against the twin in this process
        twin = scc_graph(400, 0)
        if extra == "sink":
            graph = build_graph([*twin.vertices, "s"], [*twin.edges, ("v0", "s", 1)])
        else:
            block = [("x", "x", 2), ("y", "y", 2), ("x", "y", 1), ("y", "x", 1), ("x", "v0", 1),
                     ("y", "v0", 1), ("v0", "x", 1)]
            graph = build_graph([*twin.vertices, "x", "y"], [*twin.edges, *block])
        ratio, k0 = _twin_ratio(graph, twin)
        assert k0.group.free_rank == 1 and k0.unit_order is INFINITE
        assert ratio <= 2.0, f"K0 with a free summand took {ratio:.2f} times its twin's CPU"

    def test_singular_and_rectangular_match_sympy(self):
        # 200 seeded singular or non-square matrices of 2-7 rows against
        # sympy's Smith form, each answer checked against snf (the free rows
        # span its left kernel) and for kill and onto
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(211)
        checked = wide = free = 0
        while checked < 200:
            m, n = rng.randint(2, 7), rng.randint(1, 7)
            rows = [[rng.choice((0, 0, 1, -1, 2, rng.randint(-9, 9))) for _ in range(n)]
                    for _ in range(m)]
            if m == n:
                rows[-1] = [x + 2 * y for x, y in zip(rows[0], rows[1])]
            theirs = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
            size = min(m, n)
            diagonal = _check_coordinates(rows, smith_normal_form(IntMatrix(rows)))
            ours = smith_coordinates(rows)[0]
            assert sorted(ours) == sorted(abs(int(theirs[i, i])) for i in range(size))
            checked += 1
            free += len(diagonal) > sum(1 for d in ours if d > 1)
            wide += n > m
        assert free >= 100 and wide >= 50

    def test_zero_rows_are_split_off_before_the_solve(self, monkeypatch):
        # a zero row i of R is a generator with no relation, a block of its
        # own whose free row is e_i: the solve is given it alone, as a row
        # with no column, and R's other rows apart from it.  Disjoint loops,
        # infinite_order_graph (whose R is [[0]]), lone loops beside a
        # kernel block, and seeded matrices whose zeroed rows sit beside
        # kernel and torsion rows each match sympy's Smith form and pass
        # _check_coordinates, and every other block that the solve is given
        # has no zero row or column
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        solve = intmat._solve
        solved = []

        def nonzero_rows(residual):
            if residual != [[]]:
                assert all(map(any, residual)), "the solve was given a zero row beside others"
                assert all(map(any, zip(*residual))), "the solve was given a zero column"
            solved.append(solve(residual))
            return solved[-1]

        monkeypatch.setattr(intmat, "_solve", nonzero_rows)
        loops = build_graph(list("abcde"), [(v, v, 1) for v in "abcde"])
        graphs = [loops, infinite_order_graph(), _LOOPS_BESIDE_KERNEL]
        cases = [_presentation(graph).to_lists() for graph in graphs]
        rng = random.Random(233)
        for _ in range(150):
            m, n = rng.randint(4, 7), rng.randint(2, 7)
            rows = [[rng.choice((0, 2, -2, 3, 4, rng.randint(-9, 9))) for _ in range(n)]
                    for _ in range(m)]
            rows[-1] = [x + 2 * y for x, y in zip(rows[0], rows[1])]  # a kernel row
            for i in rng.sample(range(2, m - 1), rng.randint(1, m - 3)):  # zeroed beside it
                rows[i] = [0] * n
            rng.shuffle(rows)
            cases.append(rows)
        beside = 0  # R's nonzero rows have both a kernel row and torsion
        for rows in cases:
            assert not all(map(any, intmat._unit_phase(rows)[3]))  # R has a zero row
            theirs = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
            snf = smith_normal_form(IntMatrix(rows))
            size = len(snf.diagonal)
            assert sorted(snf.diagonal) == sorted(abs(int(theirs[i, i])) for i in range(size))
            solved.clear()
            _check_coordinates(rows, snf)  # smith_coordinates gives snf's diagonal
            assert solved.count((1, [1], [[1]], [[1]], [[1]])) == sum(not any(row) for row in
                                                                 intmat._unit_phase(rows)[3])
            beside += any(free and D > 1 for D, _, free, _, _ in solved)
        for graph in graphs:
            _check_full_presentation(_presentation(graph), _cold(graph))
        assert beside >= 120

    @pytest.mark.parametrize("fault", ["rank", "kernel-row"])
    def test_corrupted_free_rows_raise(self, monkeypatch, fault):
        # one rank too few, so that a pivot column's vector is taken for a
        # kernel row, or one free row off by one: the rows no longer kill A
        # or no longer split off coker [R | G]
        solve = intmat._solve
        if fault == "rank":
            bareiss = intmat._bareiss

            def short(a, order, start=0):
                rank, det = bareiss(a, order, start)
                return (rank - 1 if not start and rank else rank), det

            monkeypatch.setattr(intmat, "_bareiss", short)
        else:

            def corrupted(residual):
                D, z, free, section, block = solve(residual)
                free[0][-1] += 1
                return D, z, free, section, block

            monkeypatch.setattr(intmat, "_solve", corrupted)
        # each input's R has nonzero rows with a kernel, which reach the
        # solve: a zero row of R is split off before it, and has no pass
        # or kernel row to corrupt
        _raises("does not kill A|split off|section", [_INTEGER_MATRIX, _REPLAYED_MATRIX],
                [_KERNEL_GRAPH, _LOOPS_BESIDE_KERNEL])

    def test_corrupted_section_raises(self, monkeypatch):
        # inputs whose free rows come from the solve, each with a nonzero
        # last entry: one entry of G changed in its last row breaks F G = I
        solve = intmat._solve

        def corrupted(residual):
            D, z, free, section, block = solve(residual)
            section[-1][-1] += 1
            return D, z, free, section, block

        monkeypatch.setattr(intmat, "_solve", corrupted)
        _raises("split off", [_INTEGER_MATRIX, _REPLAYED_MATRIX], [_KERNEL_GRAPH])

    def test_a_free_row_cannot_pass_for_torsion(self, monkeypatch):
        # [[2, 0], [0, 0]] is Z/2 + Z with torsion row (1, 0) modulo 2 and
        # free row (0, 1): with the two swapped, (0, 1) still kills A modulo
        # 2, but (1, 0) does not kill A exactly
        assert smith_coordinates([[2, 0], [0, 0]]) == ((2, 0), ((1, 0), (0, 1)))
        coordinate_rows = intmat._coordinate_rows

        def swapped(log, wanted):
            rows = coordinate_rows(log, wanted)
            return rows[::-1] if len(rows) == 2 and all(len(row) == 2 for row in rows) else rows

        monkeypatch.setattr(intmat, "_coordinate_rows", swapped)
        _raises("does not kill A", [IntMatrix([[2, 0], [0, 0]])], [])

    def test_corrupted_replayed_step_raises(self, monkeypatch):
        # one multiplier of the log modulo D_t off by one, or one step
        # dropped, at every position of the logs of the inputs whose [R | G]
        # is wider than tall: the replay refuses the log, or the rows fail
        # their checks, or the answer is the right one
        reduce = intmat._reduce
        answers = _k0_answers([_REPLAYED_MATRIX], [_REPLAYED_GRAPH])
        outcomes = []
        for position in range(40):
            for how in ("bumped", "dropped"):

                def corrupting(a, row_log, col_log, modulus=0):
                    reduce(a, row_log, col_log, modulus)
                    log = row_log + col_log
                    if modulus and position < len(log):
                        step = log[position]
                        target = row_log if step in row_log else col_log
                        at = target.index(step)
                        if how == "dropped":
                            del target[at]
                        else:
                            target[at] = (*step[:3], step[3] + 1)

                monkeypatch.setattr(intmat, "_reduce", corrupting)
                calls = [(smith_coordinates, _REPLAYED_MATRIX.to_lists()), (k0_of_graph, _REPLAYED_GRAPH)]
                for (call, arg), answer in zip(calls, answers):
                    try:
                        assert call(arg) == answer
                        outcomes.append("right")
                    except RuntimeError as exc:
                        outcomes.append(str(exc))
                monkeypatch.undo()
        assert sum("replayed" in outcome for outcome in outcomes) >= 20


def _twin_ratio(graph: DirectedGraph, twin: DirectedGraph):
    """The CPU of K0 of graph over that of its twin, each timed twice in
    turn from a cold memo (a warm one would time a lookup), the least of
    each pair; and K0 of graph."""
    spent = []
    for g in (twin, graph, twin, graph):
        ktheory._contracted_cokernel.cache_clear()
        start = time.process_time()
        k0 = k0_of_graph(g)
        spent.append(time.process_time() - start)
    return min(spent[1], spent[3]) / min(spent[0], spent[2]), k0


class TestInputFamilies:
    """K0 on the input families of conftest.family_graph: its cost against
    the nonsingular twin scc_graph(n, 0) of the same vertex count, and its
    Smith diagonal against an exact rank and determinant that share no
    code with intmat (conftest.exact_rank_det)."""

    @pytest.mark.parametrize("family, n, bound", [("blocks", 400, 3.0), ("sinks", 200, 3.0),
                                                  ("dense", 120, 30.0)])
    def test_family_costs_a_bounded_multiple_of_its_twin(self, family, n, bound):
        # measured here: 200 disjoint blocks 0.25 times the twin's CPU,
        # where one solve over all of R took 22 times; 8 sinks 1.5 times;
        # a dense 0/1 graph 13.5 times, as its unit phase handles n^2 / 2
        # edges against the twin's 3n
        ratio, k0 = _twin_ratio(family_graph(family, n), scc_graph(n, 0))
        if family == "blocks":
            assert k0.group == FGAbelianGroup((2,) * (n // 2), n // 2)
        assert ratio <= bound, f"K0 of the {family} family took {ratio:.2f} times its twin's CPU"

    @pytest.mark.parametrize("graph", [scc_graph(200, 0), scc_graph(400, 0), family_graph("dense", 60),
                                       family_graph("blocks", 400), family_graph("sinks", 200)],
                             ids=["scc200", "scc400", "dense60", "blocks400", "sinks200"])
    def test_diagonal_against_modular_elimination(self, graph):
        # the diagonal multiplies to |det A| on a nonsingular presentation,
        # has rank nonzero entries, and as many entries prime to p as A
        # has rank modulo p, for p = 2 and 3
        rows = presentation_rows(graph)
        diagonal = smith_coordinates(rows)[0]
        rank, det = exact_rank_det(rows)
        assert sum(d != 0 for d in diagonal) == rank
        if det:
            assert prod(diagonal) == abs(det)
        else:
            assert len(rows) != len(rows[0]) or 0 in diagonal
        for p in (2, 3):
            assert rank_mod(rows, p)[0] == sum(d % p != 0 for d in diagonal)

    @pytest.mark.parametrize("graph",
                             [scc_graph(200, 0), scc_graph(400, 0), family_graph("dense", 120)],
                             ids=["scc200", "scc400", "dense120"])
    def test_size_contract(self, monkeypatch, graph):
        # the intmat module docstring's contract on a nonsingular
        # presentation: R's entries, each block's D and z, and every torsion
        # coordinate row stay within H + log2(p) + 1 bits, for H the sum
        # over A's nonzero columns of log2 of the column norm and p the rows
        # of R.  Measured: scc200 H 377, D 237 and z 238 bits; scc400 H 750,
        # D 461 and z 466 bits; dense120 H 355, D 211 and z 214 bits
        rows = presentation_rows(graph)
        solves = []
        solve = intmat._solve
        monkeypatch.setattr(intmat, "_solve", lambda block: solves.append(solve(block)) or solves[-1])
        diagonal, coordinate_rows = smith_coordinates(rows)
        assert len(rows) == len(rows[0]) and 0 not in diagonal  # nonsingular: every row is torsion
        residual = intmat._unit_phase(rows)[3]
        hadamard = sum(log2(sum(x * x for x in column)) / 2 for column in zip(*rows) if any(column))
        bits = [abs(x).bit_length() for row in residual for x in row]
        bits += [abs(x).bit_length() for D, z, *_ in solves for x in (D, *z)]
        bits += [x.bit_length() for row in coordinate_rows for x in row]
        assert max(bits) <= hadamard + log2(len(residual)) + 1

    def test_large_multiplicities_within_budget(self):
        # conftest.huge_graph: 12 vertices, every multiplicity of 1,000
        # digits, so H is about 40,000 bits.  K0 took 0.17-0.19 s of CPU on
        # a shared 2-CPU machine (20 vertices took 1.1 s); the budget is
        # 1.0 s.  The product of the diagonal is sympy's |det| (about
        # 0.3 s), as exact_rank_det has too few primes for a bound this large
        sympy = pytest.importorskip("sympy")
        graph = huge_graph(12, 1000)
        start = time.process_time()
        k0 = k0_of_graph(graph)
        spent = time.process_time() - start
        det = sympy.Matrix(presentation_rows(graph)).det()
        assert det and k0.group.free_rank == 0 and k0.group.torsion_size == abs(det)
        assert spent <= 1.0, f"K0 with 1,000-digit multiplicities took {spent:.2f} s of CPU"

    def test_modular_elimination_against_sympy(self):
        # exact_rank_det on small matrices, singular, non-square and with
        # large entries, against sympy; the primes are primes
        sympy = pytest.importorskip("sympy")
        assert all(map(sympy.isprime, PRIMES_61)) and len(set(PRIMES_61)) == len(PRIMES_61)
        rng = random.Random(1441)
        for _ in range(300):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.choice((0, 0, 1, -1, 2, rng.randint(-10**6, 10**6))) for _ in range(n)]
                    for _ in range(m)]
            if m == n > 1 and rng.random() < 0.3:
                rows[-1] = [x - 3 * y for x, y in zip(rows[0], rows[1])]
            matrix = sympy.Matrix(rows)
            assert exact_rank_det(rows) == (matrix.rank(), matrix.det() if m == n else 0)


class TestCensus:
    """K0 over the census of small graphs (conftest.census): the 12,309
    purely infinite simple graphs on 2 vertices with multiplicities 0-3 and
    on 3 vertices with multiplicities 0-2.  771 of them have a non-cyclic
    torsion and 1,171 a free summand, so the census runs the local step
    modulo D_t, the merge of several factors, and the saturation and the
    section on small blocks."""

    def test_k0_digests(self, census):
        # two sha256 pins: one over the sorted multiset of (group, unit
        # order), which no choice of basis moves, and one over
        # repr(k0_of_graph(g)) in census order, which pins the units and
        # coordinate maps too, so a change to the elimination meant to
        # leave its outputs byte-identical must keep both
        k0s = [k0_of_graph(graph) for graph in census]
        assert len(k0s) == 12_309
        assert sum(len(k0.group.invariant_factors) > 1 for k0 in k0s) == 771
        assert sum(k0.group.free_rank > 0 for k0 in k0s) == 1_171
        groups = sorted(repr((k0.group, k0.unit_order)) for k0 in k0s)
        assert _digest(groups) == _CENSUS_GROUPS_DIGEST
        assert _digest([repr(k0) for k0 in k0s]) == _CENSUS_K0_DIGEST

    def test_diagonals_against_modular_rank(self, census):
        # the Smith diagonal of each graph's I - A^T has as many entries
        # prime to p as the presentation has rank modulo p, by
        # conftest.rank_mod, which shares no code with intmat, for p = 2, 3
        for graph in census:
            rows = presentation_rows(graph)
            diagonal = smith_coordinates(rows)[0]
            for p in (2, 3):
                assert rank_mod(rows, p)[0] == sum(d % p != 0 for d in diagonal), (graph, p)

    def test_sample_against_sympy(self, census):
        # 300 graphs drawn with seed 909: K0's group is the one read off
        # sympy's Smith form of I - A^T
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        for graph in random.Random(909).sample(census, 300):
            rows = presentation_rows(graph)
            theirs = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
            diagonal = [abs(int(theirs[i, i])) for i in range(min(len(rows), len(rows[0])))]
            group = k0_of_graph(graph).group
            assert group.invariant_factors == tuple(sorted(d for d in diagonal if d > 1)), graph
            assert group.free_rank == len(rows) - sum(d != 0 for d in diagonal), graph

    def test_matrix_type_triangle(self, census):
        # 400 graphs drawn with seed 910, c, d <= 4: the gcd rule on the
        # unit order n (c == d for a unit of infinite order), the pointed-K0
        # comparison of the head graphs m_graph(E, c) and m_graph(E, d),
        # and, on a finite K0 of at most 1024 elements (every finite one
        # here), the automorphism oracle on c[1] and d[1] all agree
        oracle = 0
        for graph in random.Random(910).sample(census, 400):
            k0 = k0_of_graph(graph)
            group, unit, n = k0.group, k0.unit, k0.unit_order
            heads = {c: k0_of_graph(m_graph(graph, c)) for c in range(1, 5)}
            finite = group.is_finite and group.torsion_size <= 1024
            for c, d in itertools.product(range(1, 5), repeat=2):
                rule = c == d if n is INFINITE else gcd_criterion(n, c, d)
                assert compare_pointed_k0(heads[c], heads[d]).isomorphic == rule, (graph, c, d)
                if finite:
                    oracle += 1
                    assert automorphism_maps_x_to_y(
                        group, scale(group, c, unit), scale(group, d, unit)) == rule, (graph, c, d)
        assert oracle >= 5_000


def _unit_order_by_fractions(m: IntMatrix) -> int:
    """The order of the class of the all-ones vector in Z^n / im(M), M square
    and nonsingular: the least k with k M^-1 1 integral, the lcm of the
    denominators of M^-1 1, by Gauss-Jordan elimination over the rationals."""
    n = m.rows
    a = [[Fraction(x) for x in row] + [Fraction(1)] for row in m]
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k])
        a[k], a[p] = a[p], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return lcm(*(row[n].denominator for row in a))


class TestSolveRoutes:
    """Every route of smith_coordinates modulo D, and the unit class of K0
    against references that share no code with the elimination."""

    @pytest.mark.parametrize(
        "rows, route",
        [
            pytest.param(_MODULAR_MATRIX.to_lists(), "t = 1", id="t1-units"),
            pytest.param([[4, 3], [2, 5]], "t = 1", id="t1-Z14"),
            pytest.param([[12]], "t = 1", id="t1-1x1"),
            pytest.param([[-1]], "t = 1", id="t1-trivial"),
            pytest.param(_LOCAL_MATRIX.to_lists(), "D_t < D", id="split-units"),
            pytest.param(_presentation(_LOCAL_GRAPH).to_lists(), "D_t == D", id="whole-graph"),
            pytest.param([[2, 2], [0, 4]], "D_t == D", id="whole-Z2+Z4"),
            pytest.param([[2, 0], [0, 4]], "blocks", id="blocks-Z2+Z4"),
            pytest.param([[4, 0, 0], [0, 0, 6], [0, 9, 0]], "blocks", id="blocks-Z4+Z6+Z9"),
            pytest.param([[4, -1, 0], [5, 3, -5], [2, -2, 5]], "b misses", id="missed-Z55"),
            pytest.param([[2, 3, 0], [0, 2, 3], [3, 0, 2]], "b misses", id="missed-Z35"),
            pytest.param(_presentation(_SPLIT_GRAPH).to_lists(), "b misses", id="missed-graph"),
        ],
    )
    def test_routes_match_the_references(self, monkeypatch, rows, route):
        moduli = reduce_moduli(monkeypatch)
        smith_coordinates(rows)
        monkeypatch.undo()
        _check_coordinates(rows, snf := smith_normal_form(IntMatrix(rows)))
        D = abs(determinant(IntMatrix(rows)))
        cyclic = sum(d != 1 for d in snf.diagonal) <= 1
        if route == "t = 1":
            assert moduli == [] and cyclic
        elif route == "D_t < D":
            assert len(moduli) == 1 and 1 < moduli[0] < D and not cyclic
        elif route == "D_t == D":
            assert moduli == [D] and not cyclic
        elif route == "blocks":  # each block takes the solve alone, and the merge joins them
            assert moduli == [] and len(intmat._blocks(rows)) == len(rows)
        else:
            assert len(moduli) == 1 and 1 < moduli[0] < D and cyclic

        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        theirs = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
        diagonal = sorted(abs(int(theirs[i, i])) for i in range(len(rows)))
        assert diagonal == sorted(smith_coordinates(rows)[0])

    def test_unit_order_and_cyclic_unit(self):
        # the unit order against the lcm of the denominators of M^-1 1, for
        # every graph whose I - A^T is square and nonsingular; a finite
        # cyclic K0 = Z/d must hold the unit gcd(u, d), with u read off a row
        # of the Smith transform U of I - A^T
        rng = random.Random(151)
        graphs = [_random_graph(rng) for _ in range(300)]
        graphs += [scc_graph(24, seed) for seed in range(8)]
        graphs += [m_graph(graph, rng.randint(2, 4)) for graph in graphs[:60]]
        checked = cyclic = 0
        for graph in graphs:
            if not graph.edges or _sinks(graph):
                continue
            m = _presentation(graph)
            if not determinant(m):
                continue
            k0 = k0_of_graph(graph)
            assert k0.unit_order == _unit_order_by_fractions(m), graph
            checked += 1
            if _finite_cyclic(k0.group):
                (d,) = k0.group.invariant_factors
                snf = smith_normal_form(m)
                u = sum(snf.U[snf.diagonal.index(d)]) % d
                assert k0.unit.torsion == (gcd(u, d) % d,), graph
                cyclic += 1
        assert checked >= 140 and cyclic >= 100


def _columns(k0) -> list[tuple[int, ...]]:
    """The coordinate column of each vertex."""
    return [tuple(row[v] for row in k0.coordinate_map) for v in range(k0.generators)]


class TestLinkContraction:
    """Vertices whose only record is (v, w, 1), w != v, are substituted
    away before the elimination; each case is also checked against the full
    presentation I - A^T."""

    def _k0(self, vertices, edges):
        graph = build_graph(vertices, edges)
        k0 = k0_of_graph(graph)
        _check_full_presentation(_presentation(graph), k0)
        return k0

    def test_chains_into_sinks(self):
        # a -> b -> c -> s: every class is [s], K0 = Z with [1] = 4
        k0 = self._k0(list("abcs"), [("a", "b", 1), ("b", "c", 1), ("c", "s", 1)])
        assert k0.group == FGAbelianGroup((), 1) and k0.unit.free == (4,)
        assert k0.coordinate_map == ((1, 1, 1, 1),)
        # x = 2x + a + y, a -> b -> s, y -> s: K0 = Z^2 / (x + 2s) = Z
        k0 = self._k0(list("xabys"), [("x", "x", 2), ("x", "a", 1), ("x", "y", 1),
                                      ("a", "b", 1), ("b", "s", 1), ("y", "s", 1)])
        assert k0.group == FGAbelianGroup((), 1)
        assert len(set(_columns(k0)[1:])) == 1  # a, b and y are all [s]

    def test_closed_link_cycles_give_a_free_summand(self):
        # a -> b -> c -> a has no exit: K0 = Z, generated by the one class
        k0 = self._k0(list("abc"), [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)])
        assert k0.group == FGAbelianGroup((), 1) and k0.unit_order is INFINITE
        assert k0.coordinate_map in (((1, 1, 1),), ((-1, -1, -1),))
        # beside rose(3), and entered from a chain x -> y -> b
        k0 = self._k0(list("vxyabc"), [("v", "v", 3), ("x", "y", 1), ("y", "b", 1),
                                       ("a", "b", 1), ("b", "c", 1), ("c", "a", 1)])
        assert k0.group == FGAbelianGroup((2,), 1)
        assert len(set(_columns(k0)[1:])) == 1
        assert element_order(k0.group, k0.unit) is INFINITE

    def test_links_into_cycles(self):
        # x -> v on rose(3): [x] = [v], [1] = 2[v] = 0 in Z/2
        k0 = self._k0(["v", "x"], [("v", "v", 3), ("x", "v", 1)])
        assert k0.group == FGAbelianGroup((2,), 0) and k0.unit_order == 1
        # x -> a on the cycle a -> b -> a with an exit b -> b
        k0 = self._k0(list("abx"), [("a", "b", 1), ("b", "a", 1), ("b", "b", 1), ("x", "a", 1)])
        columns = _columns(k0)
        assert columns[0] == columns[1] == columns[2]
        # a self-loop of multiplicity 1 is no link: rose(1) keeps its zero relation
        k0 = self._k0(["v", "x"], [("v", "v", 1), ("x", "v", 1)])
        assert k0.group == FGAbelianGroup((), 1) and k0.unit.free in ((2,), (-2,))

    def test_a_long_chain(self):
        # 99,999 head vertices in one chain; the dense presentation would
        # have 10^10 entries, and a recursive walk would exhaust the stack
        k0 = k0_of_graph(m_graph(rose(3), 100_000))
        assert k0.group == FGAbelianGroup((2,), 0)
        assert k0.unit_order == 1
        assert k0.coordinate_map == ((1,) * 100_000,)


def _cold(graph: DirectedGraph):
    """K0 of the graph with the cokernel memo emptied first."""
    ktheory._contracted_cokernel.cache_clear()
    return k0_of_graph(graph)


class TestCokernelMemo:
    """k0_of_graph keeps the cokernels of the last few contracted
    presentations, keyed by the presentation's records: a hit must give
    what the elimination gives, and presentations that differ must not
    share an entry."""

    def test_a_hit_gives_the_cold_answer(self):
        memo = ktheory._contracted_cokernel
        links = build_graph(list("xabys"), [("x", "x", 2), ("x", "a", 1), ("x", "y", 1),
                                            ("a", "b", 1), ("b", "s", 1), ("y", "s", 1)])
        graphs = _golden_graphs() + [links]
        for graph in graphs:
            cold = _cold(graph)
            assert repr(k0_of_graph(graph)) == repr(cold)
            assert memo.cache_info().hits == 1
        for graph in [g for g in graphs if len(g.vertices) <= 24]:
            base = _cold(graph)
            for c in range(2, 7):
                head = m_graph(graph, c)
                hits = memo.cache_info().hits
                warm = k0_of_graph(head)
                assert memo.cache_info().hits == hits + 1
                assert repr(warm) == repr(_cold(head))
                assert warm.group == base.group
                k0_of_graph(graph)  # the next head graph meets the base graph's entry

    def test_head_graphs_share_one_elimination(self, monkeypatch):
        graph = _complete_graph(3, 2, 3)
        first = k0_of_graph(m_graph(graph, 2))

        def refuse(rows):
            raise AssertionError("the elimination ran on a presentation the memo holds")

        monkeypatch.setattr(intmat, "_unit_phase", refuse)
        second = k0_of_graph(m_graph(graph, 3))
        assert ktheory._contracted_cokernel.cache_info()[:2] == (1, 1)  # hits, misses
        monkeypatch.undo()
        assert second == _cold(m_graph(graph, 3)) and second.group == first.group

    def test_distinct_presentations_do_not_collide(self):
        # the same records with the sink at the other kept vertex: rows
        # [[1], [-2]] against [[0], [-1]]; and one multiplicity changed
        pairs = [
            (build_graph(["a", "b"], [("a", "b", 2)]), build_graph(["a", "b"], [("b", "b", 2)])),
            (build_graph(["a", "b"], [("a", "b", 2), ("b", "a", 1), ("b", "b", 3)]),
             build_graph(["a", "b"], [("a", "b", 2), ("b", "a", 1), ("b", "b", 4)])),
        ]
        memo = ktheory._contracted_cokernel
        for one, other in pairs:
            expected = [repr(_cold(one)), repr(_cold(other))]
            assert expected[0] != expected[1]
            memo.cache_clear()
            assert [repr(k0_of_graph(one)), repr(k0_of_graph(other))] == expected
            assert memo.cache_info()[:2] == (0, 2)  # hits, misses

    def test_the_memo_stays_bounded(self):
        for p in range(2, 22):
            k0_of_graph(rose(p))
        info = ktheory._contracted_cokernel.cache_info()
        assert info.misses == 20
        assert info.currsize == info.maxsize == ktheory._COKERNEL_CACHE_SIZE < 20


def _unit_rich_rows(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    """Sparse rows, about three nonzeros each, most of them +-1 (-1 twice
    as often as 1)."""
    values = (-1, -1, 1, 2, -2, 3)
    return [
        [rng.choice(values) if rng.random() < 3 / cols else 0 for _ in range(cols)]
        for _ in range(rows)
    ]


def _fill_rows(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    """A first row of entries 0 and +-1, at least one of them 1, over rows
    of entries 0, +-2 and +-3, so that the other rows' units appear only as
    fill: [1, 1] cleared from [2, 3] leaves [0, 1]."""
    b = [[rng.choice((0, 2, -2, 3, -3)) for _ in range(cols)] for _ in range(rows - 1)]
    first = [rng.choice((0, 1, -1)) for _ in range(cols)]
    first[rng.randrange(cols)] = 1
    return [first] + b


def _greedy_unit_phase(rows) -> tuple[list[int], list[list[int]]]:
    """The unit phase's pivot rule, dense and without bookkeeping: the
    columns it pivots on, in turn, and its rows after it moves pivot t to
    row t.  The pivot row is the unpivoted row holding +-1 with the fewest
    nonzeros, then the lowest index; its pivot is its +-1 column with the
    fewest unpivoted nonzero rows, then the lowest index.  That column is
    cleared from the other unpivoted rows, in row order, and a -1 pivot row
    is negated."""
    b = [list(row) for row in rows]
    m, n = len(b), len(b[0])
    pivot_rows, pivot_cols = [], []
    while True:
        free = [i for i in range(m) if i not in pivot_rows]
        candidates = [i for i in free if 1 in b[i] or -1 in b[i]]
        if not candidates:
            break
        r = min(candidates, key=lambda i: (n - b[i].count(0), i))
        c = min((j for j in range(n) if b[r][j] in (1, -1)),
                key=lambda j: (sum(1 for i in free if b[i][j]), j))
        for i in free:
            if i != r and b[i][c]:
                q = -b[i][c] * b[r][c]
                b[i] = [y + q * x for x, y in zip(b[r], b[i])]
        if b[r][c] == -1:
            b[r] = [-x for x in b[r]]
        pivot_rows.append(r)
        pivot_cols.append(c)
    at = list(range(m))  # slot -> row: swap pivot t into slot t
    for t, r in enumerate(pivot_rows):
        s = at.index(r)
        at[t], at[s] = at[s], at[t]
    return pivot_cols, [b[i] for i in at]


def _replayed_unit_phase(rows, unit_phase=intmat._unit_phase):
    """unit_phase(rows), with what the phase itself does not check: it
    leaves rows unchanged, its row steps, replayed on a fresh copy of A,
    give the rows that its form check read, and the column order that the
    form check took is the one its column swaps give."""
    before = [list(row) for row in rows]
    result = unit_phase(rows)
    assert [list(row) for row in rows] == before
    b = [list(row) for row in rows]
    row_steps, col_steps, k, order = intmat._clear_units(b)
    assert (row_steps, col_steps, k) == result[:3]
    assert intmat._replay(rows, row_steps) == b
    swaps = [step for step in col_steps if step[0] == "col_swap"]
    assert order == intmat._replay([range(len(b[0]))], swaps)[0]
    return result


class TestUnitPhase:
    """The sparse unit phase and the gcd phase after it, against the dense
    transforms of smith_normal_form and against sympy."""

    def test_matches_the_references(self):
        rng = random.Random(71)
        cases = [list(_presentation(m_graph(scc_graph(rng.randint(2, 6), seed), rng.randint(2, 4))))
                 for seed in range(60)]
        cases += [_unit_rich_rows(rng, n, n) for n in rng.choices(range(2, 11), k=150)]
        cases += [_unit_rich_rows(rng, rng.randint(1, 9), rng.randint(1, 9)) for _ in range(150)]
        cases += [[[1, 1], [1, 3]], [[-1, 2, 0], [1, 0, 2], [0, 2, 2]]]  # rows that lose their unit
        cases += [[[1, 2], [2, 3]], [[1, 2, 2], [2, 3, 2], [2, 2, 3]]]  # rows that gain one
        cases += [_fill_rows(rng, rng.randint(2, 6), rng.randint(2, 6)) for _ in range(60)]
        negated = lost = gained = rectangular = 0
        for rows in cases:
            row_steps, col_steps, k, residual = _replayed_unit_phase(rows)
            # the column steps, after the row steps, leave diag(1, ..., 1) + R
            a = intmat._replay(intmat._replay(rows, row_steps), col_steps)
            assert residual == [row[k:] for row in a[k:]]
            assert all(a[i][j] == (i == j) for i in range(k) for j in range(len(a[0])))
            assert all(a[i][j] == 0 for i in range(k, len(a)) for j in range(k))
            assert not any(x in (1, -1) for row in residual for x in row)
            negated += any(step[0] == "row_neg" for step in row_steps)
            holding = sum(any(x in (1, -1) for x in row) for row in rows)
            lost += holding > k
            gained += holding < k  # a row pivoted on a unit that fill brought
            rectangular += len(rows) != len(rows[0])

            _check_coordinates(rows, smith_normal_form(IntMatrix(rows)))
        assert negated >= 50 and lost >= 20 and gained >= 20 and rectangular >= 100

        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        for rows in cases[::10]:
            ours = smith_normal_form(IntMatrix(rows)).diagonal
            theirs = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
            assert sorted(abs(int(theirs[i, i])) for i in range(len(ours))) == sorted(ours)

    def test_pivots_follow_the_greedy_rule(self):
        # the lazy heap and the holder sets choose what a dense scan of
        # every row and column would, on square and rectangular matrices
        rng = random.Random(83)
        cases = [_unit_rich_rows(rng, rng.randint(1, 12), rng.randint(1, 12)) for _ in range(150)]
        cases += [_fill_rows(rng, rng.randint(2, 8), rng.randint(2, 8)) for _ in range(150)]
        cases += [[[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
                  for m, n in ((rng.randint(1, 8), rng.randint(1, 8)) for _ in range(150))]
        gained = 0
        for rows in cases:
            b = [list(row) for row in rows]
            _, _, k, order = intmat._clear_units(b)
            assert (order[:k], b) == _greedy_unit_phase(rows)
            gained += sum(any(x in (1, -1) for x in row) for row in rows) < k
        assert gained >= 60  # rows pivoted on a unit that fill brought

    def test_log_replays_on_graphs(self, monkeypatch):
        # every presentation that K0 takes of the golden graphs and of one
        # larger graph
        calls = []

        def replayed(rows):
            calls.append(rows)
            return _replayed_unit_phase(rows)

        monkeypatch.setattr(intmat, "_unit_phase", replayed)
        for graph in _golden_graphs() + [scc_graph(200, 0)]:
            ktheory._contracted_cokernel.cache_clear()
            k0_of_graph(graph)
        assert len(calls) == len(_golden_graphs()) + 1

    def test_each_list_holds_one_axis(self, monkeypatch):
        # the unit phase and the gcd phase, over Z and modulo D_t, each log
        # their row steps and their column steps in two lists, on the
        # golden presentations and on seeded random matrices; the gcd phase
        # logs at R's own indices, so every step of it indexes inside R
        rng = random.Random(79)
        cases = [_presentation(graph).to_lists() for graph in _golden_graphs()]
        cases += [_unit_rich_rows(rng, rng.randint(1, 9), rng.randint(1, 9)) for _ in range(100)]
        for _ in range(100):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            cases.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        row_kinds = {"row_add", "row_swap", "row_neg"}
        col_kinds = {"col_add", "col_swap"}
        logged = []
        reduce = intmat._reduce

        def recording(a, row_log, col_log, modulus=0):
            reduce(a, row_log, col_log, modulus)
            logged.append((row_log, col_log))

        monkeypatch.setattr(intmat, "_reduce", recording)
        for rows in cases:
            row_steps, col_steps, _, residual = intmat._unit_phase(rows)
            logged.append((row_steps, col_steps))
            gcd_rows, gcd_cols, _ = intmat._gcd_phase(residual)
            height, width = len(residual), len(residual[0]) if residual else 0
            assert all(i < height and j < height for _, i, j, _ in gcd_rows)
            assert all(i < width and j < width for _, i, j, _ in gcd_cols)
            smith_coordinates(rows)
        kinds = {kind for logs in logged for log in logs for kind, *_ in log}
        assert kinds == row_kinds | col_kinds
        for row_steps, col_steps in logged:
            assert {kind for kind, *_ in row_steps} <= row_kinds
            assert {kind for kind, *_ in col_steps} <= col_kinds


def _complete_graph(r: int, p: int, b: int) -> DirectedGraph:
    """The complete graph on r vertices with p edges between distinct
    vertices and p * b + 1 loops (the benchmark catalog's Kr_p_b)."""
    names = [f"u{i}" for i in range(r)]
    return build_graph(names, [(s, t, p * b + 1 if s == t else p) for s in names for t in names])


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def _golden_graphs() -> list[DirectedGraph]:
    graphs = [scc_graph(n, seed) for n in (24, 48, 72, 96) for seed in range(4)]
    graphs += [m_graph(rose(p), c) for p in (2, 3, 5, 8) for c in (1, 2, 3, 4)]
    graphs += [_complete_graph(*rpb) for rpb in
               [(2, 2, 7), (2, 4, 5), (2, 6, 4), (3, 2, 3), (3, 3, 3), (4, 2, 2), (5, 2, 2)]]
    graphs += [
        build_graph(["w0", "w1", "w2"],  # the catalog's free_a, with a free summand
                    [("w0", "w1", 6), ("w0", "w2", 1), ("w1", "w2", 2), ("w1", "w0", 4),
                     ("w1", "w1", 1), ("w2", "w0", 4), ("w2", "w2", 3)]),
        infinite_order_graph(),
        _MODULAR_GRAPH,
        _INTEGER_GRAPH,
    ]
    return graphs


class TestGoldenOutputs:
    """The K0 data and the Smith transforms of fixed inputs, pinned by a
    sha256 of their reprs.  The groups and unit orders do not depend on the
    basis the elimination chooses, so their digest must never change.  The
    units and coordinate maps do, as do snf's U and V: a change to the
    elimination that is meant to leave outputs byte-identical must keep
    those digests, and one that changes the basis re-pins them and says so
    in CHANGES.md."""

    def test_k0_of_graph(self):
        outputs = [(k0.group, k0.unit_order) for k0 in map(k0_of_graph, _golden_graphs())]
        assert _digest(outputs) == _K0_DIGEST

    def test_k0_coordinates(self):
        outputs = [(k0.unit, k0.coordinate_map) for k0 in map(k0_of_graph, _golden_graphs())]
        assert _digest(outputs) == _K0_BASIS_DIGEST

    def test_smith_normal_form(self):
        rng = random.Random(2009)
        outputs = []
        for _ in range(50):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            snf = smith_normal_form(
                IntMatrix([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])
            )
            outputs.append((snf.U, snf.V, snf.diagonal))
        assert _digest(outputs) == _SNF_DIGEST

    def test_cokernel_route_shapes(self):
        # shapes the golden graphs lack: matrices with zeroed rows, singular
        # and non-square ones, and graphs with sinks, lone loops and links,
        # each graph from a cold memo; many take the gcd phase modulo D_t,
        # on a block with a section too
        rng = random.Random(4040)
        outputs = []
        for rows in _shape_matrices(rng, 600):
            outputs.append(repr(smith_coordinates(rows)))
        for graph in _shape_graphs(rng, 250):
            ktheory._contracted_cokernel.cache_clear()
            outputs.append(repr(k0_of_graph(graph)))
        assert _digest(outputs) == _SHAPES_DIGEST


def _shape_matrices(rng: random.Random, count: int) -> list[list[list[int]]]:
    """Small matrices, some scaled so that the torsion is not cyclic, some
    with a row that is a combination of two others, some with zeroed rows."""
    cases = []
    for _ in range(count):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        scale = rng.choice((1, 1, 2, 3, 6))
        rows = [[scale * rng.choice((0, 0, 1, -1, 2, rng.randint(-9, 9))) for _ in range(n)]
                for _ in range(m)]
        if m > 2 and rng.random() < 0.3:
            rows[-1] = [x - 2 * y for x, y in zip(rows[0], rows[1])]
        for i in range(m):
            if rng.random() < 0.2:
                rows[i] = [0] * n
        cases.append(rows)
    return cases


def _shape_graphs(rng: random.Random, count: int) -> list[DirectedGraph]:
    """Small graphs in which each vertex is a sink, a lone loop, a link or
    a source of 1-3 edge records of multiplicity 1-4."""
    graphs = []
    for _ in range(count):
        names = [f"v{i}" for i in range(rng.randint(1, 8))]
        edges = []
        for v in names:
            kind = rng.random()
            if kind < 0.15:
                continue
            if kind < 0.3:
                edges.append((v, v, 1))
            elif kind < 0.45 and len(names) > 1:
                edges.append((v, rng.choice([w for w in names if w != v]), 1))
            else:
                edges += [(v, rng.choice(names), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        graphs.append(build_graph(names, edges))
    return graphs


_K0_DIGEST = "f812b0257e869ab7bb919ee8385d846e3a49ce4566cc4a893e18f1b72797d18e"
_K0_BASIS_DIGEST = "8774be355ab3f559fe9846694f42cc09e9a82ae5984a86a2ba6667e07d0fb3d7"
_SNF_DIGEST = "cf534ec0c0e391bb101652a98abe28c1de6054479ac2d890852e3d18414b526c"
_SHAPES_DIGEST = "deb6a12d46e7fb5bc1807e3eaa49e02e9f4e3515fa882e1c289595337b0d00b6"
_CENSUS_GROUPS_DIGEST = "66e1df835b1d9d09334cfd57aa480dd8a277aaf703440dff621e4c30bf321d8e"
_CENSUS_K0_DIGEST = "843943a6cd32a796ce46c6d1124620a1f121f4a51faddcb83466cbe59bbfea35"
