import hashlib
import random

import pytest

from leavitt import intmat
from leavitt.abelian import INFINITE, FGAbelianGroup, add, element_order, orbit_invariant
from leavitt.graphs import DirectedGraph, adjacency_matrix, build_graph, rose
from leavitt.intmat import IntMatrix, determinant, smith_coordinates, smith_normal_form
from leavitt.ktheory import cokernel, k0_of_graph
from leavitt.matrixtype import IsoReason, compare_pointed_k0, m_graph

from conftest import infinite_order_graph, scc_graph


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
    """True where smith_coordinates works modulo D = |det| of the residual
    block: a square presentation with det != 0 (the unit phase keeps |det|)."""
    return len(rows) == len(rows[0]) and determinant(IntMatrix(rows)) != 0


def _check_coordinates(rows, snf) -> tuple[tuple[int, ...], ...]:
    """smith_coordinates(rows) against smith_normal_form: the same diagonal,
    and the rows of snf.U where the integer route runs.  The route modulo D
    derives other rows, so there each must kill A modulo its d_i, and
    together they must map Z^m onto the sum of the Z/d_i: the Smith form of
    [rows | diag(d)] is all ones.  Returns the coordinate rows."""
    rows = [list(row) for row in rows]
    diagonal, coordinate_rows = smith_coordinates(rows)
    assert diagonal == snf.diagonal
    if not _modular_route(rows):
        assert coordinate_rows == _expected_rows(snf, len(rows))
        return coordinate_rows
    factors = [d for d in diagonal if d != 1]
    assert len(coordinate_rows) == len(factors)
    for d, row in zip(factors, coordinate_rows):
        assert all(0 <= x < d for x in row)
        assert not any(sum(x * y for x, y in zip(row, column)) % d for column in zip(*rows))
    onto = [
        list(row) + [d * (i == j) for j in range(len(factors))]
        for i, (d, row) in enumerate(zip(factors, coordinate_rows))
    ]
    assert not onto or set(smith_normal_form(IntMatrix(onto)).diagonal) == {1}
    return coordinate_rows


# inputs whose eliminations use every step kind of their phases: the first
# pair takes the route modulo D (the unit phase, then the gcd phase modulo
# D), the second the integer route (the unit phase, then the gcd phase over
# Z, which here also logs a row_neg), by det == 0 and by a sink
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


def _corrupting(phase, corrupt: str):
    """An elimination phase of intmat that corrupts the first step of the
    given kind it logs, or with "-last" the last: an addition's q becomes
    q + 1; a mix (s, t, u, v) becomes (s, t, u + s, v + t), still of
    determinant 1, which adds the new pivot row to the cleared one, or with
    "-det" (s, t, u, v + 1); a swap, a negation, or any step with
    "-dropped" is deleted."""
    kind, _, how = corrupt.partition("-")

    def corrupted(a, *args):
        # _reduce appends to the list it is given; _clear_units returns its log
        log = next((arg for arg in args if isinstance(arg, list)), [])
        start = len(log)
        result = phase(a, *args)
        if not args:
            log = result[0]
        at = [i for i in range(start, len(log)) if log[i][0] == kind]
        first = at[-1] if how.startswith("last") else at[0]
        _, i, j, q = log[first]
        if how.endswith("dropped") or kind in ("row_swap", "col_swap", "row_neg"):
            del log[first]
        elif kind.endswith("_add"):
            log[first] = (kind, i, j, q + 1)
        else:
            s, t, u, v = q
            log[first] = (kind, i, j, (s, t, u, v + 1) if how == "det" else (s, t, u + s, v + t))
        return result

    return corrupted


def _k0_answers(matrices, graphs) -> list:
    """The Smith diagonal and coordinate rows of each matrix, and the K0
    data of each graph."""
    return [smith_coordinates(matrix.to_lists()) for matrix in matrices] + [
        k0_of_graph(graph) for graph in graphs
    ]


def _raises(match: str, matrices, graphs) -> None:
    for matrix in matrices:
        with pytest.raises(RuntimeError, match=match):
            cokernel(matrix)
    for graph in graphs:
        with pytest.raises(RuntimeError, match=match):
            k0_of_graph(graph)


class TestK0Certificate:
    """The K0 path derives only the coordinate rows from the elimination log,
    without building U or V.  The unit phase's row steps are replayed
    exactly and must give a triangular form.  Over the integers the gcd
    steps are replayed too, and each row must kill A.
    Modulo D = |det| the answer itself is certified: each row kills A, the
    rows map onto the sum of the Z/d_i, and the d_i multiply to D and
    divide in turn."""

    def test_matches_smith_normal_form(self):
        # the coordinate rows are those of the presentation with its links
        # substituted away (built here, independently of ktheory), expanded
        # to every vertex; against the full I - A^T they must still give its
        # invariants, kill it, and map onto the group
        rng = random.Random(47)
        graphs = [infinite_order_graph(), rose(1), rose(2), rose(5)]
        graphs += [_random_graph(rng) for _ in range(300)]
        singular = sinks = modular = contracted = 0
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
            assert k0.coordinate_map == tuple(tuple(row[i] for i in column) for row in rows)
            singular += m.rows == m.cols and determinant(m) == 0
            sinks += m.rows > m.cols
            modular += _modular_route(m.to_lists())
        assert singular >= 20  # free summands are covered
        assert sinks >= 50  # so are the non-square presentations of graphs with sinks
        assert modular >= 50  # and the route modulo D
        assert contracted >= 20  # and graphs with links

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
        modular = integer = sinks = 0
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
                integer += 1
                sinks += m.rows > m.cols
        assert modular >= 30 and integer >= 30 and sinks >= 20

    @pytest.mark.parametrize(
        "corrupt",
        ["row_add", "row_swap", "row_neg", "col_add", "col_swap", "col_add-dropped",
         "row_add-last-dropped"],
    )
    def test_corrupted_log_raises(self, monkeypatch, corrupt):
        # the unit phase on both routes, then the gcd phase over the integers
        matrices, graphs = [_MODULAR_MATRIX, _INTEGER_MATRIX], [_MODULAR_GRAPH, _INTEGER_GRAPH]
        answers = _k0_answers(matrices, graphs)
        monkeypatch.setattr(intmat, "_clear_units", _corrupting(intmat._clear_units, corrupt))
        if corrupt.startswith("col_add"):
            # K0 replays only the unit phase's row steps, so its answers
            # stand; the dense U*A*V == D check of snf reads the column steps
            for matrix in matrices + [_presentation(graph) for graph in graphs]:
                with pytest.raises(RuntimeError, match="transform identity"):
                    smith_normal_form(matrix)
            assert _k0_answers(matrices, graphs) == answers
        else:
            _raises("replayed", matrices, graphs)
        monkeypatch.undo()
        monkeypatch.setattr(intmat, "_reduce", _corrupting(intmat._reduce, corrupt))
        _raises("replayed", [_INTEGER_MATRIX], [_INTEGER_GRAPH])

    def test_unit_pivots_must_be_triangular(self, monkeypatch):
        # a unit phase that takes both rows of [[1, 1], [1, 1]] as pivots
        # with no step: each row holds 1 at its pivot, but row 1 also holds
        # pivot 0's column, so T is not triangular; taken as it stands, it
        # would give the trivial group instead of Z
        monkeypatch.setattr(intmat, "_clear_units", lambda a: ([], len(a)))
        matrix = IntMatrix([[1, 1], [1, 1]])
        _raises("replayed", [matrix], [])
        with pytest.raises(RuntimeError, match="replayed"):
            smith_normal_form(matrix)

    @pytest.mark.parametrize(
        "corrupt",
        [pytest.param("row_add", id="row_add-replayed"),
         pytest.param("row_swap", id="row_swap-replayed"),
         pytest.param("row_mix", id="row_mix-replayed"),
         pytest.param("row_mix-det", id="row_mix-det-not unimodular"),
         "row_mix-dropped", "row_add-last-dropped"],
    )
    def test_corrupted_modular_log_raises(self, monkeypatch, corrupt):
        # modulo D the log holds only row steps, and the certificate checks
        # the rows they give; dropping the first row_add changes no answer
        # here, so the last one is dropped. The first four ids are the ones
        # these cases had when the gcd steps modulo D were replayed, which
        # refused them as 'replayed' or 'not unimodular'; each must now fail
        # the kill check instead
        monkeypatch.setattr(intmat, "_reduce", _corrupting(intmat._reduce, corrupt))
        _raises("does not kill A", [_MODULAR_MATRIX], [_MODULAR_GRAPH])

    def test_corrupted_modular_row_step_never_passes(self, monkeypatch):
        # one random row step of the log modulo D changed: either the
        # certificate refuses the answer, or the answer is right; a change
        # that keeps the step modulo D (q + D) must pass
        rng = random.Random(97)
        reduce = intmat._reduce
        changed = []

        def corrupting(a, log, modulus=0):
            start = len(log)
            reduce(a, log, modulus)
            if modulus and len(log) > start:
                at = rng.randrange(start, len(log))
                kind, i, j, q = log[at]
                roll = rng.random()
                if kind == "row_add" and roll < 0.2:
                    log[at] = (kind, i, j, q + modulus)
                    kind = "same"
                elif kind == "row_add" and roll < 0.6:
                    log[at] = (kind, i, j, q + rng.choice((-1, 1)))
                elif kind == "row_mix" and roll < 0.5:
                    s, t, u, v = q
                    log[at] = (kind, i, j, rng.choice([(s, t, u, v + 1), (s, t, u + s, v + t)]))
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
        assert {"row_add", "row_swap", "row_mix"} <= {kind for kind, _ in outcomes}

    def test_rows_not_onto_raise(self, monkeypatch):
        # the changed rows still kill A but reach a proper subgroup: 2 * c in
        # Z/6, and (c_1, c_1) in Z/2 + Z/2, where each row alone is onto
        coordinate_rows = intmat._coordinate_rows

        def shrunk(m, log, wanted):
            rows = coordinate_rows(m, log, wanted)
            return [rows[0], rows[0]] if len(rows) == 2 else [[2 * x % 6 for x in rows[0]]]

        monkeypatch.setattr(intmat, "_coordinate_rows", shrunk)
        two_roses = build_graph(["a", "b"], [("a", "a", 3), ("b", "b", 3)])
        _raises("not onto", [IntMatrix([[-6]]), IntMatrix([[2, 0], [0, 2]])], [rose(7), two_roses])

    def test_factors_out_of_turn_raise(self, monkeypatch):
        # the factors of Z/2 + Z/4 in the wrong order, (4, 2), still multiply
        # to D = 8
        reduce = intmat._reduce

        def swapped(a, log, modulus=0):
            reduce(a, log, modulus)
            a[0][0], a[1][1] = a[1][1], a[0][0]

        monkeypatch.setattr(intmat, "_reduce", swapped)
        two_roses = build_graph(["a", "b"], [("a", "a", 3), ("b", "b", 5)])  # Z/2 + Z/4
        _raises("divide in turn", [IntMatrix([[2, 0], [0, 4]])], [two_roses])

    @pytest.mark.parametrize("wrong", [lambda d: 2 * d, lambda d: -d - 1], ids=["double", "next"])
    def test_wrong_determinant_raises(self, monkeypatch, wrong):
        # D comes from Bareiss on the residual block alone; a wrong D must
        # not pass check 3 (the invariant factors multiply to D)
        bareiss = intmat._bareiss
        monkeypatch.setattr(intmat, "_bareiss", lambda a: wrong(bareiss(a)))
        _raises("multiply", [_MODULAR_MATRIX], [_MODULAR_GRAPH])

    def test_corrupted_coordinate_row_raises(self, monkeypatch):
        coordinate_rows = intmat._coordinate_rows

        def corrupted(m, log, wanted):
            rows = coordinate_rows(m, log, wanted)
            rows[0][0] += 1
            return rows

        monkeypatch.setattr(intmat, "_coordinate_rows", corrupted)
        _raises("coordinate row", [_MODULAR_MATRIX, _INTEGER_MATRIX], [_MODULAR_GRAPH, _INTEGER_GRAPH])

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
        # every multiplier and mix coefficient in the K0 log, and every
        # coordinate-row entry, has at most D's bits (461 here); the integer
        # gcd phase's multipliers reached 756 bits
        logs = []
        coordinate_rows = intmat._coordinate_rows

        def recording(m, log, wanted):
            logs.append(log)
            return coordinate_rows(m, log, wanted)

        monkeypatch.setattr(intmat, "_coordinate_rows", recording)
        k0 = k0_of_graph(scc_graph(400, 0))
        bits = k0.group.torsion_size.bit_length()
        assert k0.group.free_rank == 0 and bits == 461
        (log,) = logs
        coefficients = [x for *_, q in log for x in (q if isinstance(q, tuple) else (q,))]
        assert max(abs(x).bit_length() for x in coefficients) <= bits
        assert max(x.bit_length() for row in k0.coordinate_map for x in row) <= bits
        assert any(isinstance(q, tuple) for *_, q in log)  # mix steps ran

    def test_row_additions_stay_bounded(self):
        # 17,330 row additions with the unit phase and the column pivot rule;
        # 18,792 when every pivot came from the dense gcd loop's row-major scan
        log, _ = intmat._smith_log(_presentation(scc_graph(200, 0)).to_lists(), modular=False)
        assert sum(step[0] == "row_add" for step in log) < 18_500


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


def _unit_rich_rows(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    """Sparse rows, about three nonzeros each, most of them +-1 (-1 twice
    as often as 1)."""
    values = (-1, -1, 1, 2, -2, 3)
    return [
        [rng.choice(values) if rng.random() < 3 / cols else 0 for _ in range(cols)]
        for _ in range(rows)
    ]


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
        negated = lost = rectangular = 0
        for rows in cases:
            a = [list(row) for row in rows]
            log, k = intmat._clear_units(a)
            assert a == [list(row) for row in rows]  # the unit phase only reads its argument
            a = intmat._replay(rows, log)
            residual = [row[k:] for row in a[k:]]
            assert all(a[i][j] == (i == j) for i in range(k) for j in range(len(a[0])))
            assert all(a[i][j] == 0 for i in range(k, len(a)) for j in range(k))
            assert not any(x in (1, -1) for row in residual for x in row)
            negated += any(step[0] == "row_neg" for step in log)
            lost += sum(any(x in (1, -1) for x in row) for row in rows) > k
            rectangular += len(rows) != len(rows[0])

            _check_coordinates(rows, smith_normal_form(IntMatrix(rows)))
        assert negated >= 50 and lost >= 20 and rectangular >= 100

        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        for rows in cases[::10]:
            ours = smith_normal_form(IntMatrix(rows)).diagonal
            theirs = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
            assert sorted(abs(int(theirs[i, i])) for i in range(len(ours))) == sorted(ours)


def _complete_graph(r: int, p: int, b: int) -> DirectedGraph:
    """The complete graph on r vertices with p edges between distinct
    vertices and p * b + 1 loops (the benchmark catalog's Kr_p_b)."""
    names = [f"u{i}" for i in range(r)]
    return build_graph(names, [(s, t, p * b + 1 if s == t else p) for s in names for t in names])


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


class TestGoldenOutputs:
    """The K0 data and the Smith transforms of fixed inputs, pinned by a
    sha256 of their reprs.  A change to the elimination that is meant to
    leave every output byte-identical must keep both digests."""

    def test_k0_of_graph(self):
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
        outputs = []
        for graph in graphs:
            k0 = k0_of_graph(graph)
            outputs.append((k0.group, k0.unit, k0.unit_order, k0.coordinate_map))
        assert _digest(outputs) == _K0_DIGEST

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


_K0_DIGEST = "c8ca5a4c09469f704740182fca89d7b7c0e86fb7919db3442f63857015fd694e"
_SNF_DIGEST = "cf534ec0c0e391bb101652a98abe28c1de6054479ac2d890852e3d18414b526c"
