import copy
import itertools
import pickle
import random
import time
from math import gcd, prod

import pytest

from leavitt import intmat
from leavitt.intmat import (
    IntMatrix,
    content,
    determinant,
    smith_normal_form,
    unimodular_check,
)

from conftest import Small, exact_rank_det, mat_vec, reduce_moduli


def check_decomposition(a, snf):
    assert (snf.U @ a) @ snf.V == snf.D
    assert unimodular_check(snf.U)
    assert unimodular_check(snf.V)
    diag = snf.diagonal
    assert len(diag) == min(a.rows, a.cols)
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert all(b % x == 0 for x, b in zip(nonzero, nonzero[1:]))
    assert all(d == 0 for d in diag[len(nonzero):])
    for i in range(snf.D.rows):
        for j in range(snf.D.cols):
            if i != j:
                assert snf.D[i][j] == 0


class TestIntMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntMatrix([])
        with pytest.raises(ValueError):
            IntMatrix([[]])
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])
        with pytest.raises(ValueError):
            IntMatrix([[1.5]])
        with pytest.raises(ValueError):
            IntMatrix([[True]])
        with pytest.raises(ValueError, match="got <Small.TWO: 2>"):
            IntMatrix([[1, Small.TWO]])

    def test_matmul_and_apply(self):
        a = IntMatrix([[1, 2], [3, 4]])
        b = IntMatrix([[0, 1], [1, 0]])
        assert (a @ b).to_lists() == [[2, 1], [4, 3]]
        assert mat_vec(a, [1, 1]) == (3, 7)
        with pytest.raises(ValueError, match="dimensions do not match"):
            IntMatrix([[1, 2]]) @ IntMatrix([[1, 2]])
        for other in ([[1]], 3):  # not a matrix: TypeError, not AttributeError
            with pytest.raises(TypeError, match="unsupported operand"):
                IntMatrix([[1]]) @ other

    @pytest.mark.parametrize("name", ["rows", "cols", "_data"])
    def test_fields_are_immutable(self, name):
        # a matrix is a Record, so no field can be replaced by unchecked data
        m = IntMatrix([[1, 2], [3, 4]])
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(m, name, ((True, "x"),) if name == "_data" else 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(m, name)
        assert m == IntMatrix([[1, 2], [3, 4]]) and (m.rows, m.cols) == (2, 2)

    def test_pickle_copy_hash_and_repr(self):
        m = IntMatrix([[1, -2, 3], [4, 5, -(10**30)]])
        for twin in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
            assert type(twin) is IntMatrix
            assert twin == m and hash(twin) == hash(m)
            assert (twin.rows, twin.cols) == (2, 3)
        assert hash(IntMatrix(m.to_lists())) == hash(m)
        assert m != IntMatrix([[1, -2, 3]]) and m != m.to_lists()
        assert repr(m) == f"IntMatrix([[1, -2, 3], [4, 5, {-(10**30)}]])"


class TestDeterminant:
    def test_known_values(self):
        assert determinant(IntMatrix([[5]])) == 5
        assert determinant(IntMatrix([[1, 2], [3, 4]])) == -2
        assert determinant(IntMatrix([[2, 0], [0, 3]])) == 6
        assert determinant(IntMatrix([[0, 1], [1, 0]])) == -1
        assert determinant(IntMatrix([[1, 1], [1, 1]])) == 0

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError):
            determinant(IntMatrix([[1, 2]]))

    def test_matches_cofactor_expansion(self):
        rng = random.Random(7)

        def cofactor(rows):
            if len(rows) == 1:
                return rows[0][0]
            total = 0
            for j in range(len(rows)):
                minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
                total += (-1) ** j * rows[0][j] * cofactor(minor)
            return total

        for _ in range(200):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert determinant(IntMatrix(rows)) == cofactor(rows)


class TestUnimodular:
    def test_examples(self):
        assert unimodular_check(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert unimodular_check(IntMatrix([[1, 1], [0, 1]]))
        assert not unimodular_check(IntMatrix([[2, 0], [0, 1]]))

    def test_non_square(self):
        with pytest.raises(ValueError):
            unimodular_check(IntMatrix([[1, 0]]))


class TestContent:
    def test_examples(self):
        assert content((4, 6)) == 2
        assert content((0, 0)) == 0
        assert content((3,)) == 3
        assert content(()) == 0
        assert content((-4, 6)) == 2


class TestSmithNormalForm:
    def test_unit_entry(self):
        snf = smith_normal_form(IntMatrix([[-1]]))
        assert snf.D.to_lists() == [[1]]
        assert snf.diagonal == (1,)

    def test_diag_2_3(self):
        a = IntMatrix([[2, 0], [0, 3]])
        snf = smith_normal_form(a)
        assert snf.diagonal == (1, 6)
        check_decomposition(a, snf)

    def test_rank_one(self):
        a = IntMatrix([[-2, -2], [-1, -1]])
        snf = smith_normal_form(a)
        assert snf.diagonal == (1, 0)
        check_decomposition(a, snf)

    def test_zero_matrix(self):
        snf = smith_normal_form(IntMatrix([[0, 0], [0, 0]]))
        assert snf.diagonal == (0, 0)

    def test_rectangular(self):
        for rows in ([[2, 4, 6]], [[2], [4], [6]]):
            a = IntMatrix(rows)
            snf = smith_normal_form(a)
            assert snf.diagonal == (2,)
            check_decomposition(a, snf)

    def test_fuzz_invariants(self):
        rng = random.Random(99)
        for _ in range(300):
            m = rng.randint(1, 6)
            n = rng.randint(1, 6)
            a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
            snf = smith_normal_form(a)
            check_decomposition(a, snf)

    def test_diagonal_product_is_abs_det(self):
        rng = random.Random(5)
        checked = 0
        while checked < 100:
            n = rng.randint(1, 5)
            a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            det = determinant(a)
            if det == 0:
                continue
            diag = smith_normal_form(a).diagonal
            assert prod(d for d in diag if d) == abs(det)
            checked += 1

    def test_permutation_stability(self):
        rng = random.Random(13)
        for _ in range(50):
            m = rng.randint(2, 5)
            n = rng.randint(2, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            base = sorted(smith_normal_form(IntMatrix(rows)).diagonal)
            rperm = rng.sample(range(m), m)
            cperm = rng.sample(range(n), n)
            shuffled = [[rows[i][j] for j in cperm] for i in rperm]
            assert sorted(smith_normal_form(IntMatrix(shuffled)).diagonal) == base

    def test_idempotent_on_normal_forms(self):
        rng = random.Random(21)
        for _ in range(50):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
            d = smith_normal_form(a).D
            again = smith_normal_form(d)
            assert again.D == d

    @pytest.mark.parametrize(
        "phase, kind",
        [
            pytest.param("_unit_phase", "row_add", id="row_add"),
            pytest.param("_unit_phase", "col_add", id="col_add"),
            pytest.param("_gcd_phase", "row_add", id="gcd-row_add"),
            pytest.param("_gcd_phase", "col_add", id="gcd-col_add"),
        ],
    )
    def test_corrupted_log_raises(self, monkeypatch, phase, kind):
        # U and V are built from the two phases' logs, so one changed
        # coefficient in either must break the dense U @ A @ V == D check;
        # here the unit phase takes k = 2 pivots and the gcd phase, on the
        # 2 x 2 block R, logs both kinds
        logged = getattr(intmat, phase)

        def corrupted(rows):
            row_steps, col_steps, *rest = logged(rows)
            log = col_steps if kind == "col_add" else row_steps
            first = next(i for i, step in enumerate(log) if step[0] == kind)
            _, src, dst, q = log[first]
            log[first] = (kind, src, dst, q + 1)
            return row_steps, col_steps, *rest

        monkeypatch.setattr(intmat, phase, corrupted)
        a = IntMatrix([[-4, -1, -4, 3], [5, -2, 3, -2], [0, -4, -4, -2], [5, 0, -1, 1]])
        with pytest.raises(RuntimeError, match="transform identity"):
            smith_normal_form(a)

    def test_entries_left_off_the_diagonal_raise(self, monkeypatch):
        # D is built from the diagonal, so an elimination that stops early
        # cannot pass its leftovers off as part of D: here the gcd phase
        # logs nothing on R = [[2, 4], [6, 8]] but returns its true diagonal
        monkeypatch.setattr(intmat, "_gcd_phase", lambda residual: ([], [], (2, 4)))
        with pytest.raises(RuntimeError, match="transform identity"):
            smith_normal_form(IntMatrix([[1, 0, 0], [0, 2, 4], [0, 6, 8]]))

    @pytest.mark.parametrize("e", [100, 400, 1000, 2000])
    def test_transforms_stay_bounded(self, e):
        # coprime prime powers: the transforms once reached 28,311 bits at
        # e = 400; they now stay within 1.7 times the input bits here
        a = IntMatrix([[3**e, 0], [0, 2**e]])
        snf = smith_normal_form(a)
        assert snf.diagonal == (1, 6**e)
        bound = 4 * ((3**e).bit_length() + (2**e).bit_length())
        assert max(abs(x).bit_length() for t in (snf.U, snf.V) for row in t for x in row) <= bound

    def test_against_sympy_invariant_factors(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            ours = smith_normal_form(IntMatrix(rows)).diagonal
            theirs = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
            diag = [abs(int(theirs[i, i])) for i in range(n)]
            assert sorted(diag) == sorted(ours)


class TestReplay:
    @staticmethod
    def _factor(size, kind, i, j, q):
        """The elementary size x size matrix of one step: a row step
        multiplies from the left, a column step from the right."""
        e = intmat._identity_rows(size)
        if kind == "row_add":  # row j += q * row i
            e[j][i] = q
        elif kind == "col_add":  # column j += q * column i
            e[i][j] = q
        elif kind == "row_neg":
            e[i][i] = -1
        else:  # row_swap, col_swap
            e[i], e[j] = e[j], e[i]
        return IntMatrix(e)

    @staticmethod
    def _random_log(rng, m, n, length):
        """A log of every kind _replay takes, with runs of additions from
        one source, some of them from a row or column that holds zeros."""
        log = []
        while len(log) < length:
            kind = rng.choice(["row_add", "row_swap", "row_neg", "col_add", "col_swap"])
            size = m if kind.startswith("row") else n
            if kind == "row_neg":
                log.append((kind, rng.randrange(m), 0, 0))
            elif size == 1:
                continue
            elif kind.endswith("swap"):
                log.append((kind, *rng.sample(range(size), 2), 0))
            else:  # a run from source i to every other line, in random order
                i = rng.randrange(size)
                targets = [j for j in range(size) if j != i]
                rng.shuffle(targets)
                log += [(kind, i, j, rng.choice([-3, -2, -1, 1, 2, 5])) for j in targets]
        return log

    def test_matches_the_product_of_elementary_factors(self):
        rng = random.Random(30)
        kinds = set()
        for _ in range(300):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            rows = [  # mostly zeros
                [rng.choice([0, 0, 0, 1, -1, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(m)
            ]
            log = self._random_log(rng, m, n, rng.randint(0, 12))
            left, right = IntMatrix(intmat._identity_rows(m)), IntMatrix(intmat._identity_rows(n))
            for kind, i, j, q in log:
                if kind.startswith("row"):
                    left = self._factor(m, kind, i, j, q) @ left
                else:
                    right = right @ self._factor(n, kind, i, j, q)
                kinds.add(kind)
            before = [row[:] for row in rows]
            assert intmat._replay(rows, log) == ((left @ IntMatrix(rows)) @ right).to_lists()
            assert rows == before
        assert kinds == {"row_add", "row_swap", "row_neg", "col_add", "col_swap"}

    def test_runs_whose_source_changes(self):
        # a step between two additions from one source swaps or negates
        # that source: the second addition must read the new one
        log = [("row_add", 0, 1, 1), ("row_swap", 0, 2, 0), ("row_add", 0, 1, 1)]
        assert intmat._replay([[1, 0], [0, 0], [0, 1]], log) == [[0, 1], [1, 1], [1, 0]]
        log = [("col_add", 0, 1, 1), ("row_neg", 1, 0, 0), ("col_add", 0, 1, 1)]
        assert intmat._replay([[0, 0], [1, 0]], log) == [[0, 0], [-1, -2]]

    def test_gcd_phase_modulo_m(self):
        # the gcd phase modulo M on seeded matrices whose entries are mostly
        # multiples of M's primes, so that a pivot's gcd with M often fails
        # to divide an entry of its column or row: both logs replay on A to
        # the matrix left modulo M, whose diagonal has sympy's gcds with M
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(34)
        moduli = {6: (2, 3), 12: (2, 3), 30: (2, 3, 5), 144: (2, 3), 210: (2, 3, 5, 7),
                  2**4 * 3**3 * 5: (2, 3, 5)}
        remainders = 0
        for _ in range(300):
            M, primes = rng.choice(list(moduli.items()))
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            rows = [[rng.randint(-9, 9) * rng.choice((1, *primes, *primes)) for _ in range(n)]
                    for _ in range(m)]
            a = [row[:] for row in rows]
            row_log, col_log = [], []
            intmat._reduce(a, row_log, col_log, M)
            replayed = intmat._replay(intmat._replay(rows, row_log), col_log)
            size = min(m, n)
            diagonal = [gcd(a[i][i], M) for i in range(size)]
            for i in range(m):
                for j in range(n):
                    x = replayed[i][j] % M
                    if j == i:
                        assert x == a[i][i] % M
                    # a row whose pivot is a unit modulo M ends after its row
                    # pass, and later column steps leave its other entries
                    elif j < i or diagonal[i] != 1:
                        assert x == a[i][j] % M == 0
            theirs = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
            assert diagonal == [gcd(int(theirs[i, i]), M) for i in range(size)]
            assert all(y % x == 0 for x, y in zip(diagonal, diagonal[1:]))
            # the first pivot: the entry of least gcd with M in column 0
            column = [i for i in range(m) if rows[i][0] % M]
            if column:
                pivot = min(column, key=lambda i: gcd(rows[i][0], M))
                c = gcd(rows[pivot][0], M)
                others = [row[0] for row in rows] + rows[pivot]
                remainders += any(x % c for x in others)
        assert remainders >= 150

    def test_gcd_phase_modulo_m_keeps_residues(self):
        # modulo M every entry of the block is in [0, M) after each logged
        # step: the log lists check the block at each append
        class Checked(list):
            def append(self, step):
                assert all(0 <= x < M for row in a for x in row), step
                super().append(step)

        rng = random.Random(40)
        steps = 0
        for _ in range(200):
            M = rng.choice((6, 12, 30, 144, 210))
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            a = [[rng.randint(-3 * M, 3 * M) * rng.choice((1, 2, 3)) for _ in range(n)]
                 for _ in range(m)]
            row_log, col_log = Checked(), Checked()
            intmat._reduce(a, row_log, col_log, M)
            assert all(0 <= x < M for row in a for x in row)
            steps += len(row_log) + len(col_log)
        assert steps >= 1000

    @pytest.mark.parametrize("modulus", [0, 12])
    def test_gcd_phase_returns_once_the_trailing_block_is_zero(self, modulus):
        # a 600 x 600 block that is zero outside its top-left 2 x 2: once
        # the block from (2, 2) on is zero the phase returns, where a rescan
        # of each later trailing block would cost cubic time
        a = [[0] * 600 for _ in range(600)]
        a[0][:2], a[1][:2] = [4, 6], [10, 3]
        start = time.process_time()
        intmat._reduce(a, [], [], modulus)
        spent = time.process_time() - start
        assert [gcd(a[i][i], modulus) for i in range(2)] == [1, gcd(48, modulus)]  # det -48
        assert spent <= 1.0, f"the gcd phase on a 600 x 600 block took {spent:.2f} s of CPU"


class TestSolve:
    """The fraction-free solve and the gcd-only prime split behind the
    cokernel route modulo D (smith_coordinates)."""

    def test_solve_gives_the_determinant_and_an_integer_solution(self):
        rng = random.Random(17)
        nonsingular = 0
        for _ in range(200):
            n = rng.randint(1, 6)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            det = determinant(IntMatrix(rows))
            D, z, free, section, block = intmat._solve(rows)
            if not det:
                assert 0 < len(free) == n - exact_rank_det(rows)[0]
                continue
            # R^T z = delta * 1 with delta = +-det R, so z = +-adj(R^T) 1;
            # R has no section, so X is a copy of R
            assert (D, free, section, block) == (abs(det), [], [], rows) and block is not rows
            image = [sum(z[i] * rows[i][j] for i in range(n)) for j in range(n)]
            assert image in ([det] * n, [-det] * n)
            nonsingular += 1
        assert nonsingular >= 150
        assert intmat._solve([]) == (1, [], [], [], [])

    def test_solve_splits_off_the_free_rows(self):
        # singular and rectangular R of every shape, zero columns too: p
        # less the number of free rows is sympy's rank, the free rows are a
        # basis of the left kernel (they kill R, and their Smith form is all
        # ones) with F G = I for the section G, the last columns of
        # X = [R | G], and S^T z = delta * 1 for the p columns of that block
        # whose determinant is +-D
        sympy = pytest.importorskip("sympy")
        rng = random.Random(18)
        shapes = set()
        for _ in range(300):
            p, q = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.choice((0, 0, 1, -2, 3, rng.randint(-9, 9))) for _ in range(q)] for _ in range(p)]
            if rng.random() < 0.4 and p > 1:
                rows[-1] = [x - 2 * y for x, y in zip(rows[0], rows[1])]
            D, z, free, section, block = intmat._solve(rows)
            assert len(free) == p - sympy.Matrix(rows).rank() == len(section)
            for y in free:
                assert not any(sum(a * b for a, b in zip(y, column)) for column in zip(*rows))
            if free:
                assert set(smith_normal_form(IntMatrix(free)).diagonal) == {1}
                product = [[sum(a * b for a, b in zip(y, g)) for g in section] for y in free]
                assert product == intmat._identity_rows(len(free))
            columns = [column for column in zip(*block)]
            assert columns[: len(rows[0])] == list(zip(*rows))  # every column of R, in order
            assert columns[len(rows[0]) :] == list(map(tuple, section))  # then G
            images = [sum(a * b for a, b in zip(z, column)) for column in columns]
            square = [c for c, x in zip(columns, images) if abs(x) == D]
            assert D > 0 and len(square) >= p
            assert any(abs(determinant(IntMatrix(list(map(list, zip(*chosen)))))) == D
                       for chosen in itertools.combinations(square, p))
            shapes.add((p < q, p == q, p > q, bool(free)))
        assert len(shapes) >= 5

    def test_solve_leaves_its_argument(self):
        rows = [[0, 2, 1], [3, 0, 1], [1, 1, 0]]  # the first pivot needs a row swap
        copy = [row[:] for row in rows]
        D, *_ = intmat._solve(rows)
        assert rows == copy and D == 5
        rows = [[0, 2, 1], [0, 4, 2], [1, 1, 0]]  # singular: the section completes it
        copy = [row[:] for row in rows]
        intmat._solve(rows)
        assert rows == copy

    def test_saturate_gives_a_basis_and_a_section(self):
        # seeded independent rows Y: first rows whose span is rarely
        # saturated, then sparse rows among which some are +-e_j with column
        # j zero in every other row.  F spans the integer vectors of their
        # rational span (F kills what Y's orthogonal complement kills and is
        # primitive), and F G = I
        sympy = pytest.importorskip("sympy")

        def check(kernel):
            f = len(kernel)
            free, section = intmat._saturate([y[:] for y in kernel])
            assert sympy.Matrix(free + kernel).rank() == f
            assert set(smith_normal_form(IntMatrix(free)).diagonal) == {1}
            assert [[sum(a * b for a, b in zip(y, g)) for g in section] for y in free] == (
                intmat._identity_rows(f))

        rng = random.Random(29)
        unsaturated = 0
        for _ in range(200):
            f, p = rng.randint(1, 3), rng.randint(3, 6)
            kernel = [[rng.randint(-6, 6) * rng.choice((1, 2, 3)) for _ in range(p)] for _ in range(f)]
            if sympy.Matrix(kernel).rank() < f:
                continue
            check(kernel)
            unsaturated += set(smith_normal_form(IntMatrix(kernel)).diagonal) != {1}
        assert unsaturated >= 100
        rng = random.Random(31)
        units = 0
        for _ in range(300):
            f, p = rng.randint(1, 5), rng.randint(2, 7)
            kernel = [[rng.choice((0, 0, 0, 1, -1, 2, rng.randint(-6, 6))) for _ in range(p)]
                      for _ in range(f)]
            for u in rng.sample(range(f), rng.randint(0, f)):
                j = rng.randrange(p)
                for y in kernel:
                    y[j] = 0
                kernel[u] = [rng.choice((1, -1)) if i == j else 0 for i in range(p)]
            if sympy.Matrix(kernel).rank() < f:
                continue
            check(kernel)
            units += any(y.count(0) == p - 1 and y.count(1) + y.count(-1) == 1 for y in kernel)
        assert units >= 100

    def test_onto_skips_only_what_a_unit_column_spans(self):
        # against the Smith form of [C | diag(d)], which is all ones exactly
        # when the columns span Z^k; inputs where some column is x e_r with
        # gcd(x, d_r) == 1, which _onto leaves out with its row, come with
        # either answer
        rng = random.Random(37)
        skipped = {True: 0, False: 0}
        for _ in range(400):
            k, m = rng.randint(1, 4), rng.randint(1, 5)
            factors = [rng.choice((0, 2, 3, 4, 6)) for _ in range(k)]
            rows = [[rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(m)] for _ in range(k)]
            block = [row + [d * (i == r) for i in range(k)]
                     for r, (row, d) in enumerate(zip(rows, factors))]
            expected = set(smith_normal_form(IntMatrix(block)).diagonal) == {1}
            assert intmat._onto(rows, factors) == expected
            skipped[expected] += any(
                col.count(0) == k - 1 and gcd(x, d) == 1
                for col in zip(*rows) for x, d in zip(col, factors) if x
            )
        assert min(skipped.values()) >= 30

    def test_prime_part_matches_factoring(self):
        def by_factoring(n, t):
            part = 1
            for p in range(2, t + 1):
                if t % p == 0 and all(p % q for q in range(2, p)):
                    while n % p == 0:
                        n //= p
                        part *= p
            return part

        for n in range(1, 200):
            for t in range(1, 40):
                assert intmat._prime_part(n, t) == by_factoring(n, t), (n, t)
        big = 2**89 * 3**5 * (2**61 - 1)
        assert intmat._prime_part(big, 6) == 2**89 * 3**5
        assert intmat._prime_part(big, 2**61 - 1) == 2**61 - 1

    def test_routes_modulo_d(self, monkeypatch):
        # random nonsingular matrices take every route: the solve alone
        # (t = 1), the gcd phase modulo D_t < D, or modulo D_t == D; each
        # gives snf's diagonal
        rng = random.Random(19)
        routes = {"t = 1": 0, "D_t < D": 0, "D_t == D": 0}
        while min(routes.values()) < 30:
            n = rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            D = abs(determinant(IntMatrix(rows)))
            if not D:
                continue
            diagonal = smith_normal_form(IntMatrix(rows)).diagonal
            moduli = reduce_moduli(monkeypatch)
            assert intmat.smith_coordinates(rows)[0] == diagonal
            monkeypatch.undo()
            if not moduli:
                routes["t = 1"] += 1
            else:
                (modulus,) = moduli
                assert 1 < modulus <= D and D % modulus == 0
                routes["D_t < D" if modulus < D else "D_t == D"] += 1


def _diagonal_answer(factors):
    """A = diag(a_i) with each Z/a_i a block of its own, its row e_i:
    the rows of A, and the merged chain with its rows and the blocks'
    (bound, F, G) as smith_coordinates hands them to _certify."""
    n = len(factors)
    rows = [[a * (i == j) for j in range(n)] for i, a in enumerate(factors)]
    unit = intmat._identity_rows(n)
    chain = intmat._merge([], [(a, unit[i]) for i, a in enumerate(factors)])
    return rows, chain, [(a, [], []) for a in factors]


class TestMergeAndCertificate:
    """The merge of the blocks' cyclic factors into invariant-factor form,
    and the one certificate of the cokernel route, called directly."""

    def test_merge_gives_the_invariant_factors(self):
        # seeded lists of coprime, shared and repeated factors: the chain is
        # sympy's Smith form of diag(a_i), each row is reduced modulo its
        # factor, and _certify accepts the rows on A = diag(a_i)
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(4141)
        primes = (2, 3, 5, 7, 11)
        kinds = {"coprime": 0, "shared": 0, "repeated": 0}
        joined = 0
        for _ in range(300):
            kind = rng.choice(sorted(kinds))
            n = rng.randint(1, 6)
            if kind == "coprime":
                factors = [p ** rng.randint(1, 3) for p in rng.sample(primes, min(n, 5))]
            elif kind == "shared":
                factors = [prod(p ** rng.randint(0, 2) for p in primes[:3]) for _ in range(n)]
                factors = [a for a in factors if a > 1] or [12]
            else:
                factors = [rng.choice((2, 6, 12))] * n
            kinds[kind] += 1
            rows, chain, blocks = _diagonal_answer(factors)
            theirs = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
            expected = [abs(int(theirs[i, i])) for i in range(len(rows))]
            assert [d for d, _ in chain] == sorted(d for d in expected if d != 1)
            assert all(0 <= x < d for d, row in chain for x in row)
            intmat._certify(rows, [row for _, row in chain], [d for d, _ in chain], blocks)
            joined += [d for d, _ in chain] != sorted(factors)
        assert min(kinds.values()) >= 80 and joined >= 100

    def test_merge_does_not_factor(self, monkeypatch):
        # factors built from the Mersenne primes 2^89 - 1 and 2^107 - 1,
        # whose product no trial division splits: the chain is the one read
        # off the known exponents; and 200 copies of Z/2, each pair of which
        # divides, take no join
        big, bigger = 2**89 - 1, 2**107 - 1
        factors = [6 * big * bigger, 4 * big, 9 * bigger, big * bigger]
        rows, chain, blocks = _diagonal_answer(factors)
        assert [d for d, _ in chain] == [big * bigger, 6 * big * bigger, 36 * big * bigger]
        intmat._certify(rows, [row for _, row in chain], [d for d, _ in chain], blocks)
        joins = []
        join = intmat._join
        monkeypatch.setattr(intmat, "_join", lambda *args: joins.append(args) or join(*args))
        unit = intmat._identity_rows(200)
        assert intmat._merge([], [(2, row) for row in unit]) == [(2, row) for row in unit]
        assert not joins

    @pytest.mark.parametrize("fault", ["row", "order", "bound", "section"])
    def test_certificate_refuses_a_fault(self, fault):
        # Z/2 + Z/3 + Z/4 + Z/9 merges into Z/6 + Z/36 by CRT joins: one
        # merged row off by one, the two factors swapped, one block's bound
        # doubled, or a free row whose section misses F G = I must raise
        rows, chain, blocks = _diagonal_answer([2, 3, 4, 9])
        assert [d for d, _ in chain] == [6, 36]
        coordinate_rows, moduli = [row[:] for _, row in chain], [d for d, _ in chain]
        intmat._certify(rows, coordinate_rows, moduli, blocks)
        if fault == "row":
            coordinate_rows[1][0] += 1
            match = "does not kill A|not onto"
        elif fault == "order":
            coordinate_rows.reverse()
            moduli.reverse()
            match = "divide in turn"
        elif fault == "bound":
            blocks[2] = (2 * blocks[2][0], [], [])
            match = "multiply"
        else:  # a zero row beside A, a block of its own with F = [e_5]
            rows.append([0] * 4)
            coordinate_rows = [row + [0] for row in coordinate_rows] + [[0, 0, 0, 0, 1]]
            moduli.append(0)
            blocks.append((1, [[1]], [(2,)]))
            match = "split off"
        with pytest.raises(RuntimeError, match=match):
            intmat._certify(rows, coordinate_rows, moduli, blocks)
