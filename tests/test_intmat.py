import copy
import pickle
import random
from math import prod

import pytest

from leavitt import intmat
from leavitt.intmat import (
    IntMatrix,
    content,
    determinant,
    smith_normal_form,
    unimodular_check,
)

from conftest import Small, mat_vec, reduce_moduli


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

    @pytest.mark.parametrize("kind", ["row_add", "col_add"])
    def test_corrupted_log_raises(self, monkeypatch, kind):
        # U and V are built from the log, so one changed coefficient must
        # break the dense U @ A @ V == D check
        smith_log = intmat._smith_log

        def corrupted(rows):
            row_steps, col_steps, diagonal = smith_log(rows)
            log = col_steps if kind == "col_add" else row_steps
            first = next(i for i, step in enumerate(log) if step[0] == kind)
            _, src, dst, q = log[first]
            log[first] = (kind, src, dst, q + 1)
            return row_steps, col_steps, diagonal

        monkeypatch.setattr(intmat, "_smith_log", corrupted)
        a = IntMatrix([[-4, -1, -4, 3], [5, -2, 3, -2], [0, -4, -4, -2], [5, 0, -1, 1]])
        with pytest.raises(RuntimeError, match="transform identity"):
            smith_normal_form(a)

    def test_entries_left_off_the_diagonal_raise(self, monkeypatch):
        # D is built from the diagonal, so an elimination that stops early
        # cannot pass its leftovers off as part of D
        monkeypatch.setattr(intmat, "_smith_log", lambda rows: ([], [], (1, 4)))
        with pytest.raises(RuntimeError, match="transform identity"):
            smith_normal_form(IntMatrix([[1, 2], [3, 4]]))

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
            D, z = intmat._solve(rows)
            assert D == abs(det)
            if not det:
                assert z == []
                continue
            # R^T z = delta * 1 with delta = +-det R, so z = +-adj(R^T) 1
            image = [sum(z[i] * rows[i][j] for i in range(n)) for j in range(n)]
            assert image in ([det] * n, [-det] * n)
            nonsingular += 1
        assert nonsingular >= 150
        assert intmat._solve([]) == (1, [])

    def test_solve_leaves_its_argument(self):
        rows = [[0, 2, 1], [3, 0, 1], [1, 1, 0]]  # the first pivot needs a row swap
        copy = [row[:] for row in rows]
        D, z = intmat._solve(rows)
        assert rows == copy and D == 5

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
