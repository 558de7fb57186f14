"""Exact integer matrices: arithmetic, determinants, Smith normal form.

Everything here works over Python's arbitrary-precision integers.  Smith
normal form intermediates routinely outgrow machine words, so there is no
fixed-width fast path anywhere.

Smith normal form has one elimination, ``_eliminate``.  It reduces A to D
and logs its row and column steps; U and V are their products, unimodular
by construction.  ``smith_normal_form`` builds both from the log and checks
U @ A @ V == D densely.  ``smith_coordinates``, the cokernel path of
``ktheory``, checks the same identity by replaying the log on a copy of A
and derives only the rows of U that the cokernel reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence


class IntMatrix:
    """Dense matrix of exact integers, immutable after construction."""

    __slots__ = ("_data", "rows", "cols")

    def __init__(self, rows_data: Iterable[Sequence[int]]):
        data = []
        for row in rows_data:
            out = []
            for value in row:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(f"matrix entries must be integers, got {value!r}")
                out.append(value)
            data.append(tuple(out))
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("matrix rows must all have the same length")
        self._data = tuple(data)
        self.rows = len(data)
        self.cols = width

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self._data[i]

    def __iter__(self):
        return iter(self._data)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self._data == other._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(row) for row in self._data]})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix dimensions do not match")
        cols = list(zip(*other._data))
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self._data]
        )

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product over the integers."""
        if len(vector) != self.cols:
            raise ValueError("vector length does not match matrix width")
        return tuple(sum(a * b for a, b in zip(row, vector)) for row in self._data)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self._data)))

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self._data]


@dataclass(frozen=True)
class SmithDecomposition:
    """Factorization U * A * V = D with U, V unimodular and D diagonal.

    The diagonal is nonnegative, each entry divides the next nonzero one,
    and zeros trail.  ``diagonal`` lists the min(rows, cols) entries of D.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    diagonal: tuple[int, ...]


def determinant(matrix: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant requires a square matrix")
    n = matrix.rows
    a = matrix.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def unimodular_check(matrix: IntMatrix) -> bool:
    """True iff the matrix is square with determinant +1 or -1."""
    if matrix.rows != matrix.cols:
        raise ValueError("unimodularity is only defined for square matrices")
    return determinant(matrix) in (1, -1)


def content(vector: Iterable[int]) -> int:
    """gcd of the absolute values of the entries; 0 for the zero vector."""
    g = 0
    for x in vector:
        g = gcd(g, x)
    return g


def _identity_rows(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _pivot(a: list[list[int]], k: int) -> tuple[int, int] | None:
    """Row-major first nonzero entry of least magnitude in the trailing
    block, rows and columns from k on.

    A +-1 entry cannot be beaten, so the scan stops at the first one.
    """
    best, pos = 0, None
    for i in range(k, len(a)):
        row = a[i]
        for j in range(k, len(row)):
            e = row[j]
            if e and (pos is None or abs(e) < best):
                best, pos = abs(e), (i, j)
                if best == 1:
                    return pos
    return pos


# (kind, i, j, q): "row_add"/"col_add" add q * row/col i to row/col j,
# "row_swap"/"col_swap" swap i and j, "row_neg" negates row i (j == i)
_Step = tuple[str, int, int, int]


def _eliminate(a: list[list[int]]) -> list[_Step]:
    """Reduce a (a list of rows, changed in place) to Smith normal form.

    Gcd-pivot reduction: repeatedly move a minimal-magnitude nonzero entry
    of the trailing block to the pivot, clear its row and column by exact
    division steps, and fold rows back in until the pivot divides the whole
    remaining block.  Returns the log of row and column steps in the order
    applied; U and V are their products, and neither is built here.

    At step k, rows from k on are zero left of column k and columns from k
    on are zero above row k, so operations on a skip those entries.
    """
    m, n = len(a), len(a[0])
    log: list[_Step] = []

    def add_row(src: int, dst: int, q: int, k: int) -> None:
        # row[dst] += q * row[src]; both rows vanish left of column k
        a[dst][k:] = [x + q * y for x, y in zip(a[dst][k:], a[src][k:])]
        log.append(("row_add", src, dst, q))

    for k in range(min(m, n)):
        while True:
            pos = _pivot(a, k)
            if pos is None:
                break  # trailing block is zero
            pi, pj = pos
            if pi != k:
                a[k], a[pi] = a[pi], a[k]
                log.append(("row_swap", k, pi, 0))
            if pj != k:
                for row in a[k:]:
                    row[k], row[pj] = row[pj], row[k]
                log.append(("col_swap", k, pj, 0))
            pivot = a[k][k]
            dirty = False
            for i in range(k + 1, m):
                if a[i][k]:
                    add_row(k, i, -(a[i][k] // pivot), k)
                    if a[i][k]:
                        dirty = True  # remainder beat the pivot; re-pivot
            # col j += q * col k moves only rows whose column-k entry is nonzero
            touched = [row for row in a[k:] if row[k]]
            row_k = a[k]
            for j in range(k + 1, n):
                if row_k[j]:
                    q = -(row_k[j] // pivot)
                    for row in touched:
                        row[j] += q * row[k]
                    log.append(("col_add", k, j, q))
                    if row_k[j]:
                        dirty = True
            if dirty:
                continue
            if abs(pivot) == 1:
                break  # a unit pivot divides everything
            offender = None
            for i in range(k + 1, m):
                row = a[i]
                if any(row[j] % pivot for j in range(k + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            add_row(offender, k, 1, k)  # drags the non-multiple into row k

        if a[k][k] < 0:
            a[k][k] = -a[k][k]
            log.append(("row_neg", k, k, 0))
    return log


def _replay(rows: Iterable[Sequence[int]], steps: Iterable[_Step]) -> list[list[int]]:
    """A copy of the matrix with the steps applied by full-length operations.
    col j += q * col i leaves column i alone, so a run of additions from one
    source column finds the rows that move once, by scanning every row."""
    b = [list(row) for row in rows]
    source, moving = -1, []
    for kind, i, j, q in steps:
        if kind == "col_add":
            if i != source:
                source, moving = i, [row for row in b if row[i]]
            for row in moving:
                row[j] += q * row[i]
            continue
        source = -1  # any other step may change which rows move
        if kind == "row_add":
            b[j] = [x + q * y for x, y in zip(b[j], b[i])]
        elif kind == "row_swap":
            b[i], b[j] = b[j], b[i]
        elif kind == "row_neg":
            b[i] = [-x for x in b[i]]
        else:  # col_swap
            for row in b:
                row[i], row[j] = row[j], row[i]
    return b


def _coordinate_row(m: int, log: list[_Step], i: int, d: int) -> tuple[int, ...]:
    """Row i of U = R_t ... R_1, reduced modulo d (exact when d == 0): e_i^T
    times the row steps in reverse order, row j += q * row s acting as
    x[s] += q * x[j]."""
    x = [int(r == i) for r in range(m)]
    for kind, s, j, q in reversed(log):
        if kind == "row_add":
            x[s] = (x[s] + q * x[j]) % d if d else x[s] + q * x[j]
        elif kind == "row_swap":
            x[s], x[j] = x[j], x[s]
        elif kind == "row_neg":
            x[s] = -x[s] % d if d else -x[s]
    return tuple(x)


def smith_normal_form(matrix: IntMatrix) -> SmithDecomposition:
    """Smith normal form with both transformation matrices, built from the
    elimination log; U @ A @ V == D is checked densely before returning."""
    m, n = matrix.rows, matrix.cols
    a = matrix.to_lists()
    log = _eliminate(a)
    # U is the row steps applied to I, V the column steps
    u = _replay(_identity_rows(m), (step for step in log if step[0].startswith("row")))
    v = _replay(_identity_rows(n), (step for step in log if step[0].startswith("col")))
    diagonal = tuple(a[k][k] for k in range(min(m, n)))
    U, D, V = IntMatrix(u), IntMatrix(a), IntMatrix(v)
    if (U @ matrix) @ V != D:
        raise RuntimeError("internal error: transform identity U*A*V == D failed")
    return SmithDecomposition(U=U, D=D, V=V, diagonal=diagonal)


def smith_coordinates(
    rows: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The Smith diagonal of A (plain integer rows, not validated) and the
    rows i of U with d_i != 1 (d_i = 0 past the diagonal), the coordinates
    of Z^m / im(A): torsion rows reduced modulo d_i, free rows exact.

    U and V are never built.  Replaying the log on a fresh copy of A must
    give D, which certifies U @ A @ V == D.  The replay does not cover the
    backward derivation of the rows, so each must also send every column of
    A to 0 modulo d_i (exactly 0 when free), summed over the nonzeros of A.
    """
    a = [list(row) for row in rows]
    m, n = len(a), len(a[0])
    log = _eliminate(a)
    diagonal = tuple(a[k][k] for k in range(min(m, n)))
    expected = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(m)]
    if _replay(rows, log) != expected:
        raise RuntimeError("internal error: replayed identity U*A*V == D failed")
    columns = [[(r, x) for r, x in enumerate(column) if x] for column in zip(*rows)]
    coordinate_rows = []
    for i, d in enumerate(diagonal + (0,) * (m - len(diagonal))):
        if d != 1:
            row = _coordinate_row(m, log, i, d)
            images = (sum(row[r] * x for r, x in column) for column in columns)
            if any(y % d if d else y for y in images):
                raise RuntimeError("internal error: a coordinate row does not kill A")
            coordinate_rows.append(row)
    return diagonal, tuple(coordinate_rows)
