"""Exact integer matrices: arithmetic, determinants, Smith normal form.

Everything here works over Python's arbitrary-precision integers.  Smith
normal form intermediates routinely outgrow machine words, so there is no
fixed-width fast path anywhere.

Smith normal form has one elimination, ``_eliminate``.  It reduces A to D,
mirrors every row operation on the left transform U and logs every column
operation.  Two callers certify its result exactly:

* ``smith_normal_form`` builds V from the log and checks the dense product
  U @ A @ V == D;
* ``smith_left``, the cokernel path of ``ktheory``, builds W = V^-1 from
  the log instead and checks U @ A == D @ W, summing over the nonzero
  entries of A only.

U, V and W are products of elementary matrices, so unimodular by
construction, and the two checks certify the same factorization.
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


# (src, dst, q): col_dst += q * col_src; (i, j, None): swap columns i and j
_ColumnOp = tuple[int, int, int | None]


def _eliminate(a: list[list[int]]) -> tuple[list[list[int]], list[_ColumnOp]]:
    """Reduce a (a list of rows, changed in place) to Smith normal form.

    Gcd-pivot reduction: repeatedly move a minimal-magnitude nonzero entry
    of the trailing block to the pivot, clear its row and column by exact
    division steps, and fold rows back in until the pivot divides the whole
    remaining block.  Returns U, the product of the row operations, and the
    log of column operations in the order applied.

    At step k, rows from k on are zero left of column k and columns from k
    on are zero above row k, so operations on a skip those entries.
    """
    m, n = len(a), len(a[0])
    u = _identity_rows(m)
    log: list[_ColumnOp] = []

    def add_row(src: int, dst: int, q: int, k: int) -> None:
        # row[dst] += q * row[src]; both rows vanish left of column k
        asrc = a[src]
        a[dst][k:] = [x + q * y for x, y in zip(a[dst][k:], asrc[k:])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    for k in range(min(m, n)):
        while True:
            pos = _pivot(a, k)
            if pos is None:
                break  # trailing block is zero
            pi, pj = pos
            if pi != k:
                a[k], a[pi] = a[pi], a[k]
                u[k], u[pi] = u[pi], u[k]
            if pj != k:
                for row in a[k:]:
                    row[k], row[pj] = row[pj], row[k]
                log.append((k, pj, None))
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
                    log.append((k, j, q))
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
            u[k] = [-x for x in u[k]]
    return u, log


def smith_normal_form(matrix: IntMatrix) -> SmithDecomposition:
    """Smith normal form with both transformation matrices.

    Runs the elimination shared with ``smith_left`` (see ``_eliminate``):
    U mirrors every row operation, and V is the product of the logged
    column operations.  U and V are products of elementary matrices, so
    unimodular by construction, and U @ A @ V == D is checked exactly, as
    a dense product, before returning.
    """
    m, n = matrix.rows, matrix.cols
    a = matrix.to_lists()
    u, log = _eliminate(a)
    # col_dst(V) += q * col_src(V) is a row operation on V^T
    vt = _identity_rows(n)
    for src, dst, q in log:
        if q is None:
            vt[src], vt[dst] = vt[dst], vt[src]
        else:
            vt[dst] = [x + q * y for x, y in zip(vt[dst], vt[src])]
    diagonal = tuple(a[k][k] for k in range(min(m, n)))
    U, D, V = IntMatrix(u), IntMatrix(a), IntMatrix(zip(*vt))
    if (U @ matrix) @ V != D:
        raise RuntimeError("internal error: transform identity U*A*V == D failed")
    return SmithDecomposition(U=U, D=D, V=V, diagonal=diagonal)


def smith_left(matrix: IntMatrix) -> tuple[IntMatrix, tuple[int, ...]]:
    """The left transform U and the diagonal of the Smith normal form.

    Same elimination, so the same U and diagonal, as ``smith_normal_form``,
    but V is never built.  Instead each logged column operation is mirrored
    as the inverse row operation on W = V^-1 (col_dst += q*col_src becomes
    row_src(W) -= q*row_dst(W); a column swap swaps rows of W), and
    U @ A == D @ W is checked exactly.  U and W are products of elementary
    matrices, so the check is as strong as U @ A @ V == D; the product
    U @ A sums only over the nonzero entries of A.
    """
    m, n = matrix.rows, matrix.cols
    a = matrix.to_lists()
    u, log = _eliminate(a)
    # rows of W as {column: entry}: row_dst is read only while column dst
    # is not yet eliminated, when it is mostly still a unit row, so most
    # updates touch one entry
    w = [{i: 1} for i in range(n)]
    for src, dst, q in log:
        if q is None:
            w[src], w[dst] = w[dst], w[src]
        else:
            row = w[src]
            for j, x in w[dst].items():
                row[j] = row.get(j, 0) - q * x
    diagonal = tuple(a[k][k] for k in range(min(m, n)))
    nonzeros = [[(j, x) for j, x in enumerate(row) if x] for row in matrix]
    for i, u_row in enumerate(u):
        lhs = [0] * n  # row i of U @ A
        for r, entries in enumerate(nonzeros):
            c = u_row[r]
            if c:
                for j, x in entries:
                    lhs[j] += c * x
        rhs = [0] * n  # row i of D @ W
        d = diagonal[i] if i < len(diagonal) else 0
        if d:
            for j, x in w[i].items():
                rhs[j] = d * x
        if lhs != rhs:
            raise RuntimeError("internal error: transform identity U*A == D*W failed")
    return IntMatrix(u), diagonal
