"""Exact integer matrices: arithmetic, determinants, Smith normal form.

Everything here works over Python's arbitrary-precision integers.  Smith
normal form intermediates routinely outgrow machine words, so there is no
fixed-width fast path anywhere.

Every Smith computation starts with a unit phase (``_clear_units``) on a
dense copy of A that only whole-row elementary steps change, and which
logs those steps alone.  Its form check (``_unit_phase``) takes the copy's
columns in pivot order, as B = [[T, X], [0, R]] with T unit upper
triangular of size k over a residual block R, so coker A = coker R and
|det A| = |det R|.  A log lists elementary steps of five kinds with an int
multiplier, which ``_replay`` applies.  ``smith_normal_form`` runs the one
gcd phase (``_reduce``) on all of B over Z, which clears the pivot rows by
column steps and then diagonalises R, at B's indices; U is I with every
row step replayed, V the permutation of the pivot order with every column
step, and it checks U A V == D.
``smith_coordinates``, the cokernel path of ``ktheory``, builds neither:
it splits R into blocks that no nonzero entry joins (``_blocks``), reads
each block's cokernel as cyclic factors off one fraction-free solve
(``_solve``) and a local step (``_local_factors``), joins all of them into
one chain without factoring (``_merge``), and checks the answer once, not
its steps (``_certify``).

Size contract.  With H the sum over A's nonzero columns of log2 of the
column norm, no minor of A exceeds 2^H (Hadamard), and as R is the Schur
complement of the unit phase's pivot block, of det +-1, every minor of R
is +- one of A (Sylvester).  So on a nonsingular A, where each block's S
is its R, with p rows, R's entries, D, z = +-adj(R^T) 1 (a sum of p
cofactors) and every torsion coordinate row (modulo d_i <= D) take at
most H + log2(p) + 1 bits.  A singular A has no such bound yet:
_saturate's Euclid steps can give its section and free rows many times H
bits.

``Record`` is the package's immutable record base, which the frozen
records of every module (``IntMatrix`` and ``SmithDecomposition`` here,
the groups, graphs, K0 data and verdicts elsewhere) subclass.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd, prod
from operator import attrgetter, mul
from typing import Iterable, Sequence


_PLAIN_INT = frozenset({int})


def require_ints(values: Sequence[int], what: str, least: int | None = None) -> None:
    """Raise ValueError naming the first value whose type is not int (bool
    and every other subclass included), then, when least is given, the
    first value below least."""
    if not set(map(type, values)) <= _PLAIN_INT:
        value = next(v for v in values if type(v) is not int)
        raise ValueError(f"{what} must be integers, got {value!r}")
    if least is not None and values and min(values) < least:
        value = next(v for v in values if v < least)
        raise ValueError(f"{what} must be at least {least}, got {value!r}")


class Record:
    """Immutable record whose fields are its subclass's ``__slots__``.

    A subclass names two or more fields in ``__slots__``; the constructor
    takes them in slot order or by name and raises TypeError for a missing,
    unknown, repeated or extra field.  A subclass writes its own
    ``__init__`` only to check, convert or default its arguments, and sets
    each field there once, by ``object.__setattr__`` or ``Record.__init__``.
    Records compare equal, and hash, by their field values in slot order; a
    record never equals one of another class.  The repr reads
    ``Name(field=value, ...)``, and pickling or copying calls the class
    again with the field values (``IntMatrix``, built from its rows alone,
    writes its own ``__reduce__`` and repr).
    """

    __slots__ = ()

    def __init__(self, *values, **named):
        names = self.__slots__
        if named or len(values) != len(names):
            rest = names[len(values):]  # the fields left to be named
            if len(values) > len(names) or named.keys() != set(rest):
                raise TypeError(
                    f"{self.__class__.__qualname__}() takes the fields {names} by position"
                    f" or name, got {len(values)} by position and {sorted(named)} by name"
                )
            values += tuple(map(named.get, rest))
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._values = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self))
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values(self)


class IntMatrix(Record):
    """Dense matrix of exact integers, immutable after construction."""

    __slots__ = ("_data", "rows", "cols")
    _data: tuple[tuple[int, ...], ...]
    rows: int
    cols: int

    def __init__(self, rows_data: Iterable[Sequence[int]]):
        data = []
        for row in rows_data:
            row = tuple(row)
            require_ints(row, "matrix entries")
            data.append(row)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("matrix rows must all have the same length")
        object.__setattr__(self, "_data", tuple(data))
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self._data[i]

    def __iter__(self):
        return iter(self._data)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(row) for row in self._data]})"

    def __reduce__(self):
        return IntMatrix, (self._data,)  # the rows alone; the sizes follow from them

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented  # Python raises TypeError
        if self.cols != other.rows:
            raise ValueError("matrix dimensions do not match")
        cols = list(zip(*other._data))
        return IntMatrix([[sum(map(mul, row, col)) for col in cols] for row in self._data])

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self._data]


class SmithDecomposition(Record):
    """Factorization U * A * V = D with U, V unimodular and D diagonal.

    The diagonal is nonnegative, each entry divides the next nonzero one,
    and zeros trail.  ``diagonal`` lists the min(rows, cols) entries of D.
    """

    __slots__ = ("U", "D", "V", "diagonal")
    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    diagonal: tuple[int, ...]


def _bareiss(a: list[list[int]], order: list[int], start: int = 0) -> tuple[int, int]:
    """Rank-revealing fraction-free (Bareiss) elimination of a list of rows,
    changed in place, on its first len(order) columns; later columns are
    carried through every step.  order[t] names the column at column t and
    is permuted with the columns.  Returns the rank r and the determinant
    of the leading r x r block that the swaps leave (1 for r = 0; its sign
    counts only this call's swaps).

    Step k pivots on the first row from k on with a nonzero entry in column
    k.  Only when no row has one does the first later column with a nonzero
    entry from row k on swap into column k, so a block whose leading
    columns are independent, such as a nonsingular square one, is never
    reordered.  Swapping columns is the elimination of a column-permuted
    input, so every division stays exact, the rows from r on end zero in
    the first len(order) columns, and the leading r x r block ends upper
    triangular, its last pivot a nonzero r x r minor of the input.  With
    start > 0 the rows before start are pivot rows that an earlier call
    left, and the rows from start on are new: they first take the steps
    those pivots took, and the elimination goes on from step start.
    """
    rows, width = len(a), len(order)
    sign, prev = 1, 1
    for k in range(min(rows, width)):
        if k >= start and not a[k][k]:
            i = next((i for i in range(k + 1, rows) if a[i][k]), None)
            if i is None:
                j = next((j for j in range(k + 1, width) if any(row[j] for row in a[k:])), None)
                if j is None:
                    return k, sign * prev
                for row in a:
                    row[k], row[j] = row[j], row[k]
                order[k], order[j] = order[j], order[k]
                sign = -sign
                i = next(i for i in range(k, rows) if a[i][k])
            if i != k:
                a[k], a[i] = a[i], a[k]
                sign = -sign
        pivot_row = a[k]
        pivot = pivot_row[k]
        for row in a[max(k + 1, start) :]:
            x = row[k]
            if x or pivot != prev:  # else the step leaves the row as it is
                row[k + 1 :] = [
                    (y * pivot - x * z) // prev for y, z in zip(row[k + 1 :], pivot_row[k + 1 :])
                ]
                row[k] = 0
        prev = pivot
    return min(rows, width), sign * prev


def determinant(matrix: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant requires a square matrix")
    rank, det = _bareiss(matrix.to_lists(), list(range(matrix.cols)))
    return det if rank == matrix.rows else 0


def unimodular_check(matrix: IntMatrix) -> bool:
    """True iff the matrix is square with determinant +1 or -1."""
    if matrix.rows != matrix.cols:
        raise ValueError("unimodularity is only defined for square matrices")
    return determinant(matrix) in (1, -1)


def content(vector: Iterable[int]) -> int:
    """gcd of the absolute values of the entries; 0 for the zero vector."""
    return gcd(*vector)


def _identity_rows(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _diagonal_rows(m: int, n: int, diagonal: Sequence[int]) -> list[list[int]]:
    """The m x n matrix with the given diagonal and zeros elsewhere."""
    rows = [[0] * n for _ in range(m)]
    for i, d in enumerate(diagonal):
        rows[i][i] = d
    return rows


# (kind, i, j, q), one of five kinds with an int q: "row_add"/"col_add" add
# q * row/col i to row/col j, "row_swap"/"col_swap" swap i and j, "row_neg"
# negates row i (j == i).  A log holds steps in step order, at the indices
# of the block its phase works on: the unit phase logs row steps only, at
# A's; the gcd phase appends its row and column steps to two lists, at B's
# in snf and at a block's of R in the local step
_Step = tuple[str, int, int, int]
_Cyclic = tuple[int, list[int]]  # a cyclic factor Z/d and its coordinate row modulo d


def _place(targets: list[int], size: int, log: list[_Step] | None = None) -> list[int]:
    """The swaps that move targets[t] to slot t, logged as row swaps when a
    log is given; return slot -> index."""
    at, slot = list(range(size)), list(range(size))
    for t, i in enumerate(targets):
        s = slot[i]
        if s != t:
            if log is not None:
                log.append(("row_swap", t, s, 0))
            moved = at[t]
            at[t], at[s] = i, moved
            slot[i], slot[moved] = t, s
    return at


def _clear_units(b: list[list[int]]) -> tuple[list[_Step], int, list[int]]:
    """The unit phase on b, a dense copy of A that it changes in place: it
    pivots on a +-1 entry while any row holds one and clears the pivot's
    column by row steps.  Returns its row steps, each applied to b as it is
    logged, its number k of pivots, and order, where order[t] is the column
    of pivot t for t < k and the others follow.

    Each column keeps the set of rows that hold it, and each row its number
    of nonzeros, updated at each entry change.  The pivot row is the row
    with the fewest nonzeros among those holding a unit: every row starts
    in a lazy heap keyed (nonzeros, row), and every changed row is pushed
    again; a popped key whose row was pivoted or has changed its number of
    nonzeros is skipped, and so is one whose row holds no unit, as only a
    later change, which pushes the row again, can give it one.  Its pivot
    is the unit whose column has the fewest holders, then the lowest
    column.  Row additions clear the pivot column, which brings the pivot
    row's other entries into those rows (the fill this order keeps small);
    the pivot row leaves every other column's holders, so no later step
    changes it, and a -1 pivot row is negated.  Steps are logged at
    original indices and the rows of a column are walked in sorted order,
    so the log does not depend on the hash seed.  Finally row swaps,
    applied to b too, move pivot t to row t, and the same swaps on the
    columns, not logged, give order: b's columns in order are then
    [[T, X], [0, R]], with a residual block R with no unit.
    """
    m, n = len(b), len(b[0])
    if not any(1 in row or -1 in row for row in b):
        return [], 0, list(range(n))
    counts = [n - row.count(0) for row in b]
    holders = [set(compress(range(m), column)) for column in zip(*b)]
    heap = [(count, i) for i, count in enumerate(counts)]
    heapify(heap)
    row_log, pivot_rows, pivot_cols = [], [], []
    while heap:
        size, r = heappop(heap)
        row = b[r]
        if size != counts[r] or (1 not in row and -1 not in row):
            continue  # a stale key, or a row without a unit
        entries = [(j, row[j]) for j in compress(range(n), row)]
        c = min((j for j, x in entries if x == 1 or x == -1), key=lambda j: (len(holders[j]), j))
        u = row[c]
        for i in sorted(holders[c]):
            if i == r:
                continue
            target = b[i]
            q = -target[c] * u  # u * u == 1
            count = counts[i]
            for j, x in entries:
                y = target[j]
                z = target[j] = y + q * x
                if not y:
                    count += 1
                    holders[j].add(i)
                elif not z:
                    count -= 1
                    holders[j].discard(i)
            counts[i] = count
            row_log.append(("row_add", r, i, q))
            heappush(heap, (count, i))
        for j, _ in entries:
            if j != c:  # column c now holds row r alone
                holders[j].discard(r)
        if u < 0:
            row_log.append(("row_neg", r, r, 0))
            b[r] = [-x for x in row]
        counts[r] = 0  # pivoted: no key matches it again
        pivot_rows.append(r)
        pivot_cols.append(c)

    b[:] = [b[i] for i in _place(pivot_rows, m, row_log)]
    return row_log, len(pivot_rows), _place(pivot_cols, n)


def _reduce(
    a: list[list[int]], row_log: list[_Step], col_log: list[_Step], modulus: int = 0
) -> None:
    """The gcd phase: diagonalise a (changed in place) over Z when modulus
    is 0 and modulo M = modulus otherwise, appending its row steps to
    row_log and its column steps to col_log.  Modulo M the d_i = gcd(g_i, M)
    of the diagonal g it reaches are the invariant factors of
    coker a / M coker a.

    At step k it pivots on the first entry of column k, from row k on, with
    the least gcd(x, modulus): over Z, since gcd(x, 0) == |x|, the least
    magnitude.  One division step serves both rings.  With c = gcd(p,
    modulus) for the pivot p, and inverse the inverse of p / c modulo M / c
    (over Z, p / c = +-1 is its own inverse), an entry x of the pivot's
    column or row gets q * p added for q = -(x // c) * inverse (modulo M / c),
    which leaves x % c: over Z as p = +-c, and modulo M as q * p is
    -(x // c) * c there.  That clears an entry that c divides and leaves a
    remainder below c otherwise, which becomes the next pivot: one left in
    column k by the next pass's pivot rule, one left in row k by a column
    swap to the entry of least gcd.  Its gcd with modulus is below c (over
    Z its magnitude, modulo M gcd(x % c, M) <= x % c), so c falls at every
    remainder and the passes end.  Modulo M every entry stays in [0, M):
    the block is reduced once on entry and each entry that a row or column
    addition writes is reduced, so every decision reads a residue and every
    multiplier stays below M.
    Once the pivot's row and column are clear, a row holding an entry that
    c does not divide is added to row k and the passes repeat, so each
    diagonal entry divides the next; a negative diagonal entry is negated
    at the end.  The phase ends once the block from (k, k) on is zero, as
    every later block is part of it: rescanning them costs cubic time.

    On smith_normal_form's B = [[T, X], [0, R]], with T unit upper
    triangular of size k, the first k steps clear the pivot rows with
    column steps alone: at step t < k the pivot is B[t][t] = 1, column t is
    zero below it, and each entry x of row t past it gets col_add(t, j,
    -x), which changes no other row.  From k on it works on R in place.

    Modulo M a step whose pivot is a unit (c == 1) ends after its row pass:
    the column pass would only clear the rest of row k, and nothing reads
    row k again but its diagonal entry.  As later column steps change only
    the rows from their own step on, the logged steps replayed on a give
    the matrix left here modulo M, except past the diagonal of such a row.
    """
    m, n = len(a), (len(a[0]) if a else 0)
    if modulus:
        for row in a:
            row[:] = [x % modulus for x in row]
    for k in range(min(m, n)):
        while True:
            column = [i for i in range(k, m) if a[i][k]]
            if not column:
                j = next((j for j in range(k + 1, n) if any(row[j] for row in a[k:])), None)
                if j is None:
                    return  # the trailing block is zero, and so is every later one
                for row in a[k:]:
                    row[k], row[j] = row[j], row[k]
                col_log.append(("col_swap", k, j, 0))
                continue
            pi = min(column, key=lambda i: gcd(a[i][k], modulus))
            if pi != k:
                a[k], a[pi] = a[pi], a[k]
                row_log.append(("row_swap", k, pi, 0))
            row_k = a[k]
            top = row_k[k:]
            p = top[0]
            c = gcd(p, modulus)
            inverse = pow(p // c, -1, modulus // c) if modulus else p // c
            for i in range(k + 1, m):
                row = a[i]
                x = row[k]
                if not x:
                    continue
                # clears a multiple of c and leaves a remainder x % c otherwise
                q = -(x // c) * inverse
                if modulus:
                    q %= modulus // c
                    row[k:] = [(y + q * z) % modulus for y, z in zip(row[k:], top)]
                else:
                    row[k:] = [y + q * z for y, z in zip(row[k:], top)]
                row_log.append(("row_add", k, i, q))
            if modulus and c == 1:
                break
            touched = [row for row in a[k:] if row[k]]
            for j in range(k + 1, n):
                y = row_k[j]
                if not y:
                    continue
                q = -(y // c) * inverse
                if modulus:
                    q %= modulus // c
                    for row in touched:
                        row[j] = (row[j] + q * row[k]) % modulus
                else:
                    for row in touched:
                        row[j] += q * row[k]
                if q:  # 0 < y < c is its own remainder
                    col_log.append(("col_add", k, j, q))
            if len(touched) > 1:
                continue  # column k holds remainders
            rest = [j for j in range(k + 1, n) if row_k[j]]
            if rest:  # a remainder left in row k becomes the next pivot
                j = min(rest, key=lambda j: gcd(row_k[j], modulus))
                for row in a[k:]:
                    row[k], row[j] = row[j], row[k]
                col_log.append(("col_swap", k, j, 0))
                continue
            if c == 1:
                break
            offender = next((i for i in range(k + 1, m) if any(x % c for x in a[i][k + 1 :])), None)
            if offender is None:
                break
            if modulus:
                row_k[k:] = [(y + z) % modulus for y, z in zip(row_k[k:], a[offender][k:])]
            else:
                row_k[k:] = [y + z for y, z in zip(row_k[k:], a[offender][k:])]
            row_log.append(("row_add", offender, k, 1))  # drags the non-multiple into row k
        if a[k][k] < 0:
            a[k][k] = -a[k][k]
            row_log.append(("row_neg", k, k, 0))


def _replay(
    rows: Iterable[Sequence[int]], steps: Iterable[_Step], modulus: int = 0
) -> list[list[int]]:
    """A copy of the matrix with every step applied to whole rows or
    columns, exactly when modulus is 0 and otherwise with each entry that
    an addition changes reduced modulo modulus.  Nothing is assumed about
    which entries the elimination left zero.
    """
    b = [list(row) for row in rows]
    for kind, i, j, q in steps:
        if kind == "row_add":
            b[j] = [y + q * x for x, y in zip(b[i], b[j])]
            if modulus:
                b[j] = [y % modulus for y in b[j]]
        elif kind == "col_add":
            for row in b:
                row[j] += q * row[i]
                if modulus:
                    row[j] %= modulus
        elif kind == "row_swap":
            b[i], b[j] = b[j], b[i]
        elif kind == "row_neg":
            b[i] = [-x for x in b[i]]
        else:  # col_swap
            for row in b:
                row[i], row[j] = row[j], row[i]
    return b


def _coordinate_rows(steps: list[_Step], wanted: list[tuple[list[int], int]]) -> list[list[int]]:
    """x^T R_t ... R_1 for each (x, d) in wanted, where R_1, ..., R_t are
    the steps, all row steps: each x (changed in place) is reduced modulo
    its own d (exact when d == 0), all in one reverse pass over the steps,
    row j += q * row i acting as x[i] += q * x[j].  From x = e_i this is
    row i of U = R_t ... R_1."""
    for kind, i, j, q in reversed(steps):
        if kind == "row_add":
            for x, d in wanted:
                if x[j]:
                    x[i] = (x[i] + q * x[j]) % d if d else x[i] + q * x[j]
        elif kind == "row_swap":
            for x, _ in wanted:
                x[i], x[j] = x[j], x[i]
        else:  # row_neg
            for x, d in wanted:
                x[i] = -x[i] % d if d else -x[i]
    return [x for x, _ in wanted]


def _unit_phase(
    rows: Sequence[Sequence[int]],
) -> tuple[list[_Step], list[int], int, list[list[int]]]:
    """The unit phase of A (plain integer rows, read and not changed) and
    its form check: its row steps, its column order, its number k of
    pivots, and the copy B that it leaves with its columns in that order,
    a fresh list; with no pivot, order is the identity and B is A.

    The unit phase (_clear_units) runs on a dense copy of A, which only its
    row steps change, each a whole-row addition, negation or swap.  Taking
    the columns in order, B must hold 1 at (t, t) for t < k, and 0 below
    it: it is then [[T, X], [0, R]] with T unit upper triangular.  Column
    steps [[T^-1, -T^-1 X], [0, I]] turn B into diag(I, R), and elementary
    row steps keep the cokernel and |det|, so coker A is coker R and
    |det A| = |det R|.  The log is checked downstream, not against the
    copy: by the kill and onto checks on A of _certify, and by
    smith_normal_form's U * A * V == D.
    """
    b = [list(row) for row in rows]
    row_steps, k, order = _clear_units(b)
    if not k:  # no unit: B is A
        return row_steps, order, 0, b
    columns = list(zip(*b))
    columns = [columns[j] for j in order]  # B's columns
    if any(column[t] != 1 or any(column[t + 1 :]) for t, column in enumerate(columns[:k])):
        raise RuntimeError("internal error: the unit phase does not give [[T, X], [0, R]]")
    return row_steps, order, k, [list(row) for row in zip(*columns)]


def smith_normal_form(matrix: IntMatrix) -> SmithDecomposition:
    """Smith normal form with both transformation matrices, from the unit
    phase's B = A P, for P the permutation matrix of its column order, and
    one gcd phase over Z on B: U is I with the row steps of both phases
    applied, and V is P with the gcd phase's column steps applied.  U @ A
    @ V == D is checked densely before returning; D is built from the
    diagonal alone, so the check also shows that the elimination left
    nothing off it.

    >>> smith_normal_form(IntMatrix([[2, 0], [0, 3]])).diagonal
    (1, 6)
    """
    m, n = matrix.rows, matrix.cols
    row_steps, order, _, b = _unit_phase(list(matrix))
    col_steps: list[_Step] = []
    _reduce(b, row_steps, col_steps)
    u = _replay(_identity_rows(m), row_steps)
    v = _replay([[int(i == j) for j in order] for i in range(n)], col_steps)
    diagonal = tuple(b[i][i] for i in range(min(m, n)))
    U, D, V = IntMatrix(u), IntMatrix(_diagonal_rows(m, n, diagonal)), IntMatrix(v)
    if (U @ matrix) @ V != D:
        raise RuntimeError("internal error: transform identity U*A*V == D failed")
    return SmithDecomposition(U, D, V, diagonal)


def _back_substitution(a: list[list[int]], r: int, delta: int, column: int) -> list[int]:
    """x with T x = delta * c, where T is the leading r x r block of a, upper
    triangular after _bareiss, and c the first r entries of the given
    column of a; each division is exact where Cramer's rule makes x
    integral, as for delta = +-det T."""
    x = []  # x_(r-1), ..., x_(k+1), then x_k appended
    for k in range(r - 1, -1, -1):
        row = a[k]
        x.append((delta * row[column] - sum(map(mul, row[r - 1 : k : -1], x))) // row[k])
    x.reverse()
    return x


def _blocks(residual: list[list[int]]) -> list[tuple[list[int], list[int]]]:
    """The blocks of R, the classes of rows and columns that its nonzero
    entries join, as (rows, columns), ascending: each zero row alone, then
    the others by first row; a zero column is in none.  A block grows from
    the first row left by passes over the rows left, each taking in every
    row whose columns meet its own, until one takes in none."""
    columns = range(len(residual[0]) if residual else 0)
    sets = [set(compress(columns, row)) for row in residual]
    blocks = [([i], []) for i, held in enumerate(sets) if not held]
    left = {i for i, held in enumerate(sets) if held}
    while left:
        rows, cols = [], sets[min(left)]
        while joined := [j for j in left if not cols.isdisjoint(sets[j])]:
            left.difference_update(joined)
            rows += joined
            cols.update(*map(sets.__getitem__, joined))
        blocks.append((sorted(rows), sorted(cols)))
    return blocks


def _solve(
    residual: list[list[int]],
) -> tuple[int, list[int], list[list[int]], list[list[int]], list[list[int]]]:
    """(D, z, F, G, X) from one fraction-free pass on R (p x q, one block
    of the residual block, read and not changed): the free rows F, a basis
    of {y in Z^p : y R = 0}, so R has rank p - f; a section G of F, f
    columns with F G = I; X = [R | G], a fresh list, so that coker R is
    coker X plus Z^f with coker X finite; D = |det S| for a nonsingular
    p x p block S of X; and z with S^T z = delta * 1, delta = +-D.  For R
    square and nonsingular, X = S = R.  An empty R gives D = 1 and nothing
    else; a zero row with no column, a block of its own, gives F = [e_1],
    G = [[1]] and D = 1.

    Bareiss (_bareiss) runs on the rows of [R^T | 1], searching across
    columns only when no row can supply a pivot, up to the rank r with a
    pivot block T whose last pivot is delta_r.  For each of the f = p - r
    columns c_j of R^T that got no pivot, x_j = delta_r * T^-1 c_j is
    integral by Cramer's rule, and y_j = delta_r e_j - x_j (x_j at the
    pivot columns) kills R, as the rows of R^T past r are combinations of
    the first r.  _saturate turns the y_j into F and G.  The rows of G^T,
    with a 1 each, then take the steps the pivots took and complete the
    elimination to rank p: S is R's pivot columns beside G, delta its last
    pivot, and back-substitution gives z = delta * S^-T 1, integral by
    Cramer's rule, so every division is exact.
    """
    p = len(residual)
    columns = list(zip(*residual))
    a = [[*column, 1] for column in columns]
    order = list(range(p))
    r, _ = _bareiss(a, order)
    delta = a[r - 1][r - 1] if r else 1
    kernel = []
    for j in range(r, p):
        y = [0] * p
        for c, x in zip(order, _back_substitution(a, r, delta, j)):
            y[c] = -x
        y[order[j]] = delta
        kernel.append(y)
    free, section = _saturate(kernel) if kernel else ([], [])
    if section:
        a[r:] = [[g[c] for c in order] + [1] for g in section]
        if _bareiss(a, order, r)[0] != p:
            raise RuntimeError("internal error: the section does not complete the rank")
    delta = a[p - 1][p - 1] if p else 1
    z = [0] * p
    for c, x in zip(order, _back_substitution(a, p, delta, p)):
        z[c] = x
    return abs(delta), z, free, section, [list(row) for row in zip(*columns, *section)]


def _saturate(kernel: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """A basis F of the integer vectors in the span of the given f
    independent rows Y, each of length p, and a section of it: f columns
    G of length p with F G = I.

    Euclid's steps gather the columns of Y, as vectors in Z^f, into pivots
    h_0, h_1, ..., where h_s ends zero before s, each step applied also to
    the combination of input columns that a column is: so Y G = H for the
    lower triangular H with columns h_s and the combinations G of the
    pivots.  The h_s span the lattice Y Z^p, and so does C for Y = C B with
    B a basis of the saturation, which maps Z^p onto Z^f: so H = C U with U
    unimodular, and F = H^-1 Y = U^-1 B, solved by forward substitution
    with exact divisions, is a basis too, with F G = H^-1 H = I.
    """
    f, p = len(kernel), len(kernel[0])
    # each column of Y, then the combination of input columns it is
    columns = []
    for j, column in enumerate(zip(*kernel)):
        if any(column):
            columns.append([*column, *[0] * p])
            columns[-1][f + j] = 1
    pivots = []
    for s in range(f):
        pivot = [0] * (f + p)
        for column in columns:
            while column[s]:  # a Euclid step: pivot, column = column, pivot - q * column
                q = pivot[s] // column[s]
                pivot, column[:] = column[:], [y - q * z for y, z in zip(pivot, column)]
        pivots.append(pivot)
    free: list[list[int]] = []
    for u, y in enumerate(kernel):
        for s, row in enumerate(free):
            if pivots[s][u]:
                y = [x - pivots[s][u] * z for x, z in zip(y, row)]
        free.append(y if pivots[u][u] == 1 else [x // pivots[u][u] for x in y])
    return free, [pivot[f:] for pivot in pivots]


def _prime_part(n: int, t: int) -> int:
    """The largest divisor of n > 0 whose primes all divide t > 0, by
    repeated gcds and no factoring: g holds the primes of t that still
    divide the rest of n, and the loop ends when none does."""
    rest, g = n, gcd(n, t)
    while g > 1:
        rest //= g
        g = gcd(rest, g)
    return n // rest


def _replayed_order(rows: list[list[int]], steps: list[_Step], modulus: int) -> int:
    """The order of coker(A) / M coker(A), for A given by its p rows, p at
    most its width, and M = modulus, from the log of the gcd phase modulo
    M (_reduce): replayed on A modulo M, the log must reach a diagonal with
    entries left only past the diagonal of a row whose gcd with M is 1;
    the order is then the product of the gcds of the diagonal with M."""
    reached = _replay(rows, steps, modulus)
    gcds = [gcd(reached[i][i], modulus) for i in range(len(reached))]
    if any(
        x % modulus for i, row in enumerate(reached) for j, x in enumerate(row)
        if j < i or j > i and gcds[i] > 1
    ):
        raise RuntimeError("internal error: the replayed steps modulo D_t do not give a diagonal")
    return prod(gcds)


def _local_factors(block: list[list[int]], D: int, z: list[int]) -> tuple[list[_Cyclic], int]:
    """Cyclic factors (d, row) whose sum is coker X, for X = block (p rows,
    changed in place) with a p x p block S, D = |det S| and S^T z = +-D * 1
    from _solve, each d > 1 and each row in X's row indices and reduced
    modulo d; and a bound that the factors must multiply to.  The factors
    are those of the gcd phase, each dividing the next, then one more,
    prime to them, which _merge joins.  D = 1 gives no factor and bound 1.

    With t = gcd(D, content z), the row c = z / t gives c S = +-(D / t) * 1,
    and s = gcd(D / t, c X) is D / t when X = S.  So c kills X modulo s,
    and it maps onto Z/s: at a prime p of s, v_p(t) = v_p(content z) <
    v_p(D), so p does not divide content c.  So Z/s is a cyclic quotient of
    coker X, which is a quotient of coker S, of order D.  When s = D that
    makes coker X cyclic of order D, with coordinate row c.

    Otherwise let D_t be the part of D on the primes of D / s.  The gcd
    phase modulo D_t gives f_i = gcd(g_i, D_t), the invariant factors of
    the D_t-part of coker X, and the rows of its log.  At every other prime
    p, v_p(s) = v_p(D), so the p-part of coker X is that of Z/s: it is
    cyclic, and all of these parts together are Z/e with row c modulo e,
    where e is the part of s prime to D_t.  Z/e is one more cyclic factor,
    which _merge joins.

    Nothing here is trusted: _certify checks that the factors, once
    merged, divide in turn and multiply to the bounds and that the rows
    kill A and map onto the group.  The bound is D when X = S, as |coker S| = D.  A
    wider X is a quotient of S by more columns: the bound is then D / D_t
    times the order of the D_t-part, which the log modulo D_t, replayed on
    X, shows (_replayed_order); coker X has at most that order, as its
    part off D_t is a quotient of that of coker S.
    """
    p = len(block)
    t = gcd(D, *z)
    s = D // t
    wide = len(block[0]) > p
    if wide:  # c X = +-s on S, and the columns past S may fall short of it
        s = gcd(s, *(sum(map(mul, z, column)) // t for column in zip(*block)))
    modulus = _prime_part(D, D // s)  # 1 when s == D
    pairs, bound = [], D
    if modulus > 1:
        unchanged = [row[:] for row in block] if wide else []
        steps: list[_Step] = []
        col_steps: list[_Step] = []
        _reduce(block, steps, col_steps, modulus)
        if wide:
            bound = D // modulus * _replayed_order(unchanged, steps + col_steps, modulus)
        f = [gcd(block[i][i], modulus) for i in range(p)]
        wanted = [([int(j == i) for j in range(p)], d) for i, d in enumerate(f) if d != 1]
        pairs = list(zip([d for _, d in wanted], _coordinate_rows(steps, wanted)))
    e = s // _prime_part(s, modulus)
    if e > 1:
        pairs.append((e, [x // t % e for x in z]))
    return pairs, bound


def _join(x: Sequence[int], a: int, y: Sequence[int], b: int) -> list[int]:
    """The row modulo a * b that is x modulo a and y modulo b, a and b coprime (CRT)."""
    alpha, beta = b * pow(b, -1, a), a * pow(a, -1, b)  # 1 and 0 modulo a, 0 and 1 modulo b
    return [(alpha * u + beta * v) % (a * b) for u, v in zip(x, y)]


def _merge(chain: list[_Cyclic], factors: Iterable[_Cyclic]) -> list[_Cyclic]:
    """The chain of cyclic factors (d, row), each d > 1 dividing the next
    and each row modulo its d, with the given ones (each d > 1) merged in,
    in place.  Each is moved down past each a above it that does not
    divide it, b: with a1 and b2 the parts of a and b on the primes of
    a / gcd(a, b) (_prime_part), CRT on the rows (_join) turns Z/a + Z/b
    into Z/(a / a1 * b2) + Z/(a1 * b / b2), that is Z/gcd + Z/lcm, without
    factoring (Newman, Integral Matrices, 1972).  That sorts the two
    exponents at each prime, so the moves are insertion at every prime at
    once, and stop where a divides b, as every lower factor then does, or
    where Z/gcd is 0, which is dropped, as every lower factor divides a."""
    for pair in factors:
        chain.append(pair)
        j = len(chain) - 1
        while j and chain[j][0] % chain[j - 1][0]:
            (a, x), (b, y) = chain[j - 1], chain[j]
            t = a // gcd(a, b)
            a1, b2 = _prime_part(a, t), _prime_part(b, t)
            chain[j] = (a1 * (b // b2), _join(x, a1, y, b // b2))
            if t == a:  # a and b are coprime, so Z/gcd is 0
                del chain[j - 1]
                break
            chain[j - 1] = (a // a1 * b2, _join(x, a // a1, y, b2))
            j -= 1
    return chain


def _onto(rows: Sequence[Sequence[int]], factors: Sequence[int]) -> bool:
    """True iff x -> (row_i . x mod d_i) maps Z^m onto the sum of the Z/d_i,
    where d_i = 0 gives a free summand Z, that is iff the columns of
    [C | diag(d)] span Z^k.

    It shares no code with the elimination it checks.  Row r of the span is
    gcd(d_r, row r) * Z, which must be Z.  Euclid's steps, each an
    elementary column step, then gather that gcd into one pivot column that
    starts as d_r e_r and leave row r of the other columns zero; those
    columns and the d_i e_i of the later rows must span the rest.  Entries
    are kept modulo their d_i, since adding a multiple of d_i e_i to a
    column keeps the span, and exact in a free row.  With one factor d
    this is gcd(d, row) == 1.

    A column x e_r with gcd(x, d_r) == 1 spans row r's summand alone, so
    the rest must span the quotient by it, which drops row r: such rows are
    left out before the passes, and an identity C costs one scan.
    """
    k = len(factors)
    spanned = set()
    for col in zip(*rows):
        if col.count(0) == k - 1:
            r = next(compress(range(k), col))
            if gcd(col[r], factors[r]) == 1:
                spanned.add(r)
    if spanned:
        rows = [row for r, row in enumerate(rows) if r not in spanned]
        factors = [d for r, d in enumerate(factors) if r not in spanned]
        k = len(factors)
    columns = [[x % d if d else x for x, d in zip(col, factors)] for col in zip(*rows)]
    for r, d in enumerate(factors):
        if gcd(d, *(col[r] for col in columns)) != 1:
            return False
        pivot = [0] * k
        pivot[r] = d
        for col in columns if r + 1 < k else ():
            while col[r]:  # a Euclid step: pivot, col = col, pivot - q * col
                q = pivot[r] // col[r]
                pivot, col[:] = col[:], [
                    (y - q * z) % f if f else y - q * z for y, z, f in zip(pivot, col, factors)
                ]
    return True


def _certify(
    rows: Sequence[Sequence[int]], coordinate_rows: Sequence[Sequence[int]], moduli: list[int],
    blocks: list[tuple[int, list[list[int]], list[tuple[int, ...]]]],
) -> None:
    """Check an answer of smith_coordinates on A (plain rows) once: its
    coordinate rows with their d_i (0 for a free row), and each block's
    bound, free rows F and section G (as columns); raise RuntimeError at
    the first check that fails.  Kill: each row kills A modulo its d_i, a
    free row exactly.  Onto: the rows map Z^m onto Z^f + T, for T the sum
    of the Z/d_i (_onto).  They give a surjection psi from coker A = coker
    R, the sum of the blocks' cokernels, onto Z^f + T.  Order: F G = I in
    each block N, so coker N is Z^(f_N) plus the kernel of F, which is
    coker X, finite, of order at most the block's bound (_local_factors);
    f is the sum of the f_N; and the d_i divide in turn and multiply to the
    product of the bounds.  So the torsion T' of coker A has |T'| <= |T|,
    and psi maps T' onto T, as a class that psi sends to T has free part
    zero: psi is injective on T', and then everywhere."""
    if moduli.count(0) != sum(len(free) for _, free, _ in blocks) or any(
        [[sum(map(mul, y, g)) for g in section] for y in free] != _identity_rows(len(free))
        for _, free, section in blocks
    ):
        raise RuntimeError("internal error: the free rows do not split off coker X")
    factors = [d for d in moduli if d]
    if prod(factors) != prod(bound for bound, _, _ in blocks):
        raise RuntimeError("internal error: the invariant factors do not multiply to |det|")
    if any(y % x for x, y in zip(factors, factors[1:])):
        raise RuntimeError("internal error: the invariant factors do not divide in turn")
    columns = range(len(rows[0]))
    for d, row in zip(moduli, coordinate_rows):
        image = [0] * len(columns)
        for y, a_row in compress(zip(row, rows), row):
            for j in compress(columns, a_row):
                image[j] += y * a_row[j]
        if any(x % d for x in image) if d else any(image):
            raise RuntimeError("internal error: a coordinate row does not kill A")
    if not _onto(coordinate_rows, moduli):
        raise RuntimeError("internal error: the coordinate rows are not onto the group")


def smith_coordinates(
    rows: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The Smith diagonal of A (plain integer rows, not validated) and the
    coordinates of Z^m / im(A): one row for each d_i != 1 (d_i = 0 past
    the diagonal), torsion rows reduced modulo d_i, then the free rows,
    exact.

    U and V are never built.  After the unit phase, each block N of R
    (_blocks) takes one solve (_solve), giving its free rows F, the finite
    part coker X of coker N, and D and z for the local step
    (_local_factors), which gives cyclic factors of coker X, their rows and
    a bound on |coker X|; a zero row's F is e_i.  Each row is placed at A's
    index k + i of its row i of R, every block's factors are merged into
    one chain (_merge), and one reverse pass pulls the torsion rows and
    then each block's F back through the unit row steps.  A has rank m - f.
    For R one block without a zero row or column, N is R.  _certify checks
    the answer once, however it was found, and proves it.  The merge steps
    are automorphisms of the sum of the blocks' groups; nothing rests on
    them.
    """
    m, n = len(rows), len(rows[0])
    row_steps, _, k, b = _unit_phase(rows)
    residual = [row[k:] for row in b[k:]] if k else b
    torsion, free, blocks = [], [], []
    for at, cols in _blocks(residual):
        whole = len(at) + k == m and len(cols) + k == n  # N is R itself
        block = residual if whole else [[residual[i][j] for j in cols] for i in at]
        D, z, kernel, section, X = _solve(block)
        pairs, bound = _local_factors(X, D, z)
        blocks.append((bound, kernel, section))
        lifted = [[0] * m for _ in range(len(pairs) + len(kernel))]
        for y, x in zip(lifted, [row for _, row in pairs] + kernel):  # at A's indices k + i
            for i, v in zip(at, x):
                y[k + i] = v
        _merge(torsion, zip([d for d, _ in pairs], lifted))
        free += lifted[len(pairs) :]
    wanted = [(y, d) for d, y in torsion] + [(y, 0) for y in free]
    coordinate_rows = tuple(map(tuple, _coordinate_rows(row_steps, wanted)))
    _certify(rows, coordinate_rows, [d for _, d in wanted], blocks)
    diagonal = (1,) * (m - len(free) - len(torsion)) + tuple(d for d, _ in torsion)
    return diagonal + (0,) * (min(m, n) - m + len(free)), coordinate_rows
