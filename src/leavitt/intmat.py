"""Exact integer matrices: arithmetic, determinants, Smith normal form.

Everything here works over Python's arbitrary-precision integers.  Smith
normal form intermediates routinely outgrow machine words, so there is no
fixed-width fast path anywhere.

Every Smith computation starts with a unit phase (``_clear_units``) on a
dense copy of A that only whole-row elementary steps change, and whose
form check (``_unit_phase``) finds k pivots, a unit upper-triangular block
over a residual block R, so coker A = coker R and |det A| = |det R|.  Each
phase logs its row and column steps in two lists, of five elementary kinds
with an int multiplier, which ``_replay`` applies, at its own block's
indices.  ``smith_normal_form`` runs the gcd phase (``_reduce``) on R over
Z, builds U and V from the unit phase's row and column steps, replays the
gcd phase's on U's rows and V's columns from k on, and checks U A V == D.
``smith_coordinates``, the cokernel path of ``ktheory``, builds neither.
For D = |det A| > 0 one fraction-free solve (``_solve``) gives D and a
row c onto a cyclic quotient Z/s of coker R, with t = D / s; the gcd
phase runs only when t > 1, modulo the part D_t of D on the primes of t,
and CRT joins the cyclic rest to its largest factor (``_local_factors``).
The answer is checked, not its steps: the rows, padded with k zeros and
pulled back through the unit row steps, kill A and map onto the sum of
the Z/d_i, and the d_i divide in turn and multiply to D = |det R|.

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


def _bareiss(a: list[list[int]]) -> int:
    """Determinant of the leading square block of a list of rows (changed
    in place) by fraction-free (Bareiss) elimination; 1 for no rows.  Rows
    longer than their number carry their extra columns through every step,
    and rows may be swapped: a nonsingular block ends upper triangular,
    with the determinant up to sign as its last pivot."""
    n = len(a)
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
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = a[i]
            x = row[k]
            row[k + 1 :] = [
                (y * pivot - x * z) // prev for y, z in zip(row[k + 1 :], pivot_row[k + 1 :])
            ]
            row[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1] if n else 1


def determinant(matrix: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant requires a square matrix")
    return _bareiss(matrix.to_lists())


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
# negates row i (j == i).  A phase logs row steps and column steps in two
# lists, each in step order and at the indices of the block it works on:
# the unit phase at A's, the gcd phase at the residual block R's
_Step = tuple[str, int, int, int]


def _place(log: list[_Step], kind: str, targets: list[int], size: int) -> list[int]:
    """Log the swaps of the given kind that move targets[t] to slot t; return slot -> index."""
    at, slot = list(range(size)), list(range(size))
    for t, i in enumerate(targets):
        s = slot[i]
        if s != t:
            log.append((kind, t, s, 0))
            moved = at[t]
            at[t], at[s] = i, moved
            slot[i], slot[moved] = t, s
    return at


def _clear_units(b: list[list[int]]) -> tuple[list[_Step], list[_Step], int, list[int]]:
    """The unit phase on b, a dense copy of A that it changes in place: it
    pivots on a +-1 entry while any row holds one and clears the pivot's
    row and column exactly.  Returns its row steps, each applied to b as it
    is logged, its column steps, only logged, its number k of pivots, and
    order, where order[t] is the column its column swaps move to slot t.

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
    column additions would clear the pivot row, and a -1 pivot row is
    negated.  Steps are logged at original indices and the rows of a
    column are walked in sorted order, so the log does not depend on the
    hash seed.  Finally row swaps, applied to b too, and column swaps move
    pivot t to slot t: the log applied to A gives diag(1, ..., 1) + R, with
    k ones and a residual block R with no unit.
    """
    m, n = len(b), len(b[0])
    if not any(1 in row or -1 in row for row in b):
        return [], [], 0, list(range(n))
    counts = [n - row.count(0) for row in b]
    holders = [set(compress(range(m), column)) for column in zip(*b)]
    heap = [(count, i) for i, count in enumerate(counts)]
    heapify(heap)
    row_log, col_log, pivot_rows, pivot_cols = [], [], [], []
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
        for j, x in entries:
            if j != c:  # column c now holds row r alone
                col_log.append(("col_add", c, j, -x * u))
                holders[j].discard(r)
        if u < 0:
            row_log.append(("row_neg", r, r, 0))
            b[r] = [-x for x in row]
        counts[r] = 0  # pivoted: no key matches it again
        pivot_rows.append(r)
        pivot_cols.append(c)

    b[:] = [b[i] for i in _place(row_log, "row_swap", pivot_rows, m)]
    return row_log, col_log, len(pivot_rows), _place(col_log, "col_swap", pivot_cols, n)


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
    remainder and the passes end.  Modulo M entries are reduced where a
    decision reads them (column k and the pivot row), so every multiplier
    stays below M; a row addition leaves the rest of its target unreduced,
    to grow by less than M**2 a pass, which saves a division per entry.
    Once the pivot's row and column are clear, a row holding an entry that
    c does not divide is added to row k and the passes repeat, so each
    diagonal entry divides the next; a negative diagonal entry is negated
    at the end.  The phase ends once the block from (k, k) on is zero, as
    every later block is part of it: rescanning them costs cubic time.

    Modulo M a step whose pivot is a unit (c == 1) ends after its row pass:
    the column pass would only clear the rest of row k, and nothing reads
    row k again but its diagonal entry.  As later column steps change only
    the rows from their own step on, the logged steps replayed on a give
    the matrix left here modulo M, except past the diagonal of such a row.
    """
    m, n = len(a), (len(a[0]) if a else 0)
    for k in range(min(m, n)):
        while True:
            if modulus:
                for row in a[k:]:
                    row[k] %= modulus
            column = [i for i in range(k, m) if a[i][k]]
            if not column:
                if modulus:
                    for row in a[k:]:
                        row[k:] = [x % modulus for x in row[k:]]
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
            if modulus:
                row_k[k:] = [x % modulus for x in row_k[k:]]
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
                row[k:] = [y + q * z for y, z in zip(row[k:], top)]
                if modulus:
                    row[k] %= modulus
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
            row_k[k:] = [y + z for y, z in zip(row_k[k:], a[offender][k:])]
            if modulus:
                row_k[k:] = [x % modulus for x in row_k[k:]]
            row_log.append(("row_add", offender, k, 1))  # drags the non-multiple into row k
        if a[k][k] < 0:
            a[k][k] = -a[k][k]
            row_log.append(("row_neg", k, k, 0))


def _replay(rows: Iterable[Sequence[int]], steps: Iterable[_Step]) -> list[list[int]]:
    """A copy of the matrix with every step applied exactly to whole rows
    or columns.  Nothing is assumed about which entries the elimination
    left zero.
    """
    b = [list(row) for row in rows]
    for kind, i, j, q in steps:
        if kind == "row_add":
            b[j] = [y + q * x for x, y in zip(b[i], b[j])]
        elif kind == "col_add":
            for row in b:
                row[j] += q * row[i]
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
) -> tuple[list[_Step], list[_Step], int, list[list[int]]]:
    """The unit phase of A (plain integer rows, read and not changed) and
    its form check: its row steps, its column steps, its number k of
    pivots, and the residual block R that it leaves, as fresh lists.

    The unit phase (_clear_units) runs on a dense copy of A, which only its
    row steps change, each a whole-row addition, negation or swap.  With
    order[t] the column that its column swaps move to slot t, the copy must
    hold 1 at (t, order[t]) for t < k, and 0 below it in that column.
    Taking the columns in that order, it is then [[T, X], [0, R]] with T
    unit upper triangular.  Column steps [[T^-1, -T^-1 X], [0, I]] turn it
    into diag(I, R), and elementary row steps keep the cokernel and |det|,
    so coker A is coker R and |det A| = |det R|.  The log is checked
    downstream, not against the copy: by smith_coordinates' kill and onto
    checks on A, and by smith_normal_form's U * A * V == D.
    """
    b = [list(row) for row in rows]
    row_steps, col_steps, k, order = _clear_units(b)
    if not k:  # no unit: R is A
        return row_steps, col_steps, 0, b
    pivots, rest = order[:k], order[k:]
    residual = [[row[j] for j in rest] for row in b[k:]]
    rank = [k] * len(order)  # t for the pivot column order[t], k for the others
    for t, c in enumerate(pivots):
        rank[c] = t
    # a row past k has as many more zeros than its part of R as there are
    # pivot columns
    if any(
        row[c] != 1 or min(compress(rank, row)) < t for t, (row, c) in enumerate(zip(b, pivots))
    ) or any(row.count(0) - part.count(0) != k for row, part in zip(b[k:], residual)):
        raise RuntimeError("internal error: the unit phase does not give [[T, X], [0, R]]")
    return row_steps, col_steps, k, residual


def _gcd_phase(residual: list[list[int]]) -> tuple[list[_Step], list[_Step], tuple[int, ...]]:
    """The gcd phase over Z on a copy of the residual block R (read and not
    changed): its row steps and its column steps, both at R's indices, and
    R's Smith diagonal."""
    block = [row[:] for row in residual]
    row_steps: list[_Step] = []
    col_steps: list[_Step] = []
    _reduce(block, row_steps, col_steps)
    size = min(len(block), len(block[0])) if block else 0
    return row_steps, col_steps, tuple(block[i][i] for i in range(size))


def smith_normal_form(matrix: IntMatrix) -> SmithDecomposition:
    """Smith normal form with both transformation matrices: U is I with the
    unit row steps applied and then the gcd phase's on its rows from k on,
    V likewise from the column steps.  U @ A @ V == D is checked densely
    before returning; D is built from the diagonal alone, so the check also
    shows that the elimination left nothing off it.

    >>> smith_normal_form(IntMatrix([[2, 0], [0, 3]])).diagonal
    (1, 6)
    """
    m, n = matrix.rows, matrix.cols
    row_steps, col_steps, k, residual = _unit_phase(list(matrix))
    gcd_rows, gcd_cols, diagonal = _gcd_phase(residual)
    u, v = _replay(_identity_rows(m), row_steps), _replay(_identity_rows(n), col_steps)
    u[k:] = _replay(u[k:], gcd_rows)
    v = [row[:k] + tail for row, tail in zip(v, _replay([row[k:] for row in v], gcd_cols))]
    diagonal = (1,) * k + diagonal
    U, D, V = IntMatrix(u), IntMatrix(_diagonal_rows(m, n, diagonal)), IntMatrix(v)
    if (U @ matrix) @ V != D:
        raise RuntimeError("internal error: transform identity U*A*V == D failed")
    return SmithDecomposition(U, D, V, diagonal)


def _solve(residual: list[list[int]]) -> tuple[int, list[int]]:
    """D = |det R| and, when D > 0, an integer z with R^T z = delta * 1 for
    delta = +-det R, from one fraction-free solve.

    Bareiss runs on the rows of [R^T | 1] and carries the right-hand side
    along; delta is its last pivot.  Back-substitution then gives
    z = delta * R^-T 1, which Cramer's rule makes integral, so every
    division is exact.  Returns (0, []) for a singular R and (1, []) for
    an empty one.
    """
    a = [[*column, 1] for column in zip(*residual)]
    D = abs(_bareiss(a))
    n = len(a)
    if not D or not n:
        return D, []
    delta = a[-1][-2]
    z = []  # z_(n-1), ..., z_(k+1), then z_k appended
    for k in range(n - 1, -1, -1):
        row = a[k]
        z.append((delta * row[n] - sum(map(mul, row[n - 1 : k : -1], z))) // row[k])
    z.reverse()
    return D, z


def _prime_part(n: int, t: int) -> int:
    """The largest divisor of n > 0 whose primes all divide t > 0, by
    repeated gcds and no factoring: g holds the primes of t that still
    divide the rest of n, and the loop ends when none does."""
    rest, g = n, gcd(n, t)
    while g > 1:
        rest //= g
        g = gcd(rest, g)
    return n // rest


def _local_factors(
    residual: list[list[int]], D: int, z: list[int]
) -> tuple[tuple[int, ...], list[list[int]]]:
    """The invariant factors of coker R, with D = |det R| > 1 and z from
    _solve, and a coordinate row for each factor other than 1, in R's row
    indices and reduced modulo its factor; R may be changed in place.

    With t = gcd(D, content z) and s = D / t, the row c = z / t kills R
    modulo s, as c R = +-s * 1, and maps onto Z/s: at a prime p of s,
    v_p(t) = v_p(content z) < v_p(D), so p does not divide content c.  So
    Z/s is a cyclic quotient of coker R, and s divides the largest
    invariant factor.  When t = 1 that makes coker R cyclic of order D,
    with coordinate row c.

    Otherwise let D_t be the part of D on the primes of t.  The gcd phase
    modulo D_t gives f_i = gcd(g_i, D_t), the invariant factors of the
    D_t-part of coker R, and the rows of its log.  At every other prime p,
    v_p(s) = v_p(D), so the p-part of coker R is that of Z/s: it is
    cyclic, and all of these parts together are Z/e with row c modulo e,
    where e is the part of s prime to f_r (the primes of f_r are those of
    t, as each prime of D divides the largest factor).  As e and f_r are
    coprime, the invariant factors are f_1, ..., f_(r-1), f_r * e, and by
    CRT the last row is the one that is f_r's row modulo f_r and c modulo
    e.  Nothing here is trusted: smith_coordinates checks that the factors
    multiply to D and divide in turn and that the rows kill A and map onto
    the group.
    """
    r = len(residual)
    t = gcd(D, *z)
    if t == 1:
        return (1,) * (r - 1) + (D,), [[x % D for x in z]]
    modulus = _prime_part(D, t)
    steps: list[_Step] = []
    _reduce(residual, steps, [], modulus)  # nothing reads the column steps
    f = [gcd(residual[i][i], modulus) for i in range(r)]
    # the last row is always wanted: CRT gives it the cyclic part
    wanted = [([int(j == i) for j in range(r)], d) for i, d in enumerate(f) if d != 1 or i == r - 1]
    rows = _coordinate_rows(steps, wanted)
    s, last = D // t, f[-1]
    e = s // _prime_part(s, last)
    if e > 1:
        d = f[-1] = last * e
        # alpha is 1 modulo last and 0 modulo e, beta the other way round
        alpha, beta = e * pow(e, -1, last), last * pow(last, -1, e)
        rows[-1] = [(alpha * u + beta * (x // t)) % d for u, x in zip(rows[-1], z)]
    return tuple(f), rows


def _onto(rows: Sequence[Sequence[int]], factors: Sequence[int]) -> bool:
    """True iff x -> (row_i . x mod d_i) maps Z^m onto the sum of the Z/d_i
    (every d_i > 0), that is iff the columns of [C | diag(d)] span Z^k.

    It shares no code with the elimination it checks.  Row r of the span is
    gcd(d_r, row r) * Z, which must be Z.  Euclid's steps, each an
    elementary column step, then gather that gcd into one pivot column that
    starts as d_r e_r and leave row r of the other columns zero; those
    columns and the d_i e_i of the later rows must span the rest.  Entries
    are kept modulo their d_i, since adding a multiple of d_i e_i to a
    column keeps the span.  With one factor d this is gcd(d, row) == 1.
    """
    k = len(factors)
    columns = [[x % d for x, d in zip(col, factors)] for col in zip(*rows)]
    for r, d in enumerate(factors):
        if gcd(d, *(col[r] for col in columns)) != 1:
            return False
        pivot = [0] * k
        pivot[r] = d
        for col in columns if r + 1 < k else ():
            while col[r]:  # a Euclid step: pivot, col = col, pivot - q * col
                q = pivot[r] // col[r]
                pivot, col[:] = col[:], [(y - q * z) % f for y, z, f in zip(pivot, col, factors)]
    return True


def smith_coordinates(
    rows: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The Smith diagonal of A (plain integer rows, not validated) and the
    coordinates of Z^m / im(A): one row for each d_i != 1 (d_i = 0 past
    the diagonal), torsion rows reduced modulo d_i, free rows exact.

    U and V are never built.  A square A with D = |det A| > 0 takes the
    solve and the local step (_local_factors).  Any other A takes the gcd
    phase over Z (_gcd_phase), whose row and column steps, replayed on R,
    must give its diagonal, and whose row steps pull each wanted e_i back
    at R's indices.  Either way the rows, at R's indices, are padded with
    k zeros and pulled back through the unit phase's row steps in one
    reverse pass.

    Each row c_i must kill A, c_i * A == 0 modulo d_i (exactly when free),
    and for a finite group the rows must map Z^m onto the sum of the Z/d_i
    (_onto); for D > 0 the d_i must multiply to D and divide in turn.  That
    certifies the answer however it was found: kill gives a homomorphism
    from coker A, onto makes it surjective, and a surjection between finite
    groups of the same order is an isomorphism; |det A| = |det R| = D, as
    only elementary row steps change the unit phase's copy of A.  On the gcd
    route the rows come from a product of logged elementary steps, so they
    are onto; the replayed gcd steps show the group isomorphic to coker A,
    and a surjection between isomorphic f.g. abelian groups is injective.
    """
    m, n = len(rows), len(rows[0])
    row_steps, _, k, residual = _unit_phase(rows)
    D, z = _solve(residual) if m == n else (0, [])
    if D:
        factors, starts = _local_factors(residual, D, z) if D > 1 else ((1,) * (m - k), [])
        if prod(factors) != D:
            raise RuntimeError("internal error: the invariant factors do not multiply to |det|")
        if any(y % x for x, y in zip(factors, factors[1:])):
            raise RuntimeError("internal error: the invariant factors do not divide in turn")
        wanted = list(zip(starts, [d for d in factors if d != 1]))
    else:
        gcd_rows, gcd_cols, factors = _gcd_phase(residual)
        if _replay(_replay(residual, gcd_rows), gcd_cols) != _diagonal_rows(m - k, n - k, factors):
            raise RuntimeError("internal error: replayed gcd steps do not give diag(g)")
        wanted = [
            ([int(r == i) for r in range(m - k)], d)
            for i, d in enumerate(factors + (0,) * (m - n))  # free rows past the diagonal
            if d != 1
        ]
        _coordinate_rows(gcd_rows, wanted)  # pulls each e_i back in place
    wanted = [([0] * k + x, d) for x, d in wanted]
    coordinate_rows = tuple(map(tuple, _coordinate_rows(row_steps, wanted)))
    columns = range(n)
    for (_, d), row in zip(wanted, coordinate_rows):
        image = [0] * n
        for y, a_row in zip(row, rows):
            if y:
                for j in compress(columns, a_row):
                    image[j] += y * a_row[j]
        if any(x % d if d else x for x in image):
            raise RuntimeError("internal error: a coordinate row does not kill A")
    moduli = [d for _, d in wanted]
    if all(moduli) and not _onto(coordinate_rows, moduli):
        raise RuntimeError("internal error: the coordinate rows are not onto the group")
    return (1,) * k + factors, coordinate_rows
