"""Finitely generated abelian groups in invariant-factor form.

A group is stored as Z/d1 + ... + Z/ds + Z^t with 2 <= d1 | d2 | ... | ds.
Elements carry canonical torsion coordinates (reduced into [0, di)) plus
free coordinates.  Besides the cheap arithmetic (orders, scaling, the gcd
criterion for mapping cx to dx), the module holds the closed-form orbit
rule, which decides whether an automorphism of the torsion subgroup moves
one element (or coset of c*T) to another: orbit_invariant keys it by the
primes of the exponent, and same_orbit decides it for a pair over a
coprime base found with gcds alone, so it never factors; pointed_iso_exists
adds the free part.  Two exhaustive search oracles validate the
classification decisions:

* one depth-first search over candidate generator images of a small finite
  group, which yields every automorphism sending a given x to a given
  target: enumerate_automorphisms takes all of them (x == 0), and
  automorphism_maps_x_to_y asks for the first;
* exhaustive search for a bounded unimodular integer matrix sigma with
  n*sigma(x) = m*x.

The decision path never runs the searches.  They are deliberately dumb
about group theory -- they never assume order preservation or any orbit
classification, since those are exactly the facts the rest of the package
is being checked against.  The only shortcuts are elementary: an
automorphism fixes 0, a partial generator assignment whose span times the
product of the invariant factors still unassigned is smaller than the group
is dead, and a partial image sum that cannot reach the target through the
remaining contributions is dead.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Sequence

from .intmat import IntMatrix, Record, content, require_ints, unimodular_check

DEFAULT_SIZE_BOUND = 1024


class BoundExceeded(Exception):
    """A group is larger than a size bound: an oracle's search cap, or ``--bound``.

    The decision path never raises it; ``leavitt compare --bound`` raises it
    from the CLI when either K0 group's torsion is larger than the bound.
    """


class _InfiniteOrder:
    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITE"

    def __reduce__(self) -> str:
        return "INFINITE"  # pickling and copying keep the one instance


INFINITE = _InfiniteOrder()

OrderValue = int | _InfiniteOrder


class FGAbelianGroup(Record):
    """Invariant-factor presentation Z/d1 + ... + Z/ds + Z^free_rank."""

    __slots__ = ("invariant_factors", "free_rank")
    invariant_factors: tuple[int, ...]
    free_rank: int

    def __init__(self, invariant_factors: Iterable[int] = (), free_rank: int = 0):
        factors = tuple(invariant_factors)
        require_ints(factors, "invariant factors", least=2)
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        require_ints((free_rank,), "free rank", least=0)
        object.__setattr__(self, "invariant_factors", factors)
        object.__setattr__(self, "free_rank", free_rank)

    @property
    def torsion_rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def torsion_size(self) -> int:
        return prod(self.invariant_factors)

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def element(self, torsion: Iterable[int] = (), free: Iterable[int] = ()) -> "GroupElement":
        """Build an element, reducing torsion coordinates to canonical form.

        >>> G = FGAbelianGroup((4,))
        >>> G.element([6])
        GroupElement(torsion=(2,), free=())
        """
        raw, f = tuple(torsion), tuple(free)
        if len(raw) != self.torsion_rank:
            raise ValueError("wrong number of torsion coordinates")
        if len(f) != self.free_rank:
            raise ValueError("wrong number of free coordinates")
        require_ints(raw + f, "coordinates")
        return GroupElement(tuple(c % d for c, d in zip(raw, self.invariant_factors)), f)

    def identity(self) -> "GroupElement":
        return GroupElement((0,) * self.torsion_rank, (0,) * self.free_rank)

    def elements(self) -> Iterator["GroupElement"]:
        """All elements, in lexicographic coordinate order (finite groups only)."""
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        for t in itertools.product(*(range(d) for d in self.invariant_factors)):
            yield GroupElement(t, ())


class GroupElement(Record):
    __slots__ = ("torsion", "free")
    torsion: tuple[int, ...]
    free: tuple[int, ...]

    def __init__(self, torsion: Iterable[int], free: Iterable[int] = ()):
        object.__setattr__(self, "torsion", tuple(torsion))
        object.__setattr__(self, "free", tuple(free))


def check_member(group: FGAbelianGroup, x: GroupElement) -> None:
    """Raise ValueError unless x is a canonical element of group, with int coordinates."""
    if len(x.torsion) != group.torsion_rank or len(x.free) != group.free_rank:
        raise ValueError("element coordinate counts do not match the group")
    require_ints(x.torsion + x.free, "coordinates")
    for c, d in zip(x.torsion, group.invariant_factors):
        if not 0 <= c < d:
            raise ValueError("torsion coordinates must be canonical representatives")


def element_order(group: FGAbelianGroup, x: GroupElement) -> OrderValue:
    """Order of x: INFINITE when a free coordinate is nonzero, else an int.

    >>> element_order(FGAbelianGroup((4,)), GroupElement((2,)))
    2
    >>> element_order(FGAbelianGroup((2, 6)), GroupElement((1, 3)))
    2
    >>> element_order(FGAbelianGroup((), 1), GroupElement((), (1,)))
    INFINITE
    """
    check_member(group, x)
    if any(x.free):
        return INFINITE
    n = 1
    for c, d in zip(x.torsion, group.invariant_factors):
        n = lcm(n, d // gcd(c, d))
    return n


def scale(group: FGAbelianGroup, c: int, x: GroupElement) -> GroupElement:
    """c * x for a positive integer c."""
    require_ints((c,), "scalar", least=1)
    check_member(group, x)
    return group.element(
        torsion=(c * v for v in x.torsion),
        free=(c * v for v in x.free),
    )


def add(group: FGAbelianGroup, x: GroupElement, y: GroupElement) -> GroupElement:
    check_member(group, x)
    check_member(group, y)
    return group.element(
        torsion=(a + b for a, b in zip(x.torsion, y.torsion)),
        free=(a + b for a, b in zip(x.free, y.free)),
    )


def negate(group: FGAbelianGroup, x: GroupElement) -> GroupElement:
    check_member(group, x)
    return group.element(torsion=(-v for v in x.torsion), free=(-v for v in x.free))


def gcd_criterion(n: int, c: int, d: int) -> bool:
    """Does some automorphism send c*x to d*x, for x of order n?

    The answer is gcd(c, n) == gcd(d, n); validated against the exhaustive
    automorphism search by the test suite.

    >>> gcd_criterion(4, 2, 6)
    True
    >>> gcd_criterion(4, 1, 2)
    False
    """
    require_ints((n, c, d), "n, c, d", least=1)
    return gcd(c, n) == gcd(d, n)


def _valuation(p: int, n: int) -> int:
    """Exponent of the prime p in the positive integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _prime_divisors(n: int) -> list[int]:
    """Primes dividing the positive integer n, ascending, by trial division."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def _coprime_base(numbers: Iterable[int]) -> list[int]:
    """Pairwise coprime integers > 1, ascending, whose powers build every number.

    Each given positive integer is a product of powers of the returned
    integers, so a prime p dividing a base element q has
    v_p(n) = v_q(n) * v_p(q) for every given n.  Only gcds are taken: a base
    element b sharing g = gcd(a, b) > 1 with a newcomer a is replaced by
    b/g and g, and a by a/g and g.  Each split divides the product of all
    pending and kept numbers by g, so there are fewer splits than that
    product has bits.

    >>> _coprime_base([12, 18])
    [2, 3]
    >>> _coprime_base([36, 2])
    [2, 9]
    """
    base: list[int] = []
    pending = [n for n in set(numbers) if n > 1]
    while pending:
        a = pending.pop()
        for i, b in enumerate(base):
            g = gcd(a, b)
            if g > 1:
                del base[i]
                pending += [m for m in (a // g, g, b // g) if m > 1]
                break
        else:
            base.append(a)
    return sorted(base)


def _ulm_key(group: FGAbelianGroup, x: GroupElement, c: int, base: Sequence[int]) -> tuple:
    """(q, Ulm sequence) for each q of a coprime base of the torsion data."""
    coords = [(gcd(xi, d), gcd(c, d), d) for xi, d in zip(x.torsion, group.invariant_factors)]
    key = []
    for q in base:
        # (v_q(x_i), e_i) of the coordinates that the coset cannot clear
        kept = [
            (v, _valuation(q, d))
            for gx, gc, d in coords
            if (v := _valuation(q, gx)) < _valuation(q, gc)
        ]
        ulm = []
        j = 0
        while heights := [j + v for v, e in kept if j + v < e]:
            ulm.append(min(heights))
            j += 1
        key.append((q, tuple(ulm)))
    return tuple(key)


def _check_coset(group: FGAbelianGroup, x: GroupElement, c: int) -> None:
    check_member(group, x)
    require_ints((c,), "c", least=0)


def orbit_invariant(group: FGAbelianGroup, x: GroupElement, c: int = 0) -> tuple:
    """Key of the orbit of x + c*T under the automorphisms of T.

    T is the torsion subgroup of group; only the torsion coordinates of x
    are read.  Some automorphism of T maps x into y + c*T iff the keys of
    x and y for the same c are equal; c = 0 asks for the exact orbit.

    Aut(T) is the product of the automorphism groups of the primary parts
    T_p, and c*T_p = p^k*T_p with k = v_p(c), so the question splits over
    the primes p dividing d_s.  Coordinate i of x has p-part
    r_i = x_i mod p^e_i in Z/p^e_i, where e_i = v_p(d_i).  The height of
    p^j*x in T_p is the least j + v_p(r_i) over the coordinates with
    j + v_p(r_i) < e_i, and p^j*x = 0 once there are none.  Two elements of
    a finite p-group lie in one automorphism orbit iff their Ulm sequences,
    the heights of x, p*x, p^2*x, ..., agree (Kaplansky, *Infinite Abelian
    Groups*; Schwachhoefer & Stroppel, J. Algebra 211 (1999)).  For a coset
    x + p^k*T_p, the coordinates with v_p(r_i) >= k can be cleared and the
    others keep their valuations, so dropping those coordinates gives the
    element of the coset whose heights are all maximal at once.
    Automorphisms preserve heights and map p^k*T_p onto itself, so two
    cosets lie in one orbit iff these maximal elements do.  The key is the
    tuple of (p, Ulm sequence) pairs.

    This is the prime-keyed reference that the tests use; no decision path
    calls it.  Library callers should use same_orbit, which answers the same
    question for two elements without factoring.  The key names the primes
    of d_s, which _prime_divisors finds by trial division, so its cost grows
    with the square root of the largest prime factor of d_s (Z/(2^89 - 1)
    would take about 2.5e13 divisions).

    >>> G = FGAbelianGroup((2, 4))
    >>> orbit_invariant(G, G.element([1, 0])), orbit_invariant(G, G.element([0, 2]))
    (((2, (0,)),), ((2, (1,)),))
    >>> orbit_invariant(G, G.element([1, 2]), 2) == orbit_invariant(G, G.element([1, 0]), 2)
    True
    """
    _check_coset(group, x, c)
    factors = group.invariant_factors
    return _ulm_key(group, x, c, _prime_divisors(factors[-1]) if factors else ())


def same_orbit(group: FGAbelianGroup, x: GroupElement, y: GroupElement, c: int = 0) -> bool:
    """Does some automorphism of T map x into y + c*T?  No factoring.

    The rule of orbit_invariant, read over a coprime base of d_i,
    gcd(x_i, d_i), gcd(y_i, d_i) and gcd(c, d_i) instead of over primes.
    The p-part of x_i in Z/p^e_i has valuation v_p(gcd(x_i, d_i)) when that
    is below e_i and is zero otherwise, and v_p(gcd(c, d_i)) = min(k, e_i),
    so every valuation the rule reads at a prime p dividing the base element
    q is s = v_p(q) times the one read at q.  A p-group orbit is fixed by
    the pairs (v, e) of the kept coordinates that no other pair dominates
    (Dutta & Prasad, J. Group Theory 14 (2011)), and p^v in Z/p^e maps into
    p^v' in Z/p^e' iff v <= v' and e - v >= e' - v': inequalities that
    scaling every pair by s preserves.  Hence x and y agree at every prime
    of q iff their keys at q agree, and the cost is polynomial in the bit
    length of d_s however large its primes are.

    >>> G = FGAbelianGroup((2**89 - 1,))
    >>> same_orbit(G, G.element([2]), G.element([3])), same_orbit(G, G.element([2]), G.element([0]))
    (True, False)
    """
    _check_coset(group, x, c)
    _check_coset(group, y, c)
    return _same_orbit(group, x, y, c)


def _same_orbit(group: FGAbelianGroup, x: GroupElement, y: GroupElement, c: int) -> bool:
    # same_orbit on arguments already checked
    factors = group.invariant_factors
    base = _coprime_base(
        g for d, xi, yi in zip(factors, x.torsion, y.torsion)
        for g in (d, gcd(xi, d), gcd(yi, d), gcd(c, d))
    )
    return _ulm_key(group, x, c, base) == _ulm_key(group, y, c, base)


def pointed_iso_exists(group: FGAbelianGroup, x: GroupElement, y: GroupElement) -> bool:
    """Does an automorphism of group = T + Z^t send x to y?

    Automorphisms of T + Z^t are block-triangular: an automorphism of T,
    a unimodular map on Z^t, and an arbitrary homomorphism from Z^t into T
    (nothing maps torsion into the free part).  Hence x maps to y iff the
    free parts have the same content c and some automorphism of T moves the
    torsion part of x into y_T + c*T.  same_orbit's rule decides the
    torsion side in closed form, with no search and no factoring, so its
    cost stays polynomial in the bit length of the invariant factors; each
    element is checked once, before content reads it.
    """
    check_member(group, x)
    check_member(group, y)
    c = content(x.free)
    return content(y.free) == c and _same_orbit(group, x, y, c)


# ---------------------------------------------------------------------------
# Exhaustive automorphism search
# ---------------------------------------------------------------------------


class _TorsionTable:
    """Dense index arithmetic for one finite torsion group.

    Elements are numbered 0..size-1 in lexicographic coordinate order, with
    0 the identity.  Addition and scalar rows, candidate lists and each span
    S + <g> met during searches, by (S, g), are built lazily and kept while
    the table is cached; answers are not, so each query searches again.

    One depth-first search, images, serves both oracles: it assigns
    generator images g_p in G[d_p] one position at a time, in a given
    order, and yields every assignment that is an automorphism phi with
    phi(x) == target.  Enumeration is the case x == 0; a position with
    x_p == 0 adds nothing to the image sum.  A partial assignment is kept
    only while its image sum can still reach the target through the
    positions left, and while its span S has |S| * (product of the
    unassigned factors) >= |G|.  At the last position these say that the
    sum is the target and |S| == |G|, so every leaf is a surjection.  No
    other span check is needed: since |S| <= prod d_p, passing forces S to
    be the direct sum of cyclic groups of order exactly d_p, and then
    D*S == D*G for the largest unassigned factor D (every unassigned factor
    divides D, so both have order prod d_p / gcd(d_p, D)).  Hence
    S + G[D] == G, and G[D] holds every candidate image left.
    """

    def __init__(self, factors: tuple[int, ...]):
        self.factors = factors
        self.rank = len(factors)
        self.elems: list[tuple[int, ...]] = list(
            itertools.product(*(range(d) for d in factors))
        )
        self.size = len(self.elems)
        self.index = {e: i for i, e in enumerate(self.elems)}
        self._add_rows: list[list[int] | None] = [None] * self.size
        self._scalar_rows: dict[int, list[int]] = {}
        self._torsion_cands: dict[int, list[int]] = {}
        self._spans: dict[tuple[frozenset[int], int], frozenset[int]] = {}

    def add_row(self, i: int) -> list[int]:
        row = self._add_rows[i]
        if row is None:
            a = self.elems[i]
            index = self.index
            factors = self.factors
            row = [
                index[tuple((p + q) % d for p, q, d in zip(a, b, factors))]
                for b in self.elems
            ]
            self._add_rows[i] = row
        return row

    def scalar_row(self, c: int) -> list[int]:
        row = self._scalar_rows.get(c)
        if row is None:
            row = [
                self.index[tuple((c * p) % d for p, d in zip(e, self.factors))]
                for e in self.elems
            ]
            self._scalar_rows[c] = row
        return row

    def torsion_candidates(self, bound: int) -> list[int]:
        """Indices of elements g with bound * g == 0, in index order."""
        cands = self._torsion_cands.get(bound)
        if cands is None:
            steps = [d // gcd(bound, d) for d in self.factors]
            cands = [
                i
                for i, e in enumerate(self.elems)
                if all(c % s == 0 for c, s in zip(e, steps))
            ]
            self._torsion_cands[bound] = cands
        return cands

    def extend_subgroup(self, sub: frozenset[int], g: int) -> frozenset[int]:
        """The span of sub and g, cached by (sub, g)."""
        key = (sub, g)
        out = self._spans.get(key)
        if out is None:
            out = sub
            if g not in sub:
                multiples = []
                x = g
                while x != 0:
                    multiples.append(x)
                    x = self.add_row(x)[g]
                out = set(sub)
                for kg in multiples:
                    row = self.add_row(kg)
                    out.update(row[h] for h in sub)
                out = frozenset(out)
            self._spans[key] = out
        return out

    def subgroup_sum(self, a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
        if len(a) == 1:
            return b
        if len(b) == 1:
            return a
        out = set()
        for p in a:
            row = self.add_row(p)
            out.update(row[q] for q in b)
        return frozenset(out)

    def exists_mapping(self, x: int, target: int) -> bool:
        """Is there an automorphism phi with phi(x) == target?"""
        if x == 0 or target == 0:
            return x == target  # every automorphism fixes 0 and is injective
        # positions with x_p != 0 first, where the reach prune acts; big
        # factors first: their candidate loops are the longest, and the
        # prunes cut them nearest the root
        xt, factors = self.elems[x], self.factors
        order = sorted(range(self.rank), key=lambda i: (not xt[i], -factors[i], i))
        return next(self.images(x, target, order), None) is not None

    def images(self, x: int, target: int, order: Sequence[int]) -> Iterator[tuple[int, ...]]:
        """Generator images, listed in order, of every automorphism phi with
        phi(x) == target; depth first, candidates in index order."""
        factors = self.factors
        size = self.size
        xt = self.elems[x]
        npos = len(order)
        cands = [self.torsion_candidates(factors[p]) for p in order]
        scal = [self.scalar_row(xt[p]) for p in order]
        rem = [1] * (npos + 1)
        for k in range(npos - 1, -1, -1):
            rem[k] = rem[k + 1] * factors[order[k]]

        # live[k]: the image sums from which positions >= k can still reach
        # the target, target + (subgroup spanned by their contributions)
        row_t = self.add_row(target)
        reach = frozenset((0,))
        live = [frozenset((target,))] * (npos + 1)
        for k in range(npos - 1, -1, -1):
            reach = self.subgroup_sum(reach, frozenset(scal[k][g] for g in cands[k]))
            live[k] = frozenset(row_t[s] for s in reach)
        if 0 not in live[0]:
            return

        add_row = self.add_row
        extend = self.extend_subgroup
        chosen: list[int] = []

        def rec(k: int, span: frozenset[int], psum: int) -> Iterator[tuple[int, ...]]:
            if k == npos:
                yield tuple(chosen)
                return
            scal_row = scal[k]
            allowed = live[k + 1]
            rem_next = rem[k + 1]
            row_p = add_row(psum)
            for g in cands[k]:
                p2 = row_p[scal_row[g]]
                if p2 not in allowed:
                    continue
                span2 = extend(span, g)
                if len(span2) * rem_next < size:
                    continue
                chosen.append(g)
                yield from rec(k + 1, span2, p2)
                chosen.pop()

        yield from rec(0, frozenset((0,)), 0)


# A table keeps its addition rows, up to size x size entries, for as long as
# it is cached; the oracles query one group at a time, so a few suffice.
_TABLE_CACHE_SIZE = 8


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _table_for(factors: tuple[int, ...]) -> _TorsionTable:
    return _TorsionTable(factors)


def _require_oracle_group(group: FGAbelianGroup, size_bound: int) -> _TorsionTable:
    require_ints((size_bound,), "size bound", least=1)
    if not group.is_finite:
        raise ValueError("exhaustive automorphism search needs a finite group")
    if group.torsion_size > size_bound:
        raise BoundExceeded(
            f"group of size {group.torsion_size} exceeds the oracle bound {size_bound}"
        )
    return _table_for(group.invariant_factors)


def enumerate_automorphisms(
    group: FGAbelianGroup, size_bound: int = DEFAULT_SIZE_BOUND
) -> Iterator[tuple[GroupElement, ...]]:
    """Yield every automorphism as the images of the canonical generators.

    Candidates are tuples (g1, ..., gs) with order(gi) dividing di; a tuple
    is kept iff the induced endomorphism is surjective.  Search order is
    deterministic (lexicographic in coordinates).
    """
    table = _require_oracle_group(group, size_bound)
    for images in table.images(0, 0, range(table.rank)):
        yield tuple(GroupElement(table.elems[g], ()) for g in images)


def apply_automorphism(
    group: FGAbelianGroup, images: Sequence[GroupElement], x: GroupElement
) -> GroupElement:
    """Apply the endomorphism sending generator i to images[i]."""
    if not group.is_finite:
        raise ValueError("generator images only describe maps of finite groups")
    if len(images) != group.torsion_rank:
        raise ValueError("one image per canonical generator is required")
    check_member(group, x)
    coords = [0] * group.torsion_rank
    for xi, img in zip(x.torsion, images):
        check_member(group, img)
        for j, c in enumerate(img.torsion):
            coords[j] += xi * c
    return group.element(torsion=coords)


def automorphism_maps_x_to_y(
    group: FGAbelianGroup,
    x: GroupElement,
    y: GroupElement,
    size_bound: int = DEFAULT_SIZE_BOUND,
) -> bool:
    """Exhaustively decide whether some automorphism sends x to y.

    >>> G = FGAbelianGroup((4,))
    >>> automorphism_maps_x_to_y(G, G.element([1]), G.element([3]))
    True
    >>> automorphism_maps_x_to_y(G, G.element([1]), G.element([2]))
    False
    """
    table = _require_oracle_group(group, size_bound)
    check_member(group, x)
    check_member(group, y)
    xi = table.index[x.torsion]
    yi = table.index[y.torsion]
    return table.exists_mapping(xi, yi)


# ---------------------------------------------------------------------------
# Bounded unimodular eigen-relation search
# ---------------------------------------------------------------------------


def eigen_search(
    t: int,
    entry_bound: int,
    x: Sequence[int],
    m: int,
    n: int,
) -> IntMatrix | None:
    """First unimodular integer t x t matrix sigma with n*sigma(x) == m*x.

    Scans matrices with entries in [-entry_bound, entry_bound] in
    lexicographic order and returns the first witness, or None when the
    whole range is exhausted.  For positive m != n no witness should exist;
    keep t small (the range has (2b+1)^(t*t) matrices).
    """
    require_ints((t,), "dimension t", least=1)
    require_ints((entry_bound,), "entry bound", least=1)
    x = tuple(x)
    require_ints(x, "x")
    if len(x) != t:
        raise ValueError("x must have length t")
    if not any(x):
        raise ValueError("x must be a nonzero vector")
    require_ints((m, n), "m and n", least=1)
    values = range(-entry_bound, entry_bound + 1)
    # row k of a witness satisfies n * (row . x) == m * x[k]; filtering each
    # row's range keeps the lexicographic order of the whole matrix
    candidates = [
        [
            row
            for row in itertools.product(values, repeat=t)
            if n * sum(a * b for a, b in zip(row, x)) == m * goal
        ]
        for goal in x
    ]
    for rows in itertools.product(*candidates):
        matrix = IntMatrix(rows)
        if unimodular_check(matrix):
            return matrix
    return None
