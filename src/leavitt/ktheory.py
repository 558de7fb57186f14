"""K0 of the Leavitt path algebra of a finite graph, with its unit class.

For a finite graph E with adjacency matrix A (vertex basis), K0(L(E)) is
the cokernel of I - A^T restricted to the columns of the vertices that emit
edges: each such vertex v gives the relation [v] = sum of [r(e)] over the
edges e it emits, and a sink gives none (Ara, Moreno & Pardo, Algebr.
Represent. Theory 10 (2007)).  The class of
the identity is the image of the all-ones vector (the identity of L(E) is
the sum of the vertex idempotents).  The Smith normal form of that
presentation gives the invariant factors and, through one row of its left
transform per cyclic summand, the coordinate map from vertex-basis vectors
into the group.

Link vertices are substituted away first.  A link is a vertex whose only
edge record is (v, w, 1) with w != v, such as every head vertex of
matrixtype.m_graph.  Its column of I - A^T is e_v - e_w, so its relation
says [v] = [w]: using it to replace the generator v by w everywhere
removes one generator and one relation and leaves the cokernel unchanged.
Chains of links are followed to their end, so each vertex stands for its
representative: the first vertex down its chain that is not a link, or,
when the chain closes into a cycle of links, one vertex of that cycle,
whose own relation becomes 0 and leaves the free summand Z of that cycle.
The presentation keeps only the representatives, and a vertex's coordinate
is its representative's.

The cokernels of the last _COKERNEL_CACHE_SIZE contracted presentations
are kept (_contracted_cokernel), keyed by the presentation's sparse
records, which k0_of_graph lists in the pass that contracts the links; the
dense rows are built only for a presentation that is not kept.  The head
graphs matrixtype.m_graph(E, c) of one graph E all contract to E's
presentation, so they share one elimination.  Equal keys give equal rows,
and a kept answer passed the kill, onto and order checks of
smith_coordinates on exactly those rows; the group and the coordinate rows
are immutable, so callers share them safely.

When K0 is finite and cyclic, Z/d, its coordinate row is scaled by a unit
modulo d that carries the unit class to gcd(u, d), where u is its
coordinate (_cyclic_normal_form).  Two graphs then have the same unit
exactly when (K0, [1]) are isomorphic, whatever basis the elimination
chose.  Other groups keep the elimination's basis.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import mul
from typing import Callable, Sequence

from .abelian import FGAbelianGroup, GroupElement, OrderValue, element_order
from .graphs import DirectedGraph
from .intmat import IntMatrix, Record, _join, _prime_part, require_ints, smith_coordinates


class K0Data(Record):
    """The pair (K0, [1]) plus the data needed to map vectors into K0."""

    __slots__ = ("group", "unit", "unit_order", "coordinate_map", "generators")
    group: FGAbelianGroup
    unit: GroupElement
    unit_order: OrderValue
    # one row per cyclic summand, torsion rows first and reduced modulo d_i,
    # free rows exact: a row kills the presentation (modulo d_i) and the rows
    # map onto the group (intmat.smith_coordinates); for a graph, of its
    # presentation with links substituted away, with each vertex's entry
    # taken from its representative, and for K0 = Z/d scaled so that the
    # unit is gcd(u, d) (_cyclic_normal_form)
    coordinate_map: tuple[tuple[int, ...], ...]
    generators: int  # length of the vectors that coordinate accepts

    def coordinate(self, vector: Sequence[int]) -> GroupElement:
        """Class of an integer vector on the vertex basis."""
        if len(vector) != self.generators:
            raise ValueError("vector length does not match matrix width")
        require_ints(vector, "vector entries")
        return _class_of(self.group, self.coordinate_map, vector)


def _class_of(
    group: FGAbelianGroup, coordinate_map: Sequence[Sequence[int]], vector: Sequence[int]
) -> GroupElement:
    w = [sum(map(mul, row, vector)) for row in coordinate_map]
    k = group.torsion_rank
    return group.element(torsion=w[:k], free=w[k:])


def _presented_group(
    rows: Sequence[Sequence[int]],
) -> tuple[FGAbelianGroup, tuple[tuple[int, ...], ...]]:
    """Cokernel Z^m / im(A) of an integer matrix with m rows, and its coordinate rows.

    Rows past the diagonal are free summands, so the free rank is the
    number of coordinate rows that are not torsion.
    """
    diag, coordinate_map = smith_coordinates(rows)
    torsion = tuple(d for d in diag if d > 1)
    return FGAbelianGroup(torsion, len(coordinate_map) - len(torsion)), coordinate_map


def cokernel(matrix: IntMatrix) -> tuple[FGAbelianGroup, Callable[[Sequence[int]], GroupElement]]:
    """Cokernel Z^m / im(A) of a square integer matrix.

    Returns the group in invariant-factor form and the coordinate function
    sending a vector to its class.  Diagonal entries equal to 1 contribute
    nothing and their coordinates are dropped.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("cokernel presentation requires a square matrix")
    group, coordinate_map = _presented_group(list(matrix))
    data = K0Data(group, group.identity(), 1, coordinate_map, matrix.rows)
    return group, data.coordinate


# Presentations whose cokernel is kept.  The head graphs m_graph(E, c) of
# one graph E share E's presentation, so the few last ones suffice.
_COKERNEL_CACHE_SIZE = 8


@lru_cache(maxsize=_COKERNEL_CACHE_SIZE)
def _contracted_cokernel(
    key: tuple[int, ...],
) -> tuple[FGAbelianGroup, tuple[tuple[int, ...], ...]]:
    """_presented_group of the presentation that key spells out: its number
    of rows, its number of columns, the row of each column's 1, and then
    a (row, column, multiplicity) record for each edge that subtracts its
    multiplicity there (k0_of_graph).  Equal keys build equal rows, and
    the answer passed smith_coordinates' checks on those rows."""
    kept, regular = key[0], key[1]
    rows = [[0] * regular for _ in range(kept)]
    for j, i in enumerate(key[2 : 2 + regular]):
        rows[i][j] = 1
    records = iter(key[2 + regular :])
    for i, j, mult in zip(records, records, records):
        rows[i][j] -= mult
    return _presented_group(rows)


def _cyclic_normal_form(d: int, row: tuple[int, ...]) -> tuple[tuple[int, ...]]:
    """The coordinate row of K0 = Z/d, scaled by the unit lam modulo d that
    carries the unit's coordinate u to gcd(u, d), so that the unit no
    longer depends on the basis the elimination chose.

    With g = gcd(u, d), lam is (u/g)^-1 modulo d/g and 1 modulo the part of
    d prime to d/g (_prime_part), joined by CRT (_join).  A prime of d
    divides d/g, where lam is invertible, or only the other part, where
    lam is 1, so lam is a unit modulo d, and lam * u = g modulo d.
    """
    u = sum(row) % d
    g = gcd(u, d)
    m = d // g
    other = d // _prime_part(d, m)
    (lam,) = _join([pow(u // g, -1, m)], m, [1], other)
    return (tuple(lam * x % d for x in row),)


def _representatives(link: Sequence[int]) -> list[int]:
    """The representative of each vertex index, given what each emits: the
    target of its one link record, or a negative number for a vertex that
    is not a link.  A link's representative is the end of its chain of
    links, or, for a chain that closes into a cycle of links, the vertex at
    which the first walk into that cycle re-entered it.  Each chain is
    walked once, iteratively, so a long chain cannot exhaust the stack."""
    rep = [v if t < 0 else -1 for v, t in enumerate(link)]  # -1: a link not yet resolved
    for v in range(len(link)):
        if rep[v] != -1:
            continue
        walk = []
        w = v
        while rep[w] == -1:
            rep[w] = -2  # on the current walk
            walk.append(w)
            w = link[w]
        r = w if rep[w] == -2 else rep[w]  # the walk closed a cycle, or met a resolved vertex
        for u in walk:
            rep[u] = r
    return rep


def k0_of_graph(graph: DirectedGraph) -> K0Data:
    """Compute (K0(L(E)), [1_{L(E)}]) and the order of the unit class.

    K0 is presented by the columns of I - A^T at the vertices that emit
    edges; a graph without edges gives Z^n with [1] = (1, ..., 1).  Link
    vertices (only record (v, w, 1), w != v) are substituted away first:
    column v of I - A^T is e_v - e_w, so the relation identifies the
    generators v and w, and replacing v by w in every other relation
    removes one generator and one relation without changing the cokernel.
    The rows are the kept vertices (_representatives) in vertex order, the
    columns the kept ones that emit edges, and an edge u -> x of
    multiplicity k from a kept u puts -k in the row of x's representative;
    a graph without links gets I - A^T itself.  The presentation is spelled
    out as records from the edge list, which DirectedGraph has validated,
    and its cokernel is looked up in the memo (_contracted_cokernel) before
    any dense row is built.  Each vertex's coordinate column is its
    representative's.  A finite cyclic K0 = Z/d gets the unit
    gcd(u, d) (_cyclic_normal_form).

    >>> from leavitt.graphs import rose
    >>> k0 = k0_of_graph(rose(3))
    >>> k0.group, k0.unit, k0.unit_order
    (FGAbelianGroup(invariant_factors=(2,), free_rank=0), GroupElement(torsion=(1,), free=()), 2)
    """
    n = len(graph.vertices)
    index_of = dict(zip(graph.vertices, range(n)))
    edges = [(index_of[s], index_of[t], mult) for s, t, mult in graph.edges]
    link = [-1] * n  # -1: a sink, -2: emits other than one link record, else its target
    for s, t, mult in edges:
        link[s] = t if link[s] == -1 and mult == 1 and s != t else -2
    rep = _representatives(link)
    kept = [v for v in range(n) if rep[v] == v]
    row = dict(zip(kept, range(len(kept))))
    regular = [v for v in kept if link[v] != -1]
    slot = dict(zip(regular, range(len(regular))))
    key = [len(kept), len(regular), *map(row.__getitem__, regular)]
    for s, t, mult in edges:
        if rep[s] == s:
            key += (row[rep[t]], slot[s], mult)
    group, coordinate_map = _contracted_cokernel(tuple(key))
    if len(kept) < n:  # else each vertex is its own representative, at its own row
        column = list(map(row.__getitem__, rep))
        coordinate_map = tuple(tuple(map(c.__getitem__, column)) for c in coordinate_map)
    if not group.free_rank and len(group.invariant_factors) == 1:
        coordinate_map = _cyclic_normal_form(group.invariant_factors[0], coordinate_map[0])
    unit = _class_of(group, coordinate_map, [1] * n)
    return K0Data(group, unit, element_order(group, unit), coordinate_map, n)
