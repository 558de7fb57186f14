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
"""

from __future__ import annotations

from typing import Callable, Sequence

from .abelian import FGAbelianGroup, GroupElement, OrderValue, element_order
from .graphs import DirectedGraph
from .intmat import IntMatrix, Record, smith_coordinates


class K0Data(Record):
    """The pair (K0, [1]) plus the data needed to map vectors into K0."""

    __slots__ = ("group", "unit", "unit_order", "coordinate_map", "generators")
    group: FGAbelianGroup
    unit: GroupElement
    unit_order: OrderValue
    # rows of the Smith left transform U, one per cyclic summand, torsion rows
    # first and reduced modulo d_i, free rows exact (intmat.smith_coordinates)
    coordinate_map: tuple[tuple[int, ...], ...]
    generators: int  # length of the vectors that coordinate accepts

    def __init__(
        self,
        group: FGAbelianGroup,
        unit: GroupElement,
        unit_order: OrderValue,
        coordinate_map: tuple[tuple[int, ...], ...],
        generators: int,
    ):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "unit_order", unit_order)
        object.__setattr__(self, "coordinate_map", coordinate_map)
        object.__setattr__(self, "generators", generators)

    def coordinate(self, vector: Sequence[int]) -> GroupElement:
        """Class of an integer vector on the vertex basis."""
        if len(vector) != self.generators:
            raise ValueError("vector length does not match matrix width")
        return _class_of(self.group, self.coordinate_map, vector)


def _class_of(
    group: FGAbelianGroup, coordinate_map: Sequence[Sequence[int]], vector: Sequence[int]
) -> GroupElement:
    w = [sum(a * b for a, b in zip(row, vector)) for row in coordinate_map]
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


def k0_of_graph(graph: DirectedGraph) -> K0Data:
    """Compute (K0(L(E)), [1_{L(E)}]) and the order of the unit class.

    K0 is presented by the columns of I - A^T at the vertices that emit
    edges, in vertex order; a graph without edges gives Z^n with
    [1] = (1, ..., 1).  The rows are built from the edge list, which
    DirectedGraph has validated: the edge v -> w of multiplicity k puts -k
    in row w and in the column of v.

    >>> from leavitt.graphs import rose
    >>> k0 = k0_of_graph(rose(3))
    >>> k0.group, k0.unit, k0.unit_order
    (FGAbelianGroup(invariant_factors=(2,), free_rank=0), GroupElement(torsion=(1,), free=()), 2)
    """
    pos = {v: i for i, v in enumerate(graph.vertices)}
    n = len(pos)
    regular = sorted({pos[src] for src, _, _ in graph.edges})
    slot = {j: s for s, j in enumerate(regular)}
    rows = [[0] * len(regular) for _ in range(n)]
    for s, j in enumerate(regular):
        rows[j][s] = 1
    for src, dst, mult in graph.edges:
        rows[pos[dst]][slot[pos[src]]] -= mult
    group, coordinate_map = _presented_group(rows)
    unit = _class_of(group, coordinate_map, [1] * n)
    return K0Data(group, unit, element_order(group, unit), coordinate_map, n)
