"""K0 of the Leavitt path algebra of a finite graph, with its unit class.

For a finite graph E with adjacency matrix A (vertex basis), K0(L(E)) is
presented as the cokernel of I - A^T acting on Z^{E0}, and the class of the
identity is the image of the all-ones vector (the identity of L(E) is the
sum of the vertex idempotents).  The Smith normal form of I - A^T gives the
invariant factors and, through one row of its left transform per cyclic
summand, the coordinate map from vertex-basis vectors into the group.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .abelian import FGAbelianGroup, GroupElement, OrderValue, element_order
from .graphs import DirectedGraph, adjacency_matrix
from .intmat import IntMatrix, smith_coordinates


@dataclass(frozen=True)
class K0Data:
    """The pair (K0, [1]) plus the data needed to map vectors into K0."""

    group: FGAbelianGroup
    unit: GroupElement
    unit_order: OrderValue
    # rows of the Smith left transform U, one per cyclic summand, torsion rows
    # first and reduced modulo d_i, free rows exact (intmat.smith_coordinates)
    coordinate_map: tuple[tuple[int, ...], ...]
    generators: int  # length of the vectors that coordinate accepts

    def coordinate(self, vector: Sequence[int]) -> GroupElement:
        """Class of an integer vector on the vertex basis."""
        if len(vector) != self.generators:
            raise ValueError("vector length does not match matrix width")
        w = [sum(a * b for a, b in zip(row, vector)) for row in self.coordinate_map]
        k = self.group.torsion_rank
        return self.group.element(torsion=w[:k], free=w[k:])


def _pointed_cokernel(rows: Sequence[Sequence[int]]) -> K0Data:
    """Cokernel of a square integer matrix, given as rows, pointed at zero."""
    diag, coordinate_map = smith_coordinates(rows)
    group = FGAbelianGroup(tuple(d for d in diag if d > 1), diag.count(0))
    return K0Data(group, group.identity(), 1, coordinate_map, len(rows))


def cokernel(matrix: IntMatrix) -> tuple[FGAbelianGroup, Callable[[Sequence[int]], GroupElement]]:
    """Cokernel Z^m / im(A) of a square integer matrix.

    Returns the group in invariant-factor form and the coordinate function
    sending a vector to its class.  Diagonal entries equal to 1 contribute
    nothing and their coordinates are dropped.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("cokernel presentation requires a square matrix")
    data = _pointed_cokernel(list(matrix))
    return data.group, data.coordinate


def k0_of_graph(graph: DirectedGraph) -> K0Data:
    """Compute (K0(L(E)), [1_{L(E)}]) and the order of the unit class."""
    a = adjacency_matrix(graph)
    n = a.rows
    rows = [[int(i == j) - a[j][i] for j in range(n)] for i in range(n)]
    data = _pointed_cokernel(rows)  # plain rows: only the adjacency matrix is validated
    unit = data.coordinate([1] * n)
    return replace(data, unit=unit, unit_order=element_order(data.group, unit))
