"""K0 of the Leavitt path algebra of a finite graph, with its unit class.

For a finite graph E with adjacency matrix A (vertex basis), K0(L(E)) is
presented as the cokernel of I - A^T acting on Z^{E0}, and the class of the
identity is the image of the all-ones vector (the identity of L(E) is the
sum of the vertex idempotents).  The Smith normal form of I - A^T gives the
invariant factors and, through its left transform, the coordinate map from
vertex-basis vectors into the group.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .abelian import FGAbelianGroup, GroupElement, OrderValue, element_order
from .graphs import DirectedGraph, adjacency_matrix
from .intmat import IntMatrix, smith_left


@dataclass(frozen=True)
class K0Data:
    """The pair (K0, [1]) plus the data needed to map vectors into K0."""

    group: FGAbelianGroup
    unit: GroupElement
    unit_order: OrderValue
    # left transform U of the presentation's Smith normal form, certified by
    # U @ M == D @ W without building V (intmat.smith_left)
    coordinate_map: IntMatrix
    torsion_positions: tuple[int, ...]
    free_positions: tuple[int, ...]

    def coordinate(self, vector: Sequence[int]) -> GroupElement:
        """Class of an integer vector on the vertex basis."""
        w = self.coordinate_map.apply(vector)
        return self.group.element(
            torsion=(w[i] for i in self.torsion_positions),
            free=(w[i] for i in self.free_positions),
        )


def _pointed_cokernel(matrix: IntMatrix) -> K0Data:
    """Cokernel of a square integer matrix, pointed at its zero element."""
    if matrix.rows != matrix.cols:
        raise ValueError("cokernel presentation requires a square matrix")
    left, diag = smith_left(matrix)
    torsion_positions = tuple(i for i, d in enumerate(diag) if d > 1)
    free_positions = tuple(i for i, d in enumerate(diag) if d == 0)
    group = FGAbelianGroup(
        tuple(diag[i] for i in torsion_positions), len(free_positions)
    )
    return K0Data(
        group=group,
        unit=group.identity(),
        unit_order=1,
        coordinate_map=left,
        torsion_positions=torsion_positions,
        free_positions=free_positions,
    )


def cokernel(matrix: IntMatrix) -> tuple[FGAbelianGroup, Callable[[Sequence[int]], GroupElement]]:
    """Cokernel Z^m / im(A) of a square integer matrix.

    Returns the group in invariant-factor form and the coordinate function
    sending a vector to its class.  Diagonal entries equal to 1 contribute
    nothing and their coordinates are dropped.
    """
    data = _pointed_cokernel(matrix)
    return data.group, data.coordinate


def k0_of_graph(graph: DirectedGraph) -> K0Data:
    """Compute (K0(L(E)), [1_{L(E)}]) and the order of the unit class."""
    a = adjacency_matrix(graph)
    n = a.rows
    presentation = IntMatrix(
        [[int(i == j) - a[j][i] for j in range(n)] for i in range(n)]
    )
    data = _pointed_cokernel(presentation)
    unit = data.coordinate([1] * n)
    return replace(data, unit=unit, unit_order=element_order(data.group, unit))
