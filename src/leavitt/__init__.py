"""Classification invariants of unital purely infinite simple Leavitt path algebras.

A finite directed graph E determines the Leavitt path algebra L(E).  When
L(E) is unital and purely infinite simple, the pair (K0(L(E)), [1]) decides
which matrix rings over L(E) are isomorphic.  This package computes that
pair exactly (integer Smith normal form, no floating point), answers the
matrix-type question, and ships exhaustive brute-force oracles that
cross-check every criterion at small scale.
"""

from .graphs import (
    DirectedGraph,
    GraphFormatError,
    PisReport,
    adjacency_matrix,
    build_graph,
    every_cycle_has_exit,
    every_vertex_connects_to_cycle,
    parse_graph,
    purely_infinite_simple,
    rose,
    trivial_hereditary_saturated,
)
from .intmat import (
    IntMatrix,
    SmithDecomposition,
    content,
    determinant,
    smith_normal_form,
    unimodular_check,
)
from .abelian import (
    DEFAULT_SIZE_BOUND,
    BoundExceeded,
    FGAbelianGroup,
    GroupElement,
    INFINITE,
    OrderValue,
    add,
    apply_automorphism,
    automorphism_maps_x_to_y,
    check_member,
    element_order,
    enumerate_automorphisms,
    eigen_search,
    gcd_criterion,
    negate,
    orbit_invariant,
    same_orbit,
    scale,
)
from .ktheory import K0Data, cokernel, k0_of_graph
from .matrixtype import (
    IsoReason,
    IsoVerdict,
    MatrixTypeVerdict,
    NotPurelyInfiniteSimple,
    compare_pointed_k0,
    m_graph,
    matrix_type_classes,
    matrix_type_equal,
    matrix_type_verdict,
    pointed_iso_exists,
)

__version__ = "0.1.0"
