"""Matrix-type decisions and unit-preserving isomorphism comparison.

For purely infinite simple unital L(E), whether M_c(L(E)) and M_d(L(E)) are
isomorphic is decided by the order n of the unit class in K0: the rings are
isomorphic iff gcd(c, n) = gcd(d, n) when n is finite, and iff c = d when
the unit has infinite order (Invariant Matrix Number).  The decision
refuses to answer when the graph conditions fail, rather than guess outside
the regime where the classification holds.
"""

from __future__ import annotations

from enum import Enum
from itertools import repeat
from math import gcd

from .abelian import INFINITE, pointed_iso_exists
from .graphs import DirectedGraph, PisReport
from .intmat import Record, content, require_ints
from .ktheory import K0Data


class NotPurelyInfiniteSimple(Exception):
    """The matrix-type criteria only apply to purely infinite simple L(E)."""


def _require_pis(pis: PisReport) -> None:
    if not pis.purely_infinite_simple:
        raise NotPurelyInfiniteSimple(
            "graph conditions fail; the matrix-type criterion does not apply"
        )


class MatrixTypeVerdict(Record):
    """Which matrix sizes give isomorphic matrix rings over L(E)."""

    __slots__ = ("regime", "unit_order")
    regime: str  # "finite" or "infinite"
    unit_order: int | None  # n in the finite regime, None otherwise

    def class_label(self, c: int) -> int | None:
        """Isomorphism-class label of size c: gcd(c, n), or c itself."""
        if self.regime == "finite":
            return gcd(c, self.unit_order)
        return c


def matrix_type_verdict(k0: K0Data, pis: PisReport) -> MatrixTypeVerdict:
    """The verdict for a purely infinite simple graph, read off its unit order.

    >>> from leavitt import k0_of_graph, purely_infinite_simple, rose
    >>> matrix_type_verdict(k0_of_graph(rose(3)), purely_infinite_simple(rose(3)))
    MatrixTypeVerdict(regime='finite', unit_order=2)
    """
    _require_pis(pis)
    if k0.unit_order is INFINITE:
        return MatrixTypeVerdict("infinite", None)
    return MatrixTypeVerdict("finite", k0.unit_order)


def matrix_type_equal(k0: K0Data, pis: PisReport, c: int, d: int) -> bool:
    """Is M_c(L(E)) isomorphic to M_d(L(E))?"""
    require_ints((c, d), "matrix sizes", least=1)
    verdict = matrix_type_verdict(k0, pis)
    return verdict.class_label(c) == verdict.class_label(d)


def matrix_type_classes(k0: K0Data, pis: PisReport, max_n: int) -> list[list[int]]:
    """Partition of {1..max_n} into matrix-size isomorphism classes.

    Blocks are sorted by least element.
    """
    require_ints((max_n,), "max_n", least=1)
    verdict = matrix_type_verdict(k0, pis)
    blocks: dict[int, list[int]] = {}
    for c in range(1, max_n + 1):
        blocks.setdefault(verdict.class_label(c), []).append(c)
    return sorted(blocks.values(), key=lambda block: block[0])


def m_graph(graph: DirectedGraph, m: int) -> DirectedGraph:
    """Graph whose Leavitt path algebra is M_m of the original one.

    Attaches to every vertex v a head of m-1 fresh vertices
    w1 -> w2 -> ... -> w_{m-1} -> v, named v__h1, ..., v__h{m-1} (with "_"
    appended while a name is taken).  Each head vertex has a single edge, so
    its K0 class equals [v]; the unit class of the new graph is m times the
    old one while the group itself is unchanged.  k0_of_graph contracts the
    heads away (each head vertex is a link), so K0 of the new graph costs
    what K0 of the old one does.

    graph is a DirectedGraph (else TypeError, even for m = 1), so its
    vertices and records passed the check; each head name is made distinct
    from those vertices and the heads before it as it is chosen; and each
    head record is (fresh name, known vertex, 1) from a source that emits
    nothing else, so no (src, dst) pair repeats.  So the result is valid
    without DirectedGraph's check and costs its head records.

    >>> m_graph(DirectedGraph(["v"], [("v", "v", 2)]), 3).vertices
    ('v', 'v__h1', 'v__h2')
    """
    if not isinstance(graph, DirectedGraph):
        raise TypeError(f"m_graph takes a DirectedGraph, got {type(graph).__name__}")
    require_ints((m,), "m", least=1)
    if m == 1:
        return graph
    taken = set(graph.vertices)
    names = []
    for v in graph.vertices:
        for j in range(1, m):
            name = f"{v}__h{j}"
            while name in taken:
                name += "_"
            taken.add(name)
            names.append(name)
    targets = names[1:] + [""]
    targets[m - 2 :: m - 1] = graph.vertices  # the last head vertex of v points to v
    edges = graph.edges + tuple(zip(names, targets, repeat(1)))
    head = DirectedGraph.__new__(DirectedGraph)
    Record.__init__(head, graph.vertices + tuple(names), edges)
    return head


class IsoReason(Enum):
    GROUP_MISMATCH = "group_mismatch"
    UNIT_ORBIT_MISMATCH = "unit_orbit_mismatch"
    UNIT_ORBIT_MATCH = "unit_orbit_match"


class IsoVerdict(Record):
    """Outcome of the unit-preserving isomorphism comparison."""

    __slots__ = ("reason", "witness")
    reason: IsoReason
    witness: str | None

    def __init__(self, reason: IsoReason, witness: str | None = None):
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "witness", witness)

    @property
    def isomorphic(self) -> bool:
        return self.reason is IsoReason.UNIT_ORBIT_MATCH


def compare_pointed_k0(k_left: K0Data, k_right: K0Data) -> IsoVerdict:
    """Decide whether an isomorphism of K0 groups carries unit to unit."""
    if k_left.group != k_right.group:
        return IsoVerdict(IsoReason.GROUP_MISMATCH)
    if pointed_iso_exists(k_left.group, k_left.unit, k_right.unit):
        c = content(k_left.unit.free)
        if c:
            witness = (
                f"free parts share content {c}; some torsion automorphism "
                f"matches the units modulo {c}*T"
            )
        else:
            witness = "some automorphism carries one unit exactly to the other"
        return IsoVerdict(IsoReason.UNIT_ORBIT_MATCH, witness)
    return IsoVerdict(IsoReason.UNIT_ORBIT_MISMATCH)
