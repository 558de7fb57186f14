"""Metamorphic checks of the whole pipeline on seeded random graphs.

Each graph move below has a known effect on (K0, [1]):

* out-splitting a vertex gives an isomorphic Leavitt path algebra, so the
  pointed group is kept;
* in-splitting a vertex gives a Morita equivalent one, so the group is kept
  (Bates & Pask, "Flow equivalence of graph algebras", ETDS 24 (2004);
  Abrams, Louly, Pardo & Smith, "Flow invariants in the classification of
  Leavitt path algebras", J. Algebra 333 (2011));
* m_graph(E, m) realizes M_m(L(E)): the group is kept and the unit becomes
  m * [1], of order n / gcd(m, n).  Its head vertices are links (one edge,
  of multiplicity 1, not a loop), which k0_of_graph substitutes away, so
  each gets its base vertex's coordinates.

The splittings act on single edges, so an edge of multiplicity k counts as
k edges that may land in different classes.  They are checked on graphs
with sinks too, whose K0 is presented by the non-sink columns only; there
in-splitting is applied to non-sinks alone, since splitting a sink adds a
generator and no relation.
"""

import random
from math import gcd

from leavitt.abelian import INFINITE, scale
from leavitt.graphs import DirectedGraph, build_graph, purely_infinite_simple
from leavitt.ktheory import k0_of_graph
from leavitt.matrixtype import IsoReason, compare_pointed_k0, m_graph

from conftest import scc_graph, unit_scalar


def _single_edges(graph: DirectedGraph) -> list[tuple[str, str]]:
    return [(s, d) for s, d, mult in graph.edges for _ in range(mult)]


def _two_classes(indices: list[int], rng: random.Random) -> dict[int, int]:
    """A random split of at least two indices into two nonempty classes."""
    shuffled = rng.sample(indices, len(indices))
    cut = rng.randrange(1, len(indices))
    return {i: int(k >= cut) for k, i in enumerate(shuffled)}


def _split_names(graph: DirectedGraph, v: str) -> list[str]:
    return [w for u in graph.vertices for w in ((f"{u}/0", f"{u}/1") if u == v else (u,))]


def out_split(graph: DirectedGraph, v: str, rng: random.Random) -> DirectedGraph:
    """v becomes v/0 and v/1, which divide its out-edges; every edge into v
    is doubled, one copy into each."""
    edges = _single_edges(graph)
    part = _two_classes([i for i, (s, _) in enumerate(edges) if s == v], rng)
    split = []
    for i, (s, d) in enumerate(edges):
        source = f"{v}/{part[i]}" if s == v else s
        split += [(source, t, 1) for t in ((f"{v}/0", f"{v}/1") if d == v else (d,))]
    return build_graph(_split_names(graph, v), split)


def in_split(graph: DirectedGraph, v: str, rng: random.Random) -> DirectedGraph:
    """v becomes v/0 and v/1, which divide its in-edges; every edge out of v
    is doubled, one copy out of each."""
    edges = _single_edges(graph)
    part = _two_classes([i for i, (_, d) in enumerate(edges) if d == v], rng)
    split = []
    for i, (s, d) in enumerate(edges):
        target = f"{v}/{part[i]}" if d == v else d
        split += [(source, target, 1) for source in ((f"{v}/0", f"{v}/1") if s == v else (s,))]
    return build_graph(_split_names(graph, v), split)


def _graphs(seed: int, count: int, sinks: int = 0):
    """(rng, graph) pairs: strongly connected graphs on 2 to 7 vertices.
    With sinks > 0, each graph also gets 1 to sinks sink vertices, each fed
    by one or two edges from the strongly connected core."""
    rng = random.Random(seed)
    for _ in range(count):
        core = scc_graph(rng.randint(2, 7), rng.randrange(2**32))
        if not sinks:
            yield rng, core
            continue
        names = tuple(f"s{k}" for k in range(rng.randint(1, sinks)))
        feeds = tuple(
            (rng.choice(core.vertices), s, rng.randint(1, 3))
            for s in names
            for _ in range(rng.randint(1, 2))
        )
        yield rng, build_graph(core.vertices + names, core.edges + feeds)


def _links(graph: DirectedGraph) -> set[str]:
    """Vertices whose only record is (v, w, 1) with w != v."""
    records = [s for s, _, _ in graph.edges]
    return {s for s, d, mult in graph.edges if mult == 1 and s != d and records.count(s) == 1}


def _out_splittings_keep_the_pointed_group(graphs) -> int:
    """Out-split each graph at a vertex emitting at least two edges; returns
    how many of the groups have torsion."""
    torsion = 0
    for rng, graph in graphs:
        edges = _single_edges(graph)
        v = rng.choice([u for u in graph.vertices if sum(s == u for s, _ in edges) >= 2])
        a, b = k0_of_graph(graph), k0_of_graph(out_split(graph, v, rng))
        assert compare_pointed_k0(a, b).reason is IsoReason.UNIT_ORBIT_MATCH, (graph, v)
        torsion += a.group.torsion_size > 1
    return torsion


def _in_splittings_keep_the_group(graphs) -> None:
    """In-split each graph at a non-sink receiving at least two edges."""
    for rng, graph in graphs:
        edges = _single_edges(graph)
        emitters = {s for s, _ in edges}
        v = rng.choice(
            [u for u in graph.vertices if u in emitters and sum(d == u for _, d in edges) >= 2]
        )
        split = in_split(graph, v, rng)
        assert k0_of_graph(split).group == k0_of_graph(graph).group, (graph, v)


class TestSplittings:
    def test_out_splitting_keeps_the_pointed_group(self):
        # most cases have a unit to place, not the trivial group
        assert _out_splittings_keep_the_pointed_group(_graphs(101, 80)) >= 60

    def test_in_splitting_keeps_the_group(self):
        _in_splittings_keep_the_group(_graphs(103, 80))

    def test_out_splitting_with_sinks_keeps_the_pointed_group(self):
        # every group has a free part from the sinks; 44 of 80 also have torsion
        assert _out_splittings_keep_the_pointed_group(_graphs(113, 80, sinks=2)) >= 30

    def test_in_splitting_with_sinks_keeps_the_group(self):
        _in_splittings_keep_the_group(_graphs(127, 80, sinks=2))

    def test_out_splitting_into_links_keeps_the_pointed_group(self):
        # a class of one edge to another vertex makes that half a link
        linked = 0
        for rng, graph in _graphs(139, 60, sinks=1):
            assert not _links(graph)
            edges = _single_edges(graph)
            v = rng.choice([u for u in graph.vertices if sum(s == u for s, _ in edges) >= 2])
            for _ in range(8):
                split = out_split(graph, v, rng)
                if _links(split):
                    break
            a, b = k0_of_graph(graph), k0_of_graph(split)
            assert compare_pointed_k0(a, b).reason is IsoReason.UNIT_ORBIT_MATCH, (graph, v)
            linked += bool(_links(split))
        assert linked >= 30

    def test_splittings_move_the_graph(self):
        rng = random.Random(107)
        graph = scc_graph(3, 5)
        for split in (out_split(graph, "v0", rng), in_split(graph, "v0", rng)):
            assert len(split.vertices) == 4
            assert len(_single_edges(split)) > len(_single_edges(graph))


class TestMGraphOnRandomGraphs:
    def test_scales_the_unit(self):
        finite = 0
        for rng, graph in _graphs(109, 60):
            assert purely_infinite_simple(graph).purely_infinite_simple
            m = rng.randint(2, 6)
            base, head = k0_of_graph(graph), k0_of_graph(m_graph(graph, m))
            assert head.group == base.group
            n = base.unit_order
            if n is INFINITE:
                assert head.unit_order is INFINITE
            else:
                assert head.unit_order == n // gcd(m, n), (graph, m)
                finite += gcd(m, n) > 1
        assert finite >= 10  # cases where the scaling changes the order

    def test_heads_contract_to_the_base(self):
        # the head graph's presentation, heads substituted away, is the base
        # graph's: the same group and coordinate rows on the base vertices,
        # each head vertex with its base vertex's column, and the unit is
        # c * [1_E] as an element, not just up to an automorphism; for a
        # finite cyclic K0, whose unit k0_of_graph puts in normal form, the
        # rows agree up to the one unit of Z/d that carries c * [1_E] to it
        cases = 0
        for graphs in (_graphs(131, 25), _graphs(137, 25, sinks=2)):
            for _, graph in graphs:
                base = k0_of_graph(graph)
                n = len(graph.vertices)
                base_columns = [tuple(row[v] for row in base.coordinate_map) for v in range(n)]
                for c in range(1, 7):
                    head = k0_of_graph(m_graph(graph, c))
                    assert head.group == base.group
                    columns = [tuple(row[v] for row in head.coordinate_map) for v in range(n * c)]
                    if not base.group.free_rank and len(base.group.invariant_factors) == 1:
                        # each unit of Z/d is in normal form, so the rows differ
                        # by the unit mu modulo d that carries c * [1_E] there
                        (d,) = base.group.invariant_factors
                        mu = unit_scalar(base.coordinate_map[0], head.coordinate_map[0][:n], d)
                        assert mu is not None, (graph, c)
                        assert head.unit == scale(base.group, mu * c, base.unit), (graph, c)
                        assert head.unit.torsion == (gcd(c * base.unit.torsion[0], d) % d,)
                    else:
                        assert head.unit == scale(base.group, c, base.unit), (graph, c)
                        assert columns[:n] == base_columns
                    for v in range(n):
                        heads = columns[n + v * (c - 1) : n + (v + 1) * (c - 1)]
                        assert heads == [columns[v]] * (c - 1)
                    cases += base.group.torsion_size > 1 or base.group.free_rank > 0
        assert cases >= 250  # most cases have a group to place the unit in
