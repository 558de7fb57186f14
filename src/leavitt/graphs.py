"""Finite directed multigraphs and the purely-infinite-simple conditions.

Parallel edges are stored as a single record with a multiplicity, so the
data model is canonical: at most one (source, target) record per ordered
pair.  Vertex order in the file is the basis order for every matrix derived
from the graph, which keeps all downstream output reproducible.  Records are
checked one at a time, in order, by one loop shared by DirectedGraph and
build_graph, which names the first bad name or record and merges repeated
pairs for build_graph.

The purely-infinite-simple conditions of Abrams and Aranda Pino, each read
off the strongly connected components as its docstring says, come from one
iterative Tarjan pass over vertex indices and one pass over the edges, in
time linear in vertices plus edges.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

from .intmat import IntMatrix, Record, require_ints


class GraphFormatError(ValueError):
    """Raised for malformed graph documents."""


def _iterable(collection, what: str) -> Iterator:
    """An iterator over collection, or GraphFormatError naming what when it
    is not iterable; errors raised while it is iterated pass through."""
    try:
        return iter(collection)
    except TypeError:
        raise GraphFormatError(f"{what} must be iterable, not {type(collection).__name__}") from None


def _checked(vertices: Iterable[str], edges: Iterable, merge: bool) -> tuple[tuple, tuple]:
    """The vertex names and records as tuples, checked as DirectedGraph says,
    and with merge, repeated pairs summed into their first appearance.  The
    names and then the records are checked one at a time, in order, so the
    first bad one is named."""
    if isinstance(vertices, str):  # would split into one-letter names
        raise GraphFormatError(f"vertex list must hold names, not be the string {vertices!r}")
    if isinstance(vertices, (set, frozenset)):  # the basis order would follow the hash seed
        raise GraphFormatError(f"vertex list must be ordered, not a {type(vertices).__name__}")
    vertices = tuple(_iterable(vertices, "vertex list"))
    if not vertices:
        raise GraphFormatError("vertex list must be nonempty")
    names = set()
    for v in vertices:
        if type(v) is not str or not v:
            raise GraphFormatError("vertex names must be nonempty strings")
        if v in names:
            raise GraphFormatError(f"duplicate vertex name {v!r}")
        names.add(v)
    pairs: dict[tuple[str, str], tuple] = {}  # each pair's record, in order of first appearance
    for record in _iterable(edges, "edge list"):
        try:
            src, dst, mult = record
        except (TypeError, ValueError):  # not three fields
            src = dst = mult = None
        if type(src) is not str or type(dst) is not str or src not in names or dst not in names:
            raise GraphFormatError(f"edge {record!r} is not (src, dst, mult) of known vertices")
        if type(mult) is not int or mult < 1:
            raise GraphFormatError(f"edge multiplicity must be a positive integer: {record!r}")
        checked = src, dst, mult
        if pairs.setdefault((src, dst), checked) is not checked:  # a repeated pair
            if not merge:
                raise GraphFormatError(f"duplicate edge record for ({src!r}, {dst!r})")
            pairs[src, dst] = (src, dst, pairs[src, dst][2] + mult)
    return vertices, tuple(pairs.values())


class DirectedGraph(Record):
    """Vertex names in basis order and one (src, dst, mult) record per pair.

    Names are distinct nonempty str, in an ordered collection that is not
    a str (which would split into letters) or a set (whose order follows
    the hash seed); each record unpacks to str endpoints among them and an
    int multiplicity (no bool or other subclass) of at least 1.  A repeated
    pair is refused (build_graph merges it), and a fault raises
    GraphFormatError naming the first bad name or record."""

    __slots__ = ("vertices", "edges")
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, int], ...]

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str, int]]):
        Record.__init__(self, *_checked(vertices, edges, merge=False))

    def out_edges(self) -> dict[str, list[tuple[str, int]]]:
        out: dict[str, list[tuple[str, int]]] = {v: [] for v in self.vertices}
        for src, dst, mult in self.edges:
            out[src].append((dst, mult))
        return out

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [[src, dst, mult] for src, dst, mult in self.edges],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


class PisReport(Record):
    __slots__ = (
        "every_cycle_has_exit",
        "trivial_hereditary_saturated",
        "every_vertex_connects_to_cycle",
    )
    every_cycle_has_exit: bool
    trivial_hereditary_saturated: bool
    every_vertex_connects_to_cycle: bool

    @property
    def purely_infinite_simple(self) -> bool:
        return (
            self.every_cycle_has_exit
            and self.trivial_hereditary_saturated
            and self.every_vertex_connects_to_cycle
        )


def build_graph(
    vertices: Iterable[str], edges: Iterable[tuple[str, str, int]]
) -> DirectedGraph:
    """Build a graph, merging duplicate (source, target) records by summing.

    The names and records are checked as DirectedGraph checks them, with
    the same messages, and each record before the merge, so a sum cannot
    hide a bad one.  Merged pairs keep the place of their first appearance.
    """
    graph = DirectedGraph.__new__(DirectedGraph)
    Record.__init__(graph, *_checked(vertices, edges, merge=True))
    return graph


def parse_graph(text: str) -> DirectedGraph:
    """Parse the JSON graph document {"vertices": [...], "edges": [...]}.

    Edge records are [src, dst] or [src, dst, multiplicity]; a missing
    multiplicity means 1.  Duplicate records are merged by summing, and the
    first bad name or record in file order is named.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, or an int past the digit limit
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("graph document must be a JSON object")
    unknown = set(doc) - {"vertices", "edges"}
    if unknown:
        raise GraphFormatError(f"unknown keys in graph document: {sorted(unknown)}")
    vertices = doc.get("vertices")
    raw_edges = doc.get("edges", [])
    if not isinstance(vertices, list):
        raise GraphFormatError('"vertices" must be a list of names')
    if not isinstance(raw_edges, list):
        raise GraphFormatError('"edges" must be a list of edge records')

    def records():  # shaped one at a time, as the check meets them
        for record in raw_edges:
            if not isinstance(record, list) or len(record) not in (2, 3):
                raise GraphFormatError(f"edge record must be [src, dst] or [src, dst, mult]: {record!r}")
            yield (*record, 1) if len(record) == 2 else tuple(record)

    return build_graph(vertices, records())


def rose(petals: int) -> DirectedGraph:
    """One vertex with the given number of loops.

    >>> rose(2)
    DirectedGraph(vertices=('v',), edges=(('v', 'v', 2),))
    """
    require_ints((petals,), "petal count", least=0)
    edges = (("v", "v", petals),) if petals else ()
    return DirectedGraph(("v",), edges)


def adjacency_matrix(graph: DirectedGraph) -> IntMatrix:
    """Entry (i, j) counts the edges from vertex i to vertex j."""
    pos = {v: i for i, v in enumerate(graph.vertices)}
    n = len(graph.vertices)
    rows = [[0] * n for _ in range(n)]
    for src, dst, mult in graph.edges:
        rows[pos[src]][pos[dst]] += mult
    return IntMatrix(rows)


def _components(out: list[list[int]]) -> tuple[list[int], int]:
    """The strongly connected component of each vertex index, numbered in
    Tarjan's emission order, and the number of components.  Iterative, to
    survive long chains, from a virtual root n with an edge to every vertex:
    nothing reaches n, so it is emitted last, alone, and dropped."""
    n = len(out)
    index = [-1] * n + [0]
    lowlink = [0] * (n + 1)
    component = [-1] * (n + 1)
    stack = [n]
    work = [(n, iter(range(n)))]
    visited = 1
    count = 0
    while work:
        v, it = work[-1]
        for w in it:
            if index[w] < 0:
                index[w] = lowlink[w] = visited
                visited += 1
                stack.append(w)
                work.append((w, iter(out[w])))
                break
            if component[w] < 0 and index[w] < lowlink[v]:  # w still on the stack
                lowlink[v] = index[w]
        else:
            work.pop()
            if work and lowlink[v] < lowlink[work[-1][0]]:
                lowlink[work[-1][0]] = lowlink[v]
            if lowlink[v] == index[v]:
                w = -1
                while w != v:
                    w = stack.pop()
                    component[w] = count
                count += 1
    return component[:n], count - 1


def every_cycle_has_exit(graph: DirectedGraph) -> bool:
    """Condition (L): no cycle consists solely of vertices with one out-edge.

    A violating cycle is exactly a cyclic strongly connected component (one
    that an edge stays inside) in which every vertex has out-degree 1.
    """
    return purely_infinite_simple(graph).every_cycle_has_exit


def trivial_hereditary_saturated(graph: DirectedGraph) -> bool:
    """True iff the only hereditary saturated vertex sets are trivial.

    That holds iff exactly one component is terminal (no edge leaves it; a
    sink is one) and every other component is acyclic.  Every nonempty
    hereditary set contains a whole terminal component.  Saturating the one
    terminal component adds the acyclic components in emission order, each
    once all its targets are in; a second terminal component, or a cyclic
    one, keeps an edge to a vertex not yet in and never gets a first vertex.
    """
    return purely_infinite_simple(graph).trivial_hereditary_saturated


def every_vertex_connects_to_cycle(graph: DirectedGraph) -> bool:
    """True iff every vertex has a directed path to some vertex on a cycle.

    In a finite graph that holds iff no vertex is a sink: a walk from a
    vertex either stops at a sink or revisits a vertex, closing a cycle.
    """
    return purely_infinite_simple(graph).every_vertex_connects_to_cycle


def purely_infinite_simple(graph: DirectedGraph) -> PisReport:
    """Graph conditions for L(E) to be purely infinite simple (E finite)."""
    n = len(graph.vertices)
    index_of = dict(zip(graph.vertices, range(n))).__getitem__
    srcs, dsts, mults = tuple(zip(*graph.edges)) or ((), (), ())
    sources, targets = list(map(index_of, srcs)), list(map(index_of, dsts))
    out: list[list[int]] = [[] for _ in range(n)]
    for s, t in zip(sources, targets):
        out[s].append(t)
    component, count = _components(out)
    cyclic: set[int] = set()  # an edge stays inside: more than one vertex, or a self-loop
    exits: set[int] = set()  # components that an edge leaves
    out_degree = [0] * n
    for s, t, mult in zip(sources, targets, mults):
        out_degree[s] += mult
        i = component[s]
        if i == component[t]:
            cyclic.add(i)
        else:
            exits.add(i)
    # (L) holds iff each cyclic component has a vertex that does not emit exactly one edge
    branching = {i for i, degree in zip(component, out_degree) if degree != 1}
    # count - len(exits - cyclic) components are terminal or cyclic, and some
    # component is terminal: so one means one terminal, every other acyclic
    return PisReport(
        cyclic <= branching,  # every_cycle_has_exit
        count - len(exits - cyclic) == 1,  # trivial_hereditary_saturated
        0 not in out_degree,  # every_vertex_connects_to_cycle
    )
