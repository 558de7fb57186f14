"""Finite directed multigraphs and the purely-infinite-simple conditions.

Parallel edges are stored as a single record with a multiplicity, so the
data model is canonical: at most one (source, target) record per ordered
pair.  Vertex order in the file is the basis order for every matrix derived
from the graph, which keeps all downstream output reproducible.  Records are
checked in bulk, a column at a time; only when that check fails does a loop
over the records run, to name the first bad one.

The purely-infinite-simple conditions of Abrams and Aranda Pino, each read
off the strongly connected components as its docstring says, come from one
iterative Tarjan pass over vertex indices and one pass over the edges, in
time linear in vertices plus edges.
"""

from __future__ import annotations

import json
from typing import Iterable

from .intmat import IntMatrix, Record, require_ints


class GraphFormatError(ValueError):
    """Raised for malformed graph documents."""


def _plain(records: tuple, names: set) -> bool:
    """True when there are records, each a tuple or list (src, dst, mult)
    with str endpoints in names and an int multiplicity (not a bool) above
    0, and no (src, dst) pair repeats.  Checked per column."""
    if not set(map(type, records)) <= {tuple, list} or set(map(len, records)) != {3}:
        return False
    srcs, dsts, mults = zip(*records)
    ends = srcs + dsts
    if set(map(type, ends)) != {str} or set(map(type, mults)) != {int} or min(mults) < 1:
        return False
    return names.issuperset(ends) and len(set(zip(srcs, dsts))) == len(records)


class DirectedGraph(Record):
    __slots__ = ("vertices", "edges")
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, int], ...]

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str, int]]):
        vertices = tuple(vertices or ())
        if not vertices:
            raise GraphFormatError("vertex list must be nonempty")
        seen = set(vertices) if set(map(type, vertices)) == {str} else set()
        if len(seen) < len(vertices) or "" in seen:  # name the first bad name
            seen = set()
            for v in vertices:
                if not isinstance(v, str) or not v:
                    raise GraphFormatError("vertex names must be nonempty strings")
                if v in seen:
                    raise GraphFormatError(f"duplicate vertex name {v!r}")
                seen.add(v)
        records = tuple(edges)
        if _plain(records, seen):
            records = tuple(map(tuple, records))
        else:  # name the first bad record
            checked: dict[tuple[str, str], int] = {}
            for record in records:
                try:
                    src, dst, mult = record
                    known = src in seen and dst in seen
                except (TypeError, ValueError):  # not three fields, or an unhashable endpoint
                    known = False
                if not known:
                    raise GraphFormatError(f"edge {record!r} is not (src, dst, mult) of known vertices")
                if isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
                    raise GraphFormatError(f"edge multiplicity must be a positive integer: {record!r}")
                if (src, dst) in checked:
                    raise GraphFormatError(f"duplicate edge record for ({src!r}, {dst!r})")
                checked[src, dst] = mult
            records = tuple((src, dst, mult) for (src, dst), mult in checked.items())
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", records)

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

    Each record is checked before the merge, so a sum cannot hide a bad one.
    DirectedGraph's bulk check runs first and is the only one when nothing
    needs merging; when it fails, the records are checked here one by one,
    to name the first bad one or to merge, and the merged graph is built.
    """
    records = tuple(edges)
    vertices = tuple(vertices)
    try:
        return DirectedGraph(vertices, records)
    except GraphFormatError:
        pass  # a bad record or vertex name, or a repeated pair to merge
    merged: dict[tuple[str, str], int] = {}  # in order of first appearance
    for record in records:
        try:
            src, dst, mult = record
        except (TypeError, ValueError):  # not three fields
            raise GraphFormatError(f"edge {record!r} is not (src, dst, mult)") from None
        if not isinstance(src, str) or not isinstance(dst, str):
            raise GraphFormatError(f"edge endpoints must be strings: {record!r}")
        if isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
            raise GraphFormatError(f"edge multiplicity must be a positive integer: {record!r}")
        merged[src, dst] = merged.get((src, dst), 0) + mult
    return DirectedGraph(vertices, tuple((s, d, k) for (s, d), k in merged.items()))


def parse_graph(text: str) -> DirectedGraph:
    """Parse the JSON graph document {"vertices": [...], "edges": [...]}.

    Edge records are [src, dst] or [src, dst, multiplicity]; a missing
    multiplicity means 1.  Duplicate records are merged by summing.
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
    if set(map(type, raw_edges)) <= {list} and set(map(len, raw_edges)) <= {3}:
        return build_graph(vertices, map(tuple, raw_edges))
    edges = []
    for record in raw_edges:
        if not isinstance(record, list) or len(record) not in (2, 3):
            raise GraphFormatError(f"edge record must be [src, dst] or [src, dst, mult]: {record!r}")
        edges.append((record[0], record[1], record[2] if len(record) == 3 else 1))
    return build_graph(vertices, edges)


def rose(petals: int) -> DirectedGraph:
    """One vertex with the given number of loops.

    >>> rose(2)
    DirectedGraph(vertices=('v',), edges=(('v', 'v', 2),))
    """
    require_ints((petals,), "petal count")
    if petals < 0:
        raise ValueError("petal count must be nonnegative")
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
