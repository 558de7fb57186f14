"""Finite directed multigraphs and the purely-infinite-simple conditions.

Parallel edges are stored as a single record with a multiplicity, so the
data model is canonical: at most one (source, target) record per ordered
pair.  Vertex order in the file is the basis order for every matrix derived
from the graph, which keeps all downstream output reproducible.

The purely-infinite-simple conditions of Abrams and Aranda Pino are read
off one condensation of the graph into strongly connected components, in
time linear in vertices plus edges.  A component is cyclic when an edge
stays inside it (more than one vertex, or a self-loop).  Then:

* (L) fails iff some cyclic component has every vertex emitting one edge;
* the only hereditary saturated sets are the empty set and all vertices iff
  exactly one component is terminal (no edge leaves it) and every other
  component is acyclic.  A nonempty hereditary set holds a terminal
  component; saturating it adds the acyclic components in emission order,
  while a second terminal component or a cyclic one never gets a first
  vertex;
* every vertex connects to a cycle iff every component is cyclic or has a
  successor that connects.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

from .intmat import IntMatrix, Record


class GraphFormatError(ValueError):
    """Raised for malformed graph documents."""


class DirectedGraph(Record):
    __slots__ = ("vertices", "edges")
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, int], ...]

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str, int]]):
        vertices = tuple(vertices or ())
        if not vertices:
            raise GraphFormatError("vertex list must be nonempty")
        seen = set()
        for v in vertices:
            if not isinstance(v, str) or not v:
                raise GraphFormatError("vertex names must be nonempty strings")
            if v in seen:
                raise GraphFormatError(f"duplicate vertex name {v!r}")
            seen.add(v)
        checked = []
        pairs = set()
        for record in edges:
            try:
                src, dst, mult = record
                known = src in seen and dst in seen
            except (TypeError, ValueError):  # not three fields, or an unhashable endpoint
                known = False
            if not known:
                raise GraphFormatError(f"edge {record!r} is not (src, dst, mult) of known vertices")
            if isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
                raise GraphFormatError(f"edge multiplicity must be a positive integer: {record!r}")
            if (src, dst) in pairs:
                raise GraphFormatError(f"duplicate edge record for ({src!r}, {dst!r})")
            pairs.add((src, dst))
            checked.append((src, dst, mult))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", tuple(checked))

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

    def __init__(
        self,
        every_cycle_has_exit: bool,
        trivial_hereditary_saturated: bool,
        every_vertex_connects_to_cycle: bool,
    ):
        object.__setattr__(self, "every_cycle_has_exit", every_cycle_has_exit)
        object.__setattr__(self, "trivial_hereditary_saturated", trivial_hereditary_saturated)
        object.__setattr__(self, "every_vertex_connects_to_cycle", every_vertex_connects_to_cycle)

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
    """
    merged: dict[tuple[str, str], int] = {}  # in order of first appearance
    for record in edges:
        try:
            src, dst, mult = record
        except (TypeError, ValueError):  # not three fields
            raise GraphFormatError(f"edge {record!r} is not (src, dst, mult)") from None
        if not isinstance(src, str) or not isinstance(dst, str):
            raise GraphFormatError(f"edge endpoints must be strings: {record!r}")
        if isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
            raise GraphFormatError(f"edge multiplicity must be a positive integer: {record!r}")
        merged[src, dst] = merged.get((src, dst), 0) + mult
    return DirectedGraph(tuple(vertices), tuple((s, d, k) for (s, d), k in merged.items()))


def parse_graph(text: str) -> DirectedGraph:
    """Parse the JSON graph document {"vertices": [...], "edges": [...]}.

    Edge records are [src, dst] or [src, dst, multiplicity]; a missing
    multiplicity means 1.  Duplicate records are merged by summing.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
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


def _condensation(graph: DirectedGraph) -> tuple[dict[str, int], int]:
    """The strongly connected component of each vertex, numbered in
    Tarjan's emission order, and the number of components.

    A component is emitted only after every component it reaches, so every
    edge between two components points to a lower number.
    """
    # Tarjan, iterative to survive long chains.
    out = graph.out_edges()
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    stack: list[str] = []
    work: list[tuple[str, Iterator[tuple[str, int]]]] = []
    component_of: dict[str, int] = {}
    count = 0

    def visit(v: str) -> None:
        index[v] = lowlink[v] = len(index)
        stack.append(v)
        work.append((v, iter(out[v])))

    for root in graph.vertices:
        if root in index:
            continue
        visit(root)
        while work:
            v, it = work[-1]
            for w, _ in it:
                if w not in index:
                    visit(w)
                    break
                if w not in component_of:  # still on the stack
                    lowlink[v] = min(lowlink[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
                if lowlink[v] == index[v]:
                    w = None
                    while w != v:
                        w = stack.pop()
                        component_of[w] = count
                    count += 1
    return component_of, count


def every_cycle_has_exit(graph: DirectedGraph) -> bool:
    """Condition (L): no cycle consists solely of vertices with one out-edge.

    A violating cycle is exactly a cyclic strongly connected component in
    which every vertex has total out-degree 1.  Read off the condensation:
    linear in vertices plus edges.
    """
    return purely_infinite_simple(graph).every_cycle_has_exit


def trivial_hereditary_saturated(graph: DirectedGraph) -> bool:
    """True iff the only hereditary saturated vertex sets are trivial.

    That holds iff exactly one component is terminal (no edge leaves it; a
    sink is one) and every other component is acyclic.  Every nonempty
    hereditary set contains a whole terminal component.  Saturating the one
    terminal component adds the acyclic components in emission order, each
    once all its targets are in; a second terminal component, or a cyclic
    one, keeps an edge to a vertex not yet in and never gets a first
    vertex.  Read off the condensation: linear in vertices plus edges.
    """
    return purely_infinite_simple(graph).trivial_hereditary_saturated


def every_vertex_connects_to_cycle(graph: DirectedGraph) -> bool:
    """True iff every vertex has a directed path to some vertex on a cycle.

    A component reaches a cycle when it is cyclic (has more than one vertex,
    or a self-loop) or has a successor component that reaches one.
    Successors come earlier in the condensation's order, so one pass decides
    every component: linear in vertices plus edges.
    """
    return purely_infinite_simple(graph).every_vertex_connects_to_cycle


def purely_infinite_simple(graph: DirectedGraph) -> PisReport:
    """Graph conditions for L(E) to be purely infinite simple (E finite)."""
    component_of, count = _condensation(graph)
    # a component is cyclic iff an edge stays inside it: it has more than
    # one vertex, or it is one vertex with a self-loop
    cyclic = [False] * count
    successors: list[list[int]] = [[] for _ in range(count)]
    out_degree = dict.fromkeys(graph.vertices, 0)
    for src, dst, mult in graph.edges:
        out_degree[src] += mult
        i, j = component_of[src], component_of[dst]
        if i == j:
            cyclic[i] = True
        else:
            successors[i].append(j)
    no_exit = cyclic.copy()  # a cyclic component whose vertices emit one edge each
    for v, degree in out_degree.items():
        if degree != 1:
            no_exit[component_of[v]] = False
    reaches = cyclic.copy()
    for i, succ in enumerate(successors):
        reaches[i] = reaches[i] or any(reaches[j] for j in succ)
    # some component is terminal, so this says: one terminal component,
    # and every other component acyclic
    terminal_or_cyclic = sum(c or not succ for c, succ in zip(cyclic, successors))
    return PisReport(
        every_cycle_has_exit=not any(no_exit),
        trivial_hereditary_saturated=terminal_or_cyclic == 1,
        every_vertex_connects_to_cycle=all(reaches),
    )
