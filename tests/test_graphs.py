import itertools
import json
import random
import re
import sys

import pytest

from leavitt.graphs import (
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
from leavitt.intmat import IntMatrix

from conftest import Name, Small, infinite_order_graph


def graph_from_matrix(matrix: IntMatrix) -> DirectedGraph:
    names = [f"v{i}" for i in range(matrix.rows)]
    edges = [
        (names[i], names[j], matrix[i][j])
        for i in range(matrix.rows)
        for j in range(matrix.cols)
        if matrix[i][j]
    ]
    return DirectedGraph(tuple(names), tuple(edges))


class TestParseGraph:
    def test_rose_with_multiplicity(self):
        g = parse_graph('{"vertices":["v"],"edges":[["v","v",2]]}')
        assert g.vertices == ("v",)
        assert g.edges == (("v", "v", 2),)

    def test_merge_duplicate_records(self):
        g = parse_graph('{"vertices":["v"],"edges":[["v","v",1],["v","v",1]]}')
        assert g == rose(2)

    def test_default_multiplicity(self):
        g = parse_graph('{"vertices":["a","b"],"edges":[["a","b"]]}')
        assert g.edges == (("a", "b", 1),)

    def test_empty_vertex_list(self):
        with pytest.raises(GraphFormatError):
            parse_graph('{"vertices":[],"edges":[]}')

    def test_errors(self):
        bad_documents = [
            "not json",
            "[1,2,3]",
            '{"vertices":["v"],"edges":[["v","w",1]]}',
            '{"vertices":["v"],"edges":[["v","v",0]]}',
            '{"vertices":["v"],"edges":[["v","v",-2]]}',
            '{"vertices":["v"],"edges":[["v","v",1.5]]}',
            '{"vertices":["v"],"edges":[["v"]]}',
            '{"vertices":["v","v"],"edges":[]}',
            '{"vertices":[""],"edges":[]}',
            '{"vertices":["v"],"edges":[], "extra": 1}',
            '{"vertices":"v","edges":[]}',
        ]
        for text in bad_documents:
            with pytest.raises(GraphFormatError):
                parse_graph(text)
        with pytest.raises(GraphFormatError, match='"edges" must be a list'):
            parse_graph('{"vertices":["v"],"edges":{"v":"v"}}')

    def test_integer_past_the_digit_limit(self):
        # json.loads raises a plain ValueError here, not JSONDecodeError
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(GraphFormatError, match="^invalid JSON: "):
            parse_graph('{"vertices":["v"],"edges":[["v","v",%s]]}' % digits)

    def test_roundtrip(self):
        g = infinite_order_graph()
        assert parse_graph(g.to_json()) == g

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"vertices": ["a"], "edges": [["a", "zzz", 1], ["a"]]}',
             "edge ('a', 'zzz', 1) is not (src, dst, mult) of known vertices"),
            ('{"vertices": ["a", "a"], "edges": [["a"]]}', "duplicate vertex name 'a'"),
            ('{"vertices": ["a"], "edges": [["a", "a", 0], 5]}',
             "edge multiplicity must be a positive integer: ('a', 'a', 0)"),
            ('{"vertices": ["a"], "edges": [["a", "a"], ["a", "a", 1, 1], ["a", "b"]]}',
             "edge record must be [src, dst] or [src, dst, mult]: ['a', 'a', 1, 1]"),
        ],
        ids=["bad_record_before_malformed", "bad_name_before_malformed",
             "bad_multiplicity_before_malformed", "malformed_before_bad_record"],
    )
    def test_names_the_first_fault_in_file_order(self, text, message):
        # the names come first, then the records in file order, malformed
        # ones included
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert str(info.value) == message


def test_rose_rejects_a_negative_petal_count():
    with pytest.raises(ValueError, match="petal count must be at least 0, got -1"):
        rose(-1)


@pytest.mark.parametrize("petals", [False, True, 2.0, "3"])
def test_rose_rejects_a_petal_count_that_is_not_an_int(petals):
    with pytest.raises(ValueError, match="petal count must be integers"):
        rose(petals)


class TestBuildGraph:
    def test_merges_in_order_of_first_appearance(self):
        g = build_graph(["a", "b"], [("b", "a", 1), ("a", "b", 2), ("b", "a", 3)])
        assert g.edges == (("b", "a", 4), ("a", "b", 2))

    @pytest.mark.parametrize(
        "edges",
        [
            [("a", "b", 0)],
            [("a", "b", -1)],
            [("a", "b", 1.5)],
            [("a", "b", True)],
            [("a", "b", -1), ("a", "b", 2)],  # the sum, 1, would hide the -1
            [("a", "b", 2), ("a", "b", 0)],
            [("a", 1, 1)],
            [(["a"], "b", 1)],
        ],
    )
    def test_rejects_each_bad_record(self, edges):
        with pytest.raises(GraphFormatError):
            build_graph(["a", "b"], edges)

    @pytest.mark.parametrize("record", [("a", "b"), ("a", "b", 1, 1), None])
    def test_names_a_record_that_is_not_three_fields(self, record):
        with pytest.raises(GraphFormatError, match=re.escape(repr(record))):
            build_graph(["a", "b"], [record])


class TestDirectedGraph:
    @pytest.mark.parametrize(
        "record",
        [(["a"], "a", 1), ("a", 1, 1), ("a", "b", 1), ("a", "a"), ("a", "a", 1, 1), ("a", "a", 0)],
    )
    def test_rejects_each_bad_record(self, record):
        with pytest.raises(GraphFormatError, match=re.escape(repr(record))):
            DirectedGraph(("a",), (record,))

    @pytest.mark.parametrize("make", [DirectedGraph, build_graph])
    @pytest.mark.parametrize("vertices", ["ab", "a", ""])
    def test_rejects_a_string_of_names(self, make, vertices):
        # a str is a collection of its letters, which would become the names
        with pytest.raises(GraphFormatError, match="not be the string"):
            make(vertices, [])
        assert make(list("ab"), []).vertices == ("a", "b")

    @pytest.mark.parametrize("make", [DirectedGraph, build_graph])
    @pytest.mark.parametrize("vertices", [{"a", "b", "c"}, frozenset("abc")])
    def test_rejects_a_set_of_names(self, make, vertices):
        # a set's order, which would be the basis order, follows the hash seed
        with pytest.raises(GraphFormatError, match="must be ordered"):
            make(vertices, [])

    @pytest.mark.parametrize("make", [DirectedGraph, build_graph])
    @pytest.mark.parametrize("kind", [set, frozenset])
    def test_rejects_a_set_of_edge_records(self, make, kind):
        # the order of a set of records, which DirectedGraph.edges and
        # to_json keep, would follow the hash seed
        records = kind({("a", "b", 1), ("b", "a", 2), ("a", "a", 3)})
        with pytest.raises(GraphFormatError, match="edge list must be ordered, not a " + kind.__name__):
            make(["a", "b"], records)
        assert make(["a", "b"], sorted(records)).edges == (("a", "a", 3), ("a", "b", 1), ("b", "a", 2))

    @pytest.mark.parametrize("make", [DirectedGraph, build_graph])
    def test_keeps_any_ordered_collection(self, make):
        names = {"c": 0, "a": 1, "b": 2}
        for vertices in names, names.keys(), (v for v in names), iter(["c", "a", "b"]):
            assert make(vertices, iter([("a", "b", 1)])).vertices == ("c", "a", "b")

    @pytest.mark.parametrize("make", [DirectedGraph, build_graph])
    @pytest.mark.parametrize(
        "vertices, edges, message",
        [
            (5, [], "vertex list must be iterable, not int"),
            (None, [], "vertex list must be iterable, not NoneType"),
            (["a"], 5, "edge list must be iterable, not int"),
            (["a"], None, "edge list must be iterable, not NoneType"),
        ],
    )
    def test_rejects_a_collection_that_is_not_iterable(self, make, vertices, edges, message):
        with pytest.raises(GraphFormatError, match=message):
            make(vertices, edges)

    @pytest.mark.parametrize("make", [DirectedGraph, build_graph])
    def test_passes_on_what_iterating_the_records_raises(self, make):
        # a TypeError from inside the records is not read as a bad collection
        def records():
            yield ("a", "a", 1)
            raise TypeError("raised by the records")

        with pytest.raises(TypeError, match="raised by the records"):
            make(["a"], records())

    def test_stores_tuples(self):
        from_lists = DirectedGraph(["a", "b"], [["a", "b", 2], ("b", "a", 1)])
        from_tuples = DirectedGraph(("a", "b"), (("a", "b", 2), ("b", "a", 1)))
        assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
        assert type(from_lists.vertices) is tuple and type(from_lists.edges) is tuple
        assert all(type(record) is tuple for record in from_lists.edges)


NOT_KNOWN = "edge {!r} is not (src, dst, mult) of known vertices"
BAD_MULT = "edge multiplicity must be a positive integer: {!r}"
BAD_SHAPE = "edge record must be [src, dst] or [src, dst, mult]: {!r}"
BAD_NAME = "vertex names must be nonempty strings"

# fault: (bad record made from a good one's endpoints, the message template
# of DirectedGraph and build_graph, and of parse_graph; None: parse_graph
# reads the record as JSON carries it, a valid one)
RECORD_FAULTS = {
    "zero multiplicity": (lambda s, d: (s, d, 0), BAD_MULT, BAD_MULT),
    "negative multiplicity": (lambda s, d: (s, d, -1), BAD_MULT, BAD_MULT),
    "float multiplicity": (lambda s, d: (s, d, 1.5), BAD_MULT, BAD_MULT),
    "bool multiplicity": (lambda s, d: (s, d, True), BAD_MULT, BAD_MULT),
    "int-subclass multiplicity": (lambda s, d: (s, d, Small.TWO), BAD_MULT, None),
    "int endpoint": (lambda s, d: (s, 1, 1), NOT_KNOWN, NOT_KNOWN),
    "unhashable endpoint": (lambda s, d: ([s], d, 1), NOT_KNOWN, NOT_KNOWN),
    "str-subclass endpoint": (lambda s, d: (s, Name(d), 1), NOT_KNOWN, None),
    "unknown endpoint": (lambda s, d: (s, "nowhere", 1), NOT_KNOWN, NOT_KNOWN),
    "empty endpoint": (lambda s, d: ("", d, 1), NOT_KNOWN, NOT_KNOWN),
    "two fields": (lambda s, d: (s, d), NOT_KNOWN, None),
    "one field": (lambda s, d: (s,), NOT_KNOWN, BAD_SHAPE),
    "four fields": (lambda s, d: (s, d, 1, 1), NOT_KNOWN, BAD_SHAPE),
    "not a record": (lambda s, d: None, NOT_KNOWN, BAD_SHAPE),
}

# fault: the bad name made from a good one
VERTEX_FAULTS = {
    "empty name": lambda v: "",
    "int name": lambda v: 7,
    "unhashable name": lambda v: [v],
    "str-subclass name": Name,  # JSON carries it as a valid str
}


def _valid_graph(rng, n=40, count=200):
    """n vertex names and count records with distinct (src, dst) pairs."""
    names = [f"v{i}" for i in range(n)]
    pairs = rng.sample([(s, d) for s in names for d in names], count)
    return names, [(s, d, rng.randint(1, 3)) for s, d in pairs]


def _as_given(records, as_lists):
    return [list(r) if as_lists and isinstance(r, tuple) else r for r in records]


def _document(names, records):
    edges = [list(r) if isinstance(r, tuple) else r for r in records]
    return json.dumps({"vertices": names, "edges": edges})


def _merged(names, records):
    """The graph build_graph should return: pairs summed, first appearance first."""
    merged = {}
    for s, d, m in records:
        merged[s, d] = merged.get((s, d), 0) + m
    return DirectedGraph(names, [(s, d, m) for (s, d), m in merged.items()])


def _raises(message, build, *args):
    with pytest.raises(GraphFormatError) as info:
        build(*args)
    assert str(info.value) == message


class TestBulkChecks:
    """The check of each name and record in turn names the first bad one, with
    one message for every entry point: one fault at a random position of a
    200-record graph, through each of the three entry points."""

    ROUNDS = 6

    @pytest.mark.parametrize("fault", sorted(RECORD_FAULTS))
    def test_record_fault(self, fault):
        make, checked, parsed = RECORD_FAULTS[fault]
        rng = random.Random(f"record fault {fault}")
        for _ in range(self.ROUNDS):
            names, records = _valid_graph(rng)
            k = rng.randrange(len(records))
            records[k] = make(*records[k][:2])
            for as_lists in (False, True):
                given = _as_given(records, as_lists)
                # both name the record as given
                _raises(checked.format(given[k]), DirectedGraph, names, given)
                _raises(checked.format(given[k]), build_graph, names, given)
            text = _document(names, records)
            read = json.loads(text)["edges"]
            if parsed is None:
                two_fields_mean_one = [tuple(r) + (1,) * (3 - len(r)) for r in read]
                assert parse_graph(text) == _merged(names, two_fields_mean_one)
            else:
                # parse_graph names a bad shape as read, and makes tuples of the rest
                _raises(parsed.format(read[k] if parsed is BAD_SHAPE else tuple(read[k])),
                        parse_graph, text)

    def test_first_of_two_bad_records(self):
        names, records = ["a"], [("a", "zzz", 1), ("a", 1, 1)]
        message = NOT_KNOWN.format(records[0])
        _raises(message, DirectedGraph, names, records)
        _raises(message, build_graph, names, records)
        _raises(message, parse_graph, _document(names, records))

    def test_duplicate_pair(self):
        rng = random.Random("duplicate pair")
        for _ in range(self.ROUNDS):
            names, records = _valid_graph(rng)
            j, k = rng.sample(range(len(records)), 2)
            s, d, _ = records[j]
            records[k] = (s, d, rng.randint(1, 3))
            for as_lists in (False, True):
                _raises(f"duplicate edge record for ({s!r}, {d!r})",
                        DirectedGraph, names, _as_given(records, as_lists))
                assert build_graph(names, _as_given(records, as_lists)) == _merged(names, records)
            assert parse_graph(_document(names, records)) == _merged(names, records)

    def test_negative_multiplicity_on_a_duplicate_pair(self):
        # merging would give a positive sum; the record is named first
        rng = random.Random("negative duplicate")
        for _ in range(self.ROUNDS):
            names, records = _valid_graph(rng)
            j, k = rng.sample(range(len(records)), 2)
            records[k] = records[j][:2] + (-1,)
            message = BAD_MULT.format(records[k])
            _raises(message, DirectedGraph, names, records)
            _raises(message, build_graph, names, records)
            _raises(message, parse_graph, _document(names, records))

    @pytest.mark.parametrize("fault", sorted(VERTEX_FAULTS) + ["duplicate name"])
    def test_vertex_fault(self, fault):
        rng = random.Random(f"vertex fault {fault}")
        for _ in range(self.ROUNDS):
            names, records = _valid_graph(rng)
            k = rng.randrange(1, len(names))
            if fault == "duplicate name":
                names[k] = names[rng.randrange(k)]
                message = f"duplicate vertex name {names[k]!r}"
            else:
                names[k] = VERTEX_FAULTS[fault](names[k])
                message = BAD_NAME
            _raises(message, DirectedGraph, names, records)
            _raises(message, build_graph, names, records)
            text = _document(names, records)
            if fault == "str-subclass name":
                assert parse_graph(text) == DirectedGraph(json.loads(text)["vertices"], records)
            else:
                _raises(message, parse_graph, text)

    def test_records_given_as_lists(self):
        rng = random.Random("lists")
        for _ in range(self.ROUNDS):
            names, records = _valid_graph(rng)
            from_tuples = DirectedGraph(tuple(names), tuple(records))
            for build in (DirectedGraph, build_graph):
                from_lists = build(names, _as_given(records, True))
                assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
                assert all(type(record) is tuple for record in from_lists.edges)
            assert parse_graph(_document(names, records)) == from_tuples


class TestAdjacencyMatrix:
    def test_rose3(self):
        assert adjacency_matrix(rose(3)).to_lists() == [[3]]

    def test_two_vertex_graph(self):
        assert adjacency_matrix(infinite_order_graph()).to_lists() == [[3, 1], [2, 2]]

    def test_no_edges(self):
        assert adjacency_matrix(rose(0)).to_lists() == [[0]]

    def test_bijective_encoding(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 5)
            m = IntMatrix(
                [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
            )
            assert adjacency_matrix(graph_from_matrix(m)) == m


class TestEveryCycleHasExit:
    def test_single_loop(self):
        assert not every_cycle_has_exit(rose(1))

    def test_two_loops(self):
        assert every_cycle_has_exit(rose(2))

    def test_acyclic(self):
        assert every_cycle_has_exit(rose(0))

    def test_long_cycle_without_exit(self):
        g = build_graph(
            ["a", "b", "c"], [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)]
        )
        assert not every_cycle_has_exit(g)

    def test_long_cycle_with_exit(self):
        g = build_graph(
            ["a", "b", "c"],
            [("a", "b", 1), ("b", "c", 1), ("c", "a", 1), ("b", "b", 1)],
        )
        assert every_cycle_has_exit(g)

    def test_relabel_invariance(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 5)
            names = [f"v{i}" for i in range(n)]
            edges = []
            for s in names:
                for t in names:
                    if rng.random() < 0.4:
                        edges.append((s, t, rng.randint(1, 2)))
            g = build_graph(names, edges)
            renamed = {v: f"w{i}" for i, v in enumerate(rng.sample(names, n))}
            h = build_graph(
                [renamed[v] for v in names],
                [(renamed[s], renamed[t], m) for s, t, m in edges],
            )
            assert purely_infinite_simple(g) == purely_infinite_simple(h)


class TestTrivialHereditarySaturated:
    def test_single_vertex(self):
        assert trivial_hereditary_saturated(rose(2))

    def test_disjoint_components(self):
        g = build_graph(["a", "b"], [("a", "a", 2), ("b", "b", 2)])
        assert not trivial_hereditary_saturated(g)

    def test_strongly_connected(self):
        assert trivial_hereditary_saturated(infinite_order_graph())

    def test_saturation_matters(self):
        # b -> a only; {a} is hereditary but not saturated, closure pulls b in
        g = build_graph(["a", "b"], [("a", "a", 2), ("b", "a", 1)])
        assert trivial_hereditary_saturated(g)
        # with an escape from b to a sink c, {a} stays proper: closure of a is {a}
        h = build_graph(
            ["a", "b", "c"], [("a", "a", 2), ("b", "a", 1), ("b", "c", 1)]
        )
        assert not trivial_hereditary_saturated(h)


class TestEveryVertexConnectsToCycle:
    def test_rose(self):
        assert every_vertex_connects_to_cycle(rose(2))

    def test_no_cycles(self):
        assert not every_vertex_connects_to_cycle(rose(0))

    def test_path_into_loop(self):
        g = build_graph(["u", "v"], [("u", "v", 1), ("v", "v", 1)])
        assert every_vertex_connects_to_cycle(g)

    def test_sink_never_connects(self):
        # a sink cannot reach a cycle, whether or not a cycle reaches it
        g = build_graph(["v", "s"], [("v", "v", 2), ("v", "s", 1)])
        assert not every_vertex_connects_to_cycle(g)
        h = build_graph(["v", "s"], [("v", "v", 2)])
        assert not every_vertex_connects_to_cycle(h)


class TestPurelyInfiniteSimple:
    def test_rose2(self):
        report = purely_infinite_simple(rose(2))
        assert report.purely_infinite_simple

    def test_rose1_fails_condition_l(self):
        report = purely_infinite_simple(rose(1))
        assert not report.every_cycle_has_exit
        assert not report.purely_infinite_simple

    def test_infinite_order_graph(self):
        assert purely_infinite_simple(infinite_order_graph()).purely_infinite_simple

    def test_conjunction(self):
        for g in (rose(0), rose(1), rose(2), infinite_order_graph()):
            report = purely_infinite_simple(g)
            assert report.purely_infinite_simple == (
                every_cycle_has_exit(g)
                and trivial_hereditary_saturated(g)
                and every_vertex_connects_to_cycle(g)
            )

    def test_verdict_follows_the_flags(self):
        for flags in itertools.product((False, True), repeat=3):
            assert PisReport(*flags).purely_infinite_simple is all(flags)
        with pytest.raises(TypeError):
            PisReport(True, True, True, purely_infinite_simple=False)

    def test_random_strongly_connected_min_outdegree_two(self):
        # a strongly connected multigraph where every vertex emits >= 2 edges
        # is purely infinite simple
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 6)
            names = [f"v{i}" for i in range(n)]
            edges = {}
            for i in range(n):  # a spanning cycle keeps it strongly connected
                key = (names[i], names[(i + 1) % n])
                edges[key] = edges.get(key, 0) + 1
            for s in names:  # pad out-degrees to >= 2
                while sum(m for (a, _), m in edges.items() if a == s) < 2:
                    key = (s, rng.choice(names))
                    edges[key] = edges.get(key, 0) + 1
            for _ in range(rng.randint(0, 4)):
                key = (rng.choice(names), rng.choice(names))
                edges[key] = edges.get(key, 0) + 1
            g = build_graph(names, [(s, t, m) for (s, t), m in edges.items()])
            assert purely_infinite_simple(g).purely_infinite_simple


class TestJsonDict:
    def test_stable_serialization(self):
        g = infinite_order_graph()
        assert json.loads(g.to_json()) == g.to_json_dict()


def _random_graphs(seed, count, max_vertices=5, edge_probability=0.35):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_vertices)
        names = [f"v{i}" for i in range(n)]
        edges = []
        for s in names:
            for t in names:
                if rng.random() < edge_probability:
                    edges.append((s, t, rng.randint(1, 2)))
        yield build_graph(names, edges)


def _sparse_random_graphs(seed):
    """Sparse graphs with sinks, several terminal components, and closures
    that grow only through saturation."""
    return _random_graphs(seed, 200, max_vertices=7, edge_probability=0.18)


def _all_small_graphs(max_vertices=3):
    """Every 0/1 adjacency on 1..max_vertices vertices: 530 graphs for 3.
    They hold the cases the component rule separates: self-loops upstream,
    several sinks, a cycle feeding a terminal cycle."""
    for n in range(1, max_vertices + 1):
        names = [f"v{i}" for i in range(n)]
        pairs = list(itertools.product(names, repeat=2))
        for bits in itertools.product((0, 1), repeat=n * n):
            yield build_graph(names, [(s, t, 1) for (s, t), b in zip(pairs, bits) if b])


def _out_degree(graph, vertex):
    """Total number of edges leaving vertex, counted with multiplicity."""
    return sum(mult for src, _, mult in graph.edges if src == vertex)


def _simple_cycles(graph):
    """All simple cycles, as vertex sets (small graphs only)."""
    targets = {v: set() for v in graph.vertices}
    for s, t, _ in graph.edges:
        targets[s].add(t)
    cycles = []

    def walk(start, v, path):
        for w in targets[v]:
            if w == start:
                cycles.append(frozenset(path))
            elif w not in path and w > start:  # canonical start: minimal name
                walk(start, w, path + [w])

    for v in graph.vertices:
        walk(v, v, [v])
    return set(cycles)


class TestBruteForceOracles:
    """The fast predicates against literal enumeration on small graphs."""

    def test_cycle_exits_against_cycle_enumeration(self):
        for g in itertools.chain(
            _random_graphs(101, 150), _sparse_random_graphs(201), _all_small_graphs()
        ):
            out_degree = {v: _out_degree(g, v) for v in g.vertices}
            # a cycle lacks an exit iff all its vertices emit exactly one edge
            brute = not any(
                all(out_degree[v] == 1 for v in cycle)
                for cycle in _simple_cycles(g)
            )
            assert every_cycle_has_exit(g) == brute, g.to_json()

    def test_hereditary_saturated_against_subset_enumeration(self):
        for g in itertools.chain(
            _random_graphs(102, 120), _sparse_random_graphs(202), _all_small_graphs()
        ):
            targets = {v: set() for v in g.vertices}
            for s, t, _ in g.edges:
                targets[s].add(t)
            names = list(g.vertices)
            brute = True
            for r in range(1, len(names)):
                for subset in itertools.combinations(names, r):
                    sset = set(subset)
                    hereditary = all(targets[v] <= sset for v in sset)
                    saturated = all(
                        v in sset
                        for v in names
                        if targets[v] and targets[v] <= sset
                    )
                    if hereditary and saturated:
                        brute = False
            assert trivial_hereditary_saturated(g) == brute, g.to_json()

    def test_connects_to_cycle_against_path_enumeration(self):
        for g in itertools.chain(
            _random_graphs(103, 150), _sparse_random_graphs(203), _all_small_graphs()
        ):
            cycles = _simple_cycles(g)
            on_cycle = set().union(*cycles) if cycles else set()
            targets = {v: set() for v in g.vertices}
            for s, t, _ in g.edges:
                targets[s].add(t)
            brute = True
            for v in g.vertices:
                seen = {v}
                frontier = [v]
                while frontier:
                    u = frontier.pop()
                    for w in targets[u]:
                        if w not in seen:
                            seen.add(w)
                            frontier.append(w)
                if not seen & on_cycle:
                    brute = False
            assert every_vertex_connects_to_cycle(g) == brute, g.to_json()


def _ring_core(n, rng, first=0):
    """Ring with multiplicity 1-2 plus one random edge per vertex, on vertices
    first..first+n-1: strongly connected with out-degree >= 2, hence PIS."""
    mult = {}
    for i in range(n):
        mult[(first + i, first + (i + 1) % n)] = rng.randint(1, 2)
        key = (first + i, first + rng.randrange(n))
        mult[key] = mult.get(key, 0) + 1
    return mult


def _condition_graph(kind, n, rng):
    """A graph on n vertices whose PIS flags are known by construction."""
    if kind == "pis":
        mult = _ring_core(n, rng)
    elif kind == "sink":  # a core feeding one sink
        mult = _ring_core(n - 1, rng)
        mult[(rng.randrange(n - 1), n - 1)] = 1
    elif kind == "no_exit":  # a core feeding a 4-cycle of single edges
        core = n - 4
        mult = _ring_core(core, rng)
        for k in range(4):
            mult[(core + k, core + (k + 1) % 4)] = 1
        mult[(rng.randrange(core), core)] = 1
    else:  # hereditary: a core feeding an 8-vertex PIS tail it never leaves
        core = n - 8
        mult = _ring_core(core, rng)
        mult.update(_ring_core(8, rng, first=core))
        mult[(rng.randrange(core), core + rng.randrange(8))] = 1
    names = [f"v{i}" for i in range(n)]
    return build_graph(names, [(names[s], names[t], m) for (s, t), m in mult.items()])


class TestLargeGraphs:
    # (every_cycle_has_exit, trivial_hereditary_saturated,
    #  every_vertex_connects_to_cycle, purely_infinite_simple)
    EXPECTED = {
        "pis": (True, True, True, True),
        "sink": (True, False, False, False),
        "no_exit": (False, False, True, False),
        "hereditary": (True, False, True, False),
    }

    @staticmethod
    def _flags(g):
        report = purely_infinite_simple(g)
        flags = (
            report.every_cycle_has_exit,
            report.trivial_hereditary_saturated,
            report.every_vertex_connects_to_cycle,
            report.purely_infinite_simple,
        )
        assert flags[:3] == (
            every_cycle_has_exit(g),
            trivial_hereditary_saturated(g),
            every_vertex_connects_to_cycle(g),
        )
        return flags

    def test_long_chains_do_not_recurse(self):
        n = 200_000
        names = [f"p{i}" for i in range(n)] + ["v"]
        path = [(names[i], names[i + 1], 1) for i in range(n)]
        into_rose = DirectedGraph(names, path + [("v", "v", 2)])
        assert purely_infinite_simple(into_rose) == PisReport(True, True, True)
        into_sink = DirectedGraph(names, path)
        assert purely_infinite_simple(into_sink) == PisReport(True, True, False)
        assert not every_vertex_connects_to_cycle(into_sink)

    def test_flags_ignore_vertex_and_record_order(self):
        rng = random.Random(31)
        graphs = [
            _condition_graph(kind, rng.randint(12, 160), rng)
            for kind in self.EXPECTED
            for _ in range(5)
        ]
        for g in itertools.chain(graphs, _random_graphs(104, 150)):
            report = purely_infinite_simple(g)
            names, edges = list(g.vertices), list(g.edges)
            renamed = dict(zip(names, rng.sample(names, len(names))))
            moved = [
                DirectedGraph(rng.sample(names, len(names)), edges),
                DirectedGraph(names, rng.sample(edges, len(edges))),
                DirectedGraph(names, [(renamed[s], renamed[t], m) for s, t, m in edges]),
            ]
            for h in moved:
                assert purely_infinite_simple(h) == report, g.to_json()

    def test_constructions_keep_their_flags_under_relabelling(self):
        rng = random.Random(29)
        for kind, expected in self.EXPECTED.items():
            for _ in range(3):
                g = _condition_graph(kind, rng.randint(480, 520), rng)
                assert self._flags(g) == expected, kind
                names = list(g.vertices)
                renamed = dict(zip(names, rng.sample(names, len(names))))
                edges = [(renamed[s], renamed[t], m) for s, t, m in g.edges]
                rng.shuffle(edges)
                h = build_graph(rng.sample(names, len(names)), edges)
                assert self._flags(h) == expected, kind
