"""Seeded fuzz test of the input contract.

Mutated graph documents, arguments around the three CLI caps, and ``--c``,
``--d`` and ``--bound`` values either side of the int-to-str digit limit go
through ``cli.main`` in process: every call prints exactly one JSON
document, exits 0, 2, 3 or 4 without a traceback and within a CPU budget,
and a failed call's document carries its exit code.  A few
``python -m leavitt`` children check the same contract end to end.  On the
library path, ``str`` and ``int`` subclasses go to ``DirectedGraph`` and
``build_graph``, which must name the same first bad record; values of every
type around each integer argument's least value go to the functions that
check it, and coordinates of every type and range go to each function that
takes a group element, which must name a bad one or accept a good one.  The
seed and the case counts are fixed, so every run tries the same cases, in a
few seconds.
"""

import io
import json
import random
import sys
import time

import pytest

from leavitt.abelian import (
    FGAbelianGroup,
    GroupElement,
    eigen_search,
    gcd_criterion,
    orbit_invariant,
    same_orbit,
    scale,
)
from leavitt.cli import MAX_CLASSES, MAX_EIGEN_MATRICES, MAX_HEAD_VERTICES, main
from leavitt.graphs import (
    DirectedGraph,
    GraphFormatError,
    build_graph,
    purely_infinite_simple,
    rose,
)
from leavitt.ktheory import k0_of_graph
from leavitt.matrixtype import m_graph, matrix_type_classes, matrix_type_equal

from conftest import ELEMENT_CALLS, Name, Small, run_module

SEED = 26
CLI_CASES = 300
LIBRARY_CASES = 300
INTEGER_CASES = 300
ELEMENT_CASES = 300
# CPU seconds one in-process CLI call may take: every input whose cost its
# size does not bound has a cap, so a call that runs longer has found an
# uncapped input; the slowest of the 300 calls, mgraph --m 25001, takes
# about 0.2 s
CALL_BUDGET_S = 2.0


class Raw(str):
    """JSON text put into a document as it is."""


def _dump(value) -> str:
    if isinstance(value, Raw):
        return value
    if isinstance(value, list):
        return "[" + ",".join(map(_dump, value)) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_dump(v)}" for k, v in value.items()) + "}"
    return json.dumps(value)


def _near_the_digit_limit(rng) -> Raw:
    digits = sys.get_int_max_str_digits() + rng.choice((-1, 0, 1))
    return Raw(rng.choice(("", "-")) + "9" * digits)


def _nested(rng) -> Raw:
    depth = rng.choice((2, 50, 900, 5000, 100_000))
    return Raw("[" * depth + "]" * depth)


BAD_VALUES = [True, False, 1.5, 0, -1, 2.0, None, "", "nowhere", "1", [], ["v0"], {"v0": 1}]


def _record(rng, edges):
    """A random record still of the form [src, dst] or [src, dst, mult], or None."""
    plain = [r for r in edges if type(r) is list and len(r) in (2, 3)]
    return rng.choice(plain) if plain else None


def _mutate(rng, names, edges):
    """Apply one random fault to the document's names or records."""
    kind = rng.randrange(8)
    record = _record(rng, edges)
    if kind == 0 and record:  # a record of another shape
        s, d = record[:2]
        edges[edges.index(record)] = rng.choice(
            ([], [s], [s, d, 1, 1], s, {"src": s}, None, 5, [[s, d, 1]]))
    elif kind == 1 and record:  # an endpoint of another type or value
        record[rng.randrange(2)] = rng.choice(BAD_VALUES)
    elif kind == 2 and record:  # a multiplicity of another type or value
        record[2:] = [rng.choice(BAD_VALUES + [_near_the_digit_limit(rng), 10**rng.randint(1, 40)])]
    elif kind == 3:  # a repeated name
        names.insert(rng.randrange(len(names) + 1), rng.choice(names))
    elif kind == 4:  # a bad name
        names[rng.randrange(len(names))] = rng.choice(BAD_VALUES)
    elif kind == 5 and record:  # a repeated pair, merged by the file format
        edges.insert(rng.randrange(len(edges) + 1), list(record))
    elif kind == 6:  # deep nesting in a record, a name or a multiplicity
        where = rng.randrange(3)
        if where == 0 and record:
            edges[edges.index(record)] = _nested(rng)
        elif where == 1:
            names[rng.randrange(len(names))] = _nested(rng)
        else:
            edges.append([names[0], names[0], _nested(rng)])
    elif record:  # a two-field record, multiplicity 1 by default
        del record[2:]


def _document(rng) -> str:
    n = rng.randint(1, 5)
    names = [f"v{i}" for i in range(n)]
    edges = [[rng.choice(names), rng.choice(names), rng.randint(1, 3)]
             for _ in range(rng.randint(0, 2 * n + 2))]
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        _mutate(rng, names, edges)
    doc = {"vertices": names, "edges": edges}
    if rng.random() < 0.05:
        doc[rng.choice(("extra", "edges"))] = rng.choice((1, "x", {}, []))
    return _dump(doc) if rng.random() < 0.97 else _dump(rng.choice(([], "x", None, 3)))


def _digits(rng) -> str:
    """A value of 3000 or 4400 digits, or one just under, at or just past
    the int-to-str digit limit."""
    limit = sys.get_int_max_str_digits()
    return "9" * rng.choice((3000, limit - 1, limit, limit + 1, 4400))


def _around(rng, cap: int) -> int:
    return rng.choice((cap - 1, cap, cap + 1, cap + 2, 2 * cap, 10**60, 1, 0, -1))


def _call(rng, graph_file: str) -> list[str]:
    """One argument list; the graph, when there is one, comes from stdin."""
    kind = rng.randrange(7)
    if kind == 0:
        return ["analyze", "--graph", "-"]
    if kind == 1:
        c, d = rng.choice((1, 2, 5, 0, -3, _digits(rng))), rng.choice((1, 3, 12, 0, _digits(rng)))
        return ["matrix-type", "--graph", "-", "--c", str(c), "--d", str(d)]
    if kind == 2:
        top = rng.choice((24, _around(rng, MAX_CLASSES)))
        return ["classes", "--graph", "-", "--max", str(top)]
    if kind == 3:
        # with n vertices, m - 1 = cap // n + k heads per vertex lands near the cap
        m = rng.choice((2, 4, MAX_HEAD_VERTICES // rng.randint(1, 5) + rng.choice((-1, 0, 1, 2)),
                        _around(rng, MAX_HEAD_VERTICES)))
        return ["mgraph", "--graph", "-", "--m", str(m), "--out", "-"]
    if kind == 4:
        bound = [] if rng.random() < 0.5 else ["--bound", str(rng.choice((1, 2, 100, _digits(rng))))]
        return ["compare", "--graph-a", graph_file, "--graph-b", "-", *bound]
    if kind == 5:
        # t = 2, bound = 15 is the last pair under the cap; t = 1 runs the
        # scan alone, so its pairs stay well under or just over the cap
        t, bound = rng.choice(((2, 15), (2, 16), (3, 1), (3, 2), (4, 1), (1, 3),
                               (1, MAX_EIGEN_MATRICES // 2), (1, 10**60), (10**60, 1),
                               (0, 1), (1, 0), (-2, 1), (2, -1)))
        x = ",".join(str(rng.randint(-2, 2)) for _ in range(max(1, min(t, 4))))
        m, n = rng.choice((1, 2, 3, 0, -1)), rng.choice((1, 2, 0))
        return ["oracle", "eigen", "--t", str(t), "--bound", str(bound), "--x", x,
                "--m", str(m), "--n", str(n)]
    factors = rng.choice(("2,4", "12", "", "0", "3,2", "x"))
    return ["oracle", "lemma1", "--factors", factors, "--x", rng.choice(("1,1", "1", "")),
            "--c", str(rng.choice((-1, 0, 1, 2, 3, 4, _digits(rng)))),
            "--d", str(rng.choice((1, 2, 3, 4, _digits(rng)))),
            "--bound", str(rng.choice((1, 8, 1024, _digits(rng))))]


def test_cli_calls_keep_the_output_contract(capsys, monkeypatch, tmp_path):
    graph_file = tmp_path / "rose2.json"
    graph_file.write_text('{"vertices": ["v"], "edges": [["v", "v", 2]]}\n', encoding="utf-8")
    rng = random.Random(SEED)
    limit = sys.get_int_max_str_digits()
    seen = set()
    for case in range(CLI_CASES):
        argv = _call(rng, str(graph_file))
        monkeypatch.setattr("sys.stdin", io.StringIO(_document(rng)))
        start = time.process_time()
        code = main(argv)
        spent = time.process_time() - start
        captured = capsys.readouterr()
        where = f"case {case}: {argv[:2]}"
        assert spent <= CALL_BUDGET_S, f"case {case}: {argv} took {spent:.2f} s of CPU"
        assert code in (0, 2, 3, 4), where
        assert captured.out.endswith("\n") and captured.out.count("\n") == 1, where
        doc = json.loads(captured.out)
        assert "Traceback" not in captured.err, where
        if code:
            assert isinstance(doc, dict) and set(doc) == {"error", "message"}, where
            assert doc["error"] == code, where
        if any(len(arg) > limit for arg in argv):  # argparse refuses the value as an int
            assert code == 2 and "invalid int value" in doc["message"], where
        seen.add(code)
    assert seen == {0, 2, 3, 4}  # the cases reach every exit


# (argv, stdin, exit code): the contract end to end, from stdin to stdout
MODULE_CALLS = [
    (["analyze", "--graph", "-"], '{"vertices": ["a"], "edges": [["a", "a"], ["a", "b", 1]]}', 2),
    (["snf"], "[" * 100_000 + "]" * 100_000, 2),
    (["snf"], json.dumps([[10**2200, 1], [0, 10**2200]]), 0),  # D has 10**4400 on its diagonal
]


@pytest.mark.parametrize("argv, stdin, code", MODULE_CALLS,
                         ids=["bad_record", "deep_nesting", "result_past_the_digit_limit"])
def test_module_calls_keep_the_output_contract(argv, stdin, code):
    proc = run_module(*argv, stdin=stdin, timeout=60)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stdout.endswith("\n") and proc.stdout.count("\n") == 1
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        doc = json.loads(proc.stdout)
    finally:
        sys.set_int_max_str_digits(limit)
    if code:
        assert set(doc) == {"error", "message"} and doc["error"] == code
    else:
        assert doc["diagonal"] == [1, 10**4400]


def _valid_graph(rng):
    n = rng.randint(1, 8)
    names = [f"v{i}" for i in range(n)]
    pairs = rng.sample([(s, d) for s in names for d in names], rng.randint(1, n * n))
    return names, [(s, d, rng.randint(1, 3)) for s, d in pairs]


def _first_fault(names, records):
    """The message the check of each name and record in turn gives."""
    for v in names:
        if type(v) is not str:
            return "vertex names must be nonempty strings"
    for record in records:
        src, dst, mult = record
        if type(src) is not str or type(dst) is not str:
            return f"edge {record!r} is not (src, dst, mult) of known vertices"
        if type(mult) is not int:
            return f"edge multiplicity must be a positive integer: {record!r}"
    return None


@pytest.mark.parametrize("seed", range(3))
def test_subclass_values_are_named_alike(seed):
    rng = random.Random(f"{SEED} library {seed}")
    for _ in range(LIBRARY_CASES // 3):
        names, records = _valid_graph(rng)
        for _ in range(rng.randint(1, 3)):
            where = rng.randrange(4)
            if where == 0:
                k = rng.randrange(len(names))
                names[k] = Name(names[k])
            else:
                k = rng.randrange(len(records))
                record = list(records[k])
                if where == 3:
                    record[2] = rng.choice((Small.TWO, True))
                else:
                    record[where - 1] = Name(record[where - 1])
                records[k] = tuple(record)
        message = _first_fault(names, records)
        for build in (DirectedGraph, build_graph):
            with pytest.raises(GraphFormatError) as info:
                build(names, records)
            assert str(info.value) == message


_GROUP = FGAbelianGroup((4,))
_X, _Y = _GROUP.element([1]), _GROUP.element([3])
_ROSE = rose(3)
_K0, _PIS = k0_of_graph(_ROSE), purely_infinite_simple(_ROSE)

# (name in the message, least value, call with the value, whether a huge
# value is cheap); a huge t, entry bound, max_n or m sets the cost of the
# call by its size, which only the CLI caps
INTEGER_ARGUMENTS = [
    ("invariant factors", 2, lambda v: FGAbelianGroup((v,)), True),
    ("free rank", 0, lambda v: FGAbelianGroup((2,), v), True),
    ("scalar", 1, lambda v: scale(_GROUP, v, _X), True),
    ("n, c, d", 1, lambda v: gcd_criterion(4, v, 2), True),
    ("n, c, d", 1, lambda v: gcd_criterion(v, 2, 6), True),
    ("c", 0, lambda v: same_orbit(_GROUP, _X, _Y, v), True),
    ("c", 0, lambda v: orbit_invariant(_GROUP, _X, v), True),
    ("dimension t", 1, lambda v: eigen_search(v, 1, [1] * (v if type(v) is int else 1), 1, 1), False),
    ("entry bound", 1, lambda v: eigen_search(1, v, [1], 1, 1), False),
    ("m and n", 1, lambda v: eigen_search(1, 1, [1], v, 1), True),
    ("m and n", 1, lambda v: eigen_search(1, 1, [1], 1, v), True),
    ("petal count", 0, lambda v: rose(v), True),
    ("matrix sizes", 1, lambda v: matrix_type_equal(_K0, _PIS, 2, v), True),
    ("max_n", 1, lambda v: matrix_type_classes(_K0, _PIS, v), False),
    ("m", 1, lambda v: m_graph(_ROSE, v), False),
]


def _integer_value(rng, least: int, huge: bool):
    values = [True, False, Small.TWO, float(least), least + 0.5, str(least),
              least - 1, least, least + 1]
    return rng.choice(values + [10**40, -(10**40)] if huge else values)


def test_integer_arguments_follow_one_rule():
    rng = random.Random(f"{SEED} integers")
    for case in range(INTEGER_CASES):
        what, least, call, huge = INTEGER_ARGUMENTS[case % len(INTEGER_ARGUMENTS)]
        value = _integer_value(rng, least, huge)
        where = f"case {case}: {what} = {value!r}"
        if type(value) is not int:
            message = f"{what} must be integers, got {value!r}"
        elif value < least:
            message = f"{what} must be at least {least}, got {value!r}"
        else:
            call(value)
            continue
        try:
            call(value)
        except ValueError as exc:
            assert str(exc) == message, where
        else:
            pytest.fail(f"{where}: no ValueError")


# groups with and without torsion and free parts
GROUPS = [FGAbelianGroup((4,)), FGAbelianGroup((2, 6)), FGAbelianGroup((3,), 1), FGAbelianGroup((), 2)]


def _coordinate(rng, d: int | None):
    """A coordinate of any type or value; d is its factor, None for a free one."""
    top = 5 if d is None else d
    return rng.choice([True, False, Small.TWO, 1.0, "1", -1, top, top + 1, 10**40, -(10**40),
                       rng.randrange(top), rng.randrange(top)])


def test_element_coordinates_follow_one_rule():
    rng = random.Random(f"{SEED} elements")
    names = list(ELEMENT_CALLS)
    for case in range(ELEMENT_CASES):
        name = names[case % len(names)]
        finite, call = ELEMENT_CALLS[name]
        group = rng.choice([g for g in GROUPS if g.is_finite or not finite])
        factors = group.invariant_factors + (None,) * group.free_rank
        coords = [_coordinate(rng, d) for d in factors]
        x = GroupElement(coords[:group.torsion_rank], coords[group.torsion_rank:])
        where = f"case {case}: {name} of {x!r} in {group!r}"
        bad = [v for v in coords if type(v) is not int]
        if bad:
            message = f"coordinates must be integers, got {bad[0]!r}"
        elif not all(0 <= v < d for v, d in zip(coords, group.invariant_factors)):
            message = "torsion coordinates must be canonical representatives"
        else:
            call(group, x)
            continue
        try:
            call(group, x)
        except ValueError as exc:
            assert str(exc) == message, where
        else:
            pytest.fail(f"{where}: no ValueError")
