"""Command-line interface: JSON in, one JSON document out, fixed exit codes.

Exit codes: 0 success, 2 malformed or unreadable input, an argument past
its cap (``MAX_CLASSES``, ``MAX_HEAD_VERTICES``, ``MAX_EIGEN_MATRICES``),
an input too large for memory, an unwritable ``--out`` file, a stdout
that refuses the result (a closed pipe, a full device), or a usage error,
3 hypothesis not satisfied (the graph is not purely infinite simple), 4
size bound exceeded (``oracle lemma1``, or ``compare`` when ``--bound`` is
given; a ``--bound`` below 1 is a usage error, exit 2).  Handlers return
their payload and signal failure by raising; ``main`` maps each exception
to its exit code through one table, so every failure prints one
``{"error": code, "message": ...}`` document, except where stdout itself
fails, which prints an ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import NoReturn

from . import __version__
from .abelian import (
    DEFAULT_SIZE_BOUND,
    BoundExceeded,
    FGAbelianGroup,
    INFINITE,
    automorphism_maps_x_to_y,
    eigen_search,
    element_order,
    gcd_criterion,
    scale,
)
from .graphs import DirectedGraph, PisReport, parse_graph, purely_infinite_simple
from .intmat import IntMatrix, require_ints, smith_normal_form
from .ktheory import k0_of_graph
from .matrixtype import (
    NotPurelyInfiniteSimple,
    _require_pis,
    compare_pointed_k0,
    m_graph,
    matrix_type_classes,
    matrix_type_verdict,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3
EXIT_BOUND = 4

# Caps on the arguments whose size sets a call's cost, each checked before
# the work it would buy; a call past a cap exits 2 (EXIT_INPUT)
MAX_CLASSES = 100_000  # classes --max: the numbers 1..max are built and printed
MAX_HEAD_VERTICES = 100_000  # mgraph --m: (m - 1) * |V| head vertices
MAX_EIGEN_MATRICES = 1_000_000  # oracle eigen: (2 * bound + 1) ** (t * t) matrices in range

# exception -> exit code; main catches exactly these
_EXIT_CODES = {
    ValueError: EXIT_INPUT,  # GraphFormatError, bad JSON and usage errors are ValueErrors
    OSError: EXIT_INPUT,  # an input file that cannot be read, an --out file that cannot be written
    RecursionError: EXIT_INPUT,  # JSON nested too deep to decode; no other recursion runs deep
    MemoryError: EXIT_INPUT,  # an input too large to hold that no cap catches first
    NotPurelyInfiniteSimple: EXIT_HYPOTHESIS,
    BoundExceeded: EXIT_BOUND,
}


def _read_text(path: str) -> str:
    return sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")


def _load_graph(path: str) -> DirectedGraph:
    return parse_graph(_read_text(path))


def _clip(message: str, limit: int = 120) -> str:
    """message cut short: one quoting a 4400-digit argument would fill both streams."""
    cut = len(message) - limit
    return f"{message[:limit]}... [{cut} more characters]" if cut > 0 else message


def _int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(_clip(f"expected a comma-separated integer list, got {text!r}")) from exc


def _order_json(order) -> object:
    return "infinite" if order is INFINITE else order


def _pis_json(report) -> dict:
    return {
        "every_cycle_has_exit": report.every_cycle_has_exit,
        "trivial_hereditary_saturated": report.trivial_hereditary_saturated,
        "every_vertex_connects_to_cycle": report.every_vertex_connects_to_cycle,
        "purely_infinite_simple": report.purely_infinite_simple,
    }


def _cmd_analyze(args) -> object:
    graph = _load_graph(args.graph)
    report = purely_infinite_simple(graph)
    k0 = k0_of_graph(graph)
    payload = {
        "pis": _pis_json(report),
        "invariant_factors": list(k0.group.invariant_factors),
        "free_rank": k0.group.free_rank,
        "unit_coords": list(k0.unit.torsion) + list(k0.unit.free),
        "unit_order": _order_json(k0.unit_order),
    }
    return payload


def _pis_graph(path: str, sizes: tuple[int, ...], what: str) -> tuple[DirectedGraph, PisReport]:
    """The graph at path and its PIS report, after the matrix sizes are
    checked (exit 2) and then the graph conditions (exit 3), so that no
    elimination runs for a call that cannot succeed."""
    graph = _load_graph(path)
    require_ints(sizes, what, least=1)
    report = purely_infinite_simple(graph)
    _require_pis(report)
    return graph, report


def _cmd_matrix_type(args) -> object:
    graph, report = _pis_graph(args.graph, (args.c, args.d), "matrix sizes")
    verdict = matrix_type_verdict(k0_of_graph(graph), report)
    return {
        "verdict": verdict.class_label(args.c) == verdict.class_label(args.d),
        "regime": verdict.regime,
        "n": verdict.unit_order,
    }


def _cmd_classes(args) -> object:
    if args.max > MAX_CLASSES:
        raise ValueError(f"--max {args.max} is over the cap of {MAX_CLASSES}")
    graph, report = _pis_graph(args.graph, (args.max,), "max_n")
    return matrix_type_classes(k0_of_graph(graph), report, args.max)


def _cmd_mgraph(args) -> object:
    graph = _load_graph(args.graph)
    if (args.m - 1) * len(graph.vertices) > MAX_HEAD_VERTICES:
        raise ValueError(f"--m {args.m} on {len(graph.vertices)} vertices would add more"
                         f" than the cap of {MAX_HEAD_VERTICES} head vertices")
    built = m_graph(graph, args.m)
    doc = built.to_json_dict()
    if args.out != "-":
        Path(args.out).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return doc


def _cmd_compare(args) -> object:
    if args.graph_a == args.graph_b == "-":
        raise ValueError("--graph-a and --graph-b cannot both read stdin (-)")
    if args.bound is not None:
        require_ints((args.bound,), "size bound", least=1)
    left = k0_of_graph(_load_graph(args.graph_a))
    right = k0_of_graph(_load_graph(args.graph_b))
    size = max(left.group.torsion_size, right.group.torsion_size)
    if args.bound is not None and size > args.bound:
        raise BoundExceeded(f"group of size {size} exceeds the size bound {args.bound}")
    verdict = compare_pointed_k0(left, right)
    return {
        "isomorphic": verdict.isomorphic,
        "reason": verdict.reason.value,
        "witness": verdict.witness,
    }


def _cmd_snf(args) -> object:
    rows = json.loads(_read_text(args.file or "-"))
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError("matrix must be a JSON array of arrays")
    snf = smith_normal_form(IntMatrix(rows))
    return {
        "U": snf.U.to_lists(),
        "D": snf.D.to_lists(),
        "V": snf.V.to_lists(),
        "diagonal": list(snf.diagonal),
    }


def _cmd_oracle_lemma1(args) -> object:
    group = FGAbelianGroup(tuple(_int_list(args.factors)))
    x = group.element(_int_list(args.x))
    n = element_order(group, x)
    criterion = gcd_criterion(n, args.c, args.d)
    brute = automorphism_maps_x_to_y(
        group, scale(group, args.c, x), scale(group, args.d, x), args.bound
    )
    return {
        "criterion": criterion,
        "bruteforce": brute,
        "agree": criterion == brute,
    }


def _cmd_oracle_eigen(args) -> object:
    if args.t >= 1 and args.bound >= 1:  # else eigen_search names the bad value
        matrices = 1
        for _ in range(args.t * args.t):  # ends once past the cap: each factor is at least 3
            matrices *= 2 * args.bound + 1
            if matrices > MAX_EIGEN_MATRICES:
                raise ValueError(f"--t {args.t} and --bound {args.bound} give more than the cap"
                                 f" of {MAX_EIGEN_MATRICES} matrices, (2*bound+1)**(t*t), to search")
    witness = eigen_search(args.t, args.bound, _int_list(args.x), args.m, args.n)
    return {"witness": None if witness is None else witness.to_lists()}


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors reach main as ValueError, hence exit 2."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        raise ValueError(_clip(message))  # argparse quotes a bad value whole


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="leavitt",
        description=(
            "K0 invariants and matrix-type decisions for Leavitt path "
            "algebras of finite directed graphs"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="graph conditions, K0 invariants, unit order")
    p.add_argument("--graph", required=True, help="graph JSON file, or - for stdin")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("matrix-type", help="decide M_c(L(E)) = M_d(L(E))")
    p.add_argument("--graph", required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=_cmd_matrix_type)

    p = sub.add_parser("classes", help="partition matrix sizes 1..N into classes")
    p.add_argument("--graph", required=True)
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(handler=_cmd_classes)

    p = sub.add_parser("mgraph", help="attach heads realizing M_m(L(E))")
    p.add_argument("--graph", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", required=True, help="output graph file, or - for stdout only")
    p.set_defaults(handler=_cmd_mgraph)

    p = sub.add_parser("compare", help="unit-preserving K0 isomorphism verdict")
    p.add_argument("--graph-a", required=True)
    p.add_argument("--graph-b", required=True)
    p.add_argument("--bound", type=int)  # refuse (exit 4) a larger torsion subgroup
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("snf", help="Smith normal form with transforms")
    p.add_argument("--file", help="matrix JSON file; omitted or - reads stdin")
    p.set_defaults(handler=_cmd_snf)

    p = sub.add_parser("oracle", help="exhaustive brute-force cross-checks")
    oracle_sub = p.add_subparsers(dest="oracle", required=True)

    q = oracle_sub.add_parser(
        "lemma1", help="gcd criterion vs exhaustive automorphism search"
    )
    q.add_argument("--factors", required=True, help="invariant factors, e.g. 2,4")
    q.add_argument("--x", required=True, help="torsion coordinates of x")
    q.add_argument("--c", type=int, required=True)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--bound", type=int, default=DEFAULT_SIZE_BOUND)
    q.set_defaults(handler=_cmd_oracle_lemma1)

    q = oracle_sub.add_parser(
        "eigen", help="search bounded unimodular sigma with n*sigma(x) = m*x"
    )
    q.add_argument("--t", type=int, required=True)
    q.add_argument("--bound", type=int, required=True, help="entry bound for sigma")
    q.add_argument("--x", required=True, help="integer vector, e.g. 1,0")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(handler=_cmd_oracle_eigen)

    return parser


def _emit(payload: object) -> bool:
    """Write payload to stdout as one line of JSON, through its binary
    layer until every byte is taken, and flush it.  When stdout refuses
    the write (a closed pipe, a full device), print one
    error line on stderr, point stdout at os.devnull, as the Python docs
    advise for SIGPIPE, so that the flush at exit cannot fail again, and
    return False."""
    # Python's int-to-str digit limit guards the parsing of inputs, which
    # happens before this; a result of any size is printed whole
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(payload)
    finally:
        sys.set_int_max_str_digits(limit)
    data = (text + "\n").encode()
    try:
        sys.stdout.flush()
        out = getattr(sys.stdout, "buffer", None)
        if out is None:  # a text-only stream put in place of stdout
            sys.stdout.write(text + "\n")
        else:
            # an unbuffered stdout is the raw file, whose write may take
            # part of the bytes, as when the reader closes the pipe midway
            view = memoryview(data)
            while view:
                view = view[out.write(view) :]
            out.flush()
    except OSError as exc:
        print(f"error: cannot write the result to stdout: {exc}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload = args.handler(args)
    except tuple(_EXIT_CODES) as exc:
        code = next(c for kind, c in _EXIT_CODES.items() if isinstance(exc, kind))
        message = str(exc) or type(exc).__name__  # a MemoryError often carries no text
        written = _emit({"error": code, "message": message})
        print(f"error: {message}", file=sys.stderr)
        return code if written else EXIT_INPUT
    return EXIT_OK if _emit(payload) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
