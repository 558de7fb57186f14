"""Seeded inputs for the four workloads.

Standard library only, and nothing from ``leavitt``: the program under test
receives only the documents built here.  Every generator takes its
randomness from ``random.Random(<string>)``, which hashes the string with
SHA-512, so the inputs do not depend on PYTHONHASHSEED.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import gcd

# Every workload runs a fixed set of operations, the same for every seed;
# the seed orders the set (and sets the string hash seed, see run.py).
# Fixed sets keep the work of two runs identical, so their figures differ
# only by the machine and by the program.

# k0-scale: random strongly connected multigraphs, K0_POOL per vertex count;
# the set is the whole pool, 104 graphs.
K0_SIZES = tuple(range(48, 97, 4))
K0_POOL = 8
K0_CLASSES_MAX = 64

# graph-conditions: large sparse graphs.  Slot i of round r has the kind
# GC_KINDS[i] and GC_SIZES[(i + r) % 12] vertices; the set is GC_ROUNDS
# rounds, 108 graphs.
GC_SIZES = tuple(range(100, 145, 4))
GC_KINDS = (
    "pis", "pis", "pis", "sink",
    "pis", "pis", "pis", "no_exit",
    "pis", "pis", "pis", "hereditary",
)
GC_ROUNDS = 9
GC_HEAD = 2

# Flags expected by construction, in PisReport field order.
EXPECTED_FLAGS = {
    "pis": (True, True, True, True),
    "sink": (True, False, False, False),
    "no_exit": (False, False, True, False),
    "hereditary": (True, False, True, False),
}
FLAG_NAMES = (
    "every_cycle_has_exit",
    "trivial_hereditary_saturated",
    "every_vertex_connects_to_cycle",
    "purely_infinite_simple",
)

# compare-orbit: catalog graphs (stored in reference.json).  Kr_p_b is the
# complete graph on r vertices with p edges between distinct vertices and
# p*b + 1 loops; its K0 is p*(1, k, ..., k, k(k + r)) with k = b - 1.
# Torsion sizes run from 80 to 1008, in shapes cyclic (roses), rank 2, 3, 4
# and 5, plus two graphs with a free summand and a unit of infinite order.
ORBIT_GRAPHS = (
    "rose101", "rose211", "rose301", "rose421", "rose541",
    "K2_2_7", "K2_2_9", "K2_2_11", "K2_2_13", "K2_2_15",
    "K2_3_6", "K2_3_8", "K2_3_10", "K2_4_5", "K2_4_7", "K2_4_8",
    "K2_5_5", "K2_5_6", "K2_6_4", "K2_6_5",
    "K3_2_3", "K3_2_4", "K3_3_2", "K3_3_3", "K3_4_2", "K3_5_2",
    "K4_2_2", "K4_2_3", "K5_2_2",
    "free_a", "free_b",
)
# pairs of graphs with different groups; one per round
ORBIT_MISMATCH = (("K2_4_5", "K2_2_7"), ("K3_4_2", "K2_4_8"), ("rose421", "K3_3_3"))
ORBIT_ROUNDS = 12
HEAD_VERTICES = 24

# cli-mix: CLI_CYCLES cycles of 14 calls on small catalog graphs, with the
# two inputs that fail today.
CLI_CYCLES = 10
CLI_GRAPHS = ("rose7", "rose13", "rose31", "K2_2_2", "K2_4_2", "K3_2_2", "free_a")
CLI_FINITE_GRAPHS = CLI_GRAPHS[:-1]  # --bound 2 must trip on these
SNF_BIG = [[3**200, 0], [0, 2**200]]
SNF_HUGE = [[3**400, 0], [0, 2**400]]
DEEP_JSON_DEPTH = 100_000


def graph_doc(n: int, mult: dict[tuple[int, int], int], prefix: str = "v") -> dict:
    """Graph document on vertices prefix0..prefix{n-1}, edges in insertion order."""
    return {
        "vertices": [f"{prefix}{i}" for i in range(n)],
        "edges": [[f"{prefix}{s}", f"{prefix}{t}", m] for (s, t), m in mult.items()],
    }


def dumps(doc: object) -> str:
    return json.dumps(doc, separators=(",", ":"))


def sha256(doc: object) -> str:
    return hashlib.sha256(dumps(doc).encode()).hexdigest()


def scc_graph(n: int, index: int) -> dict:
    """Pool graph: a ring plus two random edges per vertex, multiplicities 1-3.

    The ring makes it strongly connected and every vertex has at least two
    out-edges, so every cycle has an exit: the graph is purely infinite simple.
    """
    rng = random.Random(f"k0-scale/{n}/{index}")
    mult: dict[tuple[int, int], int] = {}
    for i in range(n):
        mult[(i, (i + 1) % n)] = rng.randint(1, 3)
        for _ in range(2):
            key = (i, rng.randrange(n))
            mult[key] = mult.get(key, 0) + rng.randint(1, 3)
    return graph_doc(n, mult)


def _sparse_core(n: int, rng: random.Random) -> dict[tuple[int, int], int]:
    """Ring with multiplicity 1-2 plus one random edge per vertex."""
    mult: dict[tuple[int, int], int] = {}
    for i in range(n):
        mult[(i, (i + 1) % n)] = rng.randint(1, 2)
        key = (i, rng.randrange(n))
        mult[key] = mult.get(key, 0) + 1
    return mult


def condition_graph(kind: str, n: int, rng: random.Random) -> dict:
    """A graph on n vertices built to have the flags EXPECTED_FLAGS[kind].

    pis: a sparse strongly connected core with an exit at every vertex.
    sink: a core of n-1 vertices plus a sink fed by one core vertex.
    no_exit: a core plus a 4-cycle of single edges entered from the core.
    hereditary: a core plus an 8-vertex strongly connected tail with exits,
    entered from the core and never left; the tail is a proper hereditary
    saturated set.
    """
    if kind == "pis":
        return graph_doc(n, _sparse_core(n, rng))
    if kind == "sink":
        mult = _sparse_core(n - 1, rng)
        mult[(rng.randrange(n - 1), n - 1)] = 1
        return graph_doc(n, mult)
    if kind == "no_exit":
        core = n - 4
        mult = _sparse_core(core, rng)
        for k in range(4):
            mult[(core + k, core + (k + 1) % 4)] = 1
        mult[(rng.randrange(core), core)] = 1
        return graph_doc(n, mult)
    if kind == "hereditary":
        core = n - 8
        mult = _sparse_core(core, rng)
        for k, m in _sparse_core(8, rng).items():
            mult[(core + k[0], core + k[1])] = m
        mult[(rng.randrange(core), core + rng.randrange(8))] = 1
        return graph_doc(n, mult)
    raise ValueError(f"unknown graph kind {kind!r}")


def head_graph(doc: dict, m: int) -> dict:
    """Attach to each vertex a chain of m-1 new vertices ending at it.

    The benchmark's own construction of a graph for M_m(L(E)), used to make
    inputs for the CLI's compare; it shares no code with leavitt.m_graph.
    """
    vertices = list(doc["vertices"])
    edges = [list(e) for e in doc["edges"]]
    for v in doc["vertices"]:
        chain = [f"{v}~{j}" for j in range(1, m)]
        vertices.extend(chain)
        for a, b in zip(chain, chain[1:] + [v]):
            edges.append([a, b, 1])
    return {"vertices": vertices, "edges": edges}


def _pair_pools(entry: dict) -> tuple[list, list]:
    """Matching and mismatching (c, d) pairs for a catalog graph.

    Multipliers run up to HEAD_VERTICES / |E|, raised until both pools are
    nonempty.
    """
    n = entry["unit_order"]
    top = max(2, HEAD_VERTICES // len(entry["graph"]["vertices"]))
    while True:
        match, miss = [], []
        for c in range(1, top + 1):
            for d in range(1, top + 1):
                same = c == d if n == "infinite" else gcd(c, n) == gcd(d, n)
                if n == "infinite" or c != d:
                    (match if same else miss).append((c, d))
        if match and miss:
            return match, miss
        top += 1


def seeded_order(seed: int, workload: str, groups: list[list], repeats: int) -> list:
    """The fixed set, repeats times over; the items of each group in a seeded order."""
    rng = random.Random(f"{workload}/order/{seed}")
    out = []
    for _ in range(repeats):
        for group in groups:
            items = list(group)
            rng.shuffle(items)
            out.extend(items)
    return out


def k0_plan(seed: int, repeats: int) -> list[tuple[int, int]]:
    """(vertex count, pool index) for each k0-scale operation."""
    pool = [(n, index) for n in K0_SIZES for index in range(K0_POOL)]
    return seeded_order(seed, "k0-scale", [pool], repeats)


def conditions_plan(seed: int, repeats: int) -> list[tuple[str, dict]]:
    """(kind, graph document) for each graph-conditions operation."""
    graphs = []
    for r in range(GC_ROUNDS):
        for i, kind in enumerate(GC_KINDS):
            n = GC_SIZES[(i + r) % len(GC_SIZES)]
            rng = random.Random(f"graph-conditions/{r}/{i}")
            graphs.append((kind, condition_graph(kind, n, rng)))
    return seeded_order(seed, "graph-conditions", [graphs], repeats)


def orbit_plan(seed: int, repeats: int, catalog: dict) -> list[tuple[str, int, str, int]]:
    """(left graph, c, right graph, d) for each compare-orbit operation.

    Round r asks every graph once, alternating between a matching pair and
    a mismatching pair by the paper's rule (for a unit of infinite order:
    c == d and c != d), then one pair of graphs with different groups.  The
    rounds keep their order, so the first meets every group for the first
    time; the seed orders the graphs within each round.
    """
    rounds = []
    for r in range(ORBIT_ROUNDS):
        ops = []
        for index, name in enumerate(ORBIT_GRAPHS):
            rng = random.Random(f"compare-orbit/{name}/{r}")
            c, d = rng.choice(_pair_pools(catalog[name])[(index + r) % 2])
            ops.append((name, c, name, d))
        a, b = ORBIT_MISMATCH[r % len(ORBIT_MISMATCH)]
        rng = random.Random(f"compare-orbit/mismatch/{r}")
        ops.append((a, rng.randint(1, 3), b, rng.randint(1, 3)))
        rounds.append(ops)
    return seeded_order(seed, "compare-orbit", rounds, repeats)


def deep_json(depth: int) -> str:
    return "[" * depth + "]" * depth


def cli_plan(seed: int, repeats: int, catalog: dict) -> list[dict]:
    """One dict per CLI call: argv after ``-m leavitt``, stdin, files, expectation.

    ``expect`` is the documented exit code; ``kind`` names the checker and
    ``meta`` carries what it needs.  File names are relative to the work
    directory the runner creates.
    """
    plan = []
    for r in range(CLI_CYCLES):
        rng = random.Random(f"cli-mix/{r}")
        a, b, small = (rng.choice(CLI_GRAPHS) for _ in range(3))
        finite = rng.choice(CLI_FINITE_GRAPHS)
        c, d, m = rng.randint(1, 12), rng.randint(1, 12), rng.randint(2, 4)
        small_entry = catalog[small]
        cc, dd = rng.randint(1, 3), rng.randint(1, 3)
        matrix = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        factors = rng.choice(((4,), (2, 4), (12,), (2, 6), (3, 9)))
        x = [rng.randrange(f) for f in factors]
        lc, ld = rng.randint(1, 8), rng.randint(1, 8)
        vec = [rng.randint(1, 2), rng.randint(0, 2)]
        em, en = rng.randint(1, 2), rng.randint(1, 2)
        sink = condition_graph("sink", 4, rng)
        head_file, graph_file = f"head-{r}.json", f"graph-{r}.json"
        plan += [
            dict(kind="analyze", argv=["analyze", "--graph", "-"],
                 stdin=dumps(catalog[a]["graph"]), expect=0, meta={"graph": a}),
            dict(kind="matrix_type", argv=["matrix-type", "--graph", "-", "--c", str(c), "--d", str(d)],
                 stdin=dumps(catalog[a]["graph"]), expect=0, meta={"graph": a, "c": c, "d": d}),
            dict(kind="classes", argv=["classes", "--graph", "-", "--max", "24"],
                 stdin=dumps(catalog[b]["graph"]), expect=0, meta={"graph": b, "max": 24}),
            dict(kind="mgraph", argv=["mgraph", "--graph", "-", "--m", str(m), "--out", "-"],
                 stdin=dumps(catalog[b]["graph"]), expect=0, meta={"graph": b, "m": m}),
            dict(kind="compare", argv=["compare", "--graph-a", head_file, "--graph-b", "-"],
                 stdin=dumps(head_graph(small_entry["graph"], dd)),
                 files={head_file: dumps(head_graph(small_entry["graph"], cc))},
                 expect=0, meta={"graph": small, "c": cc, "d": dd}),
            dict(kind="error", argv=["compare", "--graph-a", "-", "--graph-b", graph_file, "--bound", "2"],
                 stdin=dumps(catalog[finite]["graph"]),
                 files={graph_file: dumps(catalog[finite]["graph"])}, expect=4, meta={}),
            dict(kind="error", argv=["matrix-type", "--graph", "-", "--c", "1", "--d", "2"],
                 stdin=dumps(sink), expect=3, meta={}),
            dict(kind="error", argv=["analyze", "--graph", "-"],
                 stdin=dumps({"vertices": ["a"], "edges": [["a", "b"]]}), expect=2, meta={}),
            dict(kind="snf", argv=["snf"], stdin=dumps(matrix), expect=0, meta={"matrix": matrix}),
            dict(kind="snf", argv=["snf"], stdin=dumps(SNF_BIG), expect=0, meta={"matrix": SNF_BIG}),
            dict(kind="snf", argv=["snf"], stdin=dumps(SNF_HUGE), expect=0, meta={"matrix": SNF_HUGE}),
            dict(kind="error", argv=["snf"], stdin=deep_json(DEEP_JSON_DEPTH), expect=2, meta={}),
            dict(kind="lemma1",
                 argv=["oracle", "lemma1", "--factors", ",".join(map(str, factors)),
                       "--x", ",".join(map(str, x)), "--c", str(lc), "--d", str(ld)],
                 stdin="", expect=0, meta={"factors": factors, "x": x, "c": lc, "d": ld}),
            dict(kind="eigen",
                 argv=["oracle", "eigen", "--t", "2", "--bound", "1",
                       "--x", ",".join(map(str, vec)), "--m", str(em), "--n", str(en)],
                 stdin="", expect=0, meta={"x": vec, "m": em, "n": en}),
        ]
    return seeded_order(seed, "cli-mix", [plan], repeats)
