import itertools
import json
import os
import random
import subprocess
import sys
from enum import IntEnum
from math import gcd, prod
from pathlib import Path

import pytest

import leavitt
from leavitt import intmat, ktheory
from leavitt.abelian import (
    add,
    apply_automorphism,
    automorphism_maps_x_to_y,
    element_order,
    negate,
    orbit_invariant,
    same_orbit,
    scale,
)
from leavitt.graphs import DirectedGraph, build_graph, parse_graph, purely_infinite_simple
from leavitt.intmat import IntMatrix
from leavitt.matrixtype import pointed_iso_exists


class Small(IntEnum):
    """An int subclass, which every integer check refuses."""

    TWO = 2


class Name(str):
    """A str subclass, which the graph check refuses as a name or endpoint."""


def module_env(env=None) -> dict:
    """The environment of a ``python -m leavitt`` child that imports the
    package under test, with env added."""
    src = str(Path(leavitt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, **(env or {}), "PYTHONPATH": path}


def run_module(*argv, text=True, timeout=None, env=None, stdin=None):
    """``python -m leavitt`` in a child that imports the package under test,
    with env added to its environment and stdin as its input."""
    return subprocess.run(
        [sys.executable, "-m", "leavitt", *argv],
        input=stdin,
        capture_output=True,
        text=text,
        env=module_env(env),
        timeout=timeout,
    )


def _basis(group):
    return [group.element([int(i == j) for j in range(group.torsion_rank)])
            for i in range(group.torsion_rank)]


# every function that takes a group element: whether it needs a finite
# group, and a call with a group g and the probed element x in each place
# the function takes an element
ELEMENT_CALLS = {
    "element_order": (False, lambda g, x: element_order(g, x)),
    "scale": (False, lambda g, x: scale(g, 3, x)),
    "add_x": (False, lambda g, x: add(g, x, g.identity())),
    "add_y": (False, lambda g, x: add(g, g.identity(), x)),
    "negate": (False, lambda g, x: negate(g, x)),
    "same_orbit_x": (False, lambda g, x: same_orbit(g, x, g.identity())),
    "same_orbit_y": (False, lambda g, x: same_orbit(g, g.identity(), x, 2)),
    "orbit_invariant": (False, lambda g, x: orbit_invariant(g, x)),
    "pointed_iso_exists_x": (False, lambda g, x: pointed_iso_exists(g, x, g.identity())),
    "pointed_iso_exists_y": (False, lambda g, x: pointed_iso_exists(g, g.identity(), x)),
    "automorphism_maps_x_to_y_x": (True, lambda g, x: automorphism_maps_x_to_y(g, x, g.identity())),
    "automorphism_maps_x_to_y_y": (True, lambda g, x: automorphism_maps_x_to_y(g, g.identity(), x)),
    "apply_automorphism_x": (True, lambda g, x: apply_automorphism(g, _basis(g), x)),
    "apply_automorphism_image": (
        True, lambda g, x: apply_automorphism(g, [x] + _basis(g)[1:], g.identity())),
}


def chains_upto(bound: int, include_trivial: bool = True):
    """All invariant-factor chains d1 | d2 | ... with product <= bound."""
    out = set()

    def rec(prefix, space):
        out.add(tuple(prefix))
        k = prefix[-1] if prefix else 2
        while k <= space:
            if not prefix or k % prefix[-1] == 0:
                prefix.append(k)
                rec(prefix, space // k)
                prefix.pop()
            k += 1

    rec([], bound)
    if not include_trivial:
        out.discard(())
    return sorted(out)


def mat_vec(matrix: IntMatrix, vector) -> tuple[int, ...]:
    """Matrix-vector product over the integers."""
    assert len(vector) == matrix.cols
    return tuple(sum(a * b for a, b in zip(row, vector)) for row in matrix)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b == g, where |g| == gcd(a, b)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def unit_scalar(source, target, d: int):
    """The unit mu modulo d with target == mu * source modulo d, entry by
    entry, or None if there is none; source must map onto Z/d.  Euclid over
    the entries finds a with a . source == g, g prime to d, and mu is then
    (a . target) / g."""
    g = image = 0
    for x, y in zip(source, target):
        g, p, q = _xgcd(g, x)
        image = p * image + q * y
    mu = image * pow(g, -1, d) % d
    if gcd(mu, d) == 1 and all((y - mu * x) % d == 0 for x, y in zip(source, target)):
        return mu
    return None


@pytest.fixture(autouse=True)
def cold_cokernel_memo():
    """Every test starts with an empty cokernel memo of k0_of_graph, so a
    graph that an earlier test met runs the elimination again."""
    ktheory._contracted_cokernel.cache_clear()


def reduce_moduli(monkeypatch) -> list[int]:
    """The moduli of the gcd-phase calls from here on (0 for one over Z)."""
    moduli = []
    reduce = intmat._reduce

    def recording(a, row_log, col_log, modulus=0):
        moduli.append(modulus)
        reduce(a, row_log, col_log, modulus)

    monkeypatch.setattr(intmat, "_reduce", recording)
    return moduli


def infinite_order_graph() -> DirectedGraph:
    """Two-vertex graph with adjacency [[3,1],[2,2]]: K0 = Z, unit of infinite order."""
    return parse_graph(
        json.dumps(
            {
                "vertices": ["v1", "v2"],
                "edges": [
                    ["v1", "v1", 3],
                    ["v1", "v2", 1],
                    ["v2", "v1", 2],
                    ["v2", "v2", 2],
                ],
            }
        )
    )


def scc_graph(n: int, seed: int) -> DirectedGraph:
    """A ring plus 2 random edges per vertex, multiplicities 1-3."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n], rng.randint(1, 3)) for i in range(n)]
    edges += [(s, rng.choice(names), rng.randint(1, 3)) for s in names for _ in range(2)]
    return build_graph(names, edges)


def family_graph(family: str, n: int, seed: int = 0) -> DirectedGraph:
    """A seeded graph on n vertices from one of the input families that
    K0 is timed on against scc_graph(n, 0), its nonsingular twin:
    "blocks", n // 2 disjoint blocks x, y with loops of multiplicity 3 and
    edges x -> y and y -> x of multiplicity 2, so that I - A^T is
    [[-2, -2], [-2, -2]] on each, with no unit (K0 is Z/2 + Z each);
    "sinks", scc_graph's ring with 2 random edges per vertex on n - 8
    vertices, and 8 sinks, each fed from a distinct ring vertex; "dense",
    each edge, loops too, with probability 1/2 and multiplicity 1."""
    rng = random.Random(f"{family}/{n}/{seed}")
    if family == "blocks":
        names = [f"{v}{b}" for b in range(n // 2) for v in "xy"]
        edges = [(f"{v}{b}", f"{w}{b}", 3 if v == w else 2)
                 for b in range(n // 2) for v in "xy" for w in "xy"]
        return build_graph(names, edges)
    if family == "sinks":
        core = scc_graph(n - 8, seed)
        feeders = rng.sample(core.vertices, 8)
        return build_graph([*core.vertices, *(f"s{i}" for i in range(8))],
                           [*core.edges, *((v, f"s{i}", rng.randint(1, 3))
                                           for i, v in enumerate(feeders))])
    if family == "dense":
        names = [f"v{i}" for i in range(n)]
        return build_graph(names, [(s, t, 1) for s in names for t in names if rng.random() < 0.5])
    raise ValueError(f"unknown family {family!r}")


def small_graphs():
    """Every graph on 2 vertices with multiplicity 0-3 on each ordered pair
    of vertices, loops included, then every graph on 3 vertices with
    multiplicity 0-2: 4^4 + 3^9 = 19,939 graphs, in a fixed order."""
    for n, top in ((2, 3), (3, 2)):
        names = [f"v{i}" for i in range(n)]
        pairs = list(itertools.product(names, repeat=2))
        for mults in itertools.product(range(top + 1), repeat=len(pairs)):
            yield build_graph(names, [(s, t, k) for (s, t), k in zip(pairs, mults) if k])


@pytest.fixture(scope="session")
def census() -> tuple[DirectedGraph, ...]:
    """The purely infinite simple graphs among small_graphs (12,309 of
    them), built once per session."""
    return tuple(g for g in small_graphs() if purely_infinite_simple(g).purely_infinite_simple)


def huge_graph(n: int, digits: int, seed: int = 0) -> DirectedGraph:
    """scc_graph's shape, a ring plus 2 random edges per vertex, with every
    multiplicity drawn with exactly the given number of decimal digits
    (edges that repeat a pair add up)."""
    rng = random.Random(f"huge/{n}/{digits}/{seed}")
    names = [f"v{i}" for i in range(n)]
    targets = [names[(i + 1) % n] for i in range(n)] + [rng.choice(names) for _ in range(2 * n)]
    sources = names + [s for s in names for _ in range(2)]
    return build_graph(names, [(s, t, rng.randrange(10 ** (digits - 1), 10**digits))
                               for s, t in zip(sources, targets)])


def presentation_rows(graph: DirectedGraph) -> list[list[int]]:
    """I - A^T restricted to the columns of the vertices that emit edges,
    as plain rows built from the edge list alone."""
    index = {v: i for i, v in enumerate(graph.vertices)}
    regular = sorted({index[s] for s, _, _ in graph.edges})
    column = {v: j for j, v in enumerate(regular)}
    rows = [[int(i == v) for v in regular] for i in range(len(index))]
    for s, t, mult in graph.edges:
        rows[index[t]][column[index[s]]] -= mult
    return rows


# the 24 largest primes below 2**61, for exact_rank_det
PRIMES_61 = tuple(2**61 - d for d in (1, 31, 45, 229, 259, 283, 339, 391, 403, 465, 531, 579,
                                      675, 759, 799, 819, 829, 843, 859, 939, 985, 1015, 1153, 1195))


def rank_mod(rows, p: int) -> tuple[int, int]:
    """The rank of an integer matrix modulo a prime p and, for a square
    one, its determinant modulo p (0 for any other).  Gaussian elimination
    on sparse rows: each pivot is the entry, in a row with the fewest
    nonzeros, whose column the fewest rows hold, and clears that column in
    the rows not yet pivoted.  Taken in pivot order, the rows and columns
    then form an upper triangular matrix with the pivots on its diagonal,
    so det is the pivots' product times the sign of the permutation that
    takes each pivot's row to its column.  It shares no code with intmat."""
    a = [{j: x % p for j, x in enumerate(row) if x % p} for row in rows]
    holders = [set() for _ in range(len(rows[0]))]
    for i, row in enumerate(a):
        for j in row:
            holders[j].add(i)
    left, pivots, det = set(range(len(a))), {}, 1
    while (r := min((i for i in left if a[i]), key=lambda i: (len(a[i]), i), default=None)) is not None:
        pivot_row = a[r]
        c = min(pivot_row, key=lambda j: (len(holders[j]), j))
        left.discard(r)
        for j in pivot_row:
            holders[j].discard(r)
        inverse = pow(pivot_row[c], -1, p)
        det = det * pivot_row[c] % p
        pivots[r] = c
        for i in sorted(holders[c]):
            row = a[i]
            f = row[c] * inverse % p
            for j, x in pivot_row.items():
                y = (row.get(j, 0) - f * x) % p
                if y:
                    holders[j].add(i)
                    row[j] = y
                else:
                    row.pop(j, None)
                    holders[j].discard(i)
    if len(pivots) < len(a) or len(a) != len(rows[0]):
        return len(pivots), 0
    seen = set()
    for start in pivots:  # a cycle of even length is an odd permutation
        length, v = 0, start
        while v not in seen:
            seen.add(v)
            v, length = pivots[v], length + 1
        det = -det if length % 2 == 0 < length else det
    return len(pivots), det % p


def exact_rank_det(rows) -> tuple[int, int]:
    """The rank of an integer matrix and its determinant (0 unless it is
    square and nonsingular), exactly: rank_mod modulo the primes of
    PRIMES_61 until their product P passes twice the Hadamard bound H,
    the product of the lengths of the nonzero columns, then CRT.  A nonzero
    minor of the rank r has absolute value at most H < P, so not every
    prime divides it: the largest rank modulo a prime is r.  And P > 2 |det
    A|, so the residue of det A modulo P in (-P/2, P/2) is det A."""
    bound = prod(sum(x * x for x in column) for column in zip(*rows) if any(column))  # H^2
    rank, det, modulus = 0, 0, 1
    for p in PRIMES_61:
        r, d = rank_mod(rows, p)
        rank = max(rank, r)
        # CRT: det is d modulo p and the old det modulo the product so far
        det += modulus * ((d - det) * pow(modulus, -1, p) % p)
        modulus *= p
        if modulus * modulus > 4 * bound:
            return rank, det if 2 * det < modulus else det - modulus
    raise ValueError("PRIMES_61 has too few primes for the Hadamard bound of this matrix")


@pytest.fixture
def einf() -> DirectedGraph:
    return infinite_order_graph()
