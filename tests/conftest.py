import json
import random

import pytest

from leavitt.graphs import DirectedGraph, build_graph, parse_graph
from leavitt.intmat import IntMatrix


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


@pytest.fixture
def einf() -> DirectedGraph:
    return infinite_order_graph()
