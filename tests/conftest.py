import json
import os
import random
import subprocess
import sys
from enum import IntEnum
from math import gcd
from pathlib import Path

import pytest

import leavitt
from leavitt import intmat
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
from leavitt.graphs import DirectedGraph, build_graph, parse_graph
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


@pytest.fixture
def einf() -> DirectedGraph:
    return infinite_order_graph()
