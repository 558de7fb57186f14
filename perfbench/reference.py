"""Regenerate perfbench/reference.json with sympy, independently of leavitt.

    python3 perfbench/reference.py

For every graph the benchmark can draw, it stores the invariant factors and
free rank of K0 = coker(I - A^T), the order of the unit class [1] (the image
of the all-ones vector) and det(I - A^T).  Nothing here imports leavitt.

* k0-scale pool: sympy's Smith normal form of the full 96 x 96 matrix does
  not finish (it picks no small pivots), so the matrix is first brought to
  sympy's Hermite normal form modulo |det|.  A row of that form equal to a
  unit vector e_i splits off an invariant factor 1, so sympy's
  ``smith_normal_form`` runs on the remaining rows and columns, which are a
  handful.  The unit order is the lcm of the denominators of the rational
  solution of (I - A^T) x = 1, from sympy's exact solver over QQ.
* catalog: small graphs, run through sympy's ``smith_normal_decomp``
  directly; the unit order comes from the image of the all-ones vector
  under its left transform.
"""

from __future__ import annotations

import json
import random
import sys
from math import gcd, lcm
from pathlib import Path

from sympy import QQ, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import (
    hermite_normal_form,
    smith_normal_decomp,
    smith_normal_form,
)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

OUT = HERE / "reference.json"


def presentation(doc: dict) -> list[list[int]]:
    """I - A^T on the vertex basis of a graph document."""
    pos = {v: i for i, v in enumerate(doc["vertices"])}
    n = len(pos)
    a = [[0] * n for _ in range(n)]
    for edge in doc["edges"]:
        a[pos[edge[0]]][pos[edge[1]]] += edge[2] if len(edge) == 3 else 1
    return [[int(i == j) - a[j][i] for j in range(n)] for i in range(n)]


def _diagonal(snf: DomainMatrix) -> list[int]:
    rows = snf.to_list()
    return [int(rows[i][i]) for i in range(min(len(rows), len(rows[0])))]


def _summary(diag: list[int], unit_order, det: int) -> dict:
    factors = [abs(d) for d in diag if abs(d) > 1]
    free_rank = sum(1 for d in diag if d == 0)
    factors.sort()
    return {
        "invariant_factors": factors,
        "free_rank": free_rank,
        "unit_order": unit_order,
        "det": det,
    }


def nonsingular_reference(rows: list[list[int]]) -> dict:
    n = len(rows)
    m = DomainMatrix([[ZZ(x) for x in row] for row in rows], (n, n), ZZ)
    det = int(m.det())
    if det == 0:
        return small_reference(rows)
    h = hermite_normal_form(m, D=ZZ(abs(det))).to_list()
    keep = [
        i for i in range(n)
        if not (h[i][i] == 1 and all(h[i][j] == 0 for j in range(n) if j != i))
    ]
    diag = [1] * (n - len(keep))
    if keep:
        block = DomainMatrix([[h[i][j] for j in keep] for i in keep], (len(keep),) * 2, ZZ)
        diag += _diagonal(smith_normal_form(block))
    ones = DomainMatrix([[QQ(1)] for _ in range(n)], (n, 1), QQ)
    x = m.convert_to(QQ).lu_solve(ones).to_list()
    order = 1
    for (v,) in x:
        order = lcm(order, int(QQ.denom(v)))
    return _summary(diag, order, det)


def small_reference(rows: list[list[int]]) -> dict:
    n = len(rows)
    m = DomainMatrix([[ZZ(x) for x in row] for row in rows], (n, n), ZZ)
    snf, s, _ = smith_normal_decomp(m)
    diag = _diagonal(snf)
    coords = [int(sum(row)) for row in s.to_list()]  # s @ (1, ..., 1)
    order = 1
    for c, d in zip(coords, diag):
        if d == 0 and c:
            order = "infinite"
            break
        if d not in (0, 1, -1):
            order = lcm(order, abs(d) // gcd(c, abs(d)))
    return _summary(diag, order, int(m.det()))


def rose(petals: int) -> dict:
    return {"vertices": ["v"], "edges": [["v", "v", petals]]}


def complete(r: int, p: int, b: int) -> dict:
    """Complete graph on r vertices: p edges between distinct vertices and
    p*b + 1 loops, so I - A^T = -p(J + (b-1)I)."""
    mult = {(i, j): p * b + 1 if i == j else p for i in range(r) for j in range(r)}
    return inputs.graph_doc(r, mult, prefix="u")


def free_rank_graphs(count: int) -> list[dict]:
    """Small PIS graphs with a free summand, torsion of size 6-60 and a unit
    of infinite order, found by a fixed seeded search."""
    rng = random.Random("catalog/free")
    found = []
    while len(found) < count:
        n = rng.randint(3, 4)
        mult = {}
        for i in range(n):
            mult[(i, (i + 1) % n)] = rng.randint(1, 3)
            for j in range(n):
                if rng.random() < 0.5:
                    mult[(i, j)] = mult.get((i, j), 0) + rng.randint(1, 4)
        if any(sum(m for (s, _), m in mult.items() if s == i) < 2 for i in range(n)):
            continue  # keep an exit at every vertex
        doc = inputs.graph_doc(n, mult, prefix="w")
        ref = small_reference(presentation(doc))
        size = 1
        for f in ref["invariant_factors"]:
            size *= f
        if ref["free_rank"] and ref["unit_order"] == "infinite" and 6 <= size <= 60:
            found.append(doc)
    return found


def catalog_graphs() -> dict[str, dict]:
    graphs = {f"rose{k}": rose(k) for k in (7, 13, 31, 101, 211, 301, 421, 541)}
    for name in inputs.CLI_GRAPHS + inputs.ORBIT_GRAPHS:
        if name.startswith("K"):
            graphs[name] = complete(*map(int, name[1:].split("_")))
    for name, doc in zip(("free_a", "free_b"), free_rank_graphs(2)):
        graphs[name] = doc
    return graphs


def check(ref: dict) -> None:
    factors = ref["invariant_factors"]
    for a, b in zip(factors, factors[1:]):
        if b % a:
            raise SystemExit(f"sympy factors are not a divisibility chain: {factors}")
    if ref["det"]:
        size = 1
        for f in factors:
            size *= f
        if size != abs(ref["det"]) or ref["free_rank"]:
            raise SystemExit(f"factor product {size} != |det| {abs(ref['det'])}")


def main() -> None:
    catalog = {}
    for name, doc in catalog_graphs().items():
        ref = small_reference(presentation(doc))
        check(ref)
        catalog[name] = {"graph": doc, **ref}
    pool = {}
    for n in inputs.K0_SIZES:
        for index in range(inputs.K0_POOL):
            doc = inputs.scc_graph(n, index)
            ref = nonsingular_reference(presentation(doc))
            check(ref)
            pool[f"{n}/{index}"] = {"sha256": inputs.sha256(doc), **ref}
        print(f"k0-scale pool: n={n} done", file=sys.stderr, flush=True)
    OUT.write_text(
        json.dumps({"catalog": catalog, "k0_scale": pool}, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()
