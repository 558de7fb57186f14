"""Checkers for every workload's outputs.

Standard library only, and nothing from ``leavitt``: each checker compares
an output with the sympy reference or with a property stated by the paper
or the CLI contract, and returns a list of problems (empty when correct).
``selftest.py`` feeds each one a wrong answer.
"""

from __future__ import annotations

import json
from math import gcd

DOCUMENTED_EXITS = (0, 2, 3, 4)


# -- exact integer helpers ---------------------------------------------------


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def determinant(m: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def unit_order_rule(n, c: int, d: int) -> bool:
    """The paper's rule: M_c(L(E)) = M_d(L(E)) iff gcd(c, n) == gcd(d, n),
    and iff c == d when [1] has infinite order."""
    if n == "infinite":
        return c == d
    return gcd(c, n) == gcd(d, n)


def scaled_order(n, c: int):
    """Order of c*[1] when [1] has order n."""
    return n if n == "infinite" else n // gcd(c, n)


# -- library outputs ---------------------------------------------------------


def check_invariants(got: dict, ref: dict) -> list[str]:
    """got: invariant_factors, free_rank, unit_order; ref: a reference entry."""
    problems = []
    factors = list(got["invariant_factors"])
    for key in ("invariant_factors", "free_rank", "unit_order"):
        if got[key] != ref[key]:
            problems.append(f"{key} {got[key]!r} != reference {ref[key]!r}")
    if any(f < 2 for f in factors):
        problems.append(f"invariant factors below 2: {factors}")
    for a, b in zip(factors, factors[1:]):
        if a and b % a:
            problems.append(f"factors {a}, {b} break the divisibility chain")
    if ref["det"]:
        size = 1
        for f in factors:
            size *= f
        if got["free_rank"] or size != abs(ref["det"]):
            problems.append(f"factor product {size} != |det(I - A^T)| {abs(ref['det'])}")
    return problems


def check_classes(classes: list[list[int]], n, max_n: int) -> list[str]:
    """Matrix sizes 1..max_n partitioned by gcd(c, n), or singletons."""
    blocks: dict[int, list[int]] = {}
    for c in range(1, max_n + 1):
        blocks.setdefault(c if n == "infinite" else gcd(c, n), []).append(c)
    expected = sorted(blocks.values(), key=lambda b: b[0])
    if [list(b) for b in classes] != expected:
        return [f"classes differ from the gcd partition for n={n}"]
    return []


def check_compare(got: dict, left: dict, c: int, right: dict, d: int) -> list[str]:
    """got: isomorphic, reason, and the K0 summaries of the two head graphs."""
    problems = []
    same_group = (left["invariant_factors"], left["free_rank"]) == (
        right["invariant_factors"], right["free_rank"]
    )
    for side, ref, m in (("left", left, c), ("right", right, d)):
        k0 = got[side]
        if (k0["invariant_factors"], k0["free_rank"]) != (ref["invariant_factors"], ref["free_rank"]):
            problems.append(f"{side}: head graph changed the group")
        if k0["unit_order"] != scaled_order(ref["unit_order"], m):
            problems.append(f"{side}: unit order {k0['unit_order']!r} is not that of {m}*[1]")
    if not same_group:
        expected = (False, "group_mismatch")
    elif unit_order_rule(left["unit_order"], c, d):
        expected = (True, "unit_orbit_match")
    else:
        expected = (False, "unit_orbit_mismatch")
    if (got["isomorphic"], got["reason"]) != expected:
        problems.append(f"verdict {(got['isomorphic'], got['reason'])} != rule {expected}")
    return problems


def check_conditions(flags: tuple, expected: tuple, head_flags: tuple | None) -> list[str]:
    """PIS flags against the construction; a head graph of a PIS graph is PIS."""
    problems = []
    if tuple(flags) != tuple(expected):
        problems.append(f"flags {flags} != construction {expected}")
    if expected[3] and (head_flags is None or not head_flags[3]):
        problems.append("m_graph did not preserve purely infinite simplicity")
    return problems


# -- CLI outputs -------------------------------------------------------------


def one_json_document(stdout: str):
    """The single JSON document on stdout, or None when there is not exactly one."""
    decoder = json.JSONDecoder()
    text = stdout.strip()
    try:
        doc, end = decoder.raw_decode(text)
    except (json.JSONDecodeError, RecursionError):
        return None
    return doc if not text[end:].strip() else None


def cli_failed(code: int, stdout: str) -> bool:
    """A call fails when it leaves the documented exits or the one-document rule."""
    return code not in DOCUMENTED_EXITS or one_json_document(stdout) is None


def check_snf(matrix: list[list[int]], doc: dict) -> list[str]:
    problems = []
    u, dmat, v = doc["U"], doc["D"], doc["V"]
    if matmul(matmul(u, matrix), v) != dmat:
        problems.append("U*A*V != D")
    for name, t in (("U", u), ("V", v)):
        if determinant(t) not in (1, -1):
            problems.append(f"{name} is not unimodular")
    diag = [dmat[i][i] for i in range(min(len(dmat), len(dmat[0])))]
    if any(dmat[i][j] for i in range(len(dmat)) for j in range(len(dmat[0])) if i != j):
        problems.append("D is not diagonal")
    if doc["diagonal"] != diag:
        problems.append("diagonal field does not match D")
    if any(x < 0 for x in diag):
        problems.append("negative diagonal entry")
    for a, b in zip(diag, diag[1:]):
        if (a == 0 and b) or (a and b % a):
            problems.append(f"diagonal {a}, {b} breaks the divisibility chain")
    return problems


def check_cli(call: dict, code: int, doc, catalog: dict) -> list[str]:
    """Exit code and payload of one CLI call that did not fail."""
    if code != call["expect"]:
        return [f"exit {code}, documented {call['expect']}"]
    kind, meta = call["kind"], call["meta"]
    if kind == "error":
        ok = isinstance(doc, dict) and (
            doc.get("error") == code or doc.get("reason") == "undecided_bound_exceeded"
        )
        return [] if ok else [f"exit {code} without an error document"]
    if kind == "snf":
        return check_snf(meta["matrix"], doc)
    if kind in ("analyze", "matrix_type", "classes", "compare", "mgraph"):
        ref = catalog[meta["graph"]]
    if kind == "analyze":
        got = {
            "invariant_factors": doc["invariant_factors"],
            "free_rank": doc["free_rank"],
            "unit_order": doc["unit_order"],
        }
        problems = check_invariants(got, ref)
        if not all(doc["pis"].values()):
            problems.append("catalog graph reported as not purely infinite simple")
        return problems
    if kind == "matrix_type":
        n = ref["unit_order"]
        expected = {
            "verdict": unit_order_rule(n, meta["c"], meta["d"]),
            "regime": "infinite" if n == "infinite" else "finite",
            "n": None if n == "infinite" else n,
        }
        return [] if doc == expected else [f"matrix-type {doc} != {expected}"]
    if kind == "classes":
        return check_classes(doc, ref["unit_order"], meta["max"])
    if kind == "mgraph":
        size = len(ref["graph"]["vertices"])
        m = meta["m"]
        ok = (
            len(doc["vertices"]) == size * m
            and len(doc["edges"]) == len(ref["graph"]["edges"]) + size * (m - 1)
            and doc["vertices"][:size] == ref["graph"]["vertices"]
        )
        return [] if ok else ["mgraph output has the wrong shape"]
    if kind == "compare":
        expected_match = unit_order_rule(ref["unit_order"], meta["c"], meta["d"])
        reason = "unit_orbit_match" if expected_match else "unit_orbit_mismatch"
        ok = doc["isomorphic"] == expected_match and doc["reason"] == reason
        return [] if ok else [f"compare {doc} disagrees with the rule"]
    if kind == "lemma1":
        x_order = 1
        for c, f in zip(meta["x"], meta["factors"]):
            x_order = x_order * (f // gcd(c, f)) // gcd(x_order, f // gcd(c, f))
        rule = gcd(meta["c"], x_order) == gcd(meta["d"], x_order)
        expected = {"criterion": rule, "bruteforce": rule, "agree": True}
        return [] if doc == expected else [f"lemma1 {doc} != {expected}"]
    if kind == "eigen":
        w = doc["witness"]
        if meta["m"] != meta["n"]:
            return [] if w is None else ["eigen witness for m != n"]
        if w is None:
            return ["no eigen witness for m == n"]
        image = [sum(a * b for a, b in zip(row, meta["x"])) for row in w]
        ok = determinant(w) in (1, -1) and [meta["n"] * v for v in image] == [
            meta["m"] * v for v in meta["x"]
        ]
        return [] if ok else ["eigen witness fails n*sigma(x) == m*x"]
    return [f"no checker for {kind!r}"]
