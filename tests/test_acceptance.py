"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with output visible:

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import random
import time
from math import gcd, prod

from leavitt.abelian import (
    FGAbelianGroup,
    INFINITE,
    add,
    automorphism_maps_x_to_y,
    eigen_search,
    element_order,
    gcd_criterion,
    negate,
    scale,
)
from leavitt.graphs import purely_infinite_simple, rose
from leavitt.intmat import IntMatrix, determinant, smith_normal_form, unimodular_check
from leavitt.ktheory import k0_of_graph
from leavitt.matrixtype import (
    compare_pointed_k0,
    m_graph,
    matrix_type_classes,
    matrix_type_equal,
    pointed_iso_exists,
)

from conftest import chains_upto, infinite_order_graph, mat_vec


def _finish(num, label, start, budget, failures):
    elapsed = time.perf_counter() - start
    status = "PASS" if not failures else "FAIL"
    suffix = f" / budget {budget:.0f}s" if budget else ""
    print(f"[criterion {num}] {status} {label} ({elapsed:.2f}s{suffix})")
    assert not failures, (
        f"criterion {num}: {len(failures)} violations, first: {failures[0]}"
    )
    if budget:
        assert elapsed < budget, (
            f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s"
        )


def test_criterion_1_exhaustive_gcd_equivalence():
    # every invariant-factor chain with |G| <= 64, every element, c, d <= 10:
    # the exhaustive automorphism search agrees with gcd(c, n) == gcd(d, n)
    start = time.perf_counter()
    failures = []
    for factors in chains_upto(64):
        group = FGAbelianGroup(factors)
        answers = {}  # the oracle's answers; phi(x) == y iff phi^-1(y) == x
        for x in group.elements():
            n = element_order(group, x)
            for c in range(1, 11):
                cx = scale(group, c, x)
                for d in range(1, 11):
                    dx = scale(group, d, x)
                    if (cx, dx) not in answers:
                        answers[cx, dx] = answers[dx, cx] = automorphism_maps_x_to_y(group, cx, dx)
                    if answers[cx, dx] != gcd_criterion(n, c, d):
                        failures.append((factors, x, c, d))
    _finish(1, "automorphism oracle == gcd criterion, |G| <= 64", start, 60, failures)


def test_criterion_2_rose_golden_values():
    start = time.perf_counter()
    failures = []
    for q in range(2, 10):
        k0 = k0_of_graph(rose(q))
        expected_factors = () if q == 2 else (q - 1,)
        ok = (
            k0.group.invariant_factors == expected_factors
            and k0.group.free_rank == 0
            and k0.unit_order == q - 1
            and element_order(k0.group, k0.unit) == k0.group.torsion_size
        )
        if not ok:
            failures.append((q, k0.group, k0.unit_order))
    _finish(2, "rose(q) gives unit order q-1, unit generates", start, 1, failures)


def test_criterion_3_consistency_triangle():
    # gcd rule, brute-force oracle on K0, and the pointed-K0 comparison of
    # the head graphs must return identical booleans
    start = time.perf_counter()
    failures = []
    for q in range(2, 9):
        graph = rose(q)
        pis = purely_infinite_simple(graph)
        k0 = k0_of_graph(graph)
        heads = {m: k0_of_graph(m_graph(graph, m)) for m in range(1, 9)}
        for c in range(1, 9):
            for d in range(1, 9):
                via_rule = matrix_type_equal(k0, pis, c, d)
                via_oracle = automorphism_maps_x_to_y(
                    k0.group,
                    scale(k0.group, c, k0.unit),
                    scale(k0.group, d, k0.unit),
                )
                via_compare = compare_pointed_k0(heads[c], heads[d]).isomorphic
                if not (via_rule == via_oracle == via_compare):
                    failures.append((q, c, d, via_rule, via_oracle, via_compare))
    _finish(3, "rule == oracle == pointed-K0 comparison on roses", start, 120, failures)


def test_criterion_4_invariant_matrix_number_regime():
    start = time.perf_counter()
    failures = []
    graph = infinite_order_graph()
    pis = purely_infinite_simple(graph)
    k0 = k0_of_graph(graph)
    if not pis.purely_infinite_simple:
        failures.append("not certified purely infinite simple")
    if k0.unit_order is not INFINITE:
        failures.append(f"unit order {k0.unit_order} is not INFINITE")
    for c in range(1, 13):
        for d in range(1, 13):
            if matrix_type_equal(k0, pis, c, d) != (c == d):
                failures.append((c, d))
    _finish(4, "infinite unit order: M_c = M_d iff c == d", start, 1, failures)


def test_criterion_5_snf_contract_fuzz():
    start = time.perf_counter()
    failures = []
    rng = random.Random(20260810)
    for i in range(1000):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        snf = smith_normal_form(a)
        diag = snf.diagonal
        nonzero = [x for x in diag if x]
        ok = (
            (snf.U @ a) @ snf.V == snf.D
            and unimodular_check(snf.U)
            and unimodular_check(snf.V)
            and all(x >= 0 for x in diag)
            and all(b % x == 0 for x, b in zip(nonzero, nonzero[1:]))
            and all(x == 0 for x in diag[len(nonzero):])
        )
        if ok and m == n:
            det = determinant(a)
            if det:
                ok = prod(nonzero) == abs(det)
        if not ok:
            failures.append((i, a.to_lists()))
    _finish(5, "1000 random SNFs satisfy the full contract", start, 10, failures)


def test_criterion_6_eigen_exhaustive_search():
    start = time.perf_counter()
    failures = []
    vectors = {1: [(a,) for a in (-2, -1, 1, 2)]}
    vectors[2] = [(a, b) for a in (-2, -1, 1, 2) for b in (-2, -1, 1, 2)]
    for t in (1, 2):
        for x in vectors[t]:
            for m in range(1, 5):
                for n in range(1, 5):
                    witness = eigen_search(t, 3, x, m, n)
                    if m != n:
                        if witness is not None:
                            failures.append((t, x, m, n, witness.to_lists()))
                    else:
                        identity = IntMatrix(
                            [[int(i == j) for j in range(t)] for i in range(t)]
                        )
                        identity_valid = tuple(
                            n * s for s in mat_vec(identity, x)
                        ) == tuple(m * v for v in x)
                        if witness is None or not identity_valid:
                            failures.append((t, x, m, n, None))
                        elif not unimodular_check(witness) or tuple(
                            n * s for s in mat_vec(witness, x)
                        ) != tuple(m * v for v in x):
                            failures.append((t, x, m, n, witness.to_lists()))
    _finish(6, "no bounded unimodular witness for m != n", start, 30, failures)


def test_criterion_7_unit_scaling_law():
    start = time.perf_counter()
    failures = []
    for q in range(2, 9):
        base = k0_of_graph(rose(q))
        for m in range(1, 9):
            k0 = k0_of_graph(m_graph(rose(q), m))
            expected = (q - 1) // gcd(m, q - 1)
            if (
                k0.unit_order != expected
                or k0.group.invariant_factors != base.group.invariant_factors
                or k0.group.free_rank != base.group.free_rank
            ):
                failures.append((q, m, k0.unit_order, expected))
    _finish(7, "head graphs scale the unit, preserve the group", start, 5, failures)


def test_criterion_8_mixed_orbit_criterion_validation():
    # structural decision == complete brute force over automorphisms
    # (alpha, beta, delta) with delta in {+-1} and beta in T, free rank 1
    start = time.perf_counter()
    failures = []
    free_pairs = [
        (0, 0), (0, 1), (1, 0), (1, 1), (1, -1), (2, 2),
        (-2, 2), (1, 2), (2, 4), (2, 6), (3, 3), (4, 2),
    ]
    for factors in chains_upto(32):
        torsion = FGAbelianGroup(factors)
        group = FGAbelianGroup(factors, free_rank=1)
        telems = list(torsion.elements())
        answers = {}  # the oracle's answers; phi(x) == y iff phi^-1(y) == x
        for xf, yf in free_pairs:
            for xt in telems:
                x = group.element(xt.torsion, (xf,))
                for yt in telems:
                    y = group.element(yt.torsion, (yf,))
                    structural = pointed_iso_exists(group, x, y)
                    brute = False
                    if yf in (xf, -xf):  # delta in GL(1, Z) = {+1, -1}
                        for tau in telems:
                            shift = torsion.element(xf * v for v in tau.torsion)
                            target = add(torsion, yt, negate(torsion, shift))
                            if (xt, target) not in answers:
                                answers[xt, target] = answers[target, xt] = (
                                    automorphism_maps_x_to_y(torsion, xt, target))
                            if answers[xt, target]:
                                brute = True
                                break
                    if structural != brute:
                        failures.append((factors, x, y, structural, brute))
    _finish(8, "structural unit-orbit rule == (alpha, beta, delta) brute force", start, 60, failures)


def test_criterion_9_equivalence_relation_and_class_counts():
    start = time.perf_counter()
    failures = []
    graphs = [rose(q) for q in range(2, 10)] + [infinite_order_graph()]
    for graph in graphs:
        pis = purely_infinite_simple(graph)
        k0 = k0_of_graph(graph)
        eq = {
            (c, d): matrix_type_equal(k0, pis, c, d)
            for c, d in itertools.product(range(1, 13), repeat=2)
        }
        for c in range(1, 13):
            if not eq[(c, c)]:
                failures.append(("reflexive", graph.vertices, c))
            for d in range(1, 13):
                if eq[(c, d)] != eq[(d, c)]:
                    failures.append(("symmetric", graph.vertices, c, d))
                for e in range(1, 13):
                    if eq[(c, d)] and eq[(d, e)] and not eq[(c, e)]:
                        failures.append(("transitive", graph.vertices, c, d, e))
        if k0.unit_order is not INFINITE and k0.unit_order <= 12:
            n = k0.unit_order
            classes = matrix_type_classes(k0, pis, n)
            divisors = sum(1 for k in range(1, n + 1) if n % k == 0)
            if len(classes) != divisors:
                failures.append(("class count", graph.vertices, n, len(classes)))
    _finish(9, "matrix-type equality is an equivalence relation", start, None, failures)
