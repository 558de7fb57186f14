"""Checker self-test: every checker must report a deliberately wrong answer.

    python3 perfbench/selftest.py

Each case gives a checker a right answer, which must pass, and a wrong one,
which must be reported.  Exits 1 unless all cases behave.  Needs neither
leavitt nor sympy.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402

ROSE5 = {"graph": {"vertices": ["v"], "edges": [["v", "v", 5]]},
         "invariant_factors": [4], "free_rank": 0, "unit_order": 4, "det": -4}
K2_2_2 = {"graph": {"vertices": ["a", "b"], "edges": []},
          "invariant_factors": [2, 6], "free_rank": 0, "unit_order": 6, "det": 12}
FREE = {"graph": {"vertices": ["a", "b", "c"], "edges": []},
        "invariant_factors": [6], "free_rank": 1, "unit_order": "infinite", "det": 0}
CATALOG = {"rose5": ROSE5, "K2_2_2": K2_2_2, "free": FREE}


def k0(ref, **change):
    out = {key: ref[key] for key in ("invariant_factors", "free_rank", "unit_order")}
    out.update(change)
    return out


def snf_doc(u, d, v):
    return {"U": u, "D": d, "V": v, "diagonal": [d[i][i] for i in range(len(d))]}


A = [[2, 0], [0, 3]]
GOOD_SNF = snf_doc([[1, 1], [3, 2]], [[1, 0], [0, 6]], [[-1, 3], [1, -2]])


def cli_call(kind, expect=0, **meta):
    return {"kind": kind, "expect": expect, "meta": meta}


# (name, checker call on the right answer, checker call on the wrong answer)
CASES = [
    ("invariants: wrong factor",
     lambda: checks.check_invariants(k0(ROSE5), ROSE5),
     lambda: checks.check_invariants(k0(ROSE5, invariant_factors=[2, 2]), ROSE5)),
    ("invariants: wrong unit order",
     lambda: checks.check_invariants(k0(K2_2_2), K2_2_2),
     lambda: checks.check_invariants(k0(K2_2_2, unit_order=3), K2_2_2)),
    ("invariants: reference itself breaks the chain",
     lambda: checks.check_invariants(k0(K2_2_2), K2_2_2),
     lambda: checks.check_invariants(
         k0(K2_2_2, invariant_factors=[4, 6]), dict(K2_2_2, invariant_factors=[4, 6], det=24))),
    ("invariants: product is not |det|",
     lambda: checks.check_invariants(k0(ROSE5), ROSE5),
     lambda: checks.check_invariants(k0(ROSE5, invariant_factors=[8]),
                                     dict(ROSE5, invariant_factors=[8]))),
    ("classes: wrong partition",
     lambda: checks.check_classes([[1, 3], [2]], 4, 3),
     lambda: checks.check_classes([[1, 2, 3]], 4, 3)),
    ("compare: verdict against the gcd rule",
     lambda: checks.check_compare(
         {"left": k0(ROSE5), "right": k0(ROSE5, unit_order=2),
          "isomorphic": False, "reason": "unit_orbit_mismatch"}, ROSE5, 1, ROSE5, 2),
     lambda: checks.check_compare(
         {"left": k0(ROSE5), "right": k0(ROSE5, unit_order=2),
          "isomorphic": True, "reason": "unit_orbit_match"}, ROSE5, 1, ROSE5, 2)),
    ("compare: infinite unit order needs c == d",
     lambda: checks.check_compare(
         {"left": k0(FREE), "right": k0(FREE),
          "isomorphic": False, "reason": "unit_orbit_mismatch"}, FREE, 1, FREE, 3),
     lambda: checks.check_compare(
         {"left": k0(FREE), "right": k0(FREE),
          "isomorphic": True, "reason": "unit_orbit_match"}, FREE, 1, FREE, 3)),
    ("compare: head graph must keep the group",
     lambda: checks.check_compare(
         {"left": k0(ROSE5), "right": k0(K2_2_2),
          "isomorphic": False, "reason": "group_mismatch"}, ROSE5, 1, K2_2_2, 1),
     lambda: checks.check_compare(
         {"left": k0(ROSE5, invariant_factors=[2]), "right": k0(K2_2_2),
          "isomorphic": False, "reason": "group_mismatch"}, ROSE5, 1, K2_2_2, 1)),
    ("conditions: flag against the construction",
     lambda: checks.check_conditions(inputs.EXPECTED_FLAGS["sink"], inputs.EXPECTED_FLAGS["sink"], None),
     lambda: checks.check_conditions(inputs.EXPECTED_FLAGS["pis"], inputs.EXPECTED_FLAGS["sink"], None)),
    ("conditions: m_graph must preserve PIS",
     lambda: checks.check_conditions((True,) * 4, (True,) * 4, (True,) * 4),
     lambda: checks.check_conditions((True,) * 4, (True,) * 4, (True, False, True, False))),
    ("cli: two JSON documents on stdout",
     lambda: [] if checks.one_json_document('{"a": 1}\n') == {"a": 1} else ["rejected"],
     lambda: [] if checks.one_json_document('{"a": 1}\n{"b": 2}\n') is not None else ["reported"]),
    ("cli: traceback exit counts as failed",
     lambda: ["reported"] if checks.cli_failed(0, '{"a": 1}') else [],
     lambda: ["reported"] if checks.cli_failed(1, "") else []),
    ("cli: wrong exit code",
     lambda: checks.check_cli(cli_call("error", 2), 2, {"error": 2}, CATALOG),
     lambda: checks.check_cli(cli_call("error", 2), 0, {"error": 2}, CATALOG)),
    ("cli: snf U*A*V != D",
     lambda: checks.check_cli(cli_call("snf", matrix=A), 0, GOOD_SNF, CATALOG),
     lambda: checks.check_cli(cli_call("snf", matrix=A), 0,
                              snf_doc([[1, 1], [3, 2]], [[1, 0], [0, 5]], [[-1, 3], [1, -2]]),
                              CATALOG)),
    ("cli: snf transform not unimodular",
     lambda: checks.check_snf([[2, 0], [0, 0]], snf_doc([[1, 0], [0, 1]], [[2, 0], [0, 0]],
                                                        [[1, 0], [0, 1]])),
     lambda: checks.check_snf([[2, 0], [0, 0]], snf_doc([[1, 0], [0, 1]], [[2, 0], [0, 0]],
                                                        [[1, 0], [0, 2]]))),
    ("cli: analyze against the reference",
     lambda: checks.check_cli(cli_call("analyze", graph="rose5"), 0,
                              {"pis": {"p": True}, **k0(ROSE5)}, CATALOG),
     lambda: checks.check_cli(cli_call("analyze", graph="rose5"), 0,
                              {"pis": {"p": True}, **k0(ROSE5, unit_order=2)}, CATALOG)),
    ("cli: matrix-type verdict",
     lambda: checks.check_cli(cli_call("matrix_type", graph="rose5", c=2, d=6), 0,
                              {"verdict": True, "regime": "finite", "n": 4}, CATALOG),
     lambda: checks.check_cli(cli_call("matrix_type", graph="rose5", c=2, d=6), 0,
                              {"verdict": False, "regime": "finite", "n": 4}, CATALOG)),
    ("cli: classes partition",
     lambda: checks.check_cli(cli_call("classes", graph="rose5", max=4), 0,
                              [[1, 3], [2], [4]], CATALOG),
     lambda: checks.check_cli(cli_call("classes", graph="rose5", max=4), 0,
                              [[1, 2, 3, 4]], CATALOG)),
    ("cli: mgraph shape",
     lambda: checks.check_cli(cli_call("mgraph", graph="rose5", m=2), 0,
                              {"vertices": ["v", "w"], "edges": [["v", "v", 5], ["w", "v", 1]]},
                              CATALOG),
     lambda: checks.check_cli(cli_call("mgraph", graph="rose5", m=2), 0,
                              {"vertices": ["v"], "edges": [["v", "v", 5]]}, CATALOG)),
    ("cli: compare verdict",
     lambda: checks.check_cli(cli_call("compare", graph="rose5", c=1, d=3), 0,
                              {"isomorphic": True, "reason": "unit_orbit_match"}, CATALOG),
     lambda: checks.check_cli(cli_call("compare", graph="rose5", c=1, d=3), 0,
                              {"isomorphic": False, "reason": "unit_orbit_mismatch"}, CATALOG)),
    ("cli: oracle lemma1",
     lambda: checks.check_cli(cli_call("lemma1", factors=(4,), x=[1], c=2, d=6), 0,
                              {"criterion": True, "bruteforce": True, "agree": True}, CATALOG),
     lambda: checks.check_cli(cli_call("lemma1", factors=(4,), x=[1], c=2, d=6), 0,
                              {"criterion": True, "bruteforce": False, "agree": False}, CATALOG)),
    ("cli: oracle eigen",
     lambda: checks.check_cli(cli_call("eigen", x=[1, 0], m=2, n=1), 0,
                              {"witness": None}, CATALOG),
     lambda: checks.check_cli(cli_call("eigen", x=[1, 0], m=2, n=1), 0,
                              {"witness": [[2, 0], [0, 1]]}, CATALOG)),
]


def main() -> int:
    bad = 0
    for name, right, wrong in CASES:
        accepted = right()
        reported = wrong()
        ok = not accepted and bool(reported)
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: right -> {accepted or 'accepted'}; "
              f"wrong -> {reported or 'NOT REPORTED'}")
    print(json.dumps({"cases": len(CASES), "failed": bad}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
