"""Seeded benchmark of leavitt: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload k0-scale --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  See README.md for
the workloads, the seeds and the reference.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from clock import Clock  # noqa: E402
from tracing import LAYER_NAMES, Tracer  # noqa: E402

WORKLOADS = ("k0-scale", "compare-orbit", "graph-conditions", "cli-mix")
# Seconds one pass over each workload's fixed set stands for.  A run makes
# round(seconds / SET_S) passes, at least one: at --seconds 20, two passes
# of k0-scale (its 90th percentile needs the samples) and of the short
# compare-orbit set, one of the others.
SET_S = {"k0-scale": 10.0, "compare-orbit": 10.0, "graph-conditions": 20.0, "cli-mix": 18.0}
SETUP_SAMPLES = 15
OP_TIMEOUT_S = 60
IMPORT_PROBE = (
    "import time; t = time.process_time(); import leavitt; "
    "print(time.process_time() - t)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def repeats_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / SET_S[workload]))


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def interpreter_s(code: str) -> float:
    """Median time of a fresh interpreter running code, start to exit."""
    clock = Clock()
    for _ in range(SETUP_SAMPLES):
        done = clock.measure(lambda: subprocess.run(
            [sys.executable, "-c", code], env=child_env(), check=True,
            stdout=subprocess.DEVNULL, timeout=OP_TIMEOUT_S))
        if isinstance(done, Exception):
            raise done
    return statistics.median(clock.times())


def measure_setup() -> float:
    """Median time to import leavitt in a fresh interpreter (after one warm-up)."""
    clock = Clock()
    for _ in range(SETUP_SAMPLES + 1):
        probe = clock.probe()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                              check=True, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        clock.record(probe, float(proc.stdout))
    return statistics.median(clock.times()[1:])


# -- workloads: each builds (operations, check) from the seed ----------------
#
# An operation is a callable with no arguments that returns a summary of
# its output; ``check(i, summary)`` returns the problems with operation i.


def _k0_summary(lv, k0) -> dict:
    return {
        "invariant_factors": list(k0.group.invariant_factors),
        "free_rank": k0.group.free_rank,
        "unit_order": "infinite" if k0.unit_order is lv.INFINITE else k0.unit_order,
    }


def k0_scale(lv, seed: int, repeats: int, reference: dict):
    plan = inputs.k0_plan(seed, repeats)
    texts = {}
    for key in set(plan):
        doc = inputs.scc_graph(*key)
        ref = reference["k0_scale"][f"{key[0]}/{key[1]}"]
        if inputs.sha256(doc) != ref["sha256"]:
            raise SystemExit(f"graph {key} no longer matches reference.json; regenerate it")
        texts[key] = inputs.dumps(doc)

    def operation(text):
        graph = lv.parse_graph(text)
        pis = lv.purely_infinite_simple(graph)
        k0 = lv.k0_of_graph(graph)
        classes = lv.matrix_type_classes(k0, pis, inputs.K0_CLASSES_MAX)
        return {"pis": pis.purely_infinite_simple, "classes": classes, **_k0_summary(lv, k0)}

    def check(i, got):
        ref = reference["k0_scale"]["%d/%d" % plan[i]]
        problems = checks.check_invariants(got, ref)
        problems += checks.check_classes(got["classes"], ref["unit_order"], inputs.K0_CLASSES_MAX)
        if not got["pis"]:
            problems.append("strongly connected graph with exits reported as not PIS")
        return problems

    return [lambda t=texts[key]: operation(t) for key in plan], check


def compare_orbit(lv, seed: int, repeats: int, reference: dict):
    catalog = reference["catalog"]
    plan = inputs.orbit_plan(seed, repeats, catalog)
    graphs = {name: lv.parse_graph(inputs.dumps(catalog[name]["graph"]))
              for name in {p[0] for p in plan} | {p[2] for p in plan}}

    def operation(left, c, right, d):
        a = lv.k0_of_graph(lv.m_graph(graphs[left], c))
        b = lv.k0_of_graph(lv.m_graph(graphs[right], d))
        verdict = lv.compare_pointed_k0(a, b)
        return {"left": _k0_summary(lv, a), "right": _k0_summary(lv, b),
                "isomorphic": verdict.isomorphic, "reason": verdict.reason.value}

    def check(i, got):
        left, c, right, d = plan[i]
        return checks.check_compare(got, catalog[left], c, catalog[right], d)

    return [lambda p=p: operation(*p) for p in plan], check


def graph_conditions(lv, seed: int, repeats: int, reference: dict):
    plan = [(kind, inputs.dumps(doc)) for kind, doc in inputs.conditions_plan(seed, repeats)]

    def flags(report):
        return tuple(getattr(report, name) for name in inputs.FLAG_NAMES)

    def operation(kind, text):
        graph = lv.parse_graph(text)
        report = lv.purely_infinite_simple(graph)
        head = None
        if kind == "pis":
            head = flags(lv.purely_infinite_simple(lv.m_graph(graph, inputs.GC_HEAD)))
        return {"flags": flags(report), "head": head}

    def check(i, got):
        return checks.check_conditions(got["flags"], inputs.EXPECTED_FLAGS[plan[i][0]], got["head"])

    return [lambda p=p: operation(*p) for p in plan], check


class CliCalls:
    """The cli-mix calls, run as ``python -m leavitt`` or in-process."""

    def __init__(self, seed: int, repeats: int, reference: dict, workdir: Path):
        self.catalog = reference["catalog"]
        self.plan = inputs.cli_plan(seed, repeats, self.catalog)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        for call in self.plan:
            for name, text in call.get("files", {}).items():
                (workdir / name).write_text(text, encoding="utf-8")

    def subprocess_op(self, call):
        proc = subprocess.run(
            [sys.executable, "-m", "leavitt", *call["argv"]], input=call["stdin"],
            capture_output=True, text=True, cwd=self.workdir, env=child_env(),
            timeout=OP_TIMEOUT_S,
        )
        return {"code": proc.returncode, "stdout": proc.stdout}

    def in_process_op(self, lv, call):
        out = io.StringIO()
        code = 1  # an exception escaping main is what a crash exits with
        cwd = os.getcwd()
        stdin = sys.stdin
        try:
            os.chdir(self.workdir)
            sys.stdin = io.StringIO(call["stdin"])
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = lv.cli.main(call["argv"])
        except SystemExit as exc:  # argparse
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash is what is measured
            pass
        finally:
            sys.stdin = stdin
            os.chdir(cwd)
        return {"code": code, "stdout": out.getvalue()}

    def failed(self, got) -> bool:
        return checks.cli_failed(got["code"], got["stdout"])

    def check(self, i, got):
        doc = checks.one_json_document(got["stdout"])
        return checks.check_cli(self.plan[i], got["code"], doc, self.catalog)


LIBRARY = {"k0-scale": k0_scale, "compare-orbit": compare_orbit, "graph-conditions": graph_conditions}


# -- running -----------------------------------------------------------------


def run_list(operations, check, failed=lambda got: False, tracer=None):
    """Run every operation once, in order, then check the outputs.

    Returns the Clock holding the operations' times, the failed count and
    the problems found.
    """
    clock, outputs, problems, n_failed = Clock(), [], [], 0
    for i, op in enumerate(operations):
        if tracer is None:
            outputs.append(clock.measure(op))
        else:
            outputs.append(clock.measure(lambda: tracer.operation(i, op)))
    for i, got in enumerate(outputs):
        if isinstance(got, Exception) or failed(got):
            n_failed += 1
            continue
        problems += [f"operation {i}: {p}" for p in check(i, got)]
    return clock, n_failed, problems


def end_to_end(latencies, n_failed, setup_s, rss_who) -> dict:
    completed = len(latencies) - n_failed
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    values = {
        "setup_s": setup_s,
        "ops_per_s": completed / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": p90,
        "peak_rss_mb": resource.getrusage(rss_who).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def import_leavitt():
    import leavitt
    import leavitt.cli

    if not Path(leavitt.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported leavitt from {leavitt.__file__}, not from {SRC}")
    return leavitt


def run_plain(workload: str, seed: int, repeats: int, reference: dict, workdir: Path):
    setup_s = measure_setup()
    if workload == "cli-mix":
        calls = CliCalls(seed, repeats, reference, workdir)
        operations = [lambda c=c: calls.subprocess_op(c) for c in calls.plan]
        clock, n_failed, problems = run_list(operations, calls.check, calls.failed)
        lat = clock.times()
        return lat, n_failed, problems, end_to_end(lat, n_failed, setup_s, resource.RUSAGE_CHILDREN)
    lv = import_leavitt()
    operations, check = LIBRARY[workload](lv, seed, repeats, reference)
    clock, n_failed, problems = run_list(operations, check)
    lat = clock.times()
    return lat, n_failed, problems, end_to_end(lat, n_failed, setup_s, resource.RUSAGE_SELF)


def run_traced(workload: str, seed: int, repeats: int, seconds: int, reference: dict, workdir: Path):
    lv = import_leavitt()
    layer = {"cli.interpreter_s": 0.0, "cli.import_s": 0.0, "cli.main_s": 0.0, "cli.stdout_bytes": 0}
    problems = []
    if workload == "cli-mix":
        calls = CliCalls(seed, repeats, reference, workdir)
        bare = interpreter_s("pass")
        layer["cli.interpreter_s"] = bare
        layer["cli.import_s"] = interpreter_s("import leavitt.cli") - bare
        operations = [lambda c=c: calls.in_process_op(lv, c) for c in calls.plan]
        check, failed = calls.check, calls.failed
        # untraced in-process pass: the base of the overhead ratio
        base = Clock()
        outs = [base.measure(op) for op in operations]
        base_s = sum(base.times())
        layer["cli.main_s"] = base_s
        layer["cli.stdout_bytes"] = sum(len(o["stdout"].encode()) for o in outs)
        base_ops_per_s = sum(1 for o in outs if not failed(o)) / base_s
    else:
        base = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=150,
        )
        if base.returncode:
            raise SystemExit(f"untraced base run failed:\n{base.stderr}")
        base_result = json.loads(base.stdout.strip().splitlines()[-1])
        if not base_result["correct"]:
            problems.append("untraced base run reported incorrect outputs")
        base_ops_per_s = base_result["metrics"]["ops_per_s"]["value"]
        operations, check = LIBRARY[workload](lv, seed, repeats, reference)
        failed = lambda got: False  # noqa: E731

    tracer = Tracer()
    tracer.install(lv)
    try:
        clock, n_failed, traced_problems = run_list(operations, check, failed, tracer)
    finally:
        tracer.uninstall()
    problems += traced_problems
    lat, weights = clock.times(), clock.factors()
    traced_ops_per_s = (len(lat) - n_failed) / sum(lat)

    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{workload}-seed{seed}.json")
    self_times = tracer.self_times(weights)
    values = dict(tracer.timed(weights))
    values.update(tracer.counters)
    values.update(layer)
    for name in LAYER_NAMES:
        values[f"{name}.self_s"] = self_times[name]
    values["trace.unattributed_s"] = self_times["bench"]
    values["trace.counting_s"] = self_times["trace"]
    gap = tracer.operation_gap()
    if gap > 1e-6:
        problems.append(f"self times miss an operation's time by {gap:.3g} s")
    values["trace.base_ops_per_s"] = base_ops_per_s
    values["trace.traced_ops_per_s"] = traced_ops_per_s
    values["trace.overhead_ratio"] = traced_ops_per_s / base_ops_per_s
    metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    return lat, n_failed, problems, metrics


def per_layer_unit(name: str) -> str:
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits_max"):
        return "bits"
    if name == "cli.stdout_bytes":
        return "bytes"
    if name == "trace.overhead_ratio":
        return "ratio"
    if name == "abelian.group_size_max":
        return "elements"
    return "count"


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "leavitt" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'leavitt'} not found; run inside a leavitt checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        # set-iteration order inside leavitt follows the string hash: pin it
        # to the run's seed, in this process and every child it starts
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED=hash_seed))
    sys.path.insert(0, str(SRC))
    reference = load_reference()
    repeats = repeats_for(args.workload, args.seconds)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.trace:
            lat, n_failed, problems, metrics = run_traced(
                args.workload, args.seed, repeats, args.seconds, reference, workdir)
        else:
            lat, n_failed, problems, metrics = run_plain(
                args.workload, args.seed, repeats, reference, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems[:20]:
        print(f"INCORRECT {p}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(lat)} operations, {n_failed} failed, {len(problems)} problems")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": len(lat), "failed": n_failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
