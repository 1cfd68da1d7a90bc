#!/usr/bin/env python3
"""Layered benchmark for irrstrength.

    python3 perfbench/run.py --workload pipeline_5000 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

A workload runs in its own process, because ``ru_maxrss`` is a per-process
high-water mark; ``--workload all`` starts a fresh interpreter for each
workload. Every call into the library is timed here, from outside;
``PipelineResult.timings`` is never read, since it drops the failing stage.
``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the per-layer
ones. The last line of stdout is one JSON object, and the exit code is
non-zero on any golden or invariant mismatch. perfbench/README.md describes
the workloads and every metric.
"""

from __future__ import annotations

import os
import sys

# numpy reads these at import, so they are set before it loads: thread
# caps at nproc, and no huge pages, whose supply depends on the host's free
# memory and made peak RSS differ between identical runs
_NPROC = os.cpu_count() or 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _cur = os.environ.get(_var, "")
    if not (_cur.isdigit() and 0 < int(_cur) <= _NPROC):
        os.environ[_var] = str(_NPROC)
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDENS = BENCH_DIR / "goldens.json"
WORK_DIR = BENCH_DIR / ".work"

REFERENCE_SEED = 0  # goldens hold only here; invariants hold at every seed
GRAPH_SEED = 424242
PIPELINE_GRAPH = (5000, 1242)  # the (n, d) reference point
# one round trip at n=5000 takes about 37 s, so a run would hold a single
# sample; at n=2500 it takes about 9 s and a run reports a median of four
FILES_GRAPH, MIN_ITERATIONS = (2500, 620), 4
B, EPS = 0.2, 0.05
SETUP_REPEATS = 3
SEED_BLOCK = 1000  # workload seed s runs pipeline seeds s*SEED_BLOCK, s*SEED_BLOCK+1, ...
MIN_RUNS, MIN_EACH = 12, 5  # a pass holds >= 12 runs, >= 5 weighted and >= 5 rejected
MAX_LOOP_S, MAX_TRACE_S = 90.0, 60.0  # caps that keep a run well inside 180 s
# outcomes that mean a wrong weighting or a misconfigured run, not a desk-scale result
FAILED_KINDS = ("parameter", "verification", "bound")

DERIVED = {
    "distinguish.vertex_loop_s": "run_distinguishing_s - induced_subgraph_s - components_with_order_s",
}


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_sha(a: np.ndarray) -> str:
    return sha256(np.ascontiguousarray(a, dtype="<i8").tobytes())


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Spans:
    """Wall time of each call into the library, by span name."""

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = {}

    def call(self, name: str, fn, *args):
        t0 = time.perf_counter()
        value = fn(*args)
        self.times.setdefault(name, []).append(time.perf_counter() - t0)
        return value

    def last(self, *names: str) -> float:
        return sum(self.times[name][-1] for name in names)

    def medians(self) -> dict[str, float]:
        return {name: median(values) for name, values in self.times.items()}


def load_library():
    """Import irrstrength from this checkout's src/, never from elsewhere."""
    if not (SRC / "irrstrength" / "__init__.py").is_file():
        sys.exit(f"perfbench: no irrstrength sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import irrstrength

    if Path(irrstrength.__file__).resolve().parent != SRC / "irrstrength":
        sys.exit(f"perfbench: imported irrstrength from {irrstrength.__file__}, not {SRC}")
    return irrstrength


def set_up(irr, n: int, d: int, seed: int, with_weights: bool, layers: dict[str, float]):
    """Build the workload's inputs SETUP_REPEATS times and keep the last;
    returns (graph, weights or None, median set-up seconds)."""
    setup_s, generate_s = [], []
    for _ in range(SETUP_REPEATS):
        g = weights = None  # free the previous set-up's inputs before the next
        t0 = time.perf_counter()
        g = irr.generate_random_regular(n, d, seed=GRAPH_SEED)
        generate_s.append(time.perf_counter() - t0)
        if with_weights:
            cap = irr.compute_budgets(n, d, B, EPS).label_cap()
            rng = np.random.default_rng(seed)
            weights = rng.integers(1, cap, size=g.num_edges, dtype=np.int64, endpoint=True)
        setup_s.append(time.perf_counter() - t0)
    layers["graphs.generate_s"] = median(generate_s)
    layers["rss.after_generate_mb"] = rss_mb()
    layers["graphs.graph_bytes"] = float(
        sum(a.nbytes for a in vars(g).values() if isinstance(a, np.ndarray))
    )
    return g, weights, median(setup_s)


def time_graph_init(irr, g, layers: dict[str, float]) -> None:
    t0 = time.perf_counter()
    irr.Graph(g.n, g.edges)
    layers["graphs.graph_init_s"] = time.perf_counter() - t0


# ---------------------------------------------------------------------------
# pipeline_5000: run_pipeline in a closed loop over consecutive seeds


def run_class(kind: str | None, stage: str | None) -> str:
    """weighted: cleared every weighting stage; rejected: stopped at tuning."""
    if kind in (None, "separation", "verification", "bound"):
        return "weighted"
    if stage == "omega_prime":
        return "rejected"
    return "other"


def enough(runs: list[dict]) -> bool:
    classes = [r["class"] for r in runs]
    return (
        len(runs) >= MIN_RUNS
        and classes.count("weighted") >= MIN_EACH
        and classes.count("rejected") >= MIN_EACH
    )


def check_weighted(irr, g, part, budgets, state) -> list[str]:
    """Invariants of a weighting that went through distinguishing."""
    bad = []
    if not np.array_equal(irr.weighted_degrees(g, state.weights), state.sigma):
        bad.append("weighted_degrees(weights) != sigma")
    if state.mod_count.size and int(state.mod_count.max()) > 2:
        bad.append(f"an edge was modified {int(state.mod_count.max())} times")
    if state.stage == irr.labeling.STAGE_DISTINGUISHED:
        want = np.arange(budgets.target_base + 1, budgets.target_base + part.n0 + 1)
        if not np.array_equal(np.sort(state.sigma[part.v0_vertices()]), want):
            bad.append("sorted V0 weighted degrees are not target_base+1..target_base+n0")
    return bad


def run_record(irr, g, seed, seconds, kind, stage, part, budgets, state) -> dict:
    rec = {"seed": seed, "seconds": seconds, "kind": kind or "success"}
    rec["class"] = run_class(kind, stage)
    rec["hashes"] = {}
    rec["problems"] = [f"outcome {kind}"] if kind in FAILED_KINDS else []
    if rec["class"] == "weighted" and state is not None:
        rec["hashes"] = {"weights": array_sha(state.weights), "sigma": array_sha(state.sigma)}
        rec["problems"] += check_weighted(irr, g, part, budgets, state)
    return rec


def untraced_run(irr, g, params, seed: int) -> dict:
    t0 = time.perf_counter()
    res = irr.run_pipeline(g, params, seed=seed)
    seconds = time.perf_counter() - t0
    rec = run_record(
        irr, g, seed, seconds, res.failure_kind, res.failure_stage, res.partition, res.budgets, res.state
    )
    rec["hashes"]["report"] = sha256(res.to_text().encode("utf-8"))
    return rec


def traced_run(irr, g, params, budgets, seed: int, spans: Spans, layers: dict[str, float]) -> dict:
    """The stages of run_pipeline called one by one, one span per call,
    plus induced_subgraph and components_with_order on G[U] on their own."""
    part = state = None
    kind = stage = None
    t0 = time.perf_counter()
    try:
        part, _, attempts = spans.call("partition.find_partition_s", irr.find_partition, g, params, seed)
        layers["partition.attempts"] += attempts
        xa, _, attempts = spans.call("labeling.find_x_s", irr.find_x, g, part, params, seed)
        layers["labeling.x_attempts"] += attempts
        state = spans.call("labeling.initial_weighting_s", irr.initial_weighting, g, part, xa, budgets)
        spans.call(
            "labeling.assign_omega_prime_s", irr.assign_omega_prime, g, part, xa, budgets, state, params
        )
        layers["rss.after_tuning_mb"] = rss_mb()
        gu, _ = spans.call("graphs.induced_subgraph_s", irr.induced_subgraph, g, part.u_vertices())
        spans.call("graphs.components_with_order_s", irr.components_with_order, gu)
        layers["distinguish.u_vertices"] += gu.n
        layers["distinguish.u_edges"] += gu.num_edges
        spans.call(
            "distinguish.run_distinguishing_s", irr.run_distinguishing, g, part, budgets, state, params
        )
        layers["rss.after_distinguish_mb"] = rss_mb()
        sep = spans.call("distinguish.separation_checks_s", irr.separation_checks, g, part, state, budgets)
        if not sep.passed:
            kind = stage = "separation"
        else:
            ver = irr.finalize_and_check(g, state, budgets)
            if not ver.irregular:
                kind = stage = "verification"
            elif not ver.bound_ok:
                kind, stage = "bound", "verification"
    except irr.StageFailure as exc:
        kind, stage = exc.kind, exc.stage
    return run_record(irr, g, seed, time.perf_counter() - t0, kind, stage, part, budgets, state)


def pipeline_workload(irr, seed: int, seconds: float, trace: bool) -> dict:
    layers: dict[str, float] = defaultdict(float)
    g, _, setup_s = set_up(irr, *PIPELINE_GRAPH, seed, False, layers)
    params = irr.PipelineParams(b=B, eps=EPS, mode="empirical")
    first = seed * SEED_BLOCK
    ops: list[dict] = []
    t0 = time.perf_counter()
    if trace:
        time_graph_init(irr, g, layers)
        # the traced pass is fixed by outcomes alone, so its counts repeat exactly
        budgets = irr.compute_budgets(g.n, g.regular_degree(), B, EPS)
        spans = Spans()
        while not enough(ops) and time.perf_counter() - t0 < MAX_TRACE_S:
            ops.append(traced_run(irr, g, params, budgets, first + len(ops), spans, layers))
        runs = [untraced_run(irr, g, params, r["seed"]) for r in ops]
        for traced, plain in zip(ops, runs):
            plain_view = {k: v for k, v in plain["hashes"].items() if k != "report"}
            if (traced["kind"], traced["hashes"]) != (plain["kind"], plain_view):
                traced["problems"].append("traced stages disagree with run_pipeline")
        layers.update(spans.medians())
        layers["labeling.tuning_feasible_ratio"] = sum(r["class"] == "weighted" for r in ops) / len(ops)
        layers["distinguish.vertex_loop_s"] = (
            layers["distinguish.run_distinguishing_s"]
            - layers["graphs.induced_subgraph_s"]
            - layers["graphs.components_with_order_s"]
        )
        layers["trace.overhead_s"] = sum(r["seconds"] for r in ops) - sum(r["seconds"] for r in runs)
        ops += runs
    else:
        runs = ops
        while True:
            runs.append(untraced_run(irr, g, params, first + len(runs)))
            elapsed = time.perf_counter() - t0
            if (elapsed >= seconds and enough(runs)) or elapsed >= MAX_LOOP_S:
                break
    by_class = {c: [r["seconds"] for r in runs if r["class"] == c] for c in ("weighted", "rejected")}
    if not (by_class["weighted"] and by_class["rejected"]):
        ops[-1]["problems"].append("no weighted or no rejected run before the time cap")
    return {
        "report": {
            "setup_s": setup_s,
            "pipeline_runs_per_s": len(runs) / sum(r["seconds"] for r in runs),
            "weighted_run_s_p50": median(by_class["weighted"]),
            "rejected_run_s_p50": median(by_class["rejected"]),
        },
        "per_layer": layers,
        "ops": ops,
        "outcome_mix": dict(Counter(r["kind"] for r in runs)),
        "samples": {"pipeline_seeds": [runs[0]["seed"], runs[-1]["seed"]],
                    "weighted_runs": len(by_class["weighted"]),
                    "rejected_runs": len(by_class["rejected"])},
        "hashes": {str(r["seed"]): r["hashes"] for r in runs},
    }


# ---------------------------------------------------------------------------
# files_2500: write graph and weights, then do what `irrstrength verify` does


def files_iteration(irr, g, state, seed: int, spans: Spans) -> dict:
    gpath, wpath = WORK_DIR / "graph.txt", WORK_DIR / "weights.csv"
    t0 = time.perf_counter()
    spans.call("graphs.write_edge_list_s", irr.write_edge_list, g, gpath)
    spans.call("labeling.write_weights_csv_s", irr.write_weights_csv, g, state, str(wpath), *FILES_GRAPH, B, EPS, seed)
    g2 = spans.call("graphs.read_edge_list_s", irr.read_edge_list, gpath)
    w2 = spans.call("labeling.read_weights_csv_s", irr.read_weights_csv, str(wpath), g2)
    res = spans.call("verify.is_irregular_s", irr.is_irregular, g2, w2)
    wall = time.perf_counter() - t0

    problems = []
    if not np.array_equal(g2.edges, g.edges):
        problems.append("graph read back differs from the graph written")
    if not np.array_equal(w2, state.weights):
        problems.append("weights read back differ from the weights written")
    sigma = np.zeros(g.n, dtype=np.int64)
    np.add.at(sigma, g.edges[:, 0], state.weights)
    np.add.at(sigma, g.edges[:, 1], state.weights)
    if res.irregular != (np.unique(sigma).size == g.n):
        problems.append("is_irregular disagrees with an independent int64 degree count")
    return {
        "write_s": spans.last("graphs.write_edge_list_s", "labeling.write_weights_csv_s"),
        "verify_s": spans.last(
            "graphs.read_edge_list_s", "labeling.read_weights_csv_s", "verify.is_irregular_s"
        ),
        "wall_s": wall,
        "kind": "irregular" if res.irregular else "not_irregular",
        "problems": problems,
        "hashes": {
            "edge_list": sha256(gpath.read_bytes()),
            "weights_csv": sha256(wpath.read_bytes()),
            "verdict": sha256(res.to_text().encode("utf-8")),
        },
    }


def files_workload(irr, seed: int, seconds: float, trace: bool) -> dict:
    layers: dict[str, float] = {}
    g, weights, setup_s = set_up(irr, *FILES_GRAPH, seed, True, layers)
    state = irr.WeightingState(
        stage=irr.labeling.STAGE_FINAL,
        weights=weights,
        sigma=irr.weighted_degrees(g, weights),
        mod_count=np.zeros(g.num_edges, dtype=np.int16),
        last_mod_stage=np.zeros(g.num_edges, dtype=np.int8),
    )
    WORK_DIR.mkdir(exist_ok=True)
    ops: list[dict] = []
    try:
        spans = Spans()
        t0 = time.perf_counter()
        while len(ops) < MIN_ITERATIONS or time.perf_counter() - t0 < seconds:
            ops.append(files_iteration(irr, g, state, seed, spans))
        if trace:
            # an untraced iteration makes the same five timed calls, so the
            # tracing overhead is the wall time spent outside them
            time_graph_init(irr, g, layers)
            layers.update(spans.medians())
            layers["trace.overhead_s"] = sum(op["wall_s"] for op in ops) - sum(
                sum(times) for times in spans.times.values()
            )
    finally:
        for path in WORK_DIR.glob("*"):
            path.unlink()
        WORK_DIR.rmdir()
    return {
        "report": {
            "setup_s": setup_s,
            "write_s": median([it["write_s"] for it in ops]),
            "verify_s": median([it["verify_s"] for it in ops]),
        },
        "per_layer": layers,
        "ops": ops,
        "outcome_mix": {ops[0]["kind"]: len(ops)},
        "samples": {"iterations": len(ops)},
        "hashes": {"files": ops[-1]["hashes"]},
    }


# ---------------------------------------------------------------------------
# goldens, machine record, output


def golden_problems(workload: str, seed: int, hashes: dict, record: bool) -> dict[str, str]:
    """Mismatches against the hashes recorded at the reference seed, by
    key; with ``record``, add the entries not yet recorded."""
    if seed != REFERENCE_SEED:
        return {}
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    table = goldens.setdefault(workload, {})
    problems = {}
    for key, got in hashes.items():
        want = table.get(key)
        if want is None:
            if record:
                table[key] = got
        elif want != got:
            problems[key] = "golden mismatch: " + ", ".join(
                name for name in sorted(set(want) | set(got)) if want.get(name) != got.get(name)
            )
    if record:
        GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return problems


def machine_record() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        sha = done.stdout.strip() or None
    return {
        "cpu": cpu,
        "nproc": _NPROC,
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
    }


WORKLOADS = {"pipeline_5000": pipeline_workload, "files_2500": files_workload}
# every workload must report every end-to-end metric, so the two time
# metrics of BENCHMARK.json stand for a different measurement on each
OP_METRICS = {
    "pipeline_5000": {"heavy_op_s": "weighted_run_s_p50", "light_op_s": "rejected_run_s_p50"},
    "files_2500": {"heavy_op_s": "verify_s", "light_op_s": "write_s"},
}
REPORT_UNITS = {"peak_rss_mb": "MB", "pipeline_runs_per_s": "1/s", "failed_ratio": "ratio"}


def metric_units(kind: str) -> dict[str, str]:
    """Metric names and units, as BENCHMARK.json defines them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_one(args) -> int:
    irr = load_library()
    res = WORKLOADS[args.workload](irr, args.seed, args.seconds, bool(args.trace))
    ops = res["ops"]
    # a golden mismatch fails the op that produced it: the run_pipeline call
    # for that seed, or the files iteration
    by_key = {str(op.get("seed", "files")): op for op in ops}
    for key, problem in golden_problems(args.workload, args.seed, res["hashes"], args.record_goldens).items():
        by_key[key]["problems"].append(problem)
    failed = sum(bool(op["problems"]) for op in ops)
    for op in ops:
        for problem in op["problems"]:
            print(f"perfbench: FAILED {args.workload} seed={op.get('seed', args.seed)}: {problem}",
                  file=sys.stderr)

    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine " + json.dumps(machine_record()))
    print("outcome_mix " + json.dumps(res["outcome_mix"], sort_keys=True))
    print("samples " + json.dumps(res["samples"]))
    if args.trace:
        chosen = metric_units("per_layer")
        values = res["per_layer"]
        for name, unit in chosen.items():
            note = f"  (derived: {DERIVED[name]})" if name in DERIVED else ""
            value = values.get(name, 0.0)
            shown = f"{value:.0f}" if unit in ("count", "B") else f"{value:.6g}"
            print(f"metric {name} = {shown} {unit}{note}")
    else:
        chosen = metric_units("end_to_end")
        report = {**res["report"], "peak_rss_mb": rss_mb(), "failed_ratio": failed / len(ops)}
        for name, value in report.items():
            print(f"metric {name} = {value:.6g} {REPORT_UNITS.get(name, 's')}")
        values = {name: report[name] for name in ("setup_s", "peak_rss_mb")}
        values.update({name: report[alias] for name, alias in OP_METRICS[args.workload].items()})
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in chosen.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter; one JSON line for all of them."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record_goldens:
            cmd.append("--record-goldens")
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = done.stdout.splitlines()
        try:
            child = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {workload} printed no result", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        code = code or done.returncode
        total["correct"] = total["correct"] and child["correct"]
        total["attempted"] += child["attempted"]
        total["failed"] += child["failed"]
        for name, metric in child["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-goldens", action="store_true",
                    help=f"at seed {REFERENCE_SEED}, add hashes not yet in goldens.json")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
