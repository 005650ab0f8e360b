#!/usr/bin/env python3
"""The repository benchmark: build perfbench from source, run one workload,
check its outputs and print the result.

    python3 perfbench/run.py --workload paper-grid|fleet-serve \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The build goes to a tree of this
checkout's own under $CARGO_TARGET_DIR (default .bench_build). Standard
output ends with one JSON line:

    {"correct": true, "attempted": 288, "failed": 0,
     "metrics": {"setup_s": {"value": 9.63, "unit": "s"}, ...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics. The lines before it are a run
manifest and the workload's figures under the names perfbench/README.md
uses. The exit code is 0 only when every correctness check passed.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-grid", "fleet-serve")
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
GRID_CELLS = 96
RUN_TIMEOUT_S = 170


def valid_name(name):
    """True for a metric name of the benchmark's grammar."""
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def tail_percentile(samples, candidates=(50, 95, 99)):
    """Highest candidate percentile with at least ten samples beyond it,
    or None when even the lowest has fewer."""
    best = None
    for p in sorted(candidates):
        if samples * (1 - Fraction(str(p)) / 100) >= 10:
            best = p
    return best


def declared_metrics(bench):
    """The metric declarations of a parsed BENCHMARK.json, checked against
    the name grammar: {"end_to_end": [(name, unit)], "per_layer": [...]}."""
    declared = {}
    for kind in ("end_to_end", "per_layer"):
        names = [(m["name"], m["unit"]) for m in bench[kind]]
        bad = [n for n, _ in names if not valid_name(n)]
        if bad:
            raise ValueError(f"invalid metric names in {kind}: {bad}")
        declared[kind] = names
    all_names = [n for kind in declared.values() for n, _ in kind]
    if len(all_names) != len(set(all_names)):
        raise ValueError("metric names are not unique")
    return declared


# ---------------------------------------------------------------------------
# Correctness checks on a perfbench record.

def run_violations(kind, run):
    """Conservation invariants of one measured call; [] when they hold."""
    bad = []
    if kind == "paper-grid":
        cells = run["cells"]
        if len(cells) != GRID_CELLS or run["ops"] != GRID_CELLS:
            bad.append(f"{len(cells)} grid cells, expected {GRID_CELLS}")
        for i, pair in enumerate(cells):
            if not all(isinstance(v, (int, float)) and 0.0 <= v <= 1.0
                       for v in pair):
                bad.append(f"cell {i} metrics {pair} outside [0, 1]")
        return bad
    c = run["counters"]
    if c["offered"] != c["hosts"] * c["ticks"] or run["ops"] != c["offered"]:
        bad.append("offered != hosts x ticks")
    if c["offered"] != c["emitted"] + c["missing"]:
        bad.append("offered != emitted + missing")
    if c["emitted"] != c["admitted"] + c["shed"]:
        bad.append("emitted != admitted + shed")
    if c["scored_rows"] != c["admitted"]:
        bad.append("scored_rows != admitted")
    if c["batches"] != c["ticks"] * c["shards"]:
        bad.append("batches != ticks x shards")
    if kind == "fleet-drift":
        if c["drift_triggers"] < 1 or c["drift_trigger_tick"] == 0:
            bad.append("the drift trigger never fired")
        if (c["model_swaps"] != 1 or c["final_model_epoch"] != 1
                or c["model_swap_tick"] <= c["drift_trigger_tick"]):
            bad.append("the refreshed model was not swapped in")
    return bad


def run_witness(kind, run):
    """What every measured call of one run must reproduce exactly."""
    if kind == "paper-grid":
        return run["grid_hash"]
    if kind == "fleet-serve":
        return run["verdict_hash"]
    c = run["counters"]
    return [c["drift_trigger_tick"], c["model_swap_tick"], run["verdict_hash"]]


def check_runs(kind, runs):
    """(attempted, failed, violations) of one set of measured calls of the
    same input. Shed samples fail; every operation of a call that breaks an
    invariant fails; calls whose witnesses disagree fail whole."""
    attempted = failed = 0
    violations = []
    for i, run in enumerate(runs):
        attempted += run["ops"]
        bad = run_violations(kind, run)
        if bad:
            failed += run["ops"]
            violations += [f"{kind} call {i}: {b}" for b in bad]
        elif kind != "paper-grid":
            failed += run["counters"]["shed"]
    if len({json.dumps(run_witness(kind, r)) for r in runs}) > 1:
        violations.append(f"{kind} witnesses differ between calls")
        failed = attempted
    return attempted, failed, violations


def evaluate(record):
    """(attempted, failed, violations) of a perfbench record.

    An operation is a grid cell (paper-grid) or an offered host-interval
    (fleet-serve and the traced run's drift scenario). Each set-up of a run
    has inputs of its own, so the calls are checked set-up by set-up. A
    traced run that does not reproduce its references fails whole."""
    by_setup = {}
    for run in record["runs"]:
        by_setup.setdefault(run["setup"], []).append(run)
    checks = [(record["workload"], runs) for runs in by_setup.values()]
    traced = record.get("traced")
    if traced is not None:
        checks += [(traced["other_workload"], traced["other_runs"]),
                   ("fleet-drift", traced["drift_runs"])]
    attempted = failed = 0
    violations = []
    for kind, runs in checks:
        a, f, v = check_runs(kind, runs)
        attempted, failed, violations = (attempted + a, failed + f,
                                         violations + v)
    if traced is not None:
        for what, ok in sorted(traced["reproduced"].items()):
            if not ok:
                violations.append(f"traced run does not reproduce: {what}")
                failed = attempted
    if attempted < 1:
        violations.append("no operations attempted")
    return attempted, failed, violations


# ---------------------------------------------------------------------------
# Metrics and output.

def end_to_end_values(record):
    """Medians over the run's set-ups (wall time) and measured calls (CPU
    time of all threads: unlike their wall time, it does not grow while
    other tenants of a shared host hold the processors)."""
    return {
        "setup_s": statistics.median(s["setup_s"] for s in record["setups"]),
        "run_cpu_s": statistics.median(r["cpu_s"] for r in record["runs"]),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def summary_lines(record, attempted, failed):
    """The workload's figures under their user-facing names."""
    w = record["workload"]
    runs = record["runs"]
    n_setups, n_runs = len(record["setups"]), len(runs)
    e2e = end_to_end_values(record)
    lines = [f"{w} setup_s {e2e['setup_s']:.4f} s (median of {n_setups})",
             f"{w} run_cpu_s {e2e['run_cpu_s']:.4f} s (median of {n_runs})"]
    if w == "paper-grid":
        grid_s = statistics.median(r["run_s"] for r in runs)
        lines.append(f"{w} grid_s {grid_s:.4f} s (median of {n_runs})")
    else:
        rate = statistics.median(r["ops"] / r["run_s"] for r in runs)
        lines.append(f"{w} serve_intervals_per_s {rate:.1f} 1/s "
                     f"(median of {n_runs})")
        lat = [r["verdict_latency_us"] for r in runs]
        count = min(l["count"] for l in lat)
        shown = ["p50"] + (["p99"] if tail_percentile(count) == 99 else [])
        for key in shown:
            lines.append(f"{w} verdict_{key}_us "
                         f"{statistics.median(l[key] for l in lat):.1f} us "
                         f"(median of {n_runs} runs, {count} samples each)")
    lines.append(f"{w} peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    lines.append(f"{w} failed_frac {failed / attempted if attempted else 1:g}"
                 f" ({failed} of {attempted})")
    return lines


def manifest(record, git_commit):
    """Run manifest: what ran, where, built how, and sample counts."""
    samples = {"setup_s": len(record["setups"]),
               "run_cpu_s": len(record["runs"])}
    if record["workload"] == "fleet-serve":
        count = min(r["verdict_latency_us"]["count"] for r in record["runs"])
        samples["verdict_latency_per_run"] = count
        samples["verdict_tail_percentile"] = tail_percentile(count)
    return {"manifest": {
        "workload": record["workload"], "seed": record["seed"],
        "seconds": record["seconds"], "trace": record["trace"],
        "threads": record["threads"], "nproc": record["nproc"],
        "compiler": record["compiler"], "cxx_flags": record["cxx_flags"],
        "build_type": record["build_type"], "git_commit": git_commit,
        "config": record["config"], "samples": samples}}


def result_metrics(record, declared, trace):
    """{name: (value, unit)} for the declared metrics of this run kind; the
    measured per-layer set must match the declared one exactly."""
    if not trace:
        values = end_to_end_values(record)
        return {n: (values[n], u) for n, u in declared["end_to_end"]}
    layers = record["traced"]["layers"]
    names = {n for n, _ in declared["per_layer"]}
    if set(layers) != names:
        raise ValueError(
            f"per-layer metrics undeclared: {sorted(set(layers) - names)}, "
            f"missing: {sorted(names - set(layers))}")
    return {n: (layers[n], u) for n, u in declared["per_layer"]}


def format_result(correct, attempted, failed, metrics):
    """The result line the benchmark ends with."""
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()}})


# ---------------------------------------------------------------------------
# Build and run.

def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def checkout_build_dir(source=HERE):
    """The build tree of the checkout whose perfbench/ is `source`:
    $CARGO_TARGET_DIR (default .bench_build) / perfbench-<hash of source>.
    A build root shared by several checkouts thus never builds one
    checkout's sources for another, since a CMake cache holds the source
    path it was made for."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    key = hashlib.sha256(source.encode()).hexdigest()[:12]
    return os.path.join(os.path.dirname(source), build_root,
                        "perfbench-" + key)


def build():
    """Configure (once) and build perfbench; returns the binary's path."""
    build_dir = checkout_build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2018)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = declared_metrics(json.load(f))
    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted, failed, violations = evaluate(record)
    for v in violations:
        print(f"perfbench: correctness check failed: {v}", file=sys.stderr)
    correct = not violations
    print(json.dumps(manifest(record, git_commit())))
    for line in summary_lines(record, attempted, failed):
        print(line)
    print(format_result(correct, attempted, failed,
                        result_metrics(record, declared, args.trace == 1)))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
