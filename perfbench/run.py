"""Benchmark for kdcheck: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs as a single client in a closed loop, in its own
process.  With ``--trace 0`` the run repeats untraced passes for
``--seconds`` and reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("verify-all", "hash-scale", "cli-desk")
MIN_PASSES = 2
SETUP_PROBES = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

VERIFY_CHECKS = ("pgm-success-table", "pgm-optimality-sandwich", "lhl-classical",
                 "lhl-collision", "lhl-side-register", "return-time-gf",
                 "covariance-closed-forms", "gaussian-semigroup", "entropy-orders",
                 "bridge-refinement")
# Functions whose call count and self time are reported, by layer.
TIMED = {
    "markov": ("resolvent", "theta_gf", "n_step", "first_return",
               "radius_of_convergence", "markov_report"),
    "semigroup": ("apply",),
    "hashing": ("build_family", "joint_state", "lhl_distance",
                "collision_probability", "lhl_report"),
    "quantum": ("hashed_joint_blocks", "tripartite_distance", "tripartite_report",
                "e_opt", "pretty_good_measurement"),
    "treeproc": ("simulate_ensemble", "refinement_delta", "increment_stats"),
    "entropy": ("renyi_entropy", "renyi_divergence", "aep_estimate",
                "differential_entropy"),
    "cli": ("main",),
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"verify.%s.wall_s" % c: "s" for c in VERIFY_CHECKS}
    for layer, fns in TIMED.items():
        for fn in fns:
            units["%s.%s.calls" % (layer, fn)] = "count"
            units["%s.%s.self_s" % (layer, fn)] = "s"
    units.update({
        "semigroup.apply.points": "count",
        "semigroup.check_semigroup.self_s": "s",
        "semigroup.check_contraction.self_s": "s",
        "semigroup.kernel_pdf.self_s": "s",
        "semigroup.closed_form_rel_err": "ratio",
        "quadrature.tensor_rule.calls": "count",
        "quadrature.tensor_rule.nodes": "count",
        "hashing.build_family.cells": "count",
        "hashing.joint_laws_per_report": "ratio",
        "treeproc.points": "count",
        "treeproc.points_per_s": "1/s",
        "cli.main.fail": "count",
        "cli.jsonable.self_s": "s",
        "cli.exit_code_mismatch": "count",
        "core.calls": "count",
        "core.self_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    return units


# ---------------------------------------------------------------------------
# Environment and set-up time
# ---------------------------------------------------------------------------

def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "KD_THREADS": os.environ.get("KD_THREADS"),
        "git_commit": git_commit(),
        "src_lines": src_line_count(),
        "platform": platform.platform(),
    }


_PROBE = ("import time; t = time.perf_counter(); import kdcheck; "
          "print(time.perf_counter() - t); print(kdcheck.__file__)")


def measure_setup(probes: int) -> List[float]:
    """Wall time of ``import kdcheck`` in fresh interpreters.

    One unrecorded probe first, so byte-code caches exist as they do for
    any installed copy.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    samples = []
    for i in range(probes + 1):
        out = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=str(ROOT),
                             capture_output=True, text=True, timeout=120, check=True)
        seconds, where = out.stdout.split("\n")[:2]
        if not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError("kdcheck imported from %s, not %s" % (where, SRC))
        if i:
            samples.append(float(seconds))
    return samples


# ---------------------------------------------------------------------------
# Statistics and reporting
# ---------------------------------------------------------------------------

def summary(values: Sequence[float]) -> dict:
    values = list(values)
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def tally(logs) -> dict:
    import workloads
    attempted = sum(len(log.verdicts) for log in logs)
    failures = sorted({label for log in logs for label, found in log.verdicts.items()
                       if found})
    failed = sum(1 for log in logs for found in log.verdicts.values() if found)
    unexpected = [f for f in failures if f not in workloads.KNOWN_DEFECTS]
    problems = {label: found for log in logs for label, found in log.verdicts.items()
                if found}
    return {"attempted": attempted, "failed": failed, "failing": failures,
            "unexpected": unexpected, "problems": problems}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_loop(ops, seconds: float, trace: bool):
    """Closed loop: one pass after another until the next would overrun.

    Returns untraced logs, traced logs, the tracer (or None) and the peak
    resident memory after the first pass.  Later passes only add heap
    fragmentation, so the peak is read before they run.
    """
    import workloads
    plain, traced = [], []
    tracer = None
    first_peak = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    start = time.perf_counter()
    last = 0.0
    while True:
        t0 = time.perf_counter()
        if trace and len(plain) > len(traced):
            with tracer:
                traced.append(workloads.run_pass(ops, tracer.paused))
        else:
            plain.append(workloads.run_pass(ops))
        last = time.perf_counter() - t0
        if first_peak is None:
            first_peak = peak_rss_mb()
        done = len(plain) + len(traced)
        if done >= MIN_PASSES and time.perf_counter() - start + last > seconds:
            break
    return plain, traced, tracer, first_peak


def per_layer(plain, traced, tracer) -> Dict[str, float]:
    import tracer as tracing
    n = len(traced)
    agg = tracing.aggregate(tracer.spans)
    zero = tracing.Totals()

    def get(name):
        return agg.get(name, zero)

    def per_pass(x):
        return x / n

    values: Dict[str, float] = {}
    for check in VERIFY_CHECKS:
        walls = [log.observations.get("verify.%s.wall_s" % check, 0.0) for log in plain]
        values["verify.%s.wall_s" % check] = statistics.median(walls)
    for layer, fns in TIMED.items():
        for fn in fns:
            t = get("%s.%s" % (layer, fn))
            values["%s.%s.calls" % (layer, fn)] = per_pass(t.calls)
            values["%s.%s.self_s" % (layer, fn)] = per_pass(t.self_s)
    for fn in ("check_semigroup", "check_contraction", "kernel_pdf"):
        values["semigroup.%s.self_s" % fn] = per_pass(get("semigroup." + fn).self_s)
    values["semigroup.apply.points"] = per_pass(get("semigroup.apply").count)
    values["semigroup.closed_form_rel_err"] = max(
        log.observations.get("semigroup.closed_form_rel_err", 0.0) for log in plain + traced)
    values["quadrature.tensor_rule.calls"] = per_pass(get("quadrature.tensor_rule").calls)
    values["quadrature.tensor_rule.nodes"] = per_pass(get("quadrature.tensor_rule").count)
    values["hashing.build_family.cells"] = per_pass(get("hashing.build_family").count)
    reports = get("hashing.lhl_report").calls
    values["hashing.joint_laws_per_report"] = (
        tracing.calls_under(tracer.spans, "hashing.joint_state", "hashing.lhl_report")
        / reports if reports else 0.0)
    tree = [get("treeproc.simulate_ensemble"), get("treeproc.refinement_delta")]
    tree_points = sum(t.count for t in tree)
    tree_time = sum(t.total_s for t in tree)
    values["treeproc.points"] = per_pass(tree_points)
    values["treeproc.points_per_s"] = tree_points / tree_time if tree_time else 0.0
    values["cli.main.fail"] = per_pass(get("cli.main").fail)
    values["cli.jsonable.self_s"] = per_pass(get("cli.jsonable").self_s)
    values["cli.exit_code_mismatch"] = per_pass(sum(
        log.observations.get("cli.exit_code_mismatch", 0) for log in traced))
    core = [t for name, t in agg.items() if name.startswith("core.")]
    values["core.calls"] = per_pass(sum(t.calls for t in core))
    values["core.self_s"] = per_pass(sum(t.self_s for t in core))
    values["trace.overhead_ratio"] = (
        statistics.median(log.wall_s for log in traced)
        / statistics.median(log.wall_s for log in plain))
    return values


def write_spans(path: Path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                 "start": s.start, "end": s.end,
                                 "failed": s.failed, "count": s.count}) + "\n")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment()
    setup = measure_setup(SETUP_PROBES)
    import workloads
    OUT.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[name](seed, OUT)
    plain, traced, tracer, first_peak = run_loop(ops, seconds, trace)
    logs = plain + traced
    counts = tally(logs)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env, "passes": {"untraced": len(plain), "traced": len(traced)},
              **counts}
    stem = "%s-seed%d-trace%d" % (name, seed, int(trace))
    if trace:
        metrics = per_layer(plain, traced, tracer)
        units = per_layer_units()
        write_spans(OUT / ("spans-%s.jsonl" % stem), tracer.spans)
        record["per_layer"] = metrics
        print("workload %s  seed %d  trace 1  passes %d untraced + %d traced"
              % (name, seed, len(plain), len(traced)))
        for key, value in metrics.items():
            print("  %-44s %-6s %.6g" % (key, units[key], value))
        result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        stats = {
            "wall_s": summary([log.wall_s for log in plain]),
            "cpu_s": summary([log.cpu_s for log in plain]),
            "setup_s": summary(setup),
            "peak_rss_mb": summary([first_peak]),
        }
        record["end_to_end"] = stats
        print("workload %s  seed %d  trace 0  passes %d  (single client, closed loop)"
              % (name, seed, len(plain)))
        for key, s in stats.items():
            print("  %-12s %-3s median %.6g  q1 %.6g  q3 %.6g  n %d"
                  % (key, END_TO_END[key], s["median"], s["q1"], s["q3"], s["n"]))
        result_metrics = {k: {"value": s["median"], "unit": END_TO_END[k]}
                          for k, s in stats.items()}
    print("  %-12s %-3s %.6g  (%d failed / %d attempted)"
          % ("fail_ratio", "1", counts["failed"] / counts["attempted"],
             counts["failed"], counts["attempted"]))
    for label in counts["failing"]:
        tag = "known defect" if label in workloads.KNOWN_DEFECTS else "UNEXPECTED"
        print("  failing: %s [%s] %s" % (label, tag, counts["problems"][label][0]))
    print("  environment: %s" % json.dumps(env, sort_keys=True))
    with open(OUT / ("%s.json" % stem), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    return {"correct": not counts["unexpected"], "attempted": counts["attempted"],
            "failed": counts["failed"], "metrics": result_metrics}


def run_all(args) -> int:
    """Each workload in its own process; the last line maps workload to result."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=str(ROOT), timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print("workload %s failed with exit code %d" % (name, proc.returncode),
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "kdcheck" / "__init__.py").is_file():
        print("error: no kdcheck sources under %s; run from a checkout" % SRC,
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
