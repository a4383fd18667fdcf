#!/usr/bin/env python3
"""Host-time benchmark of the simulated multi-GPU cluster.

Builds the library and the perfbench binary from source into .bench_build/,
runs one workload in its own process, checks every op's outputs, and prints
the metrics as the last stdout line:

    python3 perfbench/run.py --workload fig5_sweep --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer split.
--write-reference regenerates perfbench/reference.json (simulated outputs
of every modeled op); do that only on a commit whose simulated results are
meant to change.  NOTES.md beside this file describes the workloads.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
REFERENCE = BENCH_DIR / "reference.json"

WORKLOADS = ("fig5_sweep", "fattree_1024", "propagator")
# host-engine budget of the timed ops: one thread, so no op waits for a
# worker thread to be woken on another core of the shared host
THREADS = 1
# budget that exec.solve_speedup compares with one thread, never more than
# the host has
MAX_PROBE_THREADS = 2
# set-up is measured in this many separate processes (plus the measured run)
SETUP_SPAWNS = 4
RUN_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "sim_gflops": "GF/s",
    "solver_iters": "count",
}
PER_LAYER = {
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.messages": "count",
    "sim.ns_per_event": "ns",
    "sim.ns_per_event.r256": "ns",
    "sim.ns_per_event.r512": "ns",
    "sim.ns_per_event.r1024": "ns",
    "trace.record_s": "s",
    "trace.events_mb": "MB",
    "trace.metrics_s": "s",
    "trace.critpath_s": "s",
    "trace.export_s": "s",
    "trace.export_mb": "MB",
    "telemetry.s": "s",
    "telemetry.ledger_rows": "count",
    "telemetry.anomalies": "count",
    "api.apply_matrix_s": "s",
    "dirac.dslash_single_msites_s": "Msite/s",
    "dirac.dslash_half_msites_s": "Msite/s",
    "dirac.dslash_half_gbs_computed": "GB/s",
    "dirac.dslash_flops_per_site": "flop",
    "dirac.dslash_single_bytes_per_site_computed": "B",
    "dirac.dslash_half_bytes_per_site_computed": "B",
    "dirac.clover_single_msites_s": "Msite/s",
    "dirac.clover_half_msites_s": "Msite/s",
    "dirac.clover_flops_per_site": "flop",
    "dirac.clover_single_bytes_per_site_computed": "B",
    "dirac.clover_half_bytes_per_site_computed": "B",
    "blas.axpy_norm_single_msites_s": "Msite/s",
    "blas.axpy_norm_half_msites_s": "Msite/s",
    "blas.axpy_norm_flops_per_site": "flop",
    "blas.axpy_norm_single_bytes_per_site_computed": "B",
    "blas.axpy_norm_half_bytes_per_site_computed": "B",
    "lattice.convert_s2h_msites_s": "Msite/s",
    "lattice.convert_h2s_msites_s": "Msite/s",
    "lattice.convert_bytes_per_site_computed": "B",
    "exec.threads": "count",
    "exec.solve_speedup": "x",
    "solvers.reliable_updates": "count",
    "parallel.halo_mb": "MB",
    "parallel.overlap_efficiency": "ratio",
    "bench.trace_overhead_s": "s",
    "other_s": "s",
}
# layer self-times whose sum with other_s is the untraced run_s
SELF_TIMES = ("sim.run_s", "trace.record_s", "trace.metrics_s", "trace.critpath_s",
              "telemetry.s")
# simulated outputs of a modeled op pinned by the reference table
REFERENCE_KEYS = ("fits", "iters", "time_us", "gflops", "events", "messages", "path_us")
# record keys that are measurements of the host, not outputs of the program
HOST_KEYS = ("type", "pass", "host_s", "residual", "residual_bound")


class BenchError(Exception):
    pass


# --- aggregation -------------------------------------------------------------

def geomean(values):
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    # fsum is exactly rounded, so the result does not depend on op order
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def tail_percentile(values):
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it.

    Returns (percentile, value) by nearest rank, or None below 20 samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in (50, 90, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            rank = max(1, math.ceil(p / 100 * n))
            best = (p, ordered[rank - 1])
    return best


def parse_vmhwm_mb(status_text):
    """Peak resident set (VmHWM) in MB (2^20 bytes) from /proc/<pid>/status text."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            fields = line.split()
            if len(fields) != 3 or fields[2] != "kB":
                raise ValueError("malformed VmHWM line: %r" % line)
            return int(fields[1]) / 1024.0
    raise ValueError("no VmHWM line")


def op_problems(rec, reference):
    """Why one op record is wrong (empty list: correct)."""
    problems = []
    op = rec["id"]
    if op.startswith("prop/"):
        if not rec.get("converged"):
            problems.append("%s did not converge" % op)
        if "residual" in rec:
            residual, bound = rec["residual"], rec["residual_bound"]
            if residual is None or not residual <= bound:
                problems.append("%s true residual %r above %r" % (op, residual, bound))
        return problems
    ref = reference.get(op)
    if ref is None:
        return ["%s has no reference entry" % op]
    for key in REFERENCE_KEYS:
        if key in rec and rec[key] != ref.get(key):
            problems.append("%s %s=%r, reference %r" % (op, key, rec[key], ref.get(key)))
    if "path_us" in rec and rec["path_us"] != rec["time_us"]:
        problems.append("%s critical path %r != makespan %r" % (op, rec["path_us"], rec["time_us"]))
    return problems


def differing_outputs(a, b):
    """Program outputs present in both records that differ."""
    return sorted(k for k in a.keys() & b.keys() if k not in HOST_KEYS and a[k] != b[k])


def evaluate(records, reference):
    """Check every op and check record: (attempted, failed, problems)."""
    problems = []
    attempted = failed = 0
    first = {}
    for rec in records:
        if rec["type"] == "op":
            found = op_problems(rec, reference)
            differ = differing_outputs(first.setdefault(rec["id"], rec), rec)
            if differ:
                found.append("%s %s differ between passes" % (rec["id"], ", ".join(differ)))
        elif rec["type"] == "check":
            found = [] if rec["ok"] else ["%s failed its %s check" % (rec["id"], rec["check"])]
        else:
            continue
        attempted += 1
        failed += bool(found)
        problems.extend(found)
    return attempted, failed, problems


def pass_host_s(by_id):
    """Host seconds of one pass, from the runs of each op across the passes.

    Modeled ops differ in rank count and lattice: each op counts with its
    median.  Propagator solves share their operator and solver and differ
    only in the source, so host seconds per Krylov iteration is a unit all
    of them measure: a pass counts as its iterations at the fastest seconds
    per iteration of any solve in the run.  Load from other tenants of the
    host only adds time and comes in bursts of seconds; the pooled fastest
    sample is the one it disturbed least.
    """
    if all(op.startswith("prop/") for op in by_id):
        per_iter = min(r["host_s"] / r["iters"] for runs in by_id.values() for r in runs)
        return per_iter * sum(runs[0]["iters"] for runs in by_id.values())
    return sum(statistics.median(r["host_s"] for r in runs) for runs in by_id.values())


def end_to_end(records, setups):
    ops = [r for r in records if r["type"] == "op"]
    by_id = {}
    for r in ops:
        by_id.setdefault(r["id"], []).append(r)
    firsts = [runs[0] for runs in by_id.values() if runs[0]["fits"]]
    summary = next(r for r in records if r["type"] == "summary")
    return {
        "setup_s": statistics.median(setups),
        "run_s": pass_host_s(by_id),
        "peak_rss_mb": parse_vmhwm_mb(summary["vmhwm"]),
        "sim_gflops": geomean(r["gflops"] for r in firsts),
        "solver_iters": float(sum(r["iters"] for r in firsts)),
    }


def per_layer(records):
    layers = next(r for r in records if r["type"] == "layers")
    out = {k: layers[k] for k in PER_LAYER if k in layers}
    out["sim.ns_per_event"] = layers["sim.run_s"] * 1e9 / layers["sim.events"]
    out["bench.trace_overhead_s"] = layers["traced_pass_s"] - layers["run_s"]
    out["other_s"] = layers["run_s"] - sum(layers[k] for k in SELF_TIMES)
    missing = sorted(set(PER_LAYER) - set(out))
    if missing:
        raise BenchError("traced run did not report " + ", ".join(missing))
    return out


# --- build and run -----------------------------------------------------------

def child_env():
    # trace/telemetry/scheduler/thread settings are chosen by the benchmark
    return {k: v for k, v in os.environ.items() if not k.startswith("QUDA_SIM_")}


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("library sources not found under %s" % (ROOT / "src"))
    log = sys.stderr
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"], stdout=log, check=True)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1)],
                   stdout=log, check=True)


def run_binary(args, timeout):
    spawn = time.monotonic()
    proc = subprocess.run([str(BINARY)] + args + ["--spawn-mono", repr(spawn)],
                          capture_output=True, text=True, timeout=timeout, env=child_env())
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError("perfbench exited with %d" % proc.returncode)
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def write_reference():
    records = run_binary(["--reference"], timeout=3600)
    table = {r["id"]: {k: r[k] for k in REFERENCE_KEYS if k in r} for r in records}
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print("wrote %d reference entries to %s" % (len(table), REFERENCE))


def bench(args):
    probe_threads = min(MAX_PROBE_THREADS, os.cpu_count() or 1)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--threads", str(THREADS),
              "--probe-threads", str(probe_threads)]
    setups = []
    for _ in range(SETUP_SPAWNS):
        recs = run_binary(common + ["--setup-only"], timeout=SETUP_TIMEOUT_S)
        setups.append(next(r for r in recs if r["type"] == "setup")["setup_s"])
    records = run_binary(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                         timeout=RUN_TIMEOUT_S)
    setups.append(next(r for r in records if r["type"] == "setup")["setup_s"])

    reference = json.loads(REFERENCE.read_text())
    attempted, failed, problems = evaluate(records, reference)
    for p in problems:
        print("FAILED: " + p, file=sys.stderr)
    if args.trace:
        values, units = per_layer(records), PER_LAYER
    else:
        values, units = end_to_end(records, setups), END_TO_END

    provenance = next(r for r in records if r["type"] == "provenance")
    provenance = {k: v for k, v in provenance.items() if k != "type"}
    provenance.update(nproc=os.cpu_count(), source_digest=source_digest())
    op_s = [r["host_s"] for r in records if r["type"] == "op"]
    tail = tail_percentile(op_s)
    print(json.dumps({"provenance": provenance, "setup_samples_s": setups,
                      "op_host_s": {"count": len(op_s), "median": statistics.median(op_s),
                                    "tail": None if tail is None else
                                    {"percentile": tail[0], "value": tail[1]}}}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    if not args.write_reference and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        build()
        if args.write_reference:
            write_reference()
        else:
            bench(args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError,
            StopIteration) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
