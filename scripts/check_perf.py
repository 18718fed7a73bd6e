#!/usr/bin/env python3
"""Check repo-benchmark runs against the committed perf baseline.

    check_perf.py BENCH_perf.json RUN_OUTPUT...

Each RUN_OUTPUT is the stdout of one `perfbench/run.py --trace 0` run.
Exit 1 when a run is not correct or lost a job, when its sim_digest
differs from the baseline's (the simulated machine changed), when a
baseline workload has no run, or when a gated metric is more than
`regression_tolerance` below the baseline on a host with the baseline's
`host_cpus`.  On another CPU count that metric gets a ::warning only.
"""

import json
import re
import sys


def check(base, path, text):
    """The failures of one run output; prints its gated metric."""
    m = re.search(r"^sim_digest (\S+) .* (\S+)$", text, re.M)
    if m is None:
        return [f"{path}: no sim_digest line (no pass completed)"]
    name, digest = m.groups()
    want, res = base["workloads"][name], json.loads(text.splitlines()[-1])
    out = [] if res["correct"] and not res["failed"] else [
        f"{name}: correct={res['correct']}, {res['failed']} jobs failed"]
    if digest != want["sim_digest"]:
        out.append(f"{name}: sim_digest {digest} != {want['sim_digest']}")
    metric = want["metric"]
    if metric is None:
        return out
    got = res["metrics"].get(metric, {"value": 0.0})["value"]
    floor = want["value"] * (1 - base["regression_tolerance"])
    print(f"{name}: {metric} {got:.3f} (baseline {want['value']}, "
          f"floor {floor:.3f})")
    cpus = int(re.search(r"host_cpus=(\d+)", text).group(1))
    if cpus != base["host_cpus"]:
        print(f"::warning title=perf gate skipped::{name} ran on {cpus} "
              f"CPUs, the baseline on {base['host_cpus']}: not gated")
    elif got < floor:
        out.append(f"{name}: {metric} {got:.3f} < floor {floor:.3f}")
    return out


def main():
    base = json.load(open(sys.argv[1]))
    runs = {p: open(p).read().strip() for p in sys.argv[2:]}
    failures = [f for p, t in runs.items() for f in check(base, p, t)]
    failures += [f"{w}: no run" for w in base["workloads"] if not any(
        f"sim_digest {w} " in t for t in runs.values())]
    for f in failures:
        print(f"check_perf: {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
