#!/usr/bin/env python3
"""Enforce a peak-RSS ceiling on a simulation run.

  check_rss.py --max-mib 2048 -- ./bench/capacity_smoke --json out.json

Runs the command, measures the children's ru_maxrss via getrusage, and
fails if it exceeded the ceiling.  Needs no /usr/bin/time.

Exit status: 0 under the ceiling, 1 over it, propagating the child's
failure first.

CI uses this to pin the sparse-metadata contract: a paper-scale
NM 1 GiB / FM 4 GiB run must not cost capacity-proportional memory.
"""

import argparse
import resource
import subprocess
import sys


def peak_from_run(cmd: list[str]) -> int:
    """Run cmd; peak RSS of the children in KiB (Linux ru_maxrss unit)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    rc = subprocess.call(cmd)
    if rc != 0:
        sys.exit(f"check_rss: command failed with exit status {rc}")
    after = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if after <= before:
        print(
            "check_rss: warning: a larger earlier child dominates "
            "ru_maxrss; reporting that upper bound",
            file=sys.stderr,
        )
    return after


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-mib", type=int, required=True,
                        help="peak-RSS ceiling in MiB")
    parser.add_argument("cmd", nargs=argparse.REMAINDER,
                        help="-- command to run and measure")
    args = parser.parse_args()

    cmd = args.cmd
    if cmd and cmd[0] == "--":
        cmd = cmd[1:]
    if not cmd:
        parser.error("need a command after --")
    peak_kib = peak_from_run(cmd)

    peak_mib = peak_kib / 1024.0
    print(f"check_rss: peak RSS {peak_mib:.1f} MiB "
          f"(ceiling {args.max_mib} MiB)")
    if peak_mib > args.max_mib:
        sys.exit(f"check_rss: peak RSS {peak_mib:.1f} MiB exceeds the "
                 f"{args.max_mib} MiB ceiling")


if __name__ == "__main__":
    main()
