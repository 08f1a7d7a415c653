#!/usr/bin/env python3
"""Builds and runs the cmh end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke     # every workload, two seeds, short runs

The first call configures and builds perfbench/ (and the library from src/)
in .bench_build/perfbench with CMake in Release mode; later calls only
rebuild what changed.  Build output goes to stderr.  The benchmark's own
stdout is passed through unchanged, so its last line is the JSON result.
The exit code is the benchmark's: non-zero when a correctness gate fails,
the build fails, or the run exceeds its time limit.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "cmh_perfbench"
WORKLOADS = ["sim_wave", "ddb_hot", "tcp_mixed", "inmem_mixed"]
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "cmh_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def run(workload, seed, seconds, trace, commit, quiet=False):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--commit", commit]
    out = subprocess.PIPE if quiet else None
    with subprocess.Popen(cmd, stdout=out, stderr=out) as proc:
        try:
            proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
            return 124
        return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload on two seeds, traced and not")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")

    build()
    commit = commit_id()
    if not args.smoke:
        sys.exit(run(args.workload, args.seed, args.seconds, args.trace, commit))

    failed = 0
    for workload in WORKLOADS:
        for seed in (args.seed, args.seed + 1):
            for trace in (0, 1):
                code = run(workload, seed, 2, trace, commit, quiet=True)
                print("smoke %-12s seed %-4d trace %d: %s"
                      % (workload, seed, trace, "ok" if code == 0 else "FAILED (%d)" % code))
                failed += code != 0
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
