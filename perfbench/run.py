#!/usr/bin/env python3
"""Served-query benchmark for tfree: build from source, then run one workload.

Run from the root of a tfree source tree:

    python3 perfbench/run.py --workload chatty-hot --seed 1 --seconds 10 --trace 0

It builds the `tfree` binary and the benchmark program perfbench.exe with
dune, then runs it (perfbench/perfbench.ml): it starts a `tfree serve` daemon,
drives it, checks every reply and prints every metric; the last line of
standard output is the JSON result.  `--trace 1` prints the per-layer
metrics of the traced replay instead of the end-to-end ones.  Each run's
record is appended to perfbench/out/results.jsonl; compare two such files
with perfbench/compare.py.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ("chatty-hot", "build-churn", "tiny-mixed")
PERFBENCH = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def source_rev():
    """The git revision when run in a clone, else a hash of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("bin", "lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", ".c", "dune")):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not all(os.path.exists(p) for p in ("dune-project", "bin/main.ml", "lib")):
        print("perfbench: not the root of a tfree source tree", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2", "./bin/main.exe", "./perfbench/perfbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [PERFBENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(len(os.sched_getaffinity(0))),
           "--clk-tck", str(os.sysconf("SC_CLK_TCK")), "--rev", source_rev()]
    # own process group, so a timeout or a SIGTERM can stop perfbench.exe
    # and any daemon it spawned
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, process_group=0)

    def stop_group(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop_group)
    try:
        out, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    if proc.returncode != 0:
        sys.stderr.write(out)
        print(f"perfbench: perfbench.exe exited with {proc.returncode}", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
