#!/usr/bin/env python3
"""Build and run one omnibench workload.

Usage (from the repository root):

    python3 omnibench/run.py --workload cold_dataflow --seed 1 \
        --seconds 15 --trace 0

Builds the benchmark (and the simulator it links) from source into the
build directory -- $CARGO_TARGET_DIR when set, else .bench_build -- then
runs the workload. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the provenance. Exit status 0 only when every checked answer matched
its reference. `--selftest` builds and runs the helper self-test
instead. Build logs go to stderr.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
# The seed runs use by default, and a held-out seed on which to re-check
# a speed claim (nobody tunes against it).
DEFAULT_SEED = 1
HELDOUT_SEED = 7919


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configure (once) and build; returns False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4", "--target",
                  "omnibench", "omnibench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("omnibench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_digest():
    """sha256 over the simulator sources and the benchmark (paths and
    contents), which identifies the code a checkout without git history
    measured."""
    h = hashlib.sha256()
    parts = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for base, dirs, files in os.walk(top):
            dirs.sort()
            parts.extend(os.path.join(base, f) for f in sorted(files))
    for p in parts:
        if os.path.isfile(p) and "__pycache__" not in p:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    # When this wrapper is terminated, it still stops and reaps the benchmark.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload seed (default %d; held-out seed %d)"
                         % (DEFAULT_SEED, HELDOUT_SEED))
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--trace-out",
                    help="Chrome trace_event file of a traced run "
                         "(default: <build dir>/traces/<workload>-seed<N>.json)")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt recorded answers to exercise the "
                         "correctness gate (the run must fail)")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the helper self-test only")
    args = ap.parse_args()

    bdir = build_dir()
    if not build(bdir):
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(bdir, "omnibench_selftest")]
                              ).returncode
    if None in (args.workload, args.seconds, args.trace):
        ap.error("--workload, --seconds and --trace are required")

    cmd = [os.path.join(bdir, "omnibench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", os.path.join(bdir, "run-%d" % os.getpid()),
           "--git-sha", git_sha(), "--src-digest", source_digest()]
    if args.trace:
        out = args.trace_out or os.path.join(
            bdir, "traces", "%s-seed%d.json" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        cmd += ["--trace-out", out]
    if args.inject_fault:
        cmd.append("--inject-fault")

    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("omnibench: run exceeded %d s; stopped" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
