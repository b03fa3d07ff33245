#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload list-16t --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark is built from source into
.bench_build/ (dune, release profile, shared cache off so nothing is
written outside the checkout); records and traces go to
.bench_build/perfbench/. The last line of standard output is the result
object; the exit status is 0 only if every check held.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = os.path.join(BUILD_DIR, "perfbench")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "nvtbench.exe")
WORKLOADS = ["list-16t", "svc-perop", "svc-crash", "native-list"]
# Sources the measured program is built from, for the record's digest.
SOURCES = ["dune-project", "lib", "perfbench"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def check_checkout():
    missing = [p for p in ["dune-project", "lib", "BENCHMARK.json",
                           os.path.join("perfbench", "dune")]
               if not os.path.exists(p)]
    if missing:
        fail("not a checkout of the repository (missing %s)" % ", ".join(missing), 2)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/nvtbench.exe"]
    try:
        p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed", 2)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail("build failed")


def commit():
    if os.path.isdir(".git"):
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                  text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "unknown"


def source_digest():
    h = hashlib.sha256()
    files = []
    for root in SOURCES:
        if os.path.isfile(root):
            files.append(root)
        for d, dirs, names in os.walk(root):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)
                      if n.endswith((".ml", ".mli", "dune", ".py"))]
    for f in files:
        h.update(f.encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def declared(trace):
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(name, seed, seconds, trace, meta):
    cmd = [EXE, "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", OUT_DIR,
           "--commit", meta["commit"], "--source-digest", meta["digest"]]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (name, RUN_TIMEOUT_S))
    sys.stdout.write(p.stdout)
    sys.stdout.flush()
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s printed no result line" % name)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: malformed result line" % name)
    want = declared(trace)
    if sorted(result["metrics"]) != sorted(want):
        fail("%s: metrics differ from BENCHMARK.json" % name)
    return p.returncode == 0 and result["correct"]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="determinism and failure-accounting checks")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        ap.error("--workload is required")
    check_checkout()
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    if a.selftest:
        sys.exit(subprocess.run([EXE, "--selftest"], timeout=RUN_TIMEOUT_S).returncode)
    meta = {"commit": commit(), "digest": source_digest()}
    names = WORKLOADS if a.workload == "all" else [a.workload]
    ok = all([run_workload(n, a.seed, a.seconds, a.trace, meta) for n in names])
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
