#!/usr/bin/env python3
"""Builds bench_e2e from the checkout's sources and runs one workload.

Run from the repository root:

    python3 bench/e2e/run.py --workload search --seed 1 --seconds 15 --trace 0

The build goes to .bench_build/e2e (CMake, Release). bench_e2e prints a record
of every metric it measured; this script picks out the metrics BENCHMARK.json
lists for the trace mode (end_to_end for --trace 0, per_layer for --trace 1)
and prints them as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

An end-to-end metric that is missing or not above 0 makes the run fail; a
per-layer metric of a layer the workload does not call reads 0. `--out FILE`
appends the full record (host, digest, every metric) to FILE for compare.py.
`--workload all` runs the five workloads one process each.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(REPO, ".bench_build", "e2e")
WORKLOADS = ["pretrain", "search", "train", "serve", "stream"]
RUN_TIMEOUT_S = 175


def fail(message, code):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Identifies the program under test when the checkout has no git."""
    h = hashlib.sha256()
    src = os.path.join(REPO, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, REPO).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("no library sources under src/: run from a full checkout", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    done = subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "bench_e2e"],
                          stdout=sys.stderr)
    if done.returncode != 0:
        fail("build failed", 3)
    return os.path.join(BUILD, "bench_e2e")


def load_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def select(record, spec, trace):
    """The result object: the listed metrics of `record`, in listed order."""
    measured = record["metrics"]
    problems = list(record["violations"])
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = measured.get(m["name"])
        if got is None and trace:
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None or got["value"] is None:
            problems.append("%s was not measured" % m["name"])
            continue
        if got["unit"] != m["unit"]:
            problems.append("%s is in %s, BENCHMARK.json says %s" % (
                m["name"], got["unit"], m["unit"]))
        if not trace and not got["value"] > 0:
            problems.append("%s is not above 0" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    listed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(set(measured) - listed):
        print("run.py: %s is measured but BENCHMARK.json does not list it" % name,
              file=sys.stderr)
    result = {"correct": not problems, "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    return result, problems


def run_one(binary, args, workload, commit, spec):
    workdir = os.path.join(BUILD, "work-%d" % os.getpid())
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--commit", commit]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace_out:
        cmd += ["--trace-out", args.trace_out if args.workload != "all"
                else "%s.%s" % (args.trace_out, workload)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 5)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        record = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        fail("%s exited with %d and no record" % (workload, done.returncode), 6)
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    result, problems = select(record, spec, args.trace)
    for problem in problems:
        print("run.py: %s: %s" % (workload, problem), file=sys.stderr)
    if done.returncode != 0 or problems:
        print(json.dumps(result), flush=True)
        fail("%s failed its checks" % workload, done.returncode or 4)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: checks every path, measures nothing")
    parser.add_argument("--out", help="append each full record to this file")
    parser.add_argument("--trace-out", help="write the Chrome trace here (--trace 1)")
    args = parser.parse_args()

    spec = load_spec()
    binary = build()
    commit = source_digest()
    if args.workload != "all":
        print(json.dumps(run_one(binary, args, args.workload, commit, spec)), flush=True)
        return
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(binary, args, workload, commit, spec)
        print("[run] %s %s" % (workload, json.dumps(result)), flush=True)
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(merged), flush=True)


if __name__ == "__main__":
    main()
