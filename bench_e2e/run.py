#!/usr/bin/env python3
"""Builds bench_e2e from this checkout's sources and runs one workload.

    python3 bench_e2e/run.py --workload W --seed S --seconds N --trace 0|1

Run from anywhere; paths resolve against the repository root (the parent
of this directory). The build goes to $CARGO_TARGET_DIR when set, else
.bench_build, both relative to the root. Before measuring it checks that
the workloads and metrics bench_e2e --list prints equal BENCHMARK.json's,
so neither can change without the other. The last line of stdout is the
JSON result bench_e2e prints.

    python3 bench_e2e/run.py --check-names PATH/TO/bench_e2e

only runs that name check (the bench_e2e_names ctest).
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message, code):
    print(f"run.py: {message}", file=sys.stderr)
    return code


def name_mismatches(binary):
    """Differences between `binary --list` and BENCHMARK.json, as strings."""
    listed = subprocess.run([binary, "--list"], check=True,
                            capture_output=True, text=True).stdout
    have = {"workload": [], "end_to_end": [], "per_layer": []}
    for line in listed.splitlines():
        kind, *fields = line.split()
        have[kind].append(tuple(fields))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        "workload": [(w["name"],) for w in spec["workloads"]],
        "end_to_end": [(m["name"], m["unit"], m["better"])
                       for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"])
                      for m in spec["per_layer"]],
    }
    problems = []
    for kind in want:
        for entry in sorted(set(want[kind]) - set(have[kind])):
            problems.append(f"{kind} {' '.join(entry)}: in BENCHMARK.json only")
        for entry in sorted(set(have[kind]) - set(want[kind])):
            problems.append(f"{kind} {' '.join(entry)}: in bench_e2e only")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-names", metavar="BINARY")
    args = parser.parse_args()

    if args.check_names:
        problems = name_mismatches(args.check_names)
        for p in problems:
            print(p, file=sys.stderr)
        return 1 if problems else 0
    if not args.workload:
        parser.error("--workload is required")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        return fail(f"no rlccd sources under {ROOT}", 2)
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                         ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build, "--target", "bench_e2e", "-j", jobs]]
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "bench_e2e"), "-B",
                         build, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return fail("build failed: " + " ".join(step), 2)

    binary = os.path.join(build, "bench_e2e")
    problems = name_mismatches(binary)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return fail("bench_e2e and BENCHMARK.json disagree", 3)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work",
           os.path.join(build, "e2e-work")]
    if args.trace:
        cmd += ["--trace", os.path.join(build, "e2e-trace")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
