#!/usr/bin/env python3
"""The repository benchmark: build from source, run one workload, print its result.

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench, or into $CARGO_TARGET_DIR/perfbench when that is set;
later runs only check that the build is current. Build output goes to
stderr. The binary's last stdout line maps each metric it measured to a value;
this script checks the names against BENCHMARK.json, adds the declared units
and prints the result object as its last line. Exit codes: 0 all operations correct, 1 some
operation failed its correctness check, 2 the benchmark could not run.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170  # the binary's own wall-clock limit per run


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(targets):
    if not (ROOT / "src" / "core" / "registry.h").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", *targets])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(step))
    return out


def load_declared():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def complete_result(raw, declared, trace):
    """The binary's raw result against BENCHMARK.json: (result, problems).

    The raw metrics map names to values. Every one must be declared for this
    mode, every end-to-end metric must be present, and a per-layer metric of a
    layer the workload does not run is absent and reads 0. The result lists
    the metrics in declared order with their declared units."""
    problems = []
    if not isinstance(raw, dict) or set(raw) != {"correct", "attempted", "failed", "metrics"}:
        return None, [f"result keys {sorted(raw) if isinstance(raw, dict) else raw!r}"]
    for key in ("attempted", "failed"):
        if not isinstance(raw[key], int) or isinstance(raw[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(raw["attempted"], int) and raw["attempted"] < 1:
        problems.append("attempted < 1")
    if not isinstance(raw["correct"], bool):
        problems.append("correct is not a boolean")
    decls = declared["per_layer" if trace else "end_to_end"]
    got = raw["metrics"] if isinstance(raw["metrics"], dict) else {}
    extra = sorted(set(got) - {m["name"] for m in decls})
    if extra:
        problems.append(f"undeclared metrics {extra}")
    metrics = {}
    for m in decls:
        value = got.get(m["name"], None if not trace else 0)
        if m["name"] not in got and not trace:
            problems.append(f"{m['name']} not measured")
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{m['name']}: value {value!r} is not a finite number")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return result, problems


def run(args):
    declared = load_declared()
    if args.seconds is None:
        args.seconds = declared["run_seconds"]
    names = [w["name"] for w in declared["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; declared: {names}")
    out = build(["perfbench"])
    results = out / "results"
    results.mkdir(exist_ok=True)
    command = [str(out / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(results)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_LIMIT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"benchmark binary exited {proc.returncode}")
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the binary's last line is not JSON")
    result, problems = complete_result(raw, declared, args.trace == 1)
    if problems:
        fail("; ".join(problems))
    lines[-1] = json.dumps(result, separators=(",", ":"))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.jsonl").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    sys.stdout.flush()
    return 0 if result["correct"] and proc.returncode == 0 else 1


def selftest():
    """Builds and runs the C++ self-test, then checks BENCHMARK.json and the
    result checker against known cases."""
    out = build(["perfbench_selftest"])
    declared = load_declared()
    workloads = [w["name"] for w in declared["workloads"]]
    # The C++ self-test also checks that the binary runs each of these.
    if subprocess.run([str(out / "perfbench_selftest"), *workloads]).returncode:
        print("selftest: C++ self-test failed", file=sys.stderr)
        return 1
    errors = []

    def expect(ok, message):
        if not ok:
            errors.append(message)

    expect(set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    expect(declared["command"] == ["python3", "perfbench/run.py"], "command")
    expect(declared["paths"] == ["perfbench"], "paths")
    expect(len(workloads) == len(set(workloads)), "a workload name repeats")
    expect(all(set(w) == {"name", "why"} for w in declared["workloads"]), "workload keys")
    all_names = []
    for kind, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                       ("per_layer", {"name", "unit", "better"})):
        for m in declared[kind]:
            expect(set(m) == keys, f"{m.get('name')}: keys {sorted(m)}")
            expect(m.get("better") in ("higher", "lower"), f"{m.get('name')}: better")
            all_names.append(m.get("name"))
    expect(len(all_names) == len(set(all_names)), "a metric name repeats")
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    expect(all(0 < b <= 0.25 for b in bounds.values()), "bounds outside (0, 0.25]")
    expect(bounds.get("setup_s") == max(bounds.values()), "setup_s lacks the largest bound")

    e2e = {m["name"]: 1.5 for m in declared["end_to_end"]}
    good = {"correct": True, "attempted": 3, "failed": 0, "metrics": e2e}
    result, problems = complete_result(good, declared, False)
    expect(problems == [] and list(result["metrics"]) == list(e2e),
           "checker rejects or reorders a good result")
    expect(complete_result(good, declared, True)[1] != [],
           "checker accepts end-to-end metrics in a traced run")
    missing = {**good, "metrics": {k: v for k, v in e2e.items() if k != "setup_s"}}
    expect(complete_result(missing, declared, False)[1] != [],
           "checker accepts a missing end-to-end metric")
    extra = {**good, "metrics": {**e2e, "undeclared_metric": 1.0}}
    expect(complete_result(extra, declared, False)[1] != [],
           "checker accepts an undeclared metric")
    null = {**good, "metrics": {**e2e, "setup_s": None}}
    expect(complete_result(null, declared, False)[1] != [],
           "checker accepts a non-finite value")
    first = declared["per_layer"][0]["name"]
    layer, problems = complete_result({**good, "metrics": {first: 2.0}}, declared, True)
    expect(problems == [] and layer["metrics"][first]["value"] == 2.0 and
           all(v["value"] == 0 for k, v in layer["metrics"].items() if k != first),
           "checker does not zero-fill unexercised per-layer metrics")

    for e in errors:
        print(f"selftest: {e}", file=sys.stderr)
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    start = time.monotonic()
    code = run(args)
    print(f"perfbench: {time.monotonic() - start:.1f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
