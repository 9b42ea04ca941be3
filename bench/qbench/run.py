#!/usr/bin/env python3
"""Build qbench and run its workloads.

    python3 bench/qbench/run.py                 # every workload, end-to-end
    python3 bench/qbench/run.py --traced        # every workload, per-layer
    python3 bench/qbench/run.py --smoke         # fast correctness pass
    python3 bench/qbench/run.py --workload chat --seed 3 --seconds 10 --trace 0

With --workload, one workload runs and the last line of stdout is its
result object (the BENCHMARK.json command).  Without it every workload in
BENCHMARK.json runs in its own process, one after another, and the results
land in bench_results/qbench.json (qbench_traced.json for --traced,
qbench_smoke.json for --smoke).  The
program is built from source into $CARGO_TARGET_DIR (default .bench_build)
on first use.  Exit status is non-zero when a build fails, a run is refused
or any output is wrong.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the qbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("run.py: the library sources (CMakeLists.txt, src/) are missing")
        sys.exit(1)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "qbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result object.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build failed:", " ".join(cmd))
            sys.exit(1)
    return os.path.join(build_dir, "qbench")


def run_one(binary, spec, workload, seed, seconds, trace, smoke):
    """Runs one workload in its own process.  Returns (code, result, info),
    result being the parsed last line, or None when the run failed."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    info = next((json.loads(l[len("# info "):]) for l in lines
                 if l.startswith("# info ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"run.py: {workload}: no result (exit {proc.returncode})")
        return proc.returncode or 1, None, info
    # The program's metrics must be exactly the ones BENCHMARK.json names,
    # with the same units.
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        log(f"run.py: {workload}: metrics disagree with BENCHMARK.json: "
            f"missing {missing}, extra {extra}, unit mismatch {units}")
        return 1, None, info
    return proc.returncode, result, info


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--traced", action="store_true", help="same as --trace 1")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload, traced, on tiny inputs: checks "
                         "outputs, claims nothing about speed")
    args = ap.parse_args()
    trace = 1 if (args.traced or args.smoke) else args.trace
    seconds = 0.3 if args.smoke else args.seconds

    binary = build()
    if args.workload:
        code, result, _ = run_one(binary, spec, args.workload, args.seed,
                                  seconds, trace, args.smoke)
        if result is None:
            sys.exit(code or 1)
        print(json.dumps(result), flush=True)
        sys.exit(code)

    runs, status = {}, 0
    for w in spec["workloads"]:
        code, result, info = run_one(binary, spec, w["name"], args.seed,
                                     seconds, trace, args.smoke)
        runs[w["name"]] = {"exit": code, "result": result, "info": info}
        status = status or code or (result is None)
    name = "smoke" if args.smoke else "traced" if trace else ""
    out = os.path.join(ROOT, "bench_results",
                       f"qbench_{name}.json" if name else "qbench.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"seed": args.seed, "seconds": seconds, "trace": trace,
                   "smoke": args.smoke, "workloads": runs}, f, indent=1)
    log(f"run.py: wrote {os.path.relpath(out, ROOT)}"
        + ("" if status == 0 else " (with failures)"))
    sys.exit(1 if status else 0)


if __name__ == "__main__":
    main()
