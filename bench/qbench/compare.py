#!/usr/bin/env python3
"""Compare two checkouts on qbench, or check that one agrees with itself.

    python3 bench/qbench/compare.py BASE CHANGE [--pairs 10]
            [--claim WORKLOAD:METRIC ...] [--workload W ...] [--seed0 N]
    python3 bench/qbench/compare.py --repeat CHECKOUT [--pairs 5]

BASE and CHANGE are checkouts of the two commits.  Each pair runs every
workload once on each side with the same seed, alternating which side goes
first; pair i uses seed seed0 + i.  Medians and quartiles are taken as
statistics.quantiles(values, n=4) gives them.

A claimed (workload, metric) is a gain when the change wins at least 9/10
of the pairs (ties count for neither side) and the medians differ by more
than the base's interquartile range.  Every other (workload, metric) must
not be worse than the base median by more than its BENCHMARK.json bound;
it is "unresolved" when the base's own spread (IQR / median) is wider than
the bound, unless every change run beats every base run.

--repeat runs two alternating sets of the same checkout on distinct seeds
and checks what a benchmark must hold to be trusted: each set's spread is
within the bound (setup_s excepted), and the second set's median is not
worse than the first's by more than the bound.

Exit status 1 when a metric regressed, a claim was not met, more requests
failed on the change, or (--repeat) the two sets disagree.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run(checkout, workload, seed):
    proc = subprocess.run(
        [sys.executable, "bench/qbench/run.py", "--workload", workload,
         "--seed", str(seed)],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"compare.py: {checkout}: {workload} seed {seed} gave no "
                 f"result (exit {proc.returncode})")
    if not result["correct"]:
        print(f"compare.py: {checkout}: {workload} seed {seed} produced "
              f"wrong output", file=sys.stderr)
    return result


def collect(sides, workloads, pairs, seed0, same_seed):
    """Runs `pairs` alternating rounds; returns values[side][w][metric]
    (lists in pair order) and failed[side] (request failures).  Both runs
    of a pair share a seed when `same_seed`, else every run has its own."""
    values = {s: {w: {} for w in workloads} for s in sides}
    failed = {s: 0 for s in sides}
    names = list(sides)
    for i in range(pairs):
        order = names if i % 2 == 0 else names[::-1]
        for w in workloads:
            for side in order:
                seed = seed0 + i if same_seed else \
                    seed0 + 2 * i + names.index(side)
                r = run(sides[side], w, seed)
                failed[side] += r["failed"]
                for m, v in r["metrics"].items():
                    values[side][w].setdefault(m, []).append(v["value"])
                print(f"  pair {i + 1}/{pairs} {w:16s} {side:6s} seed {seed}",
                      file=sys.stderr, flush=True)
    return values, failed


def quartiles(v):
    q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
    return q1, med, q3


def worse_share(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    return (new - base) / base if better == "lower" else (base - new) / base


def compare(spec, values, failed, claims):
    bad = False
    for w in values["base"]:
        print(f"\n== {w}")
        print(f"  {'metric':28s} {'base med':>11s} {'change med':>11s} "
              f"{'worse':>8s} {'bound':>6s} {'spread':>7s} {'wins':>6s}  verdict")
        for m in spec["end_to_end"]:
            name, better = m["name"], m["better"]
            b, c = values["base"][w][name], values["change"][w][name]
            bq1, bmed, bq3 = quartiles(b)
            _, cmed, _ = quartiles(c)
            wins = sum((cv < bv) if better == "lower" else (cv > bv)
                       for bv, cv in zip(b, c))
            worse = worse_share(bmed, cmed, better)
            spread = (bq3 - bq1) / bmed if bmed else 0.0
            if (w, name) in claims:
                gain = wins >= 0.9 * len(b) and abs(cmed - bmed) > bq3 - bq1 \
                    and worse < 0
                verdict = "gain" if gain else "claim not met"
                bad |= not gain
            elif spread > m["bound"] and not (
                    max(c) < min(b) if better == "lower" else min(c) > max(b)):
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSED"
                bad = True
            else:
                verdict = "ok"
            print(f"  {name:28s} {bmed:11.5g} {cmed:11.5g} {worse:+8.2%} "
                  f"{m['bound']:6.0%} {spread:7.2%} {wins:3d}/{len(b):<2d}  "
                  f"{verdict}")
    print(f"\nfailed requests: base {failed['base']}, change {failed['change']}")
    if failed["change"] > failed["base"]:
        print("more requests failed on the change: no gain counts")
        bad = True
    return bad


def repeat(spec, values):
    bad = False
    for w in values["a"]:
        print(f"\n== {w}")
        print(f"  {'metric':28s} {'median A':>11s} {'spread A':>9s} "
              f"{'median B':>11s} {'spread B':>9s} {'B worse':>8s} "
              f"{'bound':>6s}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            a1, amed, a3 = quartiles(values["a"][w][name])
            b1, bmed, b3 = quartiles(values["b"][w][name])
            sa = (a3 - a1) / amed if amed else 0.0
            sb = (b3 - b1) / bmed if bmed else 0.0
            worse = worse_share(amed, bmed, m["better"])
            ok = worse <= m["bound"] and (
                name == "setup_s" or max(sa, sb) <= m["bound"])
            bad |= not ok
            print(f"  {name:28s} {amed:11.5g} {sa:9.2%} {bmed:11.5g} "
                  f"{sb:9.2%} {worse:+8.2%} {m['bound']:6.0%}  "
                  f"{'agree' if ok else 'DISAGREE'}")
    return bad


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("checkouts", nargs="+", metavar="CHECKOUT")
    ap.add_argument("--repeat", action="store_true")
    ap.add_argument("--pairs", type=int, default=None)
    ap.add_argument("--claim", action="append", default=[],
                    metavar="WORKLOAD:METRIC")
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--seed0", type=int, default=101)
    args = ap.parse_args()
    if len(args.checkouts) != (1 if args.repeat else 2):
        ap.error("give BASE CHANGE, or --repeat CHECKOUT")
    checkouts = [os.path.abspath(c) for c in args.checkouts]
    with open(os.path.join(checkouts[0], "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    claims = set()
    for c in args.claim:
        w, _, m = c.partition(":")
        if w not in workloads or m not in {x["name"] for x in spec["end_to_end"]}:
            ap.error(f"--claim {c}: unknown workload or end-to-end metric")
        claims.add((w, m))

    if args.repeat:
        pairs = args.pairs or 5
        values, _ = collect({"a": checkouts[0], "b": checkouts[0]},
                            workloads, pairs, args.seed0, same_seed=False)
        bad = repeat(spec, values)
    else:
        pairs = args.pairs or 10
        if pairs < 10:
            print("compare.py: fewer than 10 pairs cannot support a gain claim",
                  file=sys.stderr)
        values, failed = collect({"base": checkouts[0], "change": checkouts[1]},
                                 workloads, pairs, args.seed0, same_seed=True)
        bad = compare(spec, values, failed, claims)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
