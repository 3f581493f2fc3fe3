#!/usr/bin/env python3
"""Steadiness tooling for the rtadbench benchmark.

Run from the repository root:

  python3 rtadbench/steady.py run  --runs 10 --out rtadbench/out/A.json
      one set of runs (seeds 1..N) of every workload, saved
  python3 rtadbench/steady.py sets --runs 10
      two sets of runs of the same build (seeds 1..N, then 101..100+N),
      then the comparison below
  python3 rtadbench/steady.py diff A.json B.json
      the comparison of two saved sets, for an A/B of two revisions

For every workload and end-to-end metric the comparison prints each set's
median and quartiles (Python's statistics.quantiles, n=4), the spread
(interquartile distance over the median) and whether the sets agree:
every spread within the metric's bound, the same share of failed
operations in both sets, and the two medians apart by at most the bound.
Two sets of one build (`sets`) must agree both ways; for two revisions
(`diff`) only the second being worse than the first by more than the
bound counts against them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_JSON = "BENCHMARK.json"


def load_bench():
    with open(BENCH_JSON) as f:
        return json.load(f)


def run_once(bench, workload, seed, seconds, trace=0):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    last = proc.stdout.strip().splitlines()[-1]
    res = json.loads(last)
    return {
        "seed": seed,
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: v["value"] for k, v in res["metrics"].items()},
    }


def run_set(bench, workloads, seeds, seconds):
    out = {"seconds": seconds, "workloads": {}}
    for w in workloads:
        rows = []
        for s in seeds:
            r = run_once(bench, w, s, seconds)
            rows.append(r)
            print(f"  {w} seed {s}: correct {r['correct']} failed {r['failed']}/{r['attempted']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in r["metrics"].items()), flush=True)
        out["workloads"][w] = rows
    return out


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def compare(bench, a, b, two_sided):
    """Prints the comparison table; returns True when the sets agree.
    With `two_sided`, a move of the median either way beyond the bound
    is a disagreement; otherwise only a move against the metric is."""
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    ok_all = True
    for w in a["workloads"]:
        if w not in b["workloads"]:
            continue
        ra, rb = a["workloads"][w], b["workloads"][w]
        share = lambda rows: (sum(r["failed"] for r in rows), sum(r["attempted"] for r in rows))
        fa, aa = share(ra)
        fb, ab = share(rb)
        same_share = fa * ab == fb * aa and all(
            r["failed"] * ra[0]["attempted"] == ra[0]["failed"] * r["attempted"] for r in ra + rb)
        correct = all(r["correct"] for r in ra + rb)
        print(f"\n{w}: correct {correct}, failed share A {fa}/{aa} B {fb}/{ab} "
              f"({'same' if same_share else 'DIFFERENT'}), runs {len(ra)} + {len(rb)}")
        print(f"  {'metric':<24} {'A median':>14} {'A q1':>12} {'A q3':>12} {'A spr':>7}"
              f" {'B median':>14} {'B spr':>7} {'B/A':>7} {'bound':>6}  verdict")
        ok_all &= same_share and correct
        for name, (bound, better) in bounds.items():
            va = [r["metrics"][name] for r in ra]
            vb = [r["metrics"][name] for r in rb]
            ma, qa1, qa3, sa = summary(va)
            mb, _, _, sb = summary(vb)
            spread_ok = sa <= bound and sb <= bound
            worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            ok = spread_ok and (abs(worse) if two_sided else worse) <= bound
            ok_all &= ok
            print(f"  {name:<24} {ma:>14.6g} {qa1:>12.6g} {qa3:>12.6g} {sa:>7.3f}"
                  f" {mb:>14.6g} {sb:>7.3f} {mb / ma:>7.3f} {bound:>6}  "
                  f"{'agree' if ok else 'DISAGREE'}{'' if sa <= bound / 3 and sb <= bound / 3 else ' (spread above bound/3)'}")
    print("\nsets agree" if ok_all else "\nsets DISAGREE")
    return ok_all


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="mode", required=True)
    for mode in ("run", "sets"):
        q = sub.add_parser(mode)
        q.add_argument("--runs", type=int, default=10)
        q.add_argument("--workloads", default="")
        q.add_argument("--seconds", type=int, default=0)
        q.add_argument("--first-seed", type=int, default=1)
        q.add_argument("--out", default="")
    d = sub.add_parser("diff")
    d.add_argument("a")
    d.add_argument("b")
    args = p.parse_args()

    bench = load_bench()
    if args.mode == "diff":
        with open(args.a) as f:
            a = json.load(f)
        with open(args.b) as f:
            b = json.load(f)
        raise SystemExit(0 if compare(bench, a, b, two_sided=False) else 1)

    workloads = [w for w in args.workloads.split(",") if w] or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    print(f"set A: seeds {seeds[0]}..{seeds[-1]}", flush=True)
    a = run_set(bench, workloads, seeds, seconds)
    if args.mode == "run":
        if args.out:
            os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
            with open(args.out, "w") as f:
                json.dump(a, f, indent=1)
        compare(bench, a, a, two_sided=True)
        return
    seeds_b = [s + 100 for s in seeds]
    print(f"set B: seeds {seeds_b[0]}..{seeds_b[-1]}", flush=True)
    b = run_set(bench, workloads, seeds_b, seconds)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, res in (("A.json", a), ("B.json", b)):
            with open(os.path.join(args.out, name), "w") as f:
                json.dump(res, f, indent=1)
    raise SystemExit(0 if compare(bench, a, b, two_sided=True) else 1)


if __name__ == "__main__":
    main()
