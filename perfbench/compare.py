#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--seeds 1-10] [--holdout-seeds 101-110]

Each file holds run records as perfbench/run.py appends them to
perfbench/out/results.jsonl.  For every workload and metric the table
gives each side's median and quartiles over its runs and the change of the
medians.  End-to-end metrics are judged against their bound in
BENCHMARK.json:

  regression   the new median is worse than the base median by more than the bound
  improved     better by more than the base runs' own quartile spread
  unchanged    within the bound
  unresolved   a side's quartile spread exceeds the bound, so the runs cannot
               tell; unless every new run beats every base run ("better, all runs")

`--seeds` restricts both sides to the seeds a change was developed on;
`--holdout-seeds` repeats the comparison on a second seed set, so a claim
can be re-checked on seeds not used while it was written.  Exit status is
1 when any end-to-end metric regresses.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text):
    lo, _, hi = text.partition("-")
    return set(range(int(lo), int(hi or lo) + 1))


def load(path, seeds):
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            r = json.loads(line)
            if seeds is not None and r["seed"] not in seeds:
                continue
            if not r.get("correct", False):
                print(f"warning: {path}: incorrect run skipped ({r['workload']} seed {r['seed']})")
                continue
            for name, m in r["metrics"].items():
                runs.setdefault((r["workload"], name), []).append(m["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, better, bound):
    _, bmed, _ = quartiles(base)
    _, nmed, _ = quartiles(new)
    sign = 1 if better == "higher" else -1
    gain = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    if max(spread(base), spread(new)) > bound:
        if (min(new) > max(base)) if better == "higher" else (max(new) < min(base)):
            return "better, all runs"
        return "unresolved"
    if gain < -bound:
        return "REGRESSION"
    if gain > spread(base):
        return "improved"
    return "unchanged"


def report(title, base, new, bench):
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    print(f"== {title}")
    print(f"{'workload':12} {'metric':32} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34} "
          f"{'change':>8} {'bound':>6}  verdict")
    regressions = 0
    for key in sorted(set(base) & set(new)):
        workload, name = key
        b, n = base[key], new[key]
        bq, nq = quartiles(b), quartiles(n)
        change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
        if name in e2e:
            v = verdict(b, n, e2e[name]["better"], e2e[name]["bound"])
            bound = f"{e2e[name]['bound']:.0%}"
            regressions += v == "REGRESSION"
        else:
            v, bound = "", "-"
        fmt = lambda q, k: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] x{k}"
        print(f"{workload:12} {name:32} {fmt(bq, len(b)):>34} {fmt(nq, len(n)):>34} "
              f"{change:>+8.1%} {bound:>6}  {v}")
    return regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--seeds", type=seed_range, help="seed range A-B both sides are restricted to")
    ap.add_argument("--holdout-seeds", type=seed_range, help="second seed range, compared separately")
    ap.add_argument("--benchmark", default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    regressions = report("seeds " + ("all" if args.seeds is None else f"{min(args.seeds)}-{max(args.seeds)}"),
                         load(args.base, args.seeds), load(args.new, args.seeds), bench)
    if args.holdout_seeds:
        s = args.holdout_seeds
        regressions += report(f"holdout seeds {min(s)}-{max(s)}", load(args.base, s), load(args.new, s), bench)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
