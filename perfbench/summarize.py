"""Median and quartile spread of benchmark results, per workload and metric.

    python3 perfbench/summarize.py [--trace 0|1] [--append-baseline LABEL]

Reads the full-size records in perfbench/results/ (one per run), groups them
by workload, and prints each metric's median and (Q3 - Q1) / median over the
runs, with the seeds used.  --append-baseline adds the untraced medians and the
traced per-layer medians as one point to perfbench/baseline.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
BASELINE = os.path.join(HERE, "baseline.json")


def load(trace):
    runs = defaultdict(list)
    for name in sorted(os.listdir(RESULTS)):
        if name.endswith(f"-trace{trace}.json") and "-full-" in name:
            with open(os.path.join(RESULTS, name)) as fh:
                rec = json.load(fh)
            runs[rec["workload"]].append(rec)
    return runs


def summary(recs, key):
    out = {}
    for name in recs[0][key]:
        vals = [r[key][name]["value"] for r in recs]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        out[name] = {"median": med, "q1": q[0], "q3": q[2], "unit": recs[0][key][name]["unit"],
                     "spread": (q[2] - q[0]) / med if med else 0.0}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--append-baseline", metavar="LABEL")
    args = ap.parse_args()
    key = "per_layer" if args.trace else "end_to_end"
    point, env = {}, None
    for workload, recs in sorted(load(args.trace).items()):
        s = summary(recs, key)
        seeds = sorted(r["seed"] for r in recs)
        print(f"{workload}: {len(recs)} runs, seeds {seeds}, "
              f"failed {sum(r['failed'] for r in recs)}/{sum(r['ops'] for r in recs)} ops")
        for name, m in s.items():
            print(f"  {name:34s} {m['median']:.6g} {m['unit']}  spread {m['spread']:.3f}")
        point[workload] = {"runs": len(recs), "seeds": seeds, "metrics": s,
                           "failed_ops": sum(r["failed"] for r in recs),
                           "ops": sum(r["ops"] for r in recs)}
        env = recs[0]["environment"]
    if args.append_baseline:
        points = []
        if os.path.isfile(BASELINE):
            with open(BASELINE) as fh:
                points = json.load(fh)["points"]
        points.append({"label": args.append_baseline, "trace": args.trace,
                       "environment": env, "workloads": point})
        with open(BASELINE, "w") as fh:
            json.dump({"points": points}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
