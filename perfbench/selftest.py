"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

For every workload it runs run.py at smoke size untraced once and traced
twice, and checks that
  * the last stdout line has exactly correct/attempted/failed/metrics, with
    every end-to-end (untraced) or per-layer (traced) metric and its unit;
  * fail_frac is computed and the outputs are correct;
  * traced and untraced outputs are bit-identical (same output digest);
  * the work counters repeat exactly between the two traced runs.
It also runs the command in a directory holding only BENCHMARK.json and the
benchmark's files, where it must fail without printing a result, and measures
the tracing overhead in one process, from untraced and traced passes
interleaved (separate processes differ by the host's speed drift, which here
exceeds the overhead).  Exits 1 on the first broken expectation.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import COUNTERS, END_TO_END, PER_LAYER, RESULTS, import_package  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXACT_COUNTERS = ("exp_solver.march_steps", "exp_solver.rhs_evals", "simulator.path_steps",
                  "simulator.iterations", "general_solver.pdf_calls")


def run(cwd, workload, seed, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if cwd == ROOT:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def record(workload, seed, trace):
    names = [n for n in os.listdir(RESULTS)
             if n.startswith(f"{workload}-smoke-seed{seed}-") and n.endswith(f"-trace{trace}.json")]
    newest = max(names, key=lambda n: os.path.getmtime(os.path.join(RESULTS, n)))
    with open(os.path.join(RESULTS, newest)) as fh:
        return json.load(fh)


def check_result(out, expected):
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, sorted(out)
    assert out["correct"] is True, out
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert isinstance(out["failed"], int)
    assert set(out["metrics"]) == set(expected), set(out["metrics"]) ^ set(expected)
    for name, unit in expected.items():
        m = out["metrics"][name]
        assert set(m) == {"value", "unit"} and m["unit"] == unit, (name, m)
        assert isinstance(m["value"], (int, float)), (name, m)


def bare_directory_fails():
    bare = os.path.join(HERE, "work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    try:
        proc = run(bare, "solve-sweep", 1, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout
    print(f"bare directory: exit {proc.returncode}, no result printed")


def interleaved_overhead(workload, seed):
    """Traced over untraced median pass time, passes run untraced/traced/traced/untraced.

    A pass is one cycle through the workload's units.
    """
    rv = import_package()
    tracer = tracing.Tracer()
    wls = []
    for mode in (0, 1):
        workdir = os.path.join(HERE, "work", f"interleaved-{workload}-{mode}")
        os.makedirs(workdir, exist_ok=True)
        wls.append(WORKLOADS[workload](rv, seed, workdir, True, tracer if mode else None))
    walls, digests = ([], []), (set(), set())
    try:
        for wl in wls:
            wl.setup()
        for mode in (0, 1, 1, 0):
            if mode:
                tracing.instrument(tracer, rv)
            try:
                results = [(name, run_unit()) for name, run_unit in wls[mode].units()]
            finally:
                tracer.unwrap_all()
            walls[mode].append(sum(r[0][1] - r[0][0] for _, r in results))
            digests[mode].add(tuple((name, r[2]) for name, r in results))
    finally:
        for wl in reversed(wls):
            if hasattr(wl, "clock"):
                wl.clock.close()
            shutil.rmtree(wl.workdir, ignore_errors=True)
    assert len(digests[0]) == 1 and digests[0] == digests[1], digests
    return statistics.median(walls[1]) / statistics.median(walls[0]) - 1.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    bare_directory_fails()
    for w in args.workload:
        check_result(last_json(run(ROOT, w, args.seed, 0)), END_TO_END)
        plain = record(w, args.seed, 0)
        assert "value" in plain["fail_frac"]
        traced = []
        for _ in range(2):
            check_result(last_json(run(ROOT, w, args.seed, 1)), PER_LAYER)
            traced.append(record(w, args.seed, 1))
        for rec in traced:
            assert rec["outputs_sha256"] == plain["outputs_sha256"], \
                (w, rec["outputs_sha256"], plain["outputs_sha256"])
            assert not rec["problems"], rec["problems"]
        a, b = (rec["per_layer"] for rec in traced)
        for name in COUNTERS:
            assert a[name]["value"] == b[name]["value"], (w, name, a[name], b[name])
        exact = ", ".join(f"{n}={a[n]['value']:.0f}" for n in EXACT_COUNTERS if a[n]["value"])
        over = interleaved_overhead(w, args.seed)
        print(f"{w}: ok; outputs {plain['outputs_sha256']} identical traced/untraced; "
              f"counters repeat ({exact}); tracing overhead {100 * over:+.1f}% (smoke, "
              "interleaved in one process)")
    print("selftest passed")


if __name__ == "__main__":
    main()
