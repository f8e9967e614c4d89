"""Layered benchmark for ruinvest: solve / general-claims / verify.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one per process, single-threaded, BLAS pinned to one thread):

  solve-sweep     the three example configs plus twelve seeded configs, six of
                  them on the open-tail (q-below-one) branch; op = validate,
                  solve, write curve.csv/json, read curve.csv back
  general-claims  general_solve on example 1: exponential law at x_max 11 and
                  22, the 0.5 Exp(1) + 0.5 Exp(2) mixture at 15, Erlang-2 at 11
  mc-verify       `ruinvest verify` on example 1 with 4,096 paths per x0;
                  op = one x0 estimate

The run sets up three times (setup_s is process start to imported package plus
the median set-up), then cycles through the workload's units, each one user
command: a config solve, a (law, x_max) solve or a verify.  The first cycle
always completes; later units run while they still fit in --seconds.  wall_s
is one full cycle from per-unit medians.

The host's speed drifts by +-20% and more within seconds to minutes, so whole
runs of identical code differ by that much.  The run therefore times a fixed
probe (numpy and plain Python, no ruinvest code) before the set-up, after it,
and every TICK_S seconds of the timed loop (from a SIGALRM timer; untraced
runs only, so that no probe lands inside a span).  A latency excludes the
probes that interrupted it, and each stretch of it between two probes is
rescaled by PROBE_REF_S over their mean; the set-up is rescaled by the two
probes around it.  wall_ref_s and setup_s are thus times on a host whose probe
takes PROBE_REF_S.  They are the bounded metrics; wall_s and the unscaled
set-up time are printed and recorded.  Op latencies (op_p50_s, op_tail_s)
include the probes that interrupted them, about 5%.

Outputs are checked after each unit's clock stops.  An op that raises
(SolverAbort included) or breaks a check counts as failed and is printed with
its reason.  `attempted` and `failed` count the first cycle only, one op per
distinct input, so they depend on the seed and not on how many repeats fitted;
the repeats must reproduce the first cycle's outputs.  `correct` turns false
only when the run itself cannot be trusted (repeats of a unit disagree, or
traced and untraced runs of a seed produced different outputs).  With --trace
0 the last stdout line carries the end-to-end metrics, with --trace 1 the
per-layer metrics gathered by wrapping the package's module attributes (see
tracing.py).  Every run also writes a full record, environment block
included, to perfbench/results/; traced runs write their spans there too.
"""
from __future__ import annotations

import os
import sys
import time

T_SCRIPT = time.perf_counter()
# pinned before numpy loads: one BLAS/OpenMP thread
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import defaultdict  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_REPS = 3
# about the probe's median on a quiet 2-vCPU Intel Xeon VM (numpy 2.4.6)
PROBE_REF_S = 0.05
TICK_S = 1.0

# Bounded end-to-end metrics.  op_p50_s, op_tail_s and fail_frac are printed and
# recorded but carry no bound: a single op is a 0.05-6 s sample of a host whose
# speed can drift by +-20% within seconds, and a failure share is usually 0.
END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "model.validate_s": "s", "cli.parse_s": "s",
    "series.s": "s", "series.x_eps_min": "surplus",
    "exp_solver.march_s": "s", "exp_solver.march_steps": "count",
    "exp_solver.rhs_evals": "count", "exp_solver.segments": "count",
    "exp_solver.events": "count", "exp_solver.assembly_s": "s", "exp_solver.tail_s": "s",
    "exp_solver.nodes": "count", "exp_solver.nodes_per_target": "ratio",
    "exp_solver.tail_open_frac": "ratio",
    "curve.write_s": "s", "curve.read_s": "s", "curve.bytes_written": "B",
    "general_solver.near_zero_s": "s", "general_solver.continuation_s": "s",
    "general_solver.assembly_s": "s", "general_solver.nodes": "count",
    "general_solver.us_per_node": "us", "general_solver.node_cost_ratio": "ratio",
    "general_solver.pdf_calls": "count", "general_solver.pdf_points": "count",
    "simulator.estimate_s": "s", "simulator.path_steps": "count",
    "simulator.iterations": "count", "simulator.ns_per_path_step": "ns",
    "simulator.long_share": "ratio", "simulator.short_share": "ratio",
    "simulator.int_share": "ratio", "simulator.censored_frac": "ratio",
    "simulator.diffusion_ruin_frac": "ratio",
    "check.hjb_residual_margin": "ratio", "check.cont_gap_max": "ratio",
    "check.mc_max_z": "ci_half",
}

# span name -> per-layer time metric (span totals)
SPAN_METRICS = {
    "model.validate": "model.validate_s", "cli.parse": "cli.parse_s", "series": "series.s",
    "exp_solver.march": "exp_solver.march_s", "exp_solver.tail": "exp_solver.tail_s",
    "curve.write": "curve.write_s", "curve.read": "curve.read_s",
    "general_solver.near_zero": "general_solver.near_zero_s",
    "general_solver.continuation": "general_solver.continuation_s",
    "general_solver.assembly": "general_solver.assembly_s",
}
COUNTERS = ("exp_solver.march_steps", "exp_solver.rhs_evals", "exp_solver.segments",
            "exp_solver.events", "exp_solver.nodes", "curve.bytes_written",
            "general_solver.nodes", "general_solver.pdf_calls", "general_solver.pdf_points",
            "simulator.path_steps", "simulator.iterations")


def process_age():
    """Seconds since this process started (kernel start time; None if unreadable)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return None


def import_package():
    """Import ruinvest from this checkout's src/, never from an installed copy."""
    init = os.path.join(SRC, "ruinvest", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: {init} not found; run from a ruinvest checkout")
    sys.path.insert(0, SRC)
    pkg = importlib.import_module("ruinvest")
    if os.path.realpath(pkg.__file__) != os.path.realpath(init):
        raise SystemExit(f"error: imported ruinvest from {pkg.__file__}, expected {init}")
    importlib.import_module("ruinvest.cli")  # the package __init__ leaves the CLI out
    return pkg


def src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ruinvest")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout if it is itself a git work tree, else None."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # not a clone: do not let git search the parent directories
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(), "src_sha256": src_digest(),
        "threads": {"processes": 1, "SimConfig.threads": 1, "blas_env": THREAD_ENV},
    }


def tail_percentile(values):
    """(percentile, value): highest percentile with >= 10 samples beyond it.

    Defined from 20 samples on, so that it is at least the median.
    """
    n = len(values)
    if n < 20:
        return None
    k = n - 11                       # 0-based rank with 10 samples above it
    return 100.0 * (k + 1) / n, sorted(values)[k]


def layer_metrics(tracer, wl, samples, n_setup):
    """Per-layer values for one full pass plus one set-up.

    Work recorded in a unit is divided by the number of times that unit ran,
    and set-up work by the number of set-ups, so counts repeat exactly however
    many units fitted in the run.
    """
    tracer.flush_policies()

    def weight(op):
        return 1.0 / n_setup if op is None or op[0] == "setup" else 1.0 / len(samples[op[2]])

    span_t, self_t, cnt = defaultdict(float), defaultdict(float), defaultdict(float)
    cont_by_unit, nodes_by_unit = defaultdict(float), defaultdict(float)
    for name, op, total, self_s in tracer.self_times():
        span_t[name] += total * weight(op)
        self_t[name] += self_s * weight(op)
        if name == "general_solver.continuation" and op:
            cont_by_unit[op[2]] += total * weight(op)
    for op, ctr in tracer.counters.items():
        for k, v in ctr.items():
            cnt[k] += v * weight(op)
        if op and "general_solver.nodes" in ctr:
            nodes_by_unit[op[2]] += ctr["general_solver.nodes"] * weight(op)
    x_eps = [v["series.x_eps_min"] for v in tracer.minima.values() if "series.x_eps_min" in v]

    m = {name: 0.0 for name in PER_LAYER}
    for span, metric in SPAN_METRICS.items():
        m[metric] = span_t[span]
    for name in COUNTERS:
        m[name] = cnt[name]
    m["exp_solver.assembly_s"] = self_t["exp_solver.solve"]
    m["series.x_eps_min"] = min(x_eps) if x_eps else 0.0
    if cnt["exp_solver.solves"]:
        m["exp_solver.nodes_per_target"] = cnt["exp_solver.nodes_per_target_sum"] \
            / cnt["exp_solver.solves"]
        m["exp_solver.tail_open_frac"] = cnt["exp_solver.tail_open"] / cnt["exp_solver.solves"]
    if m["general_solver.nodes"]:
        m["general_solver.us_per_node"] = 1e6 * m["general_solver.continuation_s"] \
            / m["general_solver.nodes"]
    if nodes_by_unit["exp-x22"] and nodes_by_unit["exp-x11"]:
        m["general_solver.node_cost_ratio"] = \
            (cont_by_unit["exp-x22"] / nodes_by_unit["exp-x22"]) \
            / (cont_by_unit["exp-x11"] / nodes_by_unit["exp-x11"])

    steps = m["simulator.path_steps"]
    if steps:
        for share in ("long", "short", "int"):
            m[f"simulator.{share}_share"] = cnt[f"simulator.{share}_steps"] / steps
    if wl.sim_log:
        runs = len(wl.sim_log)
        recs = [r for records in wl.sim_log for r in records]
        m["simulator.estimate_s"] = sum(r[2] for r in recs) / runs
        if steps:
            m["simulator.ns_per_path_step"] = 1e9 * m["simulator.estimate_s"] / steps
        n_all = sum(r[3] for r in recs)
        m["simulator.censored_frac"] = sum(r[5] for r in recs) / n_all
        m["simulator.diffusion_ruin_frac"] = sum(r[6] for r in recs) / n_all
    m.update(wl.checks)
    return m


def host_probe():
    """Seconds for a fixed mix of numpy calls on 4,096 elements and interpreter work.

    The mix (about 70% numpy: random draws and exp; 30% plain Python loop)
    slows about as much as the three workloads do when the host is busy:
    per-op, the workloads' slowdowns ran at 0.8-1.5 times the probe's.
    """
    rng = numpy.random.default_rng(0)
    x = numpy.linspace(0.0, 1.0, 4096)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(400):
        acc += float(numpy.sum(numpy.exp(-x * (1.0 + i * 1e-4)) * rng.standard_normal(4096)))
    n = 0
    for i in range(150_000):
        n += i * i % 7
    return time.perf_counter() - t0


class HostClock:
    """Host probes along the run, and intervals rescaled by them."""

    def __init__(self):
        self.ticks = []   # (start, end, probe seconds), in time order

    def tick(self, *_):
        t0 = time.perf_counter()
        probe = host_probe()
        self.ticks.append((t0, time.perf_counter(), probe))

    def start(self, timer):
        self.tick()
        if timer:
            signal.signal(signal.SIGALRM, self.tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.tick()

    def times(self, t0, t1):
        """(seconds, seconds at the reference speed) of [t0, t1] without probes.

        Needs a tick before t0 and one after t1.
        """
        raw = ref = 0.0
        seg, prev = t0, None
        for start, end, probe in self.ticks:
            if end <= t0:
                prev = probe
            elif start >= t1:
                break
            else:
                raw += start - seg
                ref += (start - seg) * 2.0 * PROBE_REF_S / (prev + probe)
                seg, prev = end, probe
        raw += t1 - seg
        ref += (t1 - seg) * 2.0 * PROBE_REF_S / (prev + probe)
        return raw, ref


def measure(wl, seconds, tracer):
    """Set up SETUP_REPS times, then cycle through the workload's units.

    The first cycle always completes; after it, a unit is started only if its
    last latency still fits in `seconds`.  Host probes run before the set-up,
    after it, along the loop and at its end; each latency is then kept as
    timed and rescaled (HostClock.times).
    """
    run = SimpleNamespace(setup_times=[], ops=[], first=[], clock=HostClock())
    run.clock.tick()
    for k in range(SETUP_REPS):
        wl.set_op("setup", k)
        t0 = time.perf_counter()
        wl.setup()
        run.setup_times.append(time.perf_counter() - t0)
    units = wl.units()
    intervals = {name: [] for name, _ in units}
    run.digests = {name: set() for name, _ in units}
    run.clock.start(timer=tracer is None)
    t_start = time.perf_counter()
    try:
        for i in itertools.count():
            name, run_unit = units[i % len(units)]
            rep = i // len(units)
            elapsed = time.perf_counter() - t_start
            if rep and elapsed + intervals[name][-1][1] - intervals[name][-1][0] > seconds:
                break
            wl.set_op("pass", rep, name)
            interval, unit_ops, digest = run_unit()
            intervals[name].append(interval)
            run.digests[name].add(digest)
            run.ops += unit_ops
            if not rep:
                run.first += unit_ops
    finally:
        run.clock.stop()
    if tracer is not None:
        tracer.op = None
    run.timed_s = time.perf_counter() - t_start
    times = {name: [run.clock.times(*iv) for iv in ivs] for name, ivs in intervals.items()}
    run.samples = {name: [t[0] for t in ts] for name, ts in times.items()}
    run.scaled = {name: [t[1] for t in ts] for name, ts in times.items()}
    return run


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrunken inputs for the self-test (not a benchmark result)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    ruinvest = import_package()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    import_s = process_age() or time.perf_counter() - T_SCRIPT  # start -> imported

    size = "smoke" if args.smoke else "full"
    workdir = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer, ruinvest)
    wl = workloads.WORKLOADS[args.workload](ruinvest, args.seed, workdir, args.smoke, tracer)
    try:
        run = measure(wl, args.seconds, tracer)
    finally:
        if hasattr(wl, "clock"):
            wl.clock.close()
        if tracer is not None:
            tracer.unwrap_all()
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops, first = run.ops, run.first
    latencies = [op.seconds for op in ops]
    failed = [op for op in first if op.failed]
    problems = [f"{name}: repeated runs gave different outputs"
                for name, d in run.digests.items() if len(d) > 1]
    outputs = hashlib.sha256("".join(f"{n}={sorted(d)}" for n, d in run.digests.items())
                             .encode()).hexdigest()[:16]
    passes = sum(len(v) for v in run.samples.values()) / len(run.samples)
    # one full pass from per-unit medians, as timed and at the reference speed
    wall_s = sum(statistics.median(v) for v in run.samples.values())
    probes = [t[2] for t in run.clock.ticks]
    probe_s = statistics.median(probes)
    setup_s = import_s + statistics.median(run.setup_times)
    e2e = {"setup_s": setup_s * 2.0 * PROBE_REF_S / sum(probes[:2]),
           "wall_ref_s": sum(statistics.median(v) for v in run.scaled.values()),
           "peak_rss_mb": peak_rss_mb}

    env = environment()
    # same package source and same generated inputs: outputs must match
    stem = f"{args.workload}-{size}-seed{args.seed}-{env['src_sha256']}-{wl.input_hash()}"
    other_path = os.path.join(RESULTS, f"{stem}-trace{1 - args.trace}.json")
    if os.path.isfile(other_path):
        with open(other_path) as fh:
            if json.load(fh)["outputs_sha256"] != outputs:
                problems.append("traced and untraced runs of this seed produced different outputs")

    tail = tail_percentile(latencies)
    record = {
        "workload": args.workload, "seed": args.seed, "size": size, "trace": args.trace,
        "seconds": args.seconds, "timed_s": run.timed_s, "passes": passes,
        "unit_latencies": run.samples, "unit_latencies_ref": run.scaled,
        "input_sha256": wl.input_hash(), "outputs_sha256": outputs,
        "setup": {"import_s": import_s, "reps_s": run.setup_times, "unscaled_s": setup_s},
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()},
        "wall_s": {"value": wall_s, "unit": "s"},
        "probe_s": {"value": probe_s, "unit": "s", "samples": probes},
        "op_p50_s": {"value": statistics.median(latencies), "unit": "s", "ops": len(ops)},
        "op_tail_s": None if tail is None else {"percentile": tail[0], "value": tail[1],
                                                 "unit": "s"},
        "ops": len(first), "failed": len(failed),
        "fail_frac": {"value": len(failed) / len(first), "unit": "ratio"},
        "failures": [f"{op.name}: {op.aborted or '; '.join(op.violations)}" for op in failed],
        "problems": problems, "checks": wl.checks,
        "op_latencies": [(op.name, op.seconds) for op in ops],
        "environment": env,
    }
    if tracer is not None:
        layers = layer_metrics(tracer, wl, run.samples, SETUP_REPS)
        record["per_layer"] = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()}
        record["unmeasured"] = tracer.unmeasured
        tracer.write(os.path.join(RESULTS, f"{stem}-spans.json"))
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{stem}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"# {args.workload} seed={args.seed} size={size} trace={args.trace} "
          f"passes={passes:.2f} ops={len(ops)} inputs={record['input_sha256']} "
          f"outputs={record['outputs_sha256']}")
    print("# env " + json.dumps(env, sort_keys=True))
    for k, v in e2e.items():
        print(f"{k:>12} {v:.6g} {END_TO_END[k]}")
    print(f"{'wall_s':>12} {wall_s:.6g} s, set-up {setup_s:.6g} s as timed (host probe "
          f"median {probe_s:.6g} s, reference {PROBE_REF_S:g} s)")
    print(f"{'op_p50_s':>12} {record['op_p50_s']['value']:.6g} s (median of {len(ops)} ops)")
    if tail is not None:
        print(f"{'op_tail_s':>12} {tail[1]:.6g} s (p{tail[0]:.1f} of {len(ops)} ops)")
    print(f"{'fail_frac':>12} {len(failed) / len(first):.6g} ratio "
          f"({len(failed)}/{len(first)}, first cycle)")
    for line in record["failures"] + problems:
        print(f"# FAIL {line}")
    if tracer is not None and tracer.unmeasured:
        print(f"# unmeasured (name missing): {', '.join(tracer.unmeasured)}")
    metrics = record["per_layer"] if tracer is not None else record["end_to_end"]
    # An op that aborts or breaks a check is counted in `failed` and printed
    # above with its reason; `correct` is false when the run itself is not
    # trustworthy (repeats disagree, traced and untraced outputs differ).
    print(json.dumps({"correct": not problems, "attempted": len(first), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
