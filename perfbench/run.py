#!/usr/bin/env python3
"""S4D-Cache repository benchmark.

Builds the simulator and the benchmark driver from source (CMake, into
.bench_build/ at the repository root), then samples one workload with a
fixed number of set-up processes, as many as fill --seconds on the machine
the benchmark was tuned on, and prints its metrics (README.md says how
samples are combined).
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

    python3 perfbench/run.py --workload ior-mix-write --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --steady [--workload W ...]

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 also
takes traced samples and reports the per-layer metrics, and writes the
traced spans to .bench_build/spans/. --steady runs each workload over ten
seeds, twice, and checks run-to-run spread against the bounds. The default
seed is 42; seed 7919 is held out of tuning, for checking later claims.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "s4d_perfbench"

DEFAULT_SEED = 42
STEADY_SEEDS = 10  # seeds per set in --steady, starting at --seed
STEADY_SETS = 2    # sets of those seeds whose medians must agree

# Wall seconds that one set-up process of each workload, samples included,
# took on the 4-core virtual machine the benchmark was tuned on. A run of
# --seconds starts seconds / PROCESS_SECONDS processes whatever the code's
# speed, so the fastest-of-N host times below take the fastest of the same N
# on every commit: a faster commit ends sooner instead of taking more samples.
PROCESS_SECONDS = {
    "ior-mix-write": 0.85,
    "ior-mix-read": 6.5,
    "ior-rand-overflow": 7.0,
}
MIN_PROCESSES = 2
# A run still going after BUDGET_FACTOR * --seconds, or BUDGET_LIMIT_S (a
# much slower commit or a busy host), starts no more processes once it has
# MIN_PROCESSES; a process still running at RUN_LIMIT_S is killed.
BUDGET_FACTOR = 2
BUDGET_LIMIT_S = 120
RUN_LIMIT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures and builds the driver; exits non-zero on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: simulator sources (src/) not found next to perfbench/")
        sys.exit(2)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "s4d_perfbench",
                  "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout)
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(2)


def run_process(workload, seed, traced, spans, timeout):
    """Runs one set-up and its measured samples (one JSON line each).

    Returns the parsed samples, or a failure record.
    """
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
        if spans:
            cmd += ["--spans", str(spans)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "report": "set-up timed out"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"ok": False,
                "report": done.stderr + f"exit code {done.returncode}"}
    return {"ok": True, "samples": [json.loads(line) for line in lines],
            "report": done.stderr}


# Metrics in these units are host time. Contention from other tenants of a
# shared host only ever adds time, and it slows identical work by up to 2x
# from one sample to the next, so host times take the fastest sample; every
# other metric is the median over samples.
HOST_UNITS = {"ns", "s"}


def aggregate(spec, group, rows):
    host = {m["name"] for m in spec[group] if m["unit"] in HOST_UNITS}
    return {name: (min if name in host else statistics.median)(
        [row[name] for row in rows]) for name in rows[0]}


def fastest_sum(samples, key):
    """Sums each piece's fastest CPU time over samples of one seed.

    A sample's set-up and measured phase are split into pieces (stack
    assembly, each IOR instance run, each settle) whose simulated work is
    identical in every sample, so a burst of contention in one sample costs
    only the pieces it overlapped.
    """
    return sum(min(piece) for piece in zip(*(s[key] for s in samples)))


def run_workload(spec, workload, seed, seconds, trace):
    """Runs the set-up processes of `workload` and aggregates their samples.

    With `trace`, every second process is traced. Every sample uses the same
    seed, so their simulated outputs must be identical; a difference counts
    as a failed operation.
    """
    processes = max(MIN_PROCESSES, round(seconds / PROCESS_SECONDS[workload]))
    budget = min(BUDGET_FACTOR * seconds, BUDGET_LIMIT_S)
    spans = None
    if trace:
        (BUILD / "spans").mkdir(exist_ok=True)
        spans = BUILD / "spans" / f"{workload}-seed{seed}.csv"
    plain, traced, reports = [], [], []
    shown = ""  # the report printed with the result: a traced one if any
    crashed = False
    start = time.monotonic()
    for i in range(processes):
        elapsed = time.monotonic() - start
        if i >= MIN_PROCESSES and elapsed > budget:
            log(f"perfbench: time budget of {budget:.0f} s used up after "
                f"{i} of {processes} processes")
            break
        with_trace = trace and i % 2 == 1
        done = run_process(workload, seed, with_trace, spans,
                           max(1.0, RUN_LIMIT_S - elapsed))
        reports.append(done["report"])
        if with_trace or not trace:
            shown = done["report"]
        if not done["ok"]:
            crashed = True
            log(done["report"])
            break
        (traced if with_trace else plain).extend(done["samples"])

    samples = plain + traced
    attempted = sum(s["attempted"] for s in samples) or 1
    failed = sum(s["failed"] for s in samples) + crashed
    mismatched = sorted({k for s in samples for k in s["sim"]
                         if s["sim"][k] != samples[0]["sim"].get(k)})
    if mismatched:
        failed += 1
        log("perfbench: simulated outputs differ between samples:",
            ", ".join(mismatched))
    if any(s["failed"] for s in samples):
        log("".join(reports))

    e2e, layers = {}, {}
    if plain:
        e2e = aggregate(spec, "end_to_end", [r["e2e"] for r in plain])
        e2e["host_s"] = fastest_sum(plain, "measured_chunks")
        e2e["setup_s"] = fastest_sum(plain, "setup_chunks")
        e2e["host_ns_per_request"] = (
            e2e["host_s"] * 1e9 / plain[0]["sim"]["requests"])
    if traced:
        layers = aggregate(spec, "per_layer", [r["layers"] for r in traced])
        layers["trace.overhead_frac"] = (
            fastest_sum(traced, "measured_chunks") / e2e["host_s"] - 1.0)
    return {
        "workload": workload, "seed": seed, "processes": len(reports),
        "samples": len(plain),
        "traced_samples": len(traced), "wall_s": time.monotonic() - start,
        "host_s": [s["e2e"]["host_s"] for s in plain],
        "correct": failed == 0,
        "attempted": attempted, "failed": failed,
        "e2e": e2e, "layers": layers,
        "report": shown,
    }


def metric_table(spec, group):
    return {m["name"]: m for m in spec[group]}


def print_summary(spec, result, trace):
    # A set-up's samples report one after the other; show the last one.
    report = result["report"].rstrip()
    start = report.rfind("layer self time")
    if start < 0:
        start = report.rfind("\n") + 1
    log(report[start:])
    host = sorted(result["host_s"]) or [0.0]
    print(f"{result['workload']} seed {result['seed']}: {result['processes']} "
          f"processes, {result['samples']} untraced + "
          f"{result['traced_samples']} traced samples in "
          f"{result['wall_s']:.1f} s; untraced host_s min {host[0]:.4f} "
          f"median {statistics.median(host):.4f} max {host[-1]:.4f}")
    groups = [("end_to_end", result["e2e"])]
    if trace:
        groups.append(("per_layer", result["layers"]))
    for group, values in groups:
        for name, m in metric_table(spec, group).items():
            value = values.get(name)
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"  {name:38s} {shown:>14s} {m['unit']}")


def result_line(spec, result, trace):
    group = "per_layer" if trace else "end_to_end"
    values = result["layers"] if trace else result["e2e"]
    metrics = {}
    for name, m in metric_table(spec, group).items():
        if name in values:
            metrics[name] = {"value": values[name], "unit": m["unit"]}
    correct = result["correct"] and len(metrics) == len(spec[group])
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


# --- steadiness mode -----------------------------------------------------

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def steady(spec, workloads, base_seed, seconds):
    e2e_spec = metric_table(spec, "end_to_end")
    layer_spec = metric_table(spec, "per_layer")
    exact = [n for n, m in layer_spec.items()
             if m["unit"] not in HOST_UNITS and n != "trace.overhead_frac"]
    ok = True
    for workload in workloads:
        medians, sims, layer_sets = [], [], []
        for s in range(STEADY_SETS):
            results = []
            for i in range(STEADY_SEEDS):
                r = run_workload(spec, workload, base_seed + i, seconds, 0)
                ok = ok and r["correct"]
                results.append(r)
                log(f"{workload} set {s + 1} seed {r['seed']}: host_s "
                    f"{r['e2e'].get('host_s', 0):.4f} setup_s "
                    f"{r['e2e'].get('setup_s', 0):.4f} from {r['samples']} "
                    f"samples, correct {r['correct']}")
            traced = run_workload(spec, workload, base_seed, seconds, 1)
            ok = ok and traced["correct"]
            layer_sets.append(traced["layers"])
            sims.append([{k: v for k, v in r["e2e"].items()
                          if k.startswith("sim_")} for r in results])
            print(f"\n{workload}, set {s + 1}: {STEADY_SEEDS} runs, seeds "
                  f"{base_seed}..{base_seed + STEADY_SEEDS - 1}, "
                  f"{seconds} s each")
            print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
                  f"{'min':>12s} {'max':>12s} {'spread':>8s} {'bound':>6s}")
            med_row = {}
            for name, m in e2e_spec.items():
                vals = [r["e2e"][name] for r in results if name in r["e2e"]]
                if len(vals) < 2:
                    ok = False
                    print(f"  {name:22s} missing")
                    continue
                med, q1, q3, sp = spread(vals)
                med_row[name] = med
                bound = m["bound"]
                flag = ""
                if name != "setup_s":
                    if sp > bound:
                        flag, ok = "  OVER BOUND", False
                    elif sp > bound / 3:
                        flag = "  over bound/3"
                print(f"  {name:22s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{min(vals):12.6g} {max(vals):12.6g} {sp:8.4f} "
                      f"{bound:6.3f}{flag}")
            medians.append(med_row)
        for s in range(1, STEADY_SETS):
            # Either set may be the one a busy host slowed, so the sets must
            # agree both ways: the larger median over the smaller one.
            print(f"\n{workload}: set {s + 1} against set 1")
            for name, m in e2e_spec.items():
                a, b = medians[0][name], medians[s][name]
                gap = max(a, b) / min(a, b) - 1.0
                flag = "  OVER BOUND" if gap > m["bound"] else ""
                ok = ok and not flag
                print(f"  {name:22s} {a:12.6g} -> {b:12.6g}  differ by "
                      f"{gap:.4f} (bound {m['bound']}){flag}")
            if sims[s] != sims[0]:
                ok = False
                print("  sim_* metrics differ between sets for the same seeds")
            diff = [n for n in exact if layer_sets[s][n] != layer_sets[0][n]]
            if diff:
                ok = False
                print("  per-layer counts differ between sets:", ", ".join(diff))
            else:
                print(f"  sim_* metrics and {len(exact)} per-layer counts "
                      "identical across sets")
    print("\nsteady: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", action="store_true",
                        help="repeat workloads over seeds, check spreads")
    args = parser.parse_args()

    build()
    if args.steady:
        return steady(spec, args.workload or names, args.seed, args.seconds)
    if not args.workload or len(args.workload) != 1:
        parser.error("exactly one --workload is required")
    result = run_workload(spec, args.workload[0], args.seed, args.seconds,
                          args.trace)
    print_summary(spec, result, args.trace)
    line = result_line(spec, result, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
