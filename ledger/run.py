#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer metrics of the
B-Cache reproduction over three workloads.

    python3 ledger/run.py --workload paper-all|l1-sweep|serve-mixed|all \
        --seed N --seconds S --trace 0|1

Run from the repository root. It builds the `ledger` package (its own
Cargo workspace next to this file; `CARGO_TARGET_DIR` is honoured),
then starts every sample in a fresh process so no sample inherits
another's memory high-water mark, set-up or warm trace cache.

--trace 0 takes samples while another one of the typical length still
fits in --seconds (at least two) and reports every end-to-end metric of
BENCHMARK.json as the median over samples. A latency percentile is
exact within each sample (every operation's own latency) and then
reported as the median over samples. --trace 1 runs one untraced and one traced
sample, reports every per-layer metric of BENCHMARK.json (0 where the
workload does not exercise the layer) plus the tracing overhead, and
writes one Chrome/Perfetto trace under ledger/out/.

Correctness: every sample of a run must produce the same simulated
output and the same simulated counts; for the reference seed the output
digest must equal the one recorded in ledger/reference.json; the
samples' own checks (served rows against offline replay, equal access
counts across a sweep cell, counts repeating across probe repetitions)
must pass. Any failure makes the run exit 1 after printing its result.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Human-readable tables go to
standard error.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("paper-all", "l1-sweep", "serve-mixed")
# A run must end within 180 s; keep a margin for the result and clean-up.
DEADLINE_S = 165.0
# paper-all's set-up (process start to engine built) is milliseconds;
# time it in this many extra processes and report the median.
PAPER_SETUP_SPAWNS = 50
MIN_BEYOND_P99 = 10
# Untraced samples per run, at the least.
MIN_SAMPLES = 2
# Workloads whose sample process runs on one vCPU. serve-mixed's one
# server worker, its sessions and its two connections hand every request
# between threads several times. Spread over two vCPUs, each hand-off
# wakes the other vCPU, and on a shared host that wake-up waits for the
# host's scheduler; on one vCPU it is a context switch.
PINNED = {"serve-mixed"}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        log("ledger: build failed")
        sys.exit(2)
    return os.path.join(ROOT, target, "release", "ledger")


def pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_child(cmd, deadline, pin=False):
    """Runs one sample process to completion; returns its last JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise RuntimeError("no time left for another sample")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=remaining, text=True,
                          preexec_fn=pin_to_one_cpu if pin else None)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sample(binary, workload, seed, deadline, trace_path=None):
    out_path = os.path.join(OUT, f"{workload}-{os.getpid()}.out")
    cmd = [binary, "sample", workload, "--seed", str(seed), "--output", out_path]
    if trace_path:
        cmd += ["--trace", trace_path]
    spawn_ns = time.time_ns()
    t0 = time.monotonic()
    s = run_child(cmd, deadline, pin=workload in PINNED)
    s["duration_s"] = time.monotonic() - t0
    with open(out_path, "rb") as f:
        s["digest"] = hashlib.sha256(f.read()).hexdigest()
    os.remove(out_path)
    if "setup_s" not in s:
        s["setup_s"] = (s["ready_unix_ns"] - spawn_ns) * 1e-9
    return s


def paper_setups(binary, seed, deadline):
    setups = []
    for _ in range(PAPER_SETUP_SPAWNS):
        spawn_ns = time.time_ns()
        r = run_child([binary, "setup", "paper-all", "--seed", str(seed)], deadline)
        setups.append((r["ready_unix_ns"] - spawn_ns) * 1e-9)
    return setups


def percentile(values, q):
    """Nearest-rank percentile: an actual sample, no interpolation."""
    v = sorted(values)
    return v[max(0, math.ceil(q * len(v)) - 1)] if v else 0.0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def check_samples(samples, workload, seed, checks, reference):
    for s in samples:
        checks.expect(not s["failures"], "; ".join(s["failures"][:5]))
    checks.expect(len({s["digest"] for s in samples}) == 1,
                  f"{workload}: simulated output differs between samples of seed {seed}")
    counts = [{k: v for k, v in s["counts"].items() if not k.startswith("probe.")}
              for s in samples]
    checks.expect(all(c == counts[0] for c in counts),
                  f"{workload}: simulated counts differ between samples of seed {seed}")
    if seed == reference["seed"]:
        want = reference["digests"][workload]
        checks.expect(samples[0]["digest"] == want,
                      f"{workload}: output digest {samples[0]['digest']} != reference {want}")


def end_to_end(samples, setups, checks):
    walls = [s["wall_s"] for s in samples]
    n = sum(len(s["latencies_ms"]) for s in samples)
    fewest = min(len(s["latencies_ms"]) for s in samples)
    # A p99 needs ten operations beyond it; a run that cannot show that
    # (say, its engine failed early) fails instead of reporting one.
    checks.expect(fewest * 0.01 >= MIN_BEYOND_P99,
                  f"a sample with {fewest} latencies leaves fewer than "
                  f"{MIN_BEYOND_P99} beyond p99")
    series = {
        "wall_s": walls,
        "cpu_s": [s["cpu_s"] for s in samples],
        "setup_s": setups,
        "sim_maccess_per_s": [s["sim_accesses"] / s["wall_s"] / 1e6 for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "jobs_per_s": [(s["ops"] - s["ops_failed"]) / s["wall_s"] for s in samples],
    }
    values = {k: statistics.median(v) for k, v in series.items()}
    # Each sample's exact percentile, then the median over samples, like
    # every other host time: one disturbed sample cannot set the result.
    for name, q in (("latency_p50_ms", 0.50), ("latency_p99_ms", 0.99)):
        series[name] = [percentile(s["latencies_ms"], q) for s in samples]
        values[name] = statistics.median(series[name])
    return values, series, n


def operations(samples):
    """Operations attempted and failed (refused, errored) over all samples."""
    return (sum(int(s["ops"]) for s in samples),
            sum(int(s["ops_failed"]) for s in samples))


def shares(s):
    """serve-mixed's cold-trace share, which repeats exactly across
    samples (checked with the other counts)."""
    c = s["counts"]
    if "serve.cold_frac" not in c:
        return ""
    return f", cold-trace requests {c['serve.cold_frac']:.4g}"


def report(title, rows):
    log(title)
    log(f"  {'metric':28s} {'unit':8s} {'n':>6s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/med':>8s}")
    for name, unit, n, med, q1, q3 in rows:
        spread = (q3 - q1) / med if med else 0.0
        log(f"  {name:28s} {unit:8s} {n:6d} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.2%}")


def validate_trace(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    if not spans or not all("ts" in e and "dur" in e and "pid" in e for e in spans):
        raise RuntimeError(f"{path} is not a Chrome trace with complete events")
    return len(spans)


def measure(binary, bench, reference, w, seed, seconds, trace):
    """Runs one workload; returns its metrics, operations attempted and
    failed, and the run's checks."""
    deadline = time.monotonic() + DEADLINE_S
    checks = Checks()
    metrics = {}
    rows = []
    if trace == 0:
        samples = []
        start = time.monotonic()
        # Sample while another sample of the typical length still fits
        # in --seconds, and at least twice, so the counts and output are
        # always compared between two samples.
        while len(samples) < MIN_SAMPLES or (
                time.monotonic() - start
                + statistics.median(s["duration_s"] for s in samples) <= seconds):
            samples.append(sample(binary, w, seed, deadline))
        setups = [s["setup_s"] for s in samples]
        if w == "paper-all":
            setups += paper_setups(binary, seed, deadline)
        check_samples(samples, w, seed, checks, reference)
        values, series, n_latencies = end_to_end(samples, setups, checks)
        for m in bench["end_to_end"]:
            v = series[m["name"]]
            q1, q3 = quartiles(v)
            n = n_latencies if m["name"].startswith("latency_") else len(v)
            rows.append((m["name"], m["unit"], n, values[m["name"]], q1, q3))
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        ops, ops_failed = operations(samples)
        report(f"{w} seed {seed}: {len(samples)} samples, {ops} operations, "
               f"fail_frac {ops_failed / ops:.4g}{shares(samples[0])}", rows)
    else:
        untraced = sample(binary, w, seed, deadline)
        trace_path = os.path.join(OUT, f"{w}-seed{seed}.trace.json")
        traced = sample(binary, w, seed, deadline, trace_path)
        samples = [untraced, traced]
        check_samples(samples, w, seed, checks, reference)
        n_spans = validate_trace(trace_path)
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1
        idle = [m["name"] for m in bench["per_layer"] if m["name"] not in layers]
        for m in bench["per_layer"]:
            v = float(layers.get(m["name"], 0.0))
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
            rows.append((m["name"], m["unit"], 1, v, v, v))
        ops, ops_failed = operations(samples)
        report(f"{w} seed {seed}: per-layer metrics from one traced sample "
               f"({n_spans} spans in {os.path.relpath(trace_path, ROOT)})", rows)
        log(f"  not exercised by {w} (reported as 0): {', '.join(idle)}")
    for msg in checks.failures:
        log(f"CHECK FAILED: {msg}")
    return metrics, ops, ops_failed, checks


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    binary = build()
    os.makedirs(OUT, exist_ok=True)
    # `all` runs every workload in turn; its metric names get the
    # workload as a prefix.
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for w in names:
        m, ops, ops_failed, checks = measure(binary, bench, reference, w, args.seed,
                                             args.seconds, args.trace)
        prefix = f"{w}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += ops + checks.attempted
        failed += ops_failed + len(checks.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, KeyError, ValueError, subprocess.TimeoutExpired) as e:
        log(f"ledger: {e}")
        sys.exit(2)
