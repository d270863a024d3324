#!/usr/bin/env python3
"""The tracer's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package (its own
cargo workspace, depending on the repository's crates by path), sets
the workload up several times, computes the tagged reference, then
either measures untraced runs for S seconds (--trace 0: end-to-end
metrics) or makes the traced run (--trace 1: per-layer metrics). The
metric names and units come from BENCHMARK.json. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("batch-text", "sharded-ptbin", "dist-text", "online")
# Set-ups per run (setup_s is their median): at least this many, and
# more until this much time was spent setting up, so a small corpus is
# set up often enough for a steady median.
MIN_SETUPS, SETUP_SECONDS, MAX_SETUPS = 3, 3.0, 15
# Fewest measured runs a median is taken over, even past --seconds.
MIN_RUNS = 3
# Every step after the build ends within this many seconds of it.
STEPS_DEADLINE_S = 170
DEADLINE = None


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def call(cmd):
    """Runs one subprocess in its own process group, so a timeout stops
    every process it started, and returns its standard output."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"exit {proc.returncode}: {' '.join(cmd)}")
    return out


def step(exe, *args):
    """Runs a perfbench subcommand and parses its `key=value` line."""
    lines = call([exe, *args]).strip().splitlines()
    if not lines:
        fail(f"no output from {args[0]}")
    return {k: float(v) for k, v in (kv.split("=", 1) for kv in lines[-1].split())}


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    if proc.returncode != 0:
        fail("build failed")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "perfbench")


def median_of(rows, key):
    return statistics.median(r[key] for r in rows)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    exe = build()
    global DEADLINE
    DEADLINE = time.monotonic() + STEPS_DEADLINE_S
    work = os.path.join(ROOT, ".bench_work", a.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", a.workload, "--dir", work]

    setups, started = [], time.monotonic()
    while len(setups) < MIN_SETUPS or (
        len(setups) < MAX_SETUPS and time.monotonic() - started < SETUP_SECONDS
    ):
        setups.append(step(exe, "setup", "--seed", str(a.seed), *common))
    ref = step(exe, "reference", "--seed", str(a.seed), *common)
    calib = [step(exe, "calib")["host.calib_mops"]]
    print(
        f"{a.workload} seed={a.seed}: {ref['records']:.0f} records, {ref['logged']:.0f} "
        f"logged requests, reference path accuracy {ref['path_accuracy']:.4f}"
    )

    if a.trace:
        layers = step(exe, "trace", "--seconds", str(a.seconds), *common)
        attempted, failed = int(layers.pop("attempted")), int(layers.pop("failed"))
        unjoined = 0
        for k in ("setup.simulate_s", "setup.write_s", "setup.encode_s"):
            layers[k] = median_of(setups, k)
        calib.append(step(exe, "calib")["host.calib_mops"])
        layers["host.calib_mops"] = statistics.median(calib)
        values, wanted = layers, spec["per_layer"]
        print(
            f"traced run: wall {layers['trace.wall_s']:.3f}s, untraced "
            f"{layers['trace.untraced_wall_s']:.3f}s, overhead {layers['trace.overhead_s']:.3f}s "
            f"({100 * layers['trace.overhead_share']:.1f}%), {layers['trace.spans']:.0f} spans "
            f"in {os.path.relpath(work, ROOT)}/spans.bin"
        )
    else:
        runs, started = [], time.monotonic()
        while True:
            t = time.monotonic()
            runs.append(step(exe, "run", *common))
            took = time.monotonic() - t
            elapsed = time.monotonic() - started
            if len(runs) >= MIN_RUNS and elapsed + took > a.seconds:
                break
        calib.append(step(exe, "calib")["host.calib_mops"])
        attempted = int(sum(r["logged"] for r in runs))
        failed = int(sum(r["failed"] for r in runs))
        unjoined = int(sum(r["unjoined"] for r in runs))
        values = {
            "records_per_s": statistics.median(r["records"] / r["wall_s"] for r in runs),
            "cpu_us_per_record": statistics.median(
                r["cpu_s"] * 1e6 / r["records"] for r in runs
            ),
            "peak_rss_mb": median_of(runs, "rss_mb"),
            "path_accuracy": statistics.median(r["correct"] / r["logged"] for r in runs),
            "setup_s": median_of(setups, "setup_s"),
            "emit_latency_p50_ms": median_of(runs, "emit_p50_ms"),
            "emit_latency_p99_ms": median_of(runs, "emit_p99_ms"),
        }
        wanted = spec["end_to_end"]
        print(
            f"{len(runs)} measured runs; emit latency over {median_of(runs, 'emit_samples'):.0f} "
            f"CAGs per run; host calibration {statistics.median(calib):.1f} Mop/s"
        )
        if a.workload == "online":
            print(
                f"online: live CAGs {median_of(runs, 'live_cags'):.0f}, drained "
                f"{median_of(runs, 'drained_cags'):.0f}, generator offered "
                f"{median_of(runs, 'gen_offered_per_s'):.0f} rec/s, late p99 "
                f"{median_of(runs, 'gen_late_p99_ms'):.3f} ms"
            )

    # Keep only the span files: the inputs are large and re-made per run.
    for name in os.listdir(work):
        if not name.endswith("spans.bin"):
            path = os.path.join(work, name)
            shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and unjoined == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
