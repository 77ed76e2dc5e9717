#!/usr/bin/env python3
"""The repo benchmark: server / attack / detect campaign workloads.

Usage (from the repository root):
    python3 perfbench/run.py --workload server|attack|detect --seed N
                             --seconds S --trace 0|1

Builds perfbench/ (the pktchase library from src/ plus the one-pass
runner perfbench_pass) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs passes of the workload for S
seconds. A pass is one closed batch -- the workload's whole grid
submitted at once to runtime::Campaign on nproc pinned workers -- in a
fresh process. --seed N selects campaign seed CAMPAIGN_SEEDS[N % 8],
the seeds the expected reports in perfbench/expected/ were recorded
for.

--trace 0 prints the end-to-end metrics of untraced passes (medians
over passes): wall_s, cpu_s, peak_rss_mb and setup_s.
--trace 1 alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (medians over passes; the counts
are deterministic and must repeat exactly), plus obs.trace_overhead.

Every pass's per-cell hexfloat report is checked against the expected
report, and the traced report against the untraced one. The last
stdout line is the result object {correct, attempted, failed,
metrics}; the line before it is the same run's summary stamped with
the run manifest, nproc, threads, seeds, cell and unit counts, sample
counts and fail_share (also written under the build directory). The
exit status is nonzero when any cell mismatched or aborted.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("server", "attack", "detect")

# Campaign seeds with recorded expected reports. The last one was held
# out: it was not used while the benchmark's run length was tuned.
CAMPAIGN_SEEDS = (1, 2, 3, 4, 5, 6, 7, 1017)

MIN_PASSES = 3
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}

# Counts that depend only on (workload, campaign seed); a pure speed-up
# must leave every one of them exactly equal.
DETERMINISTIC = ("runtime.units", "nic.frames", "nic.policy_hooks",
                 "cache.llc_accesses", "cache.llc_misses",
                 "attack.probe_rounds", "detect.epochs", "sim.events")

PER_LAYER_UNITS = {
    "runtime.units": "count",
    "runtime.unit_max_s": "s",
    "runtime.busy_s": "s",
    "runtime.idle_share": "ratio",
    "runtime.tasks_stolen": "count",
    "runtime.steal_hit_ratio": "ratio",
    "runtime.ring_full_retries": "count",
    "workload.unattributed_s": "s",
    "workload.unattributed_share": "ratio",
    "nic.frames": "count",
    "nic.policy_hooks": "count",
    "nic.deliver_s": "s",
    "nic.ns_per_frame": "ns",
    "cache.llc_accesses": "count",
    "cache.llc_misses": "count",
    "cache.miss_ratio": "ratio",
    "cache.walk_s": "s",
    "attack.probe_rounds": "count",
    "attack.chase_round_s": "s",
    "attack.sample_round_s": "s",
    "detect.epochs": "count",
    "detect.epoch_s": "s",
    "detect.ns_per_epoch": "ns",
    "sim.events": "count",
    "obs.trace_overhead": "ratio",
    "obs.dropped_events": "count",
}


def die(msg, code=2):
    """One-line error on stderr and a nonzero exit."""
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


class OneLineParser(argparse.ArgumentParser):
    def error(self, message):
        die(message)


def seed_arg(text):
    if not text.isdigit() or len(text) > 19:
        raise argparse.ArgumentTypeError(
            f"malformed seed {text!r} (want a non-negative integer)")
    return int(text)


def seconds_arg(text):
    if not text.isdigit() or not 1 <= int(text) <= 600:
        raise argparse.ArgumentTypeError(
            f"malformed seconds {text!r} (want an integer in 1..600)")
    return int(text)


def parse_args(argv):
    p = OneLineParser(add_help=False)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=seed_arg)
    p.add_argument("--seconds", required=True, type=seconds_arg)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    # Test hook: check against another copy of the expected reports.
    p.add_argument("--expected-dir", default=str(HERE / "expected"))
    args = p.parse_args(argv)
    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r} "
            f"(choose {', '.join(WORKLOADS)})")
    return args


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build():
    """Configure once, then (re)build incrementally; return the runner."""
    if not (ROOT / "src" / "runtime" / "campaign.hh").is_file():
        die(f"no pktchase sources at {ROOT / 'src'}; run from a full "
            "checkout of the repository")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", str(nproc())])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("benchmark build failed")
    return out / "perfbench_pass"


def run_pass(binary, workload, seed, threads, trace_path=None):
    """One batch in a fresh process; None when it aborted."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--threads", str(threads)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


def load_expected(expected_dir, workload, campaign_seed):
    path = Path(expected_dir) / f"{workload}.json"
    try:
        return json.loads(path.read_text())[str(campaign_seed)]
    except (OSError, ValueError, KeyError):
        die(f"no expected report for {workload} at campaign seed "
            f"{campaign_seed} in {path}")


def failed_cells(report, expected):
    """Cells whose hexfloat line differs from the expected one."""
    if report is None:
        return len(expected)
    bad = sum(1 for got, want in zip(report, expected) if got != want)
    return min(len(expected), bad + abs(len(expected) - len(report)))


def self_s(p, phase):
    return p["phases"].get(phase, {}).get("self_s", 0.0)


def layer_metrics(p, untraced_wall):
    """Per-layer metrics of one traced pass."""
    ph, cnt, cs = p["phases"], p["counters"], p["campaign"]
    unit_phases = [ph[k] for k in ("cell", "fabric.task") if k in ph]
    busy = sum(u["total_s"] for u in unit_phases)
    unattributed = sum(u["self_s"] for u in unit_phases)
    capacity = cs["threads_used"] * p["wall_s"]
    frames = cnt["frames_delivered"]
    epochs = cnt["detector_epochs"]
    accesses = cnt["llc_accesses"]
    deliver = self_s(p, "nic.deliver")
    epoch = self_s(p, "detect.epoch")
    return {
        "runtime.units": cs["tasks_run"],
        "runtime.unit_max_s": max(u["max_s"] for u in unit_phases),
        "runtime.busy_s": busy,
        "runtime.idle_share": max(0.0, capacity - busy) / capacity,
        "runtime.tasks_stolen": cs["tasks_stolen"],
        "runtime.steal_hit_ratio":
            cs["tasks_stolen"] / cs["steal_attempts"]
            if cs["steal_attempts"] else 0.0,
        "runtime.ring_full_retries": cs["ring_full_retries"],
        "workload.unattributed_s": unattributed,
        "workload.unattributed_share": unattributed / busy,
        "nic.frames": frames,
        "nic.policy_hooks": cnt["policy_hooks"],
        "nic.deliver_s": deliver,
        "nic.ns_per_frame": deliver * 1e9 / frames if frames else 0.0,
        "cache.llc_accesses": accesses,
        "cache.llc_misses": cnt["llc_misses"],
        "cache.miss_ratio":
            cnt["llc_misses"] / accesses if accesses else 0.0,
        "cache.walk_s": self_s(p, "llc.walk"),
        "attack.probe_rounds": cnt["probe_rounds"],
        "attack.chase_round_s": self_s(p, "probe.chase-round"),
        "attack.sample_round_s": self_s(p, "probe.sample-round"),
        "detect.epochs": epochs,
        "detect.epoch_s": epoch,
        "detect.ns_per_epoch": epoch * 1e9 / epochs if epochs else 0.0,
        "sim.events": cnt["sim_events"],
        "obs.trace_overhead": p["wall_s"] / untraced_wall - 1.0,
        "obs.dropped_events": p["dropped_events"],
    }


def median_of(samples):
    return statistics.median(samples) if samples else 0.0


def main(argv):
    args = parse_args(argv)
    traced_run = args.trace == "1"
    campaign_seed = CAMPAIGN_SEEDS[args.seed % len(CAMPAIGN_SEEDS)]
    expected = load_expected(args.expected_dir, args.workload,
                             campaign_seed)
    binary = build()
    threads = nproc()
    out_dir = build_dir() / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"{args.workload}.trace.json"

    passes = []  # (traced, pass dict or None)
    deadline = time.monotonic() + args.seconds
    while True:
        traced = traced_run and len(passes) % 2 == 1
        passes.append((traced, run_pass(
            binary, args.workload, campaign_seed, threads,
            trace_path if traced else None)))
        done = [p for _, p in passes if p is not None]
        if time.monotonic() >= deadline and len(passes) >= (
                2 * MIN_PASSES if traced_run else MIN_PASSES):
            break
        if not done and len(passes) >= MIN_PASSES:
            break  # Every pass aborts: stop early and report it.

    attempted = len(expected) * len(passes)
    failed = sum(failed_cells(p and p["report"], expected)
                 for _, p in passes)
    notes = []
    ok = [(t, p) for t, p in passes if p is not None]
    untraced = [p for t, p in ok if not t]
    traced = [p for t, p in ok if t]
    if traced_run and untraced and any(
            p["report"] != untraced[0]["report"] for p in traced):
        notes.append("traced report differs from the untraced report")

    metrics = {}
    samples = {}
    if not traced_run:
        for name, unit in END_TO_END_UNITS.items():
            vals = [v for p in untraced for v in (
                p[name] if isinstance(p[name], list) else [p[name]])]
            metrics[name] = {"value": median_of(vals), "unit": unit}
            samples[name] = len(vals)
    elif untraced and traced:
        base = median_of([p["wall_s"] for p in untraced])
        rows = [layer_metrics(p, base) for p in traced]
        for name, unit in PER_LAYER_UNITS.items():
            vals = [r[name] for r in rows]
            value = median_of(vals)
            if name in DETERMINISTIC:
                value = vals[0]
                if len(set(vals)) != 1:
                    notes.append(
                        f"{name} did not repeat: {sorted(set(vals))}")
            metrics[name] = {"value": value, "unit": unit}
            samples[name] = len(vals)
    else:
        notes.append("no pass completed")

    correct = failed == 0 and not notes and len(ok) == len(passes)
    first = ok[0][1] if ok else {}
    summary = {
        "manifest": first.get("manifest"),
        "workload": args.workload,
        "seed": args.seed,
        "campaign_seed": campaign_seed,
        "nproc": nproc(),
        "threads": threads,
        "cells": first.get("cells"),
        "units": first.get("units"),
        "trace": int(traced_run),
        "passes": len(passes),
        "fail_share": failed / attempted,
        "notes": notes,
        "metrics": {k: dict(v, samples=samples[k])
                    for k, v in metrics.items()},
    }
    line = json.dumps(summary, sort_keys=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(line + "\n")
    print(line)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
