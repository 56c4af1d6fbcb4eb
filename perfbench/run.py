#!/usr/bin/env python3
"""Repository benchmark: city-scale handover simulations, timed end to end.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--tiny]

Run from the repository root. The first run configures and builds the
fhmip library and the simulation binary (perfbench/sim_bench.cpp) in Release
into .bench_build/; later runs only check the build.

--trace 0 times set-up alone in a few fresh processes, then runs the
workload's fixed set of sub-seeds (derived from --seed), one simulation per
fresh process, then repeats them in order until --seconds have passed; every
repeat must reproduce its first run's outcome fingerprint. It reports the
end-to-end metrics: host-side medians over all simulations, simulated
outcomes pooled over the distinct sub-seeds.

--trace 1 runs sub-seed 0 once untraced and once traced (step-attributed, see
sim_bench.cpp), checks that both print the same fingerprint, checks the
attribution, and reports the per-layer metrics.

Every simulation passes the correctness gate (all handover attempts resolved,
per-flow sent == delivered + dropped, no buffer lease left at quiesce, audit
hub clean) or the run is reported incorrect and exits 1. The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}, where
attempted/failed count simulations and the ones that failed a check.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Distinct sub-seeds per --trace 0 run, sized so the pooled handover
# outcomes are steady across seeds (see README.md).
WORKLOADS = {
    "city_roam": 3,
    "city_stream": 12,
    "handover_storm": 8,
}
TINY_DISTINCT = 2
# Extra set-up-only processes per --trace 0 run, so setup_s is a median over
# at least this many samples besides the simulations' own.
SETUP_SAMPLES = 9

# name -> unit, as printed. Sorted names are pinned by selftest.py.
END_TO_END = {
    "wall_s": "s",
    "handovers_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ho_failed_share": "share",
    "ho_predictive_share": "share",
    "ho_total_mean_ms": "ms",
    "ho_total_p95_ms": "ms",
    "pkt_loss_share": "share",
    "rt_loss_share": "share",
}
PER_LAYER = {
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim.pop_ns_p50": "ns",
    "sim.queue_depth_p50": "count",
    "wireless.busy_s": "s",
    "wireless.share": "share",
    "wireless.ns_per_host_tick": "ns",
    "wireless.tick_steps": "count",
    "wireless.handoffs": "count",
    "wireless.triggers": "count",
    "net.busy_s": "s",
    "net.share": "share",
    "net.transmits": "count",
    "net.ns_per_transmit": "ns",
    "net.radio_busy_s": "s",
    "net.radio_transmits": "count",
    "net.silent_steps": "count",
    "net.silent_ns_per_step": "ns",
    "net.link_drops": "count",
    "transport.busy_s": "s",
    "transport.pkts_created": "count",
    "fastho.busy_s": "s",
    "fastho.share": "share",
    "fastho.attempts": "count",
    "fastho.us_per_attempt": "us",
    "fastho.control_pkts": "count",
    "fastho.watchdog_fired": "count",
    "buffer.busy_s": "s",
    "buffer.grants": "count",
    "buffer.rejections": "count",
    "buffer.partial_grants": "count",
    "buffer.grant_ratio": "share",
    "buffer.pkts_buffered": "count",
    "buffer.drain_ratio": "share",
    "buffer.leases_reaped": "count",
    "obs.metric_cells": "count",
    "obs.timeline_records": "count",
    "obs.trace_overhead_share": "share",
    "scenario.build_s": "s",
    "scenario.start_s": "s",
    "other.busy_s": "s",
    "other.share": "share",
}
LAYERS = ("sim", "wireless", "net", "transport", "fastho", "buffer", "other")

# Attribution self-check: link serialisation completions (silent steps)
# come one per transmission; allow this relative gap.
SILENT_TRANSMIT_TOLERANCE = 0.05
# After the build, start no simulation past HARD_STOP_S and kill any still
# running at DEADLINE_S, well inside the 180 s a run may take.
HARD_STOP_S = 150.0
DEADLINE_S = 175.0


class BenchError(Exception):
    """A failed build, crash or correctness check."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    """Configures (once) and builds the simulation binary; returns its path."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no fhmip sources under {root}/src; run from the "
                         "repository root")
    bdir = root / ".bench_build"
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(bdir)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", str(bdir), "--target", "fhmip_perfbench",
                 "-j", jobs])
    exe = bdir / "fhmip_perfbench"
    if not exe.is_file():
        raise BenchError(f"build produced no {exe}")
    return exe


def run_checked(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def simulate(exe, workload, seed, mode, tiny, deadline):
    """One simulation in a fresh process; returns its JSON record."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} seed {seed} {mode}: out of time")
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        rec = {}
    if proc.returncode != 0 or not rec:
        log(proc.stderr)
        raise BenchError(f"{workload} seed {seed} {mode}: exit "
                         f"{proc.returncode}, gate: {rec.get('gate', '?')}")
    return rec


def sub_seed(seed, j):
    return seed * 1000 + j


def nearest_rank(values, p):
    if not values:
        return 0.0
    v = sorted(values)
    return v[max(1, math.ceil(p * len(v))) - 1]


def share(num, den):
    return num / den if den else 0.0


def run_untraced(exe, workload, seed, seconds, tiny, deadline):
    distinct = TINY_DISTINCT if tiny else WORKLOADS[workload]
    seeds = [sub_seed(seed, j) for j in range(distinct)]
    start = time.monotonic()
    try:
        setups = [simulate(exe, workload, seeds[j % distinct], "setup", tiny,
                           deadline)["setup_s"]
                  for j in range(SETUP_SAMPLES)]
    except BenchError as e:
        return 1, [str(e)], {}

    first = {}  # sub-seed -> record of its first run
    recs, failures = [], []
    loop_start = time.monotonic()
    k = 0
    while True:
        s = seeds[k % distinct]
        k += 1
        try:
            rec = simulate(exe, workload, s, "untraced", tiny, deadline)
        except BenchError as e:
            failures.append(str(e))
            break
        if s not in first:
            first[s] = rec
        elif rec["fingerprint"] != first[s]["fingerprint"]:
            failures.append(f"seed {s}: repeat changed the fingerprint")
            break
        recs.append(rec)
        now = time.monotonic()
        per_sim = (now - loop_start) / k
        if k <= distinct:  # every sub-seed, then at least one repeat
            if now - start > HARD_STOP_S:
                failures.append("sub-seeds did not fit the time cap")
                break
            continue
        if now - start + per_sim > min(seconds, HARD_STOP_S):
            break

    if not recs or len(first) < distinct:
        return k, failures, {}
    pooled = list(first.values())
    totals = [t for r in pooled for t in r["completed_total_ms"]]
    attempts = sum(r["attempts"] for r in pooled)
    wall = [r["wall_s"] for r in recs]
    metrics = {
        "wall_s": statistics.median(wall),
        "handovers_per_s": share(sum(r["handoffs"] for r in recs), sum(wall)),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in recs]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in recs),
        "ho_failed_share": share(sum(r["failed"] for r in pooled), attempts),
        "ho_predictive_share":
            share(sum(r["predictive"] for r in pooled), attempts),
        "ho_total_mean_ms": share(sum(totals), len(totals)),
        "ho_total_p95_ms": nearest_rank(totals, 0.95),
        "pkt_loss_share": share(sum(r["dropped"] for r in pooled),
                                sum(r["sent"] for r in pooled)),
        "rt_loss_share": share(sum(r["rt_dropped"] for r in pooled),
                               sum(r["rt_sent"] for r in pooled)),
    }
    log(f"{workload}: {len(recs)} simulations over {distinct} sub-seeds, "
        f"{attempts} pooled attempts, {len(totals)} completed; wall_s "
        + " ".join(f"{w:.4f}" for w in wall))
    return k, failures, metrics


def attribution_failures(t):
    """Self-checks of the traced run's step attribution."""
    out = []
    busy = sum(t[f"{layer}_busy_ns"] for layer in LAYERS)
    if busy != t["step_total_ns"]:
        out.append(f"layer busy {busy} ns != timed steps "
                   f"{t['step_total_ns']} ns")
    if t["empty_brackets"] != 0 or t["tick_steps"] != t["brackets"]:
        out.append(f"tick brackets: {t['brackets']} bracketed, "
                   f"{t['tick_steps']} ticks, {t['empty_brackets']} empty")
    gap = share(abs(t["silent_steps"] - t["transmits"]), t["transmits"])
    if gap > SILENT_TRANSMIT_TOLERANCE:
        out.append(f"net.silent_steps {t['silent_steps']} does not track "
                   f"{t['transmits']} transmits ({gap:.1%} apart)")
    return out


def run_traced(exe, workload, seed, tiny, deadline):
    s = sub_seed(seed, 0)
    failures = []
    u = simulate(exe, workload, s, "untraced", tiny, deadline)
    t = simulate(exe, workload, s, "traced", tiny, deadline)
    if u["fingerprint"] != t["fingerprint"]:
        failures.append(f"tracing changed the outcome: {u['fingerprint']} vs "
                        f"{t['fingerprint']}")
    failures += attribution_failures(t)

    total = t["step_total_ns"]
    busy = {layer: t[f"{layer}_busy_ns"] * 1e-9 for layer in LAYERS}
    metrics = {
        "sim.events": t["events"],
        "sim.ns_per_event": share(u["wall_s"] * 1e9, u["events"]),
        "sim.pop_ns_p50": t["pop_ns_p50"],
        "sim.queue_depth_p50": t["queue_depth_p50"],
        "wireless.busy_s": busy["wireless"],
        "wireless.share": share(t["wireless_busy_ns"], total),
        "wireless.ns_per_host_tick":
            share(t["tick_busy_ns"], t["tick_steps"] * t["mhs"]),
        "wireless.tick_steps": t["tick_steps"],
        "wireless.handoffs": t["handoffs"],
        "wireless.triggers": t["triggers"],
        "net.busy_s": busy["net"],
        "net.share": share(t["net_busy_ns"], total),
        "net.transmits": t["transmits"],
        "net.ns_per_transmit": share(t["net_busy_ns"], t["transmits"]),
        "net.radio_busy_s": t["radio_busy_ns"] * 1e-9,
        "net.radio_transmits": t["radio_transmits"],
        "net.silent_steps": t["silent_steps"],
        "net.silent_ns_per_step": share(t["silent_busy_ns"], t["silent_steps"]),
        "net.link_drops": t["link_drops"],
        "transport.busy_s": busy["transport"],
        "transport.pkts_created": t["pkts_created"],
        "fastho.busy_s": busy["fastho"],
        "fastho.share": share(t["fastho_busy_ns"], total),
        "fastho.attempts": t["attempts"],
        "fastho.us_per_attempt": share(t["fastho_busy_ns"] * 1e-3,
                                       t["attempts"]),
        "fastho.control_pkts": t["control_pkts"],
        "fastho.watchdog_fired": t["watchdog_fired"],
        "buffer.busy_s": busy["buffer"],
        "buffer.grants": t["grants"],
        "buffer.rejections": t["rejections"],
        "buffer.partial_grants": t["partial_grants"],
        "buffer.grant_ratio": share(t["grants"], t["grants"] + t["rejections"]),
        "buffer.pkts_buffered": t["pkts_buffered"],
        "buffer.drain_ratio": share(t["pkts_drained"], t["pkts_buffered"]),
        "buffer.leases_reaped": t["leases_reaped"],
        "obs.metric_cells": t["metric_cells"],
        "obs.timeline_records": t["timeline_records"],
        "obs.trace_overhead_share": share(t["wall_s"] - u["wall_s"],
                                          u["wall_s"]),
        "scenario.build_s": u["build_s"],
        "scenario.start_s": u["start_s"],
        "other.busy_s": busy["other"],
        "other.share": share(t["other_busy_ns"], total),
    }
    log(f"{workload}: traced {t['events']} events, {t['probe_steps']} probe "
        f"steps, fingerprint {t['fingerprint']}")
    return 2, failures, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="a few hosts for a few simulated seconds (self-test)")
    args = ap.parse_args()
    if args.seed < 0 or args.seed >= 2**53:
        ap.error("--seed must be in [0, 2^53)")

    root = Path.cwd()
    try:
        exe = build(root)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            attempted, failures, metrics = run_traced(
                exe, args.workload, args.seed, args.tiny, deadline)
            units = PER_LAYER
        else:
            attempted, failures, metrics = run_untraced(
                exe, args.workload, args.seed, args.seconds, args.tiny,
                deadline)
            units = END_TO_END
    except BenchError as e:
        attempted, failures, metrics, units = 1, [str(e)], {}, {}

    for f in failures:
        log(f"perfbench: FAILED: {f}")
    correct = not failures and set(metrics) == set(units)
    for name in units:
        if name in metrics:
            print(f"{args.workload} {name} {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
