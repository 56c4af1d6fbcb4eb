#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, both modes.

    python3 perfbench/selftest.py

Run from the repository root. Each run must pass its correctness checks and
print exactly the metric names and units pinned below, which must also match
BENCHMARK.json. Renaming, adding or dropping a metric fails this test until
the pin is updated on purpose.
"""

import json
import subprocess
import sys
from pathlib import Path

PINNED_END_TO_END = [
    ("handovers_per_s", "1/s"),
    ("ho_failed_share", "share"),
    ("ho_predictive_share", "share"),
    ("ho_total_mean_ms", "ms"),
    ("ho_total_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("pkt_loss_share", "share"),
    ("rt_loss_share", "share"),
    ("setup_s", "s"),
    ("wall_s", "s"),
]
PINNED_PER_LAYER = [
    ("buffer.busy_s", "s"),
    ("buffer.drain_ratio", "share"),
    ("buffer.grant_ratio", "share"),
    ("buffer.grants", "count"),
    ("buffer.leases_reaped", "count"),
    ("buffer.partial_grants", "count"),
    ("buffer.pkts_buffered", "count"),
    ("buffer.rejections", "count"),
    ("fastho.attempts", "count"),
    ("fastho.busy_s", "s"),
    ("fastho.control_pkts", "count"),
    ("fastho.share", "share"),
    ("fastho.us_per_attempt", "us"),
    ("fastho.watchdog_fired", "count"),
    ("net.busy_s", "s"),
    ("net.link_drops", "count"),
    ("net.ns_per_transmit", "ns"),
    ("net.radio_busy_s", "s"),
    ("net.radio_transmits", "count"),
    ("net.share", "share"),
    ("net.silent_ns_per_step", "ns"),
    ("net.silent_steps", "count"),
    ("net.transmits", "count"),
    ("obs.metric_cells", "count"),
    ("obs.timeline_records", "count"),
    ("obs.trace_overhead_share", "share"),
    ("other.busy_s", "s"),
    ("other.share", "share"),
    ("scenario.build_s", "s"),
    ("scenario.start_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.pop_ns_p50", "ns"),
    ("sim.queue_depth_p50", "count"),
    ("transport.busy_s", "s"),
    ("transport.pkts_created", "count"),
    ("wireless.busy_s", "s"),
    ("wireless.handoffs", "count"),
    ("wireless.ns_per_host_tick", "ns"),
    ("wireless.share", "share"),
    ("wireless.tick_steps", "count"),
    ("wireless.triggers", "count"),
]


def declared(spec, key):
    return sorted((m["name"], m["unit"]) for m in spec[key])


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    errors = []
    if declared(spec, "end_to_end") != PINNED_END_TO_END:
        errors.append("BENCHMARK.json end_to_end differs from the pin")
    if declared(spec, "per_layer") != PINNED_PER_LAYER:
        errors.append("BENCHMARK.json per_layer differs from the pin")

    for w in spec["workloads"]:
        for trace, pinned in ((0, PINNED_END_TO_END), (1, PINNED_PER_LAYER)):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace),
                                     "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
            label = f"{w['name']} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                errors.append(f"{label}: exit {proc.returncode}\n"
                              f"{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            got = sorted((k, v["unit"]) for k, v in result["metrics"].items())
            if not result["correct"] or result["failed"] != 0:
                errors.append(f"{label}: reported incorrect")
            if got != pinned:
                errors.append(f"{label}: metric names/units differ from the "
                              f"pin: {sorted(set(got) ^ set(pinned))}")
            print(f"{label}: {len(got)} metrics, correct={result['correct']}")

    for e in errors:
        print(f"selftest: FAIL: {e}", file=sys.stderr)
    print("selftest:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
