#!/usr/bin/env python3
"""bench_record — record and compare perfbench end-to-end runs.

Usage:
  bench_record.py record [--runs R] [--seeds 1,7] [--workloads W,...]
                         [--out DIR] LABEL=CHECKOUT ...
  bench_record.py compare BASE.json NEW.json

`record` runs `python3 perfbench/run.py --workload W --seed s --seconds S
--trace 0`, S being BENCHMARK.json's run_seconds, from each CHECKOUT (a
source tree; perfbench builds it on first use) R times per workload and
seed, and writes DIR/BENCH_<LABEL>.json with
every end-to-end metric's median, quartiles and per-run values. Given two or
more checkouts it interleaves them: run r of every checkout is taken back to
back, and the first side rotates with r, so drift on a shared machine falls
on both sides alike and run r of each side forms a pair. A run that fails
perfbench's correctness gate stops the recording with exit 1.

`compare` reads two records and flags a metric on a workload and seed when
NEW's median lies outside BASE's quartile spread on the worse side. The
relative bound of that metric in BENCHMARK.json is the ceiling: a median
worse than BASE's by more than the bound is flagged even when BASE's
spread is wider. A median outside the spread on the better side is reported
as better. Paired records also report how many pairs NEW won. Records of
different run lengths (`seconds`) do not compare. Exit 0 when nothing is
flagged, 1 otherwise, 2 on usage errors and on records that do not
compare.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def load_benchmark():
    with open(REPO / "BENCHMARK.json") as f:
        spec = json.load(f)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def quartiles(values):
    """(q1, median, q3); the quartiles of one value are the value itself."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def describe(checkout):
    proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always",
                           "--dirty"], capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed "
                           f"(exit {proc.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}


def record(args):
    spec, metrics = load_benchmark()
    sides = []
    for item in args.sides:
        label, sep, checkout = item.partition("=")
        if not sep or not label or not Path(checkout, "perfbench").is_dir():
            print(f"bench_record: expected LABEL=CHECKOUT with perfbench/, "
                  f"got {item!r}", file=sys.stderr)
            return 2
        sides.append((label, Path(checkout).resolve()))
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = {label: {w: {str(s): [] for s in args.seeds} for w in workloads}
            for label, _ in sides}
    for w in workloads:
        for s in args.seeds:
            for r in range(args.runs):
                for i in range(len(sides)):
                    label, checkout = sides[(r + i) % len(sides)]
                    t0 = time.monotonic()
                    try:
                        values = run_once(checkout, w, s, seconds)
                    except RuntimeError as e:
                        print(f"bench_record: {e}", file=sys.stderr)
                        return 1
                    runs[label][w][str(s)].append(values)
                    print(f"{w} seed {s} run {r} {label}: wall_s "
                          f"{values['wall_s']:.4f} "
                          f"({time.monotonic() - t0:.0f} s)", file=sys.stderr,
                          flush=True)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for label, checkout in sides:
        doc = {"label": label, "source": describe(checkout),
               "runs": args.runs, "seconds": seconds,
               "paired_with": [l for l, _ in sides if l != label],
               "workloads": {}}
        for w in workloads:
            doc["workloads"][w] = {}
            for s in args.seeds:
                per_run = runs[label][w][str(s)]
                entry = {}
                for name, m in metrics.items():
                    values = [v[name] for v in per_run]
                    q1, med, q3 = quartiles(values)
                    entry[name] = {"unit": m["unit"], "better": m["better"],
                                   "median": med, "q1": q1, "q3": q3,
                                   "runs": values}
                doc["workloads"][w][str(s)] = entry
        # One line per metric's run list keeps a record readable in a diff.
        text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                      lambda m: "[" + " ".join(m.group(1).split()) + "]",
                      json.dumps(doc, indent=1))
        path = out / f"BENCH_{label}.json"
        path.write_text(text + "\n")
        print(f"bench_record: wrote {path}", file=sys.stderr)
    return 0


def compare(args):
    _, metrics = load_benchmark()
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    if base["seconds"] != new["seconds"]:
        print(f"bench_record: runs of {base['seconds']} s and "
              f"{new['seconds']} s do not compare", file=sys.stderr)
        return 2
    paired = (new["label"] in base.get("paired_with", []) and
              base["runs"] == new["runs"])
    flagged = 0
    print(f"{'workload':<15} {'seed':>4} {'metric':<20} {'base q1/med/q3':>30} "
          f"{'new median':>11} {'wins':>6}  verdict")
    for w, seeds in new["workloads"].items():
        for s, entry in seeds.items():
            b_entry = base["workloads"].get(w, {}).get(s)
            if b_entry is None:
                continue
            for name, n in entry.items():
                b = b_entry[name]
                lower = n["better"] == "lower"
                bound = metrics[name]["bound"] * abs(b["median"])
                if lower:
                    worse = n["median"] > min(b["q3"], b["median"] + bound)
                    better = n["median"] < b["q1"]
                else:
                    worse = n["median"] < max(b["q1"], b["median"] - bound)
                    better = n["median"] > b["q3"]
                wins = ""
                if paired:
                    won = sum((x < y) if lower else (x > y)
                              for x, y in zip(n["runs"], b["runs"]))
                    wins = f"{won}/{len(n['runs'])}"
                verdict = "WORSE" if worse else "better" if better else "same"
                flagged += worse
                spread = f"{b['q1']:.4g}/{b['median']:.4g}/{b['q3']:.4g}"
                print(f"{w:<15} {s:>4} {name:<20} {spread:>30} "
                      f"{n['median']:>11.4g} {wins:>6}  {verdict}")
    return 1 if flagged else 0


def int_list(text):
    return [int(v) for v in text.split(",")]


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record", help="run perfbench and write records")
    rec.add_argument("sides", nargs="+", metavar="LABEL=CHECKOUT")
    rec.add_argument("--runs", type=int, default=10)
    rec.add_argument("--seeds", type=int_list, default=[1, 7],
                     help="comma-separated (default 1,7)")
    rec.add_argument("--workloads", type=lambda v: v.split(","),
                     help="comma-separated (default: all in BENCHMARK.json)")
    rec.add_argument("--out", default=str(REPO / "bench" / "records"))
    cmp_ = sub.add_parser("compare", help="flag regressions between records")
    cmp_.add_argument("base")
    cmp_.add_argument("new")
    args = ap.parse_args(argv)
    if args.cmd == "record" and args.runs < 1:
        ap.error("--runs must be at least 1")
    return record(args) if args.cmd == "record" else compare(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
