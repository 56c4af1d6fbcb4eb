#!/usr/bin/env python3
"""stdout_digest — one line per bench binary: exit status and stdout SHA-256.

Usage:
  stdout_digest.py <build-dir> [--smoke] [--jobs N] [--compare-jobs M]

Runs every bench registered in bench/CMakeLists.txt (fhmip_bench and
fhmip_sweep_bench; not micro_core) from <build-dir>/bench, then every
example registered in examples/CMakeLists.txt from <build-dir>/examples,
one at a time, and prints

  <exit> <sha256-of-stdout> <bench>
  <exit> <sha256-of-stdout> examples/<example>

in registration order. Sweep benches get `--jobs N` (default 1). With
--smoke only the sweep benches run, each with `--smoke`, and no example.
Stderr (wall times) is discarded.

A no-behaviour-change claim is then one diff of the parent's and the
change's output. --compare-jobs M runs the set a second time at --jobs M
and fails unless both runs print the same lines (the sweep layer's
promise that stdout does not depend on the worker count).

Exit status: 0 when every bench exited 0 (and, with --compare-jobs, the
two runs match); 1 otherwise; 2 on usage errors.
"""

import argparse
import hashlib
import os
import re
import subprocess
import sys

REPO = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
REGISTRATION = re.compile(r"^\s*(fhmip_bench|fhmip_sweep_bench)\((\w+)\)",
                          re.MULTILINE)
EXAMPLE = re.compile(r"^\s*fhmip_example\((\w+)\)", re.MULTILINE)


def registered_benches():
    """(name, is_sweep) for each bench registration, in file order."""
    with open(os.path.join(REPO, "bench", "CMakeLists.txt")) as f:
        text = f.read()
    return [(name, kind == "fhmip_sweep_bench")
            for kind, name in REGISTRATION.findall(text)]


def registered_examples():
    """Example names in examples/CMakeLists.txt registration order."""
    with open(os.path.join(REPO, "examples", "CMakeLists.txt")) as f:
        return EXAMPLE.findall(f.read())


def digest(exe, args, label):
    if not os.path.exists(exe):
        return f"missing - {label}"
    run = subprocess.run([exe] + args, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, check=False)
    sha = hashlib.sha256(run.stdout).hexdigest()
    return f"{run.returncode} {sha} {label}"


def digest_lines(build_dir, smoke, jobs):
    lines = []
    for name, is_sweep in registered_benches():
        if smoke and not is_sweep:
            continue
        args = []
        if is_sweep:
            args = ["--jobs", str(jobs)] + (["--smoke"] if smoke else [])
        lines.append(digest(os.path.join(build_dir, "bench", name), args,
                            name))
    if not smoke:
        for name in registered_examples():
            lines.append(digest(os.path.join(build_dir, "examples", name), [],
                                f"examples/{name}"))
    return lines


def main(argv):
    ap = argparse.ArgumentParser(
        description="Print exit status and stdout SHA-256 of every bench.")
    ap.add_argument("build_dir")
    ap.add_argument("--smoke", action="store_true",
                    help="only the sweep benches, on their --smoke grid")
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker threads passed to sweep benches (default 1)")
    ap.add_argument("--compare-jobs", type=int, metavar="M",
                    help="rerun at --jobs M and fail if any line differs")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(args.build_dir, "bench")):
        print(f"stdout_digest: no bench/ under {args.build_dir}",
              file=sys.stderr)
        return 2

    lines = digest_lines(args.build_dir, args.smoke, args.jobs)
    print("\n".join(lines))
    ok = all(line.startswith("0 ") for line in lines)
    if args.compare_jobs is not None:
        other = digest_lines(args.build_dir, args.smoke, args.compare_jobs)
        for a, b in zip(lines, other):
            if a != b:
                ok = False
                print(f"stdout_digest: --jobs {args.jobs} vs "
                      f"{args.compare_jobs} differ: {a!r} vs {b!r}",
                      file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
