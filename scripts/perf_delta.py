#!/usr/bin/env python3
"""Diff bench JSON files against a baseline and print per-probe ratios.

Usage:
    scripts/perf_delta.py [--gate] [--threshold X] [--normalize PROBE] \
        OLD.json NEW.json [NEW.json ...]

Accepts either shape the harness produces:
  * Google-Benchmark-shaped files ({"benchmarks": [{"name", "real_time",
    ...}]}) -- BENCH_kernels.json / BENCH_micro.json, including the
    vendored mini_benchmark shim's output;
  * the scripts/smoke_bench.sh merge ({bench: {"wall_ms", "report"}}) --
    BENCH_smoke.json; wall_ms is compared, and any gbench-shaped report
    nested under a bench contributes its probes too.

Several NEW files are repeated records of one build: each probe's new
value is the median across the NEW files that report it (after
per-file normalization), so one noisy record cannot fail the gate alone.

Ratios are old/new, so > 1.0 means the new side is faster.

By default the script is informational: it exits 0 whatever the numbers
say, so ad-hoc comparisons never flake.  With --gate it becomes the CI
perf regression gate: it exits 1 if any shared probe's new time exceeds
threshold * old time (default 1.25x).  --normalize PROBE divides every
time by that reference probe's time *from the same file* before
comparing, turning absolute nanoseconds into machine-relative multiples
-- this is what makes a committed baseline meaningful across runner
generations (a uniformly slower machine scales the reference probe too,
leaving the normalized ratios fixed).

Probes present in only one file get their own clearly-marked table line
and never gate: a probe missing from the *baseline* (a bench added after
the baseline was committed) is informational by design, so --gate never
blocks the PR that introduces a new probe.  The same goes for a baseline
that lacks the --normalize reference probe entirely; only a reference
probe missing from the *new* file fails the gate (the new run is broken,
not merely older).
"""

import argparse
import json
import sys
from statistics import median


def flatten(doc, prefix=""):
    """Yields (probe name, time_ns-or-ms) pairs from either JSON shape."""
    if not isinstance(doc, dict):
        return
    if isinstance(doc.get("benchmarks"), list):
        for bench in doc["benchmarks"]:
            name = bench.get("name")
            time = bench.get("real_time", bench.get("cpu_time"))
            if name is not None and isinstance(time, (int, float)):
                yield prefix + name, float(time)
        return
    for key, value in doc.items():
        if not isinstance(value, dict):
            continue
        wall = value.get("wall_ms")
        if isinstance(wall, (int, float)):
            yield prefix + key + ":wall_ms", float(wall)
        report = value.get("report")
        if isinstance(report, dict):
            yield from flatten(report, prefix + key + ":")


def normalize(probes, reference, path):
    """Divides every probe time by the reference probe's time in `probes`.

    The reference name matches exactly, or -- since arg-ed registrations
    are named "PROBE/arg" -- the first probe whose name starts with
    "PROBE/".
    """
    ref = probes.get(reference)
    if ref is None:
        for name in sorted(probes):
            if name.startswith(reference + "/"):
                ref = probes[name]
                break
    if not ref:
        sys.stderr.write(
            f"perf_delta: reference probe {reference!r} not found "
            f"(or zero) in {path}\n")
        return None
    return {name: t / ref for name, t in probes.items()}


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--gate", action="store_true",
                        help="exit 1 on regression beyond --threshold")
    parser.add_argument("--threshold", type=float, default=1.25,
                        help="max allowed new/old per probe (gate mode)")
    parser.add_argument("--normalize", metavar="PROBE",
                        help="divide times by this probe's time per file")
    parser.add_argument("old")
    parser.add_argument("new", nargs="+",
                        help="one or more records of the new build")
    args = parser.parse_args(argv[1:])

    with open(args.old) as f:
        old = dict(flatten(json.load(f)))
    records = []
    for path in args.new:
        with open(path) as f:
            record = dict(flatten(json.load(f)))
        if args.normalize:
            record = normalize(record, args.normalize, path)
            if record is None:
                # A new run that didn't produce the reference probe: nothing
                # it measured can be interpreted, which is a failure of the
                # run itself, not of the baseline's age.
                return 1 if args.gate else 0
        records.append(record)
    new = {name: median(r[name] for r in records if name in r)
           for name in dict.fromkeys(n for r in records for n in r)}
    if args.normalize:
        old_n = normalize(old, args.normalize, args.old)
        if old_n is None:
            print(f"perf_delta: baseline {args.old} lacks reference probe "
                  f"{args.normalize!r}; nothing to compare against "
                  f"(informational, not gating)")
            old_n = {}
        old = old_n
    shared = [name for name in old if name in new]
    only_old = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))
    unit = "rel" if args.normalize else "time"
    width = max((len(name) for name in (*shared, *only_old, *only_new)),
                default=len("probe"))
    print(f"{'probe'.ljust(width)}  {'old ' + unit:>12}  {'new ' + unit:>12}"
          f"  {'old/new':>8}")
    regressions = []
    for name in shared:
        ratio = old[name] / new[name] if new[name] else float("inf")
        flag = ""
        if args.gate and new[name] > args.threshold * old[name]:
            regressions.append(name)
            flag = "  REGRESSION"
        print(f"{name.ljust(width)}  {old[name]:12.4g}  {new[name]:12.4g}"
              f"  {ratio:8.2f}x{flag}")
    # One-sided probes get their own explicit line each -- never a lookup
    # into the file that lacks them, never a gate failure.
    for name in only_old:
        print(f"{name.ljust(width)}  {old[name]:12.4g}  {'--':>12}"
              f"  {'':>8}   only in baseline (not gated)")
    for name in only_new:
        print(f"{name.ljust(width)}  {'--':>12}  {new[name]:12.4g}"
              f"  {'':>8}   no baseline yet (informational)")
    if not shared:
        print("no shared probes between the two files (nothing to gate)")
    if args.gate:
        if regressions:
            print(f"PERF GATE FAILED: {len(regressions)} probe(s) slower "
                  f"than {args.threshold}x baseline: {', '.join(regressions)}")
            return 1
        print(f"perf gate OK: {len(shared)} shared probe(s) within "
              f"{args.threshold}x of baseline"
              + (f"; {len(only_new)} new probe(s) without a baseline"
                 if only_new else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
