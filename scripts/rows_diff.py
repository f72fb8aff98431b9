#!/usr/bin/env python3
"""Compares two mc_campaign JSONL records point by point.

    python3 scripts/rows_diff.py OLD.jsonl NEW.jsonl

Rows are matched by their "point" key, so row order (which depends on the
thread count) does not matter.  Every column except the measured ones,
wall_ms and peak_rss_kb, must be equal.  Prints each difference and exits
1 if there is any: a point in one file only, a point listed twice, or a
column that differs.  Exits 0 when the records match, 2 on bad usage.
"""

import json
import sys

MEASURED = {"wall_ms", "peak_rss_kb"}


def load(path):
    rows, dupes = {}, []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            if not line.strip():
                continue
            row = json.loads(line)
            point = row.get("point")
            if point is None:
                print(f"rows_diff: {path}:{n}: row has no 'point'",
                      file=sys.stderr)
                sys.exit(2)
            if point in rows:
                dupes.append(point)
            rows[point] = row
    return rows, dupes


def main(argv):
    if len(argv) != 3:
        print("usage: rows_diff.py OLD.jsonl NEW.jsonl", file=sys.stderr)
        return 2
    old_path, new_path = argv[1], argv[2]
    old, old_dupes = load(old_path)
    new, new_dupes = load(new_path)
    problems = [f"{path}: point listed twice: {p}"
                for path, dupes in ((old_path, old_dupes),
                                    (new_path, new_dupes))
                for p in dupes]
    for p in sorted(old.keys() - new.keys()):
        problems.append(f"only in {old_path}: {p}")
    for p in sorted(new.keys() - old.keys()):
        problems.append(f"only in {new_path}: {p}")
    for p in sorted(old.keys() & new.keys()):
        a, b = old[p], new[p]
        for col in sorted((a.keys() | b.keys()) - MEASURED):
            if a.get(col) != b.get(col):
                problems.append(f"{p}: {col}: {a.get(col)!r} -> "
                                f"{b.get(col)!r}")
    for line in problems:
        print(line)
    print(f"rows_diff: {len(old)} vs {len(new)} points, "
          f"{len(problems)} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
