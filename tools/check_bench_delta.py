#!/usr/bin/env python3
"""Gate a bench's deterministic series exactly against its baseline.

Compares a freshly produced BENCH_*.json recorder file (see
tools/check_metrics_schema.py for the shape) against the committed baseline
from the same smoke sweep.  Every (figure, architecture, clients) point
that is not marked `"host": true` must carry the same value, as recorded
(`%.6g`), and the same unit.  A point that moves up or down, goes missing
or appears fails, one line per point.  Host records hold wall-clock
figures that follow the machine's load; their values are not compared.

A change that moves numbers on purpose copies the new BENCH file over
tools/bench_baselines/ and names the moved points in CHANGES.md.

Usage:
  check_bench_delta.py FRESH.json BASELINE.json
"""

import json
import sys


def load_records(filename):
    try:
        with open(filename, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"{filename}: unreadable or not JSON: {e}")
    if not isinstance(doc, dict) or "records" not in doc:
        sys.exit(f"{filename}: not a bench recorder file (no 'records')")
    return {(r.get("figure"), r.get("architecture"), r.get("clients")): r
            for r in doc["records"]}


def show(rec):
    if rec is None:
        return "missing"
    suffix = " (host)" if rec.get("host") else ""
    return f"{rec.get('value')} {rec.get('unit')}{suffix}"


def moved(old, new):
    """Why the point fails the gate, or None when it holds."""
    if old is None or new is None:
        return "missing" if new is None else "new"
    if old.get("unit") != new.get("unit"):
        return "unit changed"
    if bool(old.get("host")) != bool(new.get("host")):
        return "host mark changed"
    if old.get("host") or old.get("value") == new.get("value"):
        return None
    try:
        return f"{100 * (new['value'] - old['value']) / old['value']:+.3g}%"
    except (TypeError, ZeroDivisionError):
        return "changed"


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    fresh_file, base_file = argv[1:]
    fresh = load_records(fresh_file)
    base = load_records(base_file)

    failures = []
    for key in sorted(set(base) | set(fresh), key=str):
        why = moved(base.get(key), fresh.get(key))
        if why is not None:
            figure, arch, clients = key
            failures.append(f"{figure}/{arch}/{clients}: "
                            f"{show(base.get(key))} -> "
                            f"{show(fresh.get(key))} ({why})")
    if failures:
        print(f"{len(failures)} point(s) differ from {base_file}:",
              file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    gated = sum(1 for r in base.values() if not r.get("host"))
    print(f"OK: {gated} point(s) equal the baseline exactly "
          f"({len(base) - gated} host point(s) not compared).")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
